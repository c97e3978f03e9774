"""Exception types raised when operation contracts are violated."""

import numpy as np


class CliError(ValueError):
    """Usage or input-format error; maps to exit code 1."""


class HeatLassoError(ValueError):
    """Base class for all contract violations raised by this package."""


class DimensionTooLarge(HeatLassoError):
    """Problem size exceeds the dense-oracle limit."""


class InvalidQuantile(HeatLassoError):
    """Quantile level outside (0, 1)."""


class NotACorrelation(HeatLassoError):
    """Matrix is not a valid correlation matrix."""


class InvalidProbability(HeatLassoError):
    """Edge probability outside [0, 1] or b > a."""


class LengthMismatch(HeatLassoError):
    """Vector length inconsistent with the graph or group structure."""


class ShapeMismatch(HeatLassoError):
    """Array shapes inconsistent with each other."""


class LabelDomain(HeatLassoError):
    """Classification labels outside {0, 1}."""


class NonFiniteObjective(HeatLassoError):
    """Loss or objective overflowed; learning rate is likely too large."""


class GridEmpty(HeatLassoError):
    """Cross-validation grid has no entries."""


class FoldTooSmall(HeatLassoError):
    """Fewer samples than requested folds."""


class NotPositiveDefinite(HeatLassoError):
    """Covariance parameters violate positive-definiteness."""


def _is_integer(v):
    """A Python or numpy integer; not a bool, nor a float such as 50.0 from JSON."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    """A Python or numpy integer or float; not a bool, nor a string."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


_TESTS = {float: _is_real, int: _is_integer, bool: lambda v: isinstance(v, (bool, np.bool_))}


def check_arg(name, value, interval="(-inf, inf)", kind=float, error=ValueError,
              bounds=None, message=None):
    """Raise error("<name> must be <rule>, got <value!r>") unless value is a
    `kind` (float, int or bool; a bool is no number) inside `interval`, such
    as "[0, inf)", with ends `bounds` where the text is not exact. A list or
    tuple must be nonempty; its first entry refused is named. `message`
    replaces the text where a call site keeps its own wording."""
    lo_text, hi_text = interval[1:-1].split(", ")
    lo, hi = bounds or (float(lo_text), float(hi_text))
    entries = value if isinstance(value, (list, tuple)) else [value]
    bad = [v for v in entries if not (_TESTS[kind](v) and (lo < v or lo == v and interval[0] == "[")
                                      and (v < hi or v == hi and interval[-1] == "]"))]
    if entries and not bad:
        return
    op = ">" if interval[0] == "(" else ">="
    bound = f"in {interval}" if hi_text != "inf" else f"{op} {lo_text}" if lo_text != "-inf" else ""
    noun = {int: "an integer" if entries is not value else "integers", bool: "a bool",
            float: "" if bound[:2] == "in" else "finite and" if bound else "finite"}[kind]
    rule = f"{noun} {bound}".strip()
    raise error(message or f"{name} must be {rule}, got {(bad or [value])[0]!r}")
