"""Exception types raised when operation contracts are violated."""


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
