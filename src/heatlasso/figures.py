"""Level-set montage of the heat-flow penalty unit ball.

Renders, for each requested flow time, the curve {penalty = 1} in the
(beta_1, beta_2) plane at beta_3 = 0 on the hard-wired three-vertex graph
(one edge plus an isolated vertex). Output is a plain SVG with exactly one
closed contour path per panel so tests can assert path counts and bounding
boxes.

The curve is drawn from its closed form, not traced on a grid. The penalty
P(beta) = sum_j sqrt((K beta^2)_j) is positively homogeneous of degree 1,
P(c beta) = c P(beta) for c >= 0, and positive away from 0: the heat kernel
K = e^{-tL} is entrywise nonnegative with unit column sums, so
sum_j (K beta^2)_j = ||beta||^2 > 0 and some term is positive. So along each
unit direction u the ray c u meets {P = 1} exactly once, at c = 1 / P(u),
and the points u / P(u) lie on the unit sphere up to rounding.
"""

import numpy as np

from .errors import check_arg
from .graphs import figure_graph
from .heatflow import exact_heat_kernel
from .penalty import _penalty_terms

EXTENT = 1.25  # each panel shows [-EXTENT, EXTENT]^2
PANEL_PX = 260


def levelset_points(t, points):
    """The unit penalty sphere on the figure graph at flow time t: an
    (points, 2) closed polygon, u / P(u) for the unit directions u at
    `points` evenly spaced angles on [0, 2 pi], the first at angle 0 and the
    last at 2 pi."""
    check_arg("points", points, "[3, inf)", int)
    theta = np.linspace(0.0, 2.0 * np.pi, points)
    u = np.stack([np.cos(theta), np.sin(theta)])  # (2, points), beta_3 = 0
    K = exact_heat_kernel(figure_graph(), t)
    return (u / _penalty_terms(K[:, :2] @ (u * u))[0]).T


def write_levelset_svg(t_values, path, grid_n=201):
    """One SVG montage, one panel (and one closed contour path of grid_n
    points) per flow time."""
    check_arg("grid_n", grid_n, "[3, inf)", int)
    t_values = list(t_values)
    pad = 30
    width = len(t_values) * (PANEL_PX + pad) + pad
    height = PANEL_PX + 2 * pad + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<style>path.contour{fill:none;stroke:#1c4e9c;stroke-width:1.4}'
        'rect.frame{fill:none;stroke:#999;stroke-width:1}'
        'text{font-family:sans-serif;font-size:13px}</style>',
    ]
    for idx, t in enumerate(t_values):
        ox = pad + idx * (PANEL_PX + pad)
        oy = pad
        pts = levelset_points(t, grid_n)
        xs = ox + (pts[:, 0] + EXTENT) / (2 * EXTENT) * PANEL_PX
        ys = oy + (EXTENT - pts[:, 1]) / (2 * EXTENT) * PANEL_PX
        coords = [f"{x:.2f} {y:.2f}" for x, y in zip(xs, ys)]
        d = f"M {coords[0]} L {' '.join(coords[1:])} Z"
        parts.append(f'<rect class="frame" x="{ox}" y="{oy}" '
                     f'width="{PANEL_PX}" height="{PANEL_PX}"/>')
        parts.append(f'<path class="contour" d="{d}"/>')
        parts.append(f'<text x="{ox + PANEL_PX / 2:.0f}" '
                     f'y="{oy + PANEL_PX + 18}" text-anchor="middle">'
                     f't = {t:g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
