"""Composite quadrature grids: oscillation-resolving panels plus geometric
refinement toward a designated point.  Internal plumbing."""

from functools import lru_cache

import numpy as np

from .legendre import gauss_nodes

# One 16-point panel per oscillation wavelength gives 16 nodes/wavelength,
# comfortably above the 10-node floor the coefficient quadrature promises.
PANEL_ORDER = 16
GRADE_RATIO = 1.4


@lru_cache(maxsize=8)
def _rule01(order=PANEL_ORDER):
    """Cached Gauss rule mapped to [0, 1]."""
    rule = gauss_nodes(order)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


def composite_nodes(breakpoints, order=PANEL_ORDER):
    """Gauss nodes/weights for the panels defined by sorted breakpoints."""
    bp = np.asarray(breakpoints, dtype=float)
    a = bp[:-1]
    h = np.diff(bp)
    gx, gw = _rule01(order)
    nodes = (a[:, None] + h[:, None] * gx[None, :]).ravel()
    weights = (h[:, None] * gw[None, :]).ravel()
    return nodes, weights


def graded_offsets(floor_width, top_width, ratio=GRADE_RATIO):
    """Cumulative panel offsets 0, w0, w0+w1, ... with w_j = floor * ratio^j,
    stopping once a panel reaches ``top_width``."""
    widths = []
    w = float(floor_width)
    while w < top_width:
        widths.append(w)
        w *= ratio
    if not widths:
        return np.array([0.0])
    return np.concatenate([[0.0], np.cumsum(widths)])


def peak_breakpoints(lo, hi, center, base_width, floor_width, ratio=GRADE_RATIO,
                     edge_floor=None):
    """Breakpoints on [lo, hi]: uniform panels of ``base_width`` with a
    geometrically graded zone shrinking to ``floor_width`` on both sides of
    ``center``.  ``center`` itself is a panel boundary, so integrand kinks
    there sit on panel edges.  ``edge_floor`` additionally grades panels
    toward both interval endpoints (for integrands with root-type endpoint
    singularities, e.g. the sqrt(sin) factor at the poles)."""
    offs = graded_offsets(floor_width, base_width, ratio)
    zone = offs[-1]
    pts = {lo, hi}
    left = max(lo, center - zone)
    right = min(hi, center + zone)
    if left > lo:
        n_l = max(1, int(np.ceil((left - lo) / base_width)))
        pts.update(np.linspace(lo, left, n_l + 1))
    if right < hi:
        n_r = max(1, int(np.ceil((hi - right) / base_width)))
        pts.update(np.linspace(right, hi, n_r + 1))
    for off in offs:
        for p in (center - off, center + off):
            if lo <= p <= hi:
                pts.add(p)
    if edge_floor is not None:
        for eoff in graded_offsets(edge_floor, base_width, ratio):
            for p in (lo + eoff, hi - eoff):
                if lo < p < hi:
                    pts.add(p)
    bp = np.array(sorted(pts))
    # guard against duplicate breakpoints from floating-point coincidences
    keep = np.concatenate([[True], np.diff(bp) > 0])
    return bp[keep]


def uniform_breakpoints(a, b, max_width):
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)

