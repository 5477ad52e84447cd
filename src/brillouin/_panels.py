"""Composite quadrature grids and the refinement ladder every quadrature
shares.  Internal plumbing.

Grids are composite Gauss panels: oscillation-resolving uniform panels
plus geometric refinement toward a designated point, with every set of
panel edges built by :func:`breakpoints_on`.  Each quadrature that checks
its own accuracy reruns its rule on finer grids through :func:`refine`,
whose docstring states the one error contract: a ``(value, err)`` result,
or :class:`~brillouin.errors.ToleranceNotMet` carrying both.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ToleranceNotMet
from .legendre import gauss_nodes

# One 16-point panel per oscillation wavelength gives 16 nodes/wavelength,
# comfortably above the 10-node floor the coefficient quadrature promises.
PANEL_ORDER = 16
GRADE_RATIO = 1.4
#: the first length of a floor's cached ladder of graded widths: a ratio of
#: 1.4^127 = 3.6e18 takes a floor of 1e-16 past every grid's base width
LADDER_STEPS = 128


@lru_cache(maxsize=8)
def _rule01(order=PANEL_ORDER):
    """Cached Gauss rule mapped to [0, 1]."""
    rule = gauss_nodes(order)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


def composite_nodes(breakpoints):
    """PANEL_ORDER-point Gauss nodes/weights for the panels defined by
    sorted breakpoints."""
    bp = np.asarray(breakpoints, dtype=float)
    a = bp[:-1]
    h = np.diff(bp)
    gx, gw = _rule01()
    nodes = (a[:, None] + h[:, None] * gx[None, :]).ravel()
    weights = (h[:, None] * gw[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=32)
def _ladder(floor_width, steps):
    """The first ``steps`` widths w_j = floor * GRADE_RATIO^j of a floor's
    ladder, each the running product of the ratio, and the offsets 0, w0,
    w0+w1, ... through all of them."""
    widths = []
    w = floor_width
    for _ in range(steps):
        widths.append(w)
        w *= GRADE_RATIO
    widths = np.array(widths)
    return widths, np.concatenate([[0.0], np.cumsum(widths)])


def graded_offsets(floor_width, top_width):
    """Cumulative panel offsets 0, w0, w0+w1, ... with w_j = floor * GRADE_RATIO^j,
    stopping once a panel reaches ``top_width``.

    Each floor's ladder of widths and running sums is built once (LADDER_STEPS
    long, doubled while its last width is below ``top_width``) and cut at
    the first width that reaches ``top_width``.  A running product and a
    running sum are the same up to any step however far they run, so the
    result is bitwise that of a loop that stops there.  It is a fresh array:
    a caller may write into it."""
    floor_width, steps = float(floor_width), LADDER_STEPS
    widths, offsets = _ladder(floor_width, steps)
    while widths[-1] < top_width:
        steps *= 2
        widths, offsets = _ladder(floor_width, steps)
    return offsets[:np.count_nonzero(widths < top_width) + 1].copy()


def breakpoints_on(lo, hi, *parts):
    """Sorted panel edges: ``lo``, ``hi`` and every point of ``parts`` that
    lies in [lo, hi], each value once.  A sort and a difference drop the
    repeats; ``np.unique`` would do the same, but its first call imports
    numpy.ma, which holds about 1 MiB resident."""
    bp = np.hstack([lo, hi, *parts])
    bp = np.sort(bp[(bp >= lo) & (bp <= hi)])
    return bp[np.concatenate([[True], np.diff(bp) > 0])]


def peak_breakpoints(lo, hi, center, base_width, floor_width, edge_floor=None):
    """Breakpoints on [lo, hi]: uniform panels of ``base_width`` with a
    geometrically graded zone shrinking to ``floor_width`` on both sides of
    ``center``.  ``center`` itself is a panel boundary, so integrand kinks
    there sit on panel edges.  ``edge_floor`` additionally grades panels
    toward both interval endpoints (for integrands with root-type endpoint
    singularities, e.g. the sqrt(sin) factor at the poles)."""
    offs = graded_offsets(floor_width, base_width)
    left = max(lo, center - offs[-1])
    right = min(hi, center + offs[-1])
    parts = [center - offs, center + offs]
    if left > lo:
        parts.append(uniform_breakpoints(lo, left, base_width))
    if right < hi:
        parts.append(uniform_breakpoints(right, hi, base_width))
    if edge_floor is not None:
        edge_offs = graded_offsets(edge_floor, base_width)
        parts += [lo + edge_offs, hi - edge_offs]
    return breakpoints_on(lo, hi, *parts)


def uniform_breakpoints(a, b, max_width):
    n = max(1, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, n + 1)


def refine(run, tol, top, what=None, error=lambda fine, coarse: abs(fine - coarse)):
    """The refinement ladder of every quadrature that checks its accuracy.

    Calls ``run(0)``, ``run(1)``, ... on ever finer grids and stops at the
    first level whose ``error(fine, coarse)`` against the level before is
    at most ``tol``, or after level ``top``.  Returns ``(fine, coarse,
    err)``: the last two levels and the error between them (with ``top``
    0, ``coarse`` is None and ``err`` is inf).  ``tol=None`` sets no
    tolerance: every level through ``top`` runs and nothing is missed.

    The error contract, the same for every caller: when level ``top``
    still misses ``tol`` (a NaN error misses it too), a caller that names
    itself through ``what`` gets :class:`ToleranceNotMet` carrying the
    last level's value and its error; a caller that passes no ``what``
    gets the triple back and reads ``err > tol`` as its not-met flag.
    """
    fine, coarse, err = run(0), None, math.inf
    for level in range(1, top + 1):
        coarse, fine = fine, run(level)
        err = error(fine, coarse)
        if tol is not None and err <= tol:
            return fine, coarse, err
    if what is not None and tol is not None:
        raise ToleranceNotMet(f"{what}: err {err:.3e} > tol {tol:.3e}", value=fine, err=err)
    return fine, coarse, err
