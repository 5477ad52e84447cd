"""High-accuracy expansion coefficients and potentials from the defining
integrals.

The scaled coefficient is

    C~_n = C_n R^{-(n+3)}
         = integral_0^pi sin(t) P_n(cos t) e^{-(n+3) F(t)} W_n(t) dt,
    W_n(t) = integral_0^{L(t)} e^{-(n+3) s} v(r_M(t) e^{-s}, t) ds,

with L = log(r_M / r_m).  Every factor is bounded by construction, so the
whole computation stays in well-scaled double precision up to n ~ 1e4: the
r^{n+3} growth is absorbed analytically into e^{-(n+3)F} <= 1.

The colatitude quadrature uses composite 16-point Gauss panels no wider
than one oscillation wavelength 2 pi / (n + 1/2) (16 nodes per wavelength),
with geometrically graded panels shrinking toward theta0 far enough to
resolve both the e^{-(n+3)F} peak factor and any surface-weight cusp.
Error estimates come from recomputing on a grid with halved panels and,
for a general column, a radial rule with twice the points per panel.

One engine, the recurrence sweep ``_sweep``, computes every coefficient:
a range of orders over a shared grid, or a single order on the grid built
for it.  For a column constant in r the radial factor W_n has a closed
form and the sweep is one pass over the whole grid.  For a general column
v(r, theta) the sweep runs in jobs of consecutive colatitude nodes, as
many as keep each array of a job's radial state within RADIAL_BUDGET
elements; within each octave block of orders [lo, 2 lo) the radial
s-nodes are built and v is evaluated once, a few nodes at a time, and W_n
follows order by order from one multiply by e^{-s} and one sum over the
s-nodes.

Each order's value is a sum over the colatitude nodes.  The sweep writes
the per-node terms of several consecutive orders as the rows of one block
and sums every row pairwise in numpy (``np.add.reduce``), one call per
block: the O(log N) eps error bound of pairwise summation (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 4), no BLAS call,
so no result depends on the BLAS build or its thread count, and one call
per block rather than per order once the live grid is small.  The block
holds at most SUM_BLOCK elements and, on a large grid, is the term vector
the sweep needs anyway (see ``_sweep``).  Once the live grid is small an
order costs little more than its fixed numpy call overhead, so the sweep
keeps the calls per order few: the colatitude weight rides in the running
damping, the Legendre step takes four in-place calls, the radial factor
at most one call, and nodes of weight exactly 0 are never swept.

Every reported error (see ``coeff_series``) has a rounding floor and
accounts for what the sweep leaves out.  With each value the sweep returns
a rounding floor, taken from one more sum over the magnitudes of the
terms, and uses that floor as a budget: every 32 orders it drops the
nodes whose terms, bounded from |P_n| <= 1, the damping and the largest
radial factor, sum to at most a fixed fraction of the order's floor at
every later order, and adds what it dropped to the error (see
``_sweep``).  On a peaked planet most of the grid's damping falls below
anything that can move a double result long before the last order, so
the budget removes most of the sweep's work while the error still
accounts for it.
"""

import dataclasses
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._io import write_csv
from ._panels import _rule01, composite_nodes, peak_breakpoints, refine
from .errors import EnvelopeBoundError, ToleranceNotMet
from .legendre import legendre_eval

__all__ = [
    "ScaledCoeffSeries",
    "coeff_scaled",
    "coeff_series",
    "potential_direct",
]

DEFAULT_TOL = 1e-10
#: the largest order a config may ask for: there the two sweep grids of an
#: alpha = 1/2 cusp hold about 2.5 million colatitude nodes, and the rounding
#: floor FLOOR_C (n+3) eps is 4.4e-11 of the summed term magnitudes
MAX_ORDER = 100_000
#: e^{-(n+3) s} beyond this exponent is below double-precision relevance
RADIAL_EXPONENT_CAP = 40.0
#: graded panels stop once (n+3) F changes by less than this across a panel
PEAK_FLOOR_LEVEL = 0.5
ENVELOPE_SAFETY = 4.0 * math.pi
#: the sweep drops nodes below its error budget once per this many orders
COMPACT_EVERY = 32
#: the rounding floor of order n is FLOOR_C (n + 3) eps sum|terms| (see ``_sweep``)
FLOOR_C = 2.0
#: one compaction drops nodes whose later terms sum to at most this fraction of the floor
DROP_FRAC = 0.25
_EPS = np.finfo(float).eps
#: the smallest normal double: no node is kept for terms below it
_TINY = np.finfo(float).tiny
#: 1 - x rounds to exactly 1.0 for every 0 <= x <= 2^-54 (round half to even)
_ONE_MINUS_EXACT = 2.0**-54
#: a general column's job holds as many colatitude nodes as keep each
#: (radial nodes x nodes) array of its radial state within this many
#: elements (512 KiB; see ``_sweep_jobs``)
RADIAL_BUDGET = 2**16
#: a job's radial rule is built, and its column evaluated, this many
#: colatitude nodes at a time (see ``_ColumnRadial``)
RADIAL_BUILD_NODES = 64
#: the sweep sums the terms of up to COMPACT_EVERY orders per reduction call,
#: in a block of at most this many elements (256 KiB, within a core's L2
#: cache), or of one row where a row is more (see ``_sweep``)
SUM_BLOCK = 2**15
#: Gauss points per radial panel at sweep level 0; each level doubles them,
#: so the difference of two levels sees the radial error (see ``_ColumnRadial``)
RADIAL_ORDER = 8
#: two levels whose samples of a column disagree on max|v| by more than this
#: factor do not resolve it (see ``_check_resolved``)
RESOLVE_RATIO = 2.0
#: radial panel edges, equispaced in the decay exponent u = (n+3) s
_U_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, RADIAL_EXPONENT_CAP])


@dataclass(frozen=True)
class ScaledCoeffSeries:
    """Scaled coefficients C~_n = C_n R^{-(n+3)} over a contiguous n range.

    ``errors`` are absolute error estimates per order (see ``coeff_series``);
    ``ok`` flags whether each met the requested tolerance.  ``fingerprint``
    identifies the generating planet.  A swept series also carries the
    rounding floor of each value and, per sweep level, the colatitude grid
    size and the node-orders the recurrence visited; a closed-form series
    has none of these.
    """

    n: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    ok: np.ndarray
    R: float
    fingerprint: str
    tol: float
    floor: Optional[np.ndarray] = None
    grid_nodes: tuple = ()
    node_orders: tuple = ()

    @property
    def n_min(self):
        return int(self.n[0])

    @property
    def n_max(self):
        return int(self.n[-1])

    def value_at(self, n):
        if not (self.n_min <= n <= self.n_max):
            raise IndexError(f"order {n} outside [{self.n_min}, {self.n_max}]")
        return float(self.values[n - self.n_min])

    def window(self, lo, hi):
        m = (self.n >= lo) & (self.n <= hi)
        return dataclasses.replace(
            self, n=self.n[m], values=self.values[m], errors=self.errors[m], ok=self.ok[m],
            floor=None if self.floor is None else self.floor[m])

    def scaled_by(self, factor):
        """Series with all masses multiplied by ``factor``."""
        return dataclasses.replace(
            self, values=self.values * factor, errors=self.errors * abs(factor),
            floor=None if self.floor is None else self.floor * abs(factor))

    def columns(self):
        return {"n": self.n, "C_scaled": self.values, "err": self.errors}

    def to_csv(self, path, config_hash=None):
        write_csv(path, self.columns(), config_hash=config_hash)

    def to_json_dict(self):
        d = {
            "fingerprint": self.fingerprint,
            "R": self.R,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "tol": self.tol,
            "values": self.values.tolist(),
            "errors": self.errors.tolist(),
            "ok": self.ok.tolist(),
            "grid_nodes": list(self.grid_nodes),
            "node_orders": list(self.node_orders),
            "worst_err_over_floor": None,
        }
        if self.floor is not None and np.all(self.floor > 0):
            d["worst_err_over_floor"] = float(np.max(self.errors / self.floor))
        return d


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------

def theta_grid(profile, n, level=0):
    """Oscillation-resolving colatitude grid for order ``n``.

    ``level`` halves both the base panel width and the graded floor, which
    is how error estimates and refinements are produced.
    """
    n_eff = max(n, 8)
    wavelength = 2.0 * math.pi / (n_eff + 0.5)
    base = min(wavelength, math.pi / 8.0) / 2.0**level
    floor_w = _graded_floor(profile, n) / 2.0**level
    # edge grading resolves the sqrt(sin) factor at the poles
    bp = peak_breakpoints(0.0, math.pi, profile.theta0, base, floor_w,
                          edge_floor=1e-10 / 2.0**level)
    return composite_nodes(bp)


def _graded_floor(profile, n):
    # deep enough for the e^{-(n+3)F} feature and never wider than the
    # n^{-1/2}/8 contract; an absolute floor keeps weight cusps resolved
    scale = profile.peak_scale(max(n, 8), level=PEAK_FLOOR_LEVEL)
    return max(min(max(n, 8) ** -0.5 / 8.0, scale / 4.0, 1e-6), 1e-13)


# ---------------------------------------------------------------------------
# the coefficient engine
# ---------------------------------------------------------------------------

class _ClosedRadial:
    """Radial factor of a column constant in r: W_n = v (1 - e^{-(n+3)L}) / (n+3).

    v is folded into the colatitude base, so ``weight`` writes the factor
    1 - e^{-(n+3)L} of order n and advances pwL = e^{-(n+3)L} to the next
    order, and the sweep divides each order's sum by n + 3 (``divides``).
    Once every pwL is at most 2^-54 the factor rounds to exactly 1.0 at
    every node, and ``weight`` returns None: the sweep stops calling it, so
    the multiply by the factor, the subtract and the pwL update all stop,
    and every term is bitwise unchanged.  The scalar ``top`` tracks a bound
    on max pwL without a per-order reduction: rounding is monotone, so top
    *= max(EL) stays at or above each pwL *= EL.
    """

    #: the factor 1 - e^{-(n+3)L} is at most wmax
    wmax = 1.0
    #: the closed form covers the whole radial range
    capped = False
    #: the sweep divides the sum of order n by n + 3
    divides = True

    def __init__(self, profile, nodes, n_min):
        # max|v| of the column folded into the colatitude base
        self.vmax = profile.vmax
        self.EL = np.exp(-profile.eval_L(nodes))
        self.pwL = self.EL ** (n_min + 3)
        self.top = float(self.pwL.max(initial=0.0))
        self.top_step = float(self.EL.max(initial=0.0))

    def weight(self, n, out):
        if self.top <= _ONE_MINUS_EXACT:
            return None
        np.subtract(1.0, self.pwL, out=out)
        self.pwL *= self.EL
        self.top *= self.top_step
        return out

    def compact(self, live):
        self.EL = self.EL[live]
        self.pwL = self.pwL[live]


def _radial_points(level):
    """The s-nodes per colatitude node of a general column's radial rule at
    sweep level ``level``: RADIAL_ORDER 2^level Gauss points on each panel
    of ``_U_EDGES``."""
    return (_U_EDGES.size - 1) * (RADIAL_ORDER << level)


class _ColumnRadial:
    """Radial factor of a general column:
    W_n = integral_0^L e^{-(n+3) s} v(r_M e^{-s}, theta) ds.

    The s-nodes are Gauss panels on [0, min(L, RADIAL_EXPONENT_CAP/(lo+3))],
    equispaced in the decay exponent u = (lo+3) s, built once per octave
    block of orders [lo, 2 lo), with RADIAL_ORDER 2^level points per panel:
    like the colatitude grid, the radial rule refines with the sweep level,
    so the difference of two levels also sees the radial error.  v is
    evaluated once per block; the carried A = w v e^{-(n+3) s} takes one
    multiply by e^{-s} per order.  Within a block the decay only steepens,
    so the panels built for lo resolve every later order of the block.
    While the cap binds at no node the panels do not depend on lo, and A is
    carried on into the next block.

    A and the decay e^{-s} are stored order-major, shape (Q, N) for Q
    s-nodes (``_radial_points``) and N live colatitude nodes: ``weight``
    writes W_n = np.add.reduce(A, axis=0), Q contiguous vector adds in
    numpy and no BLAS call, which the sweep does not divide (``divides``),
    and ``compact`` keeps columns.  A block's rule is built,
    and v evaluated, RADIAL_BUILD_NODES colatitude nodes at a time into
    these two arrays, so the build's temporaries stay small beside them.

    ``wmax`` bounds |v| for the sweep's budget: it starts at the profile's
    vmax, taken from a few radial probes that can miss a narrow feature, and
    is raised to the largest |v| among the samples of each block as the
    block is built, so before any of the block's compactions.

    Where the cap binds (s_hi < L) the rule leaves out the range (s_hi, L];
    ``capped`` is then set until the sweep takes that block's bound from
    ``cap_event``.
    """

    capped = False
    divides = False

    def __init__(self, profile, nodes, n_min, level):
        self.profile = profile
        self.order = RADIAL_ORDER << level
        self.theta = nodes
        self.rM = profile.eval_rM(nodes)
        self.L = profile.eval_L(nodes)
        # |W_n| <= wmax / (n + 3)
        self.wmax = profile.vmax
        self.decay = np.empty((_radial_points(level), nodes.size))
        self.A = np.empty_like(self.decay)
        # the first block is built before the sweep drops any node, so that
        # its samples raise wmax for every bound the sweep records
        self.s_hi = np.full(nodes.size, np.nan)
        self._start_block(n_min)
        self.capped = bool(np.any(self.s_hi < self.L))

    def _start_block(self, lo):
        self.block_end = max(2 * lo, lo + 1)
        s_hi = np.minimum(self.L, RADIAL_EXPONENT_CAP / (lo + 3.0))
        if np.array_equal(s_hi, self.s_hi):
            return
        self.s_hi = s_hi
        # after the first block s_hi moves only where the smaller cap binds
        self.capped = True
        gx, gw = _rule01(self.order)
        q = self.A.shape[0]
        # the old A and decay are spent: the new ones are written over them
        for j in range(0, s_hi.size, RADIAL_BUILD_NODES):
            cols = slice(j, j + RADIAL_BUILD_NODES)
            bp = _U_EDGES[:, None] / RADIAL_EXPONENT_CAP * s_hi[cols]
            a = bp[:-1, None]
            h = np.diff(bp, axis=0)[:, None]
            s = (a + h * gx[:, None]).reshape(q, -1)
            decay = np.exp(-s, out=self.decay[:, cols])
            vals = self.profile.eval_v(self.rM[cols] * decay,
                                       np.repeat(self.theta[None, cols], q, axis=0))
            self.wmax = max(self.wmax, float(np.max(np.abs(vals), initial=0.0)))
            # A = w e^{-(lo+3) s} v, formed in the storage of s
            s *= -(lo + 3.0)
            np.exp(s, out=s)
            s *= (h * gw[:, None]).reshape(q, -1)
            np.multiply(s, vals, out=self.A[:, cols])

    @property
    def vmax(self):
        return self.wmax

    def weight(self, n, out):
        if n == self.block_end:
            self._start_block(n)
        np.add.reduce(self.A, axis=0, out=out)
        self.A *= self.decay
        return out

    def cap_event(self, n, pw, E):
        """The dropped-node event (see ``_dropped_bound``) of the range
        (s_hi, L] that the block from order n leaves out where the cap
        binds, so where s_hi is the cap RADIAL_EXPONENT_CAP / (n+3): there
        |v| <= wmax gives a left-out part of W_m of at most
        wmax e^{-(m+3) s_hi} / (m+3) at every order m >= n, and a node's
        term, at most pw times that, shrinks by E e^{-s_hi} per order."""
        self.capped = False
        cut = self.s_hi < self.L
        s_hi = RADIAL_EXPONENT_CAP / (n + 3.0)
        bound = float(np.add.reduce(pw[cut])) * math.exp(-(n + 3.0) * s_hi)
        return (n, bound * self.wmax / (n + 3.0),
                float(np.max(E[cut], initial=0.0)) * math.exp(-s_hi))

    def compact(self, live):
        self.theta = self.theta[live]
        self.rM = self.rM[live]
        self.L = self.L[live]
        self.s_hi = self.s_hi[live]
        self.decay = self.decay[:, live]
        self.A = self.A[:, live]


class _Sweep(NamedTuple):
    """One level's sweep: per-order values, rounding floors and dropped-node
    bounds, with the grid size, the node-orders the recurrence visited and
    the largest |v| the sweep used (the profile's vmax, raised to every
    sampled |v| of a general column)."""

    values: np.ndarray
    floor: np.ndarray
    dropped: np.ndarray
    grid_nodes: int
    node_orders: int
    vmax: float


def _dropped_bound(events, n_min, n_max):
    """Per-order bound on the terms of dropped nodes.  Each event
    ``(first, bound, e_max)`` drops nodes whose terms sum to at most
    ``bound`` at order ``first``; their damping shrinks by at least
    ``e_max`` per order after it.  An event's geometric tail stops at its
    first term below the smallest normal double, like the sweep, which
    keeps no node for terms below it."""
    out = np.zeros(n_max - n_min + 1)
    for first, bound, e_max in events:
        k = first - n_min
        size = out.size - k
        if bound <= _TINY or e_max == 0.0:
            size = min(size, 1)
        elif e_max < 1.0:
            size = min(size, 1 + math.ceil(math.log(_TINY / bound) / math.log(e_max)))
        out[k:k + size] += bound * e_max ** np.arange(size)
    return out


def _term_block(buf, size):
    """The sweep's term block in the term vector ``buf`` for ``size`` live
    nodes, as a list of row views: as many rows of ``size`` as fit in
    ``buf`` and in SUM_BLOCK elements, at least one and at most
    COMPACT_EVERY."""
    rows = max(1, min(COMPACT_EVERY, min(buf.size, SUM_BLOCK) // max(size, 1)))
    return list(buf[:rows * size].reshape(rows, size))


def _sweep_nodes(profile, grid, n_min, n_max, level):
    """The sweep of ``_sweep`` over the colatitude nodes and weights in the
    list ``grid``.  The list is emptied, so the caller holds no reference
    that would keep the grid alive once the per-node state is formed."""
    nodes, wts = grid
    grid.clear()
    grid_nodes = nodes.size
    if profile.radial_constant:
        base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)  # w sin v, v = g/sqrt(sin)
    else:
        base = wts * np.sin(nodes)
    del wts
    # a node of weight exactly 0 adds exactly 0 at every order: never swept
    weighted = base != 0.0
    if not weighted.all():
        nodes = nodes[weighted]
        base = base[weighted]
    del weighted
    if profile.radial_constant:
        radial = _ClosedRadial(profile, nodes, n_min)
    else:
        radial = _ColumnRadial(profile, nodes, n_min, level)
    x = np.cos(nodes)
    E = np.exp(-profile.eval_F(nodes))
    del nodes
    # the running damping pw = |base| e^{-(n+3)F} carries the weight's
    # magnitude; its sign moves into the seeds of P below (exact: the
    # recurrence is linear)
    neg = base < 0
    pw = np.abs(base, out=base)
    del base
    pw *= E ** (n_min + 3)
    live = pw >= _TINY
    events = []
    if not live.all():
        # before the first order there is no floor yet: only nodes whose
        # terms are already bounded by the smallest normal double are dropped
        gone = ~live
        events.append((n_min, float(np.add.reduce(pw[gone])) * radial.wmax / (n_min + 3.0),
                       float(E[gone].max())))
        x = x[live]
        E = E[live]
        pw = pw[live]
        neg = neg[live]
        radial.compact(live)
    del live
    # P_{n_min} and P_{n_min - 1} (P_{-1} = 0) seed the recurrence
    p_cur = legendre_eval(n_min, x)
    p_prev = legendre_eval(n_min - 1, x) if n_min else np.zeros_like(x)
    if neg.any():
        np.negative(p_cur, out=p_cur, where=neg)
        np.negative(p_prev, out=p_prev, where=neg)
    del neg
    # row j of the term block holds the terms of the block's j-th order; a
    # grid larger than SUM_BLOCK keeps one term vector of its own size
    term = np.empty(max(x.size, min(SUM_BLOCK, COMPACT_EVERY * x.size)))
    rows = _term_block(term, x.size)
    tmp = np.empty_like(x)
    out = np.empty(n_max - n_min + 1)
    floor = np.empty_like(out)
    weigh = radial.weight
    factor = None
    node_orders = 0
    n = n_min
    while n <= n_max:
        # the block: orders n..last, ending at a compaction order at the latest
        i = n - n_min
        last = min(n_max, n + len(rows) - 1, n + COMPACT_EVERY - 1 - i % COMPACT_EVERY)
        for m, row in zip(range(n, last + 1), rows):
            # the terms (P_m pw) W_m of order m; the radial factor is
            # dropped for good once it is exactly 1.0 (see ``_ClosedRadial``)
            if weigh is not None:
                factor = weigh(m, tmp)
                if factor is None:
                    weigh = None
                elif radial.capped:
                    events.append(radial.cap_event(m, pw, E))
            np.multiply(p_cur, pw, out=row)
            if factor is not None:
                row *= factor
            pw *= E
            # P_{m+1} = t + (m / (m+1)) (t - P_{m-1}), t = x P_m, written over P_{m-1}
            np.multiply(x, p_cur, out=tmp)
            np.subtract(tmp, p_prev, out=p_prev)
            p_prev *= m / (m + 1.0)
            p_prev += tmp
            p_cur, p_prev = p_prev, p_cur
        # the block ends: the pairwise sum of each row of terms, then of its
        # magnitudes
        k = last - n + 1
        node_orders += k * x.size
        terms = term[:k * x.size].reshape(k, x.size)
        ns = np.arange(n + 3.0, last + 4.0)
        sums = np.add.reduce(terms, axis=1)
        np.abs(terms, out=terms)
        mags = np.add.reduce(terms, axis=1)
        if radial.divides:
            sums /= ns
            mags /= ns
        out[i:i + k] = sums
        floor[i:i + k] = FLOOR_C * _EPS * ns * mags
        n = last + 1
        if (last - n_min) % COMPACT_EVERY == COMPACT_EVERY - 1:
            # N times each node's bound on its term at every later order
            np.multiply(pw, radial.wmax * x.size / (last + 4.0), out=tmp)
            live = tmp > max(DROP_FRAC * floor[last - n_min], _TINY)
            if not live.all():
                gone = ~live
                events.append((n, float(np.sum(tmp, where=gone)) / x.size,
                               float(np.max(E, where=gone, initial=0.0))))
                del gone
                # rebinding one array at a time keeps at most one extra copy alive
                x = x[live]
                E = E[live]
                pw = pw[live]
                radial.compact(live)
                p_prev = p_prev[live]
                p_cur = p_cur[live]
                tmp = tmp[:x.size]
                rows = _term_block(term, x.size)
    return _Sweep(out, floor, _dropped_bound(events, n_min, n_max),
                  grid_nodes, node_orders, radial.vmax)


def _sweep(profile, n_max, level, n_min=0):
    """The scaled coefficients n_min..n_max in one recurrence pass, as a
    ``_Sweep``: values, rounding floors, dropped-node bounds and run facts.

    The Legendre recurrence, the e^{-(n+3)F} damping and the radial factor
    W_n are all updated order by order over one grid built for n_max,
    which is at least as fine as any single order requires.  The
    recurrence is seeded with P_{n_min} and P_{n_min-1}, and the damping
    starts at e^{-(n_min+3)F}.  A column constant in r has the closed
    radial factor v (1 - e^{-(n+3)L}) / (n+3) and runs in a single pass
    over the whole grid; a general column runs as jobs of consecutive
    colatitude nodes sized to the RADIAL_BUDGET (see ``_sweep_jobs``), each
    carrying its own per-block radial state, whose rule has RADIAL_ORDER
    2^level points per panel (see ``_ColumnRadial``), and the job results
    are added.

    Operation order.  Let base be a node's colatitude weight (w sin^{1/2} g
    for a closed radial factor, w sin for a general column).  A node whose
    base is exactly 0 adds exactly 0 at every order, so it is left out
    before the first order and needs no bound (82% of the grids of the
    Fourier-tail planet at n_max 1500).  The sign of base moves into the
    seeds of P and |base| into the running damping pw = |base|
    e^{-(n_min+3)F}, both exact (the recurrence is linear).  Order n then
    takes, per node, W_n (for a closed factor only until it is exactly
    1.0, see ``_ClosedRadial``), the term (P_n pw) W_n, pw *= e^{-F} and
    the Legendre step t = x P_n, P_{n+1} = t + (n / (n+1)) (t - P_{n-1}),
    four in-place calls: six numpy calls per order once the closed factor
    is 1.

    Summation.  Order n writes its terms as one row of a block of up to
    COMPACT_EVERY rows.  When the block ends, each row is summed pairwise
    (``np.add.reduce`` along the row, the same sum as on that row alone)
    and, for a closed radial factor, divided by n + 3, then the block is
    replaced by its magnitudes and summed again for the floors below.
    Blocks end at every compaction order, so the budget reads each floor
    at the same order as it would unblocked.  The block holds at most
    SUM_BLOCK elements, or one row where a row is more: a grid of N >
    SUM_BLOCK nodes keeps the one N-sized term vector the sweep needs
    anyway and uses it as the block, one row until the compactions shrink
    the live grid to half of SUM_BLOCK, then more rows as it shrinks; a
    smaller grid has a SUM_BLOCK-sized term vector (COMPACT_EVERY rows
    where those are less) from the start.  No BLAS routine runs on
    per-node arrays: a threaded BLAS dot splits its sum by thread count,
    and its idle threads spin on the CPU.

    Rounding floor.  With div = n + 3 for a closed radial factor and 1
    otherwise, the sum of the magnitudes of each row gives S_n = sum |P_n
    pw W_n| / div.  The floor is

        floor_n = FLOOR_C (n + 3) eps S_n.

    The n + 3 is the shape of the first-order bound on a recurrence of n
    steps (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):
    the Legendre recurrence carries its rounding forward, and where graded
    nodes cluster at the peak their errors add rather than cancel.  FLOOR_C
    comes from an extended-precision (np.longdouble) replica of the level-1
    sweep on the same grid, in the same operation order without any
    cutoff (``tests/test_coeffs.py``), run on the cusp alpha=1/2, the
    alpha=1 cusp with a k=1 weight and the quadratic peak with a
    Fourier-tail weight up to n = 4000.  |double - extended| / ((n+3) eps
    S_n) is at most 0.17 for n < 100 (the tail planet at n 3, where the
    sum dominates) and at most 0.19 for n >= 100 (the cusp at n 2845;
    0.012 and 0.008 on the other two), against FLOOR_C = 2: the error
    stays below a tenth of the floor.  Without the n + 3 no constant
    works: |double - extended| / (eps S_n) reaches 24 at n 737 and 329 at
    n 3910 on the cusp.

    Budget cutoff.  Every COMPACT_EVERY orders, after order n, each node's
    term at every later order m > n obeys

        |P_m pw_m W_m| / div <= pw_{n+1} wmax / (n + 4) = b,

    since pw is |base| times a running product of factors in (0, 1],
    |P_m| <= 1 and
    W_m / div <= wmax / (m + 3): wmax = 1 for the closed radial factor,
    and for a general column the largest |v| of the profile's probes and
    of every radial sample so far (see ``_ColumnRadial``).  A node is
    dropped when b <= DROP_FRAC floor_n / N, with N the nodes still live,
    so one compaction drops at most DROP_FRAC of the order's floor.  The
    comparison never keeps a node whose N b is below the smallest normal
    double, so a stalled subnormal damping is always dropped.  Each drop
    is recorded as (n + 1, the summed b, the largest e^{-F} of the dropped
    nodes); from there their terms shrink at least geometrically, and
    ``dropped`` sums these bounds per order, each until it falls below the
    smallest normal double.  Before the first order there is no floor
    yet, and only nodes whose pw is already below the smallest normal
    double are dropped, with their bound recorded the same way.

    Apart from the dropped terms only the summation order changes.  The
    arithmetic runs in place on the block and one scratch vector, in the
    operation order above, so every kept per-node term (P_n pw) W_n is the
    one that order gives in plain array expressions (the closed radial
    factor is skipped only where it is exactly 1.0).
    ``grid_nodes`` is the grid size, ``node_orders`` the node-orders the
    recurrence visited and ``vmax`` the largest |v| the sweep used.
    """
    return _fold([_sweep_nodes(profile, grid, n_min, n_max, level)
                  for level, grid in _sweep_jobs(profile, n_max, level)])


def _sweep_jobs(profile, n_max, level):
    """The jobs of one level's sweep, in the order ``_fold`` adds their
    results: ``(level, [nodes, weights])``, one for a column constant in r.
    A general column has one job per run of RADIAL_BUDGET // Q consecutive
    colatitude nodes, Q the s-nodes per node (``_radial_points``), so that
    each (Q, N) array of a job's radial state holds at most RADIAL_BUDGET
    elements: 1170 nodes at level 0 and 585 at level 1."""
    nodes, wts = theta_grid(profile, n_max, level)
    if profile.radial_constant:
        return [(level, [nodes, wts])]
    size = RADIAL_BUDGET // _radial_points(level)
    return [(level, [nodes[i:i + size], wts[i:i + size]]) for i in range(0, nodes.size, size)]


def _fold(parts):
    """One level's ``_Sweep`` from the ``_Sweep`` of each of its jobs, added
    in job order."""
    total = parts[0]
    for part in parts[1:]:
        total = _Sweep(*(a + b for a, b in zip(total[:-1], part[:-1])),
                       max(total.vmax, part.vmax))
    return total


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_jobs(profile, jobs, n_min, n_max, meanwhile):
    """The ``_Sweep`` of every job of ``_sweep_jobs``, in job order.

    Where ``os.fork`` exists and two CPUs are usable, one forked child
    process runs the heavier side of ``_split_jobs`` while the caller runs
    the lighter one, which leaves the caller room for ``meanwhile``.  The
    child sends its results, or the exception it raised, back pickled
    through a pipe and always ends in ``os._exit``; the caller
    raises that exception with its original type and reaps the child on
    every path, killing it first if the caller's own jobs or ``meanwhile``
    raise.  A job's arithmetic is the same in either process, so every
    result is bitwise that of the in-process loop, which runs everywhere
    else.  Threads would not help: each numpy call of the sweep is too
    short to run while another thread holds the GIL.

    ``meanwhile``, a callable taking no argument, runs once in the caller's process: after the
    caller's own jobs and before it reads the child's results, so it fills
    the time the caller would spend waiting on the child.  Without a child
    it runs after every job.
    """
    def run(part):
        return [_sweep_nodes(profile, grid, n_min, n_max, level) for level, grid in part]

    if not hasattr(os, "fork") or _usable_cpus() < 2:
        parts = run(jobs)
        meanwhile()
        return parts
    caller, child = _split_jobs(profile, jobs)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(run, [jobs[i] for i in child], read_end, write_end)
    os.close(write_end)
    for i in child:
        jobs[i][1].clear()  # the child's copy is the one swept
    try:
        with open(read_end, "rb") as pipe:
            ours = run([jobs[i] for i in caller])
            meanwhile()
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not reply:
        raise ChildProcessError(f"the sweep's child process ended without a result "
                                f"(wait status {status})")
    done, theirs = pickle.loads(reply)
    if not done:
        kind, args, state = theirs
        exc = kind.__new__(kind, *args)
        exc.__dict__.update(state)
        raise exc
    parts = [None] * len(jobs)
    for i, part in zip(caller + child, ours + theirs):
        parts[i] = part
    return parts


def _split_jobs(profile, jobs):
    """The indices of ``jobs`` in two sides of near-equal work, each in job
    order: ``(lighter, heavier)``.

    A job's work is the radial elements its sweep updates per order: its
    colatitude nodes, times the s-nodes per node (``_radial_points``) for a
    general column.  The jobs go out heaviest first (ties in job order),
    each to the side with less work so far (the first side on a tie), so
    the two sides differ by at most one job's work.  A radial-constant
    planet's two jobs split by level, its level-1 grid the heavier side."""
    def work(job):
        level, (nodes, _) = job
        return nodes.size * (1 if profile.radial_constant else _radial_points(level))

    sides, loads = ([], []), [0, 0]
    for i in sorted(range(len(jobs)), key=lambda i: -work(jobs[i])):
        side = loads.index(min(loads))
        sides[side].append(i)
        loads[side] += work(jobs[i])
    heavier = loads.index(max(loads))
    return sorted(sides[1 - heavier]), sorted(sides[heavier])


def _child(run, jobs, read_end, write_end):
    """The forked child of ``_run_jobs``: runs ``jobs`` and writes the
    pickled ``(True, results)``, or ``(False, (type, args, attributes))`` of
    the exception it raised, to ``write_end``.  Never returns."""
    try:
        os.close(read_end)
        try:
            reply = pickle.dumps((True, run(jobs)))
        except BaseException as exc:  # every exception goes to the caller
            try:
                reply = pickle.dumps((False, (type(exc), exc.args, vars(exc))))
            except Exception:  # not picklable: the caller gets its text
                reply = pickle.dumps((False, (RuntimeError, (f"{type(exc).__name__}: {exc}",),
                                              {})))
        with open(write_end, "wb") as pipe:
            pipe.write(reply)
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# single coefficients and series
# ---------------------------------------------------------------------------

def _check_resolved(coarse, fine):
    """Raise :class:`ToleranceNotMet` if the samples of a general column at
    two sweep levels disagree on its largest |v| by more than RESOLVE_RATIO.
    Both levels sample a feature they resolve close to its peak; a larger
    gap means a feature narrower than the node spacing, which the
    difference of the two levels does not bound."""
    lo, hi = sorted((coarse.vmax, fine.vmax))
    if hi > RESOLVE_RATIO * lo:
        raise ToleranceNotMet(
            f"the sweep levels sample the column's max|v| at {coarse.vmax:.3e} and "
            f"{fine.vmax:.3e}: the grids do not resolve the column")


def _error_bar(fine, coarse):
    """Error of the ``fine`` values: their difference from ``coarse``,
    never below the rounding floor of ``fine``, plus both dropped bounds."""
    return (np.maximum(np.abs(fine.values - coarse.values), fine.floor)
            + fine.dropped + coarse.dropped)


def coeff_scaled(profile, n, tol=DEFAULT_TOL):
    """One scaled coefficient with an absolute error estimate.

    Returns ``(value, err)``; ``err <= tol`` unless the refinement ladder
    (``_panels.refine``, levels 0 to 2) was exhausted, in which case the
    best value is returned with its honest error estimate (callers treat
    ``err > tol`` as the not-met flag).  Each level runs the sweep for the
    single order n on the grid built for n; the error is that of
    ``coeff_series``, and so is the check that the last two levels resolve
    a general column.  Closed-form oracle planets bypass quadrature
    entirely.
    """
    closed = getattr(profile, "closed_coeff_scaled", None)
    if closed is not None:
        return closed(n), 0.0

    fine, coarse, err = refine(lambda level: _sweep(profile, n, level, n_min=n), tol, 2,
                               error=lambda fine, coarse: float(_error_bar(fine, coarse)[0]))
    _check_resolved(coarse, fine)
    return float(fine.values[0]), err


def coeff_series(profile, n_min, n_max, tol=DEFAULT_TOL, meanwhile=None):
    """Scaled coefficients for every order in [n_min, n_max].

    Closed-form oracle planets use their whole-range formula.  Every other
    planet takes the recurrence sweep (``_sweep``) over a shared grid at
    two resolutions, and reports the level-1 values.  The error of order n
    is

        err_n = max(|v1_n - v0_n|, floor1_n) + D0_n + D1_n,

    the difference of the two levels, never below the rounding floor of
    the level-1 sum, plus the bounds on the nodes either level dropped.
    The jobs of both sweeps run split between the caller and one forked
    child process where two CPUs are usable (see ``_run_jobs``), with
    results bitwise those of one process.  Raises
    :class:`ToleranceNotMet` if the two levels do not resolve a general
    column (see ``_check_resolved``), and
    :class:`EnvelopeBoundError` if any magnitude breaks the a-priori
    envelope bound 4 pi G max|v|, with max|v| the largest the sweeps used
    (see ``_Sweep``).

    ``meanwhile``, a callable taking no argument, is other work of the
    caller's that runs once, in the caller's process, while the sweep's
    child is busy: after the caller's share of the jobs and before it
    waits for the child's (see ``_run_jobs``), after all the jobs where
    no child is forked, and at once for a closed-form planet.  Its return
    value is dropped.  An exception it raises is raised only once the
    series is complete, so an error of the sweep comes first.
    """
    if n_min > n_max:
        raise ValueError("need n_min <= n_max")
    closed = getattr(profile, "closed_coeff_series", None)
    ns = np.arange(n_min, n_max + 1)
    if closed is not None:
        if meanwhile is not None:
            meanwhile()
        vals = closed(n_min, n_max)
        errs = np.zeros_like(vals)
        return ScaledCoeffSeries(ns, vals, errs, np.ones(ns.size, bool),
                                 profile.R, profile.fingerprint, tol)

    failed = []

    def aside():
        if meanwhile is not None:
            try:
                meanwhile()
            except Exception as exc:  # raised after the sweep's own errors
                failed.append(exc)

    jobs = _sweep_jobs(profile, n_max, 0) + _sweep_jobs(profile, n_max, 1)
    parts = _run_jobs(profile, jobs, n_min, n_max, aside)
    coarse, fine = (_fold([part for part, (lv, _) in zip(parts, jobs) if lv == level])
                    for level in (0, 1))
    _check_resolved(coarse, fine)
    vals = fine.values
    errs = _error_bar(fine, coarse)

    bound = ENVELOPE_SAFETY * profile.G * max(coarse.vmax, fine.vmax)
    worst = np.max(np.abs(vals))
    if worst > bound:
        raise EnvelopeBoundError(
            f"coefficient magnitude {worst:.3e} breaks the envelope bound {bound:.3e}"
        )
    if failed:
        raise failed[0]
    return ScaledCoeffSeries(ns, vals, errs, errs <= tol, profile.R, profile.fingerprint, tol,
                             floor=fine.floor,
                             grid_nodes=(coarse.grid_nodes, fine.grid_nodes),
                             node_orders=(coarse.node_orders, fine.node_orders))

# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def potential_direct(profile, z, tol=1e-9, max_level=6):
    """Potential on the axis at height z > R by direct 2D quadrature of the
    Newtonian kernel over the planet volume.  Raises
    :class:`ToleranceNotMet` if panel doubling through ``max_level`` fails
    to stabilize (see ``_panels.refine``)."""
    closed = getattr(profile, "closed_potential", None)
    if closed is not None:
        return closed(z)
    if z <= profile.R:
        raise ValueError("observation point must lie above the Brillouin radius")

    def run(level):
        n_theta = 64 * 2**level
        bp = peak_breakpoints(0.0, math.pi, profile.theta0, math.pi / n_theta,
                              max(1e-6 / 2.0**level, 1e-12),
                              edge_floor=1e-10 / 2.0**level)
        nodes, wts = composite_nodes(bp)
        rM = profile.eval_rM(nodes)
        rm = profile.eval_rm(nodes)
        n_r = 8 * 2**level
        acc = np.zeros_like(nodes)
        gx, gw = _rule01()
        for j in range(n_r):
            a = rm + (rM - rm) * j / n_r
            h = (rM - rm) / n_r
            r = a[:, None] + h[:, None] * gx[None, :]
            w = h[:, None] * gw[None, :]
            v = profile.eval_v(r, nodes[:, None] * np.ones_like(r))
            ker = r * r / np.sqrt(z * z - 2.0 * r * z * np.cos(nodes)[:, None] + r * r)
            acc += np.sum(w * v * ker, axis=1)
        return float(np.sum(wts * np.sin(nodes) * acc))

    return refine(run, tol, max_level, what=f"potential_direct at z={z}")[0]
