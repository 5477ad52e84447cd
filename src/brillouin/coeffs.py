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
Error estimates come from recomputing on a grid with halved panels.

One engine, the recurrence sweep ``_sweep``, computes every coefficient:
a range of orders over a shared grid, or a single order on the grid built
for it.  For a column constant in r the radial factor W_n has a closed
form and the sweep is one pass over the whole grid.  For a general column
v(r, theta) the sweep runs in fixed chunks of colatitude nodes; within
each octave block of orders [lo, 2 lo) the radial s-nodes are built and v
is evaluated once, and W_n follows order by order from one multiply by
e^{-s}.  Once e^{-(n+3)F} underflows to exactly 0 at a node, that node
contributes exactly 0 to every later order, so the sweep drops such nodes
every 32 orders; only the summation order of the remaining nodes changes.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from ._panels import _rule01, composite_nodes, peak_breakpoints
from .errors import EnvelopeBoundError, ToleranceNotMet
from .legendre import legendre_eval

__all__ = [
    "ScaledCoeffSeries",
    "coeff_scaled",
    "coeff_series",
    "potential_direct",
    "potential_partial_sum",
]

DEFAULT_TOL = 1e-10
#: e^{-(n+3) s} beyond this exponent is below double-precision relevance
RADIAL_EXPONENT_CAP = 40.0
#: graded panels stop once (n+3) F changes by less than this across a panel
PEAK_FLOOR_LEVEL = 0.5
ENVELOPE_SAFETY = 4.0 * math.pi
#: the sweep drops nodes whose e^{-(n+3) F} has underflowed once per this many orders
COMPACT_EVERY = 32
#: general columns are swept in chunks of this many colatitude nodes, which
#: keeps each (nodes x radial nodes) array of the radial state near 0.2 MiB
COLUMN_CHUNK = 256
#: radial panel edges, equispaced in the decay exponent u = (n+3) s
_U_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, RADIAL_EXPONENT_CAP])


@dataclass(frozen=True)
class ScaledCoeffSeries:
    """Scaled coefficients C~_n = C_n R^{-(n+3)} over a contiguous n range.

    ``errors`` are absolute quadrature error estimates per order; ``ok``
    flags whether each met the requested tolerance.  ``fingerprint``
    identifies the generating planet.
    """

    n: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    ok: np.ndarray
    R: float
    fingerprint: str
    tol: float

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
        return ScaledCoeffSeries(self.n[m], self.values[m], self.errors[m],
                                 self.ok[m], self.R, self.fingerprint, self.tol)

    def scaled_by(self, factor):
        """Series with all masses multiplied by ``factor``."""
        return ScaledCoeffSeries(self.n, self.values * factor, self.errors * abs(factor),
                                 self.ok, self.R, self.fingerprint, self.tol)

    def to_csv(self, path, config_hash=None):
        rows = zip(self.n.tolist(), self.values.tolist(), self.errors.tolist())
        write_csv(path, ["n", "C_scaled", "err"], rows, config_hash=config_hash)

    def to_json_dict(self, config_hash=None):
        d = {
            "fingerprint": self.fingerprint,
            "R": self.R,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "tol": self.tol,
            "values": self.values.tolist(),
            "errors": self.errors.tolist(),
            "ok": self.ok.tolist(),
        }
        if config_hash is not None:
            d["config_hash"] = config_hash
        return d

    def to_json(self, path, config_hash=None):
        write_json(path, self.to_json_dict(config_hash=config_hash))


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

    v is folded into the colatitude base, so ``weight`` writes
    1 - e^{-(n+3)L} and returns the divisor n + 3.
    """

    def __init__(self, profile, nodes, n_min):
        self.EL = np.exp(-profile.eval_L(nodes))
        self.pwL = self.EL ** (n_min + 3)

    def weight(self, n, out):
        np.subtract(1.0, self.pwL, out=out)
        return n + 3.0

    def advance(self):
        self.pwL *= self.EL

    def compact(self, live):
        self.EL = self.EL[live]
        self.pwL = self.pwL[live]


class _ColumnRadial:
    """Radial factor of a general column:
    W_n = integral_0^L e^{-(n+3) s} v(r_M e^{-s}, theta) ds.

    The s-nodes are Gauss panels on [0, min(L, RADIAL_EXPONENT_CAP/(lo+3))],
    equispaced in the decay exponent u = (lo+3) s, built once per octave
    block of orders [lo, 2 lo).  v is evaluated once per block; the carried
    A = w v e^{-(n+3) s} takes one multiply by e^{-s} per order, and
    W_n = A.sum(axis=1).  Within a block the decay only steepens, so the
    panels built for lo resolve every later order of the block.  While the
    cap binds at no node the panels do not depend on lo, and A is carried
    on into the next block.
    """

    def __init__(self, profile, nodes, n_min):
        self.profile = profile
        self.theta = nodes
        self.rM = profile.eval_rM(nodes)
        self.L = profile.eval_L(nodes)
        # no block yet: the first call of ``weight`` builds the block at n_min
        self.s_hi = np.full(nodes.size, np.nan)
        self.decay = self.A = np.empty((nodes.size, 0))
        self.block_end = n_min

    def _start_block(self, lo):
        self.block_end = max(2 * lo, lo + 1)
        s_hi = np.minimum(self.L, RADIAL_EXPONENT_CAP / (lo + 3.0))
        if np.array_equal(s_hi, self.s_hi):
            return
        self.s_hi = s_hi
        bp = _U_EDGES / RADIAL_EXPONENT_CAP * s_hi[:, None]
        a = bp[:, :-1, None]
        h = np.diff(bp, axis=1)[:, :, None]
        gx, gw = _rule01()
        s = (a + h * gx).reshape(s_hi.size, -1)
        w = (h * gw).reshape(s_hi.size, -1)
        self.decay = np.exp(-s)
        theta = np.repeat(self.theta[:, None], s.shape[1], axis=1)
        vals = self.profile.eval_v(self.rM[:, None] * self.decay, theta)
        self.A = w * np.exp(-(lo + 3.0) * s) * vals

    def weight(self, n, out):
        if n == self.block_end:
            self._start_block(n)
        np.sum(self.A, axis=1, out=out)
        return 1.0

    def advance(self):
        self.A *= self.decay

    def compact(self, live):
        self.theta = self.theta[live]
        self.rM = self.rM[live]
        self.L = self.L[live]
        self.s_hi = self.s_hi[live]
        self.decay = self.decay[live]
        self.A = self.A[live]


def _sweep_nodes(profile, grid, n_min, n_max):
    """Coefficients n_min..n_max contributed by the colatitude nodes and
    weights in the list ``grid``.  The list is emptied, so the caller holds
    no reference that would keep the grid alive once the per-node state is
    formed."""
    nodes, wts = grid
    grid.clear()
    x = np.cos(nodes)
    if profile.radial_constant:
        base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)  # w sin v, v = g/sqrt(sin)
        radial = _ClosedRadial(profile, nodes, n_min)
    else:
        base = wts * np.sin(nodes)
        radial = _ColumnRadial(profile, nodes, n_min)
    E = np.exp(-profile.eval_F(nodes))
    del nodes, wts
    pw = E ** (n_min + 3)
    live = pw != 0.0
    if not live.all():
        # already underflowed: these nodes need no recurrence at all
        x = x[live]
        base = base[live]
        E = E[live]
        pw = pw[live]
        radial.compact(live)
    # P_{n_min} and P_{n_min - 1} (P_{-1} = 0) seed the recurrence
    p_cur = legendre_eval(n_min, x)
    p_prev = legendre_eval(n_min - 1, x) if n_min else np.zeros_like(x)
    term = np.empty_like(x)
    tmp = np.empty_like(x)
    out = np.empty(n_max - n_min + 1)
    for n in range(n_min, n_max + 1):
        # (P * pw) * W_n, then the dot
        div = radial.weight(n, tmp)
        np.multiply(p_cur, pw, out=term)
        np.multiply(term, tmp, out=term)
        out[n - n_min] = np.dot(base, term) / div
        pw *= E
        radial.advance()
        # P_{n+1} = (((2n+1) x) P_n - n P_{n-1}) / (n+1), written over P_{n-1}
        np.multiply(x, 2 * n + 1, out=term)
        term *= p_cur
        p_prev *= n
        np.subtract(term, p_prev, out=p_prev)
        p_prev /= n + 1
        p_cur, p_prev = p_prev, p_cur
        if (n - n_min) % COMPACT_EVERY == COMPACT_EVERY - 1:
            live = pw != 0.0
            if not live.all():
                # rebinding one array at a time keeps at most one extra copy alive
                x = x[live]
                base = base[live]
                E = E[live]
                pw = pw[live]
                radial.compact(live)
                p_prev = p_prev[live]
                p_cur = p_cur[live]
                term = term[:x.size]
                tmp = tmp[:x.size]
    return out


def _sweep(profile, n_max, level, n_min=0):
    """Scaled coefficients for n = n_min..n_max in one recurrence pass.

    The Legendre recurrence, the e^{-(n+3)F} damping and the radial factor
    W_n are all updated order by order over one grid built for n_max,
    which is at least as fine as any single order requires.  The
    recurrence is seeded with P_{n_min} and P_{n_min-1}, and the damping
    starts at e^{-(n_min+3)F}; nodes where it has already underflowed are
    dropped first.  A column constant in r has the closed radial factor
    v (1 - e^{-(n+3)L}) / (n+3) and runs in a single pass over the whole
    grid; a general column runs in chunks of COLUMN_CHUNK colatitude nodes,
    each carrying its own per-block radial state (see ``_ColumnRadial``),
    and the chunk sums are added.

    Every COMPACT_EVERY orders the per-node state is cut down to the nodes
    whose damping pw = e^{-(n+3)F} has not underflowed to exactly 0.  pw is
    a running product of factors in (0, 1], so a node that reached 0 stays
    0, and with |P_n| <= 1 its term is exactly 0 at every later order:
    dropping it changes no term, only the summation order of the dot.
    Where e^{-F} > 1/2 the product stalls at the smallest subnormal instead
    of reaching 0, so those nodes stay to the end.  The arithmetic runs in
    place on two scratch vectors, in the same operation order as the plain
    expressions, so every per-node term is unchanged.
    """
    if profile.radial_constant:
        return _sweep_nodes(profile, list(theta_grid(profile, n_max, level)), n_min, n_max)
    nodes, wts = theta_grid(profile, n_max, level)
    out = np.zeros(n_max - n_min + 1)
    for i in range(0, nodes.size, COLUMN_CHUNK):
        out += _sweep_nodes(profile, [nodes[i:i + COLUMN_CHUNK], wts[i:i + COLUMN_CHUNK]],
                            n_min, n_max)
    return out


# ---------------------------------------------------------------------------
# single coefficients and series
# ---------------------------------------------------------------------------

def coeff_scaled(profile, n, tol=DEFAULT_TOL):
    """One scaled coefficient with an absolute error estimate.

    Returns ``(value, err)``; ``err <= tol`` unless the refinement ladder
    was exhausted, in which case the best value is returned with its honest
    error estimate (callers treat ``err > tol`` as the not-met flag).  Each
    level runs the sweep for the single order n on the grid built for n.
    Closed-form oracle planets bypass quadrature entirely.
    """
    closed = getattr(profile, "closed_coeff_scaled", None)
    if closed is not None:
        return closed(n), 0.0

    prev = None
    best = None
    err = math.inf
    for level in range(3):
        cur = float(_sweep(profile, n, level, n_min=n)[0])
        if prev is not None:
            err = max(abs(cur - prev), 1e-300)
            best = cur
            if err <= tol:
                return cur, err
        prev = cur
    return best, err

def coeff_series(profile, n_min, n_max, tol=DEFAULT_TOL):
    """Scaled coefficients for every order in [n_min, n_max].

    Closed-form oracle planets use their whole-range formula.  Every other
    planet takes the recurrence sweep (``_sweep``) over a shared grid at
    two resolutions; their difference is the per-order error estimate.
    Raises :class:`EnvelopeBoundError` if any magnitude breaks the
    a-priori envelope bound 4 pi G max|v|.
    """
    if n_min > n_max:
        raise ValueError("need n_min <= n_max")
    closed = getattr(profile, "closed_coeff_series", None)
    ns = np.arange(n_min, n_max + 1)
    if closed is not None:
        vals = closed(n_min, n_max)
        errs = np.zeros_like(vals)
        return ScaledCoeffSeries(ns, vals, errs, np.ones(ns.size, bool),
                                 profile.R, profile.fingerprint, tol)

    coarse = _sweep(profile, n_max, 0, n_min)
    vals = _sweep(profile, n_max, 1, n_min)
    errs = np.maximum(np.abs(vals - coarse), 1e-300)

    bound = ENVELOPE_SAFETY * profile.G * profile.vmax
    worst = np.max(np.abs(vals))
    if worst > bound:
        raise EnvelopeBoundError(
            f"coefficient magnitude {worst:.3e} breaks the envelope bound {bound:.3e}"
        )
    return ScaledCoeffSeries(ns, vals, errs, errs <= tol,
                             profile.R, profile.fingerprint, tol)

# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def potential_direct(profile, z, tol=1e-9, max_level=6):
    """Potential on the axis at height z > R by direct 2D quadrature of the
    Newtonian kernel over the planet volume.  Raises
    :class:`ToleranceNotMet` if panel doubling fails to stabilize."""
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

    prev = run(0)
    err = math.inf
    for level in range(1, max_level + 1):
        cur = run(level)
        err = abs(cur - prev)
        if err <= tol:
            return cur
        prev = cur
    raise ToleranceNotMet(f"potential_direct at z={z}: err {err:.3e} > tol {tol:.3e}",
                          value=prev, err=err)


def potential_partial_sum(series, z, N):
    """Partial sum of the expansion through order N, evaluated in scaled
    form (R/z)^n so no intermediate overflows.  Returns (value, last_term)."""
    if N > series.n_max:
        raise ValueError("N exceeds the computed range")
    m = series.n <= N
    ns = series.n[m]
    ratio = series.R / z
    terms = series.values[m] * ratio**ns * series.R**3 / z
    return float(np.sum(terms)), float(abs(terms[-1]))
