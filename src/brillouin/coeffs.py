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

For density columns constant in r, all orders come from one recurrence
sweep over a shared grid.  Once e^{-(n+3)F} underflows to exactly 0 at a
node, that node contributes exactly 0 to every later order, so the sweep
drops such nodes every 32 orders; only the summation order of the
remaining nodes changes.
"""

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from ._panels import _rule01, composite_nodes, peak_breakpoints
from .errors import ToleranceNotMet
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


def _radial_weight(profile, thetas, n):
    """W_n at the grid colatitudes for a general density column v(r, theta)."""
    L = profile.eval_L(thetas)
    rM = profile.eval_rM(thetas)
    cap = RADIAL_EXPONENT_CAP / (n + 3.0)
    out = np.zeros_like(thetas)
    # panels equispaced in the decay exponent u = (n+3) s
    u_edges = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, RADIAL_EXPONENT_CAP])
    gx, gw = _rule01()
    for theta_idx in range(0, thetas.size, 4096):
        sl = slice(theta_idx, min(theta_idx + 4096, thetas.size))
        Ls, rMs, ts = L[sl], rM[sl], thetas[sl]
        s_hi = np.minimum(Ls, cap)
        # exponent-graded panels mapped onto [0, s_hi] per colatitude
        bp = u_edges[None, :] / RADIAL_EXPONENT_CAP * s_hi[:, None]
        acc = np.zeros(ts.size)
        for j in range(len(u_edges) - 1):
            a = bp[:, j][:, None]
            h = (bp[:, j + 1] - bp[:, j])[:, None]
            s = a + h * gx[None, :]
            w = h * gw[None, :]
            vals = profile.eval_v(rMs[:, None] * np.exp(-s), ts[:, None] * np.ones_like(s))
            acc += np.sum(w * np.exp(-(n + 3.0) * s) * vals, axis=1)
        out[sl] = acc
    return out


# ---------------------------------------------------------------------------
# single coefficients
# ---------------------------------------------------------------------------

def coeff_scaled(profile, n, tol=DEFAULT_TOL):
    """One scaled coefficient with an absolute error estimate.

    Returns ``(value, err)``; ``err <= tol`` unless the refinement ladder
    was exhausted, in which case the best value is returned with its honest
    error estimate (callers treat ``err > tol`` as the not-met flag).
    Closed-form oracle planets bypass quadrature entirely.
    """
    closed = getattr(profile, "closed_coeff_scaled", None)
    if closed is not None:
        return closed(n), 0.0

    prev = None
    best = None
    err = math.inf
    for level in range(3):
        cur = _coeff_on_grid(profile, n, level)
        if prev is not None:
            err = max(abs(cur - prev), 1e-300)
            best = cur
            if err <= tol:
                return cur, err
        prev = cur
    return best, err


def _coeff_on_grid(profile, n, level):
    nodes, wts = theta_grid(profile, n, level)
    F = profile.eval_F(nodes)
    damp = np.exp(-(n + 3.0) * F)
    if profile.radial_constant:
        g = profile.eval_g(nodes)
        L = profile.eval_L(nodes)
        W = g / np.sqrt(np.sin(nodes)) * (1.0 - np.exp(-(n + 3.0) * L)) / (n + 3.0)
    else:
        W = _radial_weight(profile, nodes, n)
    P = legendre_eval(n, np.cos(nodes))
    return float(np.sum(wts * np.sin(nodes) * P * damp * W))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _sweep(profile, n_max, level):
    """All scaled coefficients for n = 0..n_max in one recurrence pass.

    Only valid for density columns constant in r, where the radial factor
    has the closed form v * (1 - e^{-(n+3)L}) / (n+3).  The Legendre
    recurrence, the e^{-(n+3)F} damping and the radial factor are all
    updated order by order over a shared grid built for n_max, which is at
    least as fine as any single order requires.

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
    nodes, wts = theta_grid(profile, n_max, level)
    x = np.cos(nodes)
    base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)  # w sin v, v = g/sqrt(sin)
    E = np.exp(-profile.eval_F(nodes))
    EL = np.exp(-profile.eval_L(nodes))
    del nodes, wts
    pw = E**3
    pwL = EL**3
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    term = np.empty_like(x)
    tmp = np.empty_like(x)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        P = p_prev if n == 0 else p_cur
        # (P * pw) * (1 - pwL), then the dot
        np.subtract(1.0, pwL, out=tmp)
        np.multiply(P, pw, out=term)
        np.multiply(term, tmp, out=term)
        out[n] = np.dot(base, term) / (n + 3.0)
        pw *= E
        pwL *= EL
        if n >= 1:
            # P_{n+1} = (((2n+1) x) P_n - n P_{n-1}) / (n+1), written over P_{n-1}
            np.multiply(x, 2 * n + 1, out=term)
            term *= p_cur
            p_prev *= n
            np.subtract(term, p_prev, out=p_prev)
            p_prev /= n + 1
            p_cur, p_prev = p_prev, p_cur
        if n % COMPACT_EVERY == COMPACT_EVERY - 1:
            live = pw != 0.0
            if not live.all():
                # rebinding one array at a time keeps at most one extra copy alive
                x = x[live]
                base = base[live]
                E = E[live]
                EL = EL[live]
                pw = pw[live]
                pwL = pwL[live]
                p_prev = p_prev[live]
                p_cur = p_cur[live]
                term = term[:x.size]
                tmp = tmp[:x.size]
    return out


def coeff_series(profile, n_min, n_max, tol=DEFAULT_TOL, jobs=1):
    """Scaled coefficients for every order in [n_min, n_max].

    Density columns constant in r take a vectorized recurrence sweep over a
    shared grid (two resolutions; their difference is the per-order error
    estimate).  General columns fall back to per-order quadrature, which is
    embarrassingly parallel (``jobs`` threads).  Raises ``ValueError`` if
    any magnitude breaks the a-priori envelope bound 4 pi G max|v|.
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

    if profile.radial_constant:
        coarse = _sweep(profile, n_max, level=0)[n_min:]
        fine = _sweep(profile, n_max, level=1)[n_min:]
        errs = np.maximum(np.abs(fine - coarse), 1e-300)
        vals = fine
    else:
        vals = np.empty(ns.size)
        errs = np.empty(ns.size)

        def one(i):
            v, e = coeff_scaled(profile, int(ns[i]), tol)
            return i, v, e

        if jobs > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
                for i, v, e in pool.map(one, range(ns.size)):
                    vals[i], errs[i] = v, e
        else:
            for i in range(ns.size):
                _, vals[i], errs[i] = one(i)

    bound = ENVELOPE_SAFETY * profile.G * profile.vmax
    worst = np.max(np.abs(vals))
    if worst > bound:
        raise ValueError(
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
