"""Sphere Green's function, swept surface densities, their longitudinal
average, the half-power-to-Cauchy transform A, and Plemelj jump recovery.

The longitudinal average of a point mass's swept density is closed form
in the complete elliptic integral E (evaluated by a local AGM, with no
tolerance), and exterior potentials of swept densities integrate over one
cached product rule on the sphere, whose distances to each observer are
computed once for a whole block of sources.

Everything is set in three dimensions on the unit sphere (radial units
normalized to the Brillouin radius).  Sign convention: the swept density
sigma and its longitudinal average mu are kept nonnegative for positive
mass, normalized so the integral of mu over [-1, 1] equals the total
(G-weighted) swept mass; the attractive potential is then recovered as

    V(z) = -Q(p) / sqrt(z^2 + 1),   p = 2 z / (z^2 + 1),

which is negative for positive mass, matching the coefficient module.

The transform A acts diagonally on Maclaurin coefficients,
c_k -> sqrt(pi) Gamma(1+k) / Gamma(k+1/2) c_k, and maps the square-root
kernel (1 - p x)^{-1/2} to the Cauchy kernel (1 - p x)^{-1}; on the
variable zeta = 1/p it is the Cauchy transform zeta * int mu(x)/(zeta - x) dx,
whose jump across (-1, 0) u (0, 1) returns -2 pi i x mu(x).  For a real mu
the transform below the cut is the conjugate of the one above (Schwarz
reflection), so the jump costs one transform per height.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._io import read_csv
from ._panels import (breakpoints_on, composite_nodes, graded_offsets, refine,
                      uniform_breakpoints)
from .errors import BrillouinError, ToleranceNotMet

__all__ = [
    "SurfaceMeasure",
    "PowerSeries",
    "green_sphere",
    "swept_density_point",
    "mu_from_point_masses",
    "build_Q",
    "apply_A_series",
    "apply_A_cauchy",
    "plemelj_jump",
    "analyticity_probe",
    "swept_potential",
    "halfpower_convolution_coeff",
    "CutViolation",
    "OnCut",
    "ExtrapolationUnstable",
]


class CutViolation(BrillouinError):
    """The kernel (1 - p x)^{-1/2} is singular on [-1, 1] for this p."""


class OnCut(BrillouinError):
    """Cauchy transform evaluated on the cut [-1, 1]."""


class ExtrapolationUnstable(BrillouinError):
    """Richardson extrapolation of the jump failed to settle."""


@dataclass(frozen=True)
class SurfaceMeasure:
    """Longitudinally averaged surface density mu as a function of x = cos(theta).

    ``mu`` is a vectorized callable on [-1, 1], given a float array.  The
    measure returns a float for a scalar x and an array for an array.
    """

    mu: Callable

    def __call__(self, x):
        out = self.mu(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    def total_mass(self):
        """The integral of mu over [-1, 1] by 25 Gauss panels (400 nodes)."""
        bp = uniform_breakpoints(-1.0, 1.0, 2.0 / 25)
        x, w = composite_nodes(bp)
        return float(np.sum(w * self(x)))

    @staticmethod
    def from_samples(xs, vals):
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(vals, dtype=float)

        def interp(x):
            return np.interp(np.asarray(x, dtype=float), xs, vals)

        return SurfaceMeasure(interp)

    @staticmethod
    def from_csv(path):
        """The measure interpolating the ``x`` and ``mu`` columns of a
        ``mu.csv`` artifact."""
        columns = read_csv(path)
        return SurfaceMeasure.from_samples(columns["x"], columns["mu"])


@dataclass(frozen=True)
class PowerSeries:
    """Finite Maclaurin coefficient vector c_0..c_K on the unit disk."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs))
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    def eval(self, p):
        total = 0.0
        for c in self.coeffs[::-1]:
            total = total * p + c
        return total


# ---------------------------------------------------------------------------
# Green's function and swept densities
# ---------------------------------------------------------------------------

def green_sphere(x, y):
    """Green's function of the unit ball at interior x and point y (interior
    or on the sphere), by the method of images:

        G(x, y) = Phi(y - x) - Phi(|x| (y - x*)),   x* = x / |x|^2,

    with Phi(w) = 1 / (4 pi |w|).  The image norm |x| |y - x*| equals
    sqrt(|x|^2 |y|^2 - 2 x.y + 1), a symmetric expression that stays finite
    as x -> 0, where G tends to (1/4 pi)(1/|y| - 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    direct = np.linalg.norm(y - x)
    if direct == 0.0:
        raise ValueError("Green's function is singular at x = y")
    image = math.sqrt(max(float(x @ x) * float(y @ y) - 2.0 * float(x @ y) + 1.0, 0.0))
    return (1.0 / direct - 1.0 / image) / (4.0 * math.pi)


def swept_density_point(x0, y):
    """Surface density swept from a unit point mass at interior x0:

        sigma(y) = (1 - |x0|^2) / (4 pi |y - x0|^3),   |y| = 1,

    the outward normal derivative of the Green's function.  Nonnegative and
    of unit total mass.
    """
    x0 = np.asarray(x0, dtype=float)
    d = np.linalg.norm(np.asarray(y, dtype=float) - x0, axis=-1)
    return (1.0 - float(x0 @ x0)) / (4.0 * math.pi * d**3)


def _ellipe(m):
    """Complete elliptic integral of the second kind E(m) (parameter m =
    k^2, 0 <= m <= 1) by the arithmetic-geometric mean, elementwise:

        E(m) = K(m) (1 - sum_{j>=0} 2^(j-1) c_j^2),   K(m) = pi / (2 a_inf),

    with a_0 = 1, b_0 = sqrt(1 - m), c_0 = sqrt(m) (DLMF 19.8.6).  The c_j
    converge quadratically; once every c <= 1e-9 a the next term is below
    rounding.  1 - m is floored at 2^-106, which moves E by less than 1e-30
    (E(1) = 1 to rounding) and keeps b_0 > 0, so the loop ends in a few
    steps; NaN lanes give NaN and do not hold it up.
    """
    m = np.asarray(m, dtype=float)
    a = np.ones_like(m)
    b = np.sqrt(np.maximum(1.0 - m, 2.0**-106))
    c = np.sqrt(m)
    total = 0.5 * m
    weight = 0.5
    while True:
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        total += weight * c * c
        if not np.any(c > 1e-9 * a):
            return math.pi / (2.0 * a) * (1.0 - total)


def mu_from_point_masses(masses):
    """Longitudinal average of the swept densities of interior point masses.

    ``masses`` is a sequence of (m, (x, y, z)) with |position| < 1.  At
    x = cos(theta) the squared distance from a sphere point at longitude
    lambda (measured from the mass's meridian) to a mass at radius r is
    A - B cos(lambda), so its longitude integral has the closed form

        int_0^{2 pi} (A - B cos l)^(-3/2) dl = 4 E(q) / ((A - B) sqrt(A + B)),

    with parameter q = 2 B / (A + B) (DLMF 19.2), exact to rounding with no
    tolerance.  On the axis and at the centre B = 0 and E(0) = pi / 2.
    A - B and A + B are formed as sums of squares, without cancellation as
    the mass nears the sphere.  Total mass of the result equals sum(m).
    """
    prepared = []
    for m, pos in masses:
        pos = np.asarray(pos, dtype=float)
        r = float(np.linalg.norm(pos))
        if r >= 1.0:
            raise ValueError("point masses must lie strictly inside the unit ball")
        ct = 1.0 if r == 0.0 else pos[2] / r
        st = math.sqrt(max(1.0 - ct * ct, 0.0))
        prepared.append((float(m), r, ct, st))

    def mu(x):
        st_x = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        total = np.zeros_like(x)
        for m, r, ct, st in prepared:
            # A -+ B = (1 - r)^2 + r |u -+ v|^2 for the unit vectors
            # u = (st_x, x), v = (st, ct) of the two polar angles
            near = (1.0 - r) ** 2 + r * ((x - ct) ** 2 + (st_x - st) ** 2)
            far = (1.0 - r) ** 2 + r * ((x - ct) ** 2 + (st_x + st) ** 2)
            integral = 4.0 * _ellipe(1.0 - near / far) / (near * np.sqrt(far))
            total += m * (1.0 - r * r) / (4.0 * math.pi) * integral
        return total

    return SurfaceMeasure(mu)


@functools.lru_cache(maxsize=4)
def _sphere_rule(n_theta):
    """Product rule on the unit sphere: composite Gauss-Legendre panels in
    cos(theta) times the 2 n_theta-point trapezoid rule in longitude.
    Returns read-only points (N, 3), stored column-major so that the
    per-point sums over the three coordinates run on contiguous columns,
    and weights (N,)."""
    rule_x, rule_w = composite_nodes(uniform_breakpoints(-1.0, 1.0, 2.0 / (n_theta // 16)))
    n_lam = 2 * n_theta
    lam = np.linspace(0.0, 2.0 * math.pi, n_lam, endpoint=False)
    st = np.sqrt(np.clip(1.0 - rule_x**2, 0.0, None))
    coords = np.empty((3, rule_x.size, n_lam))
    coords[0] = st[:, None] * np.cos(lam)[None, :]
    coords[1] = st[:, None] * np.sin(lam)[None, :]
    coords[2] = rule_x[:, None]
    points = coords.reshape(3, -1).T
    weights = np.repeat(rule_w * (2.0 * math.pi / n_lam), n_lam)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def _distances(points, centre, out, tmp):
    """|p - centre| for each row p of ``points``, written to ``out`` and
    returned.  The squares are summed one coordinate column at a time in
    the order ((x^2 + y^2) + z^2), in the buffers ``out`` and ``tmp`` of
    one entry per point: no (N, 3) difference array is formed."""
    np.subtract(points[:, 0], centre[0], out=out)
    out *= out
    for c in (1, 2):
        np.subtract(points[:, c], centre[c], out=tmp)
        tmp *= tmp
        out += tmp
    return np.sqrt(out, out=out)


#: the most swept densities ``swept_potential`` holds at once (0.6 MB each)
SOURCE_BLOCK = 4


def swept_potential(x0, obs):
    """Exterior potentials of the swept densities of unit masses at x0,
    integrated over the sphere: each should equal 1/|obs - x0| for |obs| > 1.

    ``x0`` is one source (3,) or a stack (k, 3); ``obs`` is one observer
    (3,) or a stack (n, 3).  The result has shape ``x0.shape[:-1] +
    obs.shape[:-1]``: a float for one source and one observer.  The sphere
    rule (200 nodes in theta) is built once.  The sources are taken in
    blocks of ``SOURCE_BLOCK``: each source's density takes one pass over
    the rule, and each observer one distance pass per block, which every
    density of the block then divides and sums.
    """
    x0 = np.asarray(x0, dtype=float)
    obs = np.asarray(obs, dtype=float)
    points, weights = _sphere_rule(200)
    sources, observers = x0.reshape(-1, 3), obs.reshape(-1, 3)
    # these buffers serve every pass, so no pass allocates
    dist, tmp = np.empty(weights.size), np.empty(weights.size)
    sigmas = np.empty((min(len(sources), SOURCE_BLOCK), weights.size))
    vals = np.empty((len(sources), len(observers)))
    for start in range(0, len(sources), SOURCE_BLOCK):
        block = sources[start:start + SOURCE_BLOCK]
        held = sigmas[:len(block)]
        for sig, src in zip(held, block):
            np.multiply(weights, (1.0 - float(src @ src)) / (4.0 * math.pi), out=sig)
            sig /= np.power(_distances(points, src, dist, tmp), 3, out=dist)
        for j, o in enumerate(observers):
            d = _distances(points, o, dist, tmp)
            for i, sig in enumerate(held):
                # a pairwise numpy sum, not a BLAS dot, whose rounding
                # would depend on the BLAS thread count
                vals[start + i, j] = np.add.reduce(np.divide(sig, d, out=tmp))
    vals = vals.reshape(x0.shape[:-1] + obs.shape[:-1])
    return float(vals) if vals.ndim == 0 else vals


# ---------------------------------------------------------------------------
# the transform A
# ---------------------------------------------------------------------------

def build_Q(measure, p):
    """Q(p) = integral_{-1}^{1} mu(x) (1 - p x)^{-1/2} dx.

    Real p must satisfy |p| < 1 (beyond that the kernel's branch point
    enters the integration range); complex p off the real rays |p| >= 1 is
    allowed.  The attractive axis potential is -Q(p(z)) / sqrt(z^2 + 1).
    Raises :class:`ToleranceNotMet` if three panel halvings leave a
    relative change above 1e-12 (see ``_panels.refine``).
    """
    p = complex(p)
    if p.imag == 0.0 and abs(p.real) >= 1.0:
        raise CutViolation(f"p = {p.real} puts the kernel singularity inside [-1, 1]")

    def run(level):
        # graded panels toward both endpoints handle p near +-1
        offs = graded_offsets(2.0 ** -(18 + 2 * level), 0.25 / 2.0**level)
        x, w = composite_nodes(breakpoints_on(
            -1.0, 1.0, -1.0 + offs, 1.0 - offs,
            uniform_breakpoints(-1.0 + offs[-1], 1.0 - offs[-1], 0.125 / 2.0**level)))
        val = np.sum(w * measure(x) * (1.0 - p * x) ** -0.5)
        return complex(val) if p.imag != 0.0 else float(np.real(val))

    return refine(run, 1e-12, 3, what=f"build_Q at p={p}", error=_relative_change)[0]


def _relative_change(fine, coarse):
    return abs(fine - coarse) / max(1.0, abs(fine))


def _a_multipliers(n):
    # sqrt(pi) Gamma(1 + k) / Gamma(k + 1/2) for k < n, by the stable ratio recurrence
    return list(itertools.accumulate(range(1, n), lambda m, j: m * j / (j - 0.5),
                                     initial=1.0))[:n]


def apply_A_series(series):
    """A acting on Maclaurin coefficients: c_k -> sqrt(pi) Gamma(1+k) / Gamma(k+1/2) c_k."""
    out = np.array([m * c for m, c in zip(_a_multipliers(len(series.coeffs)), series.coeffs)])
    return PowerSeries(out)


def halfpower_convolution_coeff(k):
    """Coefficient of p^{k + 1/2} in the convolution p^{-1/2} * p^k:
    sqrt(pi) Gamma(1 + k) / Gamma(k + 3/2).  Differentiating and scaling by
    sqrt(p) multiplies by (k + 1/2), reproducing the diagonal multiplier of
    :func:`apply_A_series`; kept as the validation route for that identity.
    """
    return _a_multipliers(k + 1)[k] / (k + 0.5)


def apply_A_cauchy(measure, zeta, tol=1e-12):
    """(AQ)(zeta) = zeta * integral mu(x) / (zeta - x) dx for zeta off [-1, 1].

    Raises :class:`ToleranceNotMet` if three panel halvings leave a
    relative change above ``tol`` (see ``_panels.refine``)."""
    zeta = complex(zeta)
    if zeta.imag == 0.0 and -1.0 <= zeta.real <= 1.0:
        raise OnCut(f"zeta = {zeta.real} lies on the cut [-1, 1]")

    near = abs(zeta.imag) if (-1.0 < zeta.real < 1.0) else 1.0

    def run(level):
        base = 0.125 / 2.0**level
        graded = ()
        if near < 0.25:
            # refine around the near-cut projection down to the distance scale
            offs = graded_offsets(max(near / 8.0, 1e-14) / 2.0**level, base)
            graded = (zeta.real - offs, zeta.real + offs)
        x, w = composite_nodes(breakpoints_on(
            -1.0, 1.0, uniform_breakpoints(-1.0, 1.0, base), *graded))
        return complex(zeta * np.sum(w * measure(x) / (zeta - x)))

    return refine(run, tol, 3, what=f"apply_A_cauchy at zeta={zeta}",
                  error=_relative_change)[0]


PLEMELJ_MARGIN = 1e-3


def plemelj_jump(measure, x0, eps_seq=(1e-2, 1e-3, 1e-4)):
    """Boundary jump of the Cauchy transform across the cut at x0, and the
    density it recovers.

    Evaluates AQ just above the cut at heights ``eps_seq``, one Cauchy
    transform per height, and extrapolates the difference to the cut by
    Neville's scheme; the recovered density is jump / (-2 pi i x0).  The
    value below the cut is the conjugate of the value above (Schwarz
    reflection, as mu is real), bitwise: each step of the Cauchy sum (the
    difference zeta - x, the complex division, the pairwise sum and the
    product with zeta) is exactly symmetric under conjugating zeta, so
    both sides would stop at the same refinement level with conjugate
    values.  x0 must stay PLEMELJ_MARGIN away from 0 (where the jump
    formula degenerates) and from the endpoints, and the heights, at least
    two, must be positive and distinct; otherwise ValueError is raised.
    """
    if not (PLEMELJ_MARGIN < abs(x0) < 1.0 - PLEMELJ_MARGIN):
        raise ValueError(f"x0 must stay off 0 and +-1 by margin {PLEMELJ_MARGIN}")
    eps_seq = sorted(eps_seq, reverse=True)
    if not (len(eps_seq) >= 2 and eps_seq[-1] > 0
            and all(a > b for a, b in zip(eps_seq, eps_seq[1:]))):
        raise ValueError(f"need at least two positive, distinct heights, not {eps_seq}")

    def cauchy(zeta):
        # the Neville check below is this routine's error control, so a
        # Cauchy value that missed its own tolerance is still used
        try:
            return apply_A_cauchy(measure, zeta)
        except ToleranceNotMet as exc:
            return exc.value

    ups = [cauchy(complex(x0, e)) for e in eps_seq]
    jumps = [up - up.conjugate() for up in ups]
    # Neville tableau in the height variable; for convergent data each
    # level moves the top extrapolant less than the previous one
    tab = list(jumps)
    xs = list(eps_seq)
    scale = max(abs(j) for j in jumps)
    prev_corr = None
    for lvl in range(1, len(tab)):
        top_before = tab[0]
        for i in range(len(tab) - lvl):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + lvl] / (xs[i] - xs[i + lvl])
        corr = abs(tab[0] - top_before)
        if prev_corr is not None and corr > prev_corr and corr > 1e-9 * scale:
            raise ExtrapolationUnstable(
                f"Neville corrections grew from {prev_corr:.3e} to {corr:.3e}")
        prev_corr = corr
    jump = tab[0]
    recovered = jump / (-2.0j * math.pi * x0)
    return complex(jump), complex(recovered)


# ---------------------------------------------------------------------------
# local analyticity probe
# ---------------------------------------------------------------------------

PROBE_SCALES = (0.1, 0.05, 0.025, 0.0125)
CONSISTENT = "ConsistentWithAnalytic"
NON_ANALYTIC = "NonAnalyticSignature"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ProbeReport:
    classification: str
    scales: tuple
    tail_fractions: tuple
    residuals: tuple


def analyticity_probe(measure, x0):
    """Heuristic local-analyticity classifier (explicitly not a decision
    procedure: analyticity cannot be decided from finitely many samples).

    Fits Chebyshev polynomials on shrinking stencils around x0 and watches
    the high-order coefficient fraction.  For analytic densities it decays
    geometrically with the stencil radius; a persistent algebraic tail is
    the non-analytic signature; residual-dominated fits (noise floor) are
    inconclusive.
    """
    from numpy.polynomial import chebyshev

    degree = 8
    fracs, resids = [], []
    for h in PROBE_SCALES:
        u = np.cos(np.linspace(0.0, math.pi, 33))  # Chebyshev-extrema stencil
        xs = x0 + h * u
        vals = measure(xs)
        coef = chebyshev.chebfit(u, vals, degree)
        fit = chebyshev.chebval(u, coef)
        resids.append(float(np.max(np.abs(fit - vals))))
        head = float(np.max(np.abs(coef)))
        tail = float(np.max(np.abs(coef[degree - 2:])))
        fracs.append(tail / head if head > 0 else 0.0)

    fracs_arr = np.array(fracs)
    resids_arr = np.array(resids)
    # noise floor: residuals neither shrink with h nor sit at rounding level
    if resids_arr[-1] > 1e-12 and resids_arr[-1] > 0.25 * resids_arr[0]:
        cls = INCONCLUSIVE
    elif np.all(fracs_arr < 1e-10):
        cls = CONSISTENT
    else:
        good = fracs_arr > 1e-14
        if np.count_nonzero(good) < 2:
            cls = CONSISTENT
        else:
            slope = float(np.polyfit(np.log(np.array(PROBE_SCALES)[good]),
                                     np.log(fracs_arr[good]), 1)[0])
            if slope >= 3.0:
                cls = CONSISTENT
            elif slope <= 2.0:
                cls = NON_ANALYTIC
            else:
                cls = INCONCLUSIVE
    return ProbeReport(cls, PROBE_SCALES, tuple(fracs), tuple(resids))
