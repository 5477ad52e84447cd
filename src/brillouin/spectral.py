"""Fourier-side regularity diagnostics.

Cutoff construction, compactly supported transforms, power-law tail
fitting, the weighted sup-norm check, and the Gaussian spectral window.
All transforms use the unitary-in-frequency convention

    fhat(k) = (1 / sqrt(2 pi)) * integral e^{-i k x} f(x) dx,

and every consumer of a transform in this package assumes that
normalization.  A transform integrates over the declared support of its
function, which is where the function can be nonzero: the rule's outer
panel edges sit at the support's ends, so a function truncated to zero
there keeps the Gauss panels' full convergence rate, and no node is spent
on zeros.  Closed-form tail predictions for the half-integer-cusp
family are produced by :func:`appendix_oracle` in the same convention.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._panels import (PANEL_ORDER, breakpoints_on, composite_nodes, graded_offsets, refine,
                      uniform_breakpoints)
from .errors import BrillouinError

__all__ = [
    "SmoothCutoff",
    "build_cutoff",
    "fourier_eval",
    "appendix_oracle",
    "appendix_function",
    "sample_transform",
    "TailFit",
    "fit_tail",
    "fit_windows",
    "LinfReport",
    "check_Linf",
    "gaussian_window",
    "NoPowerLaw",
    "IntegerBeta",
]


class NoPowerLaw(BrillouinError):
    """Windowed tail amplitudes drifted too much for a power-law fit."""


class IntegerBeta(BrillouinError):
    """Integer tail exponents need a logarithmic variant; not provided."""


def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class SmoothCutoff:
    """C-infinity plateau function: 1 on |x - center| <= eps, 0 beyond 2 eps."""

    center: float
    eps: float

    def __call__(self, x):
        u = np.abs(np.asarray(x, dtype=float) - self.center) / self.eps
        out = np.where(u <= 1.0, 1.0, 0.0)
        # the smooth step only on the band between the plateau and the support
        # edge (a NaN lies in it), which a transform's nodes often miss
        band = ~((u <= 1.0) | (u >= 2.0))
        if band.any():
            out[band] = _smooth_step(2.0 - u[band])
        if np.ndim(x) == 0:
            return float(out)
        return out

    @property
    def support(self):
        return (self.center - 2.0 * self.eps, self.center + 2.0 * self.eps)


def build_cutoff(theta0, eps):
    """Smooth cutoff centered at ``theta0``: identically 1 within ``eps``,
    identically 0 beyond ``2 eps``, infinitely differentiable in between.

    Requires ``2 eps < min(theta0, pi - theta0)`` so the support stays
    inside (0, pi).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if 2.0 * eps >= min(theta0, math.pi - theta0):
        raise ValueError("cutoff support must stay inside (0, pi)")
    return SmoothCutoff(float(theta0), float(eps))


def _transform_breakpoints(support, k, singularities, level):
    a, b = support
    wavelength = 2.0 * math.pi / max(abs(k), 1e-30)
    base = min(wavelength / 2.0**level, (b - a) / 4.0)
    offs = graded_offsets(max(1e-12 / 2.0**level, 1e-16), base)
    return breakpoints_on(a, b, uniform_breakpoints(a, b, base),
                          *(p for s in singularities if a < s < b for p in (s - offs, s + offs)))


def fourier_eval(f, k, support, singularities=(), tol=None):
    """Transform of a compactly supported real function at frequency ``k``.

    ``support`` is where ``f`` can be nonzero; its ends are panel edges,
    so a kink of ``f`` there (such as a truncation to zero) costs no
    accuracy.  Composite Gauss panels no wider than one oscillation
    wavelength (16 nodes per wavelength), with geometric refinement toward
    any declared singular points of ``f``.  The result carries the
    1/sqrt(2 pi) prefactor.  With ``tol`` set, the panel width is halved
    once and :class:`ToleranceNotMet` is raised if the two evaluations
    disagree by more than ``tol`` (see ``_panels.refine``).
    """
    def run(level):
        bp = _transform_breakpoints(support, k, singularities, level)
        x, w = composite_nodes(bp)
        vals = np.asarray(f(x), dtype=float)
        ker = np.exp(-1j * k * x)
        return np.sum(w * vals * ker) / math.sqrt(2.0 * math.pi)

    top = 0 if tol is None else 1
    return complex(refine(run, tol, top, what=f"fourier_eval at k={k}")[0])


def sample_transform(f, support, ks, singularities=()):
    """Vector of transform values at the frequencies ``ks``."""
    return np.array([fourier_eval(f, k, support, singularities) for k in ks])


def default_taper(beta, eps, order=None):
    """Polynomial taper (1 - (x/eps)^2)^q restricted to [-eps, eps], with q
    above the tail exponent.  Its zeros of order q at +-eps suppress the
    boundary contributions below the x=0 cusp's power law; outside its
    zeros the polynomial grows, so the profile is truncated there rather
    than letting the cutoff wing pick that growth up."""
    q = order if order is not None else int(math.floor(beta)) + 2
    if q <= beta:
        raise ValueError("taper must vanish to order above the tail exponent")

    def taper(x):
        u = np.asarray(x, dtype=float) / eps
        with np.errstate(over="ignore"):  # u * u of a node far outside, never used
            return np.power(1.0 - u * u, q, out=np.zeros_like(u), where=np.abs(u) <= 1.0)

    taper.order = q
    taper.support = (-eps, eps)
    return taper


def appendix_function(beta, eps, taper=None):
    """The cusp profile |x|^(beta-1) * P(x) * cutoff(x) used as a canonical
    power-law-tail sample; P is the polynomial taper, the cutoff has
    plateau half-width eps and support 2 eps.

    The declared ``support`` is where f can be nonzero: the cutoff's
    (-2 eps, 2 eps), cut down to the taper's own ``support`` when the taper
    declares one.  For the default taper that is (-eps, eps), so the
    transform rule puts panel edges at the taper's truncation kinks."""
    P = taper if taper is not None else default_taper(beta, eps)
    phi = SmoothCutoff(0.0, eps)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) ** (beta - 1.0) * P(x) * phi(x)

    lo, hi = phi.support
    p_lo, p_hi = getattr(P, "support", (lo, hi))
    f.support = (max(lo, p_lo), min(hi, p_hi))
    f.singularities = (0.0,)
    return f


@dataclass(frozen=True)
class AppendixTailOracle:
    """Closed-form large-|k| tail of the transform of |x|^(beta-1)*P*cutoff.

    ``side_plus`` and ``side_minus`` are the complex constants contributed
    by the x > 0 and x < 0 halves for k -> +infinity; the two-sided tail is
    their (real) sum.  Values are in the 1/sqrt(2 pi) convention.
    """

    beta: float
    eps: float
    side_plus: complex
    side_minus: complex

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        mag = np.abs(k) ** (-self.beta)
        plus_side = (self.side_plus + self.side_minus) / math.sqrt(2.0 * math.pi)
        # real f: the k -> -infinity tail is the conjugate of the k -> +infinity one
        tail = np.where(k >= 0, plus_side * mag, np.conj(plus_side) * mag)
        if np.ndim(k) == 0:
            return complex(tail)
        return tail


def appendix_oracle(beta, eps):
    """Tail predictor for the canonical cusp sample of :func:`appendix_function`.

    For non-integer beta > 1 the two halves contribute
    e^{-i pi beta / 2} Gamma(beta) / k^beta  (x > 0 side)  and
    e^{+i pi beta / 2} Gamma(beta) / k^beta  (x < 0 side)
    as k -> +infinity, each rescaled here by 1/sqrt(2 pi) to match the
    transform convention.  Their sum 2 cos(pi beta / 2) Gamma(beta) k^{-beta}
    is real, as it must be for a real even profile.  Integer beta needs a
    different (logarithmic) treatment and is rejected.
    """
    if beta <= 1:
        raise ValueError("tail exponent must exceed 1")
    if abs(beta - round(beta)) < 1e-12:
        raise IntegerBeta("integer tail exponents are not covered by this closed form")
    g = math.gamma(beta)
    side_plus = np.exp(-1j * math.pi * beta / 2.0) * g
    side_minus = np.exp(+1j * math.pi * beta / 2.0) * g
    return AppendixTailOracle(beta=float(beta), eps=float(eps),
                              side_plus=complex(side_plus), side_minus=complex(side_minus))


K_BASE = -50.0  # innermost edge of the geometric fit windows
DRIFT_LIMIT = 0.20
MIN_TAIL_SAMPLES = 20
MIN_TAIL_SPAN = 100.0  # largest over smallest |k|: two decades
#: one transform sample's rule holds at most about this many nodes: its
#: transient arrays (nodes, weights, values, the complex kernel and their
#: products) take about 80 B a node, so one sample stays near 160 MiB
MAX_RULE_NODES = 2**21
#: the largest |k| whose rule stays under MAX_RULE_NODES on a support
#: inside (-pi, pi), where a weight's argument theta - theta0 lies: the
#: wavelength panels take at most half the nodes, leaving the rest for the
#: graded panels toward a singularity, of which there are about a hundred
MAX_TAIL_K = MAX_RULE_NODES / (2 * PANEL_ORDER)
#: a tail fit takes at most this many samples, one rule each (84 by default)
MAX_TAIL_SAMPLES = 4096


@dataclass(frozen=True)
class TailFit:
    """Fitted power-law tail of a transform on the negative frequency axis.

    ``amp`` estimates lim (-k)^beta_hat * fhat(k) for k -> -infinity;
    ``residual`` is the worst relative drift of the windowed amplitude
    across the outermost three windows.
    """

    beta: float
    amp: complex
    window: tuple
    residual: float
    window_amps: tuple = field(default=())


def fit_windows(k_max):
    """The geometric windows [2^j, 2^(j+1)] * |K_BASE| of the tail fit's
    amplitude, as (lo, hi) pairs, for samples that reach |k| = ``k_max``:
    every window up to the last one that ``k_max`` closes."""
    base = abs(K_BASE)
    windows = []
    while base * 2.0 ** (len(windows) + 1) <= k_max * (1 + 1e-12):
        j = len(windows)
        windows.append((base * 2.0**j, base * 2.0 ** (j + 1)))
    return windows


def fit_tail(ks, fhat):
    """Fit ``fhat ~ amp * (-k)^(-beta)`` from samples on a negative k grid.

    Needs at least 20 samples spanning at least two decades (the
    ``MIN_TAIL_SAMPLES`` and ``MIN_TAIL_SPAN`` constants), at least three
    of the :func:`fit_windows` holding samples, and two nonzero samples in
    the outer half of the decades.  The exponent comes from a log-log
    least squares fit; the amplitude from windowed means of (-k)^beta *
    fhat over the windows.  Raises :class:`NoPowerLaw` when the outer
    samples vanish or the windowed amplitude keeps drifting.
    """
    ks = np.asarray(ks, dtype=float)
    fhat = np.asarray(fhat, dtype=complex)
    if np.any(ks >= 0):
        raise ValueError("tail fitting expects negative frequencies")
    if ks.size < MIN_TAIL_SAMPLES:
        raise ValueError(f"need at least {MIN_TAIL_SAMPLES} samples")
    mag = np.abs(ks)
    if mag.max() / mag.min() < MIN_TAIL_SPAN:
        raise ValueError("samples must span at least two decades")

    # exponent from the outer half of the sampled decades, where the
    # pre-asymptotic corrections of the inner windows have died off
    outer = mag >= math.sqrt(mag.min() * mag.max())
    good = outer & (np.abs(fhat) > 0)
    if np.count_nonzero(good) < 2:
        raise NoPowerLaw(f"{np.count_nonzero(good)} nonzero transform samples in the outer "
                         "half of the decades; a power law needs two")
    slope, intercept = np.polyfit(np.log(mag[good]), np.log(np.abs(fhat[good])), 1)
    beta_hat = -slope

    windows = fit_windows(mag.max())
    amps = []
    for lo, hi in windows:
        m = (mag >= lo) & (mag < hi)
        if np.any(m):
            amps.append(np.mean(mag[m] ** beta_hat * fhat[m]))
    if len(amps) < 3:
        raise ValueError("need at least three fit windows; extend the sample range")
    last = amps[-3:]
    scale = max(abs(a) for a in last)
    residual = max(abs(a - b) for a in last for b in last) / max(scale, 1e-300)
    if residual > DRIFT_LIMIT:
        raise NoPowerLaw(f"windowed amplitude drift {residual:.2%} exceeds {DRIFT_LIMIT:.0%}")
    return TailFit(
        beta=float(beta_hat),
        amp=complex(amps[-1]),
        window=(float(-mag.max()), float(-windows[-3][0])),
        residual=float(residual),
        window_amps=tuple(complex(a) for a in amps),
    )


@dataclass(frozen=True)
class LinfReport:
    value: float
    unbounded_trend: bool
    window_sups: tuple


def check_Linf(beta, ks, fhat):
    """Grid supremum of (1 + |k|)^beta |fhat(k)| with a growth-trend flag.

    The flag is set when the windowed suprema keep increasing toward large
    |k|, indicating the weighted transform is unbounded for this beta.
    """
    ks = np.asarray(ks, dtype=float)
    vals = (1.0 + np.abs(ks)) ** beta * np.abs(np.asarray(fhat))
    if vals.size == 0 or np.all(vals == 0):
        return LinfReport(0.0, False, ())
    order = np.argsort(np.abs(ks))
    v = vals[order]
    quarters = np.array_split(v, 4)
    sups = tuple(float(q.max()) for q in quarters if q.size)
    growing = all(b > a * 1.05 for a, b in zip(sups, sups[1:])) and len(sups) >= 3
    return LinfReport(float(vals.max()), bool(growing), sups)


def gaussian_window(fhat, n, c, q):
    """Gaussian-weighted frequency window centered at k = -n:

        (1 / sqrt(2 c n)) * integral_{-n-n^q}^{-n+n^q} fhat(k) e^{-(k+n)^2/(4cn)} dk

    with 1/2 < q < 1.  For a transform with tail amp * (-k)^{-beta} this
    evaluates to sqrt(2 pi) * amp * n^{-beta} to leading order.
    """
    if not (0.5 < q < 1.0):
        raise ValueError("q must lie in (1/2, 1)")
    if c <= 0:
        raise ValueError("c must be positive")
    half = n**q
    sigma = math.sqrt(2.0 * c * n)
    bp = uniform_breakpoints(-n - half, -n + half, max(sigma / 2.0, half / 512.0))
    k, w = composite_nodes(bp)
    vals = np.asarray(fhat(k), dtype=complex)
    integrand = vals * np.exp(-((k + n) ** 2) / (4.0 * c * n))
    return complex(np.sum(w * integrand) / sigma)
