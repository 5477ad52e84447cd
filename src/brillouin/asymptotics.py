"""Closed-form large-order coefficient predictors and the reduction
integrals used to localize any disagreement with quadrature.

All predictors produce scaled values C_n R^{-(n+3)}; the common structure is

    C~_n = n^{-3/2} * prefactor * Re[ e^{-i pi/4} e^{i (n + 1/2) theta0} * B_n ],

where the complex bracket B_n encodes the peak and weight shapes.  The
``envelope`` of a prediction is the same expression with the oscillatory
cosine replaced by 1; ratios against predictions are only meaningful on
orders where the prediction is not near a cosine zero, which is what the
phase mask below enforces.

Complex powers use the principal branch: i^alpha = e^{i pi alpha / 2} and
(-i)^alpha = e^{-i pi alpha / 2}.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._panels import composite_nodes, peak_breakpoints
from .coeffs import _graded_floor
from .errors import BrillouinError
from .model import (
    C1MixedWeight,
    PowerC1,
    PowerCusp,
    QuadraticPeak,
    SmoothPowerWeight,
    TwoSidedCuspWeight,
)

__all__ = [
    "AsymptoticPrediction",
    "predict_thm1",
    "predict_thm3",
    "oscillatory_J",
    "RatioReport",
    "ratio_diagnostic",
    "ExceptionalCase",
    "UnsupportedPairing",
    "EmptyAfterMasking",
]

PHASE_MASK_FRACTION = 0.10
#: the median ratio that passes :func:`ratio_diagnostic`
RATIO_PASS_WINDOW = (0.9, 1.1)
VANISH_TOL = 1e-12


class ExceptionalCase(BrillouinError):
    """Parameter coincidence under which the closed form degenerates."""


class UnsupportedPairing(BrillouinError):
    """No closed form covers this peak/weight combination."""


class EmptyAfterMasking(BrillouinError):
    """The phase mask removed every order in the overlap."""


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Predicted scaled coefficients over an order range.

    ``envelope`` is the non-oscillatory magnitude; ``vanishing`` is set
    when the complex bracket is numerically zero for every sampled order
    (the degenerate parameter sets excluded from the closed forms).
    """

    tag: str
    n: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    params: dict
    vanishing: bool
    R: float
    theta0: float

    def phase_mask(self):
        return np.abs(self.values) > PHASE_MASK_FRACTION * self.envelope


def _assemble(tag, ns, theta0, R, prefactor, bracket, params, *, vanish_scale):
    """Common assembly: prefactor may be scalar or per-order, bracket is the
    complex shape factor (scalar or per-order).  The prediction vanishes
    where max |bracket| is at most VANISH_TOL * ``vanish_scale``."""
    ns = np.asarray(ns, dtype=float)
    phase = np.exp(-1j * math.pi / 4.0) * np.exp(1j * (ns + 0.5) * theta0)
    w = np.broadcast_to(np.asarray(bracket, dtype=complex), ns.shape)
    pref = np.broadcast_to(np.asarray(prefactor, dtype=float), ns.shape)
    values = pref * np.real(phase * w)
    envelope = pref * np.abs(w)
    ref = np.max(np.abs(w))
    vanishing = bool(ref <= VANISH_TOL * max(vanish_scale, 1e-300))
    return AsymptoticPrediction(tag=tag, n=ns.astype(int), values=values,
                                envelope=envelope, params=params,
                                vanishing=vanishing, R=R, theta0=theta0)


def predict_thm1(a0, beta0, a1, beta1, R, theta0, n):
    """Predictor for smooth quadratic peaks from Fourier tail data:

        C~_n = 2 n^{-3/2} Re[ e^{-i pi/4} e^{i(n+1/2) theta0}
                              (a0 n^{-beta0} - a1 n^{-(beta1-1)}) ]

    ``a0``/``a1`` are the tail amplitudes of the localized weight and of
    the remainder-weighted weight; ``a1 = 0`` drops the second term.  The
    coincidence beta0 = beta1 - 1 with a0 = a1 cancels the leading order
    and raises :class:`ExceptionalCase`.
    """
    if beta0 <= 1:
        raise ValueError("beta0 must exceed 1")
    a1 = 0.0 if a1 is None else a1
    if a1 != 0.0:
        if beta1 is None or beta1 <= 2:
            raise ValueError("beta1 must exceed 2 when a1 is nonzero")
        if abs(beta0 - (beta1 - 1.0)) < 1e-12 and abs(complex(a0) - complex(a1)) <= \
                VANISH_TOL * max(abs(complex(a0)), 1.0):
            raise ExceptionalCase("beta0 = beta1 - 1 with a0 = a1 cancels the leading order")
    ns = np.asarray(n, dtype=float)
    bracket = complex(a0) * ns ** (-beta0)
    if a1 != 0.0:
        bracket = bracket - complex(a1) * ns ** (-(beta1 - 1.0))
    scale = abs(complex(a0)) + abs(complex(a1))
    return _assemble("T1", ns, theta0, R, 2.0 * ns**-1.5, bracket,
                     {"a0": a0, "beta0": beta0, "a1": a1, "beta1": beta1},
                     vanish_scale=scale * float(np.max(ns ** (-beta0))))


def _cusp(peak, k, g, tag):
    """``(decay, prefactor, base_p, base_m, tag)`` of a cusp peak (alpha in
    (0, 1]) with a weight of degree k.  ``g`` multiplies the prefactor; the
    caller applies the weight's one-sided factors to the bases."""
    alpha = peak.alpha
    if alpha < 1.0:
        power = (k + 1) / alpha
        return (1.5 + power, math.sqrt(2.0) * math.gamma(power) * g / (alpha * math.sqrt(math.pi)),
                peak.a_plus**-power, peak.a_minus**-power, tag + "alt1")
    return (1.5 + k + 1.0, math.sqrt(2.0) * math.gamma(k + 1.0) * g / math.sqrt(math.pi),
            (peak.a_plus - 1j) ** -(k + 1), (peak.a_minus + 1j) ** -(k + 1), tag + "a1")


def _cusp_smooth(peak, weight):
    k = int(weight.k)
    decay, pref, base_p, base_m, tag = _cusp(peak, k, weight.g_k, "T3-i-a-")
    return decay, pref, base_p, (-1.0) ** k * base_m, tag


def _cusp_two_sided(peak, weight):
    decay, pref, base_p, base_m, tag = _cusp(peak, weight.k, 1.0, "T3-i-b-")
    return decay, pref, weight.g_plus * base_p, weight.g_minus * base_m, tag


def _c1_mixed(peak, weight):
    if abs(weight.alpha - peak.alpha) > 1e-12:
        raise UnsupportedPairing("peak and weight must share the same alpha")
    alpha = peak.alpha
    ia = np.exp(1j * math.pi * alpha / 2.0)    # i^alpha, principal branch
    mia = np.exp(-1j * math.pi * alpha / 2.0)  # (-i)^alpha
    return (1.5 + alpha + 1.0, math.sqrt(2.0) * math.gamma(alpha + 1.0) / math.sqrt(math.pi),
            ia * (1j * weight.g_plus + weight.g1 * peak.a_plus * (1.0 + alpha)),
            -mia * (1j * weight.g_minus + weight.g1 * peak.a_minus * (1.0 + alpha)),
            "T3-ii-a2" if abs(alpha - 2.0) < 1e-12 else "T3-ii-ain12")


#: the closed forms of Theorem 3 by (peak, weight) pairing: each gives the
#: decay exponent, the prefactor, the one-sided terms and the tag
_THM3 = {
    (PowerCusp, SmoothPowerWeight): _cusp_smooth,
    (PowerCusp, TwoSidedCuspWeight): _cusp_two_sided,
    (PowerC1, C1MixedWeight): _c1_mixed,
}


def predict_thm3(peak, weight, R, theta0, n):
    """Closed-form predictor for low-regularity peaks.

    Dispatches on the (peak, weight) pairing; the decay exponent is
    3/2 + (k+1)/alpha for cusp peaks with alpha < 1, 3/2 + k + 1 at
    alpha = 1, and 3/2 + alpha + 1 for once-differentiable peaks with
    alpha in (1, 2].  Unmatched pairings raise :class:`UnsupportedPairing`.
    """
    terms = _THM3.get((type(peak), type(weight)))
    if terms is None:
        if isinstance(peak, QuadraticPeak):
            raise UnsupportedPairing(
                "quadratic peaks are covered by predict_thm1 with Fourier tail data")
        raise UnsupportedPairing(
            f"no closed form for peak {type(peak).__name__} with weight {type(weight).__name__}")
    decay, pref, term_p, term_m, tag = terms(peak, weight)
    ns = np.asarray(n, dtype=float)
    return _assemble(tag, ns, theta0, R, pref * ns**-decay, term_p + term_m,
                     {**peak.params(), **weight.params()},
                     vanish_scale=abs(term_p) + abs(term_m))


# ---------------------------------------------------------------------------
# reduction integrals
# ---------------------------------------------------------------------------

def oscillatory_J(profile, n):
    """The localized oscillatory integral

        J = integral_{I0} g(t) e^{-(n+3) F(t)} e^{i (n+1/2) t} dt

    over the peak neighborhood I0 = (theta0 - delta, theta0 + delta), on
    the peak grid with its panels halved once (the coefficient
    quadrature's level 1).  Mid-pipeline oracle: C~_n is approximately
    n^{-3/2} sqrt(2/pi) Re(e^{-i pi/4} J).
    """
    wavelength = 2.0 * math.pi / (n + 0.5)
    base = min(wavelength, profile.delta / 4.0) / 2.0
    floor_w = _graded_floor(profile, n) / 2.0
    lo = max(profile.theta0 - profile.delta, 1e-12)
    hi = min(profile.theta0 + profile.delta, math.pi - 1e-12)
    t, w = composite_nodes(peak_breakpoints(lo, hi, profile.theta0, base, floor_w))
    vals = profile.eval_g(t) * np.exp(-(n + 3.0) * profile.eval_F(t))
    return complex(np.sum(w * vals * np.exp(1j * (n + 0.5) * t)))


# ---------------------------------------------------------------------------
# ratio diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioReport:
    """Per-order comparison of a computed series against a prediction."""

    n: np.ndarray
    coeff: np.ndarray
    pred: np.ndarray
    ratio: np.ndarray
    masked: np.ndarray
    median_ratio: float
    residual_exponent: float
    mismatch: bool
    verdict: str

    def columns(self):
        return {"n": self.n, "coeff": self.coeff, "pred": self.pred, "ratio": self.ratio,
                "masked": np.asarray(self.masked, dtype=int)}

    def to_json_dict(self):
        return {"median_ratio": self.median_ratio, "residual_exponent": self.residual_exponent,
                "verdict": self.verdict}


def ratio_diagnostic(series, pred):
    """Per-order ratios of computed coefficients to a prediction.

    Orders where the predicted cosine is within ``PHASE_MASK_FRACTION`` of
    a zero are masked out (the ratio is ill-conditioned there); the median
    ratio and the fitted exponent of |ratio| against n are computed on the
    rest.  The report passes when the median lies in ``RATIO_PASS_WINDOW``.
    """
    lo = max(series.n_min, int(pred.n[0]))
    hi = min(series.n_max, int(pred.n[-1]))
    if lo > hi:
        raise ValueError("series and prediction do not overlap")
    s = series.window(lo, hi)
    sel = (pred.n >= lo) & (pred.n <= hi)
    pv = pred.values[sel]
    masked = pred.phase_mask()[sel]
    if not np.any(masked):
        raise EmptyAfterMasking("phase mask removed every order in the overlap")
    ratio = np.full(pv.shape, np.nan)
    nz = pv != 0
    ratio[nz] = s.values[nz] / pv[nz]
    good = masked & nz & np.isfinite(ratio)
    if not np.any(good):
        raise EmptyAfterMasking("no well-conditioned orders left")
    med = float(np.median(ratio[good]))
    pos = good & (np.abs(ratio) > 0)
    slope = 0.0
    if np.count_nonzero(pos) >= 2:
        slope = float(np.polyfit(np.log(s.n[pos]), np.log(np.abs(ratio[pos])), 1)[0])
    mism = not (RATIO_PASS_WINDOW[0] <= med <= RATIO_PASS_WINDOW[1])
    return RatioReport(
        n=s.n, coeff=s.values, pred=pv, ratio=ratio, masked=masked,
        median_ratio=med, residual_exponent=slope, mismatch=mism,
        verdict="mismatch" if mism else "pass",
    )
