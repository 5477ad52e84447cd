"""Empirical domain-of-convergence diagnostics.

The expansion converges for |z| > limsup |C_n|^{1/n}; the estimators here
work on the envelope of the oscillating coefficient sequence, taking
running maxima over octave windows [n, 2n] and then removing the slow
(log n)/n bias of the raw root statistic by fitting

    log max|C~| = n log(rho/R) + log K - gamma log n

over the window maxima.  A verdict of over-convergence on a synthetic
generic planet indicates a bug or a deliberate parameter coincidence:
convergence strictly below the Brillouin sphere requires the degenerate
cancellations that the closed-form predictors flag as vanishing.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import coeff_series

__all__ = [
    "RootTestResult",
    "root_test",
    "LimsupStat",
    "limsup_stat",
    "ConvergenceReport",
    "convergence_verdict",
    "verdict_from_series",
]

CONVERGES_AT_BRILLOUIN = "ConvergesExactlyAtBrillouin"
OVERCONVERGENCE = "OverconvergenceSuspected"
INCONCLUSIVE = "Inconclusive"

BRILLOUIN_BAND = 0.01      # rho within 1% of R counts as "at the sphere"
OVERCONV_BAND = 0.03       # rho below R by > 3% counts as suspicious
WINDOW_AGREE_BAND = 0.01   # two tail estimates must agree to 1%
TREND_SLOPE_BAND = 0.25
MIN_WINDOW_N = 64
#: the fewest orders (n_max) that give the root test its three octave windows
MIN_ROOT_TEST_N = 4 * MIN_WINDOW_N


def _octave_maxima(ns, vals):
    """(n_at_max, log max|val|) per octave window [hi/2, hi), oldest first.

    The newest window ends at the last order with a nonzero value, or at
    MIN_ROOT_TEST_N if that is later, and never beyond the last order: an
    underflowed tail of exact zeros gives no window of its own, and the
    windows are those of the series cut at that order."""
    out = []
    hi = int(ns[-1])
    nonzero = np.flatnonzero(vals)
    if nonzero.size:
        hi = min(hi, max(int(ns[nonzero[-1]]), MIN_ROOT_TEST_N))
    while hi >= MIN_WINDOW_N and len(out) < 8:
        lo = hi // 2
        m = (ns >= lo) & (ns < hi + (1 if not out else 0))
        if np.any(m):
            vv = np.abs(vals[m])
            j = int(np.argmax(vv))
            if vv[j] > 0:
                out.append((float(ns[m][j]), math.log(vv[j])))
        hi = lo
    return out[::-1]


def _fit_rho(windows, R):
    nn = np.array([w[0] for w in windows])
    yy = np.array([w[1] for w in windows])
    A = np.vstack([nn, np.ones_like(nn), np.log(nn)]).T
    coef, *_ = np.linalg.lstsq(A, yy, rcond=None)
    return R * math.exp(min(coef[0], 0.0)), coef


@dataclass(frozen=True)
class RootTestResult:
    rho_hat: float
    degenerate: bool
    windows: tuple
    gamma: float


def root_test(series):
    """Envelope-corrected root estimate of the convergence radius.

    A series with no nonzero value in any octave window returns rho 0 with
    the degenerate flag: a finite expansion, whether identically zero or,
    as a ball's, nonzero only below the first window.  Otherwise requires
    n_max >= MIN_ROOT_TEST_N and at least three windows with a nonzero
    value.
    """
    vals = series.values
    if series.n_max < MIN_ROOT_TEST_N and np.any(np.abs(vals) > 0):
        raise ValueError(f"root test needs n_max >= {MIN_ROOT_TEST_N}")
    windows = _octave_maxima(series.n, vals)
    if not windows:
        return RootTestResult(0.0, True, (), 0.0)
    if len(windows) < 3:
        raise ValueError("not enough octave windows for the root test")
    rho, coef = _fit_rho(windows, series.R)
    return RootTestResult(float(min(rho, series.R)), False, tuple(windows),
                          float(-coef[2]))


@dataclass(frozen=True)
class LimsupStat:
    beta_m: float
    window_centers: tuple
    window_maxima: tuple
    slope: float
    trend: str


def limsup_stat(series, beta_m):
    """Running window maxima of R^3 n^{3/2 + beta_m} |C~_n| and their trend.

    A flat positive trend means beta_m matches the envelope decay; the
    statistic diverges when beta_m is too large and dies when too small.
    """
    if beta_m <= 0:
        raise ValueError("beta_m must be positive")
    # the windows are taken without the factor R^3, which moves no trend
    # and overflows for R above about 5.6e102 (to inf, in the maxima only)
    windows = _octave_maxima(series.n, series.n.astype(float) ** (1.5 + beta_m)
                             * np.abs(series.values))
    if len(windows) < 2:
        return LimsupStat(beta_m, (), (), 0.0, INCONCLUSIVE)
    nn = np.array([w[0] for w in windows])
    yy = np.array([w[1] for w in windows])
    slope = float(np.polyfit(np.log(nn), yy, 1)[0])
    if slope > TREND_SLOPE_BAND:
        trend = "increasing"
    elif slope < -TREND_SLOPE_BAND:
        trend = "decaying"
    else:
        trend = "flat"
    R3 = series.R * series.R * series.R
    return LimsupStat(beta_m, tuple(nn.tolist()), tuple(R3 * math.exp(y) for y in yy),
                      slope, trend)


@dataclass(frozen=True)
class ConvergenceReport:
    rho_hat: float
    rho_check: float
    beta_m: float
    limsup_trend: str
    verdict: str
    n_range: tuple
    degenerate: bool = False

    def to_json_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = [
            "convergence verdict",
            f"  rho_hat      : {self.rho_hat:.6g}",
            f"  cross-check  : {self.rho_check:.6g}",
            f"  beta_m       : {self.beta_m:.6g}",
            f"  limsup trend : {self.limsup_trend}",
            f"  orders       : {self.n_range[0]}..{self.n_range[1]}",
            f"  verdict      : {self.verdict}",
        ]
        return "\n".join(lines)


def verdict_from_series(series, beta_m=None):
    """Convergence verdict for an already computed coefficient series.

    ``beta_m`` defaults to the envelope-fitted exponent (gamma - 3/2); an
    explicit value makes the limsup statistic a genuine two-sided check.
    The verdict is Inconclusive when the two tail estimates of rho disagree
    by more than 1% or there is not enough data (rho NaN).  A finite
    expansion (the root test's degenerate result) reports rho 0, the
    degenerate flag and OverconvergenceSuspected.
    """
    R = series.R
    try:
        rt = root_test(series)
    except ValueError:
        return ConvergenceReport(float("nan"), float("nan"), 0.0, INCONCLUSIVE,
                                 INCONCLUSIVE, (series.n_min, series.n_max))
    if rt.degenerate:
        return ConvergenceReport(0.0, 0.0, 0.0, "flat", OVERCONVERGENCE,
                                 (series.n_min, series.n_max), degenerate=True)
    windows = rt.windows
    if len(windows) >= 4:
        rho_check, _ = _fit_rho(windows[:-1], R)
        rho_check = min(rho_check, R)
    else:
        rho_check = rt.rho_hat
    disagree = abs(rt.rho_hat - rho_check) / R > WINDOW_AGREE_BAND

    if beta_m is None:
        beta_m = max(rt.gamma - 1.5, 0.5)
    ls = limsup_stat(series, beta_m)

    if disagree:
        verdict = INCONCLUSIVE
    elif rt.rho_hat >= R * (1.0 - BRILLOUIN_BAND) and ls.trend == "flat":
        verdict = CONVERGES_AT_BRILLOUIN
    elif rt.rho_hat < R * (1.0 - OVERCONV_BAND):
        verdict = OVERCONVERGENCE
    else:
        verdict = INCONCLUSIVE
    return ConvergenceReport(rt.rho_hat, rho_check, float(beta_m), ls.trend,
                             verdict, (series.n_min, series.n_max))


def convergence_verdict(profile, n_max, tol=1e-10):
    """Compute the coefficient series of orders 1..n_max and classify where
    it converges."""
    return verdict_from_series(coeff_series(profile, 1, n_max, tol))
