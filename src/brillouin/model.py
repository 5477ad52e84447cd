"""Synthetic generic planets with controlled regularity at the highest peak.

A planet is described by its Brillouin radius R, the colatitude theta0 of
the unique highest peak, a peak shape fixing the local behavior of the
log-radius deficit F (r_M(theta) = R e^{-F(theta)}, F(theta0) = 0), and a
surface weight fixing g(theta) = sqrt(sin theta) * v(r_M(theta), theta),
the quantity that controls the large-order coefficient asymptotics.

Peak and weight callables take the offset x = theta - theta0.  All radii
are normalized so R = 1 internally; raw units are recovered through the
R^(n+3) scaling applied on output.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BrillouinError, ParameterError
from .legendre import legendre_eval
from .spectral import appendix_function, default_taper

__all__ = [
    "RejectNonGeneric",
    "RejectDomain",
    "QuadraticPeak",
    "PowerCusp",
    "PowerC1",
    "SmoothPowerWeight",
    "TwoSidedCuspWeight",
    "C1MixedWeight",
    "FourierTailWeight",
    "PlanetSpec",
    "PlanetProfile",
    "build_profile",
    "point_mass_planet",
    "homogeneous_ball",
    "PointMassPlanet",
    "HomogeneousBall",
]

THETA_DOMAIN_TOL = 1e-9
SECOND_MAX_TOL = 1e-12


class RejectNonGeneric(BrillouinError):
    """The shape violates the single-highest-peak (genericity) assumptions."""


class RejectDomain(BrillouinError):
    """theta0 is excluded: it must avoid 0, pi/2 and pi."""


def _as_x(x):
    return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# peak shapes: local models for F near its zero
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticPeak:
    """Smooth peak: F(x) = c x^2 + h(x), with remainder h = O(|x|^beta), beta > 2."""

    c: float
    beta: float = 4.0
    remainder: Optional[Callable] = None

    variant = "quadratic"
    derivative_count = 2

    def __post_init__(self):
        if self.c <= 0:
            raise ParameterError("c", "curvature c must be positive")
        if self.beta <= 2:
            raise ParameterError("beta", "remainder order beta must exceed 2")

    def evaluate(self, x):
        x = _as_x(x)
        out = self.c * x * x
        if self.remainder is not None:
            out = out + self.remainder(x)
        return out

    def peak_scale(self, n, level=1.0):
        """Offset where (n + 3) * F reaches ``level`` (leading term)."""
        return math.sqrt(level / ((n + 3) * self.c))

    def params(self):
        return {"variant": self.variant, "c": self.c, "beta": self.beta}


@dataclass(frozen=True)
class PowerCusp:
    """Continuous, non-differentiable peak: F(x) = a_pm |x|^alpha + O(|x|^beta),
    alpha in (0, 1], with one-sided slopes a_minus (x < 0) and a_plus (x > 0)."""

    alpha: float
    a_minus: float
    a_plus: float
    beta: Optional[float] = None
    remainder: Optional[Callable] = None

    variant = "power_cusp"
    derivative_count = 0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError("alpha", "alpha must lie in (0, 1]")
        if self.a_minus <= 0 or self.a_plus <= 0:
            raise ParameterError("a_minus" if self.a_minus <= 0 else "a_plus",
                                 "one-sided coefficients must be positive")
        if self.remainder is not None and (self.beta is None or self.beta <= self.alpha):
            raise ParameterError("beta", "remainder order beta must exceed alpha")

    def evaluate(self, x):
        x = _as_x(x)
        a = np.where(x >= 0, self.a_plus, self.a_minus)
        out = a * np.abs(x) ** self.alpha
        if self.remainder is not None:
            out = out + self.remainder(x)
        return out

    def peak_scale(self, n, level=1.0):
        a = min(self.a_minus, self.a_plus)
        return (level / ((n + 3) * a)) ** (1.0 / self.alpha)

    def params(self):
        return {
            "variant": self.variant,
            "alpha": self.alpha,
            "a_minus": self.a_minus,
            "a_plus": self.a_plus,
            "beta": self.beta,
        }


@dataclass(frozen=True)
class PowerC1:
    """Once-differentiable peak: F(x) = a_pm |x|^alpha exactly near the peak,
    alpha in (1, 2]."""

    alpha: float
    a_minus: float
    a_plus: float

    variant = "power_c1"
    derivative_count = 1

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ParameterError("alpha", "alpha must lie in (1, 2]")
        if self.a_minus <= 0 or self.a_plus <= 0:
            raise ParameterError("a_minus" if self.a_minus <= 0 else "a_plus",
                                 "one-sided coefficients must be positive")

    def evaluate(self, x):
        x = _as_x(x)
        a = np.where(x >= 0, self.a_plus, self.a_minus)
        return a * np.abs(x) ** self.alpha

    def peak_scale(self, n, level=1.0):
        a = min(self.a_minus, self.a_plus)
        return (level / ((n + 3) * a)) ** (1.0 / self.alpha)

    def params(self):
        return {
            "variant": self.variant,
            "alpha": self.alpha,
            "a_minus": self.a_minus,
            "a_plus": self.a_plus,
        }


# ---------------------------------------------------------------------------
# surface weights: local models for g near theta0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothPowerWeight:
    """g(x) = g_k x^k (1 + correction(x)), integer k >= 1, correction(0) = 0."""

    k: int
    g_k: float
    correction: Optional[Callable] = None

    variant = "smooth_power"

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ParameterError("k", "k must be an integer >= 1")
        if self.g_k == 0:
            raise ParameterError("g_k", "g_k must be nonzero")

    def evaluate(self, x):
        x = _as_x(x)
        out = self.g_k * x ** int(self.k)
        if self.correction is not None:
            out = out * (1.0 + self.correction(x))
        return out

    def params(self):
        return {"variant": self.variant, "k": int(self.k), "g_k": self.g_k}


@dataclass(frozen=True)
class TwoSidedCuspWeight:
    """g(x) = (1 + correction(x)) * (g_plus |x|^k for x > 0, g_minus |x|^k for x < 0),
    real k >= 1, g_plus and g_minus not both zero."""

    k: float
    g_plus: float
    g_minus: float
    correction: Optional[Callable] = None

    variant = "two_sided_cusp"

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k", "k must be >= 1")
        if self.g_plus == 0 and self.g_minus == 0:
            raise ParameterError("g_plus", "g_plus and g_minus must not both vanish")

    def evaluate(self, x):
        x = _as_x(x)
        g = np.where(x >= 0, self.g_plus, self.g_minus)
        out = g * np.abs(x) ** self.k
        if self.correction is not None:
            out = out * (1.0 + self.correction(x))
        return out

    def params(self):
        return {
            "variant": self.variant,
            "k": self.k,
            "g_plus": self.g_plus,
            "g_minus": self.g_minus,
        }


@dataclass(frozen=True)
class C1MixedWeight:
    """g(x) = g1 x + g_pm |x|^alpha, alpha in (1, 2]; pairs with PowerC1 peaks
    of the same alpha."""

    g1: float
    g_plus: float
    g_minus: float
    alpha: float

    variant = "c1_mixed"

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ParameterError("alpha", "alpha must lie in (1, 2]")

    def evaluate(self, x):
        x = _as_x(x)
        g = np.where(x >= 0, self.g_plus, self.g_minus)
        return self.g1 * x + g * np.abs(x) ** self.alpha

    def params(self):
        return {
            "variant": self.variant,
            "g1": self.g1,
            "g_plus": self.g_plus,
            "g_minus": self.g_minus,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class FourierTailWeight:
    """Compactly supported cusp profile |x|^(beta0 - 1) P(x) cutoff(x) whose
    transform has an exact power-law tail of exponent beta0 > 1.

    The polynomial taper P has P(0) = 1 and vanishes at +-eps to an order
    above beta0, which suppresses boundary oscillations below the cusp's
    k^(-beta0) tail.
    """

    beta0: float
    eps: float
    taper_order: Optional[int] = None

    variant = "fourier_tail"

    def __post_init__(self):
        if self.beta0 <= 1:
            raise ParameterError("beta0", "beta0 must exceed 1")
        if self.eps <= 0:
            raise ParameterError("eps", "eps must be positive")
        order = self.taper_order
        if order is not None and order <= self.beta0:
            raise ParameterError("taper_order", "taper order must exceed beta0")

    def tail_profile(self):
        """The underlying compact profile with declared support and
        singularity, as consumed by the transform machinery."""
        taper = default_taper(self.beta0, self.eps, self.taper_order)
        return appendix_function(self.beta0, self.eps, taper)

    def evaluate(self, x):
        return self.tail_profile()(_as_x(x))

    def params(self):
        return {
            "variant": self.variant,
            "beta0": self.beta0,
            "eps": self.eps,
            "taper_order": self.taper_order,
        }


# ---------------------------------------------------------------------------
# planet specification and profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanetSpec:
    """Everything needed to build a synthetic planet.

    r_m may be None (defaults to r_M(theta) / 2), a positive constant, or a
    callable of theta.  v may be None, in which case the density column is
    constant in r and chosen so that sqrt(sin theta) v(r_M, theta)
    reproduces the surface weight exactly; a callable v(r, theta) overrides
    the weight for everything except predictor dispatch.
    """

    R: float
    theta0: float
    peak: object
    weight: Optional[object] = None
    delta: float = 0.5
    delta1: float = 0.05
    r_m: object = None
    v: Optional[Callable] = None
    G: float = 1.0

    def __post_init__(self):
        if self.R <= 0:
            raise ParameterError("R", "Brillouin radius must be positive")
        if not (0.0 < self.theta0 < math.pi):
            raise RejectDomain("theta0 must lie in (0, pi)")
        if self.delta <= 0 or self.delta1 <= 0:
            raise ParameterError("delta" if self.delta <= 0 else "delta1",
                                 "delta and delta1 must be positive")
        if self.weight is None and self.v is None:
            raise ParameterError("weight", "provide a surface weight or an explicit density column v")

    def to_dict(self):
        """Serializable parameter record; rejects callable-bearing specs."""
        for name in ("r_m", "v"):
            val = getattr(self, name)
            if callable(val):
                raise ValueError(f"{name} is a callable; not serializable")
        for shape in (self.peak, self.weight):
            if shape is not None and getattr(shape, "correction", None) is not None:
                raise ValueError("shape corrections are callables; not serializable")
            if shape is not None and getattr(shape, "remainder", None) is not None:
                raise ValueError("shape remainders are callables; not serializable")
        d = {
            "schema_version": 1,
            "kind": "profile",
            "R": self.R,
            "theta0": self.theta0,
            "peak": self.peak.params(),
            "delta": self.delta,
            "delta1": self.delta1,
            "G": self.G,
        }
        if self.weight is not None:
            d["weight"] = self.weight.params()
        if self.r_m is not None:
            d["r_m"] = float(self.r_m)
        return d

    @staticmethod
    def from_dict(d):
        with ParameterError.within("peak"):
            peak = _peak_from_params(d["peak"])
        with ParameterError.within("weight"):
            weight = _weight_from_params(d["weight"]) if "weight" in d else None
        return PlanetSpec(
            R=float(d["R"]),
            theta0=float(d["theta0"]),
            peak=peak,
            weight=weight,
            delta=float(d.get("delta", 0.5)),
            delta1=float(d.get("delta1", 0.05)),
            r_m=d.get("r_m"),
            G=float(d.get("G", 1.0)),
        )

    def fingerprint(self):
        return _fingerprint_payload(self._payload())

    def _payload(self):
        try:
            return self.to_dict()
        except ValueError:
            # callables cannot round-trip; fall back to their qualified names
            def label(obj):
                if obj is None:
                    return None
                if callable(obj):
                    return getattr(obj, "__qualname__", repr(obj.__class__))
                return obj

            return {
                "kind": "profile-callable",
                "R": self.R,
                "theta0": self.theta0,
                "peak": {**self.peak.params(), "remainder": label(getattr(self.peak, "remainder", None))},
                "weight": None if self.weight is None else self.weight.params(),
                "delta": self.delta,
                "delta1": self.delta1,
                "r_m": label(self.r_m),
                "v": label(self.v),
                "G": self.G,
            }


def _peak_from_params(p):
    variant = p["variant"]
    if variant == "quadratic":
        return QuadraticPeak(c=float(p["c"]), beta=float(p.get("beta", 4.0)))
    if variant == "power_cusp":
        return PowerCusp(alpha=float(p["alpha"]), a_minus=float(p["a_minus"]),
                         a_plus=float(p["a_plus"]),
                         beta=None if p.get("beta") is None else float(p["beta"]))
    if variant == "power_c1":
        return PowerC1(alpha=float(p["alpha"]), a_minus=float(p["a_minus"]),
                       a_plus=float(p["a_plus"]))
    raise ValueError(f"unknown peak variant {variant!r}")


def _weight_from_params(p):
    variant = p["variant"]
    if variant == "smooth_power":
        return SmoothPowerWeight(k=int(p["k"]), g_k=float(p["g_k"]))
    if variant == "two_sided_cusp":
        return TwoSidedCuspWeight(k=float(p["k"]), g_plus=float(p["g_plus"]),
                                  g_minus=float(p["g_minus"]))
    if variant == "c1_mixed":
        return C1MixedWeight(g1=float(p["g1"]), g_plus=float(p["g_plus"]),
                             g_minus=float(p["g_minus"]), alpha=float(p["alpha"]))
    if variant == "fourier_tail":
        return FourierTailWeight(beta0=float(p["beta0"]), eps=float(p["eps"]),
                                 taper_order=p.get("taper_order"))
    raise ValueError(f"unknown weight variant {variant!r}")


def _fingerprint_payload(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()


class PlanetProfile:
    """Immutable evaluated planet: exposes F, g, r_M, v and bookkeeping.

    Construction happens once in :func:`build_profile`; afterwards all
    evaluations are pure, so profiles may be shared freely across workers.
    """

    __slots__ = (
        "spec", "R", "theta0", "delta", "delta1", "G",
        "_peak", "_weight", "_rm", "_v", "radial_constant", "vmax", "fingerprint",
    )

    def __init__(self, spec, rm_callable, v_callable, radial_constant, vmax):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "R", spec.R)
        object.__setattr__(self, "theta0", spec.theta0)
        object.__setattr__(self, "delta", spec.delta)
        object.__setattr__(self, "delta1", spec.delta1)
        object.__setattr__(self, "G", spec.G)
        object.__setattr__(self, "_peak", spec.peak)
        object.__setattr__(self, "_weight", spec.weight)
        object.__setattr__(self, "_rm", rm_callable)
        object.__setattr__(self, "_v", v_callable)
        object.__setattr__(self, "radial_constant", radial_constant)
        object.__setattr__(self, "vmax", vmax)
        object.__setattr__(self, "fingerprint", spec.fingerprint())

    def __setattr__(self, name, value):
        raise AttributeError("PlanetProfile is immutable")

    @property
    def peak(self):
        return self._peak

    @property
    def weight(self):
        return self._weight

    def eval_F(self, theta):
        return self._peak.evaluate(np.asarray(theta, dtype=float) - self.theta0)

    def eval_rM(self, theta):
        return self.R * np.exp(-self.eval_F(theta))

    def eval_g(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self._weight is not None and self.spec.v is None:
            return self._weight.evaluate(theta - self.theta0)
        return np.sqrt(np.sin(theta)) * self._v(self.eval_rM(theta), theta)

    def eval_v(self, r, theta):
        return self._v(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))

    def eval_rm(self, theta):
        return self._rm(np.asarray(theta, dtype=float))

    def eval_L(self, theta):
        """log(r_M / r_m), the depth of the radial column in the s variable."""
        return np.log(self.eval_rM(theta) / self.eval_rm(theta))

    def peak_scale(self, n, level=1.0):
        return self._peak.peak_scale(n, level)


def build_profile(spec, grid_points=20001):
    """Validate a planet specification and return its evaluated profile.

    Checks on a dense colatitude grid that F vanishes only at theta0, that
    it exceeds delta1 outside the peak neighborhood (a competing global
    maximum of r_M raises :class:`RejectNonGeneric`), that the inner radius
    stays strictly inside the surface, and that declared remainder orders
    are numerically consistent at three scales.
    """
    for bad, name in ((0.0, "0"), (math.pi / 2.0, "pi/2"), (math.pi, "pi")):
        if abs(spec.theta0 - bad) < THETA_DOMAIN_TOL:
            raise RejectDomain(f"theta0 may not equal {name}")

    peak = spec.peak
    f0 = float(peak.evaluate(0.0))
    if f0 != 0.0:
        raise RejectNonGeneric(f"F(theta0) = {f0!r}, expected exactly 0")

    thetas = np.linspace(0.0, math.pi, grid_points)
    x = thetas - spec.theta0
    F = peak.evaluate(x)
    if np.any(F < 0):
        raise RejectNonGeneric("F must be nonnegative")
    outside = np.abs(x) >= spec.delta
    if np.any(F[outside] <= spec.delta1):
        low = F[outside].min()
        if low <= SECOND_MAX_TOL:
            raise RejectNonGeneric(
                "second global maximum of r_M detected away from theta0"
            )
        raise RejectNonGeneric(
            f"F dips to {low:.3e} <= delta1={spec.delta1} outside the peak neighborhood"
        )
    inside = (np.abs(x) < spec.delta) & (np.abs(x) > 0)
    if np.any(F[inside] <= 0.0):
        raise RejectNonGeneric("F must be strictly positive away from theta0")

    _check_declared_order(getattr(peak, "remainder", None), getattr(peak, "beta", None),
                          "peak remainder")
    wt = spec.weight
    if wt is not None:
        corr = getattr(wt, "correction", None)
        if corr is not None and abs(float(corr(0.0))) > 1e-10:
            raise RejectNonGeneric("weight correction must vanish at the peak")

    # inner radius: default half the surface radius, pointwise
    rM = spec.R * np.exp(-F)
    if spec.r_m is None:
        def rm_callable(theta, _spec=spec):
            return 0.5 * _spec.R * np.exp(-_spec.peak.evaluate(
                np.asarray(theta, dtype=float) - _spec.theta0))
    elif callable(spec.r_m):
        rm_callable = spec.r_m
    else:
        rm_const = float(spec.r_m)

        def rm_callable(theta, _c=rm_const):
            return np.full_like(np.asarray(theta, dtype=float), _c)

    rm = np.asarray(rm_callable(thetas), dtype=float)
    if np.any(rm <= 0) or np.any(rm >= rM):
        raise RejectNonGeneric("need 0 < r_m(theta) < r_M(theta) everywhere")

    if spec.v is not None:
        v_callable = spec.v
        radial_constant = False
        mask = (thetas > 1e-3) & (thetas < math.pi - 1e-3)
        vmax = 0.0
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            r_probe = rm[mask] + t * (rM[mask] - rm[mask])
            vmax = max(vmax, float(np.max(np.abs(v_callable(r_probe, thetas[mask])))))
    else:
        weight = spec.weight

        def v_callable(r, theta, _w=weight, _t0=spec.theta0):
            theta = np.asarray(theta, dtype=float)
            g = _w.evaluate(theta - _t0)
            return g / np.sqrt(np.sin(theta))

        radial_constant = True
        interior = thetas[(thetas > 1e-4) & (thetas < math.pi - 1e-4)]
        vmax = float(np.max(np.abs(weight.evaluate(interior - spec.theta0))
                            / np.sqrt(np.sin(interior))))

    return PlanetProfile(spec, rm_callable, v_callable, radial_constant, vmax)


def _check_declared_order(h, beta, label, scales=(1e-2, 1e-3, 1e-4)):
    """Reject remainders that decay slower than their declared O(|x|^beta):
    the measured |h| / |x|^beta must not grow by more than a factor of 10
    from the largest probe scale to the smallest.  Faster decay is fine."""
    if h is None or beta is None:
        return
    qs = [max(abs(float(h(s))), abs(float(h(-s)))) / s**beta for s in scales]
    if qs[0] == 0.0 and max(qs) > 0.0:
        raise RejectNonGeneric(f"{label}: declared order {beta} inconsistent across scales")
    if qs[0] > 0.0 and max(qs) / qs[0] > 10.0:
        raise RejectNonGeneric(
            f"{label}: measured order grows {max(qs) / qs[0]:.1f}x above the declared "
            f"O(|x|^{beta}) from scale {scales[0]} down to {scales[-1]}"
        )


# ---------------------------------------------------------------------------
# closed-form oracle planets
# ---------------------------------------------------------------------------

class PointMassPlanet:
    """Point mass m at radius r0, colatitude theta_p, inside a reference
    Brillouin sphere of radius R.  Coefficients and potential are closed
    form; the expansion converges down to |z| = r0 < R."""

    __slots__ = ("r0", "theta_p", "m", "R", "G", "fingerprint")

    def __init__(self, r0, theta_p, m, R=1.0, G=1.0):
        if r0 <= 0:
            raise ParameterError("r0", "r0 must be positive")
        if r0 >= R:
            raise ParameterError("r0", "the mass must sit strictly inside the reference sphere")
        object.__setattr__(self, "r0", float(r0))
        object.__setattr__(self, "theta_p", float(theta_p))
        object.__setattr__(self, "m", float(m))
        object.__setattr__(self, "R", float(R))
        object.__setattr__(self, "G", float(G))
        object.__setattr__(self, "fingerprint", _fingerprint_payload({
            "kind": "point_mass", "r0": float(r0), "theta_p": float(theta_p),
            "m": float(m), "R": float(R), "G": float(G),
        }))

    def __setattr__(self, name, value):
        raise AttributeError("PointMassPlanet is immutable")

    def closed_coeff_scaled(self, n):
        """C_n R^-(n+3) with C_n = -G m r0^n P_n(cos theta_p)."""
        ratio = self.r0 / self.R
        pn = legendre_eval(n, math.cos(self.theta_p))
        return -self.G * self.m * ratio**n * pn / self.R**3

    def closed_coeff_series(self, n_min, n_max):
        """``closed_coeff_scaled(n)`` for n = n_min..n_max from one scalar
        Legendre recurrence pass over 0..n_max."""
        ratio = self.r0 / self.R
        x = math.cos(self.theta_p)
        p_prev, p = 0.0, 1.0
        out = []
        for n in range(n_max + 1):
            if n >= n_min:
                out.append(-self.G * self.m * ratio**n * p / self.R**3)
            p, p_prev = ((2 * n + 1) * x * p - n * p_prev) / (n + 1), p
        return np.array(out)

    def closed_potential(self, z):
        d2 = z * z - 2.0 * z * self.r0 * math.cos(self.theta_p) + self.r0**2
        return -self.G * self.m / math.sqrt(d2)


class HomogeneousBall:
    """Homogeneous ball of radius R_b and density rho0 centered at the origin.
    All coefficients beyond n = 0 vanish by orthogonality."""

    __slots__ = ("R_b", "rho0", "R", "G", "fingerprint")

    def __init__(self, R_b, rho0, G=1.0, R=None):
        if R_b <= 0 or rho0 <= 0:
            raise ParameterError("R_b" if R_b <= 0 else "rho0",
                                 "radius and density must be positive")
        object.__setattr__(self, "R_b", float(R_b))
        object.__setattr__(self, "rho0", float(rho0))
        object.__setattr__(self, "R", float(R if R is not None else R_b))
        object.__setattr__(self, "G", float(G))
        object.__setattr__(self, "fingerprint", _fingerprint_payload({
            "kind": "ball", "R_b": float(R_b), "rho0": float(rho0), "G": float(G),
        }))

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousBall is immutable")

    @property
    def mass(self):
        return 4.0 * math.pi / 3.0 * self.rho0 * self.R_b**3

    def closed_coeff_scaled(self, n):
        if n == 0:
            return -self.G * self.mass / self.R**3
        return 0.0

    def closed_coeff_series(self, n_min, n_max):
        """``closed_coeff_scaled(n)`` for n = n_min..n_max."""
        return np.array([self.closed_coeff_scaled(n) for n in range(n_min, n_max + 1)])

    def closed_potential(self, z):
        return -self.G * self.mass / z


def point_mass_planet(r0, theta_p, m, R=1.0, G=1.0):
    """Closed-form oracle: point mass at (r0, theta_p) with mass m."""
    return PointMassPlanet(r0, theta_p, m, R=R, G=G)


def homogeneous_ball(R_b, rho0, G=1.0):
    """Closed-form oracle: homogeneous ball; only the n = 0 coefficient survives."""
    return HomogeneousBall(R_b, rho0, G=G)
