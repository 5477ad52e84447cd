"""Synthetic generic planets with controlled regularity at the highest peak.

A planet is described by its Brillouin radius R, the colatitude theta0 of
the unique highest peak, a peak shape fixing the local behavior of the
log-radius deficit F (r_M(theta) = R e^{-F(theta)}, F(theta0) = 0), and a
surface weight fixing g(theta) = sqrt(sin theta) * v(r_M(theta), theta),
the quantity that controls the large-order coefficient asymptotics.

Peak and weight callables take the offset x = theta - theta0.  All radii
are normalized so R = 1 internally; raw units are recovered through the
R^(n+3) scaling applied on output.

The cusp (alpha in (0, 1]) and once-differentiable (alpha in (1, 2]) peaks
are one one-sided power law a_pm |x|^alpha over two alpha ranges; the
two-sided cusp and mixed C1 weights use the same law.  A PlanetSpec has
one parameter record: ``to_dict`` returns it and refuses a callable,
``fingerprint`` hashes it with each callable given by its qualified name.
"""

import hashlib
import json
import math
from dataclasses import MISSING, InitVar, asdict, dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, Optional, get_args

import numpy as np

from .errors import BrillouinError, ParameterError
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
    "as_number",
    "as_integer",
    "as_complex",
    "as_given",
    "value_kind",
    "read_mapping",
    "MANDATORY",
    "SCHEMA_VERSION",
    "PEAKS",
    "WEIGHTS",
    "PLANETS",
    "planet_from_config",
]

THETA_DOMAIN_TOL = 1e-9
SECOND_MAX_TOL = 1e-12


class RejectNonGeneric(BrillouinError):
    """The shape violates the single-highest-peak (genericity) assumptions;
    ``field`` names the planet parameter at fault."""

    def __init__(self, message, field="peak"):
        super().__init__(message)
        self.field = field


class RejectDomain(BrillouinError):
    """theta0 is excluded: it must avoid 0, pi/2 and pi."""

    field = "theta0"


def _as_x(x):
    return np.asarray(x, dtype=float)


def _finite(raw, *parts):
    """Raise ValueError for a boolean ``raw`` or a non-finite part."""
    if isinstance(raw, bool) or not all(map(math.isfinite, parts)):
        raise ValueError(f"{raw!r} is not a finite number")


def as_number(raw):
    """``float(raw)`` for a finite number, also one given as a string (YAML
    1.1 reads ``1e-3`` as a string)."""
    value = float(raw)
    _finite(raw, value)
    return value


def as_integer(raw):
    """``int(raw)`` for an integral ``raw`` (2, 2.0 or "2"); a fraction such
    as 2.5 raises ValueError rather than being truncated."""
    value = int(raw)
    if value != as_number(raw):
        raise ValueError(f"{raw!r} is not an integer")
    return value


def as_complex(raw):
    """``complex(raw)`` for a complex number with finite parts, also one
    given as a number or a string such as ``1-2j``."""
    value = complex(raw)
    _finite(raw, value.real, value.imag)
    return value


#: the default of a mandatory config key
MANDATORY = object()


def as_given(raw):
    """``raw`` itself: the conversion of a value that a test alone checks."""
    return raw


def _join(path, key):
    """The field path of ``key`` below ``path``: ``path.key``, or ``key`` at
    the root (``path`` empty)."""
    return f"{path}.{key}" if path else key


def value_kind(convert, what, test=None):
    """The kind that reads one config value: ``read(raw, path)`` is
    ``convert(raw)``, which must pass ``test``.  A value that ``convert``
    rejects (TypeError, ValueError or OverflowError) or that fails ``test``
    raises ParameterError(path, "must be <what>, got <raw>")."""
    def read(raw, path):
        try:
            value = convert(raw)
            ok = test is None or test(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ParameterError(path, f"must be {what}, got {raw!r}")
        return value
    return read


NUMBER = value_kind(as_number, "a finite number")
INTEGER = value_kind(as_integer, "an integer")
ANY = value_kind(as_given, "")
#: the kind of a config's or a planet record's schema_version: the integer 1
SCHEMA_VERSION = value_kind(as_integer, "1", lambda v: v == 1)
_MAPPING = value_kind(as_given, "a mapping", lambda raw: isinstance(raw, dict))


def read_mapping(raw, table, path, build):
    """``build(**values)`` for the config mapping ``raw`` at the field path
    ``path``, read by the one rule set of every config section and planet
    part.  ``table`` gives each key its kind and its default: ``values[key]``
    is ``kind(raw[key])``, or, for a key that is absent or null, ``kind``
    of its default (None stays None).  A key outside ``table``, a missing
    key whose default is MANDATORY, or a value its kind rejects raises
    ParameterError with the key's field path; so does a ParameterError or
    RejectDomain that ``build`` raises, its field put below ``path``."""
    _MAPPING(raw, path)
    for key in raw:
        if key not in table:
            raise ParameterError(_join(path, key), "unknown key")
    values = {}
    for key, (read, default) in table.items():
        value = default if raw.get(key) is None else raw[key]
        if value is MANDATORY:
            raise ParameterError(_join(path, key), "is mandatory")
        values[key] = None if value is None else read(value, _join(path, key))
    try:
        return build(**values)
    except (ParameterError, RejectDomain) as exc:
        raise ParameterError(_join(path, exc.field), str(exc)) from None


def _variant(registry, tag):
    """The kind that reads a mapping as the class that its ``tag`` key
    names in ``registry``: its other keys are those of the class's
    ``config_table``."""
    name = value_kind(as_given, f"one of {sorted(registry)}",
                      lambda raw: isinstance(raw, str) and raw in registry)

    def read(raw, path):
        cls = registry[name(_MAPPING(raw, path).get(tag), _join(path, tag))]
        return read_mapping({key: v for key, v in raw.items() if key != tag}, cls.config_table,
                            path, cls)
    return read


def _config_dataclass(cls):
    """``dataclass(frozen=True)`` that also records ``cls.config_table``,
    the config keys of :func:`read_mapping`: one per field or init-only
    field that is not a callable.  A key's kind is its field's ``kind``
    metadata, or follows the annotation: ``int`` and ``Optional[int]`` read
    an integer (:func:`as_integer`), anything else a finite number
    (:func:`as_number`).  Its default is the field's; a field without one
    is mandatory unless its annotation is Optional (default None)."""
    cls = dataclass(frozen=True)(cls)
    cls.config_table = {
        f.name: (f.metadata.get("kind", INTEGER if f.type in (int, Optional[int]) else NUMBER),
                 f.default if f.default is not MISSING
                 else None if type(None) in get_args(f.type) else MANDATORY)
        for f in cls.__dataclass_fields__.values() if Callable not in (f.type, *get_args(f.type))}
    return cls


class _Shape:
    """Base of the peak shapes and surface weights; their config keys and
    :meth:`params` follow ``config_table``."""

    def params(self):
        """The serializable parameter record (callables left out); an int
        field is recorded as an int."""
        return {"variant": self.variant,
                **{name: int(value) if read is INTEGER and value is not None else value
                   for name, (read, _) in self.config_table.items()
                   for value in (getattr(self, name),)}}


# ---------------------------------------------------------------------------
# peak shapes: local models for F near its zero
# ---------------------------------------------------------------------------

@_config_dataclass
class QuadraticPeak(_Shape):
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


def _one_sided(x, minus, plus, power):
    """The one-sided power law: ``minus |x|^power`` for x < 0 and ``plus
    |x|^power`` for x >= 0."""
    return np.where(x >= 0, plus, minus) * np.abs(x) ** power


def _check_alpha(alpha, lo, hi):
    if not lo < alpha <= hi:
        raise ParameterError("alpha", f"alpha must lie in ({lo:g}, {hi:g}]")


@dataclass(frozen=True)
class _PowerPeak(_Shape):
    """Base of the power-law peaks: F(x) = a_pm |x|^alpha (a_minus for x < 0,
    a_plus for x > 0), plus the remainder where the class has one, with
    alpha in the class's ``alpha_range`` (lo, hi]."""

    alpha: float
    a_minus: float
    a_plus: float

    remainder = None  # a field of PowerCusp; PowerC1 has none

    def __post_init__(self):
        _check_alpha(self.alpha, *self.alpha_range)
        if self.a_minus <= 0 or self.a_plus <= 0:
            raise ParameterError("a_minus" if self.a_minus <= 0 else "a_plus",
                                 "one-sided coefficients must be positive")

    def evaluate(self, x):
        x = _as_x(x)
        out = _one_sided(x, self.a_minus, self.a_plus, self.alpha)
        if self.remainder is not None:
            out = out + self.remainder(x)
        return out

    def peak_scale(self, n, level=1.0):
        a = min(self.a_minus, self.a_plus)
        return (level / ((n + 3) * a)) ** (1.0 / self.alpha)


@_config_dataclass
class PowerCusp(_PowerPeak):
    """Continuous, non-differentiable peak: F(x) = a_pm |x|^alpha + O(|x|^beta),
    alpha in (0, 1]."""

    beta: Optional[float] = None
    remainder: Optional[Callable] = None

    variant = "power_cusp"
    derivative_count = 0
    alpha_range = (0.0, 1.0)

    def __post_init__(self):
        super().__post_init__()
        if self.remainder is not None and (self.beta is None or self.beta <= self.alpha):
            raise ParameterError("beta", "remainder order beta must exceed alpha")


@_config_dataclass
class PowerC1(_PowerPeak):
    """Once-differentiable peak: F(x) = a_pm |x|^alpha exactly near the peak,
    alpha in (1, 2]."""

    variant = "power_c1"
    derivative_count = 1
    alpha_range = (1.0, 2.0)


# ---------------------------------------------------------------------------
# surface weights: local models for g near theta0
# ---------------------------------------------------------------------------

@_config_dataclass
class SmoothPowerWeight(_Shape):
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


@_config_dataclass
class TwoSidedCuspWeight(_Shape):
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
        out = _one_sided(x, self.g_minus, self.g_plus, self.k)
        if self.correction is not None:
            out = out * (1.0 + self.correction(x))
        return out


@_config_dataclass
class C1MixedWeight(_Shape):
    """g(x) = g1 x + g_pm |x|^alpha, alpha in (1, 2]; pairs with PowerC1 peaks
    of the same alpha."""

    g1: float
    g_plus: float
    g_minus: float
    alpha: float

    variant = "c1_mixed"

    def __post_init__(self):
        _check_alpha(self.alpha, *PowerC1.alpha_range)

    def evaluate(self, x):
        x = _as_x(x)
        return self.g1 * x + _one_sided(x, self.g_minus, self.g_plus, self.alpha)


@_config_dataclass
class FourierTailWeight(_Shape):
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
        if self.eps >= math.pi:
            # the weight's argument theta - theta0 lies inside (-pi, pi), and
            # so must the support (-eps, eps) the transform rules are sized for
            raise ParameterError("eps", "eps must be below pi")
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


#: the peak shapes and the surface weights by ``variant``
PEAKS = {cls.variant: cls for cls in (QuadraticPeak, PowerCusp, PowerC1)}
WEIGHTS = {cls.variant: cls for cls in (SmoothPowerWeight, TwoSidedCuspWeight, C1MixedWeight,
                                        FourierTailWeight)}


# ---------------------------------------------------------------------------
# planet specification and profile
# ---------------------------------------------------------------------------

@_config_dataclass
class PlanetSpec:
    """Everything needed to build a synthetic planet.

    r_m may be None (defaults to r_M(theta) / 2), a positive constant, or a
    callable of theta.  v may be None, in which case the density column is
    constant in r and chosen so that sqrt(sin theta) v(r_M, theta)
    reproduces the surface weight exactly; a callable v(r, theta) overrides
    the weight for everything except predictor dispatch.
    """

    R: float = field(default=1.0, kw_only=True)
    theta0: float
    peak: object = field(metadata={"kind": _variant(PEAKS, "variant")})
    weight: Optional[object] = field(default=None,
                                     metadata={"kind": _variant(WEIGHTS, "variant")})
    delta: float = 0.5
    delta1: float = 0.05
    r_m: object = None
    v: Optional[Callable] = None
    G: float = 1.0
    #: a config or to_dict record may give the schema version; it is
    #: checked, not kept
    schema_version: InitVar[Optional[int]] = field(default=None,
                                                   metadata={"kind": SCHEMA_VERSION})

    kind = "profile"

    def __post_init__(self, schema_version):
        if self.R <= 0:
            raise ParameterError("R", "Brillouin radius must be positive")
        if not min(self.theta0, math.pi - self.theta0,
                   abs(self.theta0 - math.pi / 2.0)) >= THETA_DOMAIN_TOL:
            raise RejectDomain(f"theta0 must lie in (0, pi), {THETA_DOMAIN_TOL:g} or more "
                               "from 0, pi/2 and pi")
        if self.delta <= 0 or self.delta1 <= 0:
            raise ParameterError("delta" if self.delta <= 0 else "delta1",
                                 "delta and delta1 must be positive")
        if self.weight is None and self.v is None:
            raise ParameterError("weight", "provide a surface weight or an explicit density column v")

    def _record(self, callable_as):
        """The parameter record of :meth:`to_dict` and :meth:`fingerprint`:
        every field that is set, a shape as its params, and each callable
        (peak remainder, weight correction, r_m, v) as ``callable_as(name,
        callable)``."""
        def shape(name, part):
            return {**part.params(),
                    **{f.name: callable_as(f"{name}.{f.name}", getattr(part, f.name))
                       for f in fields(part)
                       if f.name not in part.config_table and getattr(part, f.name) is not None}}

        record = {"schema_version": 1, "kind": self.kind, "R": self.R, "theta0": self.theta0,
                  "peak": shape("peak", self.peak), "delta": self.delta,
                  "delta1": self.delta1, "G": self.G}
        if self.weight is not None:
            record["weight"] = shape("weight", self.weight)
        if self.r_m is not None:
            record["r_m"] = callable_as("r_m", self.r_m) if callable(self.r_m) else float(self.r_m)
        if self.v is not None:
            record["v"] = callable_as("v", self.v)
        return record

    def to_dict(self):
        """Serializable parameter record; a spec with any callable raises
        ValueError naming it."""
        def refuse(name, _):
            raise ValueError(f"{name} is a callable; not serializable")
        return self._record(refuse)

    @classmethod
    def from_dict(cls, d):
        """The spec that the mapping ``d`` records (a :meth:`to_dict` record
        or a config's planet), read as :func:`planet_from_config` reads it."""
        return planet_from_config({**d, "kind": cls.kind})

    def fingerprint(self):
        """The SHA-256 of the :meth:`to_dict` record, each callable recorded
        by its qualified name alone: two lambdas, or two versions of one
        function, get the same fingerprint."""
        return _fingerprint_payload(
            self._record(lambda _, obj: getattr(obj, "__qualname__", repr(obj.__class__))))


def _fingerprint_payload(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()


@dataclass(frozen=True, eq=False)
class PlanetProfile:
    """Immutable evaluated planet: its spec and the column's sampled max|v|.
    R, theta0, delta, delta1, G, peak and weight are the spec's, and every
    evaluation reads the spec at call time: r_m is r_M / 2 when the spec
    leaves it out, a constant, or the spec's callable; v is the spec's
    callable, or, without one (``radial_constant``), constant in r with
    sqrt(sin theta) v(r_M, theta) equal to the surface weight.

    :func:`build_profile` checks the spec and measures ``vmax``; all
    evaluations are pure, so profiles may be shared freely across workers.
    """

    spec: PlanetSpec
    vmax: float

    R, theta0, delta, delta1, G, peak, weight = (
        property(attrgetter(f"spec.{name}"))
        for name in ("R", "theta0", "delta", "delta1", "G", "peak", "weight"))

    @property
    def fingerprint(self):
        return self.spec.fingerprint()

    @property
    def radial_constant(self):
        return self.spec.v is None

    def eval_F(self, theta):
        return self.peak.evaluate(np.asarray(theta, dtype=float) - self.theta0)

    def eval_rM(self, theta):
        return self.R * np.exp(-self.eval_F(theta))

    def eval_g(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.radial_constant:
            return self.weight.evaluate(theta - self.theta0)
        return np.sqrt(np.sin(theta)) * self.spec.v(self.eval_rM(theta), theta)

    def eval_v(self, r, theta):
        theta = np.asarray(theta, dtype=float)
        if self.radial_constant:
            return self.weight.evaluate(theta - self.theta0) / np.sqrt(np.sin(theta))
        return self.spec.v(np.asarray(r, dtype=float), theta)

    def eval_rm(self, theta):
        theta, r_m = np.asarray(theta, dtype=float), self.spec.r_m
        if r_m is None:
            return 0.5 * self.R * np.exp(-self.eval_F(theta))
        if callable(r_m):
            return r_m(theta)
        return np.full_like(theta, float(r_m))

    def eval_L(self, theta):
        """log(r_M / r_m), the depth of the radial column in the s variable."""
        return np.log(self.eval_rM(theta) / self.eval_rm(theta))

    def peak_scale(self, n, level=1.0):
        return self.peak.peak_scale(n, level)


def build_profile(spec):
    """Validate a planet specification and return its evaluated profile.

    Checks on a 20001-point colatitude grid that F vanishes only at
    theta0, that it exceeds delta1 outside the peak neighborhood (a
    competing global maximum of r_M raises :class:`RejectNonGeneric`), that
    the inner radius stays strictly inside the surface, and that declared
    remainder orders are numerically consistent at three scales.  ``vmax``
    is the largest |v| the profile's own ``eval_v`` gives on that grid: at
    five radii from r_m to r_M for a callable column, on the interior
    colatitudes for a radially constant one.
    """
    peak = spec.peak
    f0 = float(peak.evaluate(0.0))
    if f0 != 0.0:
        raise RejectNonGeneric(f"F(theta0) = {f0!r}, expected exactly 0")

    thetas = np.linspace(0.0, math.pi, 20001)
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
            f"F dips to {low:.3e} <= delta1={spec.delta1} outside the peak neighborhood",
            field="delta1",
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
            raise RejectNonGeneric("weight correction must vanish at the peak", field="weight")

    profile = PlanetProfile(spec, 0.0)
    rM = spec.R * np.exp(-F)
    rm = np.asarray(profile.eval_rm(thetas), dtype=float)
    if np.any(rm <= 0) or np.any(rm >= rM):
        raise RejectNonGeneric("need 0 < r_m(theta) < r_M(theta) everywhere", field="r_m")

    if profile.radial_constant:
        interior = thetas[(thetas > 1e-4) & (thetas < math.pi - 1e-4)]
        return replace(profile, vmax=float(np.max(np.abs(profile.eval_v(None, interior)))))
    mask = (thetas > 1e-3) & (thetas < math.pi - 1e-3)
    rm, rM = rm[mask], rM[mask]
    return replace(profile, vmax=max(0.0, *(
        float(np.max(np.abs(profile.eval_v(rm + t * (rM - rm), thetas[mask]))))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0))))


def _check_declared_order(h, beta, label):
    """Reject remainders that decay slower than their declared O(|x|^beta):
    the measured |h| / |x|^beta must not grow by more than a factor of 10
    from the largest probe scale to the smallest.  Faster decay is fine."""
    if h is None or beta is None:
        return
    scales = (1e-2, 1e-3, 1e-4)
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

class _ClosedForm:
    """Base of the closed-form oracle planets: every field is kept as a
    float, the fingerprint hashes the kind and the fields, and one order's
    coefficient is read off the series."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def fingerprint(self):
        return _fingerprint_payload({"kind": self.kind, **asdict(self)})

    def closed_coeff_scaled(self, n):
        """The scaled coefficient C_n R^-(n+3) of one order n."""
        return float(self.closed_coeff_series(n, n)[0])


@_config_dataclass
class PointMassPlanet(_ClosedForm):
    """Point mass m at radius r0, colatitude theta_p, inside a reference
    Brillouin sphere of radius R.  Coefficients and potential are closed
    form; the expansion converges down to |z| = r0 < R.  ``cos_theta_p``
    may be given in place of ``theta_p`` (left None)."""

    r0: float
    theta_p: Optional[float]
    m: float
    R: float = 1.0
    G: float = 1.0
    cos_theta_p: InitVar[Optional[float]] = None

    kind = "point_mass"

    def __post_init__(self, cos_theta_p):
        if cos_theta_p is not None:
            if self.theta_p is not None:
                raise ParameterError("cos_theta_p", "give theta_p or cos_theta_p, not both")
            if abs(cos_theta_p) > 1.0:
                raise ParameterError("cos_theta_p", "must lie in [-1, 1]")
            object.__setattr__(self, "theta_p", math.acos(cos_theta_p))
        if self.theta_p is None:
            raise ParameterError("theta_p", "is mandatory")
        super().__post_init__()
        if self.r0 <= 0:
            raise ParameterError("r0", "r0 must be positive")
        if self.r0 >= self.R:
            raise ParameterError("r0", "the mass must sit strictly inside the reference sphere")

    def closed_coeff_series(self, n_min, n_max):
        """C_n R^-(n+3), with C_n = -G m r0^n P_n(cos theta_p), for n =
        n_min..n_max from one scalar Legendre recurrence pass over 0..n_max."""
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


@_config_dataclass
class HomogeneousBall(_ClosedForm):
    """Homogeneous ball of radius R_b and density rho0 centered at the origin;
    its reference radius R is R_b.  All coefficients beyond n = 0 vanish by
    orthogonality."""

    R_b: float
    rho0: float
    G: float = 1.0

    kind = "ball"

    def __post_init__(self):
        super().__post_init__()
        if self.R_b <= 0 or self.rho0 <= 0:
            raise ParameterError("R_b" if self.R_b <= 0 else "rho0",
                                 "radius and density must be positive")

    @property
    def R(self):
        return self.R_b

    @property
    def mass(self):
        return 4.0 * math.pi / 3.0 * self.rho0 * self.R_b**3

    def closed_coeff_series(self, n_min, n_max):
        """C_n R^-(n+3) for n = n_min..n_max."""
        out = np.zeros(n_max - n_min + 1)
        if n_min == 0:
            out[0] = -self.G * self.mass / self.R**3
        return out

    def closed_potential(self, z):
        return -self.G * self.mass / z


#: the planet kinds a config describes, by ``kind``
PLANETS = {cls.kind: cls for cls in (PointMassPlanet, HomogeneousBall, PlanetSpec)}


def planet_from_config(p, path=""):
    """The planet that a config's planet mapping ``p`` at the field path
    ``path`` describes: a closed-form oracle, or the PlanetSpec of a
    profile, which :func:`build_profile` evaluates.  A key or value outside
    the schema raises ParameterError naming its field path."""
    return _variant(PLANETS, "kind")(p, path)


def point_mass_planet(r0, theta_p, m, R=1.0, G=1.0):
    """Closed-form oracle: point mass at (r0, theta_p) with mass m."""
    return PointMassPlanet(r0, theta_p, m, R=R, G=G)


def homogeneous_ball(R_b, rho0, G=1.0):
    """Closed-form oracle: homogeneous ball; only the n = 0 coefficient survives."""
    return HomogeneousBall(R_b, rho0, G=G)
