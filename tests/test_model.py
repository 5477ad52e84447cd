import math

import numpy as np
import pytest

from brillouin.errors import ParameterError
from brillouin.model import (
    PEAKS,
    WEIGHTS,
    C1MixedWeight,
    FourierTailWeight,
    PlanetSpec,
    PowerC1,
    PowerCusp,
    QuadraticPeak,
    RejectDomain,
    RejectNonGeneric,
    SmoothPowerWeight,
    TwoSidedCuspWeight,
    build_profile,
    homogeneous_ball,
    planet_from_config,
    point_mass_planet,
)
from brillouin.spectral import appendix_function, default_taper

THETA0 = 1.0


def simple_profile(peak, weight=None, **kw):
    weight = weight or TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=1.0)
    defaults = dict(R=1.0, theta0=THETA0, delta=0.5, delta1=0.04)
    defaults.update(kw)
    return build_profile(PlanetSpec(peak=peak, weight=weight, **defaults))


class TestPeakShapes:
    def test_cusp_definition(self):
        prof = simple_profile(PowerCusp(alpha=1.0, a_minus=1.0, a_plus=1.0),
                              delta1=0.4)
        assert prof.eval_F(THETA0) == 0.0
        assert prof.eval_F(THETA0 + 0.1) == pytest.approx(0.1, rel=1e-15)

    def test_quadratic_value(self):
        prof = simple_profile(QuadraticPeak(c=2.0), delta1=0.4)
        assert prof.eval_F(1.1) == pytest.approx(0.02, rel=1e-12)

    def test_surface_radius(self):
        prof = simple_profile(QuadraticPeak(c=2.0), delta1=0.4)
        assert prof.eval_rM(1.0) == 1.0
        assert prof.eval_rM(1.1) == pytest.approx(math.exp(-0.02), rel=1e-15)

    def test_positive_coefficients_required(self):
        with pytest.raises(ValueError):
            PowerCusp(alpha=0.5, a_minus=0.0, a_plus=1.0)
        with pytest.raises(ValueError):
            PowerCusp(alpha=0.5, a_minus=1.0, a_plus=-2.0)
        with pytest.raises(ValueError):
            QuadraticPeak(c=0.0)
        with pytest.raises(ValueError):
            PowerC1(alpha=1.5, a_minus=1.0, a_plus=0.0)

    def test_alpha_ranges(self):
        with pytest.raises(ValueError):
            PowerCusp(alpha=1.2, a_minus=1.0, a_plus=1.0)
        with pytest.raises(ValueError):
            PowerC1(alpha=1.0, a_minus=1.0, a_plus=1.0)

    def test_derivative_counts(self):
        assert PowerCusp(alpha=0.5, a_minus=1, a_plus=1).derivative_count == 0
        assert PowerC1(alpha=1.5, a_minus=1, a_plus=1).derivative_count == 1
        assert QuadraticPeak(c=1.0).derivative_count == 2


class TestWeights:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SmoothPowerWeight(k=0, g_k=1.0)
        with pytest.raises(ValueError):
            SmoothPowerWeight(k=2, g_k=0.0)
        with pytest.raises(ValueError):
            TwoSidedCuspWeight(k=1.0, g_plus=0.0, g_minus=0.0)
        with pytest.raises(ValueError):
            FourierTailWeight(beta0=0.9, eps=0.2)
        with pytest.raises(ValueError):
            FourierTailWeight(beta0=2.0, eps=0.2, taper_order=2)

    def test_weights_vanish_at_peak(self):
        for w in (SmoothPowerWeight(k=1, g_k=2.0),
                  TwoSidedCuspWeight(k=1.5, g_plus=1.0, g_minus=0.5),
                  C1MixedWeight(g1=1.0, g_plus=0.3, g_minus=0.2, alpha=1.5),
                  FourierTailWeight(beta0=1.5, eps=0.2)):
            assert w.evaluate(0.0) == 0.0


def _remainder(x):
    return 0.3 * x * np.abs(x) ** 3.5


def _correction(x):
    return 0.5 * x - 0.25 * x * x


def _correction_variant(x):
    return 0.5 * x


# the formulas the shapes evaluate, written out once more: artifacts are
# byte-identical across releases only while these bits do not move
def _quadratic(s, x):
    out = s.c * x * x
    return out if s.remainder is None else out + s.remainder(x)


def _power_peak(s, x):
    a = np.where(x >= 0, s.a_plus, s.a_minus)
    out = a * np.abs(x) ** s.alpha
    return out if getattr(s, "remainder", None) is None else out + s.remainder(x)


def _smooth_power(s, x):
    out = s.g_k * x ** int(s.k)
    return out if s.correction is None else out * (1.0 + s.correction(x))


def _two_sided_cusp(s, x):
    g = np.where(x >= 0, s.g_plus, s.g_minus)
    out = g * np.abs(x) ** s.k
    return out if s.correction is None else out * (1.0 + s.correction(x))


def _c1_mixed(s, x):
    g = np.where(x >= 0, s.g_plus, s.g_minus)
    return s.g1 * x + g * np.abs(x) ** s.alpha


def _fourier_tail(s, x):
    return appendix_function(s.beta0, s.eps, default_taper(s.beta0, s.eps, s.taper_order))(x)


SHAPE_FORMULAS = [
    (QuadraticPeak(c=2.0), _quadratic),
    (QuadraticPeak(c=2.0, beta=4.5, remainder=_remainder), _quadratic),
    (PowerCusp(alpha=0.6, a_minus=1.3, a_plus=0.7), _power_peak),
    (PowerCusp(alpha=1.0, a_minus=0.9, a_plus=2.1, beta=4.5, remainder=_remainder),
     _power_peak),
    (PowerC1(alpha=1.5, a_minus=1.2, a_plus=0.8), _power_peak),
    (PowerC1(alpha=2.0, a_minus=0.4, a_plus=3.0), _power_peak),
    (SmoothPowerWeight(k=3, g_k=-1.5), _smooth_power),
    (SmoothPowerWeight(k=2, g_k=0.7, correction=_correction), _smooth_power),
    (TwoSidedCuspWeight(k=1.5, g_plus=1.0, g_minus=-0.5), _two_sided_cusp),
    (TwoSidedCuspWeight(k=2.0, g_plus=0.0, g_minus=1.25, correction=_correction),
     _two_sided_cusp),
    (C1MixedWeight(g1=0.3, g_plus=1.0, g_minus=2.0, alpha=1.5), _c1_mixed),
    (FourierTailWeight(beta0=1.5, eps=0.25), _fourier_tail),
    (FourierTailWeight(beta0=2.5, eps=0.5, taper_order=4), _fourier_tail),
]


class TestEvaluateBits:
    def test_every_variant_is_covered(self):
        assert {shape.variant for shape, _ in SHAPE_FORMULAS} == set(PEAKS) | set(WEIGHTS)

    @pytest.mark.parametrize("shape, formula", SHAPE_FORMULAS,
                             ids=[f"{s.variant}-{i}" for i, (s, _) in enumerate(SHAPE_FORMULAS)])
    def test_evaluate_is_bitwise_the_formula(self, shape, formula):
        xs = np.array([-0.7, -0.3, -1e-3, -1e-9, -0.0, 0.0, 1e-9, 1e-3, 0.2, 0.6])
        for x in (xs, 0.0, -0.3, 0.2):
            got = np.asarray(shape.evaluate(x))
            want = np.asarray(formula(shape, np.asarray(x, dtype=float)))
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestSurfaceWeightComposition:
    def test_unit_density(self):
        # g = sqrt(sin theta) when the density column is identically one
        spec = PlanetSpec(R=1.0, theta0=THETA0, peak=QuadraticPeak(c=2.0),
                          weight=None, v=lambda r, t: np.ones_like(np.asarray(r)),
                          delta=0.5, delta1=0.4)
        prof = build_profile(spec)
        assert prof.eval_g(math.pi / 2) == pytest.approx(1.0, rel=1e-15)
        assert prof.eval_g(math.pi / 6) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_radial_density(self):
        # v(r, theta) = r evaluated on a surface passing through 0.9 at pi/4
        theta_probe = math.pi / 4
        c = -math.log(0.9) / (theta_probe - THETA0) ** 2
        spec = PlanetSpec(R=1.0, theta0=THETA0, peak=QuadraticPeak(c=c), weight=None,
                          v=lambda r, t: np.asarray(r, dtype=float),
                          delta=2.0, delta1=0.001)
        prof = build_profile(spec)
        assert prof.eval_rM(theta_probe) == pytest.approx(0.9, rel=1e-14)
        want = 0.9 * math.sqrt(math.sin(theta_probe))
        assert prof.eval_g(theta_probe) == pytest.approx(want, rel=1e-14)


class TestGenericityChecks:
    def test_theta0_exclusions(self):
        for bad in (math.pi / 2, math.pi - 1e-12, 1e-12):
            with pytest.raises(RejectDomain):
                build_profile(PlanetSpec(
                    R=1.0, theta0=bad, peak=QuadraticPeak(c=1.0),
                    weight=SmoothPowerWeight(k=1, g_k=1.0), delta=0.2, delta1=0.01))

    def test_second_peak_rejected(self):
        # remainder digs a second zero of F at x = 1.5 while staying
        # O(x^4) near the peak
        def h(x):
            x = np.asarray(x, dtype=float)
            return -2.0 * x * x * np.exp(-((x - 1.5) ** 2) / 0.005)

        with pytest.raises(RejectNonGeneric):
            simple_profile(QuadraticPeak(c=2.0, beta=4.0, remainder=h), delta1=0.4)

    def test_floor_violation_rejected(self):
        def h(x):
            x = np.asarray(x, dtype=float)
            return -1.99 * x * x * np.exp(-((x - 1.5) ** 2) / 0.005)

        with pytest.raises(RejectNonGeneric):
            simple_profile(QuadraticPeak(c=2.0, beta=4.0, remainder=h), delta1=0.4)

    def test_declared_order_mismatch_rejected(self):
        # h ~ x^3 declared as O(x^4)
        with pytest.raises(RejectNonGeneric):
            simple_profile(QuadraticPeak(c=2.0, beta=4.0,
                                         remainder=lambda x: np.asarray(x) ** 3 * 0.1),
                           delta1=0.4)

    def test_faster_decay_accepted(self):
        prof = simple_profile(QuadraticPeak(c=2.0, beta=4.0,
                                            remainder=lambda x: np.asarray(x) ** 6),
                              delta1=0.3)
        assert prof.eval_F(THETA0) == 0.0

    def test_inner_radius_must_fit(self):
        with pytest.raises(RejectNonGeneric):
            simple_profile(QuadraticPeak(c=2.0), delta1=0.4, r_m=0.5)


class TestProfileInvariants:
    def test_unique_maximum_on_dense_grid(self, cusp_profile):
        # the grid max approaches R from below and is attained only in a
        # neighborhood of theta0 that shrinks as the grid refines
        gaps, spreads = [], []
        for n_pts in (10_001, 100_001):
            thetas = np.linspace(0.0, math.pi, n_pts)
            rM = cusp_profile.eval_rM(thetas)
            assert rM.max() <= 1.0 + 1e-15
            gaps.append(1.0 - rM.max())
            near = np.abs(thetas[rM > rM.max() - 1e-9] - THETA0)
            spreads.append(near.max())
        assert gaps[1] < gaps[0]
        assert spreads[1] < spreads[0]
        assert spreads[1] < 1e-4

    def test_symmetric_peak_difference_vanishes(self, cusp_profile):
        for x in (1e-2, 1e-4):
            d = abs(cusp_profile.eval_F(THETA0 + x) - cusp_profile.eval_F(THETA0 - x))
            assert d <= 1e-12 * max(cusp_profile.eval_F(THETA0 + x), 1e-30)

    def test_repeat_evaluation_bit_identical(self, cusp_profile):
        thetas = np.linspace(0.1, 3.0, 1000)
        a = cusp_profile.eval_g(thetas)
        b = cusp_profile.eval_g(thetas)
        assert np.array_equal(a, b)
        assert cusp_profile.eval_F(1.234567) == cusp_profile.eval_F(1.234567)

    def test_profile_immutable(self, cusp_profile):
        with pytest.raises(AttributeError):
            cusp_profile.R = 2.0


class TestOracles:
    def test_point_mass_coefficients(self):
        pm = point_mass_planet(0.9, math.acos(0.5), 1.0)
        assert pm.closed_coeff_scaled(2) == pytest.approx(0.10125, rel=1e-14)
        assert pm.closed_coeff_scaled(0) == pytest.approx(-1.0, rel=1e-15)

    def test_point_mass_small_radius(self):
        pm = point_mass_planet(1e-9, 0.7, 1.0)
        for n in (1, 2, 5):
            assert abs(pm.closed_coeff_scaled(n)) <= 1e-9 ** n * 1.0 + 1e-300

    def test_point_mass_requires_interior(self):
        with pytest.raises(ValueError):
            point_mass_planet(1.2, 0.7, 1.0)

    def test_ball_coefficients(self):
        ball = homogeneous_ball(1.0, 1.0)
        assert ball.closed_coeff_scaled(0) == pytest.approx(-4 * math.pi / 3, rel=1e-15)
        assert ball.closed_coeff_scaled(1) == 0.0
        assert ball.closed_coeff_scaled(7) == 0.0

    def test_point_mass_against_independent_legendre(self):
        from scipy.special import eval_legendre
        pm = point_mass_planet(0.9, math.acos(0.5), 1.0)
        for n in (3, 17, 64):
            want = -(0.9**n) * eval_legendre(n, 0.5)
            assert pm.closed_coeff_scaled(n) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("planet, fingerprint", [
        (lambda: point_mass_planet(0.9, math.acos(0.5), 1.0),
         "989a7f52ef7f6e1b3cca9a44d2fb274991639823743721d0c50708ccd6496879"),
        (lambda: point_mass_planet(0.8, 2.5, 1.5, R=1.1),
         "8c32a1acb372d13472cc7438cc566e1ce0f888424b1a8a355ee73fbfbd426b89"),
        (lambda: homogeneous_ball(1.0, 1.0),
         "8c38e60f80507bc71c3044440b32dcb511b4660eecef1d523f2c71b95a39b862"),
        # integer arguments are kept as floats, so they hash the same
        (lambda: homogeneous_ball(1, 1),
         "8c38e60f80507bc71c3044440b32dcb511b4660eecef1d523f2c71b95a39b862"),
    ], ids=["point-mass-cos", "point-mass-R", "ball", "ball-integers"])
    def test_oracle_fingerprint_is_pinned(self, planet, fingerprint):
        assert planet().fingerprint == fingerprint

    def test_series_and_single_order_agree_bitwise(self):
        for planet in (point_mass_planet(0.8, 2.5, 1.5, R=1.1), homogeneous_ball(2.0, 0.5)):
            series = planet.closed_coeff_series(0, 120)
            assert [planet.closed_coeff_scaled(n) for n in range(121)] == series.tolist()
            assert planet.closed_coeff_series(5, 9).tolist() == series[5:10].tolist()

    def test_ball_reference_radius_is_its_own(self):
        assert homogeneous_ball(2.0, 0.5).R == 2.0

    def test_from_config(self):
        pm = planet_from_config({"kind": "point_mass", "r0": 0.9, "cos_theta_p": 0.5, "m": 1})
        assert pm == point_mass_planet(0.9, math.acos(0.5), 1.0)
        assert planet_from_config({"kind": "ball", "R_b": 1.0, "rho0": 1.0}) \
            == homogeneous_ball(1.0, 1.0)
        with pytest.raises(ParameterError) as info:
            planet_from_config({"kind": "ball", "R_b": 1.0, "rho0": 1.0, "R": 2.0})
        assert info.value.field == "R"
        spec = PlanetSpec(R=1.5, theta0=THETA0, peak=QuadraticPeak(c=2.0),
                          weight=FourierTailWeight(beta0=1.5, eps=0.25))
        assert planet_from_config(spec.to_dict()) == spec


class TestSerialization:
    @pytest.mark.parametrize("peak, weight, fingerprint", [
        (QuadraticPeak(c=2.0, beta=3.5), TwoSidedCuspWeight(k=2.0, g_plus=1.0, g_minus=-0.5),
         "e5930027860301622dedf74824c2c21d6fd760731a46c85607ad43d680bcc6e9"),
        (PowerCusp(alpha=0.6, a_minus=1.5, a_plus=0.7, beta=0.9),
         TwoSidedCuspWeight(k=2.0, g_plus=1.0, g_minus=-0.5),
         "bd9d379ab2b87203cfafc84f4e1c09a425bf8c21a4902882178e422f0b2b4089"),
        (PowerC1(alpha=1.5, a_minus=1.2, a_plus=0.8),
         TwoSidedCuspWeight(k=2.0, g_plus=1.0, g_minus=-0.5),
         "69f127bd31f0c225d94397ffab9c5b6fd562500e926416dc1adcefa5e395c381"),
        # a float k is recorded as an int
        (PowerCusp(alpha=0.6, a_minus=1.5, a_plus=0.7), SmoothPowerWeight(k=2.0, g_k=1.5),
         "705d03df2645454d3592ff61f2bf90008c7857787cdbd426c16bfc9e4fdd2257"),
        (PowerCusp(alpha=0.6, a_minus=1.5, a_plus=0.7),
         TwoSidedCuspWeight(k=2.0, g_plus=1.0, g_minus=-0.5),
         "68887fa88d5d425344ea882d466eed709c050512e70916c5c06ddfd4a24b8756"),
        (PowerCusp(alpha=0.6, a_minus=1.5, a_plus=0.7),
         C1MixedWeight(g1=0.3, g_plus=1.0, g_minus=2.0, alpha=1.5),
         "0cceaacfce95f219e09b54152deded18467a46cf353caea03c53b3d642334074"),
        (PowerCusp(alpha=0.6, a_minus=1.5, a_plus=0.7),
         FourierTailWeight(beta0=1.5, eps=0.25, taper_order=4),
         "2074d403247f7b1760c96758c77858bc1ae3549dc556ee34e683c9e4078417ce"),
    ], ids=["quadratic", "power_cusp", "power_c1", "smooth_power", "two_sided_cusp",
            "c1_mixed", "fourier_tail"])
    def test_round_trip(self, peak, weight, fingerprint):
        # coeffs.json records the fingerprint, so it must not move; it also
        # shows that an integer k or taper_order is read and recorded as an int
        spec = PlanetSpec(R=2.0, theta0=1.3, peak=peak, weight=weight, delta=0.4, delta1=0.05)
        again = PlanetSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()
        assert spec.fingerprint() == again.fingerprint() == fingerprint

    def test_integer_field_rejects_a_fraction(self):
        # 2.5 used to be truncated to k = 2 while the config still said 2.5
        planet = {"kind": "profile", "R": 1.0, "theta0": 1.0, "delta": 0.5, "delta1": 0.4,
                  "peak": {"variant": "power_cusp", "alpha": 0.5, "a_minus": 1.0,
                           "a_plus": 1.0}}
        with pytest.raises(ParameterError, match="must be an integer, got 2.5") as info:
            PlanetSpec.from_dict({**planet, "weight": {"variant": "smooth_power", "k": 2.5,
                                                       "g_k": 1.0}})
        assert info.value.field == "weight.k"
        specs = [PlanetSpec.from_dict({**planet, "weight": {"variant": "smooth_power", "k": k,
                                                            "g_k": 1.0}})
                 for k in (2, 2.0)]
        assert [spec.weight.k for spec in specs] == [2, 2]
        assert specs[0].fingerprint() == specs[1].fingerprint()

    def test_callables_not_serializable(self):
        spec = PlanetSpec(R=1.0, theta0=1.0, peak=QuadraticPeak(c=1.0), weight=None,
                          v=lambda r, t: np.ones_like(r), delta=0.5, delta1=0.1)
        with pytest.raises(ValueError):
            spec.to_dict()
        assert len(spec.fingerprint()) == 64  # hashable regardless

    def test_fingerprint_names_each_callable(self):
        # a callable is recorded by its qualified name, so specs that differ
        # only in the weight's correction function differ in fingerprint;
        # two lambdas share the name "<lambda>" and so the fingerprint
        def spec(correction):
            return PlanetSpec(R=1.0, theta0=1.0,
                              peak=PowerCusp(alpha=0.5, a_minus=1.0, a_plus=1.0),
                              weight=TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=1.0,
                                                        correction=correction),
                              delta=0.5, delta1=0.4)

        assert spec(_correction).fingerprint() != spec(_correction_variant).fingerprint()
        assert spec(_correction).fingerprint() != spec(None).fingerprint()
        assert spec(lambda x: 0 * x).fingerprint() == spec(lambda x: 0.5 * x).fingerprint()

    def test_fingerprint_distinguishes_parameters(self):
        a = PlanetSpec(R=1.0, theta0=1.0, peak=QuadraticPeak(c=1.0),
                       weight=SmoothPowerWeight(k=1, g_k=1.0), delta=0.5, delta1=0.1)
        b = PlanetSpec(R=1.0, theta0=1.0, peak=QuadraticPeak(c=1.0 + 1e-9),
                       weight=SmoothPowerWeight(k=1, g_k=1.0), delta=0.5, delta1=0.1)
        assert a.fingerprint() != b.fingerprint()
