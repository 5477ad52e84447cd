import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from brillouin import asymptotics, cli
from brillouin._panels import peak_breakpoints
from brillouin.asymptotics import (
    EmptyAfterMasking,
    ExceptionalCase,
    UnsupportedPairing,
    oscillatory_J,
    predict_thm1,
    predict_thm3,
    ratio_diagnostic,
)
from brillouin.coeffs import ScaledCoeffSeries, coeff_scaled, coeff_series
from brillouin.model import (
    C1MixedWeight,
    PlanetSpec,
    PowerC1,
    PowerCusp,
    QuadraticPeak,
    SmoothPowerWeight,
    TwoSidedCuspWeight,
    build_profile,
)

from oracles import exact_inner, inner_watson, j_to_coeff

THETA0 = 1.0


class TestPredictThm1:
    def test_single_term_spot_value(self):
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, np.array([100]))
        want = 2.0 * 100.0**-3 * math.cos(100.5 * THETA0 - math.pi / 4)
        assert pred.values[0] == pytest.approx(want, rel=1e-14)
        assert pred.envelope[0] == pytest.approx(2.0 * 100.0**-3, rel=1e-14)

    def test_oscillation_identity(self):
        ns = np.arange(50, 80)
        pred = predict_thm1(0.7, 1.5, 0.0, None, 1.0, THETA0, ns)
        phase = np.cos((ns + 0.5) * THETA0 - math.pi / 4)
        assert pred.values == pytest.approx(pred.envelope * phase, rel=1e-12)
        assert np.all(np.abs(pred.values) <= pred.envelope + 1e-18)

    def test_two_term_combination(self):
        ns = np.arange(100, 120)
        pred = predict_thm1(1.0, 1.5, 0.5, 3.2, 1.0, THETA0, ns)
        bracket = 1.0 * ns**-1.5 - 0.5 * ns ** -(3.2 - 1.0)
        want = 2.0 * ns**-1.5 * bracket * np.cos((ns + 0.5) * THETA0 - math.pi / 4)
        assert pred.values == pytest.approx(want, rel=1e-12)

    def test_exceptional_coincidence(self):
        with pytest.raises(ExceptionalCase):
            predict_thm1(1.0, 1.7, 1.0, 2.7, 1.0, THETA0, np.arange(10, 20))

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            predict_thm1(1.0, 0.9, 0.0, None, 1.0, THETA0, np.arange(5, 9))
        with pytest.raises(ValueError):
            predict_thm1(1.0, 1.5, 1.0, 1.5, 1.0, THETA0, np.arange(5, 9))


#: predict_thm3 at n = 1, 10, 100, 1000 (R = 1, theta0 = 1) for every pairing and
#: branch: alpha < 1 and alpha = 1 for both cusp weights (one vanishing), and C1
#: at alpha in (1, 2) and alpha = 2 (one vanishing); tag, vanishing flag, values
#: params, values and envelope, as the three hand-written branches computed them
THM3_PINS = [
    (PowerCusp(alpha=0.5, a_minus=1.3, a_plus=0.7),
     SmoothPowerWeight(k=2, g_k=1.5),
     'T3-i-a-alt1', False,
     {'variant': 'smooth_power', 'alpha': 0.5, 'a_minus': 1.3, 'a_plus': 0.7, 'beta': None,
      'k': 2, 'g_k': 1.5},
     [1889.137473037581, -7.578997623749506e-05,
      1.7128712793496007e-12, 6.109026150773014e-20],
     [2500.995443583582, 7.908842019427269e-05,
      2.5009954435835823e-12, 7.908842019427268e-20]),
    (PowerCusp(alpha=1.0, a_minus=1.3, a_plus=0.7),
     SmoothPowerWeight(k=1, g_k=-0.5),
     'T3-i-a-a1', False,
     {'variant': 'smooth_power', 'alpha': 1.0, 'a_minus': 1.3, 'a_plus': 0.7, 'beta': None,
      'k': 1, 'g_k': -0.5},
     [0.35675502401239156, -7.498971073945207e-05,
      -1.9894182642699812e-08, 1.1099138283282398e-11],
     [-0.41566624453029577, -0.00013144520791642412,
      -4.156662445302957e-08, -1.3144520791642413e-11]),
    (PowerCusp(alpha=0.5, a_minus=1.0, a_plus=1.0),
     SmoothPowerWeight(k=1, g_k=1.0),
     'T3-i-a-alt1', True,
     {'variant': 'smooth_power', 'alpha': 0.5, 'a_minus': 1.0, 'a_plus': 1.0, 'beta': None,
      'k': 1, 'g_k': 1.0},
     [0.0, 0.0,
      0.0, 0.0],
     [0.0, 0.0,
      0.0, 0.0]),
    (PowerCusp(alpha=0.6, a_minus=1.3, a_plus=0.7),
     TwoSidedCuspWeight(k=1.5, g_plus=1.0, g_minus=-0.4),
     'T3-i-b-alt1', False,
     {'variant': 'two_sided_cusp', 'alpha': 0.6, 'a_minus': 1.3, 'a_plus': 0.7,
      'beta': None, 'k': 1.5, 'g_plus': 1.0, 'g_minus': -0.4},
     [31.970258937233886, -8.738314980839922e-05,
      1.345469895570213e-10, 3.269298499833624e-16],
     [42.324856223218134, 9.118613849791293e-05,
      1.9645458002995535e-10, 4.2324856223218043e-16]),
    (PowerCusp(alpha=1.0, a_minus=1.3, a_plus=0.7),
     TwoSidedCuspWeight(k=2.0, g_plus=0.5, g_minus=2.0),
     'T3-i-b-a1', False,
     {'variant': 'two_sided_cusp', 'alpha': 1.0, 'a_minus': 1.3, 'a_plus': 0.7,
      'beta': None, 'k': 2.0, 'g_plus': 0.5, 'g_minus': 2.0},
     [-0.16800932971290242, 1.6297964167702305e-05,
      -8.851297030572227e-10, -6.04668981643165e-15],
     [0.8950466556635077, 2.830386044013131e-05,
      8.950466556635077e-10, 2.830386044013131e-14]),
    (PowerC1(alpha=1.5, a_minus=1.2, a_plus=0.8),
     C1MixedWeight(g1=0.3, g_plus=1.0, g_minus=2.0, alpha=1.5),
     'T3-ii-ain12', False,
     {'variant': 'c1_mixed', 'alpha': 1.5, 'a_minus': 1.2, 'a_plus': 0.8, 'g1': 0.3,
      'g_plus': 1.0, 'g_minus': 2.0},
     [-2.758311143233724, 0.0002476389773275972,
      -2.063636223055506e-10, -2.754983102685817e-12],
     [2.7597554239461157, 0.00027597554239461156,
      2.7597554239461158e-08, 2.7597554239461155e-12]),
    (PowerC1(alpha=2.0, a_minus=1.0, a_plus=1.5),
     C1MixedWeight(g1=0.5, g_plus=1.0, g_minus=-1.0, alpha=2.0),
     'T3-ii-a2', False,
     {'variant': 'c1_mixed', 'alpha': 2.0, 'a_minus': 1.0, 'a_plus': 1.5, 'g1': 0.5,
      'g_plus': 1.0, 'g_minus': -1.0},
     [1.1874401447814984, 7.425769068667058e-06,
      -3.1452234163479413e-09, 3.486351466710638e-14],
     [3.408564337915357, 0.00010778826859036358,
      3.408564337915357e-09, 1.0778826859036358e-13]),
    (PowerC1(alpha=2.0, a_minus=1.0, a_plus=1.0),
     C1MixedWeight(g1=0.0, g_plus=1.0, g_minus=1.0, alpha=2.0),
     'T3-ii-a2', True,
     {'variant': 'c1_mixed', 'alpha': 2.0, 'a_minus': 1.0, 'a_plus': 1.0, 'g1': 0.0,
      'g_plus': 1.0, 'g_minus': 1.0},
     [-2.9523073437310435e-16, 1.1844310253788861e-20,
      -2.676841960452295e-25, -9.547067392068703e-30],
     [3.908507093905284e-16, 1.2359784667666315e-20,
      3.908507093905284e-25, 1.2359784667666316e-29]),
]


class TestPredictThm3:
    def test_decay_exponents(self):
        ns = np.array([1000.0, 2000.0])
        cases = [
            (PowerCusp(alpha=0.5, a_minus=1, a_plus=1),
             TwoSidedCuspWeight(k=1.0, g_plus=1, g_minus=1), 1.5 + 4.0),
            (PowerCusp(alpha=1.0, a_minus=1, a_plus=1),
             SmoothPowerWeight(k=1, g_k=1.0), 1.5 + 2.0),
            (PowerC1(alpha=1.5, a_minus=1, a_plus=1),
             C1MixedWeight(g1=1.0, g_plus=0.5, g_minus=0.5, alpha=1.5), 1.5 + 2.5),
        ]
        for peak, weight, decay in cases:
            pred = predict_thm3(peak, weight, 1.0, THETA0, ns)
            got = -math.log(pred.envelope[1] / pred.envelope[0]) / math.log(2.0)
            assert got == pytest.approx(decay, rel=1e-12)

    def test_alpha1_complex_factor(self):
        assert (1 - 1j) ** -2 == pytest.approx(0.5j, rel=1e-15)
        pred = predict_thm3(PowerCusp(alpha=1.0, a_minus=1, a_plus=1),
                            SmoothPowerWeight(k=1, g_k=1.0), 1.0, THETA0,
                            np.array([100]))
        # bracket (1-i)^-2 - (1+i)^-2 = i has unit modulus
        pref = math.sqrt(2.0) * math.gamma(2.0) / math.sqrt(math.pi)
        assert pred.envelope[0] == pytest.approx(pref * 100.0**-3.5, rel=1e-12)

    def test_alpha2_bracket_matches_direct_formula(self):
        a_p, a_m, g1, gp, gm = 1.3, 0.7, 0.4, 1.0, 0.6
        pred = predict_thm3(PowerC1(alpha=2.0, a_minus=a_m, a_plus=a_p),
                            C1MixedWeight(g1=g1, g_plus=gp, g_minus=gm, alpha=2.0),
                            1.0, THETA0, np.array([500]))
        assert pred.tag == "T3-ii-a2"
        bracket = -1j * gp - 3 * g1 * a_p + 1j * gm + 3 * g1 * a_m
        pref = math.sqrt(2.0) * math.gamma(3.0) / math.sqrt(math.pi)
        want = (pref * 500.0**-4.5
                * (np.exp(-1j * math.pi / 4) * np.exp(1j * 500.5 * THETA0) * bracket).real)
        assert pred.values[0] == pytest.approx(want, rel=1e-12)

    def test_vanishing_prefactor_flag(self):
        # odd smooth power with symmetric slopes cancels identically
        pred = predict_thm3(PowerCusp(alpha=0.5, a_minus=1, a_plus=1),
                            SmoothPowerWeight(k=1, g_k=1.0), 1.0, THETA0,
                            np.arange(100, 200))
        assert pred.vanishing
        pred2 = predict_thm3(PowerCusp(alpha=0.5, a_minus=1, a_plus=1),
                             TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=-1.0),
                             1.0, THETA0, np.arange(100, 200))
        assert pred2.vanishing
        pred3 = predict_thm3(PowerCusp(alpha=0.5, a_minus=1, a_plus=1),
                             TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=1.0),
                             1.0, THETA0, np.arange(100, 200))
        assert not pred3.vanishing

    @pytest.mark.parametrize("peak, weight, tag, vanishing, params, values, envelope",
                             THM3_PINS)
    def test_pinned_bitwise(self, peak, weight, tag, vanishing, params, values, envelope):
        pred = predict_thm3(peak, weight, 1.0, THETA0, [1, 10, 100, 1000])
        assert (pred.tag, pred.vanishing, pred.params) == (tag, vanishing, params)
        assert pred.values.tolist() == values
        assert pred.envelope.tolist() == envelope

    def test_unsupported_pairings(self):
        with pytest.raises(UnsupportedPairing):
            predict_thm3(QuadraticPeak(c=1.0), SmoothPowerWeight(k=1, g_k=1.0),
                         1.0, THETA0, np.arange(5, 9))
        with pytest.raises(UnsupportedPairing):
            predict_thm3(PowerC1(alpha=1.5, a_minus=1, a_plus=1),
                         C1MixedWeight(g1=1.0, g_plus=0.5, g_minus=0.5, alpha=1.8),
                         1.0, THETA0, np.arange(5, 9))
        with pytest.raises(UnsupportedPairing):
            predict_thm3(PowerCusp(alpha=0.5, a_minus=1, a_plus=1),
                         C1MixedWeight(g1=1.0, g_plus=0.5, g_minus=0.5, alpha=1.5),
                         1.0, THETA0, np.arange(5, 9))


class TestOscillatoryJ:
    def test_zero_weight_gives_zero(self):
        def v(r, theta):
            theta = np.asarray(theta, dtype=float)
            return np.where(np.abs(theta - THETA0) < 0.5, 0.0, 1.0)

        prof = build_profile(PlanetSpec(R=1.0, theta0=THETA0, peak=QuadraticPeak(c=2.0),
                                        weight=None, v=v, delta=0.5, delta1=0.4))
        assert oscillatory_J(prof, 300) == 0.0

    def test_without_tol_only_the_finer_level_runs(self, t1_profile, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return peak_breakpoints(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "peak_breakpoints", counted)
        # the values the two-level evaluation returned
        for n, want in ((300, -0.00011384852279835398 + 0.00021980745824868577j),
                        (2000, 1.0803816659614135e-05 - 8.999191571817012e-06j)):
            calls.clear()
            assert oscillatory_J(t1_profile, n) == want
            assert len(calls) == 1

    def test_pipeline_matches_coefficients(self, t1_profile):
        n = 500
        J = oscillatory_J(t1_profile, n)
        direct, _ = coeff_scaled(t1_profile, n, tol=1e-13)
        assert j_to_coeff(J, n) == pytest.approx(direct, rel=0.03)

    def test_reflection_conjugates(self):
        def make(theta0, swap):
            a, b = (2.0, 1.0) if swap else (1.0, 2.0)
            g_p, g_m = (0.5, 1.5) if swap else (1.5, 0.5)
            spec = PlanetSpec(R=1.0, theta0=theta0,
                              peak=PowerCusp(alpha=1.0, a_minus=a, a_plus=b),
                              weight=TwoSidedCuspWeight(k=1.0, g_plus=g_p, g_minus=g_m),
                              delta=0.5, delta1=0.4)
            return build_profile(spec)

        n = 50
        J = oscillatory_J(make(THETA0, swap=False), n)
        J_ref = oscillatory_J(make(math.pi - THETA0, swap=True), n)
        want = np.exp(1j * (n + 0.5) * math.pi) * np.conj(J)
        assert J_ref == pytest.approx(want, rel=1e-9)


@pytest.fixture(scope="module")
def unit_density_profile():
    return build_profile(PlanetSpec(
        R=1.0, theta0=THETA0, peak=QuadraticPeak(c=2.0), weight=None,
        v=lambda r, t: np.ones_like(np.asarray(r, dtype=float)),
        delta=0.5, delta1=0.4))


@pytest.fixture(scope="module")
def c1_planet():
    spec = PlanetSpec(R=1.0, theta0=THETA0,
                      peak=PowerC1(alpha=1.5, a_minus=2.0, a_plus=1.0),
                      weight=C1MixedWeight(g1=1.0, g_plus=0.5, g_minus=-0.3, alpha=1.5),
                      delta=0.5, delta1=0.2)
    prof = build_profile(spec)
    return prof, coeff_series(prof, 0, 3000, tol=1e-8)


class TestInnerWatson:
    def test_leading_term_ratio(self, unit_density_profile):
        prof = unit_density_profile
        n = 1000
        ratio = exact_inner(prof, THETA0, n) / inner_watson(prof, THETA0, n)
        assert 0.99 <= ratio <= 1.01

    def test_vanishing_boundary_value(self):
        def v(r, theta):
            r = np.asarray(r, dtype=float)
            theta = np.asarray(theta, dtype=float)
            rM = np.exp(-2.0 * (theta - THETA0) ** 2)
            return rM - r

        prof = build_profile(PlanetSpec(R=1.0, theta0=THETA0, peak=QuadraticPeak(c=2.0),
                                        weight=None, v=v, delta=0.5, delta1=0.4))
        assert inner_watson(prof, 1.3, 100) == pytest.approx(0.0, abs=1e-14)
        for n in (100, 200):
            exact = exact_inner(prof, 1.3, n)
            # first-order term vanished: the column integral is O(n^-2)
            assert abs(exact) <= 5.0 * math.sqrt(math.sin(1.3)) * (n + 3.0) ** -2

    def test_watson_remainder_shrinks(self, unit_density_profile):
        prof = unit_density_profile
        devs = []
        for n in (10, 100):
            ratio = exact_inner(prof, 1.2, n) / inner_watson(prof, 1.2, n)
            devs.append(abs(ratio - 1.0))
        assert devs[1] <= devs[0] / 8.0


class TestRatioDiagnostic:
    def test_self_ratio_is_one(self):
        ns = np.arange(100, 300)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        series = ScaledCoeffSeries(ns, pred.values.copy(),
                                   np.full(ns.size, 1e-300), np.ones(ns.size, bool),
                                   1.0, "synthetic", 1e-10)
        rep = ratio_diagnostic(series, pred)
        assert rep.median_ratio == 1.0
        assert rep.verdict == "pass"
        assert abs(rep.residual_exponent) < 1e-12

    def test_wrong_peak_location_flags_mismatch(self, point_mass_series):
        ns = point_mass_series.n[500:1500]
        wrong = predict_thm1(1.0, 1.5, 0.0, None, 1.0, math.acos(0.5) + 0.1, ns)
        # scale the prediction so magnitudes are comparable but phases wrong
        scale = np.abs(point_mass_series.values[500:1500]).max() / np.abs(wrong.values).max()
        wrong = replace(wrong, values=wrong.values * scale, envelope=wrong.envelope * scale)
        rep = ratio_diagnostic(point_mass_series.window(500, 1499), wrong)
        assert rep.mismatch
        assert rep.verdict == "mismatch"

    def test_empty_after_masking(self):
        ns = np.arange(10, 20)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        buried = replace(pred, values=pred.values * 1e-3)  # far below envelope
        series = ScaledCoeffSeries(ns, np.ones(ns.size), np.full(ns.size, 1e-300),
                                   np.ones(ns.size, bool), 1.0, "synthetic", 1e-10)
        with pytest.raises(EmptyAfterMasking):
            ratio_diagnostic(series, buried)

    def test_disjoint_ranges_rejected(self, point_mass_series):
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, np.arange(3000, 3100))
        with pytest.raises(ValueError):
            ratio_diagnostic(point_mass_series, pred)

    def test_csv_and_json(self, tmp_path):
        ns = np.arange(100, 140)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        series = ScaledCoeffSeries(ns, pred.values.copy(), np.full(ns.size, 1e-300),
                                   np.ones(ns.size, bool), 1.0, "synthetic", 1e-10)
        rep = ratio_diagnostic(series, pred)
        cli._write(tmp_path, SimpleNamespace(config_hash="cafe"), "r.csv", rep.columns())
        head = (tmp_path / "r.csv").read_text().splitlines()[:2]
        assert head[0] == "# config_hash: cafe"
        assert head[1] == "n,coeff,pred,ratio,masked"
        d = rep.to_json_dict()
        assert d["verdict"] == "pass"


@pytest.mark.slow
class TestC1CaseAgainstQuadrature:
    """Numerical confirmation of the once-differentiable-peak closed forms,
    including the sign of the two-sided assembly."""

    def test_envelope_slope(self, c1_planet):
        prof, series = c1_planet
        pred = predict_thm3(prof.peak, prof.weight, 1.0, THETA0, np.arange(800, 3001))
        rep = ratio_diagnostic(series, pred)
        m = rep.masked
        slope = np.polyfit(np.log(rep.n[m]), np.log(np.abs(rep.coeff[m])), 1)[0]
        assert slope == pytest.approx(-(1.5 + 1.5 + 1.0), rel=0.02)

    def test_ratio_converges_with_correct_sign(self, c1_planet):
        prof, series = c1_planet
        ns = np.arange(500, 3001)
        pred = predict_thm3(prof.peak, prof.weight, 1.0, THETA0, ns)
        early = ratio_diagnostic(series.window(500, 1500), predict_thm3(
            prof.peak, prof.weight, 1.0, THETA0, np.arange(500, 1501)))
        late = ratio_diagnostic(series.window(1500, 3000), predict_thm3(
            prof.peak, prof.weight, 1.0, THETA0, np.arange(1500, 3001)))
        assert early.median_ratio > 0    # sign of the assembly
        assert abs(late.median_ratio - 1.0) < abs(early.median_ratio - 1.0)
        assert abs(late.median_ratio - 1.0) < 0.25

    def test_reduction_integral_limit(self, c1_planet):
        # J n^(alpha+1), phase removed, approaches Gamma(alpha+1) * bracket
        prof, _ = c1_planet
        alpha, a_p, a_m, g1, gp, gm = 1.5, 1.0, 2.0, 1.0, 0.5, -0.3
        ia, mia = np.exp(1j * math.pi * alpha / 2), np.exp(-1j * math.pi * alpha / 2)
        bracket = (ia * (1j * gp + g1 * a_p * (1 + alpha))
                   - mia * (1j * gm + g1 * a_m * (1 + alpha)))
        target = math.gamma(alpha + 1.0) * bracket
        n = 200_000
        J1 = oscillatory_J(prof, n) * np.exp(-1j * (n + 0.5) * THETA0)
        assert abs(J1 * n ** (alpha + 1.0)) / abs(target) == pytest.approx(1.0, abs=0.03)


class TestSequenceLaws:
    def test_phase_law_sign_pattern(self, cusp_profile, cusp_series):
        # signs of the coefficients follow the predicted phase away from
        # the cosine zeros, with at most 2% mismatches
        ns = np.arange(500, 4001)
        pred = predict_thm3(cusp_profile.peak, cusp_profile.weight, 1.0,
                            cusp_profile.theta0, ns)
        mask = pred.phase_mask()
        got = np.sign(cusp_series.window(500, 4000).values[mask])
        want = np.sign(pred.values[mask])
        mismatch = np.mean(got != want)
        assert mismatch <= 0.02

    def test_t1_predictor_consistent_with_reduction_integral(self, t1_profile):
        # the closed-form predictor and the direct oscillatory integral
        # pipeline agree along the sequence envelope
        from brillouin.spectral import fit_tail, sample_transform
        prof_fn = t1_profile.weight.tail_profile()
        ks = -np.concatenate([
            np.geomspace(50.0 * 2**j, 50.0 * 2 ** (j + 1), 12, endpoint=False)
            for j in range(7)
        ])
        fit = fit_tail(ks, sample_transform(prof_fn, prof_fn.support, ks,
                                            singularities=prof_fn.singularities))
        ns = np.arange(500, 540)
        pred = predict_thm1(fit.amp, fit.beta, 0.0, None, 1.0, t1_profile.theta0, ns)
        mask = pred.phase_mask()
        ratios = [j_to_coeff(oscillatory_J(t1_profile, int(n)), int(n)) / pred.values[i]
                  for i, n in enumerate(ns) if mask[i]]
        assert abs(np.median(ratios) - 1.0) <= 0.05


@pytest.mark.slow
class TestAlpha2CaseAgainstQuadrature:
    def test_median_ratio_and_slope(self):
        spec = PlanetSpec(R=1.0, theta0=THETA0,
                          peak=PowerC1(alpha=2.0, a_minus=0.7, a_plus=1.3),
                          weight=C1MixedWeight(g1=0.4, g_plus=1.0, g_minus=0.6, alpha=2.0),
                          delta=0.5, delta1=0.15)
        prof = build_profile(spec)
        series = coeff_series(prof, 0, 3000, tol=1e-8)
        pred = predict_thm3(prof.peak, prof.weight, 1.0, THETA0, np.arange(800, 3001))
        assert pred.tag == "T3-ii-a2"
        rep = ratio_diagnostic(series, pred)
        assert 0.95 <= rep.median_ratio <= 1.05
        m = rep.masked
        slope = np.polyfit(np.log(rep.n[m]), np.log(np.abs(rep.coeff[m])), 1)[0]
        assert slope == pytest.approx(-4.5, rel=0.02)


@pytest.mark.slow
class TestRemainingCaseFamilies:
    """Envelope-law coverage for the closed-form cases not exercised by the
    acceptance fixtures: asymmetric smooth-power below alpha = 1 and the
    two-sided cusp weight at alpha = 1."""

    @pytest.mark.parametrize("peak,weight,tag,decay", [
        (PowerCusp(alpha=0.5, a_minus=1.6, a_plus=0.9),
         SmoothPowerWeight(k=1, g_k=1.0), "T3-i-a-alt1", 1.5 + 4.0),
        (PowerCusp(alpha=1.0, a_minus=1.4, a_plus=0.8),
         TwoSidedCuspWeight(k=1.5, g_plus=1.0, g_minus=0.7), "T3-i-b-a1",
         1.5 + 2.5),
    ])
    def test_envelope_and_ratio(self, peak, weight, tag, decay):
        delta1 = 0.8 * min(peak.a_minus, peak.a_plus) * 0.5**peak.alpha
        spec = PlanetSpec(R=1.0, theta0=THETA0, peak=peak, weight=weight,
                          delta=0.5, delta1=delta1)
        prof = build_profile(spec)
        series = coeff_series(prof, 0, 2400, tol=1e-8)
        pred = predict_thm3(peak, weight, 1.0, THETA0, np.arange(600, 2401))
        assert pred.tag == tag
        assert not pred.vanishing
        rep = ratio_diagnostic(series, pred)
        assert 0.9 <= rep.median_ratio <= 1.1
        m = rep.masked
        slope = np.polyfit(np.log(rep.n[m]), np.log(np.abs(rep.coeff[m])), 1)[0]
        assert slope == pytest.approx(-decay, rel=0.02)
