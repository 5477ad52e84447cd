import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from brillouin import cli
from brillouin.asymptotics import predict_thm1
from brillouin.coeffs import ScaledCoeffSeries, coeff_series
from brillouin.convergence import (
    CONVERGES_AT_BRILLOUIN,
    INCONCLUSIVE,
    MIN_ROOT_TEST_N,
    OVERCONVERGENCE,
    limsup_stat,
    root_test,
    verdict_from_series,
)
from brillouin.model import (
    PlanetSpec,
    PowerCusp,
    TwoSidedCuspWeight,
    build_profile,
    homogeneous_ball,
)

THETA0 = 1.0


def synthetic_series(ns, values, R=1.0):
    values = np.asarray(values, dtype=float)
    return ScaledCoeffSeries(np.asarray(ns), values, np.full(len(values), 1e-300),
                             np.ones(len(values), bool), R, "synthetic", 1e-10)


class TestRootTest:
    def test_point_mass_radius(self, point_mass_series):
        rt = root_test(point_mass_series)
        assert not rt.degenerate
        assert rt.rho_hat == pytest.approx(0.9, abs=5e-3)

    def test_ball_degenerate(self, ball):
        series = coeff_series(ball, 1, 50)
        rt = root_test(series)
        assert rt.degenerate
        assert rt.rho_hat == 0.0

    def test_ball_monopole_below_the_windows_is_degenerate(self, ball):
        # only C_0 is nonzero: no octave window holds a nonzero value
        series = coeff_series(ball, 0, 300)
        assert series.values[0] != 0
        rt = root_test(series)
        assert rt.degenerate
        assert rt.rho_hat == 0.0
        report = verdict_from_series(series)
        assert (report.rho_hat, report.rho_check, report.degenerate) == (0.0, 0.0, True)

    def test_cusp_planet_at_brillouin(self, cusp_series):
        rt = root_test(cusp_series)
        assert rt.rho_hat == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("last", [161, 300])
    def test_zero_tail_leaves_the_windows(self, last):
        # orders past the last nonzero one that are exactly 0 (an
        # underflowed tail) give the windows of the series cut there, or at
        # the root test's floor
        ns = np.arange(0, 2001)
        values = np.where(ns <= last, 0.8 ** ns * np.cos(ns), 0.0)
        cut = max(last, MIN_ROOT_TEST_N)
        want = root_test(synthetic_series(ns[:cut + 1], values[:cut + 1]))
        got = root_test(synthetic_series(ns, values))
        assert got == want
        assert got.rho_hat == pytest.approx(0.8, rel=0.02)

    def test_short_series_rejected(self, point_mass):
        series = coeff_series(point_mass, 0, 80)
        with pytest.raises(ValueError):
            root_test(series)


class TestLimsupStat:
    def test_matched_exponent_is_flat(self):
        ns = np.arange(64, 4096)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        series = synthetic_series(ns, pred.values)
        stat = limsup_stat(series, beta_m=1.5)
        assert stat.trend == "flat"
        assert min(stat.window_maxima) > 0

    def test_overlarge_exponent_diverges(self):
        ns = np.arange(64, 4096)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        series = synthetic_series(ns, pred.values)
        assert limsup_stat(series, beta_m=2.0).trend == "increasing"

    def test_oversmall_exponent_decays(self):
        ns = np.arange(64, 4096)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        series = synthetic_series(ns, pred.values)
        assert limsup_stat(series, beta_m=1.0).trend == "decaying"

    def test_huge_radius_keeps_the_trend(self):
        # R^3 overflows at R 1e300; the trend does not depend on it
        ns = np.arange(64, 4096)
        pred = predict_thm1(1.0, 1.5, 0.0, None, 1.0, THETA0, ns)
        unit = limsup_stat(synthetic_series(ns, pred.values), beta_m=1.5)
        huge = limsup_stat(synthetic_series(ns, pred.values, R=1e300), beta_m=1.5)
        assert (huge.trend, huge.slope) == (unit.trend, unit.slope)
        assert np.all(np.isinf(huge.window_maxima))

    def test_requires_positive_exponent(self):
        ns = np.arange(64, 512)
        series = synthetic_series(ns, np.ones(ns.size))
        with pytest.raises(ValueError):
            limsup_stat(series, beta_m=0.0)


class TestVerdicts:
    def test_cusp_planet_converges_at_brillouin(self, cusp_series):
        report = verdict_from_series(cusp_series)
        assert report.verdict == CONVERGES_AT_BRILLOUIN
        assert report.limsup_trend == "flat"

    def test_point_mass_overconverges(self, point_mass_series):
        report = verdict_from_series(point_mass_series)
        assert report.verdict == OVERCONVERGENCE
        assert report.rho_hat == pytest.approx(0.9, abs=5e-3)

    def test_short_series_inconclusive(self, point_mass):
        series = coeff_series(point_mass, 0, 50)
        report = verdict_from_series(series)
        assert report.verdict == INCONCLUSIVE

    def test_profile_level_entry_point(self):
        from brillouin.convergence import convergence_verdict
        spec = PlanetSpec(R=1.0, theta0=THETA0,
                          peak=PowerCusp(alpha=0.5, a_minus=1.0, a_plus=1.0),
                          weight=TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=1.0),
                          delta=0.5, delta1=0.4)
        report = convergence_verdict(build_profile(spec), n_max=1500, tol=1e-8)
        assert report.verdict == CONVERGES_AT_BRILLOUIN
        assert report.n_range == (1, 1500)

    def test_render_and_json(self, tmp_path, point_mass_series):
        report = verdict_from_series(point_mass_series)
        text = report.render()
        assert "verdict" in text and "rho_hat" in text
        cli._write(tmp_path, SimpleNamespace(config_hash="beef"), "radius.json",
                   report.to_json_dict())
        d = json.loads((tmp_path / "radius.json").read_text())
        assert d["config_hash"] == "beef"
        assert d["n_range"] == list(report.n_range)
        assert d["verdict"] == OVERCONVERGENCE


class TestProperties:
    def test_monotone_refinement_keeps_verdict(self):
        # refining n_max never downgrades a Brillouin verdict to
        # over-convergence across randomized admissible planets
        rng = np.random.default_rng(20240811)
        for _ in range(10):
            alpha = rng.uniform(0.35, 1.0)
            a_m, a_p = rng.uniform(0.5, 2.0, size=2)
            g_p, g_m = rng.uniform(0.5, 2.0, size=2)
            theta0 = rng.uniform(0.7, 2.2)
            while abs(theta0 - math.pi / 2) < 0.1:
                theta0 = rng.uniform(0.7, 2.2)
            k = float(rng.integers(1, 3))
            spec = PlanetSpec(
                R=1.0, theta0=theta0,
                peak=PowerCusp(alpha=alpha, a_minus=a_m, a_plus=a_p),
                weight=TwoSidedCuspWeight(k=k, g_plus=g_p, g_minus=g_m),
                delta=0.5, delta1=0.8 * min(a_m, a_p) * 0.5**alpha,
            )
            prof = build_profile(spec)
            verdicts = []
            for n_max in (400, 800):
                series = coeff_series(prof, 0, n_max, tol=1e-8)
                verdicts.append(verdict_from_series(series).verdict)
            if verdicts[0] == CONVERGES_AT_BRILLOUIN:
                assert verdicts[1] != OVERCONVERGENCE

    def test_scaling_equivariance(self, cusp_series):
        scaled = cusp_series.scaled_by(10.0)
        rt0 = root_test(cusp_series)
        rt1 = root_test(scaled)
        assert rt1.rho_hat == pytest.approx(rt0.rho_hat, rel=1e-9)
        s0 = limsup_stat(cusp_series, beta_m=4.0)
        s1 = limsup_stat(scaled, beta_m=4.0)
        assert np.array(s1.window_maxima) == pytest.approx(
            10.0 * np.array(s0.window_maxima), rel=1e-12)
