import math

import numpy as np
import pytest

from brillouin.errors import ToleranceNotMet
from brillouin.spectral import (
    IntegerBeta,
    NoPowerLaw,
    appendix_function,
    appendix_oracle,
    build_cutoff,
    check_Linf,
    fit_tail,
    fourier_eval,
    gaussian_window,
    sample_transform,
)

THETA0 = 1.0


def octave_grid(k_base=50.0, octaves=7, per=12):
    return -np.concatenate([
        np.geomspace(k_base * 2.0**j, k_base * 2.0 ** (j + 1), per, endpoint=False)
        for j in range(octaves)
    ])


class TestCutoff:
    def test_plateau_and_support(self):
        phi = build_cutoff(THETA0, 0.2)
        assert phi(THETA0) == 1.0
        assert phi(THETA0 + 0.19) == 1.0
        assert phi(THETA0 + 0.4) == 0.0
        assert phi(THETA0 - 0.4) == 0.0
        assert 0.0 < phi(THETA0 + 0.3) < 1.0
        assert 0.0 < phi(THETA0 - 0.3) < 1.0

    def test_support_inside_domain_required(self):
        with pytest.raises(ValueError):
            build_cutoff(0.3, 0.2)  # support would cross theta = 0

    def test_smooth_through_order_six_at_plateau_edge(self):
        # 6th-order finite differences across the plateau edge converge to
        # the one-sided value 0: no derivative jump through order 6
        phi = build_cutoff(THETA0, 0.2)
        edge = THETA0 + 0.2
        offsets = np.arange(-3, 4)
        weights = np.array([1, -6, 15, -20, 15, -6, 1], dtype=float)
        d6 = [abs(np.sum(weights * phi(edge + offsets * h)) / h**6)
              for h in (2e-3, 1e-3, 5e-4)]
        assert d6[0] < 1e4
        assert d6[1] <= d6[0]
        assert d6[2] <= 1e-6

    def test_vectorized(self):
        phi = build_cutoff(THETA0, 0.1)
        xs = np.linspace(0.5, 1.5, 101)
        vals = phi(xs)
        assert vals.shape == xs.shape
        assert vals.max() == 1.0 and vals.min() == 0.0


class TestFourierEval:
    def test_zero_frequency_is_plain_integral(self):
        phi = build_cutoff(THETA0, 0.2)
        from scipy.integrate import quad
        plain, _ = quad(lambda x: phi(np.array(x)), *phi.support, epsabs=1e-13)
        got = fourier_eval(phi, 0.0, phi.support)
        assert got.real == pytest.approx(plain / math.sqrt(2 * math.pi), rel=1e-10)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_self_transform(self):
        f = lambda x: np.exp(-x * x / 2.0)
        for k in (0.5, 2.0, 5.0):
            got = fourier_eval(f, k, (-10.0, 10.0))
            assert got.real == pytest.approx(math.exp(-k * k / 2.0), rel=1e-8)

    def test_conjugate_symmetry(self):
        f = appendix_function(1.5, 0.2)
        a = fourier_eval(f, 300.0, f.support, singularities=f.singularities)
        b = fourier_eval(f, -300.0, f.support, singularities=f.singularities)
        assert b == pytest.approx(np.conj(a), abs=1e-12)

    def test_tolerance_check(self):
        f = lambda x: np.exp(-x * x / 2.0)
        with pytest.raises(ToleranceNotMet):
            fourier_eval(f, 2.0, (-10.0, 10.0), tol=1e-30)


class TestAppendixOracle:
    def test_matches_quadrature_at_large_k(self):
        beta, eps = 1.5, 0.25
        f = appendix_function(beta, eps)
        oracle = appendix_oracle(beta, eps)
        for k in (-1000.0, 1000.0):
            got = fourier_eval(f, k, f.support, singularities=f.singularities)
            assert abs(got - oracle(k)) / abs(oracle(k)) < 0.02

    def test_two_sided_modulus_symmetry(self):
        oracle = appendix_oracle(2.5, 0.25)
        assert abs(oracle(1000.0)) == pytest.approx(abs(oracle(-1000.0)), rel=1e-15)

    def test_scaled_amplitude_value(self):
        # the beta = 3/2 two-sided tail amplitude is exactly -1/2 in the
        # 1/sqrt(2 pi) convention
        oracle = appendix_oracle(1.5, 0.2)
        assert oracle(-1.0).real == pytest.approx(-0.5, rel=1e-14)
        assert oracle(-1.0).imag == pytest.approx(0.0, abs=1e-15)

    def test_integer_beta_rejected(self):
        with pytest.raises(IntegerBeta):
            appendix_oracle(2.0, 0.2)

    def test_cutoff_width_independence(self):
        # the fitted tail is a property of the cusp, not of the plateau
        # width: the (beta, amp) pairs from two widths predict the same
        # tail values within the fits' own residuals
        beta = 1.5
        ks = octave_grid()
        fits = []
        for eps in (0.2, 0.4):
            f = appendix_function(beta, eps)
            vals = sample_transform(f, f.support, ks, singularities=f.singularities)
            fits.append(fit_tail(ks, vals))
        assert abs(fits[0].beta - fits[1].beta) < 0.01
        k_ref = 3000.0
        tails = [f.amp * k_ref**-f.beta for f in fits]
        drift = abs(tails[0] - tails[1]) / abs(tails[0])
        assert drift <= fits[0].residual + fits[1].residual


class TestFitTail:
    def test_exact_power_input(self):
        ks = -np.geomspace(50, 6400, 64)
        fit = fit_tail(ks, (-ks) ** -1.5)
        assert fit.beta == pytest.approx(1.5, abs=1e-6)
        assert fit.amp == pytest.approx(1.0, rel=1e-6)
        assert fit.residual < 1e-9

    def test_appendix_sample(self):
        beta, eps = 1.5, 0.25
        f = appendix_function(beta, eps)
        ks = octave_grid()
        vals = sample_transform(f, f.support, ks, singularities=f.singularities)
        fit = fit_tail(ks, vals)
        assert 1.47 <= fit.beta <= 1.53
        oracle_amp = appendix_oracle(beta, eps)(-1.0).real
        assert abs(fit.amp - oracle_amp) / abs(oracle_amp) < 0.05

    def test_gaussian_has_no_power_law(self):
        ks = -np.geomspace(50, 6400, 64)
        with pytest.raises(NoPowerLaw):
            fit_tail(ks, np.exp(-(ks / 500.0) ** 2))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_tail(-np.geomspace(50, 6400, 10), np.ones(10))  # too few
        with pytest.raises(ValueError):
            fit_tail(-np.geomspace(50, 500, 30), np.ones(30))   # < 2 decades
        with pytest.raises(ValueError):
            fit_tail(np.geomspace(50, 6400, 30), np.ones(30))   # positive k

    def test_vanishing_outer_samples_raise_no_power_law(self):
        # a weight whose transform underflows to zero (a cutoff of width
        # 1e-300) leaves no sample to fit a line through
        ks = octave_grid()
        vals = np.zeros(ks.size, dtype=complex)
        with pytest.raises(NoPowerLaw):
            fit_tail(ks, vals)
        vals[-1] = 1e-320
        with pytest.raises(NoPowerLaw):
            fit_tail(ks, vals)

    @pytest.mark.parametrize("k_base, octaves, per", [
        (50.0, 7, 12), (40.0, 7, 10), (2.5, 7, 12), (1e-300, 7, 12), (1.0, 8, 512),
        (6.25, 7, 12), (6.25, 8, 12), (12.5, 7, 3), (50.0 / 2**14, 21, 1), (50.0 / 2**13, 20, 1),
        (3.0, 9, 3), (512.0, 7, 12),
        # the largest sample at, just under and just inside the slack below
        # the third window's end, 400
        (400.0 / 2**19, 20, 1), (400.0 / 2**19 * (1 - 1e-9), 20, 1),
        (400.0 / 2**19 * (1 - 1e-13), 20, 1)])
    def test_grid_rule_counts_the_fit_windows(self, k_base, octaves, per):
        # the config's check counts the windows from the grid's three
        # numbers; it must agree with the windows fit_tail fills
        from brillouin import cli

        grid = cli._TailGrid(k_base=k_base, octaves=octaves, samples_per_octave=per)
        try:
            cli._tail_grid(grid, "config.spectral")
            accepted = True
        except cli.ConfigError as exc:
            assert str(exc).startswith("config.spectral.k_base: the samples must fill")
            accepted = False
        ks = grid.ks
        try:
            fit_tail(ks, np.ones(ks.size))
            fitted = True
        except ValueError as exc:
            assert "three fit windows" in str(exc)
            fitted = False
        assert accepted == fitted

    def test_residual_decreases_away_from_origin(self):
        beta, eps = 1.5, 0.25
        f = appendix_function(beta, eps)
        ks = octave_grid()
        vals = sample_transform(f, f.support, ks, singularities=f.singularities)
        fit = fit_tail(ks, vals)
        amps = np.array(fit.window_amps)
        drifts = np.abs(np.diff(amps)) / abs(amps[-1])
        # consecutive window drifts shrink as the windows move out
        assert drifts[-1] < drifts[0]


class TestCheckLinf:
    def test_exact_weighting(self):
        ks = -np.geomspace(1, 6400, 80)
        rep = check_Linf(1.5, ks, (1 + np.abs(ks)) ** -1.5)
        assert rep.value == pytest.approx(1.0, rel=1e-12)
        assert not rep.unbounded_trend

    def test_zero_function(self):
        ks = -np.geomspace(1, 100, 30)
        rep = check_Linf(1.5, ks, np.zeros(30))
        assert rep.value == 0.0

    def test_overweighting_flags_growth(self):
        beta, eps = 1.5, 0.25
        f = appendix_function(beta, eps)
        ks = octave_grid()
        vals = sample_transform(f, f.support, ks, singularities=f.singularities)
        assert check_Linf(1.6, ks, vals).unbounded_trend
        assert not check_Linf(1.4, ks, vals).unbounded_trend


class TestGaussianWindow:
    def test_constant_symbol(self):
        # wide window: the truncated Gaussian mass is complete to rounding
        got = gaussian_window(lambda k: np.ones_like(k), 1000, 2.0, 0.9)
        assert got.real == pytest.approx(math.sqrt(2 * math.pi), rel=1e-6)
        # narrower window: exact value includes the truncation factor
        n, c, q = 1000, 2.0, 0.75
        got2 = gaussian_window(lambda k: np.ones_like(k), n, c, q)
        want = math.sqrt(2 * math.pi) * math.erf(n**q / (2.0 * math.sqrt(c * n)))
        assert got2.real == pytest.approx(want, rel=1e-10)

    def test_power_tail_value(self):
        n, beta = 1000, 1.5
        got = gaussian_window(lambda k: (-k) ** -beta, n, 2.0, 0.75)
        want = math.sqrt(2 * math.pi) * n**-beta
        assert abs(got) == pytest.approx(want, rel=0.01)

    def test_doubling_scaling_law(self):
        beta = 1.5
        g1 = gaussian_window(lambda k: (-k) ** -beta, 1000, 2.0, 0.75)
        g2 = gaussian_window(lambda k: (-k) ** -beta, 2000, 2.0, 0.75)
        assert abs(g2) / abs(g1) == pytest.approx(2.0**-beta, rel=0.03)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            gaussian_window(lambda k: k, 100, 2.0, 0.4)
        with pytest.raises(ValueError):
            gaussian_window(lambda k: k, 100, -1.0, 0.75)
