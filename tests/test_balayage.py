import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from brillouin import balayage, cli
from brillouin.balayage import (
    SOURCE_BLOCK,
    _distances,
    _ellipe,
    _sphere_rule,
    CONSISTENT,
    INCONCLUSIVE,
    NON_ANALYTIC,
    CutViolation,
    OnCut,
    PowerSeries,
    SurfaceMeasure,
    analyticity_probe,
    apply_A_cauchy,
    apply_A_series,
    build_Q,
    green_sphere,
    halfpower_convolution_coeff,
    mu_from_point_masses,
    plemelj_jump,
    swept_density_point,
    swept_potential,
)
from brillouin.errors import ToleranceNotMet


#: the masses and probes of the bench's balayage-three-masses experiment
THREE_MASSES = [(1.0, (0.3, 0.2, 0.5)), (0.5, (-0.4, 0.1, -0.2)), (0.25, (0.5, -0.6, 0.4))]
THREE_MASS_PROBES = (-0.6, -0.3, 0.3, 0.6)


def const_half():
    return SurfaceMeasure(lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))


def axial_mu(d):
    return lambda x: (1 - d * d) / (2.0 * (1.0 - 2.0 * d * np.asarray(x) + d * d) ** 1.5)


class TestGreenSphere:
    def test_boundary_value_vanishes(self):
        x = np.array([0.0, 0.0, 1.0 - 1e-12])
        y = np.array([0.0, 1.0, 0.0])
        assert green_sphere(x, y) == pytest.approx(0.0, abs=1e-10)

    def test_center_formula(self):
        x = np.zeros(3)
        for r in (0.25, 0.5, 0.75):
            y = np.array([0.0, r, 0.0])
            want = (1.0 / r - 1.0) / (4 * math.pi)
            assert green_sphere(x, y) == pytest.approx(want, rel=1e-14)
        on_sphere = np.array([0.0, 0.0, 1.0])
        assert green_sphere(x, on_sphere) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=3)
            a *= rng.uniform(0.05, 0.95) / np.linalg.norm(a)
            b = rng.normal(size=3)
            b *= rng.uniform(0.05, 0.95) / np.linalg.norm(b)
            assert green_sphere(a, b) == pytest.approx(green_sphere(b, a), abs=1e-12)

    def test_normal_derivative_matches_swept_density(self):
        # sigma(y) = -dG/dn_y on the sphere, via central differences in the
        # radial direction of y
        x0 = np.array([0.2, -0.1, 0.55])
        y = np.array([0.0, 0.6, 0.8])
        h = 1e-5
        d1 = (green_sphere(x0, y * (1 + h)) - green_sphere(x0, y * (1 - h))) / (2 * h)
        d2 = (green_sphere(x0, y * (1 + h / 2)) - green_sphere(x0, y * (1 - h / 2))) / h
        fd = 2 * d2 - d1  # Richardson
        assert -fd == pytest.approx(swept_density_point(x0, y), rel=1e-8)


class TestSweptDensity:
    def test_center_is_uniform(self):
        y = np.array([0.0, 0.0, 1.0])
        assert swept_density_point(np.zeros(3), y) == pytest.approx(1 / (4 * math.pi),
                                                                    rel=1e-15)

    def test_unit_total_mass(self):
        # 2D sphere quadrature of the closed-form kernel
        from brillouin.legendre import gauss_nodes
        x0 = np.array([0.0, 0.35, math.sqrt(0.49 - 0.1225)])  # |x0| = 0.7
        rule = gauss_nodes(128)
        lam = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        ct = rule.nodes
        st = np.sqrt(1 - ct**2)
        y = np.empty((128, 256, 3))
        y[:, :, 0] = st[:, None] * np.cos(lam)[None, :]
        y[:, :, 1] = st[:, None] * np.sin(lam)[None, :]
        y[:, :, 2] = ct[:, None]
        sigma = swept_density_point(x0, y.reshape(-1, 3)).reshape(128, 256)
        total = np.sum(rule.weights[:, None] * sigma) * (2 * math.pi / 256)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_exterior_potential_identity(self):
        rng = np.random.default_rng(11)
        x0 = np.array([0.7, 0.0, 0.0])
        for _ in range(10):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            obs = direction * rng.uniform(1.5, 4.0)
            got = swept_potential(x0, obs)
            want = 1.0 / np.linalg.norm(obs - x0)
            assert got == pytest.approx(want, rel=1e-8)

    def test_stacked_observers_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        x0 = np.array([0.1, -0.5, 0.45])
        obs = rng.normal(size=(7, 3))
        obs *= rng.uniform(1.2, 3.0, size=(7, 1)) / np.linalg.norm(obs, axis=1, keepdims=True)
        stacked = swept_potential(x0, obs)
        assert stacked.shape == (7,)
        scalar = [swept_potential(x0, o) for o in obs]
        assert all(type(v) is float for v in scalar)
        assert np.max(np.abs(stacked - scalar) / np.abs(scalar)) <= 1e-15

    @staticmethod
    def one_source_reference(x0, obs):
        # one source at a time, each density formed out of place: the
        # values the stacked, in-place form must reproduce bitwise
        points, weights = _sphere_rule(200)
        dist, tmp = np.empty(weights.size), np.empty(weights.size)
        sigma = (weights * ((1.0 - float(x0 @ x0)) / (4.0 * math.pi))
                 / _distances(points, x0, dist, tmp) ** 3)
        return np.array([np.add.reduce(np.divide(sigma, _distances(points, o, dist, tmp), out=tmp))
                         for o in obs])

    @pytest.mark.parametrize("n_sources, n_obs", [
        (1, 6), (3, 1), (2 * SOURCE_BLOCK + 1, 5)],
        ids=["one-source", "one-observer", "past-one-block"])
    def test_stacked_sources_match_one_source_calls(self, n_sources, n_obs):
        rng = np.random.default_rng(13)
        sources = rng.uniform(-0.55, 0.55, size=(n_sources, 3))
        obs = rng.normal(size=(n_obs, 3))
        obs *= rng.uniform(1.2, 3.0, size=(n_obs, 1)) / np.linalg.norm(obs, axis=1, keepdims=True)
        stacked = swept_potential(sources, obs)
        assert stacked.shape == (n_sources, n_obs)
        for src, row in zip(sources, stacked):
            want = self.one_source_reference(src, obs)
            assert row.tobytes() == want.tobytes()
            assert swept_potential(src, obs).tobytes() == want.tobytes()
        # one observer (3,) drops the observer axis, one source the source axis
        assert swept_potential(sources, obs[0]).tobytes() == stacked[:, 0].tobytes()
        one = swept_potential(sources[0], obs[0])
        assert type(one) is float and one == stacked[0, 0]

    def test_held_densities_do_not_grow_with_sources(self):
        # at most SOURCE_BLOCK densities of one entry per rule point are
        # alive at once, however many sources are stacked
        points, _ = _sphere_rule(200)
        obs = np.array([[2.0, 0.0, 0.0], [0.0, -1.5, 1.0]])
        rng = np.random.default_rng(3)
        peaks = []
        for n_sources in (SOURCE_BLOCK, 4 * SOURCE_BLOCK):
            sources = rng.uniform(-0.5, 0.5, size=(n_sources, 3))
            tracemalloc.start()
            try:
                swept_potential(sources, obs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] >= SOURCE_BLOCK * points.shape[0] * 8
        assert peaks[1] - peaks[0] < points.shape[0] * 8 / 2

    def test_distances_match_difference_array_form(self):
        # summed per coordinate column, the distances are bitwise those of
        # the (N, 3) difference array and its row-wise einsum
        points, _ = _sphere_rule(200)
        rng = np.random.default_rng(8)
        for centre in [np.zeros(3), *rng.normal(size=(5, 3))]:
            diff = points - centre
            want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            got = _distances(points, centre, np.empty(len(points)), np.empty(len(points)))
            assert got.tobytes() == want.tobytes()


class TestEllipe:
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])
    def test_against_mpmath(self, m):
        with mpmath.workdps(40):
            want = mpmath.ellipe(mpmath.mpf(m))
            assert abs(_ellipe(m) - want) <= 1e-14 * want

    def test_vectorized_matches_scalar(self):
        ms = np.array([0.0, 0.25, 0.5, 0.99, 1.0 - 1e-12])
        assert np.array_equal(_ellipe(ms), [_ellipe(m) for m in ms])

    def test_unit_parameter_and_nan_end_the_loop(self):
        got = _ellipe(np.array([1.0, 1.0 - 2.0**-53, math.nan]))
        assert got[:2] == pytest.approx([1.0, 1.0], rel=1e-14)
        assert math.isnan(got[2])


class TestMuFromPointMasses:
    def test_center_mass_uniform(self):
        measure = mu_from_point_masses([(1.0, (0.0, 0.0, 0.0))])
        xs = np.linspace(-0.95, 0.95, 9)
        assert measure(xs) == pytest.approx(np.full(9, 0.5), rel=1e-12)

    def test_axial_closed_form(self):
        d = 0.6
        measure = mu_from_point_masses([(1.0, (0.0, 0.0, d))])
        xs = np.linspace(-0.9, 0.9, 13)
        assert measure(xs) == pytest.approx(axial_mu(d)(xs), rel=1e-12)

    def test_total_mass_any_placement(self):
        configs = [
            [(1.0, (0.3, 0.2, 0.4))],
            [(0.5, (0.0, 0.0, 0.6)), (0.25, (-0.2, 0.5, -0.3))],
        ]
        for masses in configs:
            measure = mu_from_point_masses(masses)
            want = sum(m for m, _ in masses)
            assert measure.total_mass() == pytest.approx(want, abs=1e-10)

    def test_interior_required(self):
        with pytest.raises(ValueError):
            mu_from_point_masses([(1.0, (0.0, 0.0, 1.2))])

    @pytest.mark.parametrize("radius", [0.3, 0.9, 0.99])
    def test_off_axis_matches_longitude_quadrature(self, radius):
        # mu(x) = (1 - r^2) / (4 pi) int_0^{2 pi} (A - B cos l)^(-3/2) dl, with
        # A and B formed in 30 digits from the same double inputs; the
        # integrand peaks at l = 0 with width ~ sqrt(A - B) / r
        ct = 0.6
        pos = radius * np.array([0.8 * 0.6, 0.8 * 0.8, ct])
        measure = mu_from_point_masses([(1.0, tuple(pos))])
        xs = np.concatenate([np.linspace(-0.95, 0.95, 7), [ct - 0.01, ct, ct + 1e-3]])
        got = measure(xs)
        with mpmath.workdps(30):
            r = mpmath.sqrt(sum(mpmath.mpf(c) ** 2 for c in pos))
            ct_mp = mpmath.mpf(pos[2]) / r
            st_mp = mpmath.sqrt(1 - ct_mp**2)
            for x, value in zip(xs, got):
                x = mpmath.mpf(x)
                A = 1 + r * r - 2 * r * x * ct_mp
                B = 2 * r * mpmath.sqrt(1 - x * x) * st_mp
                width = mpmath.sqrt(A - B) / r
                cuts = [0] + [c * width for c in (0.25, 1, 4) if c * width < mpmath.pi]
                integral = 2 * mpmath.quad(lambda lam: (A - B * mpmath.cos(lam)) ** -1.5,
                                           cuts + [mpmath.pi])
                want = (1 - r * r) / (4 * mpmath.pi) * integral
                assert abs(value - want) <= 1e-13 * want


class TestBuildQ:
    def test_unit_measure_at_zero(self):
        assert build_Q(const_half(), 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_closed_form_antiderivative(self):
        p = 0.5
        want = (math.sqrt(1 + p) - math.sqrt(1 - p)) / p
        assert build_Q(const_half(), p) == pytest.approx(want, rel=1e-10)

    def test_cut_violation(self):
        for p in (1.0, 1.5, -1.0, -3.0):
            with pytest.raises(CutViolation):
                build_Q(const_half(), p)

    def test_potential_consistency_with_direct_kernel(self):
        # the axis potential of an axial unit mass both ways:
        # |V| = Q(p(z)) / sqrt(z^2 + 1) with the swept measure
        d, z = 0.6, 3.0
        measure = SurfaceMeasure(axial_mu(d))
        p = 2.0 * z / (z * z + 1.0)
        lhs = build_Q(measure, p) / math.sqrt(z * z + 1.0)
        want = 1.0 / (z - d)  # magnitude of the attractive potential
        assert lhs == pytest.approx(want, rel=1e-8)


class TestOperatorA:
    def test_binomial_maps_to_ones(self):
        c = np.empty(51)
        c[0] = 1.0
        for k in range(1, 51):
            c[k] = c[k - 1] * (k - 0.5) / k  # Gamma(k+1/2) / (sqrt(pi) k!)
        out = apply_A_series(PowerSeries(c))
        assert np.max(np.abs(out.coeffs - 1.0)) <= 1e-12

    def test_low_order_values(self):
        assert apply_A_series(PowerSeries([1.0])).coeffs[0] == pytest.approx(1.0, abs=0)
        assert apply_A_series(PowerSeries([0.0, 1.0])).coeffs[1] == pytest.approx(2.0, rel=1e-15)

    def test_multiplier_matches_gamma_ratio(self):
        for k in (0, 1, 5, 20, 50):
            want = math.sqrt(math.pi) * sp_gamma(k + 1.0) / sp_gamma(k + 0.5)
            got = apply_A_series(PowerSeries(np.eye(k + 1)[k])).coeffs[k]
            assert got == pytest.approx(want, rel=1e-13)

    def test_convolution_route_identity(self):
        # d/dp of the half-power convolution image, scaled by sqrt(p),
        # reproduces the diagonal multiplier exactly
        for k in (0, 1, 7, 23):
            conv = halfpower_convolution_coeff(k)
            assert conv == pytest.approx(
                math.sqrt(math.pi) * sp_gamma(k + 1.0) / sp_gamma(k + 1.5), rel=1e-13)
            multiplier = apply_A_series(PowerSeries(np.eye(k + 1)[k])).coeffs[k]
            assert conv * (k + 0.5) == pytest.approx(multiplier, rel=1e-14)

    def test_cauchy_log_value(self):
        assert apply_A_cauchy(const_half(), 2.0) == pytest.approx(math.log(3.0), rel=1e-10)

    def test_cauchy_asymptote(self):
        assert apply_A_cauchy(const_half(), 1e8) == pytest.approx(1.0, rel=1e-7)

    def test_on_cut_rejected(self):
        with pytest.raises(OnCut):
            apply_A_cauchy(const_half(), 0.3)

    def test_route_equivalence_const(self):
        # Maclaurin route: A turns moments into the Cauchy series
        from brillouin.legendre import gauss_nodes
        rule = gauss_nodes(200)
        xg, wg = rule.map_to(-1.0, 1.0)
        p = 0.3
        moments = np.array([np.sum(wg * 0.5 * xg**k) for k in range(48)])
        series_val = np.polynomial.polynomial.polyval(p, moments)
        cauchy_val = apply_A_cauchy(const_half(), 1.0 / p)
        assert series_val == pytest.approx(cauchy_val.real, rel=1e-9)

    def test_route_equivalence_random_measures(self):
        from brillouin.legendre import gauss_nodes
        rule = gauss_nodes(200)
        xg, wg = rule.map_to(-1.0, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = rng.uniform(-0.7, 0.7)
            measure = SurfaceMeasure(axial_mu(d))
            p = rng.uniform(0.2, 0.5)
            moments = np.array([np.sum(wg * measure(xg) * xg**k) for k in range(60)])
            series_val = np.polynomial.polynomial.polyval(p, moments)
            cauchy_val = apply_A_cauchy(measure, 1.0 / p)
            assert series_val == pytest.approx(cauchy_val.real, rel=1e-8)


class TestPlemelj:
    def test_constant_measure_jump(self):
        jump, recovered = plemelj_jump(const_half(), 0.5)
        assert jump == pytest.approx(-1j * math.pi / 2, rel=1e-8)
        assert recovered == pytest.approx(0.5, rel=1e-8)

    def test_axial_recovery(self):
        d = 0.6
        measure = mu_from_point_masses([(1.0, (0.0, 0.0, d))])
        exact = axial_mu(d)
        for x0 in (-0.8, -0.3, 0.4, 0.75):
            _, recovered = plemelj_jump(measure, x0)
            assert recovered.real == pytest.approx(exact(x0), abs=1e-6)
            assert abs(recovered.imag) < 1e-9

    def test_holder_cusp_still_recovered(self):
        # Plemelj needs only Holder continuity; convergence in the heights
        # is slower, so the tolerance is looser
        x0 = 0.4

        def mu(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + np.sqrt(np.abs(x - x0))

        _, recovered = plemelj_jump(SurfaceMeasure(mu), x0)
        assert recovered.real == pytest.approx(1.0, rel=2e-2)

    @pytest.mark.parametrize("mu, probes", [
        (mu_from_point_masses(THREE_MASSES), THREE_MASS_PROBES),
        (SurfaceMeasure(lambda x: 1.0 + np.sqrt(np.abs(np.asarray(x, dtype=float) - 0.4))),
         (0.4,)),
        (SurfaceMeasure(lambda x: 1.0 + np.abs(np.asarray(x, dtype=float) - 0.5) ** 1.5),
         (0.3,)),
    ], ids=["three-masses", "holder-cusp", "power-1.5"])
    def test_one_transform_per_height_gives_the_two_sided_jumps(self, monkeypatch, mu, probes):
        # for a real mu the value below the cut is the conjugate of the one
        # above, bitwise, so one Cauchy transform per height gives the
        # jumps of the route that evaluates both sides
        def value(zeta):
            try:
                return apply_A_cauchy(mu, zeta)
            except ToleranceNotMet as exc:
                return exc.value

        def recorded(measure, zeta, tol=1e-12):
            try:
                got = apply_A_cauchy(measure, zeta, tol)
            except ToleranceNotMet as exc:
                ups.append((zeta, exc.value))
                raise
            ups.append((zeta, got))
            return got

        heights = (1e-2, 1e-3, 1e-4)
        monkeypatch.setattr(balayage, "apply_A_cauchy", recorded)
        for x0 in probes:
            ups = []
            plemelj_jump(mu, x0, heights)
            assert [zeta for zeta, _ in ups] == [complex(x0, e) for e in heights]
            for e, (_, up) in zip(heights, ups):
                two_sided = value(complex(x0, e)) - value(complex(x0, -e))
                one_sided = up - up.conjugate()
                assert (one_sided.real.hex(), one_sided.imag.hex()) == \
                    (two_sided.real.hex(), two_sided.imag.hex())

    def test_margin_enforced(self):
        for bad in (0.0, 1e-4, 0.9999, -1.0):
            with pytest.raises(ValueError):
                plemelj_jump(const_half(), bad)

    @pytest.mark.parametrize("eps_seq", [(1e-2, -1e-3), (1e-2, 1e-2, 1e-3), (1e-2, 0.0)],
                             ids=["negative", "repeated", "zero"])
    def test_invalid_heights_rejected(self, eps_seq):
        # a negative height once gave a wrong density, a repeated one a
        # ZeroDivisionError from the Neville tableau
        measure = mu_from_point_masses([(1.0, (0.3, 0.2, 0.5))])
        with pytest.raises(ValueError, match="positive, distinct heights"):
            plemelj_jump(measure, 0.5, eps_seq=eps_seq)

    def test_unstable_extrapolation_detected(self):
        from brillouin.balayage import ExtrapolationUnstable

        # an oscillation much faster than the smoothing heights makes the
        # jump values non-polynomial in the height: corrections grow
        def mu(x):
            x = np.asarray(x, dtype=float)
            return 0.5 + 0.3 * np.sin(3000.0 * x)

        with pytest.raises(ExtrapolationUnstable):
            plemelj_jump(SurfaceMeasure(mu), 0.5)


def fast_sine(x):
    # an oscillation no panel halving of the Q and AQ rules resolves
    return 0.5 + 0.3 * np.sin(3000.0 * np.asarray(x, dtype=float))


class TestToleranceContract:
    def test_build_Q_raises_when_the_levels_run_out(self):
        # the last halving moves the value by ~4e-3 against tol 1e-12; the
        # exception carries the value the function used to return silently
        with pytest.raises(ToleranceNotMet) as info:
            build_Q(SurfaceMeasure(fast_sine), 0.5)
        assert info.value.err > 1e-12
        assert info.value.value == 1.035856855668628

    def test_apply_A_cauchy_raises_when_the_levels_run_out(self):
        with pytest.raises(ToleranceNotMet) as info:
            apply_A_cauchy(SurfaceMeasure(fast_sine), 2.0)
        assert info.value.err > 1e-12
        assert info.value.value == 1.0987462609048062 + 0j

    def test_apply_A_cauchy_raises_near_the_sphere(self):
        # mu of a mass at |x0| = 0.95 peaks more sharply than the rule's
        # uniform panels resolve (its value is off by ~1e-5)
        with pytest.raises(ToleranceNotMet):
            apply_A_cauchy(mu_from_point_masses([(1.0, (0.0, 0.0, 0.95))]), 2.0)

    @pytest.mark.parametrize("mu, x0, jump_imag, recovered_real", [
        (lambda x: 1.0 + np.sqrt(np.abs(x - 0.4)), 0.4,
         "-0x1.45147fa95117ap+1", "0x1.02b0c4c698a79p+0"),
        (lambda x: 1.0 + np.abs(x - 0.5) ** 1.5, 0.3,
         "-0x1.06dac38ad0242p+1", "0x1.16e5b7ca12429p+0"),
        (fast_sine, 0.5, None, None),
    ], ids=["holder-cusp", "power-1.5", "fast-sine"])
    def test_plemelj_uses_cauchy_values_that_missed_tol(self, monkeypatch, mu, x0, jump_imag,
                                                          recovered_real):
        # plemelj_jump's Neville check is its own error control: a Cauchy
        # value that exhausted its ladder is used as it stands, so the
        # results are the ones from before apply_A_cauchy raised
        missed = []

        def counted(measure, zeta, tol=1e-12):
            try:
                return apply_A_cauchy(measure, zeta, tol)
            except ToleranceNotMet:
                missed.append(zeta)
                raise

        monkeypatch.setattr(balayage, "apply_A_cauchy", counted)
        measure = SurfaceMeasure(lambda x: mu(np.asarray(x, dtype=float)))
        if jump_imag is None:
            with pytest.raises(balayage.ExtrapolationUnstable):
                plemelj_jump(measure, x0)
        else:
            jump, recovered = plemelj_jump(measure, x0)
            assert jump == complex(0.0, float.fromhex(jump_imag))
            assert recovered == complex(float.fromhex(recovered_real), 0.0)
        assert missed


class TestAnalyticityProbe:
    def test_analytic_measure(self):
        rep = analyticity_probe(SurfaceMeasure(lambda x: 1.0 / (2.0 - x)), 0.5)
        assert rep.classification == CONSISTENT

    def test_cusp_measure(self):
        def mu(x):
            x = np.asarray(x, dtype=float)
            return np.abs(x - 0.5) ** 1.5 + 1.0 / (2.0 - x)

        rep = analyticity_probe(SurfaceMeasure(mu), 0.5)
        assert rep.classification == NON_ANALYTIC

    def test_noisy_samples_inconclusive(self):
        rng = np.random.default_rng(42)

        def mu(x):
            x = np.asarray(x, dtype=float)
            return 1.0 / (2.0 - x) + 1e-3 * rng.standard_normal(x.shape)

        rep = analyticity_probe(SurfaceMeasure(mu), 0.5)
        assert rep.classification == INCONCLUSIVE

    def test_plemelj_recovery_with_probe_flag(self):
        # a cusped measure is still recovered pointwise away from the cusp
        # while the probe flags the non-analyticity at the cusp itself
        x_cusp = 0.5

        def mu(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + np.abs(x - x_cusp) ** 1.5

        measure = SurfaceMeasure(mu)
        _, recovered = plemelj_jump(measure, 0.3)
        assert recovered.real == pytest.approx(mu(0.3), rel=1e-5)
        assert analyticity_probe(measure, x_cusp).classification == NON_ANALYTIC


class TestSurfaceMeasureIO:
    def test_csv_round_trip(self, tmp_path):
        measure = const_half()
        xs = np.linspace(-0.9, 0.9, 19)
        path = tmp_path / "mu.csv"
        cli._write(tmp_path, SimpleNamespace(config_hash="feed"), "mu.csv",
                   {"x": xs, "mu": measure(xs)})
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash: feed"
        assert lines[1] == "x,mu"
        assert len(lines) == 2 + 19

    def test_from_samples_interpolates(self):
        xs = np.linspace(-1, 1, 201)
        measure = SurfaceMeasure.from_samples(xs, xs**2)
        assert measure(0.5) == pytest.approx(0.25, abs=1e-4)

    def test_csv_import_round_trip(self, tmp_path):
        d = 0.6
        original = SurfaceMeasure(axial_mu(d))
        path = tmp_path / "mu.csv"
        xs = np.linspace(-0.99, 0.99, 397)
        cli._write(tmp_path, SimpleNamespace(config_hash="abcd"), "mu.csv",
                   {"x": xs, "mu": original(xs)})
        loaded = SurfaceMeasure.from_csv(path)
        probe = np.linspace(-0.9, 0.9, 11)
        assert loaded(probe) == pytest.approx(original(probe), rel=1e-4)

    @pytest.mark.parametrize("make", [
        lambda path: mu_from_point_masses(THREE_MASSES),
        lambda path: SurfaceMeasure.from_samples([-1.0, 0.0, 1.0], [0.25, 0.5, 1.0]),
        lambda path: SurfaceMeasure.from_csv(path),
        lambda path: SurfaceMeasure(axial_mu(0.6)),
    ], ids=["point-masses", "samples", "csv", "callable"])
    def test_scalar_in_float_out(self, tmp_path, make):
        path = tmp_path / "mu.csv"
        cli._write(tmp_path, SimpleNamespace(config_hash="abcd"), "mu.csv",
                   {"x": np.linspace(-1.0, 1.0, 21), "mu": np.linspace(0.0, 1.0, 21)})
        measure = make(path)
        for x in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(measure(x)) is float
        xs = np.array([-0.5, 0.5])
        values = measure(xs)
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert values[1] == measure(0.5)

    def test_power_series_validation(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0, float("inf")])
        s = PowerSeries([1.0, 2.0, 3.0])
        assert s.eval(0.1) == pytest.approx(1.0 + 0.2 + 0.03, rel=1e-15)
