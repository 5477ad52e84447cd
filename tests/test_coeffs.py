import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from brillouin import coeffs
from brillouin._panels import _rule01, composite_nodes
from brillouin.coeffs import (
    COMPACT_EVERY,
    _sweep,
    coeff_scaled,
    coeff_series,
    potential_direct,
    potential_partial_sum,
)
from brillouin.errors import ToleranceNotMet
from brillouin.legendre import legendre_eval
from brillouin.model import (
    PlanetSpec,
    PowerCusp,
    SmoothPowerWeight,
    build_profile,
    point_mass_planet,
)

from conftest import THETA0, make_mollified


def _reference_sweep(profile, n_max, level):
    """The sweep without node compaction, in plain array expressions.

    Returns the values, sum |terms| / (n+3) per order (the scale of the
    rounding a change of summation order may cause), and the damping
    e^{-(n_max+4) F} left at the end.
    """
    nodes, wts = coeffs.theta_grid(profile, n_max, level)
    x = np.cos(nodes)
    base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)
    E = np.exp(-profile.eval_F(nodes))
    EL = np.exp(-profile.eval_L(nodes))
    pw = E**3
    pwL = EL**3
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    out = np.empty(n_max + 1)
    scale = np.empty(n_max + 1)
    for n in range(n_max + 1):
        P = p_prev if n == 0 else p_cur
        term = P * pw * (1.0 - pwL)
        out[n] = np.dot(base, term) / (n + 3.0)
        scale[n] = np.sum(np.abs(base * term)) / (n + 3.0)
        pw *= E
        pwL *= EL
        if n >= 1:
            p_cur, p_prev = ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1), p_cur
    return out, scale, pw


def _assert_matches_reference(profile, n_max, level=0):
    """Compare the sweep with the reference; returns both and the final
    reference damping."""
    ref, scale, pw = _reference_sweep(profile, n_max, level)
    got = _sweep(profile, n_max, level)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= np.maximum(1e-14 * np.abs(ref), 1e-14 * scale))
    return got, ref, pw


class TestSweepCompaction:
    @pytest.mark.parametrize("name", ["cusp_profile", "alpha1_profile", "t1_profile"])
    def test_matches_uncompacted_sweep(self, request, name):
        _, _, pw = _assert_matches_reference(request.getfixturevalue(name), 1000)
        # the case is meaningful only if compaction dropped nodes
        assert 0 < np.count_nonzero(pw) < pw.size

    @staticmethod
    def _steep_peak_on_coarse_grid(monkeypatch):
        profile = build_profile(PlanetSpec(
            R=1.0, theta0=1.0, peak=PowerCusp(alpha=1.0, a_minus=50.0, a_plus=50.0),
            weight=SmoothPowerWeight(k=1, g_k=1.0), delta=0.5, delta1=0.4))
        grid = composite_nodes(np.linspace(0.0, math.pi, 65))
        monkeypatch.setattr(coeffs, "theta_grid", lambda profile, n, level=0: grid)
        return profile, grid

    def test_handful_of_live_nodes_near_peak(self, monkeypatch):
        # a steep peak on a coarse uniform grid: by n = 3000 only the few
        # nodes where e^{-F} > 1/2 keep a nonzero running product in the
        # reference (it stalls at the smallest subnormal there instead of
        # reaching 0); the sweep drops them once it falls below the smallest
        # normal, and their terms were below it all along
        profile, grid = self._steep_peak_on_coarse_grid(monkeypatch)
        _, _, pw = _assert_matches_reference(profile, 3000)
        live = np.flatnonzero(pw)
        assert 0 < live.size <= 10
        assert np.all(np.abs(grid[0][live] - profile.theta0) < 0.02)

    def test_stalled_subnormal_nodes_are_dropped(self, monkeypatch):
        # most nodes the reference still carries at n = 3000 hold a stalled
        # subnormal damping; the sweep keeps only those above the smallest
        # normal and still matches
        profile, _ = self._steep_peak_on_coarse_grid(monkeypatch)
        kept = []
        compact = coeffs._ClosedRadial.compact

        def recording_compact(radial, live):
            kept.append(int(np.count_nonzero(live)))
            compact(radial, live)

        monkeypatch.setattr(coeffs._ClosedRadial, "compact", recording_compact)
        _, _, pw = _assert_matches_reference(profile, 3000)
        normal = np.count_nonzero(pw >= np.finfo(float).tiny)
        assert 0 < normal < np.count_nonzero(pw)
        assert kept[-1] == normal

    def test_short_sweep_is_bitwise_unchanged(self, t1_profile):
        # no compaction step runs below COMPACT_EVERY orders, so not even
        # the summation order changes
        n_max = COMPACT_EVERY - 2
        got, ref, _ = _assert_matches_reference(t1_profile, n_max)
        assert np.array_equal(got, ref)


class TestClosedRadialSkip:
    @pytest.mark.parametrize("r_m", [0.05, None])
    def test_factor_skipped_only_where_it_rounds_to_one(self, r_m):
        # r_m = 0.05: a constant inner radius under a varying surface makes
        # L vary, so 1 - e^{-(n+3)L} reaches exactly 1.0 at different orders
        # per node; r_m = None (r_M / 2): e^{-L} = 1/2 at every node, so the
        # factor is 1 - 2^-53 at n = 50 and exactly 1.0 from n = 51 on
        prof = build_profile(PlanetSpec(
            R=1.0, theta0=THETA0, peak=PowerCusp(alpha=1.0, a_minus=1.0, a_plus=1.0),
            weight=SmoothPowerWeight(k=1, g_k=1.0), delta=0.5, delta1=0.4, r_m=r_m))
        nodes, _ = coeffs.theta_grid(prof, 100)
        EL = np.exp(-prof.eval_L(nodes))
        if r_m is not None:
            assert EL.min() < 0.25 * EL.max()
        radial = coeffs._ClosedRadial(prof, nodes, 0)
        pwL = EL**3
        out = np.empty_like(nodes)
        skipped, exact = [], []
        for n in range(101):
            div, factor = radial.weight(n, out)
            ref = 1.0 - pwL
            assert div == n + 3.0
            exact.append(bool(np.all(ref == 1.0)))
            skipped.append(factor is None)
            if factor is not None:
                assert np.array_equal(factor, ref)
            radial.advance()
            pwL *= EL
        first = skipped.index(True)
        # the switch falls mid-sweep, at most one order after the factor
        # became exactly 1.0, and never reverts
        assert 0 < exact.index(True) <= first <= exact.index(True) + 1
        assert all(skipped[first:])
        assert all(exact[n] for n in range(first, 101))


def _old_radial_weight(profile, thetas, n):
    """The per-order radial weight the engine replaced: exponent-graded
    panels built for order n, v evaluated afresh for every order."""
    cap = coeffs.RADIAL_EXPONENT_CAP / (n + 3.0)
    u_edges = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 28.0, coeffs.RADIAL_EXPONENT_CAP])
    gx, gw = _rule01()
    rM = profile.eval_rM(thetas)
    s_hi = np.minimum(profile.eval_L(thetas), cap)
    bp = u_edges[None, :] / coeffs.RADIAL_EXPONENT_CAP * s_hi[:, None]
    acc = np.zeros(thetas.size)
    for j in range(len(u_edges) - 1):
        a = bp[:, j][:, None]
        h = (bp[:, j + 1] - bp[:, j])[:, None]
        s = a + h * gx[None, :]
        w = h * gw[None, :]
        vals = profile.eval_v(rM[:, None] * np.exp(-s), thetas[:, None] * np.ones_like(s))
        acc += np.sum(w * np.exp(-(n + 3.0) * s) * vals, axis=1)
    return acc


def _old_coeff_scaled(profile, n, tol):
    """The per-order quadrature ladder the engine replaced, for general
    columns: a fresh grid, Legendre evaluation and radial weight per level."""
    prev, best, err = None, None, math.inf
    for level in range(3):
        nodes, wts = coeffs.theta_grid(profile, n, level)
        damp = np.exp(-(n + 3.0) * profile.eval_F(nodes))
        W = _old_radial_weight(profile, nodes, n)
        P = legendre_eval(n, np.cos(nodes))
        cur = float(np.sum(wts * np.sin(nodes) * P * damp * W))
        if prev is not None:
            err = max(abs(cur - prev), 1e-300)
            best = cur
            if err <= tol:
                return cur, err
        prev = cur
    return best, err


def _column_planet(radial_power=0):
    """The alpha = 1 planet with its column passed as the callable
    v = (r/R)^p g(theta - theta0) / sqrt(sin theta), so it is not
    radial-constant; p = 0 gives the same planet as ``alpha1_profile``."""
    weight = SmoothPowerWeight(k=1, g_k=1.0)

    def v(r, theta):
        return r**radial_power * weight.evaluate(theta - THETA0) / np.sqrt(np.sin(theta))

    return build_profile(PlanetSpec(
        R=1.0, theta0=THETA0, peak=PowerCusp(alpha=1.0, a_minus=1.0, a_plus=1.0),
        weight=weight, v=v, delta=0.5, delta1=0.4))


class TestColumnEngine:
    """General columns v(r, theta) go through the same sweep as the rest."""

    def _assert_matches_old_path(self, profile, n_max, ns, tol):
        series = coeff_series(profile, 0, n_max, tol=tol)
        for n in ns:
            ref, err_ref = _old_coeff_scaled(profile, n, tol)
            new, err_new = series.value_at(n), series.errors[n]
            assert abs(new - ref) <= 10 * (err_new + err_ref) + 1e-15

    def test_mollified_column_matches_old_path(self):
        prof, _ = make_mollified(0.6, 2.0, 1.0, 0.03)
        self._assert_matches_old_path(prof, 12, range(13), tol=1e-9)

    def test_alpha1_column_matches_old_path(self):
        self._assert_matches_old_path(_column_planet(), 60, range(0, 61, 4), tol=1e-10)

    def test_radially_varying_column_matches_closed_radial_weight(self):
        # v = (r/R)^2 g / sqrt(sin) has W_n = (r_M/R)^2 (1 - e^{-(n+5)L}) / (n+5)
        # g / sqrt(sin); orders up to 200 cross blocks where the radial cap binds
        prof = _column_planet(radial_power=2)
        n_max = 200
        got = _sweep(prof, n_max, 1)
        nodes, wts = coeffs.theta_grid(prof, n_max, 1)
        L = prof.eval_L(nodes)
        base = wts * np.sqrt(np.sin(nodes)) * prof.weight.evaluate(nodes - THETA0) \
            * prof.eval_rM(nodes) ** 2
        for n in range(n_max + 1):
            W = (1.0 - np.exp(-(n + 5.0) * L)) / (n + 5.0)
            terms = base * legendre_eval(n, np.cos(nodes)) \
                * np.exp(-(n + 3.0) * prof.eval_F(nodes)) * W
            assert abs(got[n] - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    @pytest.mark.parametrize("name", ["alpha1_profile", "column"])
    def test_late_start_matches_full_sweep(self, request, name):
        # orders below n_min only advance the recurrence
        prof = _column_planet() if name == "column" else request.getfixturevalue(name)
        full = _sweep(prof, 300, 0)
        late = _sweep(prof, 300, 0, n_min=150)
        assert late.size == 151
        assert np.all(np.abs(late - full[150:]) <= 1e-13 * np.max(np.abs(full[150:])))

    @pytest.mark.parametrize("name", ["mollified", "column"])
    def test_single_order_matches_series(self, name):
        # the two differ only in grid (built for n against n_max) and rounding;
        # 1e-15 covers rounding where an error estimate reads below it
        if name == "mollified":
            prof, n_max, tol = make_mollified(0.6, 2.0, 1.0, 0.03)[0], 12, 1e-9
        else:
            prof, n_max, tol = _column_planet(), 60, 1e-10
        series = coeff_series(prof, 0, n_max, tol=tol)
        for n in (1, n_max // 2, n_max):
            single, err = coeff_scaled(prof, n, tol=tol)
            assert abs(single - series.value_at(n)) <= err + series.errors[n] + 1e-15


class TestOraclePaths:
    def test_ball_orthogonality(self, ball):
        for n in (1, 3, 25, 50):
            val, err = coeff_scaled(ball, n)
            assert abs(val) <= 1e-12
            assert err == 0.0

    def test_point_mass_closed_form(self, point_mass):
        val, err = coeff_scaled(point_mass, 2)
        assert val == pytest.approx(0.10125, rel=1e-14)

    def test_closed_series_matches_single_orders(self, point_mass, ball):
        pm = point_mass_planet(0.8, 2.5, 1.5, R=1.1)
        for planet in (point_mass, pm, ball):
            for n_min, n_max in ((0, 2000), (37, 411)):
                series = coeff_series(planet, n_min, n_max)
                # each single order is an O(n) recurrence: check a sample
                ns = list(range(n_min, n_max + 1, 23)) + [n_max]
                got = np.array([series.value_at(n) for n in ns])
                want = np.array([planet.closed_coeff_scaled(n) for n in ns])
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_point_mass_series_matches_independent_evaluator(self, point_mass_series):
        ns = point_mass_series.n
        want = -(0.9 ** ns.astype(float)) * eval_legendre(ns, 0.5)
        sel = ns <= 200
        rel = np.abs(point_mass_series.values[sel] - want[sel]) / np.abs(want[sel])
        assert rel.max() <= 1e-10


class TestQuadraturePath:
    def test_mollified_masses_match_factorized_oracle(self):
        # the quadrature path is validated against a separable bump whose
        # coefficients factor into two 1D integrals
        from brillouin.legendre import gauss_nodes
        rule = gauss_nodes(64)
        r0, theta_p = 0.6, 2.0
        for width in (0.04, 0.02, 0.01):
            prof, eta = make_mollified(r0, theta_p, 1.0, width)

            def factor_theta(n):
                x, w = rule.map_to(theta_p - 4 * width, theta_p + 4 * width)
                from brillouin.legendre import legendre_eval
                return float(np.sum(w * legendre_eval(n, np.cos(x)) * eta(x - theta_p)))

            def factor_r(n):
                x, w = rule.map_to(r0 - 4 * width, r0 + 4 * width)
                return float(np.sum(w * x**n * eta(x - r0)))

            for n in (0, 5, 12):
                got, err = coeff_scaled(prof, n, tol=1e-9)
                want = -factor_theta(n) * factor_r(n)
                assert got == pytest.approx(want, rel=5e-4)

    def test_mollified_masses_approach_point_limit(self, point_mass):
        pm = point_mass_planet(0.6, 2.0, 1.0)
        devs = []
        for width in (0.04, 0.02, 0.01):
            prof, _ = make_mollified(0.6, 2.0, 1.0, width)
            got, _ = coeff_scaled(prof, 5, tol=1e-9)
            devs.append(abs(got - pm.closed_coeff_scaled(5)))
        assert devs[0] > devs[1] > devs[2]
        # second-moment convergence: roughly a factor 4 per halving
        assert devs[0] / devs[1] > 2.5
        assert devs[1] / devs[2] > 2.5

    def test_single_order_matches_sweep(self, cusp_profile, cusp_series):
        for n in (100, 700, 1500):
            single, err = coeff_scaled(cusp_profile, n, tol=1e-12)
            assert single == pytest.approx(cusp_series.value_at(n), rel=1e-10)

    def test_refining_tolerance_is_stable(self):
        prof, _ = make_mollified(0.6, 2.0, 1.0, 0.02)
        coarse, _ = coeff_scaled(prof, 7, tol=1e-7)
        fine, _ = coeff_scaled(prof, 7, tol=1e-8)
        assert abs(fine - coarse) <= 1e-7

    def test_no_overflow_at_large_order(self, cusp_profile):
        val, err = coeff_scaled(cusp_profile, 10_000, tol=1e-8)
        assert math.isfinite(val)
        assert abs(val) < 1.0

    def test_doubling_changes_less_than_reported_error(self, cusp_profile):
        from brillouin.coeffs import _sweep
        coarse = _sweep(cusp_profile, 600, level=0)
        fine = _sweep(cusp_profile, 600, level=1)
        series = coeff_series(cusp_profile, 0, 600, tol=1e-10)
        assert np.all(np.abs(fine - coarse)[series.n] <= series.errors)


class TestSeries:
    def test_ball_series_zero(self, ball):
        series = coeff_series(ball, 1, 50)
        assert np.all(np.abs(series.values) <= 1e-12)

    def test_envelope_bound_holds(self, cusp_profile, cusp_series):
        bound = 4 * math.pi * cusp_profile.G * cusp_profile.vmax
        assert np.max(np.abs(cusp_series.values)) <= bound

    def test_error_estimates_positive(self, cusp_series):
        assert np.all(cusp_series.errors > 0)
        assert np.all(cusp_series.ok)

    def test_window_and_value_access(self, cusp_series):
        w = cusp_series.window(100, 200)
        assert w.n_min == 100 and w.n_max == 200
        assert w.value_at(150) == cusp_series.value_at(150)
        with pytest.raises(IndexError):
            w.value_at(99)

    def test_fingerprint_tracks_planet(self, cusp_profile, cusp_series):
        assert cusp_series.fingerprint == cusp_profile.fingerprint

    def test_csv_and_json_export(self, tmp_path, point_mass_series):
        csv_path = tmp_path / "series.csv"
        point_mass_series.to_csv(csv_path, config_hash="deadbeef")
        text = csv_path.read_text()
        assert text.startswith("# config_hash: deadbeef\nn,C_scaled,err\n")
        assert text.count("\n") == 2 + len(point_mass_series.n)
        d = point_mass_series.to_json_dict(config_hash="deadbeef")
        assert d["config_hash"] == "deadbeef"
        assert d["fingerprint"] == point_mass_series.fingerprint

    def test_cross_pipeline_against_reduction_integral(self, t1_profile):
        # independent oracle: the localized oscillatory integral, assembled
        # with the finite-order factors, reproduces the quadrature value
        from brillouin.asymptotics import j_to_coeff, oscillatory_J
        n = 500
        J = oscillatory_J(t1_profile, n)
        direct, _ = coeff_scaled(t1_profile, n, tol=1e-14)
        assert j_to_coeff(J, n, asymptotic=False) == pytest.approx(direct, rel=0.005)

    def test_inner_integral_routes_agree(self):
        # log-depth and direct radial integration of the column weight
        from brillouin.asymptotics import exact_inner
        from brillouin.model import PlanetSpec, QuadraticPeak, build_profile

        def v(r, theta):
            return np.asarray(r, dtype=float) * (2.0 + np.cos(3.0 * np.asarray(theta)))

        prof = build_profile(PlanetSpec(R=1.0, theta0=1.0, peak=QuadraticPeak(c=2.0),
                                        weight=None, v=v, delta=0.5, delta1=0.4))
        for theta, n in ((2.0, 5), (1.3, 40), (0.7, 200)):
            a = exact_inner(prof, theta, n, variable="s")
            b = exact_inner(prof, theta, n, variable="r")
            assert a == pytest.approx(b, rel=1e-11)
        # narrow bump: both routes resolve it to their shared accuracy
        bump, _ = make_mollified(0.6, 2.0, 1.0, 0.02)
        a = exact_inner(bump, 2.0, 5, variable="s")
        b = exact_inner(bump, 2.0, 5, variable="r")
        assert a == pytest.approx(b, rel=1e-4)


class TestPotentials:
    def test_ball_point_equivalence(self, ball):
        assert potential_direct(ball, 2.0) == pytest.approx(-(4 * math.pi / 3) / 2, rel=1e-14)

    def test_point_mass_kernel(self, point_mass):
        z = 3.0
        want = -1.0 / math.sqrt(z * z - 2 * z * 0.9 * 0.5 + 0.81)
        assert potential_direct(point_mass, z) == pytest.approx(want, rel=1e-14)

    def test_far_field_limit(self, cusp_profile, cusp_series):
        z = 1e6
        v = potential_direct(cusp_profile, z, tol=1e-13)
        assert v * z == pytest.approx(cusp_series.value_at(0), rel=1e-5)

    def test_partial_sum_ball(self, ball):
        series = coeff_series(ball, 0, 10)
        val, last = potential_partial_sum(series, 2.0, 0)
        assert val == pytest.approx(-(4 * math.pi / 3) / 2, rel=1e-15)
        val10, _ = potential_partial_sum(series, 2.0, 10)
        assert val10 == val

    def test_partial_sum_point_mass_above_radius(self, point_mass_series, point_mass):
        val, last = potential_partial_sum(point_mass_series, 1.05, 400)
        assert val == pytest.approx(point_mass.closed_potential(1.05), rel=1e-6)

    def test_partial_sum_below_reference_sphere(self, point_mass_series, point_mass):
        # converges below R because the true singularity sits at 0.9
        val, last = potential_partial_sum(point_mass_series, 0.95, 2000)
        assert val == pytest.approx(point_mass.closed_potential(0.95), rel=1e-6)

    def test_geometric_tail_bound(self, cusp_profile, cusp_series):
        # truncation error bounded by K (R/z)^N with a constant fitted on
        # the early orders: the scaled residuals must not grow
        z = 1.25
        direct = potential_direct(cusp_profile, z, tol=1e-10)
        orders = np.arange(10, 81, 10)  # stay above the rounding floor
        scaled = []
        for N in orders:
            val, _ = potential_partial_sum(cusp_series, z, int(N))
            scaled.append(abs(val - direct) * z ** int(N))
        K = max(scaled[:4])
        assert max(scaled) <= K * 1.05

    def test_tolerance_not_met_raises(self):
        # a narrow interior bump is unresolved on the first two grids
        prof, _ = make_mollified(0.6, 2.0, 1.0, 0.01)
        with pytest.raises(ToleranceNotMet):
            potential_direct(prof, 2.0, tol=1e-12, max_level=1)
