import dataclasses
import math
import os
import time

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
from brillouin.errors import ParameterError, ToleranceNotMet
from brillouin.legendre import gauss_nodes, legendre_eval
from brillouin.model import (
    PlanetSpec,
    PowerCusp,
    SmoothPowerWeight,
    build_profile,
    point_mass_planet,
)

from conftest import THETA0, make_mollified


def _reference_sweep(profile, n_max, level, dtype=float):
    """The sweep without node compaction, in plain array expressions and in
    the sweep's operation order: nodes of weight exactly 0 left out, the
    sign of the weight in the seeds of P and its magnitude in the running
    damping pw = |base| e^{-(n+3)F}, the Legendre step P_{n+1} = t + (n /
    (n+1)) (t - P_{n-1}) with t = x P_n, and each order's products summed
    as the sweep sums them: pairwise, by ``np.add.reduce``.

    The arithmetic runs in ``dtype`` on the double-precision inputs (nodes,
    weights, e^{-F}, e^{-L}), so ``np.longdouble`` gives an extended-
    precision replica whose only difference is the rounding of the sweep.
    Returns the values, sum |terms| / (n+3) per order (the scale of the
    rounding a change of summation order may cause), and the damping
    |base| e^{-(n_max+4) F} left at the end.
    """
    nodes, wts = coeffs.theta_grid(profile, n_max, level)
    base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)
    nodes, base = nodes[base != 0.0], base[base != 0.0]
    x = np.cos(nodes).astype(dtype)
    E = np.exp(-profile.eval_F(nodes)).astype(dtype)
    EL = np.exp(-profile.eval_L(nodes)).astype(dtype)
    pw = np.abs(base).astype(dtype) * E**3
    pwL = EL**3
    p_prev = np.zeros_like(x)
    p_cur = np.where(base < 0, -1.0, 1.0).astype(dtype)
    out = np.empty(n_max + 1, dtype)
    scale = np.empty(n_max + 1, dtype)
    for n in range(n_max + 1):
        term = p_cur * pw * (1.0 - pwL)
        out[n] = np.add.reduce(term) / (n + 3.0)
        scale[n] = np.sum(np.abs(term)) / (n + 3.0)
        pw *= E
        pwL *= EL
        t = x * p_cur
        p_cur, p_prev = t + (dtype(n) / dtype(n + 1)) * (t - p_prev), p_cur
    return out, scale, pw


def _assert_matches_reference(profile, n_max, level=0):
    """Compare the sweep with the reference; returns the sweep, the
    reference values and the final reference damping."""
    ref, scale, pw = _reference_sweep(profile, n_max, level)
    got = _sweep(profile, n_max, level)
    assert np.all(np.isfinite(got.values))
    gap = np.abs(got.values - ref)
    assert np.all(gap <= np.maximum(1e-14 * np.abs(ref), 1e-14 * scale))
    # the budget contract: a new summation order and the dropped terms
    assert np.all(gap <= got.floor + got.dropped)
    return got, ref, pw


def _replay_budget(profile, grid, floor, n_max):
    """The sweep's compaction rule replayed from its reported floors on a
    closed-radial planet swept from n = 0, on the damping pw = |base|
    e^{-(n+3)F} of the nodes of nonzero weight.  Returns the live mask of
    each compaction that dropped nodes (the drop before the first order
    included), the live count at every order, the damping left at the end
    and the nodes still live there."""
    nodes, wts = grid
    base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)
    E = np.exp(-profile.eval_F(nodes))
    pw = np.abs(base) * E**3
    live = np.flatnonzero(base)
    masks, counts = [], []
    keep = pw[live] >= np.finfo(float).tiny
    if not keep.all():
        masks.append(keep)
        live = live[keep]
    for n in range(n_max + 1):
        counts.append(live.size)
        pw *= E
        if n % COMPACT_EVERY == COMPACT_EVERY - 1:
            # live count times each node's bound on its later terms
            bound = pw[live] * (1.0 * live.size / (n + 4.0))
            keep = bound > max(coeffs.DROP_FRAC * floor[n], np.finfo(float).tiny)
            if not keep.all():
                masks.append(keep)
                live = live[keep]
    return masks, np.array(counts), pw, live


class TestSweepCompaction:
    @pytest.mark.parametrize("name", ["cusp_profile", "alpha1_profile", "t1_profile"])
    def test_matches_uncompacted_sweep(self, request, name):
        got, _, pw = _assert_matches_reference(request.getfixturevalue(name), 1000)
        # the case is meaningful only if compaction dropped nodes
        assert np.count_nonzero(pw) > 0
        assert got.node_orders < pw.size * 1001

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
        # reaching 0); the sweep has dropped them long before, and still
        # matches
        profile, grid = self._steep_peak_on_coarse_grid(monkeypatch)
        _, _, pw = _assert_matches_reference(profile, 3000)
        live = np.flatnonzero(pw)
        assert 0 < live.size <= 10
        assert np.all(np.abs(grid[0][live] - profile.theta0) < 0.02)

    @staticmethod
    def _recorded_sweep(monkeypatch, profile, n_max):
        masks = []
        compact = coeffs._ClosedRadial.compact

        def recording_compact(radial, live):
            masks.append(live.copy())
            compact(radial, live)

        monkeypatch.setattr(coeffs._ClosedRadial, "compact", recording_compact)
        return _sweep(profile, n_max, 0), masks

    def test_stalled_subnormal_nodes_are_dropped(self, monkeypatch):
        # the budget rule: at every compaction the sweep keeps exactly the
        # nodes whose bound on their later terms, times the live count,
        # exceeds DROP_FRAC of the order's floor; that drops every node
        # whose damping the reference carries on as a stalled subnormal
        profile, grid = self._steep_peak_on_coarse_grid(monkeypatch)
        got, masks = self._recorded_sweep(monkeypatch, profile, 3000)
        want, counts, pw, live = _replay_budget(profile, grid, got.floor, 3000)
        assert len(masks) == len(want) > 1
        assert all(np.array_equal(a, b) for a, b in zip(masks, want))
        assert got.node_orders == counts.sum() < grid[0].size * 3001
        stalled = (pw > 0) & (pw < np.finfo(float).tiny)
        assert stalled.any() and not stalled[live].any()

    def test_dropped_bound_covers_dropped_terms(self, monkeypatch):
        # at every order the terms of the nodes dropped so far, taken from
        # the uncompacted sweep, sum to no more than the reported bound
        profile, grid = self._steep_peak_on_coarse_grid(monkeypatch)
        n_max = 600
        got, masks = self._recorded_sweep(monkeypatch, profile, n_max)
        _, counts, _, _ = _replay_budget(profile, grid, got.floor, n_max)
        nodes, wts = grid
        x = np.cos(nodes)
        base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)
        E = np.exp(-profile.eval_F(nodes))
        EL = np.exp(-profile.eval_L(nodes))
        p_prev, p_cur = np.zeros_like(x), np.ones_like(x)
        live = np.arange(nodes.size)
        left = iter(masks)
        seen = []
        for n in range(n_max + 1):
            terms = np.abs(base * p_cur * E ** (n + 3) * (1.0 - EL ** (n + 3))) / (n + 3.0)
            dropped = np.sum(np.delete(terms, live))
            assert dropped <= got.dropped[n]
            seen.append(dropped)
            if n < n_max and counts[n + 1] < counts[n]:
                live = live[next(left)]
            p_cur, p_prev = ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1), p_cur
        assert next(left, None) is None
        assert max(seen) > 0

    def test_late_start_bounds_the_nodes_it_skips(self, monkeypatch):
        # a sweep starting at n = 200 never visits the nodes whose damping
        # is already below the smallest normal double, and bounds their terms
        profile, (nodes, wts) = self._steep_peak_on_coarse_grid(monkeypatch)
        got = _sweep(profile, 200, 0, n_min=200)
        base = wts * np.sqrt(np.sin(nodes)) * profile.eval_g(nodes)
        damping = np.exp(-profile.eval_F(nodes)) ** 203
        skipped = np.abs(base) * damping < np.finfo(float).tiny
        assert got.node_orders == np.count_nonzero(~skipped) < nodes.size
        terms = base * legendre_eval(200, np.cos(nodes)) * damping / 203.0
        assert 0 < np.sum(np.abs(terms[skipped])) <= got.dropped[0]

    def test_short_sweep_is_bitwise_unchanged(self, t1_profile):
        # no compaction step runs below COMPACT_EVERY orders, so not even
        # the summation order changes
        n_max = COMPACT_EVERY - 2
        got, ref, _ = _assert_matches_reference(t1_profile, n_max)
        assert np.array_equal(got.values, ref)

    def test_zero_weight_nodes_are_never_swept(self, t1_profile):
        # the Fourier-tail weight vanishes outside (theta0 - eps, theta0 +
        # eps), so most of the grid has weight exactly 0: a one-order sweep
        # visits exactly the nodes of nonzero weight
        nodes, wts = coeffs.theta_grid(t1_profile, 0, 0)
        weighted = np.count_nonzero(wts * np.sqrt(np.sin(nodes)) * t1_profile.eval_g(nodes))
        assert 0 < weighted < nodes.size / 2
        assert _sweep(t1_profile, 0, 0).node_orders == weighted


class TestRoundingFloor:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than double here")
    @pytest.mark.parametrize("name", ["cusp_profile", "alpha1_profile", "t1_profile"])
    def test_floor_bounds_extended_precision_rounding(self, request, name):
        # the level-1 sweep replayed in extended precision on the same grid
        # and inputs, with no node dropped: the double sweep, compaction
        # included, stays within its rounding floor at every order
        profile = request.getfixturevalue(name)
        ext, _, _ = _reference_sweep(profile, 1000, 1, dtype=np.longdouble)
        got = _sweep(profile, 1000, 1)
        assert np.all(np.abs(got.values - ext) <= got.floor)
        assert np.all(got.dropped < got.floor)

    @pytest.mark.parametrize("name", ["mollified", "column", "cusp"])
    def test_single_order_error_is_the_series_error(self, cusp_profile, name):
        # coeff_scaled reports err = max(|v1 - v0|, floor1) + D0 + D1 of
        # its own single-order sweeps
        if name == "mollified":
            prof, n, tol = make_mollified(0.6, 2.0, 1.0, 0.03)[0], 7, 1e-9
        elif name == "column":
            prof, n, tol = _column_planet(), 30, 1e-10
        else:
            prof, n, tol = cusp_profile, 3000, 1e-10
        value, err = coeff_scaled(prof, n, tol=tol)
        sweeps = [_sweep(prof, n, level, n_min=n) for level in (0, 1, 2)]
        bars = [max(abs(fine.values[0] - coarse.values[0]), fine.floor[0])
                + coarse.dropped[0] + fine.dropped[0]
                for coarse, fine in zip(sweeps, sweeps[1:])]
        level = 1 if bars[0] <= tol else 2
        assert (value, err) == (sweeps[level].values[0], bars[level - 1])
        assert err >= sweeps[level].floor[0] > 0


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
            factor = radial.weight(n, out)
            ref = 1.0 - pwL
            exact.append(bool(np.all(ref == 1.0)))
            skipped.append(factor is None)
            if factor is not None:
                assert np.array_equal(factor, ref)
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


def _ring_column_planet(width):
    """A steep peak whose column is a Gaussian shell of width ``width``
    r_M(theta) at r = 0.6875 r_M(theta), between two of the radial probes
    build_profile takes for vmax (r_m + t (r_M - r_m), t in steps of 1/4,
    with r_m = r_M / 2), so that the probes see none of its mass."""
    spec = PlanetSpec(R=1.0, theta0=THETA0, peak=PowerCusp(alpha=1.0, a_minus=50.0, a_plus=50.0),
                      weight=None, v=lambda r, theta: np.ones_like(r), delta=0.5, delta1=0.4)
    surface = build_profile(spec).eval_rM

    def v(r, theta):
        u = (r / surface(theta) - 0.6875) / width
        return np.where(np.abs(u) <= 4.0, np.exp(-0.5 * u * u), 0.0)

    return build_profile(dataclasses.replace(spec, v=v))


class TestColumnEngine:
    """General columns v(r, theta) go through the same sweep as the rest."""

    def _assert_matches_old_path(self, profile, n_max, ns, tol):
        series = coeff_series(profile, 0, n_max, tol=tol)
        for n in ns:
            ref, err_ref = _old_coeff_scaled(profile, n, tol)
            new, err_new = series.value_at(n), series.errors[n]
            assert abs(new - ref) <= 10 * (err_new + err_ref)

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
        got = _sweep(prof, n_max, 1).values
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
        # orders below n_min only advance the recurrence; a late start also
        # moves the octave blocks of a column's radial rule, which at level 1
        # is converged far below the bound
        prof = _column_planet() if name == "column" else request.getfixturevalue(name)
        full = _sweep(prof, 300, 1).values
        late = _sweep(prof, 300, 1, n_min=150).values
        assert late.size == 151
        assert np.all(np.abs(late - full[150:]) <= 1e-13 * np.max(np.abs(full[150:])))

    @pytest.mark.parametrize("name", ["mollified", "column"])
    def test_single_order_matches_series(self, name):
        # the two differ only in grid (built for n against n_max) and
        # rounding, which both errors cover
        if name == "mollified":
            prof, n_max, tol = make_mollified(0.6, 2.0, 1.0, 0.03)[0], 12, 1e-9
        else:
            prof, n_max, tol = _column_planet(), 60, 1e-10
        series = coeff_series(prof, 0, n_max, tol=tol)
        for n in (1, n_max // 2, n_max):
            single, err = coeff_scaled(prof, n, tol=tol)
            assert abs(single - series.value_at(n)) <= err + series.errors[n]

    def test_narrow_ring_matches_oracle_within_err(self):
        # the radial probes of build_profile see |v| 451 on a ring of width
        # 0.005 whose peak is 1.9e4; the radial rule refines with the level,
        # so the error covers its radial error, and the envelope check uses
        # the |v| the sweeps sampled
        width = 0.005
        prof, eta = make_mollified(0.6, 2.0, 1.0, width)
        series = coeff_series(prof, 0, 96, tol=1e-9)
        sampled = max(_sweep(prof, 96, level).vmax for level in (0, 1))
        assert prof.vmax < sampled / 10
        assert np.max(np.abs(series.values)) <= coeffs.ENVELOPE_SAFETY * prof.G * sampled
        want = np.array([_mollified_oracle(eta, 0.6, 2.0, width, n) for n in series.n])
        assert np.all(np.abs(series.values - want) <= series.errors)

    def test_capped_radial_range_has_error_bar(self):
        # from n = 256 the ring's mass lies beyond the radial cap
        # RADIAL_EXPONENT_CAP / (n + 3) at every node, so the values are 0;
        # the range the cap leaves out is bounded in the error instead
        width = 0.01
        prof, eta = make_mollified(0.6, 2.0, 1.0, width)
        series = coeff_series(prof, 0, 300)
        assert np.all(series.values[256:] == 0.0)
        want = np.array([_mollified_oracle(eta, 0.6, 2.0, width, n) for n in series.n])
        assert np.all(np.abs(series.values - want) <= series.errors)
        assert np.all(series.errors > 0)

    @pytest.mark.parametrize("width", [0.001, 0.002])
    def test_unresolved_ring_raises(self, width):
        # the level-0 rules sample a ring this narrow far from its peak (or
        # not at all), so the two levels disagree on max|v| and the
        # difference of their values would not bound the error
        prof, _ = make_mollified(0.6, 2.0, 1.0, width)
        with pytest.raises(ToleranceNotMet, match="do not resolve"):
            coeff_series(prof, 0, 96, tol=1e-9)

    @pytest.mark.parametrize("width, level", [(0.002, 1), (0.005, 0), (0.005, 1)])
    def test_dropped_bound_covers_narrow_ring(self, monkeypatch, width, level):
        # a ring the radial probes miss entirely, on a steep peak that drops
        # nodes early: at every order the terms of the dropped nodes, taken
        # from an uncompacted replay of the same radial factor, sum to no
        # more than the reported bound.  At level 0 the rule samples the
        # 0.005 ring near its peak only from the block at n = 64 on; a 0.002
        # ring it does not sample before that block at all (see
        # test_unresolved_ring_raises)
        prof = _ring_column_planet(width)
        assert prof.vmax == 0.0
        nodes, wts = grid = composite_nodes(np.linspace(0.0, math.pi, 17))
        assert nodes.size <= coeffs.COLUMN_CHUNK
        monkeypatch.setattr(coeffs, "theta_grid", lambda profile, n, level=0: grid)
        masks, events, caps = [], [], []
        compact, dropped_bound = coeffs._ColumnRadial.compact, coeffs._dropped_bound
        cap_event = coeffs._ColumnRadial.cap_event

        def recording_compact(radial, live):
            masks.append(live.copy())
            compact(radial, live)

        def recording_cap(radial, *args):
            caps.append(cap_event(radial, *args))
            return caps[-1]

        def recording_bound(evts, n_min, n_max):
            # the events of the compactions, without those of the radial cap
            events.extend(e for e in evts if not any(e is c for c in caps))
            return dropped_bound(evts, n_min, n_max)

        monkeypatch.setattr(coeffs._ColumnRadial, "compact", recording_compact)
        monkeypatch.setattr(coeffs._ColumnRadial, "cap_event", recording_cap)
        monkeypatch.setattr(coeffs, "_dropped_bound", recording_bound)
        n_max = 400
        got = _sweep(prof, n_max, level)
        assert len(masks) == len(events) > 0
        assert caps
        radial = coeffs._ColumnRadial(prof, nodes, 0, level)
        x = np.cos(nodes)
        base = wts * np.sin(nodes)
        E = np.exp(-prof.eval_F(nodes))
        W = np.empty_like(x)
        p_prev, p_cur = np.zeros_like(x), np.ones_like(x)
        live = np.arange(nodes.size)
        drops = iter(zip((first for first, _, _ in events), masks))
        first, mask = next(drops)
        seen = []
        for n in range(n_max + 1):
            if n == first:
                live = live[mask]
                first, mask = next(drops, (None, None))
            radial.weight(n, W)
            terms = np.abs(base * p_cur * E ** (n + 3) * W)
            dropped = np.sum(np.delete(terms, live))
            assert dropped <= got.dropped[n]
            seen.append(dropped)
            p_cur, p_prev = ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1), p_cur
        assert first is None
        assert max(seen) > 0


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


def _mollified_oracle(eta, r0, theta_p, width, n):
    """C~_n of ``make_mollified``'s ring from its two 1D factors."""
    rule = gauss_nodes(64)
    x, w = rule.map_to(theta_p - 4 * width, theta_p + 4 * width)
    factor_theta = float(np.sum(w * legendre_eval(n, np.cos(x)) * eta(x - theta_p)))
    x, w = rule.map_to(r0 - 4 * width, r0 + 4 * width)
    return -factor_theta * float(np.sum(w * x**n * eta(x - r0)))


class TestQuadraturePath:
    def test_mollified_masses_match_factorized_oracle(self):
        # the quadrature path is validated against a separable bump whose
        # coefficients factor into two 1D integrals
        for width in (0.04, 0.02, 0.01):
            prof, eta = make_mollified(0.6, 2.0, 1.0, width)
            for n in (0, 5, 12):
                got, err = coeff_scaled(prof, n, tol=1e-9)
                assert got == pytest.approx(_mollified_oracle(eta, 0.6, 2.0, width, n),
                                            rel=5e-4)

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
        coarse = _sweep(cusp_profile, 600, level=0).values
        fine = _sweep(cusp_profile, 600, level=1).values
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

    def test_run_facts(self, cusp_profile, cusp_series, point_mass_series):
        grids = tuple(coeffs.theta_grid(cusp_profile, 4000, level)[0].size for level in (0, 1))
        assert cusp_series.grid_nodes == grids
        # the budget leaves well under half of every grid's node-orders
        assert all(0 < v < g * cusp_series.n.size / 2
                   for v, g in zip(cusp_series.node_orders, grids))
        assert np.all(cusp_series.errors >= cusp_series.floor)
        assert np.all(cusp_series.floor > 0)
        d = cusp_series.window(100, 200).to_json_dict()
        assert d["grid_nodes"] == list(grids)
        assert d["worst_err_over_floor"] >= 1.0
        closed = point_mass_series.to_json_dict()
        assert (closed["grid_nodes"], closed["worst_err_over_floor"]) == ([], None)

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


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestTwoProcesses:
    """``coeff_series`` splits its sweep jobs between the caller and one
    forked child (see ``coeffs._run_jobs``)."""

    @staticmethod
    def _series(monkeypatch, profile, n_max, cpus):
        """The series with ``cpus`` usable CPUs, and the number of forks."""
        forks = []
        fork = os.fork
        monkeypatch.setattr(coeffs, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        series = coeff_series(profile, 0, n_max)
        _assert_no_child()
        monkeypatch.undo()
        return series, len(forks)

    @staticmethod
    def _in_child(monkeypatch, action):
        """Make every sweep job that runs outside this process call ``action``."""
        caller, sweep = os.getpid(), coeffs._sweep_nodes
        monkeypatch.setattr(coeffs, "_usable_cpus", lambda: 2)

        def job(*args):
            if os.getpid() != caller:
                action()
            return sweep(*args)
        monkeypatch.setattr(coeffs, "_sweep_nodes", job)

    @pytest.mark.parametrize("name, n_max", [("cusp_profile", 1000), ("column", 100)])
    def test_bitwise_the_serial_path(self, request, monkeypatch, name, n_max):
        profile = _column_planet() if name == "column" else request.getfixturevalue(name)
        serial, serial_forks = self._series(monkeypatch, profile, n_max, cpus=1)
        split, split_forks = self._series(monkeypatch, profile, n_max, cpus=2)
        assert (serial_forks, split_forks) == (0, 1)
        for field in ("values", "errors", "floor", "ok"):
            assert np.array_equal(getattr(split, field), getattr(serial, field)), field
        assert split.grid_nodes == serial.grid_nodes
        assert split.node_orders == serial.node_orders

    def test_runs_in_process_without_fork(self, monkeypatch, t1_profile):
        want, _ = self._series(monkeypatch, t1_profile, 200, cpus=1)
        monkeypatch.setattr(coeffs, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        got = coeff_series(t1_profile, 0, 200)
        assert np.array_equal(got.values, want.values)

    def test_child_exception_keeps_its_type(self, monkeypatch, t1_profile):
        def fail():
            raise ParameterError("peak.c", "raised in the child")
        self._in_child(monkeypatch, fail)
        with pytest.raises(ParameterError, match="raised in the child") as info:
            coeff_series(t1_profile, 0, 200)
        assert info.value.field == "peak.c"
        _assert_no_child()

    def test_unpicklable_child_exception_keeps_its_text(self, monkeypatch, t1_profile):
        class Local(Exception):
            pass

        def fail():
            raise Local("a local class")
        self._in_child(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="Local: a local class"):
            coeff_series(t1_profile, 0, 200)
        _assert_no_child()

    def test_child_that_dies_is_reported(self, monkeypatch, t1_profile):
        self._in_child(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="without a result"):
            coeff_series(t1_profile, 0, 200)
        _assert_no_child()

    def test_interrupted_caller_kills_and_reaps_the_child(self, monkeypatch, t1_profile):
        caller = os.getpid()
        monkeypatch.setattr(coeffs, "_usable_cpus", lambda: 2)

        def job(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)  # the child's job: killed, not waited for
        monkeypatch.setattr(coeffs, "_sweep_nodes", job)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            coeff_series(t1_profile, 0, 200)
        assert time.monotonic() - started < 30
        _assert_no_child()


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

    def test_partial_sum_outside_computed_range_raises(self, point_mass):
        series = coeff_series(point_mass, 5, 10)
        for N in (3, 11):
            with pytest.raises(ValueError, match=r"\[5, 10\]"):
                potential_partial_sum(series, 2.0, N)

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

    def test_no_halving_has_no_error_estimate(self, cusp_profile):
        # max_level=0 runs the first grid only: nothing bounds its error
        with pytest.raises(ToleranceNotMet) as info:
            potential_direct(cusp_profile, 2.0, max_level=0)
        assert info.value.err == math.inf
        assert info.value.value == float.fromhex("0x1.1b23f51299e88p-6")
