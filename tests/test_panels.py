import hashlib
import math

import numpy as np
import pytest

from brillouin import spectral
from brillouin._panels import (GRADE_RATIO, LADDER_STEPS, breakpoints_on, graded_offsets,
                               peak_breakpoints, refine)
from brillouin.coeffs import _graded_floor, theta_grid
from brillouin.errors import ToleranceNotMet
from brillouin.model import PlanetSpec, PowerCusp, TwoSidedCuspWeight, build_profile


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestRefine:
    def test_stops_at_first_level_within_tol(self):
        calls = []

        def run(level):
            calls.append(level)
            return 2.0**-level

        assert refine(run, 0.3, 5) == (0.25, 0.5, 0.25)
        assert calls == [0, 1, 2]

    def test_exhausted_ladder_raises_only_when_named(self):
        def run(level):
            return float(level)

        fine, coarse, err = refine(run, 0.5, 2)
        assert (fine, coarse, err) == (2.0, 1.0, 1.0)
        with pytest.raises(ToleranceNotMet, match="probe: err 1.000e\\+00 > tol 5.000e-01") as info:
            refine(run, 0.5, 2, what="probe")
        assert (info.value.value, info.value.err) == (2.0, 1.0)

    def test_top_zero_has_no_error_estimate(self):
        fine, coarse, err = refine(lambda level: 3.0, 1.0, 0)
        assert (fine, coarse, err) == (3.0, None, math.inf)
        with pytest.raises(ToleranceNotMet) as info:
            refine(lambda level: 3.0, 1.0, 0, what="probe")
        assert info.value.value == 3.0 and info.value.err == math.inf

    def test_no_tolerance_runs_every_level_and_never_raises(self):
        calls = []

        def run(level):
            calls.append(level)
            return math.nan

        fine, coarse, err = refine(run, None, 2, what="probe")
        assert calls == [0, 1, 2] and math.isnan(err)

    def test_nan_error_misses_the_tolerance(self):
        with pytest.raises(ToleranceNotMet):
            refine(lambda level: math.nan, 1.0, 1, what="probe")

    def test_error_function(self):
        fine, coarse, err = refine(lambda level: 2.0 * level, 0.6, 3,
                                   error=lambda f, c: abs(f - c) / max(1.0, abs(f)))
        assert (fine, coarse, err) == (4.0, 2.0, 0.5)


class TestBreakpointsOn:
    def test_sorted_inside_and_without_repeats(self):
        bp = breakpoints_on(0.0, 1.0, [0.5, 0.25, 1.5, -0.1], np.array([0.25, 1.0, 0.75]))
        assert bp.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_no_parts(self):
        assert breakpoints_on(-1.0, 2.0).tolist() == [-1.0, 2.0]


def ref_widths(floor_width, top_width):
    """The widths floor * GRADE_RATIO^j, by running product, while they stay
    below the top."""
    widths = []
    w = float(floor_width)
    while w < top_width:
        widths.append(w)
        w *= GRADE_RATIO
    return widths


def ref_graded_offsets(floor_width, top_width):
    """The loop form of graded_offsets: the running sums of the widths after a 0."""
    widths = ref_widths(floor_width, top_width)
    if not widths:
        return np.array([0.0])
    return np.concatenate([[0.0], np.cumsum(widths)])


def _tops(floor):
    """Tops below the floor, at it, between and on the ladder's widths, and
    past the end of the first cached ladder of LADDER_STEPS widths."""
    rungs = floor * GRADE_RATIO ** np.arange(-3.0, LADDER_STEPS + 40.0, 0.5)
    widths = ref_widths(floor, floor * GRADE_RATIO ** (LADDER_STEPS + 2))
    return [*rungs, *(widths[j] for j in (0, 1, 60, LADDER_STEPS - 1, LADDER_STEPS))]


class TestGradedOffsets:
    @pytest.mark.parametrize("floor", [1e-16, 1e-12, 2.0**-18, 1e-10 / 8, "graded"])
    def test_match_the_loop_form(self, cusp_profile, floor):
        if floor == "graded":
            floor = _graded_floor(cusp_profile, 1500) / 2.0
        for top in _tops(floor):
            got, want = graded_offsets(floor, top), ref_graded_offsets(floor, top)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), top
        assert graded_offsets(floor, floor / 2).tolist() == [0.0]
        assert graded_offsets(floor, math.nan).tolist() == [0.0]

    def test_written_result_leaves_later_results(self):
        floor, top = 1e-12, 0.05
        want = ref_graded_offsets(floor, top)
        graded_offsets(floor, top)[:] = 7.0
        graded_offsets(floor, 1e3)[1:4] = -1.0
        assert graded_offsets(floor, top).tobytes() == want.tobytes()


# SHA-256 digests of the grids the per-module builders made before they
# shared breakpoints_on; a reordered or dropped edge changes them
THETA_GRID_DIGESTS = {
    "cusp": "198bbe7bd7a20335e002c319bbca5f2059085de701ef3502bbd8e384f8a2dfcf",
    "alpha1": "66a892d2739bc49775eba5078683b776fbd0adff0266d956d794ca0497c09f4b",
    "tail": "66a892d2739bc49775eba5078683b776fbd0adff0266d956d794ca0497c09f4b",
    "pole": "820badf42b7ab212895c7be4a3cf7d9c59b46907b4b028f55ae53fcf50a65f54",
}


@pytest.fixture(scope="module")
def pole_profile():
    # theta0 = 0.05: the peak's graded zone meets the pole's edge grading
    return build_profile(PlanetSpec(
        R=1.0, theta0=0.05, peak=PowerCusp(alpha=0.5, a_minus=1.0, a_plus=1.0),
        weight=TwoSidedCuspWeight(k=1.0, g_plus=1.0, g_minus=1.0), delta=0.04, delta1=0.02))


@pytest.mark.parametrize("name", sorted(THETA_GRID_DIGESTS))
def test_theta_grid_is_pinned(name, cusp_profile, alpha1_profile, t1_profile,
                              pole_profile):
    profile = {"cusp": cusp_profile, "alpha1": alpha1_profile, "tail": t1_profile,
               "pole": pole_profile}[name]
    h = hashlib.sha256()
    for n in (0, 100, 16000):
        for level in (0, 1, 2):
            nodes, weights = theta_grid(profile, n, level)
            h.update(nodes.tobytes())
            h.update(weights.tobytes())
    assert h.hexdigest() == THETA_GRID_DIGESTS[name]


@pytest.mark.parametrize("k, level, want", [
    (-50.0, 0, "10dc820417bbf479a55b7bf5e018d8ba584c297203b79695f828f6ad3adfdb7d"),
    (-50.0, 1, "2d00eed1dba2decb0f8bf1a9bbb895f73646f0b91b0cc875ace9e43c6c64009e"),
    (-6400.0, 0, "f759223f845a3dee0a8d63c3193dd8d95cd8c20eecf3d0e2237a344d2386734c"),
    (-6400.0, 1, "d65aae108d7d31e25e49dc5baf320ac2476b680e901a59467320ad54b7a279ac"),
    (0.0, 0, "10dc820417bbf479a55b7bf5e018d8ba584c297203b79695f828f6ad3adfdb7d"),
    (0.0, 1, "b8ce1c5efafcc289f491ec903c636ab57a0de5deec11fdbfb27275f47755de9f"),
])
def test_transform_breakpoints_are_pinned(k, level, want):
    f = spectral.appendix_function(1.5, 0.25)
    assert f.singularities == (0.0,)
    assert digest(spectral._transform_breakpoints(f.support, k, f.singularities, level)) == want


def test_peak_breakpoints_are_pinned():
    bp = peak_breakpoints(0.0, math.pi, 1.0, 0.05, 1e-9, edge_floor=1e-10)
    assert digest(bp) == "3237928a0f53b2f143234be16fb5cb5abb958e3f17da6ca91a91e521ada2f676"
    # the graded zone cut by the interval's end
    bp = peak_breakpoints(0.2, 2.0, 1.9, 0.05, 1e-7)
    assert digest(bp) == "a9a1d1f789fa5abf3e6da01fe0feeab0e4a2457c4137563bf5194de36e6c76ae"
