"""The transform rule integrates only where the profile can be nonzero.

The reference forms below are the earlier, simpler ones: set-based
breakpoints and integrand factors written with ``np.where`` over every
element.  The current code must give bitwise the same breakpoints and
integrand values, and the same scalar types.
"""

import math

import numpy as np
import pytest

from brillouin import cli
from brillouin._panels import composite_nodes, graded_offsets, uniform_breakpoints
from brillouin.spectral import (
    SmoothCutoff,
    _smooth_step,
    _transform_breakpoints,
    appendix_function,
    default_taper,
    sample_transform,
)


def ref_breakpoints(support, k, singularities, level):
    a, b = support
    wavelength = 2.0 * math.pi / max(abs(k), 1e-30)
    base = min(wavelength / 2.0**level, (b - a) / 4.0)
    bp = set(uniform_breakpoints(a, b, base))
    for s in singularities:
        if a < s < b:
            offs = graded_offsets(max(1e-12 / 2.0**level, 1e-16), base)
            for off in offs:
                for p in (s - off, s + off):
                    if a <= p <= b:
                        bp.add(p)
    bp = np.array(sorted(bp))
    keep = np.concatenate([[True], np.diff(bp) > 0])
    return bp[keep]


def ref_cutoff(center, eps):
    def phi(x):
        u = np.abs(np.asarray(x, dtype=float) - center) / eps
        out = np.where(u <= 1.0, 1.0, np.where(u >= 2.0, 0.0, _smooth_step(2.0 - u)))
        if np.ndim(x) == 0:
            return float(out)
        return out
    return phi


def ref_taper(beta, eps):
    q = int(math.floor(beta)) + 2

    def taper(x):
        u = np.asarray(x, dtype=float) / eps
        return np.where(np.abs(u) <= 1.0, (1.0 - u * u) ** q, 0.0)
    return taper


def ref_appendix_function(beta, eps):
    P = ref_taper(beta, eps)
    phi = ref_cutoff(0.0, eps)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.abs(x) ** (beta - 1.0) * P(x) * phi(x)
    return f


BETA, EPS = 1.5, 0.25
# crosses the plateau, the band eps < |x| < 2 eps and the outside, and hits
# the edges 0, +-eps, +-2 eps exactly
GRID = np.concatenate([np.linspace(-0.7, 0.7, 20001), [0.0, EPS, -EPS, 2 * EPS, -2 * EPS]])
SCALARS = [0.0, 0.1, EPS, 0.3, 2 * EPS, 0.7, -0.3, np.float64(0.3), np.array(0.3)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBreakpoints:
    @pytest.mark.parametrize("support, singularities", [
        ((-EPS, EPS), (0.0,)),          # inside the support
        ((-2 * EPS, 2 * EPS), (0.0,)),  # inside, the cutoff's full support
        ((0.0, 0.5), (0.0,)),           # at an end
        ((-0.3, 0.2), (0.2, 0.05)),     # at an end and inside
        ((0.1, 0.6), (0.0,)),           # outside
        ((-0.5, 0.5), ()),              # none
    ])
    @pytest.mark.parametrize("k", [0.0, -50.0, -112.2, 3.7, -6399.0])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_match_set_based_form(self, support, singularities, k, level):
        got = _transform_breakpoints(support, k, singularities, level)
        assert same_bits(got, ref_breakpoints(support, k, singularities, level))


class TestIntegrandBits:
    def test_cutoff(self):
        for center in (0.0, 1.0):
            x = GRID + center
            assert same_bits(SmoothCutoff(center, EPS)(x), ref_cutoff(center, EPS)(x))

    def test_taper(self):
        assert same_bits(default_taper(BETA, EPS)(GRID), ref_taper(BETA, EPS)(GRID))

    def test_appendix_function(self):
        got = appendix_function(BETA, EPS)(GRID)
        assert same_bits(got, ref_appendix_function(BETA, EPS)(GRID))

    @pytest.mark.parametrize("x", SCALARS, ids=repr)
    def test_scalar_types(self, x):
        pairs = [(SmoothCutoff(0.0, EPS), ref_cutoff(0.0, EPS)),
                 (default_taper(BETA, EPS), ref_taper(BETA, EPS)),
                 (appendix_function(BETA, EPS), ref_appendix_function(BETA, EPS))]
        for new, old in pairs:
            got, want = new(x), old(x)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSupport:
    def test_declared_support_is_where_profile_is_nonzero(self):
        f = appendix_function(BETA, EPS)
        assert f.support == (-EPS, EPS)
        x = np.linspace(-0.7, 0.7, 1401)
        assert np.all(f(x[np.abs(x) >= EPS]) == 0.0)

    def test_taper_without_support_keeps_cutoff_support(self):
        def taper(x):
            u = np.asarray(x, dtype=float) / EPS
            return np.exp(-u * u)
        assert appendix_function(BETA, EPS, taper).support == (-2 * EPS, 2 * EPS)

    def test_taper_support_intersects_cutoff_support(self):
        wide = default_taper(BETA, 3 * EPS)
        assert appendix_function(BETA, EPS, wide).support == (-2 * EPS, 2 * EPS)
        narrow = default_taper(BETA, EPS / 2)
        assert appendix_function(BETA, EPS, narrow).support == (-EPS / 2, EPS / 2)


def test_samples_match_fine_rule_on_cutoff_support():
    # the reference rule spans the cutoff's full (-2 eps, 2 eps), so the
    # taper's truncation kinks at +-eps fall inside its panels; at level 4
    # its own error stays below 1e-10 (at level 3 it is 1.1e-9 at k = -89)
    f = appendix_function(BETA, EPS)
    # the default tail-fit grid, as a config without a spectral section reads it
    ks = cli.ExperimentConfig({"schema_version": 1, "seed": 1,
                               "planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0}},
                              command="full-verify").spectral.ks
    got = sample_transform(f, f.support, ks, singularities=f.singularities)
    for k, value in zip(ks, got):
        x, w = composite_nodes(ref_breakpoints((-2 * EPS, 2 * EPS), k, (0.0,), 4))
        want = np.sum(w * f(x) * np.exp(-1j * k * x)) / math.sqrt(2.0 * math.pi)
        assert abs(value - want) <= 1e-9 * abs(want), k
