"""The benchmark's workloads: fixed experiments and the check each must pass.

A workload is a list of experiments run back to back in one pass.  Config
experiments are YAML configs run through ``brillouin.cli.main``; the one
experiment that needs a callable density column goes through the Python
API.  The workload seed is written into every config's ``seed``; only the
balayage exterior directions depend on it.
"""

from dataclasses import dataclass, field

#: README cusp planet: alpha = 1/2 cusp peak, two-sided cusp weight k = 1
CUSP_PLANET = {
    "kind": "profile", "R": 1.0, "theta0": 1.0,
    "peak": {"variant": "power_cusp", "alpha": 0.5, "a_minus": 1.0, "a_plus": 1.0},
    "weight": {"variant": "two_sided_cusp", "k": 1.0, "g_plus": 1.0, "g_minus": 1.0},
    "delta": 0.5, "delta1": 0.4,
}
#: alpha = 1 cusp peak with a smooth k = 1 weight
ALPHA1_PLANET = {
    "kind": "profile", "R": 1.0, "theta0": 1.0,
    "peak": {"variant": "power_cusp", "alpha": 1.0, "a_minus": 1.0, "a_plus": 1.0},
    "weight": {"variant": "smooth_power", "k": 1, "g_k": 1.0},
    "delta": 0.5, "delta1": 0.4,
}
POINT_MASS_PLANET = {"kind": "point_mass", "r0": 0.9, "cos_theta_p": 0.5, "m": 1.0}
#: quadratic c = 2 peak with a Fourier-tail weight beta0 = 1.5
TAIL_PLANET = {
    "kind": "profile", "R": 1.0, "theta0": 1.0,
    "peak": {"variant": "quadratic", "c": 2.0},
    "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
    "delta": 0.5, "delta1": 0.4,
}
BALAYAGE_SOURCES = {
    "masses": [
        {"m": 1.0, "position": [0.3, 0.2, 0.5]},
        {"m": 0.5, "position": [-0.4, 0.1, -0.2]},
        {"m": 0.25, "position": [0.5, -0.6, 0.4]},
    ],
    "probe_x": [-0.6, -0.3, 0.3, 0.6],
    "n_exterior": 20,
}
BRILLOUIN = "ConvergesExactlyAtBrillouin"


@dataclass(frozen=True)
class CliExperiment:
    """One CLI command on one config (``body`` is the config minus
    ``schema_version`` and ``seed``)."""

    name: str
    command: str
    body: dict

    def config(self, seed):
        return {"schema_version": 1, "seed": int(seed), **self.body}


@dataclass(frozen=True)
class ColumnExperiment:
    """``coeff_series`` through the Python API on a profile planet whose
    density column is passed as a callable v(r, theta) = g(theta - theta0) /
    sqrt(sin theta), so the per-order path runs.  Every order must be ``ok``
    and agree with the radial-constant sweep of the same planet within
    ``max_gap`` absolute."""

    name: str
    planet: dict
    n_min: int
    n_max: int
    max_gap: float = 1e-10
    command: str = field(default="column", init=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep",
            "coeffs' vectorized sweep does >90% of the work; two peak shapes "
            "(28%/55% live node-orders) and two grids (101k/53k nodes) grade "
            "compaction gains; other modules idle",
            (
                CliExperiment("full-verify-cusp", "full-verify", {
                    "planet": CUSP_PLANET, "n_range": {"n_min": 0, "n_max": 4000},
                    "expect": {"verdict": BRILLOUIN}}),
                CliExperiment("radius-alpha1", "radius", {
                    "planet": ALPHA1_PLANET, "n_range": {"n_min": 0, "n_max": 2000},
                    "expect": {"verdict": BRILLOUIN}}),
            ),
        ),
        Workload(
            "per-order",
            "orders one at a time (point-mass O(n) Legendre recurrences, column "
            "refinement ladder); the sweep is bypassed, so a sweep-only change "
            "should leave it unchanged",
            (
                CliExperiment("radius-point-mass", "radius", {
                    "planet": POINT_MASS_PLANET, "n_range": {"n_min": 0, "n_max": 2000},
                    "expect": {"verdict": "OverconvergenceSuspected",
                               "rho": 0.9, "rho_tol": 0.005}}),
                ColumnExperiment("column-alpha1", ALPHA1_PLANET, 0, 100),
            ),
        ),
        Workload(
            "transforms",
            "spectral (252 fourier_eval calls), asymptotics and balayage (longitude "
            "averages, Cauchy transforms, sphere quadrature) do most of the work; one "
            "sweep at n_max 1500",
            (
                CliExperiment("spectral-tail", "spectral", {
                    "planet": TAIL_PLANET, "expect": {"beta": 1.5, "beta_tol": 0.05}}),
                CliExperiment("asympt-tail", "asympt", {
                    "planet": TAIL_PLANET, "n_range": {"n_max": 1500},
                    "expect": {"median_ratio_window": [0.9, 1.1]}}),
                CliExperiment("balayage-three-masses", "balayage", {
                    "planet": TAIL_PLANET, "balayage": BALAYAGE_SOURCES}),
            ),
        ),
    )
}
