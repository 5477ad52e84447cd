"""Batch front end: config ingestion, experiment orchestration, and
deterministic artifact emission.

Configurations are YAML with a mandatory ``schema_version``; unknown keys
are rejected with their field path.  Artifacts are CSV/JSON files named
from a hash of the canonical config, so re-running an identical config
reproduces byte-identical outputs.  Exit codes: 0 success, 2 config
errors, 3 numeric failures, 4 verdict mismatches.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import convergence, spectral
from ._io import write_csv, write_json
from .asymptotics import predict_thm1, predict_thm3, ratio_diagnostic
from .balayage import mu_from_point_masses, plemelj_jump, swept_potential
from .coeffs import coeff_series
from .errors import BrillouinError, ParameterError
from .model import (
    PlanetSpec,
    RejectDomain,
    build_profile,
    homogeneous_ball,
    point_mass_planet,
)

__all__ = ["ConfigError", "ExperimentConfig", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERDICT = 4

OUT_ENV_VAR = "BRILLOUIN_OUT"
COMMANDS = ("coeffs", "asympt", "radius", "spectral", "balayage", "full-verify")


class ConfigError(BrillouinError):
    """Configuration rejected; the message carries the field path."""


_TOP_KEYS = {
    "schema_version", "command", "seed", "planet", "n_range", "tol",
    "out_dir", "expect", "asympt", "spectral", "balayage",
}
_PLANET_KEYS = {
    "point_mass": {"kind", "r0", "theta_p", "cos_theta_p", "m", "R", "G"},
    "ball": {"kind", "R_b", "rho0", "G"},
    "profile": {"kind", "schema_version", "R", "theta0", "peak", "weight", "delta",
                "delta1", "r_m", "G"},
}
_PEAK_KEYS = {
    "quadratic": {"variant", "c", "beta"},
    "power_cusp": {"variant", "alpha", "a_minus", "a_plus", "beta"},
    "power_c1": {"variant", "alpha", "a_minus", "a_plus"},
}
_WEIGHT_KEYS = {
    "smooth_power": {"variant", "k", "g_k"},
    "two_sided_cusp": {"variant", "k", "g_plus", "g_minus"},
    "c1_mixed": {"variant", "g1", "g_plus", "g_minus", "alpha"},
    "fourier_tail": {"variant", "beta0", "eps", "taper_order"},
}
_EXPECT_KEYS = {"verdict", "rho", "rho_tol", "median_ratio_window", "beta",
                "beta_tol", "max_abs_coeff"}
_NRANGE_KEYS = {"n_min", "n_max"}
_ASYMPT_KEYS = {"source", "a0", "beta0", "a1", "beta1"}
_SPECTRAL_KEYS = {"k_base", "octaves", "samples_per_octave"}
_BALAYAGE_KEYS = {"masses", "probe_x", "n_exterior", "obs_radius"}


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(d, allowed, path):
    _require(isinstance(d, dict), path, "expected a mapping")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


class ExperimentConfig:
    """Validated experiment description plus its provenance hash."""

    def __init__(self, raw, command=None):
        _check_keys(raw, _TOP_KEYS, "config")
        _require(raw.get("schema_version") == 1, "config.schema_version",
                 "must be 1 (and is mandatory)")
        _require("seed" in raw, "config.seed", "mandatory (reproducible draws)")
        _require(isinstance(raw["seed"], int), "config.seed", "must be an integer")
        cfg_cmd = raw.get("command")
        if cfg_cmd is not None:
            _require(cfg_cmd in COMMANDS, "config.command", f"must be one of {COMMANDS}")
            if command is not None:
                _require(cfg_cmd == command, "config.command",
                         f"config says {cfg_cmd!r} but the CLI invoked {command!r}")
        self.command = command or cfg_cmd
        _require(self.command in COMMANDS, "config.command", "missing command")
        _require("planet" in raw, "config.planet", "mandatory")

        planet = raw["planet"]
        _require(isinstance(planet, dict), "config.planet", "expected a mapping")
        kind = planet.get("kind")
        _require(kind in _PLANET_KEYS, "config.planet.kind",
                 f"must be one of {sorted(_PLANET_KEYS)}")
        _check_keys(planet, _PLANET_KEYS[kind], "config.planet")
        if kind == "point_mass":
            _require("r0" in planet and "m" in planet, "config.planet",
                     "point_mass needs r0 and m")
            _require("theta_p" in planet or "cos_theta_p" in planet,
                     "config.planet", "point_mass needs theta_p or cos_theta_p")
        if kind == "ball":
            _require("R_b" in planet and "rho0" in planet, "config.planet",
                     "ball needs R_b and rho0")
        if kind == "profile":
            for field in ("theta0", "peak"):
                _require(field in planet, f"config.planet.{field}", "mandatory")
            peak = planet["peak"]
            variant = peak.get("variant") if isinstance(peak, dict) else None
            _require(variant in _PEAK_KEYS, "config.planet.peak.variant",
                     f"must be one of {sorted(_PEAK_KEYS)}")
            _check_keys(peak, _PEAK_KEYS[variant], "config.planet.peak")
            if "weight" in planet:
                weight = planet["weight"]
                wvariant = weight.get("variant") if isinstance(weight, dict) else None
                _require(wvariant in _WEIGHT_KEYS, "config.planet.weight.variant",
                         f"must be one of {sorted(_WEIGHT_KEYS)}")
                _check_keys(weight, _WEIGHT_KEYS[wvariant], "config.planet.weight")

        n_range = raw.get("n_range", {})
        if "n_range" in raw:
            _check_keys(n_range, _NRANGE_KEYS, "config.n_range")
            _require("n_max" in n_range, "config.n_range.n_max", "mandatory")
        for field in ("n_min", "n_max"):
            value = n_range.get(field, 0)
            _require(isinstance(value, int) and not isinstance(value, bool),
                     f"config.n_range.{field}", "must be an integer")
            _require(value >= 0, f"config.n_range.{field}", "must be >= 0")
        if "n_range" in raw:
            _require(n_range.get("n_min", 0) <= n_range["n_max"], "config.n_range",
                     "n_min must not exceed n_max")
        if self.command in ("coeffs", "asympt", "radius"):
            _require("n_range" in raw, "config.n_range",
                     f"mandatory for the {self.command} command")
        if self.command == "asympt":
            # the predictors start at n = 1
            _require(n_range["n_max"] >= 1, "config.n_range.n_max",
                     "must be >= 1 for the asympt command")
        if "expect" in raw:
            _check_keys(raw["expect"], _EXPECT_KEYS, "config.expect")
        if "asympt" in raw:
            _check_keys(raw["asympt"], _ASYMPT_KEYS, "config.asympt")
        if "spectral" in raw:
            _check_keys(raw["spectral"], _SPECTRAL_KEYS, "config.spectral")
        if "balayage" in raw:
            _check_keys(raw["balayage"], _BALAYAGE_KEYS, "config.balayage")
            _require("masses" in raw["balayage"], "config.balayage.masses", "mandatory")

        self.raw = raw
        self.seed = raw["seed"]
        self.tol = float(raw.get("tol", 1e-10))
        self.n_min = n_range.get("n_min", 0)
        self.n_max = n_range.get("n_max", 0)
        self.expect = raw.get("expect", {})
        self.out_dir = raw.get("out_dir")

    @property
    def config_hash(self):
        canon = dict(self.raw)
        canon["command"] = self.command
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def planet(self):
        """The configured planet.  A parameter outside its domain raises
        ConfigError with its field path."""
        try:
            return self._build_planet()
        except ParameterError as exc:
            raise ConfigError(f"config.planet.{exc.field}: {exc}") from exc
        except RejectDomain as exc:
            raise ConfigError(f"config.planet.theta0: {exc}") from exc

    def _build_planet(self):
        p = self.raw["planet"]
        kind = p["kind"]
        if kind == "point_mass":
            theta_p = (float(p["theta_p"]) if "theta_p" in p
                       else math.acos(float(p["cos_theta_p"])))
            return point_mass_planet(float(p["r0"]), theta_p, float(p["m"]),
                                     R=float(p.get("R", 1.0)), G=float(p.get("G", 1.0)))
        if kind == "ball":
            return homogeneous_ball(float(p["R_b"]), float(p["rho0"]),
                                    G=float(p.get("G", 1.0)))
        spec = PlanetSpec.from_dict({**p, "R": p.get("R", 1.0)})
        return build_profile(spec)


def load_config(path, command=None):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    _require(isinstance(raw, dict), "config", "top level must be a mapping")
    return ExperimentConfig(raw, command=command)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _artifact_dir(config, out_override=None):
    """The run's artifact directory.  It is not created here: the first
    artifact written creates it, so a run that fails before writing any
    leaves no empty directory behind."""
    root = (out_override or config.out_dir
            or os.environ.get(OUT_ENV_VAR) or "out")
    return Path(root) / f"{config.command}-{config.config_hash[:12]}"


def _series_for(config, planet):
    return coeff_series(planet, config.n_min, config.n_max, config.tol)


def _cmd_coeffs(config, out):
    planet = config.planet()
    series = _series_for(config, planet)
    series.to_csv(out / "coeffs.csv", config_hash=config.config_hash)
    series.to_json(out / "coeffs.json", config_hash=config.config_hash)
    failures = []
    cap = config.expect.get("max_abs_coeff")
    if cap is not None and float(np.max(np.abs(series.values))) > float(cap):
        failures.append("max_abs_coeff exceeded")
    return failures


def _predictor(config, planet, ns):
    choice = config.raw.get("asympt", {})
    source = choice.get("source", "auto")
    weight = getattr(planet, "weight", None)
    if source == "thm1" or (source == "auto" and getattr(weight, "variant", "") == "fourier_tail"):
        if "a0" in choice:
            a0, beta0 = complex(choice["a0"]), float(choice["beta0"])
        else:
            fit, _, _ = _fit_weight_tail(config, planet)
            a0, beta0 = fit.amp, fit.beta
        a1 = complex(choice.get("a1", 0.0))
        beta1 = choice.get("beta1")
        return predict_thm1(a0, beta0, a1, beta1 if beta1 is None else float(beta1),
                            planet.R, planet.theta0, ns)
    return predict_thm3(planet.peak, planet.weight, planet.R, planet.theta0, ns)


def _fit_weight_tail(config, planet):
    """Tail fit of the weight's transform; returns ``(fit, ks, vals)``
    with the transform samples it was fitted to."""
    scfg = config.raw.get("spectral", {})
    k_base = float(scfg.get("k_base", 50.0))
    octaves = int(scfg.get("octaves", 7))
    per = int(scfg.get("samples_per_octave", 12))
    prof = planet.weight.tail_profile()

    ks = -np.concatenate([
        np.geomspace(k_base * 2.0**j, k_base * 2.0 ** (j + 1), per, endpoint=False)
        for j in range(octaves)
    ])
    vals = spectral.sample_transform(prof, prof.support, ks,
                                     singularities=prof.singularities)
    return spectral.fit_tail(ks, vals), ks, vals


def _cmd_asympt(config, out):
    planet = config.planet()
    series = _series_for(config, planet)
    # the predictors are singular at n = 0
    pred = _predictor(config, planet, series.n[series.n >= 1])
    report = ratio_diagnostic(series, pred)
    report.to_csv(out / "ratio.csv", config_hash=config.config_hash)
    report.to_json(out / "ratio.json", config_hash=config.config_hash)
    failures = []
    window = config.expect.get("median_ratio_window")
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        if not (lo <= report.median_ratio <= hi):
            failures.append(
                f"median ratio {report.median_ratio:.4f} outside [{lo}, {hi}]")
    return failures


def _verdict_failures(config, report, R):
    """Failures of the ``verdict`` and ``rho`` expect checks."""
    failures = []
    want = config.expect.get("verdict")
    if want is not None and report.verdict != want:
        failures.append(f"verdict {report.verdict} != expected {want}")
    rho = config.expect.get("rho")
    if rho is not None:
        tol = float(config.expect.get("rho_tol", 0.005))
        # written so that a NaN rho_hat fails the check
        if not abs(report.rho_hat - float(rho)) <= tol * R:
            failures.append(f"rho_hat {report.rho_hat:.4f} not within {tol} of {rho}")
    return failures


def _cmd_radius(config, out):
    planet = config.planet()
    series = _series_for(config, planet)
    report = convergence.verdict_from_series(series)
    report.to_json(out / "radius.json", config_hash=config.config_hash)
    print(report.render())
    return _verdict_failures(config, report, series.R)


def _cmd_spectral(config, out):
    planet = config.planet()
    if getattr(planet, "weight", None) is None:
        raise ConfigError("config.planet: the spectral command needs a profile with a weight")
    fit, ks, vals = _fit_weight_tail(config, planet)
    write_csv(out / "transform.csv", ["k", "re", "im"],
              zip(ks.tolist(), np.real(vals).tolist(), np.imag(vals).tolist()),
              config_hash=config.config_hash)
    write_json(out / "tailfit.json", {
        "beta": fit.beta,
        "amp": complex(fit.amp),
        "residual": fit.residual,
        "window": list(fit.window),
        "config_hash": config.config_hash,
    })
    failures = []
    want_beta = config.expect.get("beta")
    if want_beta is not None:
        tol = float(config.expect.get("beta_tol", 0.05))
        if abs(fit.beta - float(want_beta)) > tol:
            failures.append(f"fitted beta {fit.beta:.4f} not within {tol} of {want_beta}")
    return failures


def _cmd_balayage(config, out):
    bcfg = config.raw.get("balayage")
    if bcfg is None:
        raise ConfigError("config.balayage: mandatory for the balayage command")
    masses = [(float(m["m"]), tuple(float(c) for c in m["position"]))
              for m in bcfg["masses"]]
    measure = mu_from_point_masses(masses)
    xs = np.linspace(-0.99, 0.99, 199)
    measure.to_csv(out / "mu.csv", xs, config_hash=config.config_hash)

    rng = np.random.default_rng(config.seed)
    n_ext = int(bcfg.get("n_exterior", 10))
    obs_radius = float(bcfg.get("obs_radius", 2.0))
    worst_rel = 0.0
    for _ in range(n_ext):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        obs = obs_radius * direction
        direct = sum(m / np.linalg.norm(obs - np.asarray(p)) for m, p in masses)
        swept = sum(m * swept_potential(np.asarray(p), obs) for m, p in masses)
        worst_rel = max(worst_rel, abs(swept - direct) / abs(direct))

    recoveries = []
    for x0 in bcfg.get("probe_x", [0.5]):
        _, rec = plemelj_jump(measure, float(x0))
        recoveries.append({"x0": float(x0), "mu_recovered": complex(rec).real,
                           "mu_direct": float(measure(float(x0)))})
    payload = {
        "total_mass": measure.total_mass(),
        "source_mass": sum(m for m, _ in masses),
        "exterior_worst_rel_err": worst_rel,
        "plemelj": recoveries,
        "config_hash": config.config_hash,
    }
    write_json(out / "balayage.json", payload)
    failures = []
    if worst_rel > 1e-8:
        failures.append(f"exterior potential mismatch {worst_rel:.2e}")
    if abs(payload["total_mass"] - payload["source_mass"]) > 1e-8:
        failures.append("swept mass does not match source mass")
    for rec in recoveries:
        if abs(rec["mu_recovered"] - rec["mu_direct"]) > 1e-5:
            failures.append(f"plemelj recovery off at x0={rec['x0']}")
    return failures


def _cmd_full_verify(config, out):
    planet = config.planet()
    n_max = config.n_max or 2000
    series = coeff_series(planet, config.n_min, max(n_max, 200), config.tol)
    series.to_csv(out / "coeffs.csv", config_hash=config.config_hash)
    report = convergence.verdict_from_series(series)
    report.to_json(out / "radius.json", config_hash=config.config_hash)
    print(report.render())
    failures = _verdict_failures(config, report, series.R)
    write_json(out / "summary.json", {
        "verdict": report.verdict,
        "rho_hat": report.rho_hat,
        "n_max": series.n_max,
        "failures": failures,
        "config_hash": config.config_hash,
    })
    return failures


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "asympt": _cmd_asympt,
    "radius": _cmd_radius,
    "spectral": _cmd_spectral,
    "balayage": _cmd_balayage,
    "full-verify": _cmd_full_verify,
}


def run(config, out_override=None):
    """Execute one experiment; returns the process exit status."""
    out = _artifact_dir(config, out_override)
    try:
        failures = _DISPATCH[config.command](config, out)
    except ConfigError:
        raise
    except BrillouinError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if failures:
        for f in failures:
            print(f"verdict mismatch: {f}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="brillouin",
        description="expansion coefficients, asymptotics, and convergence "
                    "diagnostics for synthetic planets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=None, help=f"output root (default ${OUT_ENV_VAR} or ./out)")
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, command=args.command)
        # flag overrides participate in the provenance hash via raw
        if args.tol is not None:
            config.raw["tol"] = config.tol = args.tol
        return run(config, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
