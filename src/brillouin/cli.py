"""Batch front end: config ingestion, experiment orchestration, and
deterministic artifact emission.

Configurations are YAML with a mandatory ``schema_version``; unknown keys
are rejected with their field path.  Artifacts are CSV/JSON files named
from a hash of the canonical config, so re-running an identical config
reproduces byte-identical outputs.  Exit codes: 0 success, 2 config
errors, 3 numeric failures, 4 verdict mismatches.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from . import convergence, spectral
from ._io import write_csv, write_json
from .asymptotics import predict_thm1, predict_thm3, ratio_diagnostic
from .balayage import PLEMELJ_MARGIN, mu_from_point_masses, plemelj_jump, swept_potential
from .coeffs import MAX_ORDER, coeff_series
from .errors import BrillouinError, ParameterError
from .model import (PlanetSpec, RejectDomain, RejectNonGeneric, as_complex, as_integer,
                    as_number, build_profile, planet_from_config)

__all__ = ["ConfigError", "ExperimentConfig", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERDICT = 4

OUT_ENV_VAR = "BRILLOUIN_OUT"
COMMANDS = ("coeffs", "asympt", "radius", "spectral", "balayage", "full-verify")
#: the most exterior directions ``balayage`` checks: each takes one pass per
#: mass over the 76,800-point sphere rule of ``balayage.swept_potential``
MAX_EXTERIOR = 10_000
#: libyaml's parser where PyYAML has it: the same values, parsed 5-8x faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ConfigError(BrillouinError):
    """Configuration rejected; the message carries the field path."""


#: the default of a mandatory key
_MANDATORY = object()


def _require(cond, path, msg):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_keys(d, allowed, path):
    _require(isinstance(d, dict), path, "expected a mapping")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


# A kind reads one value: it converts the value and checks it, and raises
# ConfigError naming the field path when either fails.

def _kind(convert, msg, test=None):
    """The kind that reads a value as ``convert(value)``, which rejects it
    by raising TypeError, ValueError or OverflowError, and requires
    ``test`` of the result."""
    def read(value, path):
        try:
            value = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path}: {msg}") from None
        _require(test is None or test(value), path, msg)
        return value
    return read


def _same(value):
    return value


def _above(lo):
    return _kind(as_number, f"must be a number > {lo:g}", lambda v: v > lo)


def _at_least(lo):
    return _kind(as_number, f"must be a number >= {lo:g}", lambda v: v >= lo)


def _count(lo, hi=math.inf):
    bound = f" and <= {hi}" if hi < math.inf else ""
    return _kind(as_integer, f"must be an integer >= {lo}{bound}", lambda v: lo <= v <= hi)


def _choice(options):
    return _kind(_same, f"must be one of {options}", lambda v: v in options)


def _numbers(size, test, msg):
    """A list of ``size`` finite numbers, read as a float array that passes ``test``."""
    def convert(value):
        if not (isinstance(value, list) and len(value) == size):
            raise ValueError(f"not a list of {size}")
        return np.array([as_number(x) for x in value])
    return _kind(convert, msg, test)


_NUMBER = _kind(as_number, "must be a finite number")
_MAPPING = _kind(_same, "expected a mapping", lambda v: isinstance(v, dict))
_COMPLEX = _kind(as_complex, "must be a complex number")
_ANY = _kind(_same, "")


def _list(item, nonempty=False):
    """A list of values of kind ``item``."""
    def read(value, path):
        _require(isinstance(value, list) and (value or not nonempty), path,
                 "must be a non-empty list" if nonempty else "must be a list")
        return [item(x, f"{path}[{i}]") for i, x in enumerate(value)]
    return read


def _section(table, rules=None, cls=SimpleNamespace):
    """A mapping whose keys are those of ``table``, each ``(kind, default)``,
    read as a ``cls`` object with one attribute per key: the key's value read
    by its kind or, when the key is absent, its default read the same way
    (None: optional, with no default).  ``rules(section, path)`` then checks
    the rules that tie the section's keys together."""
    def read(value, path):
        _check_keys(value, table, path)
        section = cls()
        for key, (kind, default) in table.items():
            if key in value:
                setattr(section, key, kind(value[key], f"{path}.{key}"))
            else:
                _require(default is not _MANDATORY, f"{path}.{key}", "mandatory")
                setattr(section, key, None if default is None else kind(default, f"{path}.{key}"))
        if rules is not None:
            rules(section, path)
        return section
    return read


def _asympt_rules(asympt, path):
    if asympt.a0 is not None:
        _require(asympt.beta0 is not None, f"{path}.beta0", "mandatory with a0")
    if asympt.a1 != 0:
        _require(asympt.beta1 is not None, f"{path}.beta1", "mandatory with a nonzero a1")


class _TailGrid(SimpleNamespace):
    """The spectral section.  ``ks``, the tail fit's grid, is built on first
    use, so only the commands that sample the transform build it: the
    negative k of ``samples_per_octave`` geometric samples in each of
    ``octaves`` octaves from ``k_base``."""

    @functools.cached_property
    def ks(self):
        k_base, per = self.k_base, self.samples_per_octave
        return -np.concatenate([
            np.geomspace(k_base * 2.0**j, k_base * 2.0 ** (j + 1), per, endpoint=False)
            for j in range(self.octaves)
        ])


def _tail_grid(grid, path):
    """Bound the tail fit's grid from its three numbers, without building
    it.  Every sample's rule must stay under spectral.MAX_RULE_NODES, and
    the fit needs enough samples over a wide enough span: the largest |k|
    over the smallest is 2^(octaves - 1 / samples_per_octave)."""
    k_base, octaves, per = grid.k_base, grid.octaves, grid.samples_per_octave
    _require(octaves * per <= spectral.MAX_TAIL_SAMPLES, f"{path}.samples_per_octave",
             f"octaves * samples_per_octave must be <= {spectral.MAX_TAIL_SAMPLES}")
    k_field = "octaves" if k_base <= spectral.MAX_TAIL_K / 2.0 else "k_base"
    _require(math.log2(k_base) + octaves <= math.log2(spectral.MAX_TAIL_K), f"{path}.{k_field}",
             f"k_base * 2**octaves must be <= {spectral.MAX_TAIL_K:g}")
    _require(octaves * per >= spectral.MIN_TAIL_SAMPLES, f"{path}.samples_per_octave",
             f"octaves * samples_per_octave must be >= {spectral.MIN_TAIL_SAMPLES}")
    _require(octaves - 1.0 / per >= math.log2(spectral.MIN_TAIL_SPAN), f"{path}.octaves",
             f"the samples must span a ratio of at least {spectral.MIN_TAIL_SPAN:g} in k")


_PROBE = _kind(as_number, f"must be a number with {PLEMELJ_MARGIN:g} < |x| < "
               f"{1.0 - PLEMELJ_MARGIN:g}", lambda x: PLEMELJ_MARGIN < abs(x) < 1.0 - PLEMELJ_MARGIN)
_MASS = _section({"m": (_NUMBER, _MANDATORY),
                  "position": (_numbers(3, lambda p: np.linalg.norm(p) < 1.0,
                                        "must be 3 numbers strictly inside the unit sphere"),
                               _MANDATORY)})

#: the config schema outside the planet (``model.PLANETS`` holds the planet's):
#: each section's keys, each with its kind and its default (None: the key is
#: optional and has no default)
_SCHEMA = {
    "n_range": {"n_min": (_count(0), 0), "n_max": (_count(0, MAX_ORDER), _MANDATORY)},
    # expect.verdict is read as given: an unknown verdict is a verdict mismatch
    "expect": {"verdict": (_ANY, None), "rho": (_NUMBER, None), "rho_tol": (_at_least(0), 0.005),
               "median_ratio_window": (_numbers(2, lambda w: w[0] <= w[1],
                                                "must be two numbers [lo, hi] with lo <= hi"),
                                       None),
               "beta": (_NUMBER, None), "beta_tol": (_at_least(0), 0.05),
               "max_abs_coeff": (_NUMBER, None)},
    "asympt": {"source": (_choice(("auto", "thm1", "thm3")), "auto"), "a0": (_COMPLEX, None),
               "beta0": (_above(1), None), "a1": (_COMPLEX, 0.0), "beta1": (_above(2), None)},
    "spectral": {"k_base": (_above(0), 50.0), "octaves": (_count(1), 7),
                 "samples_per_octave": (_count(1), 12)},
    "balayage": {"masses": (_list(_MASS, nonempty=True), _MANDATORY),
                 "probe_x": (_list(_PROBE), [0.5]),
                 "n_exterior": (_count(0, MAX_EXTERIOR), 10),
                 "obs_radius": (_above(1), 2.0)},
}
#: the rules that tie a section's keys together, and the class it reads as
_RULES = {"asympt": (_asympt_rules,), "spectral": (_tail_grid, _TailGrid)}
# a section that a config leaves out reads as {}, every key at its default;
# n_range and balayage, which have mandatory keys, read as None
_SCHEMA["config"] = {
    "schema_version": (_choice((1,)), _MANDATORY),
    "command": (_choice(COMMANDS), None),
    "seed": (_count(0), _MANDATORY),
    "planet": (_MAPPING, _MANDATORY),
    "tol": (_above(0), 1e-10),
    "out_dir": (_ANY, None),
    **{name: (_section(table, *_RULES.get(name, ())),
              None if name in ("n_range", "balayage") else {})
       for name, table in _SCHEMA.items()},
}


def _planet_field(build, arg):
    """``build(arg)``, with a planet parameter outside its domain raised as
    ConfigError naming its field path."""
    try:
        return build(arg)
    except (ParameterError, RejectDomain, RejectNonGeneric) as exc:
        raise ConfigError(f"config.planet.{exc.field}: {exc}") from exc


class ExperimentConfig:
    """Validated experiment description plus its provenance hash.  Every
    value is read once, here: each section is an object whose attributes
    are its keys' values, converted, with the schema's defaults filled in
    (``config.expect.rho``, ``config.spectral.ks``)."""

    def __init__(self, raw, command=None):
        values = _section(_SCHEMA["config"])(raw, "config")
        self.raw = raw
        if values.command is not None and command is not None:
            _require(values.command == command, "config.command",
                     f"config says {values.command!r} but the CLI invoked {command!r}")
        self.command = command or values.command
        _require(self.command in COMMANDS, "config.command", "missing command")
        # a profile's spec is evaluated (build_profile) only by planet()
        planet = self._planet = _planet_field(planet_from_config, values.planet)

        # the rules that tie fields together; a profile read from a config
        # always has a weight
        if self.command in ("asympt", "spectral"):
            _require(isinstance(planet, PlanetSpec), "config.planet.kind",
                     f"the {self.command} command needs a profile planet")
        tail_weight = isinstance(planet, PlanetSpec) and planet.weight.variant == "fourier_tail"
        if self.command == "spectral":
            _require(tail_weight, "config.planet.weight.variant",
                     "the spectral command needs a fourier_tail weight")
        n_range = values.n_range
        self.n_min, self.n_max = (n_range.n_min, n_range.n_max) if n_range else (0, 0)
        _require(self.n_min <= self.n_max, "config.n_range", "n_min must not exceed n_max")
        if self.command in ("coeffs", "asympt", "radius"):
            _require(n_range is not None, "config.n_range",
                     f"mandatory for the {self.command} command")
        if self.command == "asympt":
            # the predictors start at n = 1
            _require(self.n_max >= 1, "config.n_range.n_max",
                     "must be >= 1 for the asympt command")
        if values.asympt.a0 is None and values.asympt.source == "thm1":
            _require(tail_weight, "config.asympt.a0",
                     "mandatory unless the weight's tail can be fitted (a fourier_tail weight)")
        if self.command == "balayage":
            _require(values.balayage is not None, "config.balayage",
                     "mandatory for the balayage command")
        self.seed, self.tol, self.out_dir = values.seed, values.tol, values.out_dir
        self.expect, self.asympt = values.expect, values.asympt
        self.spectral, self.balayage = values.spectral, values.balayage

    @property
    def config_hash(self):
        canon = dict(self.raw)
        canon["command"] = self.command
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def planet(self):
        """The configured planet.  A profile is evaluated here, and a shape
        that build_profile rejects raises ConfigError with its field path."""
        if not isinstance(self._planet, PlanetSpec):
            return self._planet
        return _planet_field(build_profile, self._planet)


def load_config(path, command=None):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
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
    cap = config.expect.max_abs_coeff
    if cap is not None and np.max(np.abs(series.values)) > cap:
        failures.append("max_abs_coeff exceeded")
    return failures


def _predictor(config, planet, ns):
    asympt = config.asympt
    if asympt.source == "thm1" or (asympt.source == "auto"
                                   and planet.weight.variant == "fourier_tail"):
        if asympt.a0 is not None:
            a0, beta0 = asympt.a0, asympt.beta0
        else:
            fit, _ = _fit_weight_tail(config, planet)
            a0, beta0 = fit.amp, fit.beta
        return predict_thm1(a0, beta0, asympt.a1, asympt.beta1, planet.R, planet.theta0, ns)
    return predict_thm3(planet.peak, planet.weight, planet.R, planet.theta0, ns)


def _fit_weight_tail(config, planet):
    """Tail fit of the weight's transform on the config's k grid; returns
    ``(fit, vals)`` with the transform samples it was fitted to."""
    prof = planet.weight.tail_profile()
    ks = config.spectral.ks
    vals = spectral.sample_transform(prof, prof.support, ks,
                                     singularities=prof.singularities)
    return spectral.fit_tail(ks, vals), vals


def _cmd_asympt(config, out):
    planet = config.planet()
    series = _series_for(config, planet)
    # the predictors are singular at n = 0
    pred = _predictor(config, planet, series.n[series.n >= 1])
    report = ratio_diagnostic(series, pred)
    report.to_csv(out / "ratio.csv", config_hash=config.config_hash)
    report.to_json(out / "ratio.json", config_hash=config.config_hash)
    failures = []
    window = config.expect.median_ratio_window
    if window is not None:
        lo, hi = window
        if not (lo <= report.median_ratio <= hi):
            failures.append(
                f"median ratio {report.median_ratio:.4f} outside [{lo}, {hi}]")
    return failures


def _verdict_failures(config, report, R):
    """Failures of the ``verdict`` and ``rho`` expect checks."""
    failures = []
    expect = config.expect
    if expect.verdict is not None and report.verdict != expect.verdict:
        failures.append(f"verdict {report.verdict} != expected {expect.verdict}")
    # written so that a NaN rho_hat fails the check
    if expect.rho is not None and not abs(report.rho_hat - expect.rho) <= expect.rho_tol * R:
        failures.append(f"rho_hat {report.rho_hat:.4f} not within {expect.rho_tol} "
                        f"of {expect.rho}")
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
    fit, vals = _fit_weight_tail(config, planet)
    write_csv(out / "transform.csv",
              {"k": config.spectral.ks, "re": np.real(vals), "im": np.imag(vals)},
              config_hash=config.config_hash)
    write_json(out / "tailfit.json", {
        "beta": fit.beta,
        "amp": complex(fit.amp),
        "residual": fit.residual,
        "window": list(fit.window),
        "config_hash": config.config_hash,
    })
    failures = []
    beta, tol = config.expect.beta, config.expect.beta_tol
    if beta is not None and abs(fit.beta - beta) > tol:
        failures.append(f"fitted beta {fit.beta:.4f} not within {tol} of {beta}")
    return failures


def _cmd_balayage(config, out):
    bal = config.balayage
    measure = mu_from_point_masses([(mass.m, mass.position) for mass in bal.masses])
    xs = np.linspace(-0.99, 0.99, 199)
    measure.to_csv(out / "mu.csv", xs, config_hash=config.config_hash)

    rng = np.random.default_rng(config.seed)
    directions = rng.normal(size=(bal.n_exterior, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    obs = bal.obs_radius * directions
    direct = sum(mass.m / np.linalg.norm(obs - mass.position, axis=1) for mass in bal.masses)
    swept = sum(mass.m * swept_potential(mass.position, obs) for mass in bal.masses)
    worst_rel = float(np.max(np.abs(swept - direct) / np.abs(direct), initial=0.0))

    recoveries = []
    for x0 in bal.probe_x:
        _, rec = plemelj_jump(measure, x0)
        recoveries.append({"x0": x0, "mu_recovered": rec.real, "mu_direct": measure(x0)})
    payload = {
        "total_mass": measure.total_mass(),
        "source_mass": sum(mass.m for mass in bal.masses),
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
        # flag overrides are checked as the config key and participate in
        # the provenance hash via raw
        if args.tol is not None:
            config.tol = _SCHEMA["config"]["tol"][0](args.tol, "config.tol")
            config.raw["tol"] = args.tol
        return run(config, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
