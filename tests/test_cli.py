import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import brillouin
from brillouin import cli, coeffs
from brillouin.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERDICT,
    ConfigError,
    load_config,
    main,
    run,
)
from brillouin.model import PEAKS, PLANETS, WEIGHTS
from brillouin.spectral import MAX_TAIL_K, MAX_TAIL_SAMPLES

POINT_MASS_CONFIG = {
    "schema_version": 1,
    "seed": 7,
    "planet": {"kind": "point_mass", "r0": 0.9, "cos_theta_p": 0.5, "m": 1.0},
    "n_range": {"n_min": 0, "n_max": 400},
    "tol": 1e-10,
}

CUSP_PLANET = {
    "kind": "profile",
    "theta0": 1.0,
    "peak": {"variant": "power_cusp", "alpha": 0.5, "a_minus": 1.0, "a_plus": 1.0},
    "weight": {"variant": "two_sided_cusp", "k": 1.0, "g_plus": 1.0, "g_minus": 1.0},
    "delta": 0.5,
    "delta1": 0.4,
}

#: a valid example of each planet kind, peak and weight, with its mandatory keys
SCHEMA_EXAMPLES = {
    ("planet", "point_mass"): ({"kind": "point_mass", "r0": 0.9, "theta_p": 1.0, "m": 1.0},
                               ("r0", "theta_p", "m")),
    ("planet", "ball"): ({"kind": "ball", "R_b": 1.0, "rho0": 1.0}, ("R_b", "rho0")),
    ("planet", "profile"): (CUSP_PLANET, ("theta0", "peak")),
    ("peak", "quadratic"): ({"variant": "quadratic", "c": 2.0}, ("c",)),
    ("peak", "power_cusp"): ({"variant": "power_cusp", "alpha": 0.5, "a_minus": 1.0,
                              "a_plus": 1.0}, ("alpha", "a_minus", "a_plus")),
    ("peak", "power_c1"): ({"variant": "power_c1", "alpha": 1.5, "a_minus": 2.0, "a_plus": 2.0},
                           ("alpha", "a_minus", "a_plus")),
    ("weight", "smooth_power"): ({"variant": "smooth_power", "k": 1, "g_k": 1.0}, ("k", "g_k")),
    ("weight", "two_sided_cusp"): ({"variant": "two_sided_cusp", "k": 1.0, "g_plus": 1.0,
                                    "g_minus": 1.0}, ("k", "g_plus", "g_minus")),
    ("weight", "c1_mixed"): ({"variant": "c1_mixed", "g1": 1.0, "g_plus": 0.5, "g_minus": 0.5,
                              "alpha": 1.5}, ("g1", "g_plus", "g_minus", "alpha")),
    ("weight", "fourier_tail"): ({"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
                                 ("beta0", "eps")),
}


def write_config(tmp_path, payload, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


class TestConfigValidation:
    def test_missing_schema_version(self, tmp_path):
        cfg = dict(POINT_MASS_CONFIG)
        del cfg["schema_version"]
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG)
        cfg["surprise"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config.surprise" in capsys.readouterr().err

    def test_missing_planet_field(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1, "seed": 1,
            "planet": {"kind": "profile",
                       "peak": {"variant": "quadratic", "c": 2.0}},
            "n_range": {"n_max": 10},
        }
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config.planet.theta0" in capsys.readouterr().err

    def test_seed_mandatory(self, tmp_path):
        cfg = dict(POINT_MASS_CONFIG)
        del cfg["seed"]
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_command_mismatch(self, tmp_path):
        cfg = dict(POINT_MASS_CONFIG)
        cfg["command"] = "radius"
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("planet: [unclosed")
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["coeffs", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_jobs_key_is_unknown(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG, jobs=2)
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config.jobs: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["abc", 0.0, float("nan")])
    def test_bad_tolerance_names_field(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, dict(POINT_MASS_CONFIG, tol=tol))
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error: config.tol: " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, True])
    def test_bad_seed_names_field_before_any_artifact(self, tmp_path, capsys, seed):
        # balayage draws its observers from the seed after writing mu.csv
        path = write_config(tmp_path, dict(BALAYAGE_CONFIG, seed=seed))
        out = tmp_path / "out"
        assert main(["balayage", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "config error: config.seed: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_flag_names_field(self, tmp_path, capsys, tol):
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out),
                     "--tol", tol]) == EXIT_CONFIG
        assert "config error: config.tol: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_order_names_field(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG, n_range={"n_min": 0, "n_max": "abc"})
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config.n_range.n_max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coeffs", "asympt", "radius", "full-verify"])
    @pytest.mark.parametrize("n_max", [1e300, coeffs.MAX_ORDER + 1])
    def test_order_past_its_bound_names_field(self, tmp_path, capsys, monkeypatch, command,
                                              n_max):
        # the bound is checked at load: no series is started
        monkeypatch.setattr(cli, "coeff_series", None)
        cfg = dict(POINT_MASS_CONFIG, planet=CUSP_PLANET, n_range={"n_max": n_max})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert (f"config error: config.n_range.n_max: must be an integer >= 0 and "
                f"<= {coeffs.MAX_ORDER}") in capsys.readouterr().err
        assert not out.exists()

    def test_order_at_its_bound_accepted(self):
        config = cli.ExperimentConfig(dict(POINT_MASS_CONFIG, n_range={"n_max": coeffs.MAX_ORDER}),
                                      command="coeffs")
        assert config.n_max == coeffs.MAX_ORDER

    def test_yaml_parsed_as_the_safe_loader_parses_it(self, tmp_path):
        path = write_config(tmp_path, dict(POINT_MASS_CONFIG, asympt={"a0": "1-2j", "beta0": 1.5}))
        if yaml.__with_libyaml__:
            assert cli._YAML_LOADER is yaml.CSafeLoader
        assert load_config(path, "coeffs").raw == yaml.safe_load(path.read_text())

    def test_reversed_order_range_leaves_no_artifact_dir(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG, n_range={"n_min": 50, "n_max": 10})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "config.n_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("planet, field", [
        (dict(CUSP_PLANET, peak={"variant": "quadratic", "c": -1}), "config.planet.peak.c"),
        ({k: v for k, v in CUSP_PLANET.items() if k != "weight"}, "config.planet.weight"),
        (dict(CUSP_PLANET, theta0=math.pi / 2), "config.planet.theta0"),
        (dict(CUSP_PLANET, peak={"variant": "quadratic"}), "config.planet.peak.c"),
        (dict(CUSP_PLANET, peak={"variant": "quadratic", "c": "abc"}), "config.planet.peak.c"),
        (dict(CUSP_PLANET, peak={"variant": ["quadratic"], "c": 2.0}),
         "config.planet.peak.variant"),
        (dict(CUSP_PLANET, weight={"variant": "smooth_power", "k": 1, "g_k": True}),
         "config.planet.weight.g_k"),
        (dict(POINT_MASS_CONFIG["planet"], cos_theta_p=1.5), "config.planet.cos_theta_p"),
        (dict(POINT_MASS_CONFIG["planet"], theta_p=1.0), "config.planet.cos_theta_p"),
        (dict(CUSP_PLANET, weight={"variant": "fourier_tail", "beta0": 1.5, "eps": 1.0e300}),
         "config.planet.weight.eps"),
        (dict(CUSP_PLANET, weight={"variant": "fourier_tail", "beta0": 1.5, "eps": math.pi}),
         "config.planet.weight.eps"),
    ], ids=["negative-curvature", "no-weight", "theta0-equator", "missing-curvature",
            "non-numeric-curvature", "list-variant", "boolean-weight", "cos-theta-out-of-range",
            "theta-and-cos-theta", "tail-support-huge", "tail-support-pi"])
    def test_planet_out_of_domain_names_field(self, tmp_path, capsys, planet, field):
        cfg = {"schema_version": 1, "seed": 1, "planet": planet, "n_range": {"n_max": 20}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not list(out.glob("coeffs-*"))

    @pytest.mark.parametrize("command, change, field", [
        ("radius", {"expect": {"rho": "abc"}}, "config.expect.rho"),
        ("coeffs", {"expect": {"max_abs_coeff": "abc"}}, "config.expect.max_abs_coeff"),
        ("radius", {"expect": {"rho": 1.0, "rho_tol": -0.1}}, "config.expect.rho_tol"),
        ("spectral", {"expect": {"beta": [1.5]}}, "config.expect.beta"),
        ("spectral", {"expect": {"beta": 1.5, "beta_tol": "wide"}}, "config.expect.beta_tol"),
        ("asympt", {"expect": {"median_ratio_window": [0.9]}},
         "config.expect.median_ratio_window"),
        ("asympt", {"expect": {"median_ratio_window": [1.1, 0.9]}},
         "config.expect.median_ratio_window"),
        ("asympt", {"asympt": {"source": "bogus"}}, "config.asympt.source"),
        ("asympt", {"asympt": {"source": "thm1", "a0": "abc", "beta0": 1.5}},
         "config.asympt.a0"),
        ("asympt", {"asympt": {"source": "thm1", "a0": -0.5, "beta0": "abc"}},
         "config.asympt.beta0"),
        ("asympt", {"asympt": {"source": "thm1", "a0": -0.5}}, "config.asympt.beta0"),
        ("asympt", {"asympt": {"a1": "1+", "beta1": 2.0}}, "config.asympt.a1"),
        ("coeffs", {"planet": dict(CUSP_PLANET, r_m=2.0)}, "config.planet.r_m"),
        ("coeffs", {"planet": dict(CUSP_PLANET, weight={"variant": "smooth_power", "k": 2.5,
                                                        "g_k": 1.0})},
         "config.planet.weight.k"),
        ("asympt", {"planet": CUSP_PLANET, "asympt": {"source": "thm1"}}, "config.asympt.a0"),
        ("asympt", {"asympt": {"a0": -0.5, "beta0": 0.5}}, "config.asympt.beta0"),
        ("asympt", {"asympt": {"a0": -0.5, "beta0": 1.5, "a1": 1.0}}, "config.asympt.beta1"),
        ("asympt", {"asympt": {"a0": -0.5, "beta0": 1.5, "a1": 1.0, "beta1": 2.0}},
         "config.asympt.beta1"),
        ("asympt", {"planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0}}, "config.planet.kind"),
        ("asympt", {"planet": POINT_MASS_CONFIG["planet"]}, "config.planet.kind"),
        ("balayage", {"planet": dict(CUSP_PLANET, peak={"variant": "quadratic", "c": -1}),
                      "balayage": {"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.6]}]}},
         "config.planet.peak.c"),
        ("spectral", {"planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0}}, "config.planet.kind"),
        ("spectral", {"planet": POINT_MASS_CONFIG["planet"]}, "config.planet.kind"),
        ("spectral", {"planet": CUSP_PLANET}, "config.planet.weight.variant"),
        ("balayage", {"planet": dict(CUSP_PLANET, theta0=math.pi / 2),
                      "balayage": {"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.6]}]}},
         "config.planet.theta0"),
    ], ids=["rho", "max-abs-coeff", "negative-rho-tol", "list-beta",
            "beta-tol", "one-sided-window", "reversed-window", "unknown-source",
            "non-complex-a0", "non-numeric-beta0", "a0-without-beta0", "non-complex-a1",
            "inner-radius-outside", "fractional-integer-k", "thm1-without-a0-or-tail", "beta0-at-most-1",
            "a1-without-beta1", "beta1-at-most-2", "asympt-on-ball", "asympt-on-point-mass",
            "balayage-bad-planet", "spectral-on-ball", "spectral-on-point-mass",
            "spectral-without-tail-weight", "balayage-theta0-equator"])
    def test_expect_asympt_and_shape_errors_name_field(self, tmp_path, capsys, command,
                                                       change, field):
        cfg = {"schema_version": 1, "seed": 1,
               "planet": dict(CUSP_PLANET, weight={"variant": "fourier_tail",
                                                   "beta0": 1.5, "eps": 0.25}),
               "n_range": {"n_max": 20}, **change}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("part, variant", [
        *[("planet", kind) for kind in sorted(PLANETS)],
        *[("peak", variant) for variant in sorted(PEAKS)],
        *[("weight", variant) for variant in sorted(WEIGHTS)],
    ])
    def test_planet_schema_names_unknown_and_missing_keys(self, tmp_path, capsys, part, variant):
        assert set(SCHEMA_EXAMPLES) == {("planet", k) for k in PLANETS} \
            | {("peak", v) for v in PEAKS} | {("weight", v) for v in WEIGHTS}
        example, mandatory = SCHEMA_EXAMPLES[part, variant]
        prefix = "config.planet" if part == "planet" else f"config.planet.{part}"

        def planet_with(body):
            return body if part == "planet" else dict(CUSP_PLANET, **{part: body})

        cfg = {"schema_version": 1, "seed": 1, "n_range": {"n_max": 20}}
        assert cli.ExperimentConfig(dict(cfg, planet=planet_with(example)), command="coeffs")
        cases = [(dict(example, bogus=1), f"{prefix}.bogus: unknown key")]
        cases += [({k: v for k, v in example.items() if k != key}, f"{prefix}.{key}: is mandatory")
                  for key in mandatory]
        for body, message in cases:
            path = write_config(tmp_path, dict(cfg, planet=planet_with(body)))
            assert main(["coeffs", "--config", str(path), "--out", str(tmp_path / "out")]) \
                == EXIT_CONFIG
            assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("planet, digests", [
        ({"kind": "ball", "R_b": 1.0, "rho0": 1.0},
         ("0e57954ced13e3131aef914c92225f4b2de07e770b923dece518345fc3712273",
          "7540491a09b2a4dac601829d1fd53dba01624cb7671f630eeac763612e513d14")),
        ({"kind": "point_mass", "r0": 0.8, "theta_p": 2.5, "m": 1.5, "R": 1.1},
         ("cdad5aa11f8264840c11de1fedb828322f8a4f8f29a1dffe5e7f0bccd4224988",
          "b2ab2df43e1a595fec3c212cba46fa1312e44f68fbba91dde728ba138e0a6e19")),
        ({"kind": "point_mass", "r0": 0.9, "cos_theta_p": 0.5, "m": 1},
         ("cb8d3d577a6bd98576c0e7d318a1c1114875e9d868b9005e5b96927a35f04274",
          "85d069d6a1423826bc7810fab1e4a6dd7cb698bd778758bc786fc502fd47a46c")),
    ], ids=["ball", "point-mass-theta", "point-mass-cos-integer-m"])
    def test_oracle_coeffs_artifacts_are_pinned(self, tmp_path, planet, digests):
        # byte-identical artifacts across changes to the code, not only across
        # two runs of the same code
        path = write_config(tmp_path, {"schema_version": 1, "seed": 7, "planet": planet,
                                       "n_range": {"n_min": 0, "n_max": 300}})
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
        art = next(tmp_path.glob("coeffs-*"))
        assert tuple(hashlib.sha256((art / name).read_bytes()).hexdigest()
                     for name in ("coeffs.csv", "coeffs.json")) == digests

    @pytest.mark.parametrize("command, cfg, digest", [
        # the README example config
        ("radius", {
            "schema_version": 1, "seed": 7, "planet": dict(CUSP_PLANET, R=1.0),
            "n_range": {"n_min": 0, "n_max": 2000}, "tol": 1.0e-10,
            "expect": {"verdict": "ConvergesExactlyAtBrillouin"}},
         "2877e2ef2987378e54d2976077d4523887e63c13369a16f18211d3e712abd521"),
        # every optional section and key set
        ("asympt", {
            "schema_version": 1, "seed": 11, "command": "asympt", "out_dir": "runs",
            "planet": {"kind": "profile", "schema_version": 1, "R": 1.0, "theta0": 1.2,
                       "peak": {"variant": "quadratic", "c": 2.0, "beta": 4.0},
                       "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25,
                                  "taper_order": 4},
                       "delta": 0.5, "delta1": 0.4, "r_m": 0.3, "G": 1.0},
            "n_range": {"n_min": 1, "n_max": 500}, "tol": 1.0e-9,
            "expect": {"verdict": "ConvergesExactlyAtBrillouin", "rho": 1.0, "rho_tol": 0.01,
                       "median_ratio_window": [0.9, 1.1], "beta": 1.5, "beta_tol": 0.05,
                       "max_abs_coeff": 10.0},
            "asympt": {"source": "thm1", "a0": "1-2j", "beta0": 1.5, "a1": 0.5, "beta1": 3.5},
            "spectral": {"k_base": 40.0, "octaves": 7, "samples_per_octave": 10},
            "balayage": {"masses": [{"m": 1.0, "position": [0.1, 0.2, 0.3]}],
                         "probe_x": [0.4], "n_exterior": 5, "obs_radius": 3.0}},
         "3a6cab9cf3e55ffd49984f7edfe0551888ea917c883710667df758441b74d141"),
    ], ids=["readme", "every-section"])
    def test_config_hash_is_pinned(self, command, cfg, digest):
        # the hash names the artifact directory and is written into every
        # artifact; defaults are never written into the hashed config
        assert cli.ExperimentConfig(cfg, command=command).config_hash == digest

    @pytest.mark.parametrize("field, value, read", [
        ("n_range.n_min", 2, lambda c: c.n_min),
        ("n_range.n_max", 2, lambda c: c.n_max),
        ("seed", 2, lambda c: c.seed),
        ("spectral.octaves", 7, lambda c: c.spectral.octaves),
        ("spectral.samples_per_octave", 12, lambda c: c.spectral.samples_per_octave),
        ("balayage.n_exterior", 2, lambda c: c.balayage.n_exterior),
        ("planet.weight.k", 2, lambda c: c.planet().weight.k),
        ("planet.weight.taper_order", 4, lambda c: c.planet().weight.taper_order),
    ], ids=["n_min", "n_max", "seed", "octaves", "samples_per_octave", "n_exterior", "k",
            "taper_order"])
    def test_integer_fields_read_by_one_rule(self, tmp_path, capsys, field, value, read):
        # an integral value is read as an int however it is written; a
        # fraction or a boolean exits 2 naming the field
        def config_with(v):
            weight = ({"variant": "smooth_power", "g_k": 1.0} if field == "planet.weight.k"
                      else {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25})
            cfg = {"schema_version": 1, "seed": 1, "planet": dict(CUSP_PLANET, weight=weight),
                   "n_range": {"n_min": 0, "n_max": 20}, "spectral": {},
                   "balayage": dict(BALAYAGE_CONFIG["balayage"])}
            *parents, key = field.split(".")
            node = cfg
            for part in parents:
                node = node[part]
            node[key] = v
            return cfg

        for v in (value, float(value), str(value)):
            got = read(cli.ExperimentConfig(config_with(v), command="coeffs"))
            assert got == value and type(got) is int, v
        for v in (2.5, True):
            path = write_config(tmp_path, config_with(v))
            out = tmp_path / "out"
            assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            assert f"config error: config.{field}: " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, code, digests", [
        ("coeffs", EXIT_OK, {
            "coeffs-b8f23ef8a43b/coeffs.csv":
                "21504e70d24fa8fd36eb470e2544fca4edc0515f2a50afbbbdfd36a2be34e9a5",
            "coeffs-b8f23ef8a43b/coeffs.json":
                "47d7f4b83ce4dfce4a0bc4761861c19fe087a58d1d7d7d3bfb92c568bb649604"}),
        ("asympt", EXIT_VERDICT, {
            "asympt-6fb5b6552442/ratio.csv":
                "c0c0df388c8286083755ea027dd0f5ee2930e2185af0b96d986d5aa70cd322ec",
            "asympt-6fb5b6552442/ratio.json":
                "4ff1c918be834ca48ff7eb4508508ade6f09786f3b90367ec09775b3ff27e2fa"}),
        ("radius", EXIT_VERDICT, {
            "radius-4431e168f32e/radius.json":
                "32ce0a78b654c5ab039fe95243b0998b430bd9be49a7e54f6c3dcc1bf925f2d1"}),
        ("spectral", EXIT_OK, {
            "spectral-b928f2f7f225/tailfit.json":
                "0f5044a0186035df2b432cfd249e6131d2e8d1a40b2cce83fd0064b3bec9b496",
            "spectral-b928f2f7f225/transform.csv":
                "83b6dc8e57ea4394d326a0058b5a91467ed013f52b2e20c48c0ad66997d384e9"}),
        ("balayage", EXIT_OK, {
            "balayage-0076c7bace95/balayage.json":
                "f5c8a1e2e672c072c0391c29317e946cf5c6f75cd3092075f13da1a412aa67e4",
            "balayage-0076c7bace95/mu.csv":
                "b1104b281e831437288874381acbea42013421967f3b2901298e4ff26f11badc"}),
        ("full-verify", EXIT_VERDICT, {
            "full-verify-faa79129df94/coeffs.csv":
                "e652d73ba6def004140d1556c67b907466ad1d825bd2a7e855b4d4018357d003",
            "full-verify-faa79129df94/radius.json":
                "d3ebc9ff57c6c97e9bf73da75d8d013b68ff81137b64d28f5848403dc713f202",
            "full-verify-faa79129df94/summary.json":
                "8918f8009f6bbac51cef6d8b02271ce999377344527a0e84b107d8f9040e3f6d"}),
    ])
    def test_every_section_artifacts_are_pinned(self, tmp_path, command, code, digests):
        # the config that sets every optional key, so every conversion of
        # the config reader feeds these bytes; the planet has no r_m, which
        # build_profile would reject, and no command, so each command runs
        cfg = {
            "schema_version": 1, "seed": 11, "out_dir": "runs",
            "planet": {"kind": "profile", "schema_version": 1, "R": 1.0, "theta0": 1.2,
                       "peak": {"variant": "quadratic", "c": 2.0, "beta": 4.0},
                       "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25,
                                  "taper_order": 4},
                       "delta": 0.5, "delta1": 0.4, "G": 1.0},
            "n_range": {"n_min": 1, "n_max": 500}, "tol": 1.0e-9,
            "expect": {"verdict": "ConvergesExactlyAtBrillouin", "rho": 1.0, "rho_tol": 0.01,
                       "median_ratio_window": [0.9, 1.1], "beta": 1.5, "beta_tol": 0.05,
                       "max_abs_coeff": 10.0},
            "asympt": {"source": "thm1", "a0": "1-2j", "beta0": 1.5, "a1": 0.5, "beta1": 3.5},
            "spectral": {"k_base": 40.0, "octaves": 7, "samples_per_octave": 10},
            "balayage": {"masses": [{"m": 1.0, "position": [0.1, 0.2, 0.3]}],
                         "probe_x": [0.4], "n_exterior": 5, "obs_radius": 3.0}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == code
        assert {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.rglob("*") if p.is_file()} == digests

    def test_load_config_object(self, tmp_path):
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        config = load_config(path, command="coeffs")
        assert config.n_max == 400
        assert len(config.config_hash) == 64


class TestCoeffsCommand:
    def test_artifacts_written(self, tmp_path):
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        produced = list(out.glob("coeffs-*/coeffs.csv"))
        assert len(produced) == 1
        text = produced[0].read_text()
        assert text.startswith("# config_hash: ")
        assert text.splitlines()[1] == "n,C_scaled,err"
        payload = json.loads(produced[0].with_suffix(".json").read_text())
        assert payload["n_max"] == 400

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        blobs1 = {p.name: p.read_bytes() for p in out.glob("coeffs-*/*")}
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        blobs2 = {p.name: p.read_bytes() for p in out.glob("coeffs-*/*")}
        assert blobs1 == blobs2


    def test_swept_run_facts_rerun_byte_identical(self, tmp_path):
        cfg = {"schema_version": 1, "seed": 1, "planet": CUSP_PLANET,
               "n_range": {"n_min": 0, "n_max": 300}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        blobs1 = {p.name: p.read_bytes() for p in out.glob("coeffs-*/*")}
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        blobs2 = {p.name: p.read_bytes() for p in out.glob("coeffs-*/*")}
        assert blobs1 == blobs2
        payload = json.loads(blobs1["coeffs.json"])
        planet = load_config(path, command="coeffs").planet()
        grids = [coeffs.theta_grid(planet, 300, level)[0].size for level in (0, 1)]
        assert payload["grid_nodes"] == grids
        assert all(0 < v < g * 301 for v, g in zip(payload["node_orders"], grids))
        assert payload["worst_err_over_floor"] >= 1.0

    def test_envelope_bound_breach_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(coeffs, "ENVELOPE_SAFETY", 1e-6)
        cfg = {"schema_version": 1, "seed": 1, "planet": CUSP_PLANET,
               "n_range": {"n_min": 0, "n_max": 20}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert "envelope bound" in capsys.readouterr().err
        # nothing was written, so no empty artifact directory is left behind
        assert not list(out.glob("coeffs-*"))


class TestRadiusCommand:
    def test_point_mass_radius_with_expectation(self, tmp_path):
        cfg = dict(POINT_MASS_CONFIG)
        cfg["n_range"] = {"n_min": 0, "n_max": 2000}
        cfg["expect"] = {"verdict": "OverconvergenceSuspected", "rho": 0.9,
                        "rho_tol": 0.005}
        path = write_config(tmp_path, cfg)
        assert main(["radius", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK

    def test_wrong_expectation_is_verdict_mismatch(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG)
        cfg["n_range"] = {"n_min": 0, "n_max": 2000}
        cfg["expect"] = {"verdict": "ConvergesExactlyAtBrillouin"}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["radius", "--config", str(path), "--out", str(out)]) == EXIT_VERDICT
        assert "verdict mismatch" in capsys.readouterr().err
        # a verdict mismatch keeps its artifacts
        assert [p.name for p in out.glob("radius-*/*")] == ["radius.json"]

    def test_nan_rho_hat_fails_rho_expectation(self, tmp_path, capsys):
        # too few orders for the root test: rho_hat comes out NaN
        cfg = dict(POINT_MASS_CONFIG)
        cfg["planet"] = dict(POINT_MASS_CONFIG["planet"], r0=0.8)
        cfg["n_range"] = {"n_min": 0, "n_max": 100}
        cfg["expect"] = {"rho": 0.8}
        path = write_config(tmp_path, cfg)
        assert main(["radius", "--config", str(path), "--out", str(tmp_path)]) == EXIT_VERDICT
        assert "rho_hat nan not within" in capsys.readouterr().err


class TestAsymptCommand:
    def test_cusp_ratio_pass(self, tmp_path):
        cfg = {
            "schema_version": 1, "seed": 3,
            "planet": CUSP_PLANET,
            "n_range": {"n_min": 300, "n_max": 1200},
            "tol": 1e-9,
            "expect": {"median_ratio_window": [0.9, 1.1]},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["asympt", "--config", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(next(out.glob("asympt-*/ratio.json")).read_text())
        assert payload["verdict"] == "pass"

    def test_thm1_predictor_with_explicit_tail(self, tmp_path):
        planet = {
            "kind": "profile", "theta0": 1.0,
            "peak": {"variant": "quadratic", "c": 2.0},
            "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
            "delta": 0.5, "delta1": 0.4,
        }
        cfg = {"schema_version": 1, "seed": 3, "planet": planet,
               "n_range": {"n_min": 400, "n_max": 900},
               "asympt": {"source": "thm1", "a0": -0.5, "beta0": 1.5},
               "expect": {"median_ratio_window": [0.85, 1.15]}}
        path = write_config(tmp_path, cfg)
        assert main(["asympt", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK

    def test_unsupported_pairing_is_numeric_failure(self, tmp_path):
        planet = {
            "kind": "profile", "theta0": 1.0,
            "peak": {"variant": "quadratic", "c": 2.0},
            "weight": {"variant": "smooth_power", "k": 1, "g_k": 1.0},
            "delta": 0.5, "delta1": 0.4,
        }
        cfg = {"schema_version": 1, "seed": 3, "planet": planet,
               "n_range": {"n_min": 100, "n_max": 300},
               "asympt": {"source": "thm3"}}
        path = write_config(tmp_path, cfg)
        assert main(["asympt", "--config", str(path), "--out", str(tmp_path)]) == EXIT_NUMERIC

    def test_order_zero_writes_only_finite_ratios(self, tmp_path):
        planet = {
            "kind": "profile", "theta0": 1.0,
            "peak": {"variant": "quadratic", "c": 2.0},
            "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
            "delta": 0.5, "delta1": 0.4,
        }
        cfg = {"schema_version": 1, "seed": 3, "planet": planet,
               "n_range": {"n_min": 0, "n_max": 600},
               "asympt": {"source": "thm1", "a0": -0.5, "beta0": 1.5}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["asympt", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = next(out.glob("asympt-*/ratio.csv")).read_text().splitlines()
        assert lines[1] == "n,coeff,pred,ratio,masked"
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        assert rows[0][0] == 1.0
        assert all(math.isfinite(x) for row in rows for x in row)
        payload = json.loads(next(out.glob("asympt-*/ratio.json")).read_text())
        assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))


class TestSpectralCommand:
    def test_tail_fit_artifacts(self, tmp_path):
        planet = {
            "kind": "profile", "theta0": 1.0,
            "peak": {"variant": "quadratic", "c": 2.0},
            "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
            "delta": 0.5, "delta1": 0.4,
        }
        cfg = {"schema_version": 1, "seed": 3, "planet": planet,
               "spectral": {"octaves": 7, "samples_per_octave": 8},
               "expect": {"beta": 1.5, "beta_tol": 0.03}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["spectral", "--config", str(path), "--out", str(out)]) == EXIT_OK
        fit = json.loads(next(out.glob("spectral-*/tailfit.json")).read_text())
        assert abs(fit["beta"] - 1.5) < 0.03
        csv_head = next(out.glob("spectral-*/transform.csv")).read_text().splitlines()[1]
        assert csv_head == "k,re,im"


class TestSpectralConfig:
    @pytest.mark.parametrize("spectral, field", [
        ({"samples_per_octave": 1}, "config.spectral.samples_per_octave"),
        ({"samples_per_octave": 2.5}, "config.spectral.samples_per_octave"),
        ({"octaves": 3, "samples_per_octave": 12}, "config.spectral.octaves"),
        ({"k_base": -5.0}, "config.spectral.k_base"),
        # the grid's largest |k| and its size are bounded before it is built
        ({"k_base": 1.0e300}, "config.spectral.k_base"),
        ({"k_base": MAX_TAIL_K / 2**7 * (1 + 1e-9)}, "config.spectral.octaves"),
        ({"k_base": 1.0, "octaves": 8, "samples_per_octave": MAX_TAIL_SAMPLES // 8 + 1},
         "config.spectral.samples_per_octave"),
    ], ids=["too-few-samples", "non-integer", "short-span", "negative-base", "huge-base",
            "past-k-bound", "too-many-samples"])
    def test_tail_grid_errors_name_field(self, tmp_path, capsys, spectral, field):
        cfg = {"schema_version": 1, "seed": 1,
               "planet": dict(CUSP_PLANET, weight={"variant": "fourier_tail",
                                                   "beta0": 1.5, "eps": 0.25}),
               "spectral": spectral}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["spectral", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_grid_built_only_where_sampled(self):
        config = cli.ExperimentConfig({"schema_version": 1, "seed": 1,
                                       "planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0}},
                                      command="full-verify")
        assert "ks" not in vars(config.spectral)
        ks = config.spectral.ks
        assert ks.size == 7 * 12 and ks.max() == -50.0
        assert -ks.min() / -ks.max() == pytest.approx(2.0 ** (7 - 1 / 12))
        assert config.spectral.ks is ks

    def test_grid_at_bounds_accepted(self):
        # the config check alone: no transform is sampled
        for spectral in ({"k_base": MAX_TAIL_K / 2**7},
                         {"k_base": 1.0, "octaves": 8,
                          "samples_per_octave": MAX_TAIL_SAMPLES // 8}):
            cli.ExperimentConfig({"schema_version": 1, "seed": 1,
                                  "planet": dict(CUSP_PLANET, weight={
                                      "variant": "fourier_tail", "beta0": 1.5, "eps": 0.25}),
                                  "spectral": spectral}, command="spectral")


BALAYAGE_CONFIG = {
    "schema_version": 1, "seed": 5,
    "planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0},
    "balayage": {"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.6]}],
                 "probe_x": [0.5, -0.4], "n_exterior": 4},
}


class TestBalayageCommand:
    @pytest.mark.parametrize("change, field", [
        ({"masses": [{"m": 1.0, "position": [0.0, 0.5]}]}, "masses[0].position"),
        ({"masses": [{"m": 1.0, "position": [0.0, 0.6, 0.8]}]}, "masses[0].position"),
        ({"masses": [{"m": 1.0, "position": [0.0, "a", 0.1]}]}, "masses[0].position"),
        ({"masses": [{"position": [0.0, 0.0, 0.5]}]}, "masses[0].m"),
        ({"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.5]},
                     {"m": "abc", "position": [0.0, 0.0, 0.5]}]}, "masses[1].m"),
        ({"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.5], "q": 1}]}, "masses[0].q"),
        ({"masses": []}, "masses"),
        ({"probe_x": [0.5, 0.0]}, "probe_x[1]"),
        ({"probe_x": [1.0]}, "probe_x[0]"),
        ({"n_exterior": -1}, "n_exterior"),
        ({"n_exterior": 2.5}, "n_exterior"),
        ({"n_exterior": 1e300}, "n_exterior"),
        ({"n_exterior": cli.MAX_EXTERIOR + 1}, "n_exterior"),
        ({"obs_radius": 1.0}, "obs_radius"),
        ({"obs_radius": "far"}, "obs_radius"),
    ], ids=["short-position", "on-sphere", "non-numeric-position", "missing-m",
            "non-numeric-m", "unknown-mass-key", "no-masses", "probe-at-zero",
            "probe-at-pole", "negative-exterior", "fractional-exterior", "huge-exterior",
            "past-exterior-bound",
            "observer-on-sphere", "non-numeric-radius"])
    def test_config_errors_name_field_and_write_nothing(self, tmp_path, capsys,
                                                         change, field):
        cfg = dict(BALAYAGE_CONFIG, balayage={**BALAYAGE_CONFIG["balayage"], **change})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["balayage", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: config.balayage.{field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_section_mandatory(self, tmp_path, capsys):
        cfg = {k: v for k, v in BALAYAGE_CONFIG.items() if k != "balayage"}
        path = write_config(tmp_path, cfg)
        assert main(["balayage", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "config error: config.balayage: " in capsys.readouterr().err

    def test_exterior_at_its_bound_accepted(self):
        cfg = dict(BALAYAGE_CONFIG, balayage={**BALAYAGE_CONFIG["balayage"],
                                              "n_exterior": cli.MAX_EXTERIOR})
        config = cli.ExperimentConfig(cfg, command="balayage")
        assert config.balayage.n_exterior == cli.MAX_EXTERIOR

    def test_no_exterior_observers(self, tmp_path):
        cfg = dict(BALAYAGE_CONFIG, balayage={**BALAYAGE_CONFIG["balayage"], "n_exterior": 0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["balayage", "--config", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(next(out.glob("balayage-*/balayage.json")).read_text())
        assert payload["exterior_worst_rel_err"] == 0.0

    def test_axial_mass_checks(self, tmp_path):
        path = write_config(tmp_path, BALAYAGE_CONFIG)
        out = tmp_path / "out"
        assert main(["balayage", "--config", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(next(out.glob("balayage-*/balayage.json")).read_text())
        assert payload["exterior_worst_rel_err"] < 1e-8
        assert abs(payload["total_mass"] - 1.0) < 1e-8
        assert (out / next(out.glob("balayage-*")).name / "mu.csv").exists()


class TestFullVerify:
    def test_point_mass_battery(self, tmp_path):
        cfg = dict(POINT_MASS_CONFIG)
        cfg["n_range"] = {"n_min": 0, "n_max": 2000}
        cfg["expect"] = {"verdict": "OverconvergenceSuspected", "rho": 0.9}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["full-verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads(next(out.glob("full-verify-*/summary.json")).read_text())
        assert summary["failures"] == []
        assert abs(summary["rho_hat"] - 0.9) < 0.005

    def test_profile_planet_battery(self, tmp_path):
        cfg = {
            "schema_version": 1, "seed": 11,
            "planet": CUSP_PLANET,
            "n_range": {"n_min": 1, "n_max": 1500},
            "tol": 1e-8,
            "expect": {"verdict": "ConvergesExactlyAtBrillouin"},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["full-verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = json.loads(next(out.glob("full-verify-*/summary.json")).read_text())
        assert summary["verdict"] == "ConvergesExactlyAtBrillouin"

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRILLOUIN_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        assert main(["coeffs", "--config", str(path)]) == EXIT_OK
        assert list((tmp_path / "envout").glob("coeffs-*/coeffs.csv"))

    def test_flag_overrides_change_hash(self, tmp_path):
        path = write_config(tmp_path, POINT_MASS_CONFIG)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["coeffs", "--config", str(path), "--out", str(out),
                     "--tol", "1e-8"]) == EXIT_OK
        # different effective configs land in different artifact directories
        assert len(list(out.glob("coeffs-*"))) == 2


def _child_env(**extra):
    """The environment of a child interpreter that imports this package; the
    child runs from "/", so a relative PYTHONPATH would not resolve."""
    package_root = str(Path(brillouin.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, POINT_MASS_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "brillouin.cli", "coeffs",
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd="/", env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, body", [
    ("coeffs", {"planet": dict(CUSP_PLANET, R=1.0), "n_range": {"n_min": 0, "n_max": 1000}}),
    ("balayage", {
        "planet": {"kind": "profile", "R": 1.0, "theta0": 1.0,
                   "peak": {"variant": "quadratic", "c": 2.0},
                   "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25},
                   "delta": 0.5, "delta1": 0.4},
        "balayage": {"masses": [{"m": 1.0, "position": [0.3, 0.2, 0.5]},
                                {"m": 0.5, "position": [-0.4, 0.1, -0.2]},
                                {"m": 0.25, "position": [0.5, -0.6, 0.4]}],
                     "probe_x": [-0.6, -0.3, 0.3, 0.6], "n_exterior": 20}}),
], ids=["coeffs", "balayage"])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, command, body):
    # the README cusp planet's sweep and the three-mass sphere quadrature,
    # each run on one and on two BLAS threads: the artifacts are the same bytes
    path = write_config(tmp_path, {"schema_version": 1, "seed": 3, **body})
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "brillouin.cli", command,
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, cwd="/",
            env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append({p.name: p.read_bytes() for p in out.glob(f"{command}-*/*")})
    assert blobs[0] and blobs[0] == blobs[1]


def test_import_and_balayage_leave_scipy_unloaded():
    # scipy is a test dependency only; importing it would add to every
    # command's start-up time and memory
    code = ("import sys, brillouin.cli\n"
            "from brillouin.balayage import mu_from_point_masses\n"
            "mu_from_point_masses([(1.0, (0.2, -0.1, 0.4))])(0.3)\n"
            "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd="/", env=_child_env())
    assert proc.returncode == 0, proc.stderr
