import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import brillouin
from brillouin import coeffs
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

    def test_non_integer_order_names_field(self, tmp_path, capsys):
        cfg = dict(POINT_MASS_CONFIG, n_range={"n_min": 0, "n_max": "abc"})
        path = write_config(tmp_path, cfg)
        assert main(["coeffs", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config.n_range.n_max" in capsys.readouterr().err

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
    ], ids=["negative-curvature", "no-weight", "theta0-equator"])
    def test_planet_out_of_domain_names_field(self, tmp_path, capsys, planet, field):
        cfg = {"schema_version": 1, "seed": 1, "planet": planet, "n_range": {"n_max": 20}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not list(out.glob("coeffs-*"))

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


class TestBalayageCommand:
    def test_axial_mass_checks(self, tmp_path):
        cfg = {
            "schema_version": 1, "seed": 5,
            "planet": {"kind": "ball", "R_b": 1.0, "rho0": 1.0},
            "balayage": {"masses": [{"m": 1.0, "position": [0.0, 0.0, 0.6]}],
                          "probe_x": [0.5, -0.4], "n_exterior": 4},
        }
        path = write_config(tmp_path, cfg)
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


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, POINT_MASS_CONFIG)
    # the child runs from "/", so a relative PYTHONPATH would not resolve
    package_root = str(Path(brillouin.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "brillouin.cli", "coeffs",
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd="/", env=env,
    )
    assert proc.returncode == 0, proc.stderr
