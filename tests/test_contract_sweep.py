import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from brillouin import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "contract_sweep.py"
_spec = importlib.util.spec_from_file_location("contract_sweep", _PATH)
contract_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract_sweep)


@pytest.mark.parametrize("commands, prefixes", [
    (("spectral", "asympt"), ("spectral", "planet.weight")),
    (("balayage",), ("balayage.masses",)),
    # balayage builds the planet at load, as every command does
    (("balayage",), ("planet.peak",)),
    (("coeffs",), ("planet.schema_version",)),
    # n_max 0 and below reach full-verify's order floor from n_min 0
    (("full-verify",), ("n_range",)),
], ids=["tail-fit", "balayage-masses", "balayage-planet-peak", "planet-schema-version",
        "full-verify-n-range"])
def test_sweep_subset_keeps_the_contract(tmp_path, commands, prefixes):
    # no traceback, and a field path on every exit 2; the full sweep is
    # tools/contract_sweep.py, about a minute
    runs = contract_sweep.cases(commands, prefixes)
    codes, breaches = contract_sweep.sweep(runs, tmp_path)
    assert breaches == []
    assert sum(codes.values()) == len(runs) and codes[cli.EXIT_CONFIG] > 0


@pytest.mark.parametrize("command, path, value, code, start", [
    ("spectral", ("spectral", "k_base"), 1e-300, cli.EXIT_CONFIG,
     "config error: config.spectral.k_base: "),
    ("spectral", ("spectral", "k_base"), 2.5, cli.EXIT_CONFIG,
     "config error: config.spectral.k_base: "),
    ("asympt", ("spectral", "k_base"), 2.5, cli.EXIT_CONFIG,
     "config error: config.spectral.k_base: "),
    ("spectral", ("planet", "weight", "eps"), 1e-300, cli.EXIT_NUMERIC, "numeric failure: "),
    ("coeffs", ("out_dir",), 2.5, cli.EXIT_CONFIG, "config error: config.out_dir: "),
    ("balayage", ("balayage", "masses", 0, "position", 0), 1e300, cli.EXIT_CONFIG,
     "config error: config.balayage.masses[0].position: "),
    ("balayage", ("balayage", "masses", 0, "m"), 0, cli.EXIT_CONFIG,
     "config error: config.balayage.masses[0].m: "),
    ("balayage", ("balayage", "obs_radius"), 1e300, cli.EXIT_CONFIG,
     "config error: config.balayage.obs_radius: "),
], ids=["k_base-tiny", "k_base-2.5", "k_base-asympt", "eps-tiny", "out_dir", "position-huge",
        "mass-zero", "obs_radius-huge"])
def test_formerly_failing_cases(tmp_path, monkeypatch, command, path, value, code, start):
    # each of these ended in a traceback (exit 1), printed a warning
    # before its config error, or wrote a non-finite value with exit 0
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
    got, message = contract_sweep.run_case(command, path, value, tmp_path)
    assert got == code
    assert message.startswith(start)


def test_breaches_are_named():
    breach = contract_sweep.breach
    path = ("spectral", "k_base")
    assert breach(path, 1, "ValueError: boom") == "exit 1: ValueError: boom"
    assert breach(path, 0, "") is None and breach(path, 3, "numeric failure: x") is None
    assert breach(path, 2, "config error: config.spectral.octaves: x\n") is None
    assert breach(path, 2, "config error: config: x\n") is None
    assert breach(path, 2, "config error: config.seed: x\n").startswith(
        "exit 2 names a field of another section")
    assert breach(path, 2, "warning\nconfig error: config.spectral.k_base: x\n").startswith(
        "exit 2 without a field path")


def test_nonfinite_artifacts_are_named(tmp_path):
    nonfinite = contract_sweep.nonfinite
    (tmp_path / "a.csv").write_text("# config_hash: x\nn,pred\n0,1e-300\n1,0.5\n")
    (tmp_path / "b.json").write_text('{"v": 1.5, "w": "nan"}\n')
    assert nonfinite(tmp_path) is None
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "c.json").write_text('{"v": [1.0, NaN]}\n')
    assert nonfinite(tmp_path) == "non-finite value in c.json (NaN)"
    (tmp_path / "a.csv").write_text("n,pred\n0,1\n1,-inf\n")
    assert nonfinite(tmp_path) == "non-finite value in a.csv (column pred = -inf in data row 1)"


def test_every_artifact_is_stamped_with_the_config_hash(tmp_path):
    # every CSV opens with the hash of the config as the command ran it,
    # and every JSON holds it
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(contract_sweep.EVERY_SECTION))
    for command in cli.COMMANDS:
        config_hash = cli.ExperimentConfig(contract_sweep.EVERY_SECTION,
                                           command=command).config_hash
        cli.main([command, "--config", str(config), "--out", str(tmp_path)])
        artifacts = sorted((tmp_path / f"{command}-{config_hash[:12]}").iterdir())
        assert artifacts, command
        for path in artifacts:
            if path.suffix == ".csv":
                assert path.read_text().startswith(f"# config_hash: {config_hash}\n"), path
            else:
                assert json.loads(path.read_text())["config_hash"] == config_hash, path


def test_every_node_is_set():
    paths = {p for _, p, _ in contract_sweep.cases(("coeffs",))}
    assert ("balayage", "masses", 0, "position", 2) in paths
    assert ("planet", "weight") in paths and ("out_dir",) in paths
    assert contract_sweep.dotted(("balayage", "masses", 0, "m")) == "config.balayage.masses[0].m"
    assert contract_sweep.parse("config.balayage.masses[0].m") == ("balayage", "masses", 0, "m")
    assert len(contract_sweep.cases(("coeffs",))) == len(paths) * len(contract_sweep.HOSTILE)
