import importlib.util
from pathlib import Path

import pytest

from brillouin import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "contract_sweep.py"
_spec = importlib.util.spec_from_file_location("contract_sweep", _PATH)
contract_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract_sweep)


@pytest.mark.parametrize("commands, prefixes", [
    (("spectral", "asympt"), ("spectral", "planet.weight")),
    (("balayage",), ("balayage.masses",)),
], ids=["tail-fit", "balayage-masses"])
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
], ids=["k_base-tiny", "k_base-2.5", "k_base-asympt", "eps-tiny", "out_dir", "position-huge"])
def test_formerly_failing_cases(tmp_path, monkeypatch, command, path, value, code, start):
    # each of these ended in a traceback (exit 1) or printed a warning
    # before its config error
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


def test_every_node_is_set():
    paths = {p for _, p, _ in contract_sweep.cases(("coeffs",))}
    assert ("balayage", "masses", 0, "position", 2) in paths
    assert ("planet", "weight") in paths and ("out_dir",) in paths
    assert contract_sweep.dotted(("balayage", "masses", 0, "m")) == "config.balayage.masses[0].m"
    assert contract_sweep.parse("config.balayage.masses[0].m") == ("balayage", "masses", 0, "m")
    assert len(contract_sweep.cases(("coeffs",))) == len(paths) * len(contract_sweep.HOSTILE)
