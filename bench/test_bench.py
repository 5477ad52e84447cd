"""Tests of the benchmark harness on small, fast workloads.

    python -m pytest bench/test_bench.py -q
"""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
from workloads import (ALPHA1_PLANET, TAIL_PLANET, WORKLOADS, CliExperiment,
                       ColumnExperiment, Workload)

ROOT = Path(__file__).resolve().parent.parent
BALL = {"kind": "ball", "R_b": 1.0, "rho0": 1.0}
POINT_MASS = {"kind": "point_mass", "r0": 0.8, "cos_theta_p": 0.3, "m": 1.0}

TINY = Workload("tiny", "small experiments over every layer", (
    CliExperiment("coeffs-ball", "coeffs", {"planet": BALL, "n_range": {"n_max": 20}}),
    CliExperiment("radius-point-mass", "radius", {
        "planet": POINT_MASS, "n_range": {"n_max": 300}}),
    CliExperiment("spectral-tail", "spectral", {
        "planet": TAIL_PLANET, "expect": {"beta": 1.5, "beta_tol": 0.05}}),
    CliExperiment("balayage-one-mass", "balayage", {
        "planet": BALL,
        "balayage": {"masses": [{"m": 1.0, "position": [0.3, 0.2, 0.4]}],
                     "probe_x": [0.5], "n_exterior": 3}}),
    ColumnExperiment("column-alpha1", ALPHA1_PLANET, 0, 4),
))
#: its expect block cannot hold: no run gives this verdict
IMPOSSIBLE = CliExperiment("radius-impossible", "radius", {
    "planet": POINT_MASS, "n_range": {"n_max": 300},
    "expect": {"verdict": "NoSuchVerdict"}})


def _run(workload, tmp_path, seed=1, trace=False):
    return harness.run_workload(ROOT, workload, seed, 0.0, trace, out_dir=tmp_path)


def _printed(result):
    buf = io.StringIO()
    run.report(result, out=buf)
    return buf.getvalue().splitlines()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace):
    result = _run(TINY, tmp_path, trace=trace)
    lines = _printed(result)
    units = harness.PER_LAYER if trace else harness.END_TO_END
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert {k: v["unit"] for k, v in final["metrics"].items()} == units
    for name, unit in units.items():
        assert math.isfinite(final["metrics"][name]["value"])
        assert any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert any(ln.startswith("metric fail_frac = 0 ratio") for ln in lines)


def test_traced_passes_reproduce_untraced_artifacts(tmp_path):
    cli_main = harness.load_program(ROOT).cli.coeff_series
    result = _run(TINY, tmp_path, trace=True)
    assert [p.traced for p in result.passes] == [False, True, False]
    assert result.failed == 0
    assert harness.load_program(ROOT).cli.coeff_series is cli_main
    spans = json.loads((result.run_dir / "spans.json").read_text())
    names = {s["name"] for s in spans}
    assert {"cli.main", "bench.column", "legendre.legendre_eval", "balayage.apply_A_cauchy",
            "spectral.sample_transform", "io.write_csv"} <= names
    assert all(s["pass_id"] == 1 for s in spans)


def test_forced_failure_is_counted_not_dropped(tmp_path):
    workload = Workload("forced", "one experiment that must fail",
                        (IMPOSSIBLE, TINY.experiments[0]))
    result = _run(workload, tmp_path)
    n_passes = len(result.passes)
    assert result.attempted == 2 * n_passes
    assert result.failed == n_passes
    assert not result.correct
    failing = [a for a in result.attempts if a.experiment == IMPOSSIBLE.name]
    assert len(failing) == n_passes and all(a.exit_code == 4 for a in failing)
    lines = _printed(result)
    assert any("radius-impossible: exit code 4 (verdict mismatch: verdict" in ln
               for ln in lines)
    assert any(ln.startswith("metric fail_frac = 0.5 ratio") for ln in lines)
    assert json.loads(lines[-1])["failed"] == n_passes


def test_changing_the_seed_changes_no_check_result(tmp_path):
    workload = Workload("seeded", "the seeded experiment and one that fails",
                        (TINY.experiments[3], IMPOSSIBLE))
    outcomes = []
    for seed in (1, 2, 12345):
        result = _run(workload, tmp_path / str(seed), seed=seed)
        outcomes.append({(a.pass_id, a.experiment): (a.exit_code, a.problems, a.nonfinite)
                         for a in result.attempts})
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_nonfinite_artifacts_are_found(tmp_path):
    (tmp_path / "a.csv").write_text("# config_hash: x\nn,pred\n0,-inf\n1,0.5\n")
    (tmp_path / "b.json").write_text('{"v": NaN}\n')
    (tmp_path / "c.csv").write_text("n,pred\n0,1e-300\n")
    _, nbytes, found = harness.scan_artifacts(tmp_path, "asympt")
    assert found == ["non-finite value in asympt a.csv (column pred = -inf in data row 0)",
                     "non-finite value in asympt b.json (NaN)"]
    assert nbytes == sum(p.stat().st_size for p in tmp_path.iterdir())


def test_live_orders_matches_direct_count():
    F = np.array([0.0, 1e-3, 0.37, 1.9, 30.0, 800.0])
    lo, hi = 2, 3000
    n = np.arange(lo, hi + 1)[:, None]
    direct = int(np.sum(np.exp(-(n + 3.0) * F[None, :]) > 0.0))
    assert harness.live_orders(F, lo, hi) == direct


def test_missing_program_exits_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no brillouin sources" in done.stderr
