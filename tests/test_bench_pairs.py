import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 2, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_of_pairs():
    runs = [(_result(wall_s=p, peak_rss_mb=r), _result(wall_s=c, peak_rss_mb=r + 0.5))
            for p, c, r in ((1.0, 0.8, 40.0), (1.2, 0.9, 41.0), (0.9, 1.0, 42.0),
                            (1.1, 0.7, 43.0), (1.0, 0.8, 44.0))]
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
               {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    got = bench_pairs.summarize(runs, metrics)
    wall = got["wall_s"]
    assert (wall["parent"]["median"], wall["change"]["median"]) == (1.0, 0.8)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.0, 1.1)
    assert wall["change_better"] == 4 and wall["pairs"] == 5
    assert wall["relative_change"] == pytest.approx(-0.2)
    assert got["peak_rss_mb"]["change_better"] == 0
    # a metric no run printed is left out
    assert "setup_s" not in got


def test_run_counts():
    results = [_result(), _result(correct=False, failed=1),
               {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": "exit 2"}]
    assert bench_pairs.counts(results) == {
        "runs": 3, "correct_runs": 1, "attempted": 4, "failed": 1, "errors": ["exit 2"]}
