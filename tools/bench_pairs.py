"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 40 \\
        --seed 9001 --out BENCH_9.json

The parent revision is exported with ``git archive`` into a temporary
directory, so the run leaves nothing registered in the repository.  The
change is the working tree of this checkout, or with ``--change REV``
another revision exported the same way.  Pair i runs
``bench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once in
each tree, each tree with its own ``bench/run.py``; the parent runs first
in even pairs and second in odd ones, so a drift of the host's speed
falls on both sides alike.

The output holds, per workload and end-to-end metric of ``BENCHMARK.json``,
the median and quartiles of each side, the number of pairs in which the
change was better, the relative change of the medians and the metric's
bound, with the attempt and failure counts of every run and the machine
facts ``bench/run.py`` prints.  The bench's ``cpu_s`` and ``peak_rss_mb``
count its own process only; so each run also records ``tree_cpu_s``, the
CPU seconds of the run's whole process tree (``RUSAGE_CHILDREN`` around
it: the run, its set-up interpreters and any process the program forks),
and its pass count, and the output gives each side's tree CPU per pass.
Standard library only.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, into):
    """The tree of ``rev`` written under ``into``; returns its directory."""
    target = Path(into) / rev.replace("/", "_")
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(target, filter="data")
    return target


def _cpu_of_children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(tree, workload, seed, seconds):
    """One ``bench/run.py`` run in ``tree``: its result line, with the run's
    ``tree_cpu_s`` and ``passes`` added, and its printed facts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cpu0 = _cpu_of_children()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    tree_cpu = _cpu_of_children() - cpu0
    lines = done.stdout.strip().splitlines()
    facts, passes = {}, None
    for line in lines:
        if line.startswith("fact "):
            key, _, value = line[5:].partition(" = ")
            facts[key] = value
        elif line.startswith("passes "):
            passes = int(line.split()[1])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    result["tree_cpu_s"], result["passes"] = tree_cpu, passes
    return result, facts


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, metrics):
    """Per-metric statistics of one workload's pairs.

    ``runs`` is a list of ``(parent_result, change_result)`` pairs of
    ``bench/run.py`` result lines; ``metrics`` the end-to-end entries of
    ``BENCHMARK.json`` (name, unit, better, bound)."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not pairs:
            continue
        lower = spec["better"] == "lower"
        sides = {}
        for side, values in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
            q1, q2, q3 = quartiles(values)
            sides[side] = {"median": q2, "q1": q1, "q3": q3, "values": values}
        base = sides["parent"]["median"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            **sides,
            "pairs": len(pairs),
            "change_better": sum((c < p) if lower else (c > p) for p, c in pairs),
            "relative_change": (sides["change"]["median"] - base) / base if base else None,
        }
    return out


def tree_cpu(runs):
    """Each side's whole-process-tree CPU seconds per pass over ``runs``,
    pairs of ``run_bench`` results: median, quartiles and values, with each
    run's ``tree_cpu_s`` and ``passes``.  A per-pass figure, because a
    faster side fits more passes into a run."""
    out = {}
    for side, results in (("parent", [p for p, _ in runs]), ("change", [c for _, c in runs])):
        results = [r for r in results if r.get("passes")]
        if results:
            values = [r["tree_cpu_s"] / r["passes"] for r in results]
            q1, q2, q3 = quartiles(values)
            out[side] = {"median": q2, "q1": q1, "q3": q3, "values": values,
                         "tree_cpu_s": [r["tree_cpu_s"] for r in results],
                         "passes": [r["passes"] for r in results]}
    return out


def counts(results):
    return {
        "runs": len(results),
        "correct_runs": sum(bool(r.get("correct")) for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results),
        "failed": sum(r.get("failed", 0) for r in results),
        "errors": [r["error"] for r in results if "error" in r],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--change", default=None,
                        help="revision of the change (default: this working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workload names (default: all of BENCHMARK.json)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", args.change) if args.change else
        f"working tree at {git('rev-parse', 'HEAD')}",
        "command": spec["command"] + ["--workload", "W", "--seed", "SEED", "--seconds",
                                      f"{args.seconds:g}", "--trace", "0"],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export(args.parent, tmp),
                 "change": export(args.change, tmp) if args.change else ROOT}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(report["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    started = time.time()
                    got[side], facts = run_bench(trees[side], workload, seed, args.seconds)
                    report["machine"].setdefault(side, facts)
                    print(f"{workload} pair {i} {side}: "
                          f"wall_s {got[side]['metrics'].get('wall_s', {}).get('value')} "
                          f"correct {got[side]['correct']} ({time.time() - started:.0f} s)",
                          file=sys.stderr)
                runs.append((got["parent"], got["change"]))
            report["workloads"][workload] = {
                "parent": counts([p for p, _ in runs]),
                "change": counts([c for _, c in runs]),
                "metrics": summarize(runs, spec["end_to_end"]),
                "tree_cpu_s_per_pass": tree_cpu(runs),
            }
            # written after every workload, so an interrupted run keeps its finished ones
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
