"""Run one workload of the brillouin benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/brillouin``.  The
human-readable lines name each metric with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Run details, and with ``--trace 1``
the spans, are written under ``.bench_out/`` in the checkout.  Exits 2
without a result if the program's sources are missing.
"""

import argparse
import json
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def report(result, out=None):
    """Print facts, checks and every metric by name with its unit, then the
    result line."""
    out = sys.stdout if out is None else out
    units = harness.PER_LAYER if result.trace else harness.END_TO_END
    for key, value in result.facts.items():
        print(f"fact {key} = {value}", file=out)
    walls = [p.wall for p in result.plain]
    q1, q2, q3 = harness.quartiles(walls)
    print(f"passes {len(result.passes)} (1 warm-up, {len(walls)} timed untraced, "
          f"{len(result.traced)} traced); untraced wall_s "
          f"quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s", file=out)
    for name, c in result.counts.items():
        print(f"counts {name}: {json.dumps(c, sort_keys=True)}", file=out)
    for cause, hits in sorted(result.causes().items()):
        print(f"failure in {hits} attempts: {cause}", file=out)
    print(f"metric fail_frac = {harness.ratio(result.failed, result.attempted):.6g} ratio "
          f"({result.failed} failed / {result.attempted} attempted)", file=out)
    for name, unit in units.items():
        print(f"metric {name} = {result.metrics[name]:.6g} {unit}", file=out)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = harness.run_workload(ROOT, WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
