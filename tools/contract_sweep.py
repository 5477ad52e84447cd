"""Check the CLI's failure contract on generated hostile configs.

    python3 tools/contract_sweep.py [--command CMD ...] [--path PREFIX ...]

The sweep starts from the every-section config (every optional key set,
n_max 200) and sets each of its nodes in turn, every key's value and
every list item, to each of 15 hostile values: None, true, "abc", [], {},
NaN, inf, -1, 0, 1e300, +-1e-300, 2.5, "1e3" and [1, 2].  Each config runs
through ``brillouin.cli.main`` in-process under each command (all six by
default; ``--path`` keeps the nodes under the given dotted prefixes).
The base has n_min 1, so there every n_max below 1 exits 2 as n_min >
n_max; under the commands whose order range has a floor (``radius`` and
``full-verify`` run at least ``convergence.MIN_ROOT_TEST_N`` orders), the
``n_range`` node is also set to ``{n_min: 0, n_max: <value>}`` for each
hostile value, so that those n_max reach the floor.

The contract: every run exits 0, 2, 3 or 4, never with a traceback, and an
exit 2 prints ``config error: <field path>: ...`` and nothing before it,
where the field path names a field of the section that holds the node that
was set (a rule may tie the node to another key of its section), or the
whole config.  No artifact a run writes may hold a non-finite value: a
NaN or infinity in a CSV data cell or a JSON value is a breach too.  Each
breach is printed on a line of its own; the exit status is 1 if there is
any.  Each run writes its artifacts under a fresh temporary directory,
which is scanned and removed after the run.  The full sweep makes about
5,000 runs and takes about a minute on one core.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brillouin import cli  # noqa: E402
from brillouin._io import read_csv  # noqa: E402

HOSTILE = (None, True, "abc", [], {}, math.nan, math.inf, -1, 0, 1e300, 1e-300, -1e-300, 2.5,
           "1e3", [1, 2])

#: the config of tests/test_cli.py::test_every_section_artifacts_are_pinned
#: at n_max 200: every optional key is set, so every reader sees a value
EVERY_SECTION = {
    "schema_version": 1, "seed": 11, "out_dir": "runs",
    "planet": {"kind": "profile", "schema_version": 1, "R": 1.0, "theta0": 1.2,
               "peak": {"variant": "quadratic", "c": 2.0, "beta": 4.0},
               "weight": {"variant": "fourier_tail", "beta0": 1.5, "eps": 0.25,
                          "taper_order": 4},
               "delta": 0.5, "delta1": 0.4, "G": 1.0},
    "n_range": {"n_min": 1, "n_max": 200}, "tol": 1.0e-9,
    "expect": {"verdict": "ConvergesExactlyAtBrillouin", "rho": 1.0, "rho_tol": 0.01,
               "median_ratio_window": [0.9, 1.1], "beta": 1.5, "beta_tol": 0.05,
               "max_abs_coeff": 10.0},
    "asympt": {"source": "thm1", "a0": "1-2j", "beta0": 1.5, "a1": 0.5, "beta1": 3.5},
    "spectral": {"k_base": 40.0, "octaves": 7, "samples_per_octave": 10},
    "balayage": {"masses": [{"m": 1.0, "position": [0.1, 0.2, 0.3]}],
                 "probe_x": [0.4], "n_exterior": 5, "obs_radius": 3.0},
}

#: the commands that run at least convergence.MIN_ROOT_TEST_N orders,
#: whatever n_max says
FLOORED = ("radius", "full-verify")

_FIELD_PATH = re.compile(r"config error: (config(?:\.[A-Za-z_]\w*|\[\d+\])*): ")
_PART = re.compile(r"\.([A-Za-z_]\w*)|\[(\d+)\]")


def nodes(value, path=()):
    """The path, a tuple of keys and list indices, of every node below ``value``."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def dotted(path):
    """``path`` as the CLI names it: config.balayage.masses[0].m."""
    return "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def parse(field):
    """The path tuple of a dotted field path."""
    return tuple(key if index == "" else int(index)
                 for key, index in _PART.findall(field[len("config"):]))


def cases(commands=cli.COMMANDS, prefixes=("",)):
    """Every (command, path, value) of the sweep whose dotted path starts
    with one of ``prefixes`` (given without the leading ``config.``)."""
    paths = [p for p in nodes(EVERY_SECTION)
             if any(dotted(p).startswith(f"config.{pre}".rstrip(".")) for pre in prefixes)]
    runs = [(command, path, value) for command in commands for path in paths
            for value in HOSTILE]
    if ("n_range",) in paths:
        runs += [(command, ("n_range",), {"n_min": 0, "n_max": value})
                 for command in commands if command in FLOORED for value in HOSTILE]
    return runs


def run_case(command, path, value, workdir):
    """``cli.main`` on the every-section config with ``path`` set to
    ``value``, run in ``workdir``: its exit status and what it printed to
    stderr, or 1 and the exception for a traceback."""
    cfg = copy.deepcopy(EVERY_SECTION)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    config = Path(workdir).resolve() / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    err = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            return cli.main([command, "--config", str(config)]), err.getvalue()
        except Exception as exc:  # a traceback breaks the contract
            return 1, f"{type(exc).__name__}: {exc}"


def breach(path, code, message):
    """What is wrong with a run that set ``path`` and ended with ``code``
    and ``message``, or None."""
    if code not in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_VERDICT):
        return f"exit {code}: {message.strip().splitlines()[-1] if message.strip() else ''}"
    if code != cli.EXIT_CONFIG:
        return None
    match = _FIELD_PATH.match(message)
    if match is None:
        return f"exit 2 without a field path: {message.strip()}"
    named = parse(match.group(1))
    related = named[:1] == path[:1] or not named
    return None if related else f"exit 2 names a field of another section: {message.strip()}"


def _csv_nonfinite(path):
    columns = read_csv(path)
    for row, values in enumerate(zip(*columns.values())):
        for column, value in zip(columns, values):
            if not math.isfinite(value):
                return f"column {column} = {value} in data row {row}"
    return None


def _json_nonfinite(path):
    found = []
    json.loads(path.read_text(), parse_constant=found.append)
    return found[0] if found else None


def nonfinite(root):
    """The first non-finite value in the CSV and JSON artifacts under
    ``root``, as a breach, or None.  A CSV is read back as the program
    reads its own (``_io.read_csv``)."""
    scans = {".csv": _csv_nonfinite, ".json": _json_nonfinite}
    for artifact in sorted(root.rglob("*")):
        where = scans[artifact.suffix](artifact) if artifact.suffix in scans else None
        if where:
            return f"non-finite value in {artifact.name} ({where})"
    return None


def sweep(runs, workdir):
    """Run every (command, path, value) of ``runs`` in a fresh directory
    under ``workdir``; returns the count of each exit status and the
    breaches, as lines."""
    codes, breaches = Counter(), []
    rundir = Path(workdir) / "run"
    with mock.patch.dict(os.environ):
        # artifacts go under rundir, not under the environment's output root
        os.environ.pop(cli.OUT_ENV_VAR, None)
        for command, path, value in runs:
            rundir.mkdir()
            code, message = run_case(command, path, value, rundir)
            codes[code] += 1
            problem = breach(path, code, message) or nonfinite(rundir)
            shutil.rmtree(rundir)
            if problem is not None:
                breaches.append(f"{command} {dotted(path)} = {value!r}: {problem}")
    return codes, breaches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", action="append", choices=cli.COMMANDS,
                        help="a command to run (default: all six)")
    parser.add_argument("--path", action="append",
                        help="a dotted prefix of the nodes to set, such as spectral or "
                             "planet.weight (default: every node)")
    args = parser.parse_args(argv)
    runs = cases(args.command or cli.COMMANDS, args.path or ("",))
    with tempfile.TemporaryDirectory() as workdir:
        codes, breaches = sweep(runs, workdir)
    for line in breaches:
        print(line)
    print(f"{len(runs)} runs; exits " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items()))
          + f"; {len(breaches)} breaches")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
