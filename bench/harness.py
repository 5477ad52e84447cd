"""Closed-loop benchmark harness for the brillouin pipeline.

One process, one client: a run repeats passes over one workload's
experiments back to back until its time is used up.  Every experiment in
every pass is one attempt; an attempt fails if its exit code is not 0, its
expect block or cross-check fails, an artifact holds a non-finite number,
or its artifacts differ from the first pass's.  End-to-end metrics come
from untraced passes.  A traced run alternates untraced and traced passes;
the traced ones give per-layer numbers and the difference between the two
is the tracing overhead.
"""

import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from spans import Tracer
from workloads import CliExperiment, ColumnExperiment

# name -> unit; the names and units BENCHMARK.json declares
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
MODULES = ("bench", "cli", "io", "model", "coeffs", "legendre", "convergence",
           "asymptotics", "spectral", "balayage")
PER_LAYER = {
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "B",
    "model.build_profile_s": "s",
    "coeffs.series_s": "s",
    "coeffs.grid_nodes": "count",
    "coeffs.node_orders": "count",
    "coeffs.live_frac": "ratio",
    "coeffs.ns_per_node_order": "ns",
    "coeffs.ok_frac": "ratio",
    "legendre.eval_calls": "count",
    "legendre.eval_s": "s",
    "legendre.node_steps": "count",
    "convergence.verdict_s": "s",
    "asymptotics.predict_s": "s",
    "asymptotics.ratio_s": "s",
    "asymptotics.unmasked_frac": "ratio",
    "spectral.transform_s": "s",
    "spectral.transform_samples": "count",
    "spectral.unique_sample_frac": "ratio",
    "spectral.fit_s": "s",
    "balayage.mu_eval_s": "s",
    "balayage.mu_points": "count",
    "balayage.swept_potential_s": "s",
    "balayage.cauchy_calls": "count",
    "balayage.plemelj_s": "s",
    "balayage.total_mass_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    **{f"{m}.self_s": "s" for m in MODULES},
}
# per-layer time metrics: summed span durations per pass, by span name
SPAN_TIMES = {
    "cli.config_s": ("cli.load_config",),
    "cli.write_s": ("io.write_csv", "io.write_json"),
    "model.build_profile_s": ("model.build_profile",),
    "coeffs.series_s": ("coeffs.coeff_series",),
    "legendre.eval_s": ("legendre.legendre_eval",),
    "convergence.verdict_s": ("convergence.verdict_from_series",),
    "asymptotics.predict_s": ("asymptotics.predict_thm1", "asymptotics.predict_thm3"),
    "asymptotics.ratio_s": ("asymptotics.ratio_diagnostic",),
    "spectral.transform_s": ("spectral.sample_transform",),
    "spectral.fit_s": ("spectral.fit_tail",),
    "balayage.mu_eval_s": ("balayage.mu_eval",),
    "balayage.swept_potential_s": ("balayage.swept_potential",),
    "balayage.plemelj_s": ("balayage.plemelj_jump",),
    "balayage.total_mass_s": ("balayage.total_mass",),
}
#: exp(-u) is exactly 0 in double precision beyond about this u
UNDERFLOW_EXPONENT = 745.2
OUT_DIR = ".bench_out"
#: ``setup_s`` times one fresh interpreter before each pass, and at least this many
SETUP_REPEATS = 7


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    cli: object
    coeffs: object
    model: object
    legendre: object
    convergence: object
    asymptotics: object
    spectral: object
    balayage: object


def load_program(root):
    """Import brillouin from ``root/src``; refuse any other copy."""
    src = Path(root).resolve() / "src"
    if not (src / "brillouin" / "cli.py").is_file():
        raise ProgramMissing(f"no brillouin sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"brillouin.{name}")
            for name in ("cli", "coeffs", "model", "legendre", "convergence",
                         "asymptotics", "spectral", "balayage")}
    found = Path(mods["cli"].__file__).resolve()
    if src not in found.parents:
        raise ProgramMissing(f"brillouin was imported from {found}, not from {src}")
    return Program(**mods)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class Attempt:
    """One experiment in one pass."""

    experiment: str
    pass_id: int
    exit_code: int
    problems: list = field(default_factory=list)
    nonfinite: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    nbytes: int = 0

    @property
    def failed(self):
        return bool(self.problems or self.nonfinite)


def column_planet(program, planet):
    """The planet of ``planet`` with its column passed as a callable
    v(r, theta) = g(theta - theta0) / sqrt(sin theta), so it is not
    radial-constant and ``coeff_series`` takes the per-order path."""
    spec = program.model.PlanetSpec.from_dict(planet)
    weight, theta0 = spec.weight, spec.theta0

    def column(r, theta):
        return weight.evaluate(theta - theta0) / np.sqrt(np.sin(theta))

    return dataclasses.replace(spec, v=column), spec


@dataclass
class Prepared:
    """Per-run inputs made once, outside the timed passes."""

    configs: dict
    references: dict


def prepare(program, workload, seed, run_dir):
    configs, references = {}, {}
    for exp in workload.experiments:
        if isinstance(exp, CliExperiment):
            path = run_dir / f"{exp.name}.yaml"
            path.write_text(yaml.safe_dump(exp.config(seed), sort_keys=True))
            configs[exp.name] = path
        else:
            _, spec = column_planet(program, exp.planet)
            ref = program.coeffs.coeff_series(program.model.build_profile(spec),
                                              exp.n_min, exp.n_max)
            references[exp.name] = ref.values
    return Prepared(configs, references)


def run_cli(program, exp, config_path, out):
    """``brillouin <command> --config <path> --out <out>`` in-process."""
    buf = io.StringIO()
    problems = []
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = program.cli.main([exp.command, "--config", str(config_path),
                                     "--out", str(out)])
    except Exception as exc:  # the experiment boundary: record and go on
        code = 1
        problems.append(f"raised {type(exc).__name__}: {exc}")
    if code != 0:
        said = [ln for ln in buf.getvalue().splitlines()
                if ln.startswith(("verdict mismatch", "numeric failure", "config error"))]
        problems.append(f"exit code {code}" + (f" ({'; '.join(said)})" if said else ""))
    return code, problems


def run_column(program, exp, reference, out):
    """The column cross-check through the Python API."""
    problems = []
    try:
        spec, _ = column_planet(program, exp.planet)
        profile = program.model.build_profile(spec)
        series = program.coeffs.coeff_series(profile, exp.n_min, exp.n_max)
        series.to_csv(out / "column" / "coeffs.csv")
    except Exception as exc:  # the experiment boundary: record and go on
        return 1, [f"raised {type(exc).__name__}: {exc}"]
    if profile.radial_constant:
        problems.append("column planet is radial-constant; per-order path not taken")
    if not np.all(series.ok):
        problems.append(f"{int(np.sum(~series.ok))} orders not ok")
    gap = float(np.max(np.abs(series.values - reference)))
    if not gap <= exp.max_gap:
        problems.append(f"column values differ from the sweep by {gap:.3e} > {exp.max_gap:g}")
    return 0, problems


def scan_artifacts(out, command):
    """Digests, total size and non-finite findings of every artifact under ``out``."""
    digests, nbytes, nonfinite = {}, 0, []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(out).as_posix()
        digests[rel] = hashlib.sha256(data).hexdigest()
        nbytes += len(data)
        where = (_csv_nonfinite if path.suffix == ".csv" else _json_nonfinite)(data)
        if where:
            nonfinite.append(f"non-finite value in {command} {path.name} ({where})")
    return digests, nbytes, nonfinite


def _csv_nonfinite(data):
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",") if lines else []
    for row, line in enumerate(lines[1:]):
        for col, text in zip(header, line.split(",")):
            try:
                value = float(text)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"column {col} = {text} in data row {row}"
    return None


def _json_nonfinite(data):
    found = []
    json.loads(data, parse_constant=found.append)
    return f"{found[0]}" if found else None


def run_experiment(program, exp, prepared, pass_dir, pass_id):
    out = pass_dir / exp.name
    out.mkdir(parents=True)
    if isinstance(exp, ColumnExperiment):
        code, problems = run_column(program, exp, prepared.references[exp.name], out)
    else:
        code, problems = run_cli(program, exp, prepared.configs[exp.name], out)
    digests, nbytes, nonfinite = scan_artifacts(out, exp.command)
    return Attempt(exp.name, pass_id, code, problems, nonfinite, digests, nbytes)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _series_info(args, kwargs, series):
    return {"orders": int(series.n.size), "ok": int(np.sum(series.ok))}


def _ratio_info(args, kwargs, report):
    return {"orders": int(report.masked.size), "kept": int(np.sum(report.masked))}


def _size_of_arg(position):
    def observe(args, kwargs, result):
        return {"size": int(np.size(args[position]))}
    return observe


def _ks_info(args, kwargs, result):
    ks = args[2] if len(args) > 2 else kwargs["ks"]
    ks = [float(k) for k in np.ravel(ks)]
    return {"ks": ks, "size": len(ks)}


def install_tracing(tracer, program):
    """Wrap each module's public functions at the names their callers bind.
    Returns the ``module.name`` targets the program no longer has."""
    p = program
    missing = []

    def wrap(owner, attr, *rest):
        if not tracer.wrap(owner, attr, *rest):
            missing.append(f"{owner.__name__}.{attr}")
    wrap(p.cli, "load_config", "cli.load_config", "cli")
    for owner in (p.cli, p.model):
        wrap(owner, "build_profile", "model.build_profile", "model")
    for owner in (p.cli, p.coeffs):
        wrap(owner, "coeff_series", "coeffs.coeff_series", "coeffs", _series_info)
    for owner in (p.coeffs, p.model):
        wrap(owner, "legendre_eval", "legendre.legendre_eval", "legendre", _size_of_arg(1))
    wrap(p.convergence, "verdict_from_series", "convergence.verdict_from_series",
         "convergence")
    for name in ("predict_thm1", "predict_thm3"):
        wrap(p.cli, name, f"asymptotics.{name}", "asymptotics")
    wrap(p.cli, "ratio_diagnostic", "asymptotics.ratio_diagnostic", "asymptotics",
         _ratio_info)
    wrap(p.spectral, "sample_transform", "spectral.sample_transform", "spectral", _ks_info)
    wrap(p.spectral, "fit_tail", "spectral.fit_tail", "spectral")
    measure = p.balayage.SurfaceMeasure
    wrap(measure, "__call__", "balayage.mu_eval", "balayage", _size_of_arg(1))
    wrap(measure, "total_mass", "balayage.total_mass", "balayage")
    wrap(p.cli, "swept_potential", "balayage.swept_potential", "balayage")
    wrap(p.cli, "plemelj_jump", "balayage.plemelj_jump", "balayage")
    wrap(p.balayage, "apply_A_cauchy", "balayage.apply_A_cauchy", "balayage")
    for owner, names in ((p.cli, ("write_csv", "write_json")),
                         (p.coeffs, ("write_csv", "write_json")),
                         (p.asymptotics, ("write_csv", "write_json")),
                         (p.convergence, ("write_json",)),
                         (p.balayage, ("write_csv",))):
        for name in names:
            wrap(owner, name, f"io.{name}", "io")
    return missing


# ---------------------------------------------------------------------------
# work counts, computed outside the timed passes
# ---------------------------------------------------------------------------

def live_orders(F, lo, hi):
    """Number of (node, order) pairs, n in [lo, hi], where exp(-(n+3) F) is
    not 0 in double precision."""
    F = np.asarray(F, dtype=float)
    with np.errstate(divide="ignore"):
        last = np.where(F > 0, np.floor(UNDERFLOW_EXPONENT / F) - 3.0, float(hi))
    last = np.clip(last, lo - 1, hi)
    for _ in range(8):
        dead = (last >= lo) & (np.exp(-(last + 3.0) * F) == 0.0)
        grow = (last < hi) & (np.exp(-(last + 4.0) * F) > 0.0)
        if not (dead.any() or grow.any()):
            break
        last = last - dead + grow
    return int(np.sum(last - lo + 1))


def work_counts(program, exp, seed):
    """Grid nodes (levels 0 and 1 of ``theta_grid``), node-orders, live
    node-orders and Legendre node steps of one experiment.

    Radial-constant profiles sweep every order 0..n_max over the two grids
    built for n_max.  The column experiment builds both grids for each
    order.  Point masses run one scalar ``legendre_eval`` per order.
    """
    counts = {"grid_nodes": 0, "node_orders": 0, "live_node_orders": 0, "node_steps": 0}
    theta_grid = program.coeffs.theta_grid
    if isinstance(exp, ColumnExperiment):
        spec, _ = column_planet(program, exp.planet)
        profile = program.model.build_profile(spec)
        for n in range(exp.n_min, exp.n_max + 1):
            for level in (0, 1):
                nodes, _ = theta_grid(profile, n, level)
                counts["grid_nodes"] += nodes.size
                counts["node_orders"] += nodes.size
                counts["live_node_orders"] += live_orders(profile.eval_F(nodes), n, n)
                counts["node_steps"] += n * nodes.size
        return counts
    if exp.command not in ("coeffs", "asympt", "radius", "full-verify"):
        return counts
    config = program.cli.ExperimentConfig(exp.config(seed), command=exp.command)
    n_min, n_max = config.n_min, config.n_max
    if exp.command == "full-verify":
        n_max = max(n_max or 2000, 200)
    planet = config.planet()
    if isinstance(planet, program.model.PointMassPlanet):
        counts["node_steps"] = sum(range(n_min, n_max + 1))
    elif getattr(planet, "radial_constant", False):
        for level in (0, 1):
            nodes, _ = theta_grid(planet, n_max, level)
            counts["grid_nodes"] += nodes.size
            counts["node_orders"] += nodes.size * (n_max + 1)
            counts["live_node_orders"] += live_orders(planet.eval_F(nodes), 0, n_max)
    return counts


# ---------------------------------------------------------------------------
# machine facts and set-up time
# ---------------------------------------------------------------------------

def _openblas():
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))
    return ctypes.CDLL(paths[0]) if paths else None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def machine_facts(root):
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "openblas": None,
        "blas_threads": None,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": None,
        "harness": "closed loop, 1 client, 1 process, passes back to back",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    lib = _openblas()
    if lib is not None:
        config = _blas_call(lib, ("scipy_openblas_get_config64_", "openblas_get_config64_",
                                  "openblas_get_config"), ctypes.c_char_p)
        facts["openblas"] = config.decode() if config else None
        facts["blas_threads"] = _blas_call(
            lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads"), ctypes.c_int)
    if (Path(root) / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            facts["git_commit"] = done.stdout.strip()
    return facts


SETUP_SNIPPET = ("import time\nt = time.perf_counter()\nimport brillouin.cli\n"
                 "print(repr(time.perf_counter() - t))\n")


def time_import(root):
    """Seconds a fresh interpreter takes to import ``brillouin.cli``."""
    src = str(Path(root).resolve() / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise ProgramMissing(f"import brillouin.cli failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class PassRecord:
    pass_id: int
    traced: bool
    wall: float
    cpu: float
    attempts: list


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    passes: list
    metrics: dict
    facts: dict
    counts: dict
    run_dir: Path
    setup_times: list = field(default_factory=list)

    @property
    def plain(self):
        """Timed untraced passes (pass 0 is the warm-up)."""
        return [p for p in self.passes[1:] if not p.traced]

    @property
    def traced(self):
        return [p for p in self.passes if p.traced]

    @property
    def attempts(self):
        return [a for p in self.passes for a in p.attempts]

    @property
    def attempted(self):
        return len(self.attempts)

    @property
    def failed(self):
        return sum(a.failed for a in self.attempts)

    @property
    def correct(self):
        """Every checked result is right and every artifact reproduced byte
        for byte; non-finite artifacts count as failures but not here."""
        return not any(a.problems for a in self.attempts)

    def causes(self):
        """Distinct failure causes with the number of attempts they hit."""
        tally = {}
        for a in self.attempts:
            for msg in a.problems + a.nonfinite:
                key = f"{a.experiment}: {msg}"
                tally[key] = tally.get(key, 0) + 1
        return tally


def run_pass(program, workload, prepared, run_dir, pass_id, tracer=None):
    pass_dir = run_dir / f"pass-{pass_id}"
    gc.collect()
    attempts = []
    if tracer is not None:
        tracer.pass_id = pass_id
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for exp in workload.experiments:
        if tracer is None:
            attempts.append(run_experiment(program, exp, prepared, pass_dir, pass_id))
            continue
        tracer.experiment = exp.name
        module, name = ("bench", "bench.column") if isinstance(exp, ColumnExperiment) \
            else ("cli", "cli.main")
        with tracer.span(name, module):
            attempts.append(run_experiment(program, exp, prepared, pass_dir, pass_id))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    shutil.rmtree(pass_dir)
    return PassRecord(pass_id, tracer is not None, wall, cpu, attempts)


def _compare_to_first(first, attempt):
    if attempt.digests != first.digests:
        changed = sorted(set(first.digests.items()) ^ set(attempt.digests.items()))
        names = sorted({path for path, _ in changed})
        attempt.problems.append(
            f"artifacts differ from pass {first.pass_id}: {', '.join(names)}")


def run_workload(root, workload, seed, seconds, trace, out_dir=None):
    """Measure one workload; returns a :class:`RunResult`.

    Passes run until the next one would end after ``seconds`` (counted from
    the warm-up pass), but at least two timed passes, or one traced and
    untraced pair, follow the warm-up."""
    program = load_program(root)
    facts = machine_facts(root)
    out_dir = Path(root) / OUT_DIR if out_dir is None else Path(out_dir)
    run_dir = out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    prepared = prepare(program, workload, seed, run_dir)
    setup_times = []
    if not trace:
        time_import(root)  # untimed: the first import may compile bytecode
    counts = {}
    if trace:
        counts = {exp.name: work_counts(program, exp, seed) for exp in workload.experiments}

    tracer = Tracer() if trace else None
    passes, first = [], {}
    group, min_groups = (2, 1) if trace else (1, 2)
    t0 = time.perf_counter()
    while True:
        # pass 0 warms caches and the allocator; traced runs then alternate
        # traced and untraced passes
        traced = trace and len(passes) % 2 == 1
        if not trace:
            # the machine's speed drifts, so set-up samples are spread over
            # the run like the passes
            setup_times.append(time_import(root))
        if traced:
            facts["trace_missing"] = install_tracing(tracer, program)
        try:
            record = run_pass(program, workload, prepared, run_dir, len(passes),
                              tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for attempt in record.attempts:
            if attempt.experiment in first:
                _compare_to_first(first[attempt.experiment], attempt)
            else:
                first[attempt.experiment] = attempt
        passes.append(record)
        groups = (len(passes) - 1) // group
        if groups >= min_groups and (len(passes) - 1) % group == 0:
            elapsed = time.perf_counter() - t0
            timed = sum(p.wall for p in passes[1:])
            if elapsed + timed / groups > seconds:
                break

    while not trace and len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_import(root))
    result = RunResult(workload.name, seed, trace, passes, {}, facts, counts, run_dir,
                       setup_times)
    if trace:
        result.metrics = per_layer_metrics(result, tracer)
        tracer.write(run_dir / "spans.json")
    else:
        result.metrics = end_to_end_metrics(result)
    write_results(result)
    return result


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end_metrics(result):
    walls = [p.wall for p in result.plain]
    cpus = [p.cpu for p in result.plain]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss_kib / 1024.0,
        "setup_s": statistics.median(result.setup_times),
    }


def per_layer_metrics(result, tracer):
    traced, plain = result.traced, result.plain
    by_pass = {p.pass_id: [] for p in traced}
    for sp in tracer.spans:
        by_pass[sp.pass_id].append(sp)

    def per_pass(fn):
        return statistics.median(fn(by_pass[p.pass_id], p) for p in traced)

    m = {}
    for metric, names in SPAN_TIMES.items():
        m[metric] = per_pass(lambda spans, _p, names=names:
                             sum(s.duration for s in spans if s.name in names))

    def count_spans(name):
        return per_pass(lambda spans, _p: sum(s.name == name for s in spans))

    def info_sum(name, key):
        return per_pass(lambda spans, _p: sum(s.info.get(key, 0)
                                              for s in spans if s.name == name))

    m["cli.artifact_bytes"] = per_pass(lambda _s, p: sum(a.nbytes for a in p.attempts))
    totals = {k: sum(c[k] for c in result.counts.values())
              for k in ("grid_nodes", "node_orders", "live_node_orders", "node_steps")}
    m["coeffs.grid_nodes"] = totals["grid_nodes"]
    m["coeffs.node_orders"] = totals["node_orders"]
    m["coeffs.live_frac"] = ratio(totals["live_node_orders"], totals["node_orders"])
    gridded = {name for name, c in result.counts.items() if c["node_orders"]}
    series_s = per_pass(lambda spans, _p: sum(s.duration for s in spans
                                              if s.name == "coeffs.coeff_series"
                                              and s.experiment in gridded))
    m["coeffs.ns_per_node_order"] = ratio(series_s * 1e9, totals["node_orders"])
    m["coeffs.ok_frac"] = ratio(info_sum("coeffs.coeff_series", "ok"),
                                 info_sum("coeffs.coeff_series", "orders"))
    m["legendre.eval_calls"] = count_spans("legendre.legendre_eval")
    m["legendre.node_steps"] = totals["node_steps"]
    m["asymptotics.unmasked_frac"] = ratio(info_sum("asymptotics.ratio_diagnostic", "kept"),
                                            info_sum("asymptotics.ratio_diagnostic", "orders"))
    samples = info_sum("spectral.sample_transform", "size")
    m["spectral.transform_samples"] = samples
    m["spectral.unique_sample_frac"] = ratio(per_pass(_unique_frequencies), samples)
    m["balayage.mu_points"] = info_sum("balayage.mu_eval", "size")
    m["balayage.cauchy_calls"] = count_spans("balayage.apply_A_cauchy")
    plain_wall = statistics.median(p.wall for p in plain)
    m["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                - plain_wall) / plain_wall
    m["trace.spans"] = per_pass(lambda spans, _p: len(spans))
    for module in MODULES:
        m[f"{module}.self_s"] = statistics.median(
            tracer.self_times(p.pass_id).get(module, 0.0) for p in traced)
    return m


def _unique_frequencies(spans, _pass):
    per_experiment = {}
    for s in spans:
        if s.name == "spectral.sample_transform":
            per_experiment.setdefault(s.experiment, set()).update(s.info["ks"])
    return sum(len(v) for v in per_experiment.values())


def ratio(num, den):
    """num / den, or 0 when there is no base (the layer sat idle)."""
    return num / den if den else 0.0


def write_results(result):
    walls = [p.wall for p in result.plain]
    payload = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "facts": result.facts,
        "metrics": result.metrics,
        "counts": result.counts,
        "setup_times": result.setup_times,
        "passes": [{"pass": p.pass_id, "warmup": p.pass_id == 0, "traced": p.traced,
                    "wall_s": p.wall, "cpu_s": p.cpu,
                    "attempts": [{"experiment": a.experiment, "exit_code": a.exit_code,
                                  "problems": a.problems + a.nonfinite,
                                  "artifact_bytes": a.nbytes} for a in p.attempts]}
                   for p in result.passes],
        "wall_s_quartiles": quartiles(walls),
        "attempted": result.attempted,
        "failed": result.failed,
        "causes": result.causes(),
    }
    (result.run_dir / "results.json").write_text(json.dumps(payload, indent=1) + "\n")
