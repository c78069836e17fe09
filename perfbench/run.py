"""Benchmark of the sptmbqc command-line simulator.

    python3 perfbench/run.py --workload {readme,sampling,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `./src`.
Each workload is a closed loop: one client runs the workload's commands in
order, each after the previous one ends, and repeats the whole list (a pass)
until S seconds are used, at least three times.  At most two processes run at
once (this one, which waits, and one command), every command keeps
`--threads 1`, and BLAS is pinned to one thread.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics and work counts of the
traced ones (see spans.py) plus the tracing overhead.  Both check every
operation: its exit code and its outputs (see checks.py).  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable report with the
environment and sample counts.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads BLAS, here and in every child

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3          # cold set-up processes per run; setup_s is their median
MIN_PASSES = 3             # the median of a run is taken over at least three passes
RUN_LIMIT_S = 165.0        # a run ends well inside its 180 s allowance
SETUP_CODE = ("import sys; from sptmbqc import cli; "
              "[cli.model.load_model(p) for p in sys.argv[1:]]")

# timed layer functions: "<name>.calls" and "<name>.self_s" for each
LAYER_SPANS = [f"{m}.{a}" for m, a in spans.TARGETS]
LAYER_SPANS.insert(LAYER_SPANS.index("trajectory.boundary_equivalence"), "trajectory.engine_build")
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.import_scipy_s", "s")]
    + [(f"{n}.{k}", u) for n in LAYER_SPANS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("gates.wire_power_matmul_dim", "count"), ("gates.wire_power_junk_dim", "count"),
       ("measurement.filter_trajectories.trial_steps", "count"),
       ("measurement.filter_trajectories.ns_per_trial_step", "ns"),
       ("trajectory.sample.phi_tilde.sites", "count"),
       ("trajectory.sample.phi_tilde.us_per_site", "us"),
       ("trajectory.sample.phi_runway.sites", "count"),
       ("trajectory.sample.phi_runway.us_per_site", "us"),
       ("oracle.amplitudes", "count"), ("oracle.ns_per_amplitude", "ns"),
       ("trace.overhead_s", "s")]
)


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    peak_rss_kb: int
    exits: list[int]
    seconds: list[float]           # per command
    layers: tuple[dict, dict] | None = None    # spans.aggregate of a traced pass


class ChildRunner:
    """Starts one child at a time, waits for it, and reads its resource usage."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        path = str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
        self.env = dict(os.environ, PYTHONPATH=path.rstrip(os.pathsep), **PINNED_THREADS)

    def run(self, cmd: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[int, float, int]:
        """(exit code, wall seconds, peak RSS in KiB); a child past the deadline is killed."""
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            return -signal.SIGKILL, 0.0, 0
        with open(stdout, "ab") as out, open(stderr, "ab") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# set-up

def write_models(plan: workloads.Plan, models_dir: Path) -> dict[str, Path]:
    """Write every model of the plan, exactly as `model build`/`model perturb` would."""
    from sptmbqc import model

    models_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, spec in plan.models.items():
        point = model.build_cluster_point(spec.D)
        if spec.seed is not None:
            point = model.perturb_point(point, spec.strength, spec.junk_dim, spec.seed)
        paths[label] = models_dir / f"{label}.json"
        model.save_model(point, paths[label])
    return paths


def parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative seconds of `sptmbqc` + `sptmbqc.cli`, self seconds of every scipy module)."""
    cli_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue
        if name in ("sptmbqc", "sptmbqc.cli"):
            cli_us += int(cum_us)
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return cli_us * 1e-6, scipy_us * 1e-6


def measure_setup(runner: ChildRunner, workdir: Path, model_paths, importtime: bool):
    """Cold processes that import the CLI and load the workload's models, run without a command."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        ["-c", SETUP_CODE] + [str(p) for p in model_paths]
    times, imports = [], []
    for i in range(SETUP_REPEATS + 1):        # the first one compiles bytecode and is not kept
        err = workdir / f"setup{i}.err"
        code, wall, _ = runner.run(cmd, workdir, workdir / "setup.out", err)
        if code != 0:
            raise RuntimeError(f"set-up process failed with exit {code}: {err.read_text()[-400:]}")
        if i > 0:
            times.append(wall)
            if importtime:
                imports.append(parse_importtime(err.read_text()))
    return times, imports


# ---------------------------------------------------------------------------
# passes

def run_pass(plan: workloads.Plan, runner: ChildRunner, pass_dir: Path, traced: bool) -> PassResult:
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    child = [sys.executable, str(HERE / "child.py")]
    log_out, log_err = pass_dir / "stdout.log", pass_dir / "stderr.log"
    exits, seconds, rss_max, span_files = [], [], 0, []
    t0 = perf_counter()
    if plan.in_process:
        (pass_dir / "plan.json").write_text(json.dumps([list(op.argv) for op in plan.ops]))
        span_files = [pass_dir / "spans.json"] if traced else []
        cmd = child + ["plan.json", "result.json"] + [f.name for f in span_files]
        code, wall, rss_max = runner.run(cmd, pass_dir, log_out, log_err)
        try:
            exits, seconds = map(list, zip(*json.loads((pass_dir / "result.json").read_text())))
        except (OSError, ValueError):  # the child died before writing its result
            exits, seconds = [code if code != 0 else 1] * len(plan.ops), [wall] * len(plan.ops)
    else:
        for i, op in enumerate(plan.ops):
            if traced:
                (pass_dir / f"op{i}.json").write_text(json.dumps([list(op.argv)]))
                span_files.append(pass_dir / f"spans{i}.json")
                cmd = child + [f"op{i}.json", f"result{i}.json", span_files[-1].name]
            else:
                cmd = [sys.executable, "-m", "sptmbqc.cli"] + list(op.argv)
            code, wall, rss = runner.run(cmd, pass_dir, log_out, log_err)
            exits.append(code)
            seconds.append(wall)
            rss_max = max(rss_max, rss)
    wall = perf_counter() - t0
    # read now: the next pass reuses the directory; a child killed at the
    # deadline leaves no span file
    layers = spans.aggregate([f for f in span_files if f.exists()]) if traced else None
    return PassResult(traced, wall, rss_max, exits, seconds, layers)


@dataclass
class Failure:
    pass_index: int
    op_index: int
    known: bool             # an unexpected exit code explained by the op's known defect
    problems: list[str]


def check_pass(plan, res: PassResult, pass_index: int, pass_dir: Path,
               checker: checks.Checker, corrupt=None) -> list[Failure]:
    """Failed operations of one pass; `corrupt(op, pass_dir)` may alter outputs first."""
    failures = []
    for i, (op, code) in enumerate(zip(plan.ops, res.exits)):
        if code != op.expect:
            note = " (known defect)" if op.known_defect else ""
            failures.append(Failure(pass_index, i, op.known_defect is not None,
                                    [f"exit {code}, expected {op.expect}{note}"]))
            continue
        if corrupt is not None:
            corrupt(op, pass_dir)
        problems = checker.check(op, pass_dir)
        if problems:
            failures.append(Failure(pass_index, i, False, problems))
    return failures


# ---------------------------------------------------------------------------
# metrics

def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[PassResult], setup_times) -> tuple[dict, list[str]]:
    cmd = [s for p in passes for s in p.seconds]
    metrics = {
        "wall_s": (median([p.wall_s for p in passes]), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (median([p.peak_rss_kb / 1024 for p in passes]), "MB"),
    }
    counts = {"wall_s": len(passes), "setup_s": len(setup_times), "peak_rss_mb": len(passes)}
    notes = [f"{name:<22} {value:.6g} {unit}  (median, n={counts[name]})"
             for name, (value, unit) in metrics.items()]
    # per-command latency is reported but is not a metric: it follows wall_s and
    # adds its own run-to-run spread (the p90 is set by one or two commands)
    notes.append(f"{'cmd_p50_s':<22} {median(cmd):.6g} s  (median, n={len(cmd)})")
    p90 = statistics.quantiles(cmd, n=10, method="inclusive")[8]
    notes.append(f"{'cmd_p90_s':<22} {p90:.6g} s  (90th percentile, n={len(cmd)})")
    return metrics, notes


def per_layer(passes: list[PassResult], imports):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [p.layers for p in traced]
    values: dict[str, list[float]] = {}

    def add(name, value):
        values.setdefault(name, []).append(value)

    for stats, counters in per_pass:
        for name in LAYER_SPANS:
            s = stats.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            add(f"{name}.calls", s["calls"])
            add(f"{name}.self_s", s["self_s"])

        def incl(name):
            return stats.get(name, {}).get("incl_s", 0.0)

        def ratio(time_s, count, scale):
            return time_s / count * scale if count else 0.0

        for key in ("gates.wire_power_matmul_dim", "gates.wire_power_junk_dim",
                    "measurement.filter_trajectories.trial_steps", "oracle.amplitudes",
                    "trajectory.sample.phi_tilde.sites", "trajectory.sample.phi_runway.sites"):
            add(key, counters.get(key, 0))
        add("measurement.filter_trajectories.ns_per_trial_step",
            ratio(incl("measurement.filter_trajectories"),
                  counters.get("measurement.filter_trajectories.trial_steps", 0), 1e9))
        for mode in ("phi_tilde", "phi_runway"):
            add(f"trajectory.sample.{mode}.us_per_site",
                ratio(incl(f"trajectory.sample.{mode}"),
                      counters.get(f"trajectory.sample.{mode}.sites", 0), 1e6))
        add("oracle.ns_per_amplitude",
            ratio(incl("oracle.build_state_vector") + incl("oracle.simulate_measurements"),
                  counters.get("oracle.amplitudes", 0), 1e9))
    values["cli.import_s"] = [i[0] for i in imports]
    values["cli.import_scipy_s"] = [i[1] for i in imports]
    overhead = median([p.wall_s for p in traced]) - median([p.wall_s for p in untraced])
    values["trace.overhead_s"] = [overhead]
    notes = []
    for name, vals in values.items():
        if name.endswith((".calls", "_dim", ".trial_steps", ".amplitudes", ".sites")) and len(set(vals)) > 1:
            notes.append(f"warning: work count {name} differs between traced passes: {vals}")
    metrics = {name: (median(values[name]) if unit != "count" else int(median(values[name])), unit)
               for name, unit in PER_LAYER}
    notes.append(f"trace.overhead_s {overhead:.6g} s = traced wall_s (median of {len(traced)}) "
                 f"- untraced wall_s (median of {len(untraced)})")
    # every traced name, including functions no command of this workload reaches
    merged = {}
    for stats, _ in per_pass:
        for name, s in stats.items():
            m = merged.setdefault(name, {"calls": 0, "self_s": 0.0})
            m["calls"] += s["calls"] / len(per_pass)
            m["self_s"] += s["self_s"] / len(per_pass)
    for name in LAYER_SPANS:
        merged.setdefault(name, {"calls": 0, "self_s": 0.0})
    for name in sorted(merged, key=lambda n: -merged[n]["self_s"]):
        notes.append(f"  layer {name:<40} calls {merged[name]['calls']:>9.0f}  "
                     f"self {merged[name]['self_s']:.4f} s/pass")
    return metrics, notes


# ---------------------------------------------------------------------------
# environment

def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(root: Path, model_paths: dict[str, Path]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(root),
        "model_sha256": {label: hashlib.sha256(p.read_bytes()).hexdigest()
                         for label, p in model_paths.items()},
    }


# ---------------------------------------------------------------------------

def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt=None):
    """Run one workload; returns (result object, report lines)."""
    runner = ChildRunner(root, perf_counter() + RUN_LIMIT_S)
    plan = workloads.build(workload, seed, tiny)
    reference = json.loads((HERE / "reference.json").read_text())
    checker = checks.Checker(reference, plan.variant)
    workdir = root / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        model_paths = write_models(plan, workdir / "models")
        env = environment(root, model_paths)
        setup_times, imports = measure_setup(runner, workdir, model_paths.values(), trace)
        passes, failures = [], []
        t_passes = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            res = run_pass(plan, runner, workdir / "pass", traced)
            failures += check_pass(plan, res, len(passes), workdir / "pass", checker, corrupt)
            passes.append(res)
            now = perf_counter()
            # stop once half of another pass would overrun --seconds, or it could pass the limit
            if len(passes) >= MIN_PASSES and now - t_passes + 0.5 * res.wall_s >= seconds:
                break
            if now + res.wall_s > runner.deadline:
                break
        attempted = len(plan.ops) * len(passes)
        lines = [
            f"perfbench workload={workload} seed={seed} variant={plan.variant} trace={int(trace)} "
            f"passes={len(passes)} measured={perf_counter() - t_passes:.1f}s",
            "environment " + json.dumps(env, sort_keys=True),
            f"load model: closed loop, one client, {len(plan.ops)} commands per pass, "
            f"{'one process per pass' if plan.in_process else 'one process per command'}",
            "expected exit codes " + json.dumps(_tally(op.expect for op in plan.ops)),
            f"known defects: {sum(op.known_defect is not None for op in plan.ops)} operations per pass "
            + json.dumps(sorted({op.known_defect for op in plan.ops if op.known_defect})),
            "pass wall_s " + " ".join(f"{p.wall_s:.3f}{'(traced)' if p.traced else ''}" for p in passes),
        ]
        if trace:
            metrics, notes = per_layer(passes, imports)
        else:
            metrics, notes = end_to_end(passes, setup_times)
        lines += notes
        lines.append(f"fail_frac              {len(failures)}/{attempted} = {len(failures) / attempted:.6g}"
                     f"  (failed / attempted operations)")
        for f in failures[:20]:
            op = plan.ops[f.op_index]
            lines.append(f"  failed pass {f.pass_index} op {f.op_index} [{op.point}] "
                         f"{' '.join(op.argv[:2])}: " + "; ".join(f.problems[:3]))
        result = {
            "correct": all(f.known for f in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _tally(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sptmbqc" / "cli.py").is_file():
        print("perfbench: ./src/sptmbqc not found; run from the root of an sptmbqc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, lines = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
