"""hrrkit benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload recovery_estimate --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/``; there
is nothing to build. One client in one process runs operations back to
back, each starting when the previous one has returned, with OpenMP/BLAS
threads pinned to 1. The run visits its workload's input panel in whole
passes until ``--seconds`` would be exceeded (at least one pass), checks
every operation's output, and re-runs operation 0 to require byte-identical
output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
is a separate run that wraps the package's public functions in spans and
reports the per-layer metrics: each input runs once untraced and once traced
back to back, alternating which runs first (their difference is the tracing
overhead), then the panel runs
traced again, and the work counters of the two traced executions of every
input must be identical. A wrapped function that the workload must reach but
that recorded no call fails the run, naming it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The run environment, the result and
(for traced runs) every span are also written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_IMPORT = "import hrrkit, hrrkit.pipeline, hrrkit.radar, hrrkit.io"
SETUP_REPEATS = 3
EXIT_GUARD = 1
EXIT_NO_PROGRAM = 2


class GuardError(Exception):
    """The trace cannot back its metrics (missing span, counters not repeating)."""


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> list[float]:
    """Wall time of importing the package in a fresh interpreter, repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=child_env(),
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Executes operations, checks them, and keeps the run's tallies."""

    def __init__(self, wl, workdir: Path):
        self.wl = wl
        self.opdir = workdir / "op"
        self.opdir.mkdir()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.measures: dict[int, dict] = {}
        self.op_times: list[float] = []
        self.n_ops = 0
        self.traced_member: dict[int, int] = {}  # traced operation -> panel member

    def fail(self, member: int, why: str) -> None:
        self.failed += 1
        print(f"operation {self.n_ops} (panel member {member}) failed: {why}", file=sys.stderr)

    def execute(self, member: int, tracer=None):
        """Run one operation; returns its wall time, or None if it raised."""
        self.attempted += 1
        self.n_ops += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = self.wl.run(member, self.opdir)
            else:
                with tracer:
                    result = tracer.operation(self.n_ops, self.wl.run, member, self.opdir)
            elapsed = time.perf_counter() - t0
            checked = self.wl.check(member, result, self.opdir)
        except Exception:  # a failed operation is counted, and the run goes on
            self.fail(member, traceback.format_exc())
            return None
        del result
        problems = list(checked.problems)
        first = self.digests.setdefault(member, checked.digest)
        if checked.digest != first:
            problems.append("output differs from the first execution of the same input")
        self.measures.setdefault(member, checked.measures)
        if problems:
            self.fail(member, "; ".join(problems))
        if tracer is not None:
            self.traced_member[self.n_ops] = member
        return elapsed

    def passes(self, order: list[int], seconds: float, budget_start: float,
               tracer=None) -> int:
        """Whole passes over the panel until another would overrun ``seconds``."""
        passes = 0
        while True:
            p0 = time.perf_counter()
            for member in order:
                dt = self.execute(member, tracer)
                if dt is not None and tracer is None:
                    self.op_times.append(dt)
            passes += 1
            if time.perf_counter() - budget_start + (time.perf_counter() - p0) > seconds:
                return passes


def end_to_end(runner: Runner, wl, setup_times: list[float]) -> dict:
    problems, acc = wl.accuracy(runner.measures)
    if problems:
        runner.failed += 1
        print(f"accuracy check failed: {'; '.join(problems)}", file=sys.stderr)
    work = sum(runner.op_times)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(runner.op_times),
        "signal_s_per_s": len(runner.op_times) * wl.signal_s_per_op / work,
        **acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: Runner, wl, order: list[int], seconds: float, budget_start: float):
    from metrics import layer_metrics, op_counters
    from workloads import make_tracer

    try:
        tracer = make_tracer()
    except AttributeError as exc:  # an entry point was renamed or removed
        raise GuardError(f"span coverage: {exc}") from exc
    overhead = []
    for i, member in enumerate(order):
        # Alternate which side runs first, so warm-up of the second run of an
        # input does not bias the difference.
        if i % 2:
            traced = runner.execute(member, tracer)
            plain = runner.execute(member)
        else:
            plain = runner.execute(member)
            traced = runner.execute(member, tracer)
        if plain is not None and traced is not None:
            overhead.append(traced - plain)
    runner.passes(order, seconds, budget_start, tracer)

    calls = {sp.name for sp in tracer.spans}
    for name in wl.required_spans:
        if name not in calls:
            raise GuardError(f"span coverage: {name} recorded zero calls on {wl.name}")
    first: dict[int, dict] = {}
    for op, counters in sorted(op_counters(tracer.spans).items()):
        if op not in runner.traced_member:
            continue  # the operation raised; it is counted as failed
        member = runner.traced_member[op]
        ref = first.setdefault(member, counters)
        if counters != ref:
            raise GuardError(
                f"counters did not repeat for panel member {member} on {wl.name}: "
                f"{ref} then {counters}"
            )
    cube_mb = max((m.get("cube_mb", 0.0) for m in runner.measures.values()), default=0.0)
    return tracer, layer_metrics(tracer.spans, overhead, cube_mb)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hrrkit" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"hrrkit sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    declared = json.loads(bench_file.read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy

    import workloads
    from metrics import format_metrics

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    order = workloads.order(args.seed)

    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        t_setup = time.perf_counter()
        wl = workloads.make(args.workload, Path(tmp))
        env["input_setup_s"] = time.perf_counter() - t_setup
        runner = Runner(wl, Path(tmp))
        if args.trace:
            budget_start = time.perf_counter()
            try:
                tracer, values = traced_run(runner, wl, order, args.seconds, budget_start)
            except GuardError as exc:
                print(f"benchmark guard failed: {exc}", file=sys.stderr)
                return EXIT_GUARD
            tracer.dump(out_dir / f"spans-{stem}.jsonl")
            metrics = format_metrics(values, declared["per_layer"])
        else:
            setup_times = measure_setup()
            env["setup_times_s"] = setup_times
            budget_start = time.perf_counter()
            env["passes"] = runner.passes(order, args.seconds, budget_start)
            if env["passes"] == 1:
                runner.execute(order[0])  # determinism check: same input again
            metrics = format_metrics(end_to_end(runner, wl, setup_times), declared["end_to_end"])
    env["loadavg_end"] = os.getloadavg()
    env["operations"] = runner.n_ops
    env["op_times_s"] = runner.op_times

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"env": env, **result}, indent=2) + "\n")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
