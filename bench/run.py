#!/usr/bin/env python3
"""killingflow benchmark: one closed-loop caller running a workload's op list.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from ``src/``.
The op list (see workloads.py) is generated from --seed and run back to
back, one op at a time, as many whole passes as fit in --seconds.  Each
op's output is checked outside the timed region.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates traced and untraced passes and reports the per-layer
metrics of the traced ones, checked against one more traced pass run in a
fresh process; the spans are written to
``.bench_out/trace_<workload>_seed<seed>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("ladder", "disk2d", "verify_radial")
SETUP_REPEATS = 5
# largest share of a traced pass that may fall outside every wrapped call
MAX_UNCOVERED = 0.10
# grid shapes whose step breakdown is reported as per-layer metrics: the
# ladder's top rung, the ROADMAP per-step rows (48x32, 96x64, radial) and
# disk2d's largest grid.  Every shape stepped on is printed.
KEY_SHAPES = ("136x16", "48x32", "96x64", "128x1")

# BLAS/OpenMP pools are pinned to one thread, and KILLINGFLOW_THREADS is
# cleared: an inherited value moves run_exhaustion onto its threaded path,
# which changes the ladder's work.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("KILLINGFLOW_THREADS", None)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# measuring


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time of a fresh process that imports the package, builds the
    workload's models and generates its inputs: normalised like the ops'
    times, and as measured."""
    times, refs = [], [reference.kernel_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe",
                        "setup", "--workload", workload, "--seed", str(seed)],
                       check=True)
        times.append(time.perf_counter() - start)
        refs.append(reference.kernel_s())
    return (statistics.median(_normalise(times, refs)),
            statistics.median(times))


def _normalise(times: list[float], refs: list[float]) -> list[float]:
    """Each time divided by the mean of the reference kernel times just
    before and just after it, in seconds at reference.NOMINAL_S."""
    return [t * 2.0 * reference.NOMINAL_S / (a + b)
            for t, a, b in zip(times, refs, refs[1:])]


class Pass:
    """Timings and check results of one run through the op list.
    ``ref_s[i]`` and ``ref_s[i + 1]`` are the reference kernel's times
    just before and just after op i."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_s: list[float] = []
        self.ref_s: list[float] = []
        self.checks: list[dict] = []
        self.tracer = None
        self.duration = 0.0

    @property
    def wall(self) -> float:
        return sum(self.op_s)

    @property
    def norm_op_s(self) -> list[float]:
        return _normalise(self.op_s, self.ref_s)


def run_pass(ops, traced: bool, first_op_id: int) -> Pass:
    pass_start = time.perf_counter()
    result = Pass(traced)
    if traced:
        result.tracer = spans.Tracer()
    for i, op in enumerate(ops):
        op.prepare()
        if i == 0:
            result.ref_s.append(reference.kernel_s())
        tracer = result.tracer
        if tracer:
            tracer.install()
            tracer.op = first_op_id + i
            root = tracer.open("op")
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(root)
            tracer.unpatch()
        result.op_s.append(elapsed)
        result.ref_s.append(reference.kernel_s())
        if error is None:
            try:
                check = op.check(out)
            except Exception:
                check = {"ok": False, "problems": [traceback.format_exc()]}
        else:
            check = {"ok": False, "problems": [error]}
        for problem in check.get("problems", ()):
            sys.stderr.write(f"{op.label}: {problem}\n")
        result.checks.append(check)
    result.duration = time.perf_counter() - pass_start
    return result


def run_passes(ops, seconds: float, trace: bool) -> list[Pass]:
    """Whole passes until the next one would end past --seconds.  A traced
    run alternates traced and untraced passes, starting T, U, T."""
    passes: list[Pass] = []
    start = time.perf_counter()
    plan = [True, False, True] if trace else [False]
    while True:
        traced = plan[len(passes)] if len(passes) < len(plan) else \
            not passes[-1].traced
        passes.append(run_pass(ops, traced, len(passes) * len(ops)))
        if len(passes) < len(plan):
            continue
        elapsed = time.perf_counter() - start
        # predict the next pass from the median duration of its kind
        nxt = not passes[-1].traced if trace else False
        same = [p.duration for p in passes if p.traced == nxt]
        if elapsed + statistics.median(same) > seconds:
            return passes


# ---------------------------------------------------------------------------
# reporting

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s",
                    "node_steps_per_s": "1/s", "peak_rss_mb": "MB",
                    "raw.setup_s": "s", "raw.pass_s.p50": "s",
                    "raw.pass_s.max": "s",
                    "raw.reference_s.p50": "s"}


def check_metrics(passes: list[Pass]) -> dict:
    checks = [c for p in passes for c in p.checks]
    oracle = [c["oracle_err"] for c in checks if "oracle_err" in c]
    cauchy = [c["cauchy_d_final"] for c in checks
              if c.get("cauchy_d_final") is not None]
    return {
        "check.error_rate": sum(not c["ok"] for c in checks) / len(checks),
        "check.oracle_err": max(oracle) if oracle else 0.0,
        "check.cauchy_d_final": max(cauchy) if cauchy else 0.0,
        "check.known_defects": sum(len(c.get("known_defects", ()))
                                   for c in checks),
    }


def median_norm_op_s(passes: list[Pass]) -> list[float]:
    """Each op's median normalised time over the passes."""
    return [statistics.median(times)
            for times in zip(*(p.norm_op_s for p in passes))]


def end_to_end(ops, passes: list[Pass], setup_s: float) -> dict:
    per_op = median_norm_op_s(passes)
    wall = sum(per_op)
    node_steps = sum(op.node_steps for op in ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_s.p50": statistics.median(per_op),
        "node_steps_per_s": node_steps / wall,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def raw_times(passes: list[Pass], raw_setup_s: float) -> dict:
    """Measured seconds, printed beside the normalised metrics: set-up,
    median and slowest pass, and the reference kernel's median, which shows
    how far the host's speed sat from nominal during the run."""
    walls = [p.wall for p in passes]
    return {"raw.setup_s": raw_setup_s,
            "raw.pass_s.p50": statistics.median(walls),
            "raw.pass_s.max": max(walls),
            "raw.reference_s.p50": statistics.median(
                t for p in passes for t in p.ref_s)}


def per_layer(passes: list[Pass]) -> tuple[dict, dict, list[str]]:
    """Median over traced passes of each layer metric and of the per-shape
    step breakdown, plus the self-check of the spans: they nest, no self
    time is negative, the time no wrapper covers stays below
    MAX_UNCOVERED of the median traced pass, and exact counts repeat
    between traced passes."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [spans.layer_metrics(p.tracer) for p in traced]
    problems = []
    for p in traced:
        problems += [f"self-check: {problem}"
                     for problem in spans.span_problems(p.tracer)]
    for name in spans.EXACT_COUNTS:
        values = {m[name] for m, _ in per_pass}
        if len(values) != 1:
            problems.append(f"self-check: {name} differs between traced "
                            f"passes: {sorted(values)}")
    metrics = {name: _median_or_exact([m[name] for m, _ in per_pass])
               for name in per_pass[0][0]}
    traced_wall = sum(median_norm_op_s(traced))
    share = (metrics["trace.uncovered_s"]
             / statistics.median(p.wall for p in traced))
    if share > MAX_UNCOVERED:
        problems.append(f"self-check: {share:.1%} of the traced wall is "
                        f"covered by no wrapper (limit {MAX_UNCOVERED:.0%})")
    shapes = {shape: {k: _median_or_exact([s[shape][k] for _, s in per_pass])
                      for k in row}
              for shape, row in per_pass[0][1].items()}
    for shape in KEY_SHAPES:
        row = shapes.get(shape, {})
        metrics[f"flow.step.{shape}.p50_ms"] = row.get("p50_ms", 0.0)
        metrics[f"flow.step.{shape}.self_ms"] = row.get("self_ms", 0.0)
        metrics[f"flow.linsolve.{shape}.ms"] = row.get("linsolve_ms", 0.0)
        metrics[f"flow.diagnostics.{shape}.ms"] = row.get(
            "diagnostics_ms", 0.0)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace_overhead"] = (
        traced_wall / sum(median_norm_op_s(untraced)) - 1.0)
    return metrics, shapes, problems


def _median_or_exact(values):
    # exact counts keep their integer value
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def counts_in_fresh_process(workload: str, seed: int) -> dict:
    """Exact counts of one traced pass of the same seed, run in a separate
    process, for the cross-process part of the self-check."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "counts",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_counts(workload: str, seed: int) -> None:
    import workloads
    workdir = tempfile.mkdtemp(prefix="counts_", dir=OUT_DIR)
    try:
        ops = workloads.build_ops(workload, seed, workdir)
        tracer = run_pass(ops, True, 0).tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, _ = spans.layer_metrics(tracer)
    print(json.dumps({name: metrics[name] for name in spans.EXACT_COUNTS}))


def write_trace(path: str, workload: str, seed: int, env: dict,
                passes: list[Pass]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "env": env}) + "\n")
        for k, p in enumerate(passes):
            if not p.traced:
                continue
            selfs = p.tracer.self_times()
            for i, (span, self_s) in enumerate(zip(p.tracer.spans, selfs)):
                name, start, end, parent, op, extra = span
                fh.write(json.dumps({
                    "pass": k, "id": i, "op": op, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "self_s": self_s, "extra": extra}) + "\n")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name in ("trace_overhead", "check.error_rate"):
        return "ratio"
    if name in ("check.oracle_err", "check.cauchy_d_final"):
        return "abs"
    return "count"


def run_workload(args) -> int:
    import workloads
    if args.probe == "setup":
        workloads.build_ops(args.workload, args.seed, None)
        return 0
    if args.probe == "counts":
        os.makedirs(OUT_DIR, exist_ok=True)
        probe_counts(args.workload, args.seed)
        return 0
    setup_s, raw_setup_s = ((None, None) if args.trace
                            else setup_seconds(args.workload, args.seed))
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work_", dir=OUT_DIR)
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        passes = run_passes(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.checks) for p in passes)
    failed = sum(not c["ok"] for p in passes for c in p.checks)
    checks = check_metrics(passes)
    problems = []
    shapes = {}
    if args.trace:
        metrics, shapes, problems = per_layer(passes)
        other = counts_in_fresh_process(args.workload, args.seed)
        for name, value in other.items():
            if metrics[name] != value:
                problems.append(f"self-check: {name} is {metrics[name]} "
                                f"here and {value} in a fresh process")
        metrics.update(checks)
        trace_path = os.path.join(
            OUT_DIR, f"trace_{args.workload}_seed{args.seed}.jsonl")
        write_trace(trace_path, args.workload, args.seed, env, passes)
    else:
        metrics = end_to_end(ops, passes, setup_s)
    for problem in problems:
        sys.stderr.write(problem + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} ops in {len(passes)} passes of {len(ops)}, "
          f"{failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    shown = dict(metrics)
    if not args.trace:
        shown.update(raw_times(passes, raw_setup_s))
        shown.update(checks)
    else:
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    for name, value in shown.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    if shapes:
        print(f"  {'shape':<8} {'steps':>6} {'step p50':>9} {'self':>8} "
              f"{'linsolve':>9} {'diagnost':>9}   ms per step")
        for shape, row in sorted(shapes.items(),
                                 key=lambda kv: -kv[1]["p50_ms"]):
            print(f"  {shape:<8} {row['steps']:>6} {row['p50_ms']:>9.3f} "
                  f"{row['self_ms']:>8.3f} {row['linsolve_ms']:>9.3f} "
                  f"{row['diagnostics_ms']:>9.3f}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, each printing its metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "counts"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "killingflow", "__init__.py")):
        sys.stderr.write(f"error: no killingflow sources under {SRC}; run "
                         f"the benchmark from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
