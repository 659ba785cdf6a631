"""epcag benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
`src/` directory. With `--trace 0` the run measures the end-to-end
metrics with no wrappers installed; with `--trace 1` it alternates
untraced and traced ops and reports the per-layer metrics instead.
Every time is scaled by the speed probes run beside it (`speed.py`) to
seconds on the probes' reference host, so that the host's drifting
speed does not read as a change of the program. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give each metric with its unit and sample count, and
the environment. A fuller record, and the spans of a traced run, are
written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("reference-cold", "crosscheck", "random-systems")

# end-to-end metrics and their units, as BENCHMARK.json lists them
END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# fresh processes whose set-up times give setup_s's median
IMPORT_PROBES = 5  # reference-cold: `import epcag` alone
SETUP_PROBES = 2  # in-process workloads, besides this process's own set-up
AFTER_PROBES = {False: 2, True: 1}  # speed probes that scale one set-up, by `cold`
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it

IMPORT_TIMER = "import time; t = time.perf_counter(); import epcag; print(time.perf_counter() - t)"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="epcag benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: time set-up alone in a fresh process, for setup_s
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources() -> None:
    """Import epcag from this checkout's src/ and nowhere else."""
    if not (SRC / "epcag" / "__init__.py").is_file():
        sys.exit(f"error: no epcag sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def set_up(name: str, seed: int, trace: bool = False):
    """Import the program, build the workload's inputs and run one checked
    warm-up op. Returns (workload, seconds, warm-up problems)."""
    start = time.perf_counter()
    import workloads  # imports epcag

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir())
    if trace and name == "reference-cold":
        wl.inproc = True  # wrappers cannot reach a child process
    wl.prepare()
    wl.before_op()
    _, problems = one_op(wl)
    seconds = time.perf_counter() - start
    return wl, seconds / after_slowness(cold=False), problems


def workdir() -> Path:
    """This process's scratch directory for artifacts, removed at exit."""
    return OUT / f"work-{os.getpid()}"


def one_op(wl, tracer=None):
    """Time one op's program work, then check its outputs."""
    start = time.perf_counter()
    try:
        outcome = wl.work(tracer)
    except Exception:  # an op that raises is a failed op; the run goes on
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, wl.check(outcome)
    except Exception:
        return elapsed, [traceback.format_exc(limit=3)]


def after_slowness(cold: bool) -> float:
    """Mean slowness of the host over the speed probes run right after a
    set-up; the set-up's time is divided by it."""
    import speed

    return statistics.mean(speed.slowness(cold) for _ in range(AFTER_PROBES[cold]))


def child_seconds(args) -> float:
    """Wall time of a fresh child process, which must exit 0, scaled by
    the speed probe run right after it."""
    import workloads

    start = time.perf_counter()
    subprocess.run(
        args, env=workloads.child_env(), cwd=ROOT, check=True, capture_output=True, timeout=workloads.CHILD_TIMEOUT_S
    )
    return (time.perf_counter() - start) / after_slowness(cold=True)


def import_seconds() -> float:
    """`import epcag` timed inside a fresh interpreter."""
    import workloads

    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=workloads.child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
    )
    return float(proc.stdout.strip())


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    import workloads

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "0",
         "--trace", "0", "--setup-only"],
        env=workloads.child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(times):
    """(value, percentile, samples): the op time at the highest percentile
    with TAIL_BEYOND samples beyond it. With fewer than TAIL_BEYOND + 1
    samples no percentile has that many beyond it, and the smallest
    sample, the one with the most beyond it, is reported."""
    xs = sorted(times)
    i = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def timed_ops(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: ops back to back for `seconds`. With a
    tracer, ops alternate untraced and traced, the wrappers installed
    only around the traced ones, and there is at least one of each.

    Before each op, and once after the last, the garbage collector runs
    and the speed probe is timed; each op's time is divided by the mean
    slowness of the probes on either side of it. Op times are kept raw
    and scaled."""
    import speed

    ops, failures = [], []  # ops: (traced, raw seconds)
    failed = 0
    start = time.perf_counter()
    least = 1 if tracer is None else 2
    slowness = []  # of the host before each op and after the last
    while len(ops) < least or time.perf_counter() - start < seconds:
        n = len(ops)
        traced = tracer is not None and n % 2 == 1
        wl.before_op()
        gc.collect()
        slowness.append(speed.slowness(wl.cold))
        if traced:
            tracer.begin_op(n)
            tracer.install()
            try:
                elapsed, problems = one_op(wl, tracer)
            finally:
                tracer.remove()
            tracer.end_op()
        else:
            elapsed, problems = one_op(wl)
        ops.append((traced, elapsed))
        failures.extend(f"op {n}: {p}" for p in problems)
        failed += bool(problems)
    slowness.append(speed.slowness(wl.cold))
    times = [t / ((slowness[i] + slowness[i + 1]) / 2) for i, (_, t) in enumerate(ops)]
    return {
        "plain": [t for (tr, _), t in zip(ops, times) if not tr],
        "traced": [t for (tr, _), t in zip(ops, times) if tr],
        "raw_plain": [t for tr, t in ops if not tr],
        "slowness": slowness,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
    }


def end_to_end(wl, setup_samples, loop):
    """The end-to-end values and, for the printed lines, how each was taken."""
    times = loop["plain"]
    tail_s, tail_pct, n = tail(times)
    values = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_samples),
        # reference-cold's program runs in its child processes
        "peak_rss_mb": peak_rss_mb(children=wl.name == "reference-cold"),
    }
    raw = loop["raw_plain"]
    details = {
        "op_p50_s": f"median of {n} ops; raw {statistics.median(raw):.4g} s, slowness {statistics.median(loop['slowness']):.4g}",
        "op_tail_s": f"p{tail_pct:.1f} of {n} ops, {n - round(tail_pct * n / 100)} beyond",
        "ops_per_s": f"{n} ops over their scaled time, closed loop, 1 client; raw {n / sum(raw):.4g} /s",
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "peak_rss_mb": "largest child process" if wl.name == "reference-cold" else "this process",
    }
    return values, details


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()

    try:
        return measure(args)
    finally:
        shutil.rmtree(workdir(), ignore_errors=True)


def measure(args) -> int:
    if args.setup_only:
        _, seconds, problems = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "problems": problems}))
        return 0

    wl, own_setup_s, warm_problems = set_up(args.workload, args.seed, trace=bool(args.trace))
    env = environment()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        import_s = statistics.median(import_seconds() for _ in range(3))
    elif wl.name == "reference-cold":
        setup_samples = [child_seconds([sys.executable, "-c", "import epcag"]) for _ in range(IMPORT_PROBES)]
    else:
        setup_samples = [own_setup_s] + [setup_probe(wl.name, args.seed) for _ in range(SETUP_PROBES)]

    loop = timed_ops(wl, args.seconds, tracer)
    attempted = loop["attempted"] + 1
    failed = loop["failed"] + bool(warm_problems)
    failures = [f"warm-up: {p}" for p in warm_problems] + loop["failures"]
    correct = failed == 0

    if tracer is not None:
        overhead = statistics.median(loop["traced"]) / statistics.median(loop["plain"])
        metrics = tracer.per_layer(import_s, overhead)
        if tracer.unattributed:
            correct = False
            failures.append(f"tracer: {tracer.unattributed} contract calls outside every traced call")
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
        lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"traced ops {len(loop['traced'])}, untraced ops {len(loop['plain'])}")
    else:
        values, details = end_to_end(wl, setup_samples, loop)
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END_UNITS.items()}
        lines = [f"{k} {metrics[k]['value']:.6g} {u} ({details[k]})" for k, u in END_TO_END_UNITS.items()]
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops, warm-up included)")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "op_times": loop["plain"],
        "raw_op_times": loop["raw_plain"],
        "slowness": loop["slowness"],
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
