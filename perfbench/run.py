"""scgpt benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload online_reranked --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
end-to-end metrics are measured with no instrumentation beyond a result
capture on ``decoding.generate_candidates``.  Each workload has a fixed set
of distinct operations, which the loop runs round after round until the
time is up.  Every time in the end-to-end metrics is reference time (see
``hostclock.py``): wall time corrected for the shared host's speed, which
a reference kernel run next to every timed interval measures; the report
also prints the wall-clock figures.  With ``--trace 1`` the run
sets up once untraced and once traced, then runs every operation twice,
untraced and traced, and reports per-layer metrics over the traced setup
and loop plus the tracing overhead on the loop; spans are written to
``.bench_build/perfbench/``.  Exit status is 0 only when every check
passed.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS reads these once, when numpy loads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # every distinct operation runs at least this often
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "acts_per_s": "1/s",
    "tokens_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "scgpt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no scgpt sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import scgpt

    if Path(scgpt.__file__).resolve().parent != (src / "scgpt").resolve():
        sys.exit(f"perfbench: imported scgpt from {scgpt.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_op(op, key, root=None):
    from workloads import Record

    t0 = time.perf_counter()
    try:
        if root is None:
            out = op.fn()
        else:
            with root:
                out = op.fn()
        error = None
    except Exception as e:  # counted as a failed operation; the loop goes on
        out, error = None, f"{type(e).__name__}: {e}"
    return Record(op, key, time.perf_counter() - t0, out, error)


def run_loop(make_op, distinct, seconds, clock, tracer=None, root_name=""):
    """Closed loop, one client: the next operation starts when one ends.

    The loop runs operations 0..distinct-1 round after round, at least
    MIN_ROUNDS rounds and on until ``seconds`` have passed.  Every round
    repeats identical work, so the workload's checks can demand identical
    outputs.  A sample of the reference clock precedes the first operation
    and follows each one, and sets the operation's ``scale`` to reference
    time.

    With a tracer, every operation runs twice back to back, untraced and
    traced, in alternating order, so the overhead is measured on identical
    work and neither slow drift of the machine nor running second biases
    it.  Returns (untraced, traced) records.
    """
    import hostclock

    records, traced = [], []
    start = time.perf_counter()
    i = 0
    before = clock.sample()
    while i < MIN_ROUNDS * distinct or time.perf_counter() - start < seconds:
        key = i % distinct
        passes = (False,) if tracer is None else (i % 2 == 1, i % 2 == 0)
        for traced_pass in passes:
            op = make_op(key)
            if traced_pass:
                tracer.install()
                rec = run_op(op, key, tracer.root(root_name))
                tracer.uninstall()
                traced.append(rec)
            else:
                rec = run_op(op, key)
                records.append(rec)
            after = clock.sample(rec.seconds)
            rec.scale = hostclock.scale(before, after)
            before = after
        i += 1
    return records, traced


def tail_quantile(n: int) -> float:
    """p90, or the highest quantile with TAIL_SAMPLES samples beyond it,
    but never below the median."""
    return max(0.5, min(0.9, 1.0 - TAIL_SAMPLES / n))


def loop_metrics(records, reference=True) -> tuple:
    """Latency and rates over the distinct operations, each timed by the
    median over its error-free runs, in reference or in wall time."""
    import numpy as np

    runs = {}
    for r in records:
        if r.error is None:
            runs.setdefault(r.key, []).append(r)
    ops = [(rs[0], statistics.median(r.seconds * (r.scale if reference else 1.0) for r in rs))
           for rs in runs.values()]
    per_item_ms = np.array([1e3 * t / r.op.items for r, t in ops])
    busy = sum(t for _, t in ops)
    items = sum(r.op.items for r, _ in ops)
    tokens = sum(r.tokens for r, _ in ops)
    q = tail_quantile(len(per_item_ms))
    values = {
        "latency_p50_ms": float(np.quantile(per_item_ms, 0.5)),
        "latency_p90_ms": float(np.quantile(per_item_ms, q)),
        "acts_per_s": items / busy,
        "tokens_per_s": tokens / busy,
    }
    notes = {"samples": len(ops), "tail_quantile": q, "ops_s": busy, "acts": items,
             "tokens": tokens, "runs": len(records), "min_runs": min(map(len, runs.values())),
             "loop_s": sum(r.seconds for r in records)}
    return values, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def say(label, value):
    print(f"{label:<34} {value}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    import hostclock
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    work = wl.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    say("workload", f"{args.workload} (trace {args.trace})")
    say("environment", json.dumps(environment(args.seed), sort_keys=True))

    clock = hostclock.HostClock(work.blas)
    outcome = wl.Outcome()
    capture = wl.Capture()
    capture.install()
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_wall, setup_times, prints = [], [], []
        before = clock.sample(1.0)  # 20 ms of kernel runs
        for _ in range(repeats):
            t0 = time.perf_counter()
            state = work.setup(args.seed)
            setup_wall.append(time.perf_counter() - t0)
            after = clock.sample(setup_wall[-1])
            setup_times.append(setup_wall[-1] * hostclock.scale(before, after))
            before = after
            prints.append(work.fingerprint(state, out_dir, tag))
        if args.trace:
            tracer = tr.Tracer(eos_id=work.eos_id(state))
            tracer.install()
            tracer.phase = "setup"
            with tracer.root("bench.setup"):
                traced_state = work.setup(args.seed)
            tracer.uninstall()
            traced_setup_s = tracer.root_seconds()
            prints.append(work.fingerprint(traced_state, out_dir, tag))
        outcome.check(all(p == prints[0] for p in prints), "repeated setup built different inputs")
        say("fingerprint", json.dumps(prints[0], sort_keys=True))

        make_op = work.ops(state, capture)
        for i in range(work.warmup):
            make_op(i % work.distinct).fn()
        if args.trace:
            tracer.phase = "loop"
        records, traced = run_loop(make_op, work.distinct, args.seconds, clock,
                                   tracer if args.trace else None, f"bench.{args.workload}")
    finally:
        capture.uninstall()

    work.finish(state, records + traced, capture, outcome)
    if all(r.error is not None for r in records):
        sys.exit(f"perfbench: every operation failed; first error: {records[0].error}")
    values, notes = loop_metrics(records)
    wall, _ = loop_metrics(records, reference=False)

    say("setup runs, reference (s)", " ".join(f"{t:.4f}" for t in setup_times))
    say("setup runs, wall (s)", " ".join(f"{t:.4f}" for t in setup_wall))
    say("loop", f"{notes['runs']} runs of {notes['samples']} distinct operations "
                f"(each at least {notes['min_runs']} times) in {notes['loop_s']:.3f} s")
    say("per operation", f"{notes['acts']} acts, {notes['tokens']} tokens in "
                         f"{notes['ops_s']:.3f} reference s (median run of each)")
    for name, value in wall.items():
        say(f"wall {name}", value)
    say("latency tail quantile", f"{notes['tail_quantile']:.4f} of {notes['samples']} samples")
    for key, value in sorted(outcome.extra.items()):
        say(key, value)
    if args.workload == "train_da":
        say("train_tokens_per_s", values["tokens_per_s"])
    say("failed_frac", f"{outcome.failed / max(outcome.attempted, 1)} "
                       f"({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        say("FAILED", problem)

    if args.trace:
        untraced_s = sum(r.seconds for r in records)
        traced_s = sum(r.seconds for r in traced)
        overhead_s = traced_s - untraced_s
        self_ns = tracer.self_times_ns()
        loop_ns = [(span[0], ns) for span, ns in zip(tracer.spans, self_ns) if span[5] == "loop"]
        harness_s = sum(ns for name, ns in loop_ns if name.startswith("bench.")) / 1e9
        program_s = sum(ns for _, ns in loop_ns) / 1e9 - harness_s
        say("setup untraced / traced (s)", f"{setup_wall[0]:.4f} / {traced_setup_s:.4f}")
        say("loop trace accounting", f"program self {program_s:.4f} s + harness self "
                                     f"{harness_s:.4f} s = traced {traced_s:.4f} s; untraced "
                                     f"{untraced_s:.4f} s; overhead {overhead_s:.4f} s")
        tracer.write(out_dir / f"spans-{tag}.jsonl")
        metrics = tr.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (overhead_s, "s")
        metrics["trace.overhead_frac"] = (overhead_s / untraced_s, "frac")
        for name, (value, unit) in metrics.items():
            say(name, f"{value} {unit}")
    else:
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        for name, (value, unit) in metrics.items():
            say(name, f"{value} {unit}")

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
