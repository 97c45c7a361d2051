"""Benchmark of varifoldlab through its public Python API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single client runs one
job at a time (one surface through one pipeline) and repeats the
workload's batch of jobs until ``--seconds`` have elapsed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced batches and reports per-layer calls, self
time and counts, and writes the spans to ``perfbench/out/``.  Every line
but the last is for people; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits with code 2, printing no result, when the package sources under
``src/`` are missing.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# BLAS / OpenMP pools are capped at the usable cores before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _cap_threads() -> int:
    cap = NPROC
    for var in THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


BLAS_THREADS = _cap_threads()

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_err", "1"),
)
SETUP_REPEATS = 3  # this process plus two fresh ones


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "stagewise", "conformal"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_batch(workload, tracer=None):
    """Run every job once; returns per-job (seconds, figures or None)."""
    out = []
    for k, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = k
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception:
            elapsed = time.perf_counter() - start
            print(f"job {job.name} raised:", file=sys.stderr)
            traceback.print_exc()
            out.append((elapsed, None))
            continue
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        try:
            figures = job.check(result)
        except Exception:
            print(f"job {job.name} failed its check:", file=sys.stderr)
            traceback.print_exc()
            figures = None
        finally:
            if tracer is not None:
                tracer.active = True
        out.append((elapsed, figures))
    return out


def repeat_for(seconds, step) -> None:
    """Call step until ``seconds`` have elapsed, at least once."""
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def batch_wall(batch) -> float:
    return sum(t for t, _ in batch)


def guards_of(workload, batch):
    figures = [f for _, f in batch]
    if any(f is None for f in figures):
        return None
    return workload.guards(figures)


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "varifoldlab" / "__init__.py").is_file():
        print(f"varifoldlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if tracer is not None:
        tracer.restore()
        return traced_run(args, workload, tracer)

    setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    batches = []
    repeat_for(args.seconds, lambda: batches.append(run_batch(workload)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    jobs = len(workload.jobs)
    attempted = jobs * len(batches)
    failed = sum(f is None for batch in batches for _, f in batch)
    guards = guards_of(workload, batches[0])
    # per surface, the median over its jobs and batches
    times = {}
    for batch in batches:
        for job, (seconds, _) in zip(workload.jobs, batch):
            times.setdefault(job.name, []).append(seconds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batch_wall(b) for b in batches),
        "job_max_s": max(statistics.median(t) for t in times.values()),
        "peak_rss_mb": peak_rss_mb,
        "accuracy_err": guards[workload.headline] if guards else float("nan"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = environment()
    print(f"workload={args.workload} seed={args.seed} trace=0 batches={len(batches)} "
          f"jobs_per_batch={jobs} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in END_TO_END:
        print(f"{name:>14} {values[name]:.6g} {unit}")
    for name, value in (guards or {}).items():
        print(f"{name:>14} {value:.6g} 1")
    print(f"{'fail_ratio':>14} {failed / attempted:.6g} 1  ({failed} of {attempted} jobs)")
    print(f"{'setup_samples':>14} " + " ".join(f"{s:.4f}" for s in setups) + " s")
    print(f"{'batch_walls':>14} " + " ".join(f"{batch_wall(b):.4f}" for b in batches) + " s")
    print(json.dumps({"correct": failed == 0 and guards is not None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_run(args, workload, tracer) -> int:
    """Alternate untraced and traced batches; report per-layer figures."""
    from tracer import layer_metrics, per_layer_spec

    setup_spans, setup_counts = tracer.take()
    setup_figures = layer_metrics(setup_spans, setup_counts, 0.0)
    plain, traced, figures, span_log = [], [], [], []

    def pair():
        plain.append(run_batch(workload))
        tracer.install()
        try:
            traced.append(run_batch(workload, tracer))
        finally:
            tracer.restore()
        spans, counts = tracer.take()
        figures.append(layer_metrics(spans, counts, batch_wall(traced[-1])))
        span_log.append(spans)

    repeat_for(args.seconds, pair)

    jobs = len(workload.jobs)
    attempted = jobs * (len(plain) + len(traced))
    failed = sum(f is None for batch in plain + traced for _, f in batch)
    # a traced batch must reproduce the untraced figures bit for bit
    mismatched = sum(
        f is not None and g is not None and f != g
        for p, t in zip(plain, traced)
        for (_, f), (_, g) in zip(p, t)
    )
    failed += mismatched

    values = {}
    for key in figures[0]:
        values[key] = statistics.median(f[key] for f in figures)
        if key.endswith((".calls", ".self_s")):
            values[key] += setup_figures[key]
    values["tracing_overhead_s"] = statistics.median(map(batch_wall, traced)) - statistics.median(
        map(batch_wall, plain)
    )
    spec = per_layer_spec()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    env = environment()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "span_fields": ["name", "job", "parent", "start", "end"],
                   "jobs": [job.name for job in workload.jobs],
                   "setup": setup_spans, "batches": span_log}, fh)
    print(f"workload={args.workload} seed={args.seed} trace=1 batches={len(traced)} "
          f"jobs_per_batch={jobs} mismatched={mismatched} spans={trace_file} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for m in spec:
        print(f"{m['name']:>52} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
