"""Memory of each public phase of the benchmark's jobs, one line per phase.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/phase_peaks.py --workload stagewise --seeds 7

For each seed it builds the workload's batch with ``perfbench/workloads.py``
(which it only imports) and runs every job twice, untimed.  Each phase in
``PHASES`` is wrapped through its module attribute, so it is seen wherever
it is called as ``module.phase`` or by a bare name inside its own module.
The first run of every job of every seed reads ``ru_maxrss`` before and
after each phase call; the second, with ``tracemalloc`` on, reads the
traced memory.  Then it prints one line per job and phase: workload, seed,
job position, job name, phase, calls, and three figures in MB, each the
largest over the phase's calls in the job:

- ``peak``: the traced transient, the highest traced memory during the
  call above what was traced when it started;
- ``retained``: traced memory at the return above that at the start;
- ``rss_step``: the rise of the process's ``ru_maxrss`` over the call, in
  the untraced run (0 once an earlier phase or job has set a higher mark,
  so it reads the high-water steps in process order).

A phase that calls another phase counts the inner call's memory in its own
peak.  ``tracemalloc`` sees what numpy and Python allocate, not what
compiled code takes from ``malloc`` itself (scipy's KD-tree nodes, for
one); ``rss_step`` sees both.  No timing is printed: the wrappers and
``tracemalloc`` slow the run.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# The public phases each workload's jobs run, as module.function.
PHASES = {
    "certify": (
        "multiscale.build_scale_family",
        "multiscale.certify_chord_arc",
        "multiscale.beta_report",
        "curvature.build_curvature_field",
    ),
    "stagewise": (
        "iterated_projection.iterate_parameterization",
        "iterated_projection.extract_fine_set",
        "iterated_projection.build_separated_net",
        "iterated_projection.build_sigma_delta",
        "iterated_projection.normal_field",
        "iterated_projection.project_tau",
        "iterated_projection.compose_maps",
        "iterated_projection.distortion_report",
    ),
    "conformal": (
        "conformal.extract_disk_patch",
        "conformal.harmonic_disk_param",
        "conformal.conformal_diagnostics",
        "conformal.quasisymmetry_table",
        "conformal.intrinsic_metric_diagnostics",
    ),
}

MB = float(1 << 20)


class PhaseMeter:
    """Wraps phases in place; collects per-(job, phase) figures."""

    def __init__(self, names):
        self.names = names
        self.job = None
        self.traced = False
        self.figures = defaultdict(lambda: {"calls": 0, "peak": 0, "retained": 0, "rss_step": 0})
        self._stack: list[list[int]] = []  # per open call: [base, peak seen so far]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name in self.names:
            module, attr = name.rsplit(".", 1)
            mod = importlib.import_module(f"varifoldlab.{module}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        def measured(*args, **kwargs):
            if self.traced:
                return self._traced_call(name, fn, args, kwargs)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out = fn(*args, **kwargs)
            step = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            rec = self.figures[self.job, name]
            rec["calls"] += 1
            rec["rss_step"] = max(rec["rss_step"], step * 1024)  # KiB on Linux
            return out

        return measured

    def _traced_call(self, name, fn, args, kwargs):
        now, peak = tracemalloc.get_traced_memory()
        # an enclosing call keeps the peak it saw before this one resets it
        for frame in self._stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frame = [now, now]
        self._stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
        end, peak = tracemalloc.get_traced_memory()
        for outer in self._stack:
            outer[1] = max(outer[1], peak)
        rec = self.figures[self.job, name]
        rec["peak"] = max(rec["peak"], max(frame[1], peak) - frame[0])
        rec["retained"] = max(rec["retained"], end - frame[0])
        return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=[7])
    args = p.parse_args(argv)
    meter = PhaseMeter(PHASES[args.workload])
    jobs = {}
    meter.install()
    try:
        for traced in (False, True):
            meter.traced = traced
            if traced:
                tracemalloc.start()
            for seed in args.seeds:
                batch = workloads.WORKLOADS[args.workload](seed)
                for pos, job in enumerate(batch.jobs):
                    meter.job = jobs[seed, pos] = (seed, pos, job.name)
                    job.run()
                del batch
    finally:
        tracemalloc.stop()
        meter.restore()
    for key in jobs.values():
        for name in PHASES[args.workload]:
            rec = meter.figures.get((key, name))
            if rec is None:
                continue
            seed, pos, job = key
            print(
                args.workload, seed, pos, job, name, f"calls={rec['calls']}",
                f"peak={rec['peak'] / MB:.2f}", f"retained={rec['retained'] / MB:.2f}",
                f"rss_step={rec['rss_step'] / MB:.2f}", flush=True,
            )


if __name__ == "__main__":
    main()
