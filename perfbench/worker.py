"""One cold benchmark iteration, run in a fresh interpreter.

A command-line user pays pfib's import and every in-process cache on each
run, so run.py starts this script once per timed iteration.  It times the
set-up (import plus the first call's lazy table build), then the workload's
calls, and writes one JSON document to --out: timings, resource use and the
raw outputs, which run.py checks outside the timed region.

    python3 perfbench/worker.py --mode iteration --workload forward_sweep \
        --seed 1 --out result.json [--trace-spans spans.jsonl.gz]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import workloads


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Accumulates wall and CPU seconds over the `with` blocks it times."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self):
        self._cpu = _cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._wall
        self.cpu_s += _cpu_seconds() - self._cpu
        return False


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries it across exec, so it would report
    the parent's size when the parent is larger.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def set_up() -> float:
    started = time.perf_counter()
    import pfib
    import pfib.cli  # noqa: F401  (the command-line front end is part of set-up)

    pfib.smallest_odd_prime_divisor(3)  # builds the trial-division table
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("setup", "prepare", "probe", "iteration"), required=True
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-spans", default=None, metavar="PATH")
    parser.add_argument("--work-dir", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    doc = {"setup_s": set_up()}
    import pfib

    if args.mode == "prepare":
        workloads.PREPARE[args.workload](pfib, args.work_dir)
    elif args.mode == "probe":
        import probes

        doc["probes"] = probes.run_probes(pfib, args.work_dir)
    elif args.mode == "iteration":
        tracer = None
        if args.trace_spans:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(pfib)
        clock = Clock()
        run = workloads.WORKLOADS[args.workload]
        outputs, extra = run(pfib, random.Random(args.seed), clock, args.work_dir)
        doc.update(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            peak_rss_mb=_peak_rss_mb(),
            outputs=outputs,
            extra=extra,
        )
        if tracer is not None:
            tracer.enabled = False
            doc["trace"] = tracer.summary()
            tracer.dump(args.trace_spans, f"{args.workload}-seed{args.seed}")
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
