"""pfib benchmark: cold-process workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload forward_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a pfib checkout.  Each timed iteration runs in a
fresh interpreter (perfbench/worker.py) with `src` on the import path and
PFIB_WORKERS unset, so the command-line default worker count applies.  The
load model is a closed loop: one caller, one iteration at a time, plus the
pool workers the search starts itself.  Outputs are checked against the
OEIS b-file and sympy outside the timed region (perfbench/oracle.py).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates traced and untraced iterations and reports the per-layer metrics,
the layer probes and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything the run writes goes under
.perfbench_out/ in the checkout.  DESIGN.md explains the workloads and the
layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("forward_sweep", "constructions", "reversed_serial", "reversed_cli")
# Set-up-only interpreters: a few before the loop and one after each iteration,
# so the set-up samples span the whole run like the iterations do.
SETUP_PROCESSES = 4
MIN_ITERATIONS = 3
WORKER_TIMEOUT_S = 100

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Traced public functions reported with their call count and self time.
CALLS_AND_SELF = (
    "arith.smallest_odd_prime_divisor",
    "arith.is_prime.lt2_32",
    "arith.is_prime.lt2_64",
    "arith.is_prime.ge2_64",
    "arith.sieve_primes",
    "seqcore.generate_forward",
    "searchctl.scan_multiplier_range",
    "searchctl.run_search",
    "searchctl.save_checkpoint",
    "searchctl.load_checkpoint",
)
SELF_ONLY = (
    "arith.crt_solve",
    "seqcore.extend_left_crt",
    "seqcore.find_prime_ap",
    "seqcore.green_tao_sequence",
    "seqcore.generate_reversed",
    "cli.main",
)
STEPS = ("t16", "t17", "t19")
PROBES = (
    "probe.arith.is_prime.lt2_32_s",
    "probe.arith.is_prime.lt2_64_s",
    "probe.arith.is_prime.ge2_64_s",
    "probe.arith.is_prime.bits1384_s",
    "probe.arith.smallest_odd_prime_divisor_s",
    "probe.arith.sieve_primes.1e7_s",
    "probe.arith.crt_solve.p997_s",
    "probe.searchctl.scan_multiplier_range.c67_s",
    "probe.searchctl.scan_multiplier_range.c406507_s",
    "probe.searchctl.scan_multiplier_range.c406507_cold_s",
    "probe.searchctl.run_search.pool_startup_s",
    "probe.searchctl.save_checkpoint_s",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    spec += [
        ("searchctl.run_search.shards", "count", "lower"),
        ("searchctl.scan.tested_shard_ratio", "ratio", "higher"),
        ("searchctl.scan.prime_hit_ratio", "ratio", "higher"),
        ("searchctl.scan.primality_tests", "count", "lower"),
    ]
    spec += [(f"seqcore.generate_reversed.step_s.{t}", "s", "lower") for t in STEPS]
    spec += [
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    spec += [(name, "s", "lower") for name in PROBES]
    return spec


def layer_values(doc: dict) -> dict[str, float]:
    """Per-layer figures of one traced iteration."""
    trace = doc["trace"]
    calls, self_s = trace["calls"], trace["self_s"]
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    shards, tests = trace["scan_shards"], trace["scan_prime_tests"]
    out["searchctl.run_search.shards"] = trace["run_search_shards"]
    out["searchctl.scan.tested_shard_ratio"] = (
        trace["scan_shards_tested"] / shards if shards else 0.0
    )
    out["searchctl.scan.prime_hit_ratio"] = (
        trace["scan_prime_hits"] / tests if tests else 0.0
    )
    out["searchctl.scan.primality_tests"] = tests
    step_s = doc["extra"].get("step_s", {})
    for t in STEPS:
        out[f"seqcore.generate_reversed.step_s.{t}"] = step_s.get(t, 0.0)
    return out


# -- environment --------------------------------------------------------


def _git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "pfib")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _filesystem(path: str) -> str | None:
    """Type of the filesystem that holds path, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        return None
    return fstype


# -- child processes ------------------------------------------------------


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker and the pool processes in its session, and wait for them."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Starts worker interpreters one at a time and collects their reports."""

    def __init__(self, root: str, out_dir: str, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work_dir = os.path.join(out_dir, "work")
        os.makedirs(self.work_dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("PFIB_WORKERS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, mode: str, trace_spans: str | None = None) -> dict:
        report = os.path.join(self.work_dir, f"{mode}.json")
        if os.path.exists(report):
            os.remove(report)
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", report, "--work-dir", self.work_dir,
        ]
        if trace_spans:
            argv += ["--trace-spans", trace_spans]
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise RuntimeError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            raise RuntimeError(f"{mode} worker exited {proc.returncode}: {tail}")
        with open(report, encoding="ascii") as handle:
            return json.load(handle)


# -- statistics and output ------------------------------------------------


def describe(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "n": len(values)}


def print_table(rows: list[tuple[str, str, dict]]) -> None:
    columns = ("median", "q1", "q3", "min")
    print(f"{'metric':<56} {'unit':<6}" + "".join(f" {c:>11}" for c in columns) + "    n")
    for name, unit, stats in rows:
        print(f"{name:<56} {unit:<6}" + "".join(f" {stats[c]:>11.6g}" for c in columns)
              + f" {stats['n']:>4}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pfib benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    bfile = os.path.join(root, "tests", "data", "b255562.txt")
    for needed in (os.path.join(root, "src", "pfib", "__init__.py"), bfile):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} not found; run from a pfib checkout",
                  file=sys.stderr)
            return 2
    try:
        from oracle import OPS_PER_ITERATION, Oracle
    except ImportError as exc:
        print(f"perfbench: the result checks need sympy ({exc})", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench_out")
    runner = Runner(root, out_dir, args.workload, args.seed)
    oracle = Oracle(bfile)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pfib_workers_env_set": "PFIB_WORKERS" in os.environ,
        "cli_workers": None,
        "checkpoint_fs": _filesystem(runner.work_dir),
        "page_cache": "not dropped; checkpoint fsync and reads run warm",
    }

    attempted = 0
    failures: list[str] = []
    setup_s: list[float] = []
    traced, untraced = [], []
    probes = {}
    started = time.perf_counter()
    try:
        runner.run("setup")  # compiles bytecode; not a sample
        setup_s += [runner.run("setup")["setup_s"] for _ in range(SETUP_PROCESSES)]
        if args.workload == "reversed_cli":
            runner.run("prepare")
        if args.trace:
            probes = runner.run("probe")["probes"]
        spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl.gz")
        loop_start = time.perf_counter()
        i = 0
        while i < MIN_ITERATIONS + args.trace or (
            time.perf_counter() - loop_start < args.seconds
        ):
            with_trace = bool(args.trace) and i % 2 == 0
            doc = runner.run("iteration", spans if with_trace else None)
            (traced if with_trace else untraced).append(doc)
            setup_s.append(runner.run("setup")["setup_s"])
            i += 1
    except RuntimeError as exc:
        attempted += OPS_PER_ITERATION[args.workload]
        failures += [str(exc)] * OPS_PER_ITERATION[args.workload]
    for doc in traced + untraced:  # checks stay outside the measured loop
        setup_s.append(doc["setup_s"])
        ops, problems, facts = oracle.check(args.workload, doc.pop("outputs"))
        attempted += ops
        failures += problems
        env["cli_workers"] = facts.get("cli_workers", env["cli_workers"])
    env["run_s"] = time.perf_counter() - started

    failed = len(failures)
    failed_ratio = ("ops_failed_ratio", "ratio", describe([failed / max(attempted, 1)]))
    series = {}
    if untraced:
        series = {
            "wall_s": [d["wall_s"] for d in untraced],
            "cpu_s": [d["cpu_s"] for d in untraced],
            "setup_s": setup_s,
            "peak_rss_mb": [d["peak_rss_mb"] for d in untraced],
        }
    notes = []
    if not args.trace:
        rows = [(name, unit, describe(series[name]))
                for name, unit in END_TO_END] if series else []
    elif traced and untraced:
        notes.append(
            "scans inside searchctl pool workers are not traced; their time is "
            "part of searchctl.run_search.self_s (waiting on the pool)"
        )
        per_iteration = [layer_values(d) for d in traced]
        layer = {name: describe([values[name] for values in per_iteration])
                 for name in per_iteration[0]}
        layer["trace.traced_wall_s"] = describe([d["wall_s"] for d in traced])
        layer["trace.untraced_wall_s"] = describe(series["wall_s"])
        layer["trace.overhead_s"] = describe([
            layer["trace.traced_wall_s"]["median"]
            - layer["trace.untraced_wall_s"]["median"]
        ])
        for name in PROBES:
            layer[name] = describe([probes[name]])
        rows = [(name, unit, layer[name]) for name, unit, _ in per_layer_spec()]
    else:
        rows = []
    metrics = {name: {"value": stats["median"], "unit": unit}
               for name, unit, stats in rows}
    rows.append(failed_ratio)

    print("env " + json.dumps(env))
    print_table(rows)
    for note in notes:
        print(f"note: {note}")
    for problem in failures[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    report = {
        "env": env, "notes": notes, "failures": failures[:100],
        "attempted": attempted, "failed": failed, "samples": series,
        "table": {name: dict(stats, unit=unit) for name, unit, stats in rows},
    }
    report_path = os.path.join(
        out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(report_path, "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
