"""Layer probes: isolated calls to public functions on fixed inputs.

Each probe reports seconds per call, the median of a few repetitions.  The
probes are per-layer figures for attribution; no bound gates them.
"""

from __future__ import annotations

import os
import statistics
import time

# a16 of A255562 and the multiplier that yields a17 = 967 (constraint 67).
A16 = 330515394367
A17 = 967
# Step 16's hit: 67 + a16 = 406507 * 813062.
STEP16_HIT_MULTIPLIER = 813062


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def _shard(multiplier: int, width: int) -> tuple[int, int]:
    """The run_search shard [lo, hi) that holds `multiplier`."""
    lo = 2 + (multiplier - 2) // width * width
    return lo, lo + width


def run_probes(pfib, work_dir: str) -> dict[str, float]:
    import sympy  # oracle-grade source of one large prime; not timed

    arith, searchctl = pfib.arith, pfib.searchctl
    width = searchctl.DEFAULT_SHARD_WIDTH
    out: dict[str, float] = {}

    big = int(sympy.nextprime(1 << 1383))
    for label, n, calls in (
        ("lt2_32", 4294967291, 2000),
        ("lt2_64", 18446744073709551557, 500),
        ("ge2_64", (1 << 89) - 1, 20),
        ("bits1384", big, 1),
    ):
        out[f"probe.arith.is_prime.{label}_s"] = _per_call(
            lambda n=n: arith.is_prime(n), calls, 3 if label == "bits1384" else 5
        )
    sums = range(6, 2000, 2)
    out["probe.arith.smallest_odd_prime_divisor_s"] = _per_call(
        lambda: [arith.smallest_odd_prime_divisor(s) for s in sums], 1
    ) / len(sums)
    out["probe.arith.sieve_primes.1e7_s"] = _per_call(
        lambda: arith.sieve_primes(10**7), 1, 1
    )
    # the system extend_left_crt builds for (3, 997)
    congruences = [((1 - 3) % q, q) for q in arith.sieve_primes(996) if q > 2]
    congruences.append((-3 % 997, 997))
    out["probe.arith.crt_solve.p997_s"] = _per_call(
        lambda: arith.crt_solve(congruences), 5
    )

    scan = searchctl.scan_multiplier_range
    lo, hi = _shard((A16 + A17) // 67, width)
    out["probe.searchctl.scan_multiplier_range.c67_s"] = _per_call(
        lambda: scan(67, A16, lo, hi), 5
    )
    lo, hi = _shard(STEP16_HIT_MULTIPLIER, width)
    started = time.perf_counter()
    scan(406507, 67, lo, hi)
    out["probe.searchctl.scan_multiplier_range.c406507_cold_s"] = (
        time.perf_counter() - started
    )
    out["probe.searchctl.scan_multiplier_range.c406507_s"] = _per_call(
        lambda: scan(406507, 67, lo, hi), 1
    )

    task = pfib.SearchTask(406507, 67, 2 * 10**9)  # one shard, exhausts
    nproc = os.cpu_count() or 1
    gaps = []
    for _ in range(5):
        serial = _per_call(lambda: pfib.run_search(task, workers=1), 1, 1)
        pooled = _per_call(lambda: pfib.run_search(task, workers=nproc), 1, 1)
        gaps.append(pooled - serial)
    out["probe.searchctl.run_search.pool_startup_s"] = statistics.median(gaps)

    checkpoint = pfib.run_search(task, workers=1).checkpoint
    path = os.path.join(work_dir, "probe.ckpt")
    out["probe.searchctl.save_checkpoint_s"] = _per_call(
        lambda: pfib.save_checkpoint(checkpoint, path), 1, 7
    )
    os.remove(path)
    return out
