"""Bounded reversed-step search: sharded scan, process pool, checkpoints.

A reversed-step search asks for the least odd prime r, up to a bound, such
that `constraint_prime` is the smallest odd prime divisor of `partner + r`.
Every valid r has the form constraint*m - partner with m even and the odd
part of m free of prime factors below the constraint, so the scan enumerates
multipliers m instead of candidates r.  Shards are contiguous multiplier
ranges; they may run in parallel but are finalized strictly in multiplier
order, so a hit is only accepted once every lower shard has completed and the
result is bit-identical for any worker count.  Every minimal left extension
in the package runs through `run_search`; a search that settles in its first
shard never starts a process pool.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial

from .arith import ensure_odd_prime, is_prime, sieve_primes, smallest_odd_prime_divisor

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "DEFAULT_SHARD_WIDTH",
    "SearchResult",
    "SearchTask",
    "load_checkpoint",
    "multiplier_limit",
    "run_search",
    "save_checkpoint",
    "scan_multiplier_range",
]

DEFAULT_SHARD_WIDTH = 1 << 16
CHECKPOINT_FORMAT_VERSION = 2
# Seconds between checkpoint writes while waiting on the process pool.
_CHECKPOINT_INTERVAL = 30.0


class CheckpointError(Exception):
    """Raised for unreadable, inconsistent, or mismatched checkpoints."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _show(value) -> str:
    """repr for an error message; an integer past the int-string limit by size."""
    try:
        return repr(value)
    except ValueError:
        return f"an {value.bit_length()}-bit integer"


@dataclass(frozen=True)
class SearchTask:
    """Immutable description of one reversed-step search: what is searched.

    `constraint_prime` is the prime whose minimality must hold (the divisor),
    `partner` the known neighbour term, `bound` the inclusive candidate
    ceiling.  Equal primes describe a constant extension; a bound below the
    constraint-partner gap leaves no multiplier, so its search exhausts at once.
    """

    constraint_prime: int
    partner: int
    bound: int

    def __post_init__(self):
        ensure_odd_prime(self.constraint_prime)
        ensure_odd_prime(self.partner)
        if not _is_int(self.bound) or self.bound < 1:
            raise ValueError(f"bound must be an integer >= 1, got {_show(self.bound)}")


@dataclass(frozen=True)
class Checkpoint:
    """Resumable search state; its fields are also the checkpoint file format.

    next_multiplier is the smallest even multiplier not yet fully processed;
    everything below it has been exhaustively tested, and it lies at most one
    even step past the task's multiplier limit.  best_found, when set, is the
    search's answer (it arose from a multiplier below next_multiplier and all
    smaller multipliers are done, so it is the global minimum).  `validate`
    holds every rule on these values, for a checkpoint read from a file and
    one built in memory alike.
    """

    task: SearchTask
    next_multiplier: int
    best_found: int | None
    shards_done: int
    wall_seconds: float

    def validate(self) -> None:
        next_m, best, wall = self.next_multiplier, self.best_found, self.wall_seconds
        if not _is_int(next_m):
            raise CheckpointError(f"next_multiplier must be an integer, got {next_m!r}")
        if not _is_int(self.shards_done):
            raise CheckpointError(
                f"shards_done must be an integer, got {self.shards_done!r}"
            )
        if best is not None and not _is_int(best):
            raise CheckpointError(f"best_found must be an integer or null, got {best!r}")
        if not (_is_int(wall) or isinstance(wall, float)):
            raise CheckpointError(f"wall_seconds must be a number, got {wall!r}")
        task = self.task
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        if next_m < 2 or next_m % 2 != 0:
            raise CheckpointError(
                f"next_multiplier must be even and >= 2, got {_show(next_m)}"
            )
        if next_m > _even_ceil(limit + 1):
            raise CheckpointError(
                f"next_multiplier {_show(next_m)} past multiplier limit {_show(limit)}"
            )
        if self.shards_done < 0:
            raise CheckpointError(f"negative shards_done {_show(self.shards_done)}")
        # one range test refuses NaN, infinities, negatives and huge integers
        if not 0 <= wall <= sys.float_info.max:
            raise CheckpointError(f"non-finite or negative wall_seconds {_show(wall)}")
        if best is None:
            return
        if best < 3 or best % 2 == 0 or not is_prime(best):
            raise CheckpointError(f"best_found {_show(best)} is not an odd prime")
        total = task.partner + best
        m, rem = divmod(total, task.constraint_prime)
        if rem or m % 2 or m >= next_m:
            raise CheckpointError(
                f"best_found {_show(best)} inconsistent with next_multiplier "
                f"{_show(next_m)}"
            )
        if smallest_odd_prime_divisor(total) != task.constraint_prime:
            raise CheckpointError(
                f"best_found {_show(best)} fails the divisor property for "
                f"constraint {task.constraint_prime}"
            )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of run_search, read from its final checkpoint: a prime,
    exhaustion (every multiplier up to the task's limit done), or suspension."""

    checkpoint: Checkpoint

    @property
    def prime(self) -> int | None:
        return self.checkpoint.best_found

    @property
    def completed(self) -> bool:
        checkpoint, task = self.checkpoint, self.checkpoint.task
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        return checkpoint.best_found is not None or checkpoint.next_multiplier > limit

    @property
    def exhausted(self) -> bool:
        return self.completed and self.prime is None


def multiplier_limit(constraint: int, partner: int, bound: int) -> int:
    """Largest multiplier m with constraint*m - partner <= bound."""
    return (bound + partner) // constraint


@lru_cache(maxsize=64)
def _odd_sieve_primes(limit: int) -> tuple[int, ...]:
    if limit < 3:
        return ()
    return tuple(p for p in sieve_primes(limit) if p != 2)


def scan_multiplier_range(
    constraint: int, partner: int, m_lo: int, m_hi: int
) -> int | None:
    """Least valid candidate with even multiplier in [m_lo, m_hi), or None.

    Candidates are r = constraint*m - partner.  Only even m can make r odd,
    and r is valid iff r >= 3 is prime and no odd prime below the constraint
    divides m (any such prime would divide partner + r and beat the
    constraint as smallest odd prime divisor; conversely every valid r yields
    such an m, so the enumeration is exact and ascending in r).
    """
    if m_hi <= m_lo:
        return None
    j_lo = (m_lo + 1) // 2  # m = 2j
    j_hi = (m_hi + 1) // 2
    # candidates below 3 can never be odd primes; skip their multipliers
    min_m = (3 + partner + constraint - 1) // constraint
    j_lo = max(j_lo, (min_m + 1) // 2, 1)
    if j_lo >= j_hi:
        return None
    # odd primes dividing m are exactly those dividing j
    primes = _odd_sieve_primes(min(constraint - 1, j_hi - 1))
    width = j_hi - j_lo
    flags = bytearray(b"\x01") * width
    for q in primes:
        start = ((j_lo + q - 1) // q) * q
        i0 = start - j_lo
        if i0 < width:
            flags[i0::q] = b"\x00" * ((width - i0 + q - 1) // q)
    two_c = 2 * constraint
    find = flags.find
    pos = find(1)
    while pos != -1:
        r = two_c * (j_lo + pos) - partner
        if r >= 3 and is_prime(r):
            return r
        pos = find(1, pos + 1)
    return None


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Atomically write a checkpoint (temp file + rename, same directory)."""
    checkpoint.validate()
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, **asdict(checkpoint)}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        json.dump(doc, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _field_names(cls) -> set[str]:
    return {field.name for field in fields(cls)}


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint; refuse anything malformed."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # ValueError covers JSONDecodeError, non-ASCII bytes and integers
        # longer than the interpreter's int-string limit
        doc = json.loads(data.decode("ascii"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: not valid checkpoint JSON ({exc})") from exc
    doc_fields = _field_names(Checkpoint) | {"format_version"}
    if not isinstance(doc, dict) or set(doc) != doc_fields:
        raise CheckpointError(f"{path}: unexpected document fields")
    version = doc.pop("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format_version {version!r}")
    raw_task = doc.pop("task")
    if not isinstance(raw_task, dict) or set(raw_task) != _field_names(SearchTask):
        raise CheckpointError(f"{path}: unexpected task fields")
    try:
        checkpoint = Checkpoint(task=SearchTask(**raw_task), **doc)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid task ({exc})") from exc
    try:
        checkpoint.validate()
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return checkpoint


def _even_ceil(m: int) -> int:
    return m if m % 2 == 0 else m + 1


def run_search(
    task: SearchTask,
    resume_from: Checkpoint | None = None,
    workers: int = 1,
    *,
    checkpoint_path: str | None = None,
    max_shards: int | None = None,
) -> SearchResult:
    """Run one bounded reversed-step search to a result or suspension.

    Shards are finalized in multiplier order, so the first hit is the least
    valid candidate and the outcome does not depend on `workers`.  Shards run
    in-process until the search outlives its first shard (a resumed
    checkpoint's shards count); after that, with `workers` > 1, the remaining
    shards go to a process pool of that size.  With a
    `checkpoint_path`, state is written after every finalized shard and on a
    30 s timer while waiting; `max_shards` suspends the run after that many shards
    (the deterministic stand-in for killing the process).  Resuming with a
    checkpoint for a different task raises CheckpointError.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    # a fresh search resumes from the state where nothing is done yet
    start = Checkpoint(task, 2, None, 0, 0.0) if resume_from is None else resume_from
    if start.task != task:
        raise CheckpointError("checkpoint was written for a different task")
    start.validate()
    if start.best_found is not None:
        return SearchResult(start)
    m_next, shards_done = start.next_multiplier, start.shards_done
    shards_before = shards_done

    m_end = multiplier_limit(task.constraint_prime, task.partner, task.bound) + 1
    started = time.monotonic()

    def snapshot(next_m: int, best: int | None) -> Checkpoint:
        return Checkpoint(
            task=task,
            next_multiplier=_even_ceil(next_m),
            best_found=best,
            shards_done=shards_done,
            wall_seconds=start.wall_seconds + (time.monotonic() - started),
        )

    def emit(checkpoint: Checkpoint) -> Checkpoint:
        if checkpoint_path is not None:
            save_checkpoint(checkpoint, checkpoint_path)
        return checkpoint

    scan = partial(scan_multiplier_range, task.constraint_prime, task.partner)

    def shard_results():
        # (hi, hit) per shard in multiplier order; a search that settles in
        # its first shard never pays for a pool's start-up
        lo = m_next
        while lo < m_end and (workers == 1 or shards_done == 0):
            hi = min(lo + DEFAULT_SHARD_WIDTH, m_end)
            yield hi, scan(lo, hi)
            lo = hi
        if lo >= m_end:
            return
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            pending: deque = deque()
            while lo < m_end or pending:
                while lo < m_end and len(pending) < workers + 2:
                    hi = min(lo + DEFAULT_SHARD_WIDTH, m_end)
                    pending.append((hi, pool.submit(scan, lo, hi)))
                    lo = hi
                hi, future = pending.popleft()
                while True:
                    try:
                        hit = future.result(timeout=_CHECKPOINT_INTERVAL)
                        break
                    except FutureTimeout:
                        emit(snapshot(m_next, None))
                yield hi, hit
        finally:
            pool.shutdown(cancel_futures=True)

    try:
        with closing(shard_results()) as results:
            for hi, hit in results:
                shards_done += 1
                if hit is not None:
                    m_hit = (hit + task.partner) // task.constraint_prime
                    return SearchResult(emit(snapshot(m_hit + 2, hit)))
                m_next = _even_ceil(hi)
                checkpoint = emit(snapshot(m_next, None))
                if max_shards is not None and shards_done - shards_before >= max_shards:
                    return SearchResult(checkpoint)
    except KeyboardInterrupt:
        emit(snapshot(m_next, None))
        raise
    return SearchResult(emit(snapshot(max(m_next, m_end), None)))
