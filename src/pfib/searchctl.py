"""Bounded reversed-step search: sharded scan, process pool, checkpoints.

A reversed-step search asks for the least odd prime r, up to a bound, such
that `constraint_prime` is the smallest odd prime divisor of `partner + r`.
Every valid r has the form constraint*m - partner with m even and the odd
part of m free of prime factors below the constraint, so the scan enumerates
multipliers m instead of candidates r, from the least one giving r >= 3.
Below twice the constraint that odd part is smaller than the constraint,
so only powers of two can be valid; above it, a sieve to sqrt(m/2) leaves
odd parts that are 1 or prime, and a prime one is valid iff it is at least
the constraint.  That sieve runs in windows that double from where its
region starts, 2**9 j and up: the hits found so far lie within 59 j of that
start, so a shard stops sieving soon after its first hit instead of sieving
all its 2**15 j first, while a shard far from the start is one window.
Shards are contiguous multiplier ranges that share O(log) cached lists of
sieving primes; they may run in parallel but are finalized strictly in
multiplier order, so a hit is only accepted once every lower shard has
completed and the result is bit-identical for any worker count.  Every
minimal left extension in the package runs through `run_search`, one loop
that finalizes a shard per pass: it scans the shard in-process for the
search's first 0.1 s (a resumed checkpoint's time counts), and after that
takes it from a process pool, so a short search never pays for one.
A checkpoint records progress only, never an answer; run_search states when
a search saves it and when a finished search removes it.
"""

from __future__ import annotations

import errno
import json
import os
import sys
import time
from collections import deque, namedtuple
from contextlib import suppress
from functools import lru_cache
from math import isqrt

from .arith import (
    _SIEVE_CEILING,
    _show,
    _unstruck,
    ensure_odd_prime,
    is_prime,
    odd_part,
    sieve_primes,
)

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
CHECKPOINT_FORMAT_VERSION = 3
# Seconds from a search's start or last checkpoint write to its next progress
# write, made after the shard in flight: what a search killed outright loses.
_CHECKPOINT_INTERVAL = 30.0
# Seconds a search runs in-process before its shards go to a process pool.
# Starting and draining a pool costs about 9 ms, so a search that settles
# sooner never pays for one, and a long search is delayed by at most this.
_POOL_AFTER_S = 0.1
# Width in j of the first sieve window from where a step's sieved region
# starts; each window after it doubles (see scan_multiplier_range).
_FIRST_WINDOW = 1 << 9


class CheckpointError(Exception):
    """Raised for unreadable, inconsistent, or mismatched checkpoints."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_replace(self, **changes):
    # namedtuple's _replace builds through _make, past __new__: a checked
    # record's copy goes through its constructor, as a new record would
    return type(self)(**{**self._asdict(), **changes})


class SearchTask(namedtuple("SearchTask", "constraint_prime partner bound")):
    """Immutable description of one reversed-step search: what is searched.

    `constraint_prime` is the prime whose minimality must hold (the divisor),
    `partner` the known neighbour term, `bound` the inclusive candidate
    ceiling.  Equal primes describe a constant extension; a bound below the
    constraint-partner gap leaves no multiplier, so its search exhausts at once.
    """

    __slots__ = ()
    constraint_prime: int
    partner: int
    bound: int

    def __new__(cls, constraint_prime, partner, bound):
        ensure_odd_prime(constraint_prime)
        ensure_odd_prime(partner)
        if not _is_int(bound) or bound < 1:
            raise ValueError(f"bound must be an integer >= 1, got {_show(bound)}")
        return tuple.__new__(cls, (constraint_prime, partner, bound))

    _replace = _checked_replace


class Checkpoint(
    namedtuple("Checkpoint", "task next_multiplier shards_done wall_seconds")
):
    """Resumable search progress; its fields are also the checkpoint file format.

    next_multiplier is the smallest even multiplier not yet fully processed;
    everything below it has been exhaustively tested, and it lies at most one
    even step past the task's multiplier limit.  `validate` holds every rule
    on these values, for a checkpoint read from a file and one built in
    memory alike.
    """

    __slots__ = ()
    task: SearchTask
    next_multiplier: int
    shards_done: int
    wall_seconds: float

    def validate(self) -> None:
        next_m, wall = self.next_multiplier, self.wall_seconds
        if not _is_int(next_m):
            raise CheckpointError(f"next_multiplier must be an integer, got {next_m!r}")
        if not _is_int(self.shards_done):
            raise CheckpointError(
                f"shards_done must be an integer, got {self.shards_done!r}"
            )
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


class SearchResult(namedtuple("SearchResult", "checkpoint prime")):
    """Outcome of run_search: a prime, exhaustion (every multiplier up to the
    task's limit done), or suspension, with the search's final progress.

    At a hit the checkpoint's next_multiplier is the hit's own multiplier, so
    a resume from it finds the same prime in its first shard."""

    __slots__ = ()
    checkpoint: Checkpoint
    prime: int | None

    @property
    def completed(self) -> bool:
        checkpoint, task = self.checkpoint, self.checkpoint.task
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        return self.prime is not None or checkpoint.next_multiplier > limit

    @property
    def exhausted(self) -> bool:
        return self.completed and self.prime is None


def multiplier_limit(constraint: int, partner: int, bound: int) -> int:
    """Largest multiplier m with constraint*m - partner <= bound."""
    return (bound + partner) // constraint


def _least_multiplier(constraint: int, partner: int) -> int:
    # least m with constraint*m - partner >= 3, the least odd prime
    return (partner + 3 + constraint - 1) // constraint


@lru_cache(maxsize=64)
def _odd_sieve_primes(limit: int) -> tuple[int, ...]:
    return tuple(sieve_primes(limit)[1:])


def scan_multiplier_range(
    constraint: int, partner: int, m_lo: int, m_hi: int
) -> int | None:
    """Least valid candidate with even multiplier in [m_lo, m_hi), or None.

    Candidates are r = constraint*m - partner.  Only even m can make r odd,
    and r is valid iff r >= 3 is prime and no odd prime below the constraint
    divides m (any such prime would divide partner + r and beat the
    constraint as smallest odd prime divisor; conversely every valid r yields
    such an m, so the enumeration is exact and ascending in r).

    With m = 2j and u the odd part of j: below the constraint u is too, so
    only u = 1, a power of two j, can be valid.  From the constraint on, j
    is sieved by the odd primes up to min(constraint - 1, 2**k - 1) >=
    isqrt(j), and a composite u <= j has a prime factor <= isqrt(j); so a
    survivor's u is 1 or a prime, valid iff u == 1 or u >= constraint.

    The sieve runs in windows that double from where that region starts,
    j_s = max(constraint, least j): a window at lo is lo - j_s + w0 wide,
    with w0 = max(2**9, number of sieving primes), so the shard holding j_s
    sieves w0, 2*w0, 4*w0, ... j until its first hit, and a shard far past
    j_s is one window.  Hits cluster just past j_s (every sieved hit of
    A255562 through a19 lies within 59 j of it), so such a hit costs one
    window of w0 j instead of a whole shard, and a hit further out at most
    about twice the sieving up to it; as no window is narrower than its
    prime list, walking that list never outweighs the window itself.  A
    limit past the sieve's 2**32 ceiling is refused before anything is
    sieved, naming the constraint's size.
    """
    j_least = (_least_multiplier(constraint, partner) + 1) // 2
    j_lo = max((m_lo + 1) // 2, j_least)
    j_hi = (m_hi + 1) // 2  # m = 2j; j_lo keeps every r >= 3
    two_c = 2 * constraint
    j, j_end = 1 << (j_lo - 1).bit_length(), min(j_hi, constraint)
    while j < j_end:
        r = two_c * j - partner
        if is_prime(r):
            return r
        j <<= 1
    j_start = max(j_least, constraint)
    lo = max(j_lo, j_start)
    if lo >= j_hi:
        return None
    # rounding the limit up to 2**k - 1 lets the shards of a search share
    # O(log) cached prime lists, and keeps it below 2**32 until j nears 2**64
    limit = min(constraint - 1, (1 << isqrt(j_hi - 1).bit_length()) - 1)
    if limit >= _SIEVE_CEILING:
        raise ValueError(
            f"the constraint has {constraint.bit_length()} bits, and sieving here "
            f"needs the primes up to {_show(limit)}, past the sieve's ceiling of 2**32"
        )
    primes = _odd_sieve_primes(limit)
    first_width = max(_FIRST_WINDOW, len(primes))
    while lo < j_hi:
        width = min(j_hi - lo, lo - j_start + first_width)
        # the sieving primes are below the constraint <= j_start <= lo
        for j in _unstruck(lo, width, primes, map((-lo).__mod__, primes)):
            u = odd_part(j)
            if u == 1 or u >= constraint:
                r = two_c * j - partner
                if is_prime(r):
                    return r
        lo += width
    return None


def _document(checkpoint: Checkpoint) -> dict:
    # the JSON document of a checkpoint file
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, **checkpoint._asdict()}
    return {**doc, "task": checkpoint.task._asdict()}


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Atomically write a checkpoint (temp file + rename, same directory)."""
    checkpoint.validate()
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        json.dump(_document(checkpoint), handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: str):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # ValueError covers JSONDecodeError, non-ASCII bytes and integers
        # longer than the interpreter's int-string limit; RecursionError,
        # arrays or objects nested past the interpreter's recursion limit
        return json.loads(data.decode("ascii"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: not valid checkpoint JSON ({exc})") from exc


def _holds(path: str, doc: dict) -> bool:
    # whether the file at path parses to doc; an unreadable one does not
    with suppress(OSError, CheckpointError):
        return _read_json(path) == doc
    return False


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint; refuse anything malformed."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: unexpected document fields")
    # the version first, so an older format is refused by name, not by its fields
    version = doc.pop("format_version", None)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format_version {version!r}")
    if set(doc) != set(Checkpoint._fields):
        raise CheckpointError(f"{path}: unexpected document fields")
    raw_task = doc.pop("task")
    if not isinstance(raw_task, dict) or set(raw_task) != set(SearchTask._fields):
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


def _check_writable_directory(path: str) -> None:
    # a bad path fails before any scan, not at the first write 30 s later
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "no such checkpoint directory", path)
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, "checkpoint directory not writable", path)


def run_search(
    task: SearchTask,
    resume_from: Checkpoint | None = None,
    workers: int = 1,
    *,
    checkpoint_path: str | None = None,
    max_shards: int | None = None,
) -> SearchResult:
    """Run one bounded reversed-step search to a result or suspension.

    The search starts at its least multiplier (so does a checkpoint below
    it), and its shards share their sieving primes.  Shards are finalized in
    multiplier order, so the first hit is the least valid candidate and the
    outcome does not depend on `workers`.  Shards run in-process until the
    search has run for 0.1 s (a resumed checkpoint's `wall_seconds` count);
    after that, with `workers` > 1, the remaining shards go to a process pool
    of that size, with up to `workers` + 2 shards submitted at a time.
    `max_shards` suspends the run after that many shards, 0 before any (the
    deterministic stand-in for killing the process).

    With a `checkpoint_path`, whose directory must exist and be writable
    before any shard is scanned, state is saved by one rule: after a shard
    is finalized, the progress is saved if `_CHECKPOINT_INTERVAL` (30 s)
    has passed since the call started or since its last save.  So progress
    is saved only between shards, and a run killed outright loses at most
    those 30 s plus the shard in flight.  A `max_shards` suspension and a
    KeyboardInterrupt save at once; under a pool, the interrupted call then
    returns only once the shards already handed to it finish, up to
    `workers` + 2 (about two shard lengths with 2 workers): no public API
    of `ProcessPoolExecutor` stops a running worker on Python 3.10-3.13.
    A hit or an exhaustion saves nothing, and removes the file only if it
    parses to this search's own state, the last checkpoint this call saved
    or else `resume_from`; any other file, readable or not, is left alone.
    Resuming with a checkpoint for a different task raises CheckpointError.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {_show(workers)}")
    if max_shards is not None and max_shards < 0:
        raise ValueError(f"max_shards must be >= 0, got {_show(max_shards)}")
    if resume_from is None:
        # the state where nothing is done yet, which is valid for any task
        start = Checkpoint(task, 2, 0, 0.0)
    else:
        if resume_from.task != task:
            raise CheckpointError("checkpoint was written for a different task")
        resume_from.validate()
        start = resume_from
    if max_shards == 0:
        return SearchResult(start, None)
    own = None  # the state a completion removes: resumed from, then last saved
    if checkpoint_path is not None:
        _check_writable_directory(checkpoint_path)
        own = None if resume_from is None else _document(resume_from)
    c, partner = task.constraint_prime, task.partner
    m_next = max(start.next_multiplier, _even_ceil(_least_multiplier(c, partner)))
    m_end = multiplier_limit(c, partner, task.bound) + 1
    started = time.monotonic()
    due = started + _CHECKPOINT_INTERVAL  # when the next progress write is due
    shards = 0  # shards finalized by this call
    prime = pool = None

    def snapshot(next_m: int) -> Checkpoint:
        return Checkpoint(
            task=task,
            next_multiplier=_even_ceil(next_m),
            shards_done=start.shards_done + shards,
            wall_seconds=start.wall_seconds + (time.monotonic() - started),
        )

    def emit(checkpoint: Checkpoint) -> None:
        nonlocal own, due
        if checkpoint_path is not None:
            save_checkpoint(checkpoint, checkpoint_path)
            own = _document(checkpoint)
        due = time.monotonic() + _CHECKPOINT_INTERVAL

    try:
        while m_next < m_end and shards != max_shards:
            if (
                pool is None
                and workers > 1
                and start.wall_seconds + (time.monotonic() - started) >= _POOL_AFTER_S
            ):
                # imported here: every command-line run would pay for it at import
                from concurrent.futures import ProcessPoolExecutor

                pool, pending = ProcessPoolExecutor(max_workers=workers), deque()
            if pool is None:
                hi = min(m_next + DEFAULT_SHARD_WIDTH, m_end)
                hit = scan_multiplier_range(c, partner, m_next, hi)
            else:
                # (hi, future) per shard in multiplier order, from m_next on
                lo = pending[-1][0] if pending else m_next
                while lo < m_end and len(pending) < workers + 2:
                    hi = min(lo + DEFAULT_SHARD_WIDTH, m_end)
                    future = pool.submit(scan_multiplier_range, c, partner, lo, hi)
                    pending.append((hi, future))
                    lo = hi
                hi, future = pending.popleft()
                hit = future.result()
            shards += 1
            if hit is not None:
                m_next, prime = (hit + partner) // c, hit
                break
            m_next = _even_ceil(hi)
            if time.monotonic() >= due:
                emit(snapshot(m_next))
        result = SearchResult(snapshot(m_next), prime)
        if not result.completed:
            # stopping short always writes: the file is what a resume needs
            emit(result.checkpoint)
        elif own is not None and _holds(checkpoint_path, own):
            with suppress(FileNotFoundError):  # removed by hand meanwhile
                os.remove(checkpoint_path)
        return result
    except KeyboardInterrupt:
        emit(snapshot(m_next))
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
