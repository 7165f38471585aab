"""Prime Fibonacci sequence operations.

A prime Fibonacci sequence starts from two odd primes and extends by
a[i+2] = smallest odd prime divisor of a[i] + a[i+1], stopping when the sum
is a power of two.  It always stops or goes constant: the new term is at most
half the pairwise sum, so the windowed maximum strictly decreases every two
steps unless two equal terms appear, and equal neighbours only ever occur in
a constant sequence.

The reversed direction extends to the *left*: given the last two terms, find
the least odd prime r making the older term the smallest odd prime divisor of
the newer term plus r.  Seeding with 3, 5 and iterating reproduces OEIS
A255562; its 16th term, if any, exceeds two billion.  Every such step, single
or within a sequence, is one searchctl.run_search call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

from .arith import (
    CrtSystem,
    crt_solve,
    ensure_odd_prime,
    is_power_of_two,
    is_prime,
    sieve_primes,
    smallest_odd_prime_divisor,
)
from . import searchctl
from .searchctl import SearchTask

__all__ = [
    "BoundExhaustedError",
    "DegenerateSystemError",
    "DEFAULT_DIRICHLET_STEPS",
    "ForwardStatus",
    "GROWTH_ROOT",
    "GrowthReport",
    "PfibSequence",
    "PrimeAp",
    "ReversedSequence",
    "ReversedStatus",
    "Seed",
    "TripleCheck",
    "extend_left_crt",
    "extend_left_minimal",
    "find_prime_ap",
    "generate_forward",
    "generate_reversed",
    "green_tao_sequence",
    "growth_diagnostics",
    "index_recurrence",
]

# Default cap on the Dirichlet progression scan in extend_left_crt.
DEFAULT_DIRICHLET_STEPS = 10**6

# Positive root of r**2 + r - 4 = 0, the growth rate a monotone reversed
# sequence is compared against.
GROWTH_ROOT = (math.sqrt(17) - 1) / 2


class BoundExhaustedError(Exception):
    """A scan hit its step budget without finding the guaranteed prime."""


class DegenerateSystemError(Exception):
    """The congruence solution shares a factor with its modulus.

    The residues are chosen so this cannot happen; if it fires, the
    construction itself is buggy and the failure must surface loudly.
    """


@dataclass(frozen=True)
class Seed:
    """An ordered pair of odd primes; equal primes seed a constant sequence."""

    p1: int
    p2: int

    def __post_init__(self):
        ensure_odd_prime(self.p1)
        ensure_odd_prime(self.p2)


class ForwardStatus(str, Enum):
    TERMINATED = "terminated"
    CONSTANT = "constant"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class PfibSequence:
    """Forward generation result: terms plus why generation stopped."""

    terms: tuple[int, ...]
    status: ForwardStatus
    final_sum: int | None = None  # the power of two, when TERMINATED
    limit: int | None = None  # the cap, when TRUNCATED


class ReversedStatus(str, Enum):
    COMPLETE = "complete"
    BOUND_EXHAUSTED = "bound_exhausted"


@dataclass(frozen=True)
class ReversedSequence:
    """Reversed generation result.

    On BOUND_EXHAUSTED, at_index is the 0-based position the missing term
    would have occupied and bound the per-step ceiling that was searched.
    """

    terms: tuple[int, ...]
    status: ReversedStatus
    at_index: int | None = None
    bound: int | None = None


@dataclass(frozen=True)
class PrimeAp:
    """Arithmetic progression of primes: first, first+difference, ..."""

    first: int
    difference: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.difference < 1:
            raise ValueError(f"difference must be positive, got {self.difference}")
        for j in range(self.length):
            value = self.first + j * self.difference
            if not is_prime(value):
                raise ValueError(f"term {value} of the progression is not prime")

    def term(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(f"index {j} outside progression of length {self.length}")
        return self.first + j * self.difference


def generate_forward(seed: Seed, max_terms: int) -> PfibSequence:
    """Run the forward recurrence until it terminates, goes constant, or hits
    max_terms."""
    if max_terms < 2:
        raise ValueError(f"max_terms must be at least 2, got {max_terms}")
    terms = [seed.p1, seed.p2]
    while True:
        a, b = terms[-2], terms[-1]
        if a == b:
            return PfibSequence(tuple(terms), ForwardStatus.CONSTANT)
        total = a + b
        if is_power_of_two(total):
            return PfibSequence(tuple(terms), ForwardStatus.TERMINATED, final_sum=total)
        if len(terms) >= max_terms:
            return PfibSequence(tuple(terms), ForwardStatus.TRUNCATED, limit=max_terms)
        terms.append(smallest_odd_prime_divisor(total))


def extend_left_crt(
    p1: int, p2: int, max_steps: int = DEFAULT_DIRICHLET_STEPS
) -> tuple[int, CrtSystem]:
    """Left-extend (p1, p2) by the congruence construction.

    Builds x = t_q - p1 (mod q) for every odd prime q < p2 and
    x = -p1 (mod p2), where the target sum residue t_q is 1 except when
    p1 = 1 (mod q), where it shifts to 2: both choices keep q out of p0 + p1,
    and the shift keeps the solution coprime to the modulus so Dirichlet
    applies to the progression at all.  The progression a, a+Q, a+2Q, ... is
    then scanned for its first odd prime (the prime 2 can appear once and is
    skipped).
    """
    ensure_odd_prime(p1)
    ensure_odd_prime(p2)
    if p1 == p2:
        raise ValueError(f"left extension needs distinct primes, got {p1} twice")
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    congruences = []
    for q in sieve_primes(p2 - 1):
        if q == 2:
            continue
        target = 1 if p1 % q != 1 else 2
        congruences.append(((target - p1) % q, q))
    congruences.append((-p1 % p2, p2))
    system = crt_solve(congruences)
    a, modulus = system.solution, system.combined_modulus
    if math.gcd(a, modulus) != 1:
        raise DegenerateSystemError(
            f"solution {a} mod {modulus} shares a factor with the modulus"
        )
    value = a
    for _ in range(max_steps):
        if value >= 3 and value % 2 == 1 and is_prime(value):
            if smallest_odd_prime_divisor(value + p1) != p2:
                raise DegenerateSystemError(
                    f"{value} + {p1} has a smaller odd prime divisor than {p2}"
                )
            return value, system
        value += modulus
    raise BoundExhaustedError(
        f"no odd prime in the first {max_steps} terms of {a} + k*{modulus}"
    )


def extend_left_minimal(p1: int, p2: int, bound: int) -> int | None:
    """Least odd prime r <= bound with p2 = smallest odd prime divisor of
    p1 + r, or None when the bound is exhausted.

    Runs searchctl's sharded multiplier scan in-process (see
    scan_multiplier_range for why enumerating multipliers is exact); the
    inputs are checked by SearchTask, which refuses a non-prime and a bound
    that is not a positive integer.  With p1 == p2 this returns p1, the
    constant extension.
    """
    return _search_step(p2, p1, bound, workers=1, checkpoint_path=None)


def generate_reversed(
    seed: Seed,
    num_terms: int,
    per_step_bound: int,
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
    on_term=None,
) -> ReversedSequence:
    """Extend seed to num_terms by repeated minimal left extension.

    Every step runs through searchctl's sharded scan: the result is the same
    for any worker count, a step starts a process pool only once it outlives
    its first shard, and checkpoint_path makes the run resumable.  on_term,
    when given, is called with (index, value) for every term as it becomes
    known.
    """
    if num_terms < 2:
        raise ValueError(f"num_terms must be at least 2, got {num_terms}")
    if per_step_bound < 1:
        raise ValueError(f"per_step_bound must be positive, got {per_step_bound}")
    terms = [seed.p1, seed.p2]
    if on_term is not None:
        on_term(0, terms[0])
        on_term(1, terms[1])
    while len(terms) < num_terms:
        nxt = _search_step(
            terms[-2], terms[-1], per_step_bound, workers, checkpoint_path
        )
        if nxt is None:
            return ReversedSequence(
                tuple(terms),
                ReversedStatus.BOUND_EXHAUSTED,
                at_index=len(terms),
                bound=per_step_bound,
            )
        if on_term is not None:
            on_term(len(terms), nxt)
        terms.append(nxt)
    return ReversedSequence(tuple(terms), ReversedStatus.COMPLETE)


def _search_step(
    constraint: int,
    partner: int,
    bound: int,
    workers: int,
    checkpoint_path: str | None,
) -> int | None:
    task = SearchTask(constraint, partner, bound)
    resume = None
    step_path = checkpoint_path
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        stored = searchctl.load_checkpoint(checkpoint_path)
        if stored.task == task:
            resume = stored
        else:
            # checkpoint belongs to some other step of this run; leave it be
            step_path = None
    result = searchctl.run_search(
        task, resume_from=resume, workers=workers, checkpoint_path=step_path
    )
    if step_path is not None:
        try:
            os.remove(step_path)
        except FileNotFoundError:
            pass
    return result.prime


def index_recurrence(k: int) -> list[int]:
    """The k progression indices b1=0, b2=2**(k-2), b[i+2]=(b[i]+b[i+1])/2.

    Each average is checked to be an integer; for these starting values it
    stays integral through index k.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    indices = [0, 1 << (k - 2)]
    while len(indices) < k:
        total = indices[-2] + indices[-1]
        if total % 2:
            raise ArithmeticError(f"index recurrence left the integers at {total}")
        indices.append(total // 2)
    return indices


def green_tao_sequence(k: int, ap: PrimeAp) -> PfibSequence:
    """A forward sequence of length >= k built from a prime AP of length
    2**(k-2) + 1.

    Seeding with the progression's endpoints forces term i to be the
    progression member at position b_i for the first k terms: each pairwise
    sum is exactly twice another member, whose only odd prime divisor is that
    member.  Both facts are verified on the generated sequence.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    n = 1 << (k - 2)
    if ap.length != n + 1:
        raise ValueError(
            f"k={k} needs a progression of length {n + 1}, got {ap.length}"
        )
    indices = index_recurrence(k)
    cap = 2 * ap.term(ap.length - 1) + 4
    sequence = generate_forward(Seed(ap.term(0), ap.term(n)), cap)
    if len(sequence.terms) < k:
        raise ValueError(
            f"construction broke: sequence stopped after {len(sequence.terms)} terms"
        )
    for i in range(k):
        expected = ap.term(indices[i])
        if sequence.terms[i] != expected:
            raise ValueError(
                f"construction broke: term {i + 1} is {sequence.terms[i]}, "
                f"expected progression member {expected}"
            )
    return sequence


def find_prime_ap(length: int, search_limit: int) -> PrimeAp | None:
    """Smallest (first, difference) prime AP of the given length with
    first <= search_limit and difference <= search_limit; None if none."""
    if length < 2:
        raise ValueError(f"length must be at least 2, got {length}")
    if search_limit < 2:
        return None
    span = search_limit * length
    if span <= 10**7:
        table = set(sieve_primes(span))
        probe = table.__contains__
    else:
        probe = is_prime
    for first in sieve_primes(search_limit):
        for difference in range(1, search_limit + 1):
            if all(probe(first + j * difference) for j in range(1, length)):
                return PrimeAp(first, difference, length)
    return None


@dataclass(frozen=True)
class TripleCheck:
    """One window a[i], a[i+1], a[i+2] of a reversed sequence.

    premise records whether a[i+1] + a[i+2] > 2*a[i]; when it holds the sum
    over a[i] is an even integer ratio >= 4 (a[i] divides the sum and the sum
    is even, so a ratio above 2 is at least 4).
    """

    index: int
    premise: bool
    ratio: int | None


@dataclass(frozen=True)
class GrowthReport:
    triples: tuple[TripleCheck, ...]
    longest_monotone_run: int
    growth_ratios: tuple[float, ...]
    alpha: float


def growth_diagnostics(seq: ReversedSequence) -> GrowthReport:
    """Per-triple growth facts for a reversed sequence.

    Checks the even-ratio>=4 consequence on every triple where the premise
    holds (a violation means the input is not a genuine reversed sequence and
    raises), reports the longest run of consecutive premise-holding triples
    and the per-term ratios, and carries alpha, the positive root of
    r**2 + r - 4 = 0.  No asymptotic claim is made: the diagnostics only
    describe the terms they saw.
    """
    terms = seq.terms
    if len(terms) < 3:
        raise ValueError(f"need at least 3 terms, got {len(terms)}")
    triples = []
    run = longest = 0
    for i in range(len(terms) - 2):
        total = terms[i + 1] + terms[i + 2]
        premise = total > 2 * terms[i]
        ratio = None
        if premise:
            ratio, remainder = divmod(total, terms[i])
            if remainder or ratio % 2 or ratio < 4:
                raise ValueError(
                    f"triple at index {i} is not a reversed-sequence window: "
                    f"{terms[i]} does not evenly quarter {total}"
                )
            run += 1
            longest = max(longest, run)
        else:
            run = 0
        triples.append(TripleCheck(i, premise, ratio))
    ratios = tuple(terms[i + 1] / terms[i] for i in range(len(terms) - 1))
    return GrowthReport(tuple(triples), longest, ratios, GROWTH_ROOT)
