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
A255562; no 16th term exists at or below two billion.  Every such step, single
or within a sequence, is one searchctl.run_search call.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import namedtuple
from enum import Enum

from .arith import (
    _TRIAL_CUTOFF,
    CrtSystem,
    _show,
    _trial_tables,
    _unstruck,
    crt_solve,
    ensure_odd_prime,
    is_prime,
    sieve_primes,
    smallest_odd_prime_divisor,
)
from . import searchctl
from .searchctl import SearchTask, _checked_replace, _is_int

__all__ = [
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

# extend_left_crt refuses p2 from here on.  p2 alone fixes the modulus, the
# product of the odd primes up to p2 (about 1.44*p2 bits), and with it the
# cost of each primality test in the scan (see the README for timings).
_CRT_P2_LIMIT = 1 << 11

# Progression indices sieved at once by extend_left_crt; one window holds
# the first prime for every p2 below 1000 with p1 = 3.
_DIRICHLET_WINDOW = 1 << 10

# Positive root of r**2 + r - 4 = 0, the growth rate a monotone reversed
# sequence is compared against.
GROWTH_ROOT = (math.sqrt(17) - 1) / 2


class Seed(namedtuple("Seed", "p1 p2")):
    """An ordered pair of odd primes; equal primes seed a constant sequence."""

    __slots__ = ()
    p1: int
    p2: int

    def __new__(cls, p1, p2):
        ensure_odd_prime(p1)
        ensure_odd_prime(p2)
        return tuple.__new__(cls, (p1, p2))

    _replace = _checked_replace


class ForwardStatus(str, Enum):
    TERMINATED = "terminated"
    CONSTANT = "constant"
    TRUNCATED = "truncated"


# the members in definition order, bound once for generate_forward
_TERMINATED, _CONSTANT, _TRUNCATED = ForwardStatus


class PfibSequence(
    namedtuple("PfibSequence", "terms status final_sum limit", defaults=(None, None))
):
    """Forward generation result: terms plus why generation stopped.

    final_sum is the power of two when TERMINATED, limit the cap when
    TRUNCATED; each is None otherwise.
    """

    __slots__ = ()
    terms: tuple[int, ...]
    status: ForwardStatus
    final_sum: int | None
    limit: int | None


class ReversedStatus(str, Enum):
    COMPLETE = "complete"
    BOUND_EXHAUSTED = "bound_exhausted"


class ReversedSequence(
    namedtuple("ReversedSequence", "terms status at_index bound", defaults=(None, None))
):
    """Reversed generation result.

    On BOUND_EXHAUSTED, at_index is the 0-based position the missing term
    would have occupied and bound the per-step ceiling that was searched.
    """

    __slots__ = ()
    terms: tuple[int, ...]
    status: ReversedStatus
    at_index: int | None
    bound: int | None


class PrimeAp(namedtuple("PrimeAp", "first difference length")):
    """Arithmetic progression of primes: first, first+difference, ..."""

    __slots__ = ()
    first: int
    difference: int
    length: int

    def __new__(cls, first, difference, length):
        for name, value in zip(cls._fields, (first, difference, length)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {_show(value)}")
        if length < 1:
            raise ValueError(f"length must be >= 1, got {_show(length)}")
        if difference < 1:
            raise ValueError(f"difference must be >= 1, got {_show(difference)}")
        for j in range(length):
            value = first + j * difference
            if not is_prime(value):
                raise ValueError(f"term {_show(value)} of the progression is not prime")
        return tuple.__new__(cls, (first, difference, length))

    _replace = _checked_replace

    def term(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(
                f"index {_show(j)} outside progression of length {self.length}"
            )
        return self.first + j * self.difference


def generate_forward(seed: Seed, max_terms: int, *, on_term=None) -> PfibSequence:
    """Run the forward recurrence until it terminates, goes constant, or hits
    max_terms.  A sum that is a power of two terminates the run even when
    the cap is reached with it.

    Each sum's odd part u is computed once: u == 1 is the power-of-two test,
    and below 2**16 the next term is read straight off arith's least-factor
    table (0 marks a prime u), so only a larger u calls
    smallest_odd_prime_divisor.  on_term, when given, is called with
    (index, value) for both seed terms and every term as it becomes known,
    so a caller keeps the terms found before a refused sum (past 2**64 a
    sum can raise FactorBudgetError).
    """
    if max_terms < 2:
        raise ValueError(f"max_terms must be at least 2, got {_show(max_terms)}")
    a, b = seed
    terms = [a, b]
    if on_term is not None:
        on_term(0, a)
        on_term(1, b)
    least = _trial_tables()[0]
    # the record is made by tuple.__new__ and the statuses are module
    # constants: PfibSequence's generated __new__ and an enum member lookup
    # each cost ~0.1 us on Python 3.11, as much as a step of this loop
    while a != b:
        total = a + b
        u = total >> ((total & -total).bit_length() - 1)
        if u == 1:
            return tuple.__new__(PfibSequence, (tuple(terms), _TERMINATED, total, None))
        if len(terms) >= max_terms:
            return tuple.__new__(
                PfibSequence, (tuple(terms), _TRUNCATED, None, max_terms)
            )
        a = b
        # module-global lookup, so a wrapper bound in its place sees the call
        b = (least[u] or u) if u < _TRIAL_CUTOFF else smallest_odd_prime_divisor(u)
        if on_term is not None:
            on_term(len(terms), b)
        terms.append(b)
    return tuple.__new__(PfibSequence, (tuple(terms), _CONSTANT, None, None))


def extend_left_crt(p1: int, p2: int) -> tuple[int, CrtSystem]:
    """Left-extend (p1, p2) by the congruence construction.

    Builds x = t_q - p1 (mod q) for every odd prime q < p2 and
    x = -p1 (mod p2), where the target sum residue t_q is 1 except when
    p1 = 1 (mod q), where it shifts to 2.  As t_q != p1 (mod q) and p1 != 0
    (mod p2), a is coprime to the modulus Q and Dirichlet applies.  A prime
    p0 = a (mod Q) extends the pair: p0 + p1 = t_q != 0 modulo each odd
    q < p2, and p2 divides it.  The progression a, a+Q, a+2Q, ... is scanned
    for its first odd prime (2 can appear once and is skipped).  A p2 at or
    above 2**11 is refused before any work, its primality test included.

    Every term is coprime to the primes up to p2, so before any primality
    test the index k is sieved in fixed-width windows by arith._unstruck:
    a prime p, 2 or p2 < p < L, divides a + kQ exactly when k = -a/Q
    (mod p); Q is odd, so 2 strikes the even terms like any other.  L grows
    with the bit length of a, from 2**8 to 2**16 at 768 bits, so small
    terms do not pay for roots that save no tests.  A term at or below
    2**16 may itself be a sieving prime, so it is tested, never sieved.
    Each root is computed as the sieve reaches its prime, from a and Q
    reduced by it alone, and no per-prime list is kept.
    """
    ensure_odd_prime(p1)
    if isinstance(p2, int) and p2 >= _CRT_P2_LIMIT:
        raise ValueError(
            f"the CRT construction needs p2 below {_CRT_P2_LIMIT}, got {_show(p2)}"
        )
    ensure_odd_prime(p2)
    if p1 == p2:
        raise ValueError(f"left extension needs distinct primes, got {_show(p1)} twice")
    congruences = []
    for q in sieve_primes(p2 - 1)[1:]:
        target = 1 if p1 % q != 1 else 2
        congruences.append(((target - p1) % q, q))
    congruences.append((-p1 % p2, p2))
    system = crt_solve(congruences)
    a, modulus = system.solution, system.combined_modulus
    for value in _progression_candidates(a, modulus, p2):
        if value >= 3 and is_prime(value):
            return value, system


def _dirichlet_sieve_limit(a: int) -> int:
    # A root costs the same at any term size and a primality test more as the
    # terms grow, so the sieve reaches further for larger terms: to 2**9 for
    # ~100-bit terms, up to 2**16 from 768 bits on.
    return (1 << min(16, 8 + a.bit_length() // 96)) - 1


def _progression_candidates(a: int, modulus: int, p2: int):
    # The terms a + k*modulus in order, without end, less those above 2**16
    # with a prime factor p that is 2 or p2 < p < L (see extend_left_crt).
    k = 0
    while a + k * modulus <= _TRIAL_CUTOFF:
        yield a + k * modulus
        k += 1
    primes = sieve_primes(_dirichlet_sieve_limit(a))
    primes = [2, *primes[bisect_right(primes, p2) :]]
    while True:
        roots = ((-(a % p) * pow(modulus % p, -1, p) - k) % p for p in primes)
        for i in _unstruck(k, _DIRICHLET_WINDOW, primes, roots):
            yield a + i * modulus
        k += _DIRICHLET_WINDOW


def extend_left_minimal(p1: int, p2: int, bound: int) -> int | None:
    """Least odd prime r <= bound with p2 = smallest odd prime divisor of
    p1 + r, or None when the bound is exhausted.

    Runs searchctl's sharded multiplier scan in-process (see
    scan_multiplier_range for why enumerating multipliers is exact); the
    inputs are checked by SearchTask, which refuses a non-prime and a bound
    that is not a positive integer.  With p1 == p2 this returns p1, the
    constant extension.
    """
    return searchctl.run_search(SearchTask(p2, p1, bound)).prime


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
    for any worker count, a step starts a process pool only once it has run
    for 0.1 s, and checkpoint_path makes the run resumable.  A file found at
    checkpoint_path is parsed once, before the first step, and refused with
    CheckpointError if it holds another bound; the step whose task it holds
    resumes from it, the steps before that one run without a file, and a
    file for no step of this run is left alone, so the run saves none.  Each
    step saves and removes the file by run_search's rule.  on_term, when
    given, is called with (index, value) for every term as it becomes known.

    Each term is tested once: Seed proved the two seed terms and each step's
    search proved the term it found, so a step's SearchTask is built from
    them without testing either again; only the bound is checked, here.
    """
    if num_terms < 2:
        raise ValueError(f"num_terms must be at least 2, got {_show(num_terms)}")
    if not _is_int(per_step_bound) or per_step_bound < 1:
        raise ValueError(
            f"per_step_bound must be an integer >= 1, got {_show(per_step_bound)}"
        )
    terms = [seed.p1, seed.p2]
    if on_term is not None:
        on_term(0, terms[0])
        on_term(1, terms[1])
    # the file's state until its step runs; read once the seed terms have
    # been streamed, so a refused file errors after them, as a step would
    stored = None
    if num_terms > 2 and checkpoint_path is not None:
        if os.path.exists(checkpoint_path):
            stored = searchctl.load_checkpoint(checkpoint_path)
            if stored.task.bound != per_step_bound:
                raise searchctl.CheckpointError(
                    f"{checkpoint_path}: checkpoint bound {_show(stored.task.bound)}"
                    f" is not the run's bound {_show(per_step_bound)}"
                )
    while len(terms) < num_terms:
        task = SearchTask._make((terms[-2], terms[-1], per_step_bound))
        resume, step_path = None, checkpoint_path
        if stored is not None and stored.task == task:
            resume, stored = stored, None
        elif stored is not None:
            step_path = None  # the file belongs to another step; leave it be
        nxt = searchctl.run_search(
            task, resume_from=resume, workers=workers, checkpoint_path=step_path
        ).prime
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


def index_recurrence(k: int) -> list[int]:
    """The k progression indices b1=0, b2=2**(k-2), b[i+2]=(b[i]+b[i+1])/2.

    Every average is an integer: b_i is a multiple of 2**(k-i), so b_i and
    b[i+1] are both multiples of 2**(k-i-1) and their average of 2**(k-i-2).
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {_show(k)}")
    indices = [0, 1 << (k - 2)]
    while len(indices) < k:
        indices.append((indices[-2] + indices[-1]) // 2)
    return indices


def green_tao_sequence(k: int, ap: PrimeAp) -> PfibSequence:
    """A forward sequence of length >= k built from a prime AP of length
    2**(k-2) + 1.

    Seeding with the progression's endpoints forces term i to be the
    progression member at position b_i for the first k terms: each pairwise
    sum is twice the odd prime member at the average index, so that member
    is the next term (neighbouring indices differ, so none repeats).
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {_show(k)}")
    n = 1 << (k - 2)
    if ap.length != n + 1:
        raise ValueError(
            f"k={k} needs a progression of length {_show(n + 1)}, got {ap.length}"
        )
    cap = 2 * ap.term(ap.length - 1) + 4
    # PrimeAp proved every member prime
    return generate_forward(Seed._make((ap.term(0), ap.term(n))), cap)


def find_prime_ap(length: int, search_limit: int) -> PrimeAp | None:
    """Smallest (first, difference) prime AP of the given length with
    first <= search_limit and difference <= search_limit; None if none."""
    if length < 2:
        raise ValueError(f"length must be at least 2, got {_show(length)}")
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
            # most differences fail at the second term: test it before
            # building the generator for the rest
            if probe(first + difference) and all(
                probe(first + j * difference) for j in range(2, length)
            ):
                return PrimeAp._make((first, difference, length))
    return None


class TripleCheck(namedtuple("TripleCheck", "index premise ratio")):
    """One window a[i], a[i+1], a[i+2] of a reversed sequence.

    premise records whether a[i+1] + a[i+2] > 2*a[i]; when it holds the sum
    over a[i] is an even integer ratio >= 4 (a[i] divides the sum and the sum
    is even, so a ratio above 2 is at least 4).  The index field shadows
    tuple.index.
    """

    __slots__ = ()
    index: int
    premise: bool
    ratio: int | None


class GrowthReport(
    namedtuple("GrowthReport", "triples longest_monotone_run log2_ratios alpha")
):
    __slots__ = ()
    triples: tuple[TripleCheck, ...]
    longest_monotone_run: int
    log2_ratios: tuple[float, ...]
    alpha: float


def growth_diagnostics(seq: ReversedSequence) -> GrowthReport:
    """Per-triple growth facts for a reversed sequence.

    Checks the even-ratio>=4 consequence on every triple where the premise
    holds (a violation means the input is not a genuine reversed sequence and
    raises), reports the longest run of consecutive premise-holding triples
    and the log2 of each ratio of neighbouring terms (a float ratio would
    overflow past 2**1024), and carries alpha, the positive root of
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
                    f"{_show(terms[i])} does not evenly quarter {_show(total)}"
                )
            run += 1
            longest = max(longest, run)
        else:
            run = 0
        triples.append(TripleCheck(i, premise, ratio))
    ratios = tuple(
        math.log2(terms[i + 1]) - math.log2(terms[i]) for i in range(len(terms) - 1)
    )
    return GrowthReport(tuple(triples), longest, ratios, GROWTH_ROOT)
