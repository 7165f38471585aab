"""Integer arithmetic kernel: primality, sieves, factorization, CRT.

Everything runs on Python's native arbitrary-precision integers.  The one
place where the 64-bit boundary matters is `is_prime`: below 2**64 the answer
is deterministic (published Miller-Rabin witness sets), above it the test is
probabilistic with error below 2**-128.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "CrtSystem",
    "crt_solve",
    "ensure_odd_prime",
    "factorize",
    "is_power_of_two",
    "is_prime",
    "odd_part",
    "sieve_primes",
    "smallest_odd_prime_divisor",
]

# Primes below 64, used as a cheap screen before Miller-Rabin.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Deterministic Miller-Rabin witness sets with their validity thresholds
# (Jaeschke 1993; Sorenson & Webster 2015 for the last rows; same table as
# en.wikipedia.org/wiki/Miller-Rabin_primality_test#Testing_against_small_sets_of_bases).
# The final row covers every n < 2**64.
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

# Rounds of the randomized strong-pseudoprime test above 2**64.  Each round
# has error probability at most 1/4, so 64 rounds give error below 2**-128.
_RANDOM_ROUNDS = 64

# Trial division handles prime factors up to this cutoff; Brent's rho takes
# over beyond it.
_TRIAL_CUTOFF = 1 << 16

# Segmented sieve window (entries per segment).
_SIEVE_WINDOW = 1 << 20

# Default guard against accidentally asking for an absurd prime list.
DEFAULT_SIEVE_CEILING = 1 << 32

_tls = threading.local()


def _default_rng() -> random.Random:
    rng = getattr(_tls, "rng", None)
    if rng is None:
        rng = _tls.rng = random.Random()
    return rng


def _strong_probable_prime(n: int, base: int, d: int, s: int) -> bool:
    if base % n == 0:
        return True
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rng: random.Random | None = None) -> bool:
    """Primality test: deterministic below 2**64, probabilistic above.

    For n >= 2**64 the test runs 64 rounds of Miller-Rabin with bases drawn
    from `rng` (a thread-local generator by default); a composite slips
    through with probability below 2**-128.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 4489:  # 67**2; no composite below it survives the screen above
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for threshold, bases in _MR_TIERS:
        if n < threshold:
            return all(_strong_probable_prime(n, b, d, s) for b in bases)
    rng = rng or _default_rng()
    return all(
        _strong_probable_prime(n, rng.randrange(2, n - 1), d, s)
        for _ in range(_RANDOM_ROUNDS)
    )


def ensure_odd_prime(n: int) -> int:
    """Return n if it is an odd prime, else raise ValueError naming it."""
    if not isinstance(n, int) or n < 3 or not is_prime(n):
        raise ValueError(f"{n} is not an odd prime")
    return n


def is_power_of_two(n: int) -> bool:
    """True when n = 2**k for some k >= 0.  Rejects n < 1."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n & (n - 1) == 0


def odd_part(n: int) -> int:
    """n with all factors of two removed."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n >> ((n & -n).bit_length() - 1)


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(sieve_primes(_TRIAL_CUTOFF))


def smallest_odd_prime_divisor(n: int) -> int | None:
    """Least odd prime dividing n, or None when n is a power of two.

    Trial division by primes up to 2**16 covers everything the sequence
    generators produce; a leftover cofactor beyond 2**32 falls back on
    `factorize` so the function stays total.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    u = odd_part(n)
    if u == 1:
        return None
    root = math.isqrt(u)
    for p in _trial_primes():  # 2 never divides the odd u
        if p > root:
            return u  # no divisor <= sqrt(u): u is prime
        if u % p == 0:
            return p
    if is_prime(u):
        return u
    return min(factorize(u))


def sieve_primes(limit: int, *, ceiling: int = DEFAULT_SIEVE_CEILING) -> list[int]:
    """All primes <= limit, via a sieve segmented into 2**20-entry windows."""
    if limit >= ceiling:
        raise ValueError(f"sieve limit {limit} exceeds ceiling {ceiling}")
    if limit < 2:
        return []
    if limit < _SIEVE_WINDOW:
        return _simple_sieve(limit)
    root = math.isqrt(limit)
    primes = _simple_sieve(root)
    base = [p for p in primes]
    for lo in range(root + 1, limit + 1, _SIEVE_WINDOW):
        hi = min(lo + _SIEVE_WINDOW - 1, limit)
        width = hi - lo + 1
        flags = bytearray(b"\x01") * width
        for p in base:
            start = ((lo + p - 1) // p) * p
            i0 = start - lo
            if i0 < width:
                flags[i0::p] = b"\x00" * ((width - i0 + p - 1) // p)
        find = flags.find
        pos = find(1)
        while pos != -1:
            primes.append(lo + pos)
            pos = find(1, pos + 1)
    return primes


def _simple_sieve(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
    return [i for i in range(limit + 1) if flags[i]]


@dataclass(frozen=True)
class CrtSystem:
    """A solved simultaneous-congruence system.

    `congruences` holds canonical (residue, modulus) pairs in input order;
    `solution` is the unique representative in [0, combined_modulus).
    """

    congruences: tuple[tuple[int, int], ...]
    combined_modulus: int
    solution: int


def crt_solve(congruences) -> CrtSystem:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli m_i >= 2."""
    pairs = []
    for residue, modulus in congruences:
        if modulus < 2:
            raise ValueError(f"modulus {modulus} must be at least 2")
        pairs.append((residue % modulus, modulus))
    if not pairs:
        raise ValueError("at least one congruence is required")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            g = math.gcd(pairs[i][1], pairs[j][1])
            if g != 1:
                raise ValueError(
                    f"moduli {pairs[i][1]} and {pairs[j][1]} are not coprime (gcd {g})"
                )
    x, modulus = 0, 1
    for residue, m in pairs:
        t = (residue - x) * pow(modulus, -1, m) % m
        x += modulus * t
        modulus *= m
    return CrtSystem(tuple(pairs), modulus, x % modulus)


def factorize(n: int, rng: random.Random | None = None) -> list[int]:
    """Prime factorization of n >= 1 as a sorted list with multiplicity.

    Trial division below 2**16, then Brent's cycle-finding rho on whatever
    cofactor survives.  Output order is deterministic regardless of the rho
    randomness.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors: list[int] = []
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors.append(p)
            n //= p
    if n == 1:
        return sorted(factors)
    if n < (_TRIAL_CUTOFF + 1) ** 2:
        # no factor below 2**16 and n <= ~2**32: n is prime
        factors.append(n)
        return sorted(factors)
    rng = rng or _default_rng()
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m, rng):
            factors.append(m)
            continue
        d = _brent_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors)


def _brent_rho(n: int, rng: random.Random) -> int:
    # n is odd, composite, and has no factor below 2**16
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
