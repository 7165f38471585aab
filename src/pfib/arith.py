"""Integer arithmetic kernel: primality, least prime factors, sieves, CRT.

Everything runs on Python's native arbitrary-precision integers, and every
result is deterministic.  `is_prime` is the Baillie-PSW test (a strong base-2
test plus a strong Lucas test): exact below 2**64, and no composite is known
to pass it above.

Below 2**16 both it and `smallest_odd_prime_divisor` read one lazily built
64 KB table, whose entry n is 0 for a prime and else n's least prime factor
(0 and 1 count as non-prime): that factor is below sqrt(2**16) = 2**8, so a
byte holds it.  The trial-division primes are read off the same table, and
so is `sieve_primes` below 2**16.  `seqcore.generate_forward` reads the
table directly for every odd part below 2**16 and calls
`smallest_odd_prime_divisor` only above it.

Above the table, `smallest_odd_prime_divisor` screens by the primes below
2**8 and then, below 2**64 where `is_prime` is exact, settles a prime
before any further trial division; the rest of the primes below 2**16 and
then Brent's rho find the least factor of a composite.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "CrtSystem",
    "FactorBudgetError",
    "crt_solve",
    "ensure_odd_prime",
    "is_prime",
    "odd_part",
    "sieve_primes",
    "smallest_odd_prime_divisor",
]

# Primes below 64, used as a cheap screen before the Baillie-PSW test.  A
# literal, not _trial_tables()[1][:18]: that would add a cached call and a
# slice to every test above 2**16.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Trial division handles prime factors up to this cutoff; Brent's rho takes
# over beyond it.
_TRIAL_CUTOFF = 1 << 16

# _trial_tables()[1][:_SCREEN_END] are the primes below 2**8, the screen
# smallest_odd_prime_divisor divides by before it tests primality.
_SCREEN_END = 54

# is_prime is exact below this bound: every base-2 strong pseudoprime below
# 2**64 has been checked against the Lucas test.
_BPSW_EXACT = 1 << 64

# Segmented sieve window (entries per segment).
_SIEVE_WINDOW = 1 << 20

# Guard against accidentally asking for an absurd prime list.
_SIEVE_CEILING = 1 << 32

# Walk steps Brent's rho may take in one `smallest_odd_prime_divisor` call
# (~0.3 s on a 160-bit number): enough for a least factor up to ~2**34, far
# short of the ~2**40 steps an 80-bit one needs.
_RHO_BUDGET = 1 << 19


class FactorBudgetError(ValueError):
    """Brent's rho spent its step budget without splitting a cofactor."""


def is_prime(n: int) -> bool:
    """Baillie-PSW test: a strong probable-prime test to base 2, then a strong
    Lucas test with Selfridge's parameters (Baillie & Wagstaff 1980; Pomerance,
    Selfridge & Wagstaff 1980).  Exact below 2**64, where every base-2 strong
    pseudoprime has been checked; no composite is known to pass it above.
    Below 2**16 the least-factor table answers instead.
    """
    if n < _TRIAL_CUTOFF:
        return n >= 2 and not _trial_tables()[0][n]
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    return _strong_base_two(n) and _strong_lucas(n)


def _strong_base_two(n: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # n is odd with no prime factor below 67.  Selfridge's method A: the first
    # D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  A square
    # n has no such D, so it is refused before the search.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:  # gcd(D, n) > 1, and |D| stays far below n
        return False
    Q = (1 - D) // 4
    # n + 1 = d * 2**s with d odd; walk the bits of d for V_k, V_(k+1) and
    # Q**k from k = 1, by V_2k = V_k**2 - 2Q**k, V_(2k+1) = V_k V_(k+1) - Q**k
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    Q2 = 2 * Q
    v, w, qk = 1, (1 - Q2) % n, Q % n
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - qk) % n, (w * w - Q2 * qk) % n
            qk = qk * qk * Q % n
        else:
            v, w = (v * v - 2 * qk) % n, (v * w - qk) % n
            qk = qk * qk % n
    # D U_d = 2 V_(d+1) - V_d, and D is a unit mod n as (D/n) = -1, so
    # U_d = 0 (mod n) exactly when 2 V_(d+1) = V_d
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _show(value) -> str:
    """repr for an error message; an integer past the int-string limit by size."""
    try:
        return repr(value)
    except ValueError:
        return f"an {value.bit_length()}-bit integer"


def ensure_odd_prime(n: int) -> int:
    """Return n if it is an odd prime, else raise ValueError naming it."""
    if not isinstance(n, int) or n < 3 or not is_prime(n):
        raise ValueError(f"{_show(n)} is not an odd prime")
    return n


def odd_part(n: int) -> int:
    """n with all factors of two removed."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {_show(n)}")
    return n >> ((n & -n).bit_length() - 1)


@lru_cache(maxsize=1)
def _trial_tables() -> tuple[bytes, tuple[int, ...]]:
    # (least-factor table, primes below 2**16).  Striking the multiples of
    # each prime p from p*p on, for p = isqrt(2**16 - 1) = 255 down to 2,
    # leaves the least factor last.  The composites up to 255 are marked
    # first, by the primes up to 15, so that only primes strike: a larger
    # prime's strike starts past 255 and leaves those marks alone.
    table = bytearray(_TRIAL_CUTOFF)
    table[0] = table[1] = 1
    root = math.isqrt(_TRIAL_CUTOFF - 1)
    for p in range(2, math.isqrt(root) + 1):
        if not table[p]:
            table[p * p : root + 1 : p] = b"\x01" * ((root - p * p) // p + 1)
    for p in range(root, 1, -1):
        if not table[p]:
            table[p * p :: p] = bytes((p,)) * ((_TRIAL_CUTOFF - 1 - p * p) // p + 1)
    # every prime above 3 is 1 or 5 mod 6: read the two residue classes off
    # the table and merge them, a third of the entries in all
    prime_flags = table.translate(b"\x01" + bytes(255))
    wheel = itertools.chain(
        itertools.compress(range(5, _TRIAL_CUTOFF, 6), prime_flags[5::6]),
        itertools.compress(range(7, _TRIAL_CUTOFF, 6), prime_flags[7::6]),
    )
    return bytes(table), (2, 3, *sorted(wheel))


def smallest_odd_prime_divisor(n: int) -> int | None:
    """Least odd prime dividing n, or None when n is a power of two.

    An odd part u below 2**16 is read off the least-factor table: 0 marks a
    prime u, else the entry is u's least prime factor, <= sqrt(u) < 2**8
    and so one byte.  Above it, u is screened by the primes below 2**8.
    Below 2**64, where `is_prime` is exact, a prime u is then returned
    without further trial division; above 2**64, where the test is not
    proven, trial division by the rest of the primes below 2**16 comes
    first.  A u with no factor below 2**16, so beyond 2**32, falls back on
    Brent's rho.  So past 2**64 it is not total: an odd part whose least
    factor is out of rho's step budget (two ~80-bit primes, say) raises
    FactorBudgetError.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {_show(n)}")
    u = n >> ((n & -n).bit_length() - 1)
    if u == 1:
        return None
    least, primes = _trial_tables()
    if u < _TRIAL_CUTOFF:
        return least[u] or u
    for p in primes[1:_SCREEN_END]:  # 2 never divides the odd u
        if u % p == 0:
            return p
    if u < _BPSW_EXACT and is_prime(u):
        return u
    # a composite u < 2**32 has a factor below 2**16, so the division ends
    # before the primes run out, and a prime u >= 2**64 reaches the rho
    # step, whose first primality test returns it
    for p in itertools.islice(primes, _SCREEN_END, None):
        if u % p == 0:
            return p
    return min(_rho_factors(u))


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit.  Below 2**16 they are read off the least-factor
    table; above it, 2**20-entry windows from 2**16 on are sieved by the
    table's primes up to sqrt(limit), which is below 2**16 under the ceiling.
    """
    if limit >= _SIEVE_CEILING:
        raise ValueError(
            f"sieve limit {_show(limit)} exceeds ceiling {_SIEVE_CEILING}"
        )
    if limit < 2:
        return []
    table_primes = _trial_tables()[1]
    primes = list(table_primes[: bisect_right(table_primes, limit)])
    base = table_primes[: bisect_right(table_primes, math.isqrt(limit))]
    for lo in range(_TRIAL_CUTOFF, limit + 1, _SIEVE_WINDOW):
        # base primes are below 2**16 <= lo, so every n struck is composite
        width = min(_SIEVE_WINDOW, limit + 1 - lo)
        primes.extend(_unstruck(lo, width, base, map((-lo).__mod__, base)))
    return primes


def _unstruck(lo: int, width: int, primes, starts):
    """Yield, in order, the indices in [lo, lo + width) that no prime strikes:
    each p in `primes` strikes lo + s, lo + s + p, ... for its s in `starts`,
    which the caller chooses.  A struck index must stand for a composite, so
    no sieving prime may equal a term in the window."""
    flags = bytearray(b"\x01") * width
    for p, i0 in zip(primes, starts):
        if i0 < width:
            flags[i0::p] = b"\x00" * ((width - i0 + p - 1) // p)
    find = flags.find
    pos = find(1)
    while pos != -1:
        yield lo + pos
        pos = find(1, pos + 1)


class CrtSystem(namedtuple("CrtSystem", "congruences combined_modulus solution")):
    """A solved simultaneous-congruence system.

    `congruences` holds canonical (residue, modulus) pairs in input order;
    `solution` is the unique representative in [0, combined_modulus).
    """

    __slots__ = ()
    congruences: tuple[tuple[int, int], ...]
    combined_modulus: int
    solution: int


def crt_solve(congruences) -> CrtSystem:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli m_i >= 2."""
    pairs = []
    for residue, modulus in congruences:
        if modulus < 2:
            raise ValueError(f"modulus {_show(modulus)} must be at least 2")
        pairs.append((residue % modulus, modulus))
    if not pairs:
        raise ValueError("at least one congruence is required")
    x, modulus = 0, 1
    for i, (residue, m) in enumerate(pairs):
        if math.gcd(modulus, m) != 1:
            # m shares a factor with the product so far, so with an earlier
            # modulus: name the first such one
            for _, earlier in pairs[:i]:
                g = math.gcd(earlier, m)
                if g != 1:
                    raise ValueError(
                        f"moduli {_show(earlier)} and {_show(m)} are not coprime "
                        f"(gcd {_show(g)})"
                    )
        t = (residue - x) * pow(modulus, -1, m) % m
        x += modulus * t
        modulus *= m
    return CrtSystem(tuple(pairs), modulus, x % modulus)


def _rho_factors(n: int) -> list[int]:
    # The prime factors of n > 1, which has no factor below 2**16, in no
    # order: each piece is tested for primality, and Brent's rho splits a
    # composite one, within _RHO_BUDGET walk steps over the whole call.
    factors = []
    stack = [n]
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors.append(m)
            continue
        d, budget = _brent_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return factors


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    # n is odd, composite, and has no factor below 2**16.  The walk y -> y*y + c
    # starts at 2; when it closes on n itself, the next c gets a turn.  Returns
    # (a proper factor of n, the budget left), and raises once the next round
    # of 2r walk steps would overrun `budget`.
    for c in itertools.count(1):
        y = 2
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise FactorBudgetError(
                    f"no factor of a {n.bit_length()}-bit integer found "
                    f"within {_RHO_BUDGET} rho steps"
                )
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
            return g, budget
