"""Slow reference implementations the tests check the package against.

Everything here favours obviousness over speed: plain trial division, full
list sieves, linear scans.  None of it shares code with the package.
"""

import argparse
import math


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_MR41_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR41_LIMIT = 3_317_044_064_679_887_385_961_981


def mr_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases, valid below
    3.3e24 (Sorenson & Webster 2015).  For values where trial division is
    hopeless; shares no code with the package."""
    assert n < _MR41_LIMIT, "outside the deterministic range of these bases"
    return mr_probable_prime(n)


def mr_probable_prime(n: int) -> bool:
    """The same Miller-Rabin test at any size: exact below 3.3e24, a strong
    probable-prime test to 13 bases above it, which is independent of the
    package's Baillie-PSW test."""
    if n < 2:
        return False
    for p in _MR41_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR41_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sopd_trial(n: int) -> int | None:
    """Smallest odd prime divisor by raw division; None for powers of two."""
    while n % 2 == 0:
        n //= 2
    if n == 1:
        return None
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def simple_primes(limit: int) -> list[int]:
    """Textbook full-array Sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    i = 2
    while i * i <= limit:
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
        i += 1
    return [i for i in range(limit + 1) if flags[i]]


def extend_left_minimal_naive(p1: int, p2: int, bound: int) -> int | None:
    """Least odd prime r <= bound with p2 the smallest odd prime divisor of
    p1 + r: walk a full prime list in order and test the property directly.
    Builds the whole list, so use moderate bounds."""
    for r in simple_primes(bound)[1:]:
        if sopd_trial(p1 + r) == p2:
            return r
    return None


def crt_scan(congruences) -> tuple[int, int]:
    """Brute-force simultaneous-congruence solution: try every residue class
    of the product modulus in order.  Returns (solution, modulus)."""
    modulus = 1
    for _, m in congruences:
        modulus *= m
    for x in range(modulus):
        if all(x % m == r % m for r, m in congruences):
            return x, modulus
    raise AssertionError("no solution in a full period; moduli not coprime?")


def first_progression_prime(a: int, modulus: int) -> tuple[int, int]:
    """(k, a + k*modulus) for the least k whose term is an odd prime: every
    term is tested in order, with no sieve."""
    k = 0
    while True:
        value = a + k * modulus
        if value % 2 == 1 and mr_probable_prime(value):
            return k, value
        k += 1


def reversed_step_scan(partner: int, constraint: int, bound: int) -> int | None:
    """Least odd prime r <= bound making `constraint` the smallest odd prime
    divisor of partner + r, by testing every odd number in order."""
    for r in range(3, bound + 1, 2):
        if trial_is_prime(r) and sopd_trial(partner + r) == constraint:
            return r
    return None


def forward_scan(p1: int, p2: int, max_terms: int = 10_000) -> list[int]:
    """Replay the forward recurrence with the oracle divisor function."""
    terms = [p1, p2]
    while len(terms) < max_terms:
        if terms[-2] == terms[-1]:
            break
        nxt = sopd_trial(terms[-2] + terms[-1])
        if nxt is None:
            break
        terms.append(nxt)
    return terms


def prime_ap_scan(length: int, limit: int) -> tuple[int, int] | None:
    """First (by first term, then difference) prime AP of the given length
    with both parameters <= limit."""
    table = set(simple_primes(limit * (length + 1)))
    for first in range(2, limit + 1):
        if first not in table:
            continue
        for diff in range(1, limit + 1):
            if all(first + j * diff in table for j in range(1, length)):
                return first, diff
    return None


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


def strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters (method
    A: the first D in 5, -7, 9, ... with (D/n) = -1, P = 1, Q = (1 - D)/4)
    for odd n with no prime factor below 67, by the U/V doubling ladder that
    halves by multiplying with (n + 1)/2.  A square has no such D and is
    refused."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else -D + 2
    if j == 0:  # gcd(D, n) > 1
        return False
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 modulo the odd n
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) * half % n, (D * u + v) * half % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def argparse_cli_parser() -> argparse.ArgumentParser:
    """The argparse parser `pfib` had before its table parser, kept as the
    reference for what the command line accepts.  Each command's `func` is
    the name of its handler in `pfib.cli`."""
    parser = argparse.ArgumentParser(
        prog="pfib", description="prime Fibonacci sequence toolkit"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "records"),
        default="plain",
        help="plain text or one JSON record per line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[common], help="run the forward recurrence")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--max-terms", type=int, default=1000)
    p.set_defaults(func="cmd_forward")

    p = sub.add_parser(
        "extend-left", parents=[common], help="find a left extension of a prime pair"
    )
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--method", choices=("minimal", "crt"), default="minimal")
    p.add_argument("--bound", type=int, default=10**6)
    p.set_defaults(func="cmd_extend_left")

    p = sub.add_parser(
        "reversed", parents=[common], help="generate the reversed sequence"
    )
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**7)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--checkpoint", default=None, metavar="PATH")
    p.set_defaults(func="cmd_reversed")

    p = sub.add_parser(
        "green-tao", parents=[common], help="build a length-k sequence from a prime AP"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ap", default=None, metavar="FIRST,DIFF,LEN")
    p.add_argument("--search-limit", type=int, default=1000)
    p.set_defaults(func="cmd_green_tao")

    p = sub.add_parser(
        "verify-bfile", parents=[common], help="check a b-file against the generator"
    )
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("path")
    p.set_defaults(func="cmd_verify_bfile")

    return parser
