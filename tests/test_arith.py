import random
import time
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pfib import arith, seqcore
from pfib.arith import (
    CrtSystem,
    crt_solve,
    ensure_odd_prime,
    is_prime,
    odd_part,
    sieve_primes,
    smallest_odd_prime_divisor,
)


class TestIsPrime:
    @pytest.mark.parametrize("n", [2, 3, 5, 61, 65537, 999983, 1000003])
    def test_known_primes(self, n):
        assert is_prime(n)

    # a negative n must not index the least-factor table from its end, where
    # -15 and -65533 would land on the primes 65521 and 3
    @pytest.mark.parametrize("n", [
        -7, 0, 1, 4, 9, 25, 1000001, 4489, -1, -2, -15, -65533, -65535,
    ])
    def test_known_composites_and_small(self, n):
        assert not is_prime(n)

    def test_strong_pseudoprimes_not_fooled(self):
        # 2047 = 23 * 89 passes the base-2 strong test; 3215031751 =
        # 151 * 751 * 28351 passes the strong test to every base in {2, 3, 5, 7}
        assert not is_prime(2047)
        assert not is_prime(3215031751)
        assert 3215031751 == 151 * 751 * 28351

    def test_tier_table_last_boundary(self):
        # smallest composite passing the strong test to every prime base
        # from 2 to 23
        n = 3825123056546413051
        assert n == 149491 * 747451 * 34233211
        assert all(oracles.trial_is_prime(f) for f in (149491, 747451, 34233211))
        assert not is_prime(n)

    def test_above_64_bit_prime(self):
        assert is_prime((1 << 89) - 1)  # Mersenne prime 2^89 - 1

    def test_above_64_bit_composite(self):
        m67 = (1 << 67) - 1
        assert m67 == 193707721 * 761838257287
        assert not is_prime(m67)

    # OEIS A001262 below 10**5: each passes the base-2 strong test; the five
    # without a prime factor below 67 reach the Lucas half, which must refuse them
    @pytest.mark.parametrize("n", [
        2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
        65281, 74665, 80581, 85489, 88357, 90751,
    ])
    def test_base_two_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    # OEIS A217255 below 10**5: each passes the strong Lucas test with
    # Selfridge's parameters; the nine without a prime factor below 67 reach
    # the base-2 half, which must refuse them
    @pytest.mark.parametrize("n", [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
        75077, 97439,
    ])
    def test_strong_lucas_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("p", [1093, 3511])
    def test_wieferich_squares(self, p):
        # p**2 passes the base-2 strong test, so the Lucas step must refuse
        # it; a square has no D with (D/n) = -1 for Selfridge's search to find
        assert not is_prime(p * p)

    def test_mersenne_primes_and_product(self):
        m521, m607, m1279 = ((1 << e) - 1 for e in (521, 607, 1279))
        assert is_prime(m521) and is_prime(m607) and is_prime(m1279)
        assert not is_prime(m521 * m607)

    @given(st.integers(min_value=1 << 64, max_value=3_300_000_000_000_000_000_000_000))
    @settings(max_examples=300)
    def test_matches_miller_rabin_oracle_above_64_bits(self, n):
        assert is_prime(n) == oracles.mr_is_prime(n)

    @given(st.integers(min_value=-100, max_value=200_000))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == oracles.trial_is_prime(n)


class TestStrongLucas:
    # the package's V-only ladder against the U/V ladder it replaced, which
    # halves by multiplying with (n + 1)/2; both take n odd with no prime
    # factor below 67
    @staticmethod
    def check(numbers):
        for n in numbers:
            assert arith._strong_lucas(n) == oracles.strong_lucas(n), n

    def test_every_eligible_n_below_2_17(self):
        small = [p for p in range(3, 67, 2) if oracles.trial_is_prime(p)]
        eligible = [
            n for n in range(67, 1 << 17, 2) if all(n % p for p in small)
        ]
        assert len(eligible) > 15_000
        self.check(eligible)

    # the primes after some, where both ladders run to the end, come from
    # the oracle's Miller-Rabin; the p0 below cover primes of 250-1400 bits
    @pytest.mark.parametrize("bits,count,primes", [(64, 400, 100), (1400, 12, 0)])
    def test_random_odd_numbers(self, bits, count, primes):
        rng = random.Random(bits)
        numbers = []
        while len(numbers) < count:
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if all(n % p for p in range(3, 67, 2)):
                numbers.append(n)
        for n in numbers[:primes]:
            while not oracles.mr_probable_prime(n):
                n += 2
            numbers.append(n)
        self.check(numbers)

    def test_constructions_p0(self):
        p0s = [seqcore.extend_left_crt(3, p2)[0] for p2 in (199, 397, 599, 797, 997)]
        assert min(p0.bit_length() for p0 in p0s) > 250
        self.check(p0s)
        assert all(arith._strong_lucas(p0) for p0 in p0s)

    def test_jacobi_symbol_zero_refuses(self):
        # n = 67*q, q prime and q = 67 (mod 4 * the product of the primes up
        # to 61): (D/n) is 1 for the first 31 D of 5, -7, 9, ..., then D = -67
        # shares the factor 67, so the symbol is 0 and n is refused
        n = 62866572408642136447037209
        assert n % 67 == 0 and oracles.mr_is_prime(n // 67)
        assert arith._strong_lucas(n) is False
        assert is_prime(n) is False


class TestEnsureOddPrime:
    def test_passes_through(self):
        assert ensure_odd_prime(3) == 3
        assert ensure_odd_prime(406507) == 406507

    @pytest.mark.parametrize("n", [2, 1, 0, -3, 9, 15])
    def test_rejects(self, n):
        with pytest.raises(ValueError, match=f"^{n} is not an odd prime"):
            ensure_odd_prime(n)


class TestPowersAndOddPart:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (12, 3), (96, 3),
                                            (1 << 20, 1), (405, 405)])
    def test_odd_part(self, n, expected):
        assert odd_part(n) == expected

    def test_odd_part_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            odd_part(0)


@pytest.mark.parametrize("fn", [odd_part, smallest_odd_prime_divisor])
def test_huge_nonpositive_named_by_size(fn):
    # past the int-string limit the message gives the size, not the digits
    message = "^expected a positive integer, got an 16610-bit integer$"
    with pytest.raises(ValueError, match=message):
        fn(-(10**5000))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sieve_primes(10**5000), id="sieve_limit"),
    pytest.param(lambda: crt_solve([(1, -(10**5000))]), id="crt_modulus"),
    pytest.param(
        lambda: crt_solve([(1, 10**5000), (1, 3 * 10**5000)]), id="crt_coprime"
    ),
])
def test_huge_arguments_named_by_size(call):
    with pytest.raises(ValueError, match="an 1661[0-2]-bit integer"):
        call()


class TestLeastFactorTable:
    def test_primes_match_oracle(self):
        table_primes = arith._trial_tables()[1]
        assert table_primes == tuple(oracles.simple_primes((1 << 16) - 1))
        assert table_primes[: arith._SCREEN_END] == tuple(oracles.simple_primes(255))

    def test_entries_are_least_factors(self):
        table = arith._trial_tables()[0]
        assert table[:2] == b"\x01\x01"
        for n in range(2, 1 << 16):
            least = 2 if n % 2 == 0 else oracles.sopd_trial(n)
            assert table[n] == (0 if least == n else least), n

    def test_matches_oracles_across_the_cutoff(self):
        # [1, 2**17) spans the table's 2**16 edge and the trial division above
        for n in range(1, 1 << 17):
            assert is_prime(n) == oracles.trial_is_prime(n), n
            assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n), n

    def test_set_up_call_builds_every_kernel_table(self):
        # the benchmark's set-up calls smallest_odd_prime_divisor(3); no
        # table may be left to build inside a timed region
        caches = [f for f in vars(arith).values() if hasattr(f, "cache_info")]
        assert caches
        for cached in caches:
            cached.cache_clear()
        smallest_odd_prime_divisor(3)
        assert [f.cache_info().currsize for f in caches] == [1] * len(caches)


class TestSmallestOddPrimeDivisor:
    @pytest.mark.parametrize("n,expected", [
        (1, None), (2, None), (8, None), (1 << 30, None),
        (3, 3), (12, 3), (10, 5), (49, 7), (196, 7),
        (406514, 439),  # 2 * 439 * 463
        (812947, 61),  # 61 * 13327
        (1000003, 1000003),  # prime beyond the trial-division table
        (2 * (2**61 - 1), 2**61 - 1),  # prime past 2**32: settled by is_prime
    ])
    def test_examples(self, n, expected):
        assert smallest_odd_prime_divisor(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smallest_odd_prime_divisor(0)

    def test_large_prime_cofactor(self):
        # odd part is a prime square above the trial table: needs rho
        p = 1000003
        assert smallest_odd_prime_divisor(2 * p * p) == p

    @given(st.integers(min_value=1, max_value=2_000_000))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n)


class TestAboveTheTable:
    """smallest_odd_prime_divisor past 2**16: a screen by the primes below
    2**8, then below 2**64 a primality test before the rest of the trial
    division, and above 2**64 the trial division first."""

    def test_around_2_32_matches_oracle(self):
        for n in range((1 << 32) - 300, (1 << 32) + 300):
            assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n), n

    @pytest.mark.parametrize("n", [
        257 * 257, 257 * 65537, 4099 * 65521, 65521 * 65521,
        65521 * 4294967291,
        65521 * (2**61 - 1),  # above 2**64
        257 * (2**89 - 1),  # above 2**64, with a prime cofactor
    ])
    def test_least_factor_between_2_8_and_2_16(self, n):
        assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n)
        assert smallest_odd_prime_divisor(2 * n) == oracles.sopd_trial(n)

    @pytest.mark.parametrize("n", [
        65537 * 65539, 65539 * 65543, 65537 * 65539 * 65543,
        65557 * 4294967291, 65537 * 140737488355213,
    ])
    def test_no_factor_below_2_16_below_2_64(self, n):
        assert n < 1 << 64
        assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n)

    @pytest.fixture
    def primality_tests(self, monkeypatch):
        calls = []
        original = arith.is_prime

        def spy(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "is_prime", spy)
        return calls

    def test_prime_below_2_64_is_tested_at_once(self, primality_tests):
        p = 2**61 - 1
        assert smallest_odd_prime_divisor(4 * p) == p
        assert primality_tests == [p]

    def test_composite_below_2_64_is_tested_then_divided(self, primality_tests):
        n = 65521 * 4294967291
        assert smallest_odd_prime_divisor(n) == 65521
        assert primality_tests == [n]

    def test_above_2_64_trial_division_comes_first(self, primality_tests):
        assert smallest_odd_prime_divisor(65521 * (2**61 - 1)) == 65521
        assert primality_tests == []

    def test_prime_above_2_64_after_trial_division(self, primality_tests):
        p = 2**89 - 1
        assert oracles.mr_probable_prime(p)
        assert smallest_odd_prime_divisor(p) == p
        assert primality_tests == [p]

    @pytest.mark.parametrize("n,expected", [
        (2 * 1000003 * 1000033, 1000003),
        (1000003**2, 1000003),
        # with y0 = 2 the c = 1 walk finds only n itself on these two
        (65587 * 65701, 65587),
        (65537**2, 65537),
        # a factor below 2**8 ends the search before rho
        (7 * 1000003 * 1000033, 7),
    ], ids=["semiprime", "prime_square", "walk_closes_on_semiprime",
            "walk_closes_on_square", "small_factor_first"])
    def test_rho_fallback(self, n, expected):
        assert smallest_odd_prime_divisor(n) == expected


class TestSievePrimes:
    def test_small_limits(self):
        assert sieve_primes(-5) == []
        assert sieve_primes(1) == []
        assert sieve_primes(2) == [2]
        assert sieve_primes(10) == [2, 3, 5, 7]

    def test_matches_oracle_to_100k(self):
        assert sieve_primes(100_000) == oracles.simple_primes(100_000)

    def test_prime_count_at_10k(self):
        assert len(sieve_primes(10_000)) == 1229

    @pytest.fixture(scope="class")
    def reference(self):
        return oracles.simple_primes((1 << 16) + (1 << 20) + 1000)

    # the table answers below 2**16; the sieved windows start there, and the
    # first window ends at 2**16 + 2**20
    @pytest.mark.parametrize("limit", [
        (1 << 16) - 2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
        (1 << 16) + (1 << 20) - 1, (1 << 16) + (1 << 20),
        (1 << 16) + (1 << 20) + 1000,
    ])
    def test_table_and_window_edges(self, reference, limit):
        expected = reference[: bisect_right(reference, limit)]
        assert sieve_primes(limit) == expected

    def test_ceiling_guard(self):
        with pytest.raises(ValueError, match="ceiling"):
            sieve_primes(1 << 33)
        with pytest.raises(ValueError, match="ceiling"):
            sieve_primes(1 << 32)


class TestUnstruck:
    """The window sieve against a naive strike: the i-th prime strikes the
    offsets starts[i], starts[i] + p, ... below the width."""

    @staticmethod
    def naive(lo, width, primes, starts):
        struck = set()
        for p, start in zip(primes, starts):
            struck.update(range(start, width, p))
        return [lo + i for i in range(width) if i not in struck]

    def test_matches_a_naive_strike(self):
        rng = random.Random(32)
        pool = oracles.simple_primes(300)
        seen = {"two": 0, "start_past_width": 0, "prime_past_width": 0}
        for _ in range(400):
            lo = rng.choice([0, rng.randrange(1 << 20), rng.getrandbits(80)])
            width = rng.randrange(1, 160)
            primes = rng.sample(pool, rng.randrange(0, 10))
            starts = [rng.randrange(p) for p in primes]
            got = list(arith._unstruck(lo, width, primes, iter(starts)))
            assert got == self.naive(lo, width, primes, starts)
            seen["two"] += 2 in primes
            seen["start_past_width"] += any(s >= width for s in starts)
            seen["prime_past_width"] += any(p > width for p in primes)
        assert min(seen.values()) > 0, seen


class TestCrtSolve:
    def test_reference_system(self):
        system = crt_solve([(2, 3), (1, 5), (2, 7)])
        assert system == CrtSystem(((2, 3), (1, 5), (2, 7)), 105, 86)
        assert system.solution % 3 == 2
        assert system.solution % 5 == 1
        assert system.solution % 7 == 2

    def test_single_congruence(self):
        assert crt_solve([(0, 3)]).solution == 0
        assert crt_solve([(7, 3)]).solution == 1

    def test_residues_normalized(self):
        system = crt_solve([(-1, 5), (13, 4)])
        assert system.congruences == ((4, 5), (1, 4))
        assert system.solution == 9

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match=r"not coprime \(gcd 2\)"):
            crt_solve([(1, 4), (2, 6)])

    def test_rejects_non_coprime_modulus_last(self):
        # after the 203 odd primes below 1250, a modulus sharing 3 with the
        # first one; the message names that earlier modulus and the gcd
        congruences = [(1, q) for q in oracles.simple_primes(1250)[1:]]
        congruences.append((1, 3 * 1249))
        message = r"^moduli 3 and 3747 are not coprime \(gcd 3\)$"
        with pytest.raises(ValueError, match=message):
            crt_solve(congruences)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            crt_solve([])

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError, match="at least 2"):
            crt_solve([(0, 1)])

    @given(
        moduli=st.lists(
            st.sampled_from([3, 4, 5, 7, 11, 13, 17, 19, 23]),
            min_size=1, max_size=4, unique=True,
        ),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150)
    def test_matches_scan_oracle(self, moduli, seed):
        rng = random.Random(seed)
        congruences = [(rng.randrange(m), m) for m in moduli]
        system = crt_solve(congruences)
        solution, modulus = oracles.crt_scan(congruences)
        assert (system.solution, system.combined_modulus) == (solution, modulus)


class TestRhoBudget:
    # 2 * 1181640291642918365944871538900041798133700243321 is the seeds'
    # sum, and its odd part is a product of two 80-bit primes
    STALL_SEEDS = (
        "1181640291642918365944871538900041798133700239031",
        "1181640291642918365944871538900041798133700247611",
    )

    def test_budget_refuses_two_80_bit_factors(self):
        u = sum(int(s) for s in self.STALL_SEEDS) // 2
        started = time.perf_counter()
        with pytest.raises(
            arith.FactorBudgetError,
            match=f"^no factor of a 160-bit integer found within "
            f"{arith._RHO_BUDGET} rho steps$",
        ):
            smallest_odd_prime_divisor(2 * u)
        assert time.perf_counter() - started < 2.0  # the budget takes ~0.3 s

    def test_forward_run_past_2_64_stops(self, run_cli):
        # the two seed terms were streamed before the sum was refused
        started = time.perf_counter()
        code, out, err = run_cli("forward", *self.STALL_SEEDS)
        assert time.perf_counter() - started < 2.0
        assert code == 2 and out == " ".join(self.STALL_SEEDS) + "\n"
        assert err == (
            f"error: no factor of a 160-bit integer found within "
            f"{arith._RHO_BUDGET} rho steps\n"
        )

    def test_refused_forward_run_writes_no_record(self, run_cli):
        code, out, err = run_cli("forward", *self.STALL_SEEDS, "--format", "records")
        assert code == 2 and out == ""
        assert err.startswith("error: no factor of a 160-bit integer")

    def test_least_factor_above_2_30_still_found(self, run_cli):
        # seeds 67 and 2*p*q - 67, both prime, with primes 2**30 < p < q
        p, q = 1073741827, 1099511627791
        assert oracles.trial_is_prime(p) and oracles.trial_is_prime(q)
        assert 1 << 30 < p < q
        p2 = 2 * p * q - 67
        assert oracles.mr_is_prime(p2)
        assert smallest_odd_prime_divisor(67 + p2) == p
        code, out, _ = run_cli("forward", "67", str(p2), "--max-terms", "3")
        assert code == 0
        assert out == f"67 {p2} {p} | truncated: 3\n"
