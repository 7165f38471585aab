import math
import os
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pfib import arith, searchctl, seqcore
from pfib.arith import smallest_odd_prime_divisor
from pfib.seqcore import (
    ForwardStatus,
    GROWTH_ROOT,
    PrimeAp,
    ReversedSequence,
    ReversedStatus,
    Seed,
    TripleCheck,
    extend_left_crt,
    extend_left_minimal,
    find_prime_ap,
    generate_forward,
    generate_reversed,
    green_tao_sequence,
    growth_diagnostics,
    index_recurrence,
)

A255562 = (3, 5, 7, 3, 11, 7, 37, 19, 277, 331, 223, 439, 7, 406507, 67)

SMALL_ODD_PRIMES = [p for p in oracles.simple_primes(60) if p > 2]


@pytest.fixture
def retests(monkeypatch):
    """Arguments of every is_prime call made outside the reversed-step scan:
    those of ensure_odd_prime, which the record constructors call, and of
    PrimeAp's member check; the scan's own tests go through searchctl's
    binding and are not recorded."""
    calls = []
    for module in (arith, seqcore):
        original = module.is_prime

        def spy(n, original=original):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(module, "is_prime", spy)
    return calls


class TestSeed:
    def test_accepts_odd_primes(self):
        assert Seed(3, 5) == Seed(3, 5)
        Seed(7, 7)

    @pytest.mark.parametrize("pair", [(2, 3), (3, 2), (9, 3), (3, 1), (0, 5)])
    def test_rejects_non_odd_primes(self, pair):
        with pytest.raises(ValueError, match="not an odd prime"):
            Seed(*pair)


@pytest.mark.parametrize("cls,values", [
    (Seed, (3, 5)),
    (PrimeAp, (199, 210, 9)),
    (searchctl.SearchTask, (406507, 67, 10**12)),
])
def test_proven_record_is_the_checked_one(cls, values, retests):
    # built by _make, without its checks, a record still equals, hashes,
    # pickles and converts like the one the public constructor checks
    proven = cls._make(values)
    assert retests == []
    checked = cls(*values)
    assert proven == checked and hash(proven) == hash(checked)
    assert pickle.loads(pickle.dumps(proven)) == checked
    assert tuple(proven) == values


class TestGenerateForward:
    @pytest.mark.parametrize("seed,terms,final_sum", [
        ((5, 7), (5, 7, 3, 5), 8),
        ((3, 5), (3, 5), 8),
        ((3, 7), (3, 7, 5, 3), 8),
        ((5, 29), (5, 29, 17, 23, 5, 7, 3, 5), 8),
        ((67, 406507), tuple(reversed(A255562)), 8),
    ])
    def test_terminating_examples(self, seed, terms, final_sum):
        seq = generate_forward(Seed(*seed), 1000)
        assert seq.terms == terms
        assert seq.status is ForwardStatus.TERMINATED
        assert seq.final_sum == final_sum
        assert seq.limit is None

    def test_constant(self):
        seq = generate_forward(Seed(3, 3), 1000)
        assert seq.terms == (3, 3)
        assert seq.status is ForwardStatus.CONSTANT
        assert seq.final_sum is None

    def test_truncation(self):
        seq = generate_forward(Seed(5, 7), 3)
        assert seq.terms == (5, 7, 3)
        assert seq.status is ForwardStatus.TRUNCATED
        assert seq.limit == 3

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError, match="at least 2"):
            generate_forward(Seed(5, 7), 1)

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.sampled_from(SMALL_ODD_PRIMES))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_replay(self, p1, p2):
        seq = generate_forward(Seed(p1, p2), 500)
        assert list(seq.terms) == oracles.forward_scan(p1, p2, 500)
        for i in range(len(seq.terms) - 2):
            total = seq.terms[i] + seq.terms[i + 1]
            assert seq.terms[i + 2] == oracles.sopd_trial(total)

    def test_every_pair_below_200_matches_oracle(self):
        odd_primes = oracles.simple_primes(200)[1:]
        seen = set()
        for p1 in odd_primes:
            for p2 in odd_primes:
                for max_terms in (2, 3, 4, 1000):
                    terms = oracles.forward_scan(p1, p2, max_terms)
                    total = terms[-2] + terms[-1]
                    if terms[-2] == terms[-1]:
                        expected = (ForwardStatus.CONSTANT, None, None)
                    elif oracles.sopd_trial(total) is None:
                        expected = (ForwardStatus.TERMINATED, total, None)
                    else:
                        expected = (ForwardStatus.TRUNCATED, None, max_terms)
                    seq = generate_forward(Seed(p1, p2), max_terms)
                    assert list(seq.terms) == terms
                    assert (seq.status, seq.final_sum, seq.limit) == expected
                    seen.add(seq.status)
        assert seen == set(ForwardStatus)

    # primes on both sides of the table's 2**16 edge and of 2**32
    EDGE_PRIMES = (
        65519, 65521, 65537, 65539, 65543, 65551, 65557,
        4294967279, 4294967291, 4294967311, 4294967357, 4294967371, 4294967377,
    )

    def test_sums_across_2_16_and_2_32_match_oracle(self, monkeypatch):
        odd_parts = []
        original = seqcore.smallest_odd_prime_divisor

        def spy(u):
            odd_parts.append(u)
            return original(u)

        monkeypatch.setattr(seqcore, "smallest_odd_prime_divisor", spy)
        for p1 in self.EDGE_PRIMES:
            for p2 in self.EDGE_PRIMES:
                seq = generate_forward(Seed(p1, p2), 1000)
                assert list(seq.terms) == oracles.forward_scan(p1, p2, 1000)
        # the fallback saw only odd parts past the table, on both sides of 2**32
        assert all(u % 2 == 1 and u >= 1 << 16 for u in odd_parts)
        assert any(u < 1 << 32 for u in odd_parts)
        assert any(u > 1 << 32 for u in odd_parts)

    def test_odd_parts_below_2_16_are_read_off_the_table(self, monkeypatch):
        def refused(n):
            raise AssertionError(f"smallest_odd_prime_divisor({n}) called")

        monkeypatch.setattr(seqcore, "smallest_odd_prime_divisor", refused)
        # every sum of two primes below 1000 and each later one is below 2**16
        odd_primes = oracles.simple_primes(1000)[1:]
        for p1 in odd_primes:
            for p2 in odd_primes:
                generate_forward(Seed(p1, p2), 1000)

    def test_odd_parts_above_2_16_call_the_divisor_function(self, monkeypatch):
        # the module-global call is what a tracer wrapping it sees
        calls = []
        original = seqcore.smallest_odd_prime_divisor

        def spy(u):
            calls.append(u)
            return original(u)

        monkeypatch.setattr(seqcore, "smallest_odd_prime_divisor", spy)
        seq = generate_forward(Seed(67, 406507), 1000)
        assert seq.terms == tuple(reversed(A255562))
        assert calls[0] == (67 + 406507) // 2
        assert all(u >= 1 << 16 for u in calls)

    @pytest.mark.parametrize("seed,max_terms", [
        ((67, 406507), 1000), ((5, 7), 3), ((3, 3), 1000), ((3, 5), 2),
    ])
    def test_streaming_callback(self, seed, max_terms):
        seen = []
        seq = generate_forward(
            Seed(*seed), max_terms, on_term=lambda i, v: seen.append((i, v))
        )
        assert seen == list(enumerate(seq.terms))

    def test_streaming_callback_keeps_terms_before_a_refused_sum(self, monkeypatch):
        def refused(u):
            raise arith.FactorBudgetError("refused")

        monkeypatch.setattr(seqcore, "smallest_odd_prime_divisor", refused)
        seen = []
        with pytest.raises(arith.FactorBudgetError):
            generate_forward(
                Seed(67, 406507), 1000, on_term=lambda i, v: seen.append((i, v))
            )
        assert seen == [(0, 67), (1, 406507)]


HUGE = -(10**5000)


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: generate_forward(Seed(3, 5), HUGE), ValueError,
                 id="generate_forward.max_terms"),
    pytest.param(lambda: generate_reversed(Seed(3, 5), HUGE, 10), ValueError,
                 id="generate_reversed.num_terms"),
    pytest.param(lambda: generate_reversed(Seed(3, 5), 3, HUGE), ValueError,
                 id="generate_reversed.per_step_bound"),
    pytest.param(lambda: extend_left_crt(3, HUGE), ValueError,
                 id="extend_left_crt.p2"),
    pytest.param(lambda: index_recurrence(HUGE), ValueError,
                 id="index_recurrence.k"),
    pytest.param(lambda: green_tao_sequence(HUGE, PrimeAp(3, 2, 3)), ValueError,
                 id="green_tao_sequence.k"),
    pytest.param(lambda: find_prime_ap(HUGE, 10), ValueError,
                 id="find_prime_ap.length"),
    pytest.param(lambda: PrimeAp(3, 2, HUGE), ValueError, id="PrimeAp.length"),
    pytest.param(lambda: PrimeAp(3, HUGE, 1), ValueError, id="PrimeAp.difference"),
    pytest.param(lambda: PrimeAp(10**5000, 1, 1), ValueError, id="PrimeAp.first"),
    pytest.param(lambda: PrimeAp(3, 2, 3).term(HUGE), IndexError,
                 id="PrimeAp.term"),
])
def test_huge_values_named_by_size(call, error):
    # past the int-string limit the message gives the size, not the digits
    with pytest.raises(error, match="an 16610-bit integer"):
        call()


class TestExtendLeftCrt:
    def test_reference_pair(self):
        p0, system = extend_left_crt(5, 7)
        assert p0 == 191
        assert system.congruences == ((2, 3), (1, 5), (2, 7))
        assert system.combined_modulus == 105
        assert system.solution == 86
        assert (p0 - system.solution) // system.combined_modulus == 1
        assert oracles.sopd_trial(p0 + 5) == 7

    def test_shifted_residue_pair(self):
        # 13 = 1 (mod 3), so the target sum residue for q=3 shifts to 2;
        # the unshifted system would be stuck at multiples of 3
        p0, system = extend_left_crt(13, 5)
        assert p0 == 7
        assert system.congruences == ((1, 3), (2, 5))
        assert system.solution == 7
        assert oracles.sopd_trial(7 + 13) == 5

    def test_seed_pair(self):
        p0, system = extend_left_crt(3, 5)
        assert p0 == 7
        assert system.congruences == ((1, 3), (2, 5))

    def test_rejects_equal_primes(self):
        with pytest.raises(ValueError, match="distinct"):
            extend_left_crt(7, 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            extend_left_crt(4, 7)

    @pytest.mark.parametrize("p2", [2053, 10007, 10**9 + 7])
    def test_refuses_p2_from_the_limit(self, p2):
        # 2053 is the least prime above 2**11; a refused p2 is neither
        # sieved below nor tested, so even 10**9 + 7 is refused at once
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"p2 below 2048, got {p2}$"):
            extend_left_crt(3, p2)
        assert time.perf_counter() - started < 1.0

    def test_refusal_names_a_huge_p2_by_size(self):
        # 10**5000 is past the int-string limit, and its refusal runs no
        # primality test on it
        with pytest.raises(ValueError, match="p2 below 2048, got an 16610-bit integer"):
            extend_left_crt(3, 10**5000)

    def test_first_prime_matches_unsieved_scan(self):
        # every ordered pair of distinct odd primes below 100, among them
        # pairs whose p0 <= 2**16 is itself a sieving prime, one the sieve
        # would strike as its own multiple: (3, 5) -> 7, (3, 7) -> 193,
        # (3, 11) -> 3253
        primes = oracles.simple_primes(100)[1:]
        sieving_prime_hits = 0
        for p1 in primes:
            for p2 in primes:
                if p1 == p2:
                    continue
                p0, system = extend_left_crt(p1, p2)
                a, modulus = system.solution, system.combined_modulus
                assert math.gcd(a, modulus) == 1
                assert oracles.sopd_trial(p0 + p1) == p2
                index = (p0 - a) // modulus
                assert (index, p0) == oracles.first_progression_prime(a, modulus)
                sieving_prime_hits += p2 < p0 <= 2**16
        assert sieving_prime_hits > 0

    @pytest.mark.parametrize("p2, below_2_16", [(499, True), (599, False)])
    def test_size_scaled_sieve_matches_full_sieve(self, monkeypatch, p2, below_2_16):
        # a has 682 bits for p2 = 499, whose sieve stops short of 2**16,
        # and 808 bits for p2 = 599, whose sieve reaches it
        p0, system = extend_left_crt(3, p2)
        limit = seqcore._dirichlet_sieve_limit(system.solution)
        assert (limit < 2**16 - 1) is below_2_16
        monkeypatch.setattr(seqcore, "_dirichlet_sieve_limit", lambda a: 2**16 - 1)
        assert extend_left_crt(3, p2) == (p0, system)

    @pytest.mark.parametrize("window", [None, 77, 64])
    def test_window_boundary_keeps_the_first_prime(self, monkeypatch, window):
        # (83, 191) has progression index 231: in the first window unpatched,
        # the first of the fourth when the window is patched to 77
        # (231 = 3*77), and inside the fourth when patched to 64
        expected = extend_left_crt(83, 191)
        if window is not None:
            monkeypatch.setattr(seqcore, "_DIRICHLET_WINDOW", window)
        p0, system = extend_left_crt(83, 191)
        assert (p0, system) == expected
        assert (p0 - system.solution) // system.combined_modulus == 231
        assert oracles.sopd_trial(p0 + 83) == 191

    @given(st.sampled_from(SMALL_ODD_PRIMES), st.sampled_from(SMALL_ODD_PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_output_satisfies_definition(self, p1, p2):
        # p0 can reach ~1e21 here (the modulus is a primorial), so the
        # oracle checks must not factor anything of that size
        if p1 == p2:
            return
        p0, system = extend_left_crt(p1, p2)
        assert p0 % 2 == 1 and oracles.mr_is_prime(p0)
        total = p0 + p1
        assert total % p2 == 0
        assert all(total % q for q in oracles.simple_primes(p2 - 1)[1:])
        assert p0 % system.combined_modulus == system.solution
        assert system.combined_modulus == math.prod(oracles.simple_primes(p2)[1:])


class TestExtendLeftMinimal:
    @pytest.mark.parametrize("p1,p2,bound,expected", [
        (5, 7, 100, 23),
        (7, 3, 100, 5),
        (5, 3, 100, 7),
        (3, 5, 100, 7),
        (5, 5, 100, 5),  # constant extension
        (7, 439, 10**6, 406507),
        (67, 406507, 10**6, None),
    ])
    def test_examples(self, p1, p2, bound, expected):
        assert extend_left_minimal(p1, p2, bound) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            extend_left_minimal(2, 7, 100)
        with pytest.raises(ValueError, match="bound"):
            extend_left_minimal(5, 7, 0)

    def test_three_routes_agree_on_small_pairs(self):
        for p1 in SMALL_ODD_PRIMES:
            for p2 in SMALL_ODD_PRIMES:
                structured = extend_left_minimal(p1, p2, 10_000)
                naive = oracles.extend_left_minimal_naive(p1, p2, 10_000)
                scan = oracles.reversed_step_scan(p1, p2, 10_000)
                assert structured == naive == scan, (p1, p2)

    def test_minimality_against_oracle(self):
        r = extend_left_minimal(7, 439, 10**6)
        assert oracles.reversed_step_scan(7, 439, r) == r


class TestGenerateReversed:
    def test_reference_sequence(self):
        seq = generate_reversed(Seed(3, 5), 15, 10**7)
        assert seq.terms == A255562
        assert seq.status is ReversedStatus.COMPLETE
        assert seq.at_index is None and seq.bound is None

    def test_seed_only(self):
        seq = generate_reversed(Seed(3, 5), 2, 100)
        assert seq.terms == (3, 5)
        assert seq.status is ReversedStatus.COMPLETE

    def test_constant_seed(self):
        seq = generate_reversed(Seed(7, 7), 5, 100)
        assert seq.terms == (7, 7, 7, 7, 7)
        assert seq.status is ReversedStatus.COMPLETE

    def test_bound_exhaustion(self):
        seq = generate_reversed(Seed(3, 5), 16, 10**6)
        assert seq.terms == A255562
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert seq.at_index == 15
        assert seq.bound == 10**6

    def test_terms_past_the_bfile(self):
        # a16..a19: steps 17 and 19 start at multipliers near 4.9e9 and 1.1e10,
        # and step 18's constraint a16 is past the 2**32 sieve ceiling, so its
        # sieve limit must stay bounded by the shard as well
        seq = generate_reversed(Seed(3, 5), 19, 2 * 10**13, workers=1)
        assert seq.terms == A255562 + (330515394367, 967, 10576492618777, 116041)
        assert seq.status is ReversedStatus.COMPLETE

    @pytest.mark.parametrize("bound", [10**8, 2 * 10**8])
    def test_bound_below_gap_is_exhaustion(self, bound):
        # the third term would need 999999937 to divide 3 + r, so r > 999999934
        seq = generate_reversed(Seed(999999937, 3), 3, bound)
        assert seq.terms == (999999937, 3)
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert seq.at_index == 2
        assert seq.bound == bound

    def test_streaming_callback(self):
        seen = []
        generate_reversed(Seed(3, 5), 15, 10**7, on_term=lambda i, v: seen.append((i, v)))
        assert seen == list(enumerate(A255562))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="num_terms"):
            generate_reversed(Seed(3, 5), 1, 100)
        with pytest.raises(ValueError, match="per_step_bound"):
            generate_reversed(Seed(3, 5), 3, 0)

    @pytest.mark.parametrize("bound", [2.5, True, "10"])
    def test_rejects_non_integer_bound(self, bound):
        # the steps' tasks are built without SearchTask's checks, so the
        # bound is refused here, with SearchTask's wording
        with pytest.raises(ValueError, match="bound must be an integer >= 1, got"):
            generate_reversed(Seed(3, 5), 5, bound)

    def test_each_term_is_tested_once(self, retests):
        # Seed proves the seed and each step's scan the term it finds, so
        # no step's task tests its two primes again
        seed = Seed(3, 5)
        retests.clear()
        seq = generate_reversed(seed, 19, 2 * 10**13, workers=1)
        assert len(seq.terms) == 19
        assert retests == []

    def test_forward_replay_inverts_reversal(self):
        seq = generate_reversed(Seed(3, 5), 15, 10**7)
        replay = generate_forward(Seed(seq.terms[-1], seq.terms[-2]), 1000)
        assert replay.terms == tuple(reversed(seq.terms))
        assert replay.status is ForwardStatus.TERMINATED

    def test_delegated_steps_match_serial(self):
        big = generate_reversed(Seed(3, 5), 13, 2 * 10**8)
        small = generate_reversed(Seed(3, 5), 13, 10**7)
        assert big.terms == small.terms == A255562[:13]


class TestGenerateReversedCheckpoints:
    BOUND = 2 * 10**9

    def test_checkpoint_removed_after_run(self, tmp_path):
        path = str(tmp_path / "state.json")
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert seq.terms == A255562
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_matching_checkpoint_resumed(self, tmp_path):
        # pre-seed a checkpoint for the final (exhausting) step with most of
        # its multiplier range already done
        path = str(tmp_path / "state.json")
        task = searchctl.SearchTask(406507, 67, self.BOUND)
        searchctl.save_checkpoint(
            searchctl.Checkpoint(task, 4096, 1, 5.0), path
        )
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert seq.at_index == 15
        assert not os.path.exists(path)

    def test_checkpoint_from_narrower_shards_resumed(self, tmp_path, monkeypatch):
        # the shard width is no part of the task: a step-16 file suspended at
        # width 64 is the same step's state at any width
        path = str(tmp_path / "state.json")
        task = searchctl.SearchTask(406507, 67, self.BOUND)
        with monkeypatch.context() as narrow:
            narrow.setattr(searchctl, "DEFAULT_SHARD_WIDTH", 64)
            suspended = searchctl.run_search(task, checkpoint_path=path, max_shards=10)
        assert searchctl.load_checkpoint(path).next_multiplier == 2 + 64 * 10
        resumed = []
        real_run_search = searchctl.run_search

        def recording_run_search(task, resume_from=None, **kwargs):
            resumed.append(resume_from)
            return real_run_search(task, resume_from, **kwargs)

        monkeypatch.setattr(searchctl, "run_search", recording_run_search)
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.terms == A255562
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert resumed[-1] == suspended.checkpoint
        assert not os.path.exists(path)

    def test_foreign_checkpoint_left_alone(self, tmp_path):
        # a checkpoint for a task matching no step of this run must survive
        # untouched; (101, 3) never appears as a neighbouring pair here
        path = str(tmp_path / "state.json")
        task = searchctl.SearchTask(101, 3, self.BOUND)
        searchctl.save_checkpoint(
            searchctl.Checkpoint(task, 1000, 2, 9.0), path
        )
        with open(path, "rb") as handle:
            before = handle.read()
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.terms == A255562
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_checkpoint_at_another_bound_refused(self, tmp_path, saves):
        # a step-16 file at 10**12 is refused once the seeds have streamed,
        # before any step runs, and stays byte for byte as it was
        path = str(tmp_path / "state.json")
        task = searchctl.SearchTask(406507, 67, 10**12)
        searchctl.save_checkpoint(searchctl.Checkpoint(task, 393218, 6, 0.0001), path)
        saves.clear()
        with open(path, "rb") as handle:
            before = handle.read()
        streamed = []
        with pytest.raises(searchctl.CheckpointError) as refused:
            generate_reversed(
                Seed(3, 5), 16, self.BOUND, checkpoint_path=path,
                on_term=lambda index, value: streamed.append(value),
            )
        assert str(refused.value) == (
            f"{path}: checkpoint bound 1000000000000 is not the run's bound"
            " 2000000000"
        )
        assert streamed == [3, 5] and saves == []
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_steps_finished_before_the_interval_write_nothing(
        self, tmp_path, search_clock, saves
    ):
        path = str(tmp_path / "state.json")
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.terms == A255562
        assert saves == []
        assert not os.path.exists(path)

    def test_resume_loads_the_file_once(
        self, tmp_path, monkeypatch, search_clock, saves
    ):
        path = str(tmp_path / "state.json")
        task = searchctl.SearchTask(406507, 67, self.BOUND)
        searchctl.save_checkpoint(searchctl.Checkpoint(task, 4096, 1, 5.0), path)
        saves.clear()
        loads = []
        real_load = searchctl.load_checkpoint

        def recording_load(file):
            loads.append(file)
            return real_load(file)

        monkeypatch.setattr(searchctl, "load_checkpoint", recording_load)
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.terms == A255562 and seq.at_index == 15
        assert loads == [path]
        # the step-16 search removes the file it resumed from, writing nothing
        assert saves == []
        assert not os.path.exists(path)


class TestIndexRecurrence:
    @pytest.mark.parametrize("k,expected", [
        (3, [0, 2, 1]),
        (4, [0, 4, 2, 3]),
        (5, [0, 8, 4, 6, 5]),
        (6, [0, 16, 8, 12, 10, 11]),
    ])
    def test_values(self, k, expected):
        assert index_recurrence(k) == expected

    @pytest.mark.parametrize("k", list(range(3, 31)))
    def test_stays_integral_and_recurrent(self, k):
        indices = index_recurrence(k)
        assert len(indices) == k
        assert indices[0] == 0 and indices[1] == 2 ** (k - 2)
        for i in range(k - 2):
            assert indices[i] + indices[i + 1] == 2 * indices[i + 2]
        assert all(0 <= b <= 2 ** (k - 2) for b in indices)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="at least 3"):
            index_recurrence(2)


class TestPrimeAp:
    def test_term_access(self):
        ap = PrimeAp(5, 6, 5)
        assert [ap.term(j) for j in range(5)] == [5, 11, 17, 23, 29]
        with pytest.raises(IndexError):
            ap.term(5)

    def test_rejects_composite_member(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeAp(5, 2, 3)  # 5, 7, 9

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="length"):
            PrimeAp(5, 6, 0)
        with pytest.raises(ValueError, match="difference"):
            PrimeAp(5, 0, 3)

    @pytest.mark.parametrize("args,field", [
        ((3, 2.0, 3), "difference"),
        ((3.0, 2, 3), "first"),
        ((3, 2, 3.0), "length"),
        ((3, 2, True), "length"),
    ])
    def test_rejects_non_integer_field(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            PrimeAp(*args)


class TestFindPrimeAp:
    @pytest.mark.parametrize("length,limit,expected", [
        (2, 10, (2, 1)),
        (3, 100, (3, 2)),
        (5, 100, (5, 6)),
        (5, 5, None),
        (2, 5_000_001, (2, 1)),  # a span past 10**7 probes with is_prime
    ])
    def test_examples(self, length, limit, expected):
        ap = find_prime_ap(length, limit)
        if expected is None:
            assert ap is None
        else:
            assert (ap.first, ap.difference, ap.length) == (*expected, length)

    @pytest.mark.parametrize("length,limit", [(3, 50), (4, 60)] + [
        (length, limit)
        for length in range(2, 10)
        for limit in (1, 2, 3, 10, 57, 120)
    ])
    def test_matches_exhaustive_oracle(self, length, limit):
        # the oracle finds no progression for short limits and long lengths
        ap = find_prime_ap(length, limit)
        found = None if ap is None else (ap.first, ap.difference)
        assert found == oracles.prime_ap_scan(length, limit)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match="at least 2"):
            find_prime_ap(1, 100)

    def test_found_members_are_not_tested_again(self, retests):
        # the probe accepted every member, so neither the progression nor
        # the green-tao seed built from its endpoints tests one again
        ap = find_prime_ap(9, 1000)
        seq = green_tao_sequence(5, ap)
        assert (ap.first, ap.difference, ap.length) == (199, 210, 9)
        assert seq.terms[:2] == (199, 1879)
        assert retests == []


class TestGreenTao:
    def test_k3(self):
        seq = green_tao_sequence(3, PrimeAp(3, 2, 3))
        assert seq.terms == (3, 7, 5, 3)
        assert seq.status is ForwardStatus.TERMINATED

    def test_k4(self):
        ap = PrimeAp(5, 6, 5)
        seq = green_tao_sequence(4, ap)
        assert seq.terms == (5, 29, 17, 23, 5, 7, 3, 5)
        indices = index_recurrence(4)
        assert [seq.terms[i] for i in range(4)] == [ap.term(b) for b in indices]

    def test_k5(self):
        ap = PrimeAp(199, 210, 9)
        seq = green_tao_sequence(5, ap)
        assert seq.terms == (199, 1879, 1039, 1459, 1249, 677, 3, 5)
        assert seq.final_sum == 8
        indices = index_recurrence(5)
        assert [seq.terms[i] for i in range(5)] == [ap.term(b) for b in indices]
        # dual route: each early pairwise sum is twice a progression member
        for i in range(3):
            total = seq.terms[i] + seq.terms[i + 1]
            assert total == 2 * seq.terms[i + 2]
            assert smallest_odd_prime_divisor(total) == seq.terms[i + 2]

    @pytest.mark.parametrize("k", [3, 4])
    def test_every_small_progression_gives_its_members(self, k):
        # every progression of 2**(k-2) + 1 primes with first term and
        # difference below 300, found here without the package
        length = (1 << (k - 2)) + 1
        primes = set(oracles.simple_primes(300 * length))
        indices = index_recurrence(k)
        count = 0
        for first in oracles.simple_primes(299):
            for difference in range(1, 300):
                if all(first + j * difference in primes for j in range(length)):
                    ap = PrimeAp(first, difference, length)
                    terms = green_tao_sequence(k, ap).terms
                    assert len(terms) >= k
                    assert list(terms[:k]) == [ap.term(b) for b in indices]
                    count += 1
        assert count > 0

    def test_rejects_wrong_ap_length(self):
        with pytest.raises(ValueError, match="needs a progression of length 5"):
            green_tao_sequence(4, PrimeAp(3, 2, 3))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="at least 3"):
            green_tao_sequence(2, PrimeAp(3, 2, 3))


class TestGrowthDiagnostics:
    def test_single_growing_triple(self):
        report = growth_diagnostics(ReversedSequence((3, 5, 7), ReversedStatus.COMPLETE))
        assert report.triples == (TripleCheck(0, True, 4),)
        assert report.longest_monotone_run == 1
        assert report.log2_ratios == pytest.approx((math.log2(5 / 3), math.log2(7 / 5)))
        assert report.alpha == GROWTH_ROOT

    def test_ratio_past_float_range(self):
        # the third term is about 1.2 * 2**1100 times the second: no float
        big = 6 * 2**1100 - 5
        seq = ReversedSequence((3, 5, big), ReversedStatus.COMPLETE)
        report = growth_diagnostics(seq)
        assert report.triples == (TripleCheck(0, True, 2**1101),)
        assert report.log2_ratios == pytest.approx(
            (math.log2(5 / 3), 1100 + math.log2(6 / 5))
        )

    def test_premise_can_fail(self):
        # 3 + 11 = 14 is exactly 2 * 7: the premise is strict, so it fails
        report = growth_diagnostics(ReversedSequence((7, 3, 11), ReversedStatus.COMPLETE))
        assert report.triples == (TripleCheck(0, False, None),)
        assert report.longest_monotone_run == 0

    def test_reference_sequence_report(self):
        seq = ReversedSequence(A255562, ReversedStatus.COMPLETE)
        report = growth_diagnostics(seq)
        assert len(report.triples) == 13
        for check in report.triples:
            total = A255562[check.index + 1] + A255562[check.index + 2]
            assert check.premise is (total > 2 * A255562[check.index])
            if check.premise:
                assert check.ratio == total // A255562[check.index]
                assert check.ratio % 2 == 0 and check.ratio >= 4
            else:
                assert check.ratio is None
        runs, best = 0, 0
        for check in report.triples:
            runs = runs + 1 if check.premise else 0
            best = max(best, runs)
        assert report.longest_monotone_run == best
        assert abs(report.alpha - 1.5615528128088303) < 1e-12

    def test_rejects_fake_window(self):
        # 5 + 9 = 14 exceeds 2 * 3 but 3 does not divide it evenly
        with pytest.raises(ValueError, match="not a reversed-sequence window"):
            growth_diagnostics(ReversedSequence((3, 5, 9), ReversedStatus.COMPLETE))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 3"):
            growth_diagnostics(ReversedSequence((3, 5), ReversedStatus.COMPLETE))
