import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pfib import searchctl
from pfib.arith import smallest_odd_prime_divisor
from pfib.seqcore import (
    BoundExhaustedError,
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


class TestSeed:
    def test_accepts_odd_primes(self):
        assert Seed(3, 5) == Seed(3, 5)
        Seed(7, 7)

    @pytest.mark.parametrize("pair", [(2, 3), (3, 2), (9, 3), (3, 1), (0, 5)])
    def test_rejects_non_odd_primes(self, pair):
        with pytest.raises(ValueError, match="not an odd prime"):
            Seed(*pair)


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
        with pytest.raises(ValueError, match="max_steps"):
            extend_left_crt(5, 7, 0)

    def test_exhausts_when_starved(self):
        # the first progression value for (5, 7) is 86, which is not prime
        with pytest.raises(BoundExhaustedError):
            extend_left_crt(5, 7, max_steps=1)

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
            searchctl.Checkpoint(task, 4096, None, 1, 5.0), path
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
            searchctl.Checkpoint(task, 1000, None, 2, 9.0), path
        )
        with open(path, "rb") as handle:
            before = handle.read()
        seq = generate_reversed(Seed(3, 5), 16, self.BOUND, checkpoint_path=path)
        assert seq.terms == A255562
        with open(path, "rb") as handle:
            assert handle.read() == before


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


class TestFindPrimeAp:
    @pytest.mark.parametrize("length,limit,expected", [
        (2, 10, (2, 1)),
        (3, 100, (3, 2)),
        (5, 100, (5, 6)),
        (5, 5, None),
    ])
    def test_examples(self, length, limit, expected):
        ap = find_prime_ap(length, limit)
        if expected is None:
            assert ap is None
        else:
            assert (ap.first, ap.difference, ap.length) == (*expected, length)

    @pytest.mark.parametrize("length,limit", [(3, 50), (4, 60), (5, 120)])
    def test_matches_exhaustive_oracle(self, length, limit):
        ap = find_prime_ap(length, limit)
        assert (ap.first, ap.difference) == oracles.prime_ap_scan(length, limit)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match="at least 2"):
            find_prime_ap(1, 100)


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
        assert report.growth_ratios == (5 / 3, 7 / 5)
        assert report.alpha == GROWTH_ROOT

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
