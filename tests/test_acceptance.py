"""End-to-end acceptance criteria.

Each test here is one user-facing guarantee, exercised at full scale with its
runtime budget asserted inline.  The conftest hook prints a PASS/FAIL line
per criterion in the terminal summary.
"""

import random
import time

import pytest

import oracles
from pfib.arith import (
    crt_solve,
    is_prime,
    odd_part,
    sieve_primes,
    smallest_odd_prime_divisor,
)
from pfib.searchctl import SearchTask, multiplier_limit, run_search
from pfib.seqcore import (
    ForwardStatus,
    ReversedStatus,
    Seed,
    extend_left_crt,
    extend_left_minimal,
    find_prime_ap,
    generate_forward,
    generate_reversed,
    green_tao_sequence,
    growth_diagnostics,
    index_recurrence,
)

pytestmark = pytest.mark.acceptance

A255562 = (3, 5, 7, 3, 11, 7, 37, 19, 277, 331, 223, 439, 7, 406507, 67)


def test_forward_seed_5_7_reproduces_known_terms_in_10ms(run_cli):
    started = time.perf_counter()
    seq = generate_forward(Seed(5, 7), 1000)
    elapsed = time.perf_counter() - started
    assert seq.terms == (5, 7, 3, 5)
    assert seq.status is ForwardStatus.TERMINATED
    assert seq.final_sum == 8
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"

    code, out, _ = run_cli("forward", "5", "7")
    assert code == 0
    assert out == "5 7 3 5 | terminated: 8\n"


def test_reversed_seed_3_5_reproduces_15_terms_in_5s(run_cli, bfile_path):
    started = time.perf_counter()
    seq = generate_reversed(Seed(3, 5), 15, 10**7)
    elapsed = time.perf_counter() - started
    assert seq.terms == A255562
    assert seq.status is ReversedStatus.COMPLETE
    assert elapsed < 5.0, f"took {elapsed:.2f} s"

    code, out, _ = run_cli("reversed", "3", "5", "--terms", "15")
    assert code == 0
    assert out.split() == [str(t) for t in A255562]

    code, out, _ = run_cli("verify-bfile", "3", "5", bfile_path)
    assert code == 0
    assert out == "ok: 15 terms match\n"


def test_sixteenth_term_exceeds_two_billion_in_1s(run_cli):
    bound = 2_000_000_000
    started = time.perf_counter()
    seq = generate_reversed(Seed(3, 5), 16, bound)
    elapsed = time.perf_counter() - started
    assert seq.terms == A255562
    assert seq.status is ReversedStatus.BOUND_EXHAUSTED
    assert seq.at_index == 15
    assert elapsed < 1.0, f"took {elapsed:.2f} s"

    code, out, _ = run_cli("reversed", "3", "5", "--terms", "16", "--bound", str(bound))
    assert code == 3
    assert out.splitlines()[1] == "term 16: no candidate <= 2000000000"

    # the roughness filter leaves exactly the power-of-two multipliers:
    # 12 candidates in the whole two-billion range, every one composite
    limit = multiplier_limit(406507, 67, bound)
    assert limit == 4919
    survivors = [
        m for m in range(2, limit + 1, 2)
        if all(odd_part(m) % q for q in oracles.simple_primes(min(m, 406506))[1:])
    ]
    assert survivors == [2 << j for j in range(12)]
    for m in survivors:
        candidate = 406507 * m - 67
        assert not is_prime(candidate)
        assert not oracles.mr_is_prime(candidate)


def test_sixteenth_term_naive_scan_agrees_to_ten_million_in_60s():
    started = time.perf_counter()
    naive = oracles.extend_left_minimal_naive(67, 406507, 10**7)
    elapsed = time.perf_counter() - started
    assert naive is None
    assert extend_left_minimal(67, 406507, 10**7) is None
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_every_prime_pair_below_1000_terminates_in_30s():
    primes = [p for p in sieve_primes(999) if p > 2]
    pairs = [(a, b) for a in primes for b in primes if a != b]
    assert len(pairs) == 27_722
    started = time.perf_counter()
    for p1, p2 in pairs:
        seq = generate_forward(Seed(p1, p2), 10_000)
        assert seq.status is ForwardStatus.TERMINATED, (p1, p2)
        terms = seq.terms
        maxima = [max(terms[i], terms[i + 1]) for i in range(len(terms) - 1)]
        for i in range(len(maxima) - 1):
            assert maxima[i + 1] <= maxima[i], (p1, p2, i)
        for i in range(len(maxima) - 2):
            assert maxima[i + 2] < maxima[i], (p1, p2, i)
        neighbours = list(zip(terms, terms[1:]))
        assert len(set(neighbours)) == len(neighbours), (p1, p2)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_left_extension_routes_agree_on_240_pairs_in_60s():
    lefts = [p for p in sieve_primes(101) if p > 2]
    rights = [p for p in sieve_primes(31) if p > 2]
    pairs = [(p1, p2) for p1 in lefts for p2 in rights if p1 != p2]
    assert len(pairs) == 240
    started = time.perf_counter()
    for p1, p2 in pairs:
        p0, system = extend_left_crt(p1, p2)
        total = p0 + p1
        assert total % p2 == 0, (p1, p2)
        assert all(total % q for q in oracles.simple_primes(p2 - 1)[1:]), (p1, p2)
        assert oracles.mr_is_prime(p0), (p1, p2)

        minimal = extend_left_minimal(p1, p2, p0)
        assert minimal is not None and minimal <= p0, (p1, p2)
        assert oracles.extend_left_minimal_naive(p1, p2, minimal) == minimal, (p1, p2)
        assert oracles.reversed_step_scan(p1, p2, minimal) == minimal, (p1, p2)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_prime_progression_construction_for_k_3_4_5_in_10s(run_cli):
    started = time.perf_counter()
    expected = {3: (3, 2, 3), 4: (5, 6, 5), 5: (199, 210, 9)}
    for k, (first, difference, length) in expected.items():
        ap = find_prime_ap(length, 1000)
        assert (ap.first, ap.difference, ap.length) == (first, difference, length)
        seq = green_tao_sequence(k, ap)
        assert len(seq.terms) >= k
        indices = index_recurrence(k)
        for i in range(k):
            assert seq.terms[i] == ap.term(indices[i]), (k, i)
    # the length-9 progression really is the first one: exhaustive scan
    assert oracles.prime_ap_scan(9, 1000) == (199, 210)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f} s"

    code, out, _ = run_cli("green-tao", "--k", "5")
    assert code == 0
    assert out.splitlines()[0] == "ap: first=199 difference=210 length=9"


def test_growth_law_on_reference_and_100_random_sequences():
    sequences = [generate_reversed(Seed(3, 5), 15, 10**7)]
    primes = [p for p in sieve_primes(1000) if p > 2]
    rng = random.Random(255562)
    for _ in range(100):
        p, q = rng.choice(primes), rng.choice(primes)
        sequences.append(generate_reversed(Seed(p, q), 10, 10**6))

    analyzed = 0
    triples_seen = 0
    for seq in sequences:
        if len(seq.terms) < 3:
            continue
        analyzed += 1
        report = growth_diagnostics(seq)
        triples_seen += len(report.triples)
        for check in report.triples:
            total = seq.terms[check.index + 1] + seq.terms[check.index + 2]
            premise = total > 2 * seq.terms[check.index]
            assert check.premise is premise
            if premise:
                # the per-step law: the sum is an even multiple, at least 4x
                assert total == check.ratio * seq.terms[check.index]
                assert check.ratio % 2 == 0 and check.ratio >= 4
        assert abs(report.alpha - 1.5615528) < 1e-6
        assert abs(report.alpha**2 + report.alpha - 4) < 1e-12
    assert analyzed == 94  # reference plus 93 of the 100 random seeds
    assert triples_seen == 274


def test_arithmetic_kernel_agrees_with_independent_oracles():
    # one sieve, three routes: package sieve, package is_prime, oracle sieve
    oracle_primes = oracles.simple_primes(10**6)
    assert sieve_primes(10**6) == oracle_primes
    table = set(oracle_primes)
    for n in range(1, 10**6 + 1):
        assert is_prime(n) == (n in table), n

    for n in range(1, 10**5 + 1):
        assert smallest_odd_prime_divisor(n) == oracles.sopd_trial(n), n

    rng = random.Random(105)
    bases = [3, 4, 5, 7, 11, 13, 17, 19, 23, 29]
    systems = 0
    while systems < 40:
        moduli = rng.sample(bases, rng.randrange(1, 5))
        modulus = 1
        for m in moduli:
            modulus *= m
        if modulus > 10**5:
            continue
        congruences = [(rng.randrange(m), m) for m in moduli]
        solved = crt_solve(congruences)
        scanned, product = oracles.crt_scan(congruences)
        assert (solved.solution, solved.combined_modulus) == (scanned, product)
        systems += 1


def test_search_results_identical_across_workers_and_resume(monkeypatch, pools):
    # with workers > 1 every search hands its shards to a pool at once, so
    # the small tasks below compare pooled runs with serial ones
    monkeypatch.setattr("pfib.searchctl._POOL_AFTER_S", 0)
    primes = [p for p in sieve_primes(500) if p > 2]
    rng = random.Random(909)
    for trial in range(50):
        constraint = rng.choice(primes)
        partner = rng.choice(primes)
        bound = rng.randrange(max(constraint - partner, 1) + 10, 10**6)
        task = SearchTask(constraint, partner, bound)
        monkeypatch.setattr(
            "pfib.searchctl.DEFAULT_SHARD_WIDTH", rng.choice([64, 256, 1024])
        )
        built = len(pools)
        results = {w: run_search(task, workers=w) for w in (1, 2, 8)}
        # one pool each for workers 2 and 8, and none for 1
        assert len(pools) == built + 2 and None not in pools, trial
        reference = results[1]
        for w in (2, 8):
            assert results[w].prime == reference.prime, (trial, w)
            assert results[w].completed == reference.completed
            assert (
                results[w].checkpoint.next_multiplier
                == reference.checkpoint.next_multiplier
            )
            assert results[w].checkpoint.shards_done == reference.checkpoint.shards_done

        # the linear-scan oracle sees the same least candidate
        assert reference.prime == oracles.reversed_step_scan(
            partner, constraint, bound
        ), trial

        # kill at an arbitrary shard boundary, resume, same answer
        suspended = run_search(task, max_shards=rng.randrange(1, 6))
        if not suspended.completed:
            resumed = run_search(task, resume_from=suspended.checkpoint)
            assert resumed.prime == reference.prime, trial
            assert resumed.completed
