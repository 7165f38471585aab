import dataclasses
import json
import os
import random

import pytest

import oracles
from pfib import searchctl
from pfib.arith import is_prime, sieve_primes
from pfib.searchctl import (
    DEFAULT_SHARD_WIDTH,
    Checkpoint,
    CheckpointError,
    SearchTask,
    _odd_sieve_primes,
    load_checkpoint,
    multiplier_limit,
    run_search,
    save_checkpoint,
    scan_multiplier_range,
)
from pfib.seqcore import ReversedStatus, Seed, generate_reversed

A255562 = (3, 5, 7, 3, 11, 7, 37, 19, 277, 331, 223, 439, 7, 406507, 67)


def brute_scan(constraint, partner, m_lo, m_hi):
    """Reference for scan_multiplier_range: try every multiplier in order."""
    for m in range(m_lo, m_hi):
        if m % 2:
            continue
        r = constraint * m - partner
        if r >= 3 and oracles.mr_is_prime(r) and oracles.sopd_trial(partner + r) == constraint:
            return r
    return None


@pytest.fixture
def narrow_shards(monkeypatch):
    """Cut the multiplier range into shards of 64, so small tasks take many."""
    monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 64)


class TestSearchTask:
    def test_accepts_valid(self):
        task = SearchTask(439, 7, 10**6)
        assert dataclasses.astuple(task) == (439, 7, 10**6)
        SearchTask(7, 7, 100)

    @pytest.mark.parametrize("args", [(2, 7, 100), (9, 7, 100), (7, 2, 100)])
    def test_rejects_non_odd_primes(self, args):
        with pytest.raises(ValueError, match="not an odd prime"):
            SearchTask(*args)

    def test_huge_prime_argument_named_by_size(self):
        with pytest.raises(ValueError, match="16610-bit integer is not an odd prime"):
            SearchTask(-(10**5000), 3, 10)

    def test_accepts_bound_below_gap(self):
        # every candidate 439*m - 7 exceeds 100: exhausted without a shard
        result = run_search(SearchTask(439, 7, 100))
        assert result.exhausted
        assert result.checkpoint.next_multiplier == 2
        assert result.checkpoint.shards_done == 0

    @pytest.mark.parametrize("bound", [0, -1])
    def test_rejects_non_positive_bound(self, bound):
        with pytest.raises(ValueError, match="bound"):
            SearchTask(3, 5, bound)

    @pytest.mark.parametrize("args", [(3, 5, "100"), (3, 5, True)])
    def test_rejects_non_integer_fields(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchTask(*args)


class TestMultiplierLimit:
    @pytest.mark.parametrize("c,p,bound,expected", [
        (3, 5, 100, 35),
        (7, 3, 10, 1),
        (406507, 67, 2_000_000_000, 4919),
    ])
    def test_values(self, c, p, bound, expected):
        assert multiplier_limit(c, p, bound) == expected
        assert c * expected - p <= bound < c * (expected + 1) - p


class TestScanMultiplierRange:
    def test_empty_range(self):
        assert scan_multiplier_range(3, 5, 10, 10) is None
        assert scan_multiplier_range(3, 5, 10, 4) is None

    def test_skips_candidates_below_three(self):
        # m = 2 gives r = 1, which no prime test should even see
        assert scan_multiplier_range(3, 5, 2, 4) is None
        assert scan_multiplier_range(3, 5, 2, 6) == 7

    def test_reference_hit(self):
        assert scan_multiplier_range(439, 7, 926, 928) == 406507
        assert scan_multiplier_range(439, 7, 2, 926) is None

    def test_hit_satisfies_divisor_property(self):
        r = scan_multiplier_range(439, 7, 2, 2000)
        assert r == 406507
        assert oracles.sopd_trial(7 + r) == 439

    def test_matches_brute_force(self):
        rng = random.Random(7)
        primes = [p for p in oracles.simple_primes(200) if p > 2]
        for _ in range(60):
            c = rng.choice(primes)
            p = rng.choice(primes)
            lo = rng.randrange(2, 500)
            hi = lo + rng.randrange(0, 400)
            assert scan_multiplier_range(c, p, lo, hi) == brute_scan(c, p, lo, hi), (
                c, p, lo, hi,
            )

    @pytest.mark.parametrize("c", [1009, 7919])
    def test_matches_brute_force_across_constraint_and_square(self, c):
        # j = m/2 straddling c (powers of two below it, a sieve above), 2c,
        # and c**2, where the sqrt(j) sieve limit reaches c - 1
        rng = random.Random(c)
        partners = [p for p in oracles.simple_primes(20_000) if p > 2]
        ranges = [(2, 2 * c + 300)]
        for j in (c, 2 * c, c * c):
            for _ in range(8):
                lo, hi = 2 * j - rng.randrange(300), 2 * j + rng.randrange(300)
                ranges.append((lo, hi))
        results = []
        for lo, hi in ranges:
            for p in rng.sample(partners, 4):
                expected = brute_scan(c, p, lo, hi)
                assert scan_multiplier_range(c, p, lo, hi) == expected, (c, p, lo, hi)
                results.append(expected)
        assert None in results and any(results)


def make_checkpoint(best=None, next_multiplier=100, shards=2, wall=1.5):
    task = SearchTask(439, 7, 10**6)
    return Checkpoint(task, next_multiplier, best, shards, wall)


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint = make_checkpoint(best=406507, next_multiplier=928, shards=15)
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint
        assert not os.path.exists(path + ".tmp")

    def test_document_shape(self, tmp_path):
        path = str(tmp_path / "cp.json")
        save_checkpoint(make_checkpoint(), path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc == {
            "format_version": 2,
            "task": {"constraint_prime": 439, "partner": 7, "bound": 10**6},
            "next_multiplier": 100,
            "best_found": None,
            "shards_done": 2,
            "wall_seconds": 1.5,
        }

    def test_overwrite_keeps_latest(self, tmp_path):
        path = str(tmp_path / "cp.json")
        save_checkpoint(make_checkpoint(next_multiplier=100), path)
        save_checkpoint(make_checkpoint(next_multiplier=200, shards=3), path)
        assert load_checkpoint(path).next_multiplier == 200

    def test_equal_prime_task_roundtrip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        task = SearchTask(7, 7, 100)
        save_checkpoint(Checkpoint(task, 2, None, 0, 0.0), path)
        assert load_checkpoint(path).task == task

    def test_save_refuses_invalid_state(self, tmp_path):
        path = str(tmp_path / "cp.json")
        with pytest.raises(CheckpointError, match="even"):
            save_checkpoint(make_checkpoint(next_multiplier=101), path)
        assert not os.path.exists(path)

    def test_save_refuses_wrong_types(self, tmp_path):
        path = str(tmp_path / "cp.json")
        task = SearchTask(439, 7, 10**6)
        with pytest.raises(CheckpointError, match="must be an integer"):
            save_checkpoint(Checkpoint(task, "100", None, 2, 1.5), path)
        assert not os.path.exists(path)

    @pytest.mark.parametrize("field", [
        "next_multiplier", "shards_done", "wall_seconds", "best_found",
    ])
    def test_refuses_integers_past_str_limit(self, tmp_path, field):
        # the messages must not format these values digit by digit
        huge = -10**5000 if field == "shards_done" else 10**5000
        checkpoint = dataclasses.replace(make_checkpoint(), **{field: huge})
        path = str(tmp_path / "cp.json")
        with pytest.raises(CheckpointError, match="bit integer"):
            save_checkpoint(checkpoint, path)
        assert not os.path.exists(path)
        with pytest.raises(CheckpointError, match="bit integer"):
            run_search(checkpoint.task, resume_from=checkpoint)

    @pytest.mark.parametrize("bound", [2 * 10**9, 406507 * 4918 - 67])
    def test_exhausted_roundtrip(self, tmp_path, bound):
        # multiplier limits 4919 and 4918: exhaustion sits exactly at the
        # range check's ceiling for an odd and an even limit
        task = SearchTask(406507, 67, bound)
        limit = multiplier_limit(406507, 67, bound)
        checkpoint = run_search(task).checkpoint
        assert checkpoint.next_multiplier == limit + 1 + (limit + 1) % 2
        path = str(tmp_path / "cp.json")
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope.json"))


def _valid_doc():
    return {
        "format_version": 2,
        "task": {"constraint_prime": 439, "partner": 7, "bound": 10**6},
        "next_multiplier": 100,
        "best_found": None,
        "shards_done": 2,
        "wall_seconds": 1.5,
    }


class TestLoadRejections:
    def check(self, tmp_path, mutate, match):
        doc = _valid_doc()
        mutate(doc)
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    def test_valid_doc_loads(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(_valid_doc()))
        load_checkpoint(str(path))

    def test_unknown_field(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(extra=1), "document fields")

    def test_missing_field(self, tmp_path):
        self.check(tmp_path, lambda d: d.pop("shards_done"), "document fields")

    def test_unknown_task_field(self, tmp_path):
        self.check(tmp_path, lambda d: d["task"].update(note="x"), "task fields")

    def test_missing_task_field(self, tmp_path):
        self.check(tmp_path, lambda d: d["task"].pop("bound"), "task fields")

    def test_wrong_format_version(self, tmp_path):
        self.check(
            tmp_path, lambda d: d.update(format_version=1), "format_version"
        )

    def test_version_1_document_is_refused(self, checkpoint_v1):
        # format 1 carried the shard width in the task; no loader reads it
        with open(checkpoint_v1, "rb") as handle:
            before = handle.read()
        with pytest.raises(CheckpointError, match="unsupported format_version 1") as info:
            load_checkpoint(checkpoint_v1)
        assert checkpoint_v1 in str(info.value)
        with open(checkpoint_v1, "rb") as handle:
            assert handle.read() == before

    def test_bool_masquerading_as_int(self, tmp_path):
        self.check(
            tmp_path, lambda d: d.update(next_multiplier=True), "must be an integer"
        )

    def test_string_task_value(self, tmp_path):
        self.check(
            tmp_path, lambda d: d["task"].update(bound="1000000"), "must be an integer"
        )

    def test_string_wall_seconds(self, tmp_path):
        self.check(
            tmp_path, lambda d: d.update(wall_seconds="fast"), "must be a number"
        )

    def test_string_best_found(self, tmp_path):
        self.check(
            tmp_path, lambda d: d.update(best_found="7"), "integer or null"
        )

    def test_odd_next_multiplier(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(next_multiplier=101), "even")

    def test_negative_shards(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(shards_done=-1), "shards_done")

    def test_huge_integer_wall(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(wall_seconds=10**400), "finite")

    def test_next_multiplier_past_range(self, tmp_path):
        # the task's multiplier limit is (10**6 + 7) // 439 = 2277, so an
        # exhausted search stops at 2278
        self.check(
            tmp_path, lambda d: d.update(next_multiplier=2280), "multiplier limit"
        )
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({**_valid_doc(), "next_multiplier": 2278}))
        assert load_checkpoint(str(path)).next_multiplier == 2278

    def test_negative_wall(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(wall_seconds=-0.5), "wall_seconds")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_wall(self, tmp_path, value):
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        self.check(tmp_path, lambda d: d.update(wall_seconds=value), "finite")
        path = str(tmp_path / "saved.json")
        with pytest.raises(CheckpointError, match="finite"):
            save_checkpoint(make_checkpoint(wall=value), path)
        assert not os.path.exists(path)

    def test_composite_best_found(self, tmp_path):
        self.check(tmp_path, lambda d: d.update(best_found=406509), "odd prime")

    def test_best_found_wrong_residue(self, tmp_path):
        # 104729 is prime but 7 + 104729 is not divisible by 439
        self.check(
            tmp_path, lambda d: d.update(best_found=104729), "inconsistent"
        )

    def test_best_found_above_next_multiplier(self, tmp_path):
        # 406507 comes from multiplier 926, not yet covered by next=900
        def mutate(doc):
            doc.update(best_found=406507, next_multiplier=900)

        self.check(tmp_path, mutate, "inconsistent")

    def test_best_found_failing_divisor_property(self, tmp_path):
        # multiplier 12 gives the prime 5261 = 439*12 - 7, but
        # 7 + 5261 = 4 * 3 * 439: the constraint 439 is not smallest
        def mutate(doc):
            doc.update(best_found=5261)

        self.check(tmp_path, mutate, "divisor property")

    def test_invalid_task_values(self, tmp_path):
        self.check(
            tmp_path, lambda d: d["task"].update(constraint_prime=4), "invalid task"
        )

    def test_bound_below_gap(self, tmp_path):
        # a bound below the gap is a valid task; a bound below 1 is not
        self.check(tmp_path, lambda d: d["task"].update(bound=0), "invalid task")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid checkpoint JSON"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("old,new", [
        ("1.5", "1" * 5000),  # past the int-string limit: a plain ValueError
        ("null", '"\u00e9"'),
    ], ids=["int_past_str_limit", "non_ascii"])
    def test_decode_error_names_the_path(self, tmp_path, old, new):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(_valid_doc()).replace(old, new), encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid checkpoint JSON") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="document fields"):
            load_checkpoint(str(path))


class TestRunSearch:
    def test_immediate_hit(self):
        result = run_search(SearchTask(3, 5, 100))
        assert result.prime == 7
        assert result.completed and not result.exhausted
        assert result.checkpoint.best_found == 7
        assert result.checkpoint.next_multiplier == 6
        assert result.checkpoint.shards_done == 1

    def test_deep_hit(self):
        result = run_search(SearchTask(439, 7, 10**6))
        assert result.prime == 406507
        assert result.checkpoint.next_multiplier == 928

    def test_exhaustion(self):
        result = run_search(SearchTask(406507, 67, 2_000_000_000))
        assert result.prime is None
        assert result.completed and result.exhausted
        assert result.checkpoint.next_multiplier == 4920

    def test_suspension_at_last_shard_is_exhaustion(self):
        # one shard of the default width covers multipliers 2..4919
        result = run_search(SearchTask(406507, 67, 2 * 10**9), max_shards=1)
        assert result.checkpoint.next_multiplier == 4920
        assert result.completed and result.exhausted

    def test_bound_allowing_no_multiplier(self):
        result = run_search(SearchTask(439, 7, 439))
        assert result.exhausted
        assert result.checkpoint.next_multiplier == 2

    def test_constant_mode(self):
        result = run_search(SearchTask(7, 7, 100))
        assert result.prime == 7

    def test_pool_matches_serial(self, monkeypatch, pools):
        monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 256)
        monkeypatch.setattr("pfib.searchctl._POOL_AFTER_S", 0)
        tasks = [(439, 7, 10**6), (3, 5, 100), (406507, 67, 2 * 10**9)]
        for c, p, bound in tasks:
            task = SearchTask(c, p, bound)
            serial = run_search(task, workers=1)
            pooled = run_search(task, workers=2)
            assert serial.prime == pooled.prime
            assert serial.checkpoint.next_multiplier == pooled.checkpoint.next_multiplier
            assert serial.checkpoint.shards_done == pooled.checkpoint.shards_done
        # every pooled run scanned its shards in a pool
        assert len(pools) == len(tasks) and None not in pools

    def test_matches_linear_oracle(self, monkeypatch):
        monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 128)
        rng = random.Random(20)
        primes = [p for p in oracles.simple_primes(300) if p > 2]
        for _ in range(15):
            c = rng.choice(primes)
            p = rng.choice(primes)
            bound = rng.randrange(max(10, c - p), 20_000)
            task = SearchTask(c, p, bound)
            assert run_search(task).prime == oracles.reversed_step_scan(p, c, bound)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_search(SearchTask(3, 5, 100), workers=0)

    def test_huge_workers_named_by_size(self):
        with pytest.raises(ValueError, match="workers must be positive, got an 16610-bit"):
            run_search(SearchTask(3, 5, 100), workers=-(10**5000))

    def test_starts_at_least_multiplier(self):
        # step 17 of A255562: no candidate below multiplier 4933065588
        task = SearchTask(67, 330515394367, 2 * 10**13)
        result = run_search(task)
        assert result.prime == 967
        assert result.checkpoint.shards_done == 1
        # a checkpoint below the least multiplier resumes there
        resumed = run_search(task, resume_from=Checkpoint(task, 2, None, 0, 0.0))
        assert resumed.prime == 967
        assert resumed.checkpoint.shards_done == 1

    @pytest.fixture
    def sieve_calls(self, monkeypatch):
        calls = []

        def counting_sieve(limit):
            calls.append(limit)
            return sieve_primes(limit)

        _odd_sieve_primes.cache_clear()
        monkeypatch.setattr(searchctl, "sieve_primes", counting_sieve)
        yield calls
        _odd_sieve_primes.cache_clear()

    def test_shards_share_sieving_primes(self, sieve_calls):
        # of step 16's 13 shards only the last reaches j = m/2 >= 406507,
        # and it sieves to about sqrt(j), not to the constraint
        result = run_search(SearchTask(406507, 67, 10**12))
        assert result.prime == 330515394367
        assert result.checkpoint.shards_done == 13
        assert len(sieve_calls) <= 5
        assert max(sieve_calls) <= 1023

    def test_no_sieve_below_constraint(self, sieve_calls):
        # every j = m/2 <= 2460 is below 406507: only powers of two are tested
        assert run_search(SearchTask(406507, 67, 2 * 10**9)).exhausted
        assert sieve_calls == []

    def test_max_shards_zero_returns_start(self, tmp_path):
        task = SearchTask(439, 7, 10**6)
        path = str(tmp_path / "cp.json")
        result = run_search(task, checkpoint_path=path, max_shards=0)
        assert result.checkpoint == Checkpoint(task, 2, None, 0, 0.0)
        assert not result.completed
        assert not os.path.exists(path)
        suspended = run_search(task, max_shards=2)
        again = run_search(task, resume_from=suspended.checkpoint, max_shards=0)
        assert again.checkpoint == suspended.checkpoint

    @pytest.mark.parametrize("max_shards", [-1, -(10**5000)], ids=["one", "huge"])
    def test_rejects_negative_max_shards(self, max_shards):
        with pytest.raises(ValueError, match="max_shards must be >= 0"):
            run_search(SearchTask(439, 7, 10**6), max_shards=max_shards)

    def test_resume_task_mismatch(self):
        checkpoint = run_search(SearchTask(3, 5, 100)).checkpoint
        with pytest.raises(CheckpointError, match="different task"):
            run_search(SearchTask(3, 5, 200), resume_from=checkpoint)

    def test_resume_refuses_wrong_types(self):
        task = SearchTask(439, 7, 10**6)
        with pytest.raises(CheckpointError, match="must be an integer"):
            run_search(task, resume_from=Checkpoint(task, 100, None, None, 1.5))

    def test_resume_with_answer_is_instant(self):
        done = run_search(SearchTask(439, 7, 10**6))
        again = run_search(SearchTask(439, 7, 10**6), resume_from=done.checkpoint)
        assert again.prime == 406507
        assert again.checkpoint == done.checkpoint


@pytest.mark.usefixtures("narrow_shards")
class TestSuspendResume:
    TASK = SearchTask(439, 7, 10**6)

    def test_full_run_shard_count(self):
        # the hit at multiplier 926 sits in the 15th shard of width 64
        result = run_search(self.TASK)
        assert result.prime == 406507
        assert result.checkpoint.shards_done == 15

    @pytest.mark.parametrize("stop_after", [1, 2, 7, 14])
    def test_resume_at_boundary(self, stop_after):
        suspended = run_search(self.TASK, max_shards=stop_after)
        assert suspended.prime is None and not suspended.completed
        assert not suspended.exhausted
        checkpoint = suspended.checkpoint
        assert checkpoint.next_multiplier == 2 + 64 * stop_after
        assert checkpoint.shards_done == stop_after
        resumed = run_search(self.TASK, resume_from=checkpoint)
        assert resumed.prime == 406507
        assert resumed.completed
        assert resumed.checkpoint.shards_done == 15
        assert resumed.checkpoint.wall_seconds >= checkpoint.wall_seconds

    def test_every_boundary_gives_same_answer(self, monkeypatch, pools):
        expected = run_search(self.TASK).prime
        monkeypatch.setattr("pfib.searchctl._POOL_AFTER_S", 0)
        for stop_after in range(1, 15):
            suspended = run_search(self.TASK, max_shards=stop_after)
            resumed = run_search(self.TASK, resume_from=suspended.checkpoint, workers=2)
            assert resumed.prime == expected, stop_after
        # each resume scanned its remaining shards in a pool
        assert len(pools) == 14 and None not in pools

    def test_max_shards_counts_new_work_only(self):
        suspended = run_search(self.TASK, max_shards=3)
        again = run_search(self.TASK, resume_from=suspended.checkpoint, max_shards=3)
        assert again.checkpoint.shards_done == 6
        assert again.checkpoint.next_multiplier == 2 + 64 * 6

    def test_checkpoint_file_tracks_progress(self, tmp_path):
        path = str(tmp_path / "cp.json")
        state = None
        seen = []
        for _ in range(40):
            result = run_search(
                self.TASK, resume_from=state, checkpoint_path=path, max_shards=1
            )
            on_disk = load_checkpoint(path)
            assert on_disk == result.checkpoint
            seen.append(on_disk.next_multiplier)
            if result.completed:
                assert result.prime == 406507
                assert on_disk.best_found == 406507
                break
            state = result.checkpoint
        else:
            pytest.fail("search never completed")
        assert seen == sorted(seen)
        assert len(seen) == 15

        # a fresh process would pick the answer straight off the disk
        revived = run_search(self.TASK, resume_from=load_checkpoint(path))
        assert revived.prime == 406507


@pytest.mark.usefixtures("narrow_shards")
class TestCheckpointWrites:
    """A search writes its checkpoint only where the write saves work: a
    _CHECKPOINT_INTERVAL after its start or its last write, and at once on
    suspension or interrupt.  A completion only updates a file on disk."""

    TASK = SearchTask(439, 7, 10**6)  # 15 shards of width 64, the hit in the last

    @pytest.fixture
    def scans(self, monkeypatch):
        """The lower end of every shard scanned, in order."""
        seen = []

        def recording_scan(c, partner, lo, hi):
            seen.append(lo)
            return scan_multiplier_range(c, partner, lo, hi)

        monkeypatch.setattr(searchctl, "scan_multiplier_range", recording_scan)
        return seen

    def test_search_finished_before_the_interval_writes_nothing(
        self, tmp_path, search_clock, saves
    ):
        path = str(tmp_path / "cp.json")
        assert run_search(self.TASK, checkpoint_path=path).prime == 406507
        exhausting = SearchTask(406507, 67, 2 * 10**9)
        assert run_search(exhausting, checkpoint_path=path).exhausted
        # a resume from memory has no file to update either
        suspended = run_search(self.TASK, max_shards=3)
        resumed = run_search(
            self.TASK, resume_from=suspended.checkpoint, checkpoint_path=path
        )
        assert resumed.prime == 406507
        assert saves == []
        assert not os.path.exists(path)

    def test_zero_interval_writes_every_shard(self, tmp_path, monkeypatch, saves):
        monkeypatch.setattr(searchctl, "_CHECKPOINT_INTERVAL", 0)
        path = str(tmp_path / "cp.json")
        result = run_search(self.TASK, checkpoint_path=path)
        assert [c.next_multiplier for c in saves] == [
            2 + 64 * k for k in range(1, 15)
        ] + [928]
        assert [c.shards_done for c in saves] == list(range(1, 16))
        assert load_checkpoint(path) == result.checkpoint
        assert result.checkpoint.best_found == 406507

    def test_progress_written_when_the_interval_passes(
        self, tmp_path, search_clock, saves, monkeypatch
    ):
        # every shard moves the clock a third of the interval on
        def slow_scan(*args):
            search_clock[0] += searchctl._CHECKPOINT_INTERVAL / 3
            return scan_multiplier_range(*args)

        monkeypatch.setattr(searchctl, "scan_multiplier_range", slow_scan)
        path = str(tmp_path / "cp.json")
        result = run_search(self.TASK, checkpoint_path=path)
        first = saves[0]
        assert first.next_multiplier == 2 + 64 * 3
        assert (first.shards_done, first.best_found) == (3, None)
        assert first.wall_seconds == searchctl._CHECKPOINT_INTERVAL
        # the clock restarts at each write; the hit updates the file
        assert [c.next_multiplier for c in saves] == [
            2 + 64 * k for k in (3, 6, 9, 12)
        ] + [928]
        assert load_checkpoint(path) == result.checkpoint

    def test_interrupt_writes_the_state_so_far(self, tmp_path, search_clock, scans):
        real_scan = searchctl.scan_multiplier_range

        def interrupted_scan(*args):
            if len(scans) == 3:
                raise KeyboardInterrupt
            return real_scan(*args)

        path = str(tmp_path / "cp.json")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(searchctl, "scan_multiplier_range", interrupted_scan)
            with pytest.raises(KeyboardInterrupt):
                run_search(self.TASK, checkpoint_path=path)
        on_disk = load_checkpoint(path)
        assert on_disk.next_multiplier == 2 + 64 * 3
        assert (on_disk.shards_done, on_disk.best_found) == (3, None)
        resumed = run_search(self.TASK, resume_from=on_disk)
        assert resumed.prime == 406507
        assert resumed.checkpoint.shards_done == 15

    def test_bad_directory_fails_before_any_scan(self, tmp_path, scans):
        path = str(tmp_path / "missing" / "cp.json")
        with pytest.raises(FileNotFoundError, match="checkpoint directory") as info:
            run_search(self.TASK, checkpoint_path=path)
        assert path in str(info.value)
        path = str(tmp_path / "cp.json")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "access", lambda *args, **kwargs: False)
            with pytest.raises(PermissionError, match="not writable") as info:
                run_search(self.TASK, checkpoint_path=path)
        assert path in str(info.value)
        assert scans == []
        assert not os.path.exists(path)


class TestPoolStart:
    """A search runs in-process until it has run for _POOL_AFTER_S seconds."""

    A16 = 330515394367  # the hit at multiplier 813062, in shard 13
    TASK16 = SearchTask(406507, 67, 10**12)

    def test_single_shard_steps_build_no_pool(self, pools):
        seq = generate_reversed(Seed(3, 5), 16, 2 * 10**9, workers=2)
        assert seq.terms == A255562
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert pools == []

    def test_short_search_builds_no_pool(self, pools):
        # step 16's 13 shards take well under a millisecond in-process
        result = run_search(self.TASK16, workers=2)
        assert result.prime == self.A16
        assert result.checkpoint.shards_done == 13
        assert pools == []

    def test_pool_takes_every_shard_at_zero(self, pools, monkeypatch):
        monkeypatch.setattr("pfib.searchctl._POOL_AFTER_S", 0)
        result = run_search(self.TASK16, workers=2)
        assert result.prime == self.A16
        assert result.checkpoint.shards_done == 13
        assert pools == [2]

    def test_resumed_search_goes_straight_to_pool(self, pools):
        suspended = run_search(self.TASK16, max_shards=1)
        # a checkpoint that has already run for the threshold resumes pooled
        spent = dataclasses.replace(
            suspended.checkpoint, wall_seconds=searchctl._POOL_AFTER_S
        )
        resumed = run_search(self.TASK16, resume_from=spent, workers=2)
        assert resumed.prime == self.A16
        assert resumed.checkpoint.shards_done == 13
        assert pools == [2 + DEFAULT_SHARD_WIDTH]

    def test_suspension_after_first_shard_builds_no_pool(
        self, pools, narrow_shards, search_clock, monkeypatch
    ):
        # a fake clock that the first shard moves to the threshold, so the
        # second shard would go to a pool; suspending after one never asks
        def slow_scan(*args):
            search_clock[0] += searchctl._POOL_AFTER_S
            return scan_multiplier_range(*args)

        monkeypatch.setattr(searchctl, "scan_multiplier_range", slow_scan)
        task = SearchTask(439, 7, 10**6)
        suspended = run_search(task, workers=2, max_shards=1)
        assert not suspended.completed
        assert suspended.checkpoint.wall_seconds == searchctl._POOL_AFTER_S
        assert pools == []


class TestResultInvariants:
    def test_hit_checkpoint_is_self_consistent(self, monkeypatch):
        monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 512)
        result = run_search(SearchTask(439, 7, 10**6))
        checkpoint = result.checkpoint
        checkpoint.validate()
        clone = dataclasses.replace(checkpoint, wall_seconds=0.0)
        clone.validate()

    # task (439, 7, 10**9); u is the odd part of m = (7 + r) / 439
    @pytest.mark.parametrize("best", [
        348559,  # u = 397, a prime below the constraint
        390703,  # u = 445 = 5 * 89, composite below 439**2
        406507,  # u = 463, a prime
        169530379,  # u = 193087 = 293 * 659, past 439**2
        201586159,  # u = 229597 = 439 * 523, past 439**2
    ])
    def test_validate_divisor_property_matches_oracle(self, best):
        task = SearchTask(439, 7, 10**9)
        m = (7 + best) // 439
        checkpoint = Checkpoint(task, m + 2, best, 1, 0.0)
        if oracles.sopd_trial(7 + best) == 439:
            checkpoint.validate()
        else:
            with pytest.raises(CheckpointError, match="divisor property"):
                checkpoint.validate()

    def test_validate_needs_no_factorization(self, monkeypatch):
        # 67 + a16 = 406507 * 2 * 406531: the odd part of m is a prime
        # below 406507**2, so a primality test settles it
        def no_factorize(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr("pfib.arith.factorize", no_factorize)
        task = SearchTask(406507, 67, 10**12)
        Checkpoint(task, 813064, 330515394367, 13, 0.0).validate()

    def test_validate_past_c_squared_needs_no_factorization(self, monkeypatch):
        # 67 + r = 406507 * 2**21 * 406507 * 406531: the odd part of m is a
        # semiprime past 406507**2 with no prime factor below 406507
        def no_factorize(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr("pfib.arith.factorize", no_factorize)
        best = 140883338403703200677821
        assert oracles.mr_is_prime(best)
        task = SearchTask(406507, 67, best)
        m = (67 + best) // 406507
        Checkpoint(task, m + 2, best, 1, 0.0).validate()

    def test_validate_matches_oracle_on_every_hit(self):
        # every prime hit of task (13, 3, 10**6) with multiplier m < 20000,
        # whose odd part u covers u < 13, 13 <= u < 13**2 and u >= 13**2:
        # valid iff 13 is the oracle's smallest odd prime divisor
        c, partner = 13, 3
        task = SearchTask(c, partner, 10**6)
        outcomes = set()
        for m in range(2, 20_000, 2):
            best = c * m - partner
            if not oracles.trial_is_prime(best):
                continue
            checkpoint = Checkpoint(task, m + 2, best, 1, 0.0)
            valid = oracles.sopd_trial(partner + best) == c
            outcomes.add(valid)
            if valid:
                checkpoint.validate()
            else:
                with pytest.raises(CheckpointError, match="divisor property"):
                    checkpoint.validate()
        assert outcomes == {True, False}

    def test_validate_refuses_constraint_past_sieve_ceiling(self):
        # 4294967311 is the least prime above 2**32; the odd primes below it
        # cannot be sieved, so a hit with u >= c**2 cannot be checked
        c = 4294967311
        u = c * c
        while not is_prime(2 * c * u - 3):
            u += 2
        best = 2 * c * u - 3
        checkpoint = Checkpoint(SearchTask(c, 3, best), 2 * u + 2, best, 1, 0.0)
        with pytest.raises(CheckpointError, match="too large"):
            checkpoint.validate()
        # u = c < c**2 is prime, but j = m/2 = c * 2**e >= 2**64 puts the
        # scan's sieving primes past the ceiling too, so the hit is refused
        j = c << 32
        while not is_prime(2 * c * j - 3):
            j <<= 1
        best = 2 * c * j - 3
        checkpoint = Checkpoint(SearchTask(c, 3, best), 2 * j + 2, best, 1, 0.0)
        with pytest.raises(CheckpointError, match="too large"):
            checkpoint.validate()

    def test_exhausted_checkpoint_covers_whole_range(self):
        task = SearchTask(406507, 67, 2_000_000_000)
        result = run_search(task)
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        assert result.checkpoint.next_multiplier > limit
