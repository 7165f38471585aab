import dataclasses
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

import oracles
from pfib.searchctl import (
    DEFAULT_SHARD_WIDTH,
    Checkpoint,
    CheckpointError,
    SearchTask,
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
        if r >= 3 and oracles.trial_is_prime(r) and oracles.sopd_trial(partner + r) == constraint:
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

    def test_pool_matches_serial(self, monkeypatch):
        monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 256)
        for c, p, bound in [(439, 7, 10**6), (3, 5, 100), (406507, 67, 2 * 10**9)]:
            task = SearchTask(c, p, bound)
            serial = run_search(task, workers=1)
            pooled = run_search(task, workers=2)
            assert serial.prime == pooled.prime
            assert serial.checkpoint.next_multiplier == pooled.checkpoint.next_multiplier
            assert serial.checkpoint.shards_done == pooled.checkpoint.shards_done

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

    def test_every_boundary_gives_same_answer(self):
        expected = run_search(self.TASK).prime
        for stop_after in range(1, 15):
            suspended = run_search(self.TASK, max_shards=stop_after)
            resumed = run_search(self.TASK, resume_from=suspended.checkpoint, workers=2)
            assert resumed.prime == expected, stop_after

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


class TestPoolStart:
    """A search runs in-process until it outlives its first shard."""

    A16 = 330515394367  # the hit at multiplier 813062, in shard 13

    @pytest.fixture
    def pools(self, monkeypatch):
        # the first multiplier submitted to each pool built, in build order
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(None)

            def submit(self, fn, *args, **kwargs):
                if built[-1] is None:
                    built[-1] = args[-2]  # shards are submitted as (..., lo, hi)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr("pfib.searchctl.ProcessPoolExecutor", CountingPool)
        return built

    def test_single_shard_steps_build_no_pool(self, pools):
        seq = generate_reversed(Seed(3, 5), 16, 2 * 10**9, workers=2)
        assert seq.terms == A255562
        assert seq.status is ReversedStatus.BOUND_EXHAUSTED
        assert pools == []

    def test_pool_starts_after_first_shard(self, pools):
        result = run_search(SearchTask(406507, 67, 10**12), workers=2)
        assert result.prime == self.A16
        assert result.checkpoint.shards_done == 13
        # shard 1 ran in-process; the pool took over at shard 2
        assert pools == [2 + DEFAULT_SHARD_WIDTH]

    def test_resumed_search_goes_straight_to_pool(self, pools):
        task = SearchTask(406507, 67, 10**12)
        suspended = run_search(task, max_shards=6)
        resumed = run_search(task, resume_from=suspended.checkpoint, workers=2)
        assert resumed.prime == self.A16
        assert resumed.checkpoint.shards_done == 13
        assert pools == [suspended.checkpoint.next_multiplier]

    def test_suspension_after_first_shard_builds_no_pool(self, pools, narrow_shards):
        task = SearchTask(439, 7, 10**6)
        assert not run_search(task, workers=2, max_shards=1).completed
        assert pools == []


class TestResultInvariants:
    def test_hit_checkpoint_is_self_consistent(self, monkeypatch):
        monkeypatch.setattr("pfib.searchctl.DEFAULT_SHARD_WIDTH", 512)
        result = run_search(SearchTask(439, 7, 10**6))
        checkpoint = result.checkpoint
        checkpoint.validate()
        clone = dataclasses.replace(checkpoint, wall_seconds=0.0)
        clone.validate()

    def test_exhausted_checkpoint_covers_whole_range(self):
        task = SearchTask(406507, 67, 2_000_000_000)
        result = run_search(task)
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        assert result.checkpoint.next_multiplier > limit
