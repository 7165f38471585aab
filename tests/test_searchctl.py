import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import oracles
import pfib
from pfib import searchctl
from pfib.arith import sieve_primes
from pfib.searchctl import (
    DEFAULT_SHARD_WIDTH,
    Checkpoint,
    CheckpointError,
    SearchResult,
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
# a20 and a21, an 88-bit prime and its successor: step 22's task
A20, A21 = 223724392248491824062507397, 3691561
REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def _readme() -> str:
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        return handle.read()


def scan_interrupted_at_sixth(constraint, partner, lo, hi):
    """scan_multiplier_range that raises KeyboardInterrupt on the sixth shard
    of 64 multipliers from 2; at module level, so that pool workers unpickle
    it by name and the future re-raises the interrupt in the parent."""
    if lo == 2 + 64 * 5:
        raise KeyboardInterrupt
    return scan_multiplier_range(constraint, partner, lo, hi)


# A search whose shards each take 0.3 s in a 2-worker pool from the start,
# over a range it cannot finish; it exits 130 on KeyboardInterrupt.
_POOLED_SEARCH = """\
import sys
import time

from pfib import searchctl
from pfib.searchctl import SearchTask, run_search, scan_multiplier_range


def slow_scan(*args):
    time.sleep(0.3)
    return scan_multiplier_range(*args)


if __name__ == "__main__":
    searchctl._POOL_AFTER_S = 0
    searchctl.scan_multiplier_range = slow_scan
    print("searching", flush=True)
    try:
        task = SearchTask(4294967311, 7, 10**40)
        run_search(task, workers=2, checkpoint_path=sys.argv[1])
    except KeyboardInterrupt:
        sys.exit(130)
"""


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
        assert tuple(task) == (439, 7, 10**6)
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

    # u is the odd part of m = (7 + r) / 439
    @pytest.mark.parametrize("r", [
        348559,  # u = 397, a prime below the constraint
        390703,  # u = 445 = 5 * 89, composite below 439**2
        406507,  # u = 463, a prime
        169530379,  # u = 193087 = 293 * 659, past 439**2
        201586159,  # u = 229597 = 439 * 523, past 439**2
    ])
    def test_single_multiplier_matches_oracle(self, r):
        m = (7 + r) // 439
        expected = r if oracles.sopd_trial(7 + r) == 439 else None
        assert scan_multiplier_range(439, 7, m, m + 2) == expected

    def test_every_prime_candidate_matches_oracle(self):
        # every prime candidate r = 13*m - 3 with m < 20000, whose odd part
        # u covers u < 13, 13 <= u < 13**2 and u >= 13**2: the scan of m
        # alone gives r iff 13 is the oracle's smallest odd prime divisor
        c, partner = 13, 3
        outcomes = set()
        for m in range(2, 20_000, 2):
            r = c * m - partner
            if not oracles.trial_is_prime(r):
                continue
            valid = oracles.sopd_trial(partner + r) == c
            outcomes.add(valid)
            expected = r if valid else None
            assert scan_multiplier_range(c, partner, m, m + 2) == expected, m
        assert outcomes == {True, False}


class TestSieveWindows:
    """The scan sieves in windows that double from where its sieved region
    starts, j_s = max(c, least j).  With the first window patched to one j,
    each window is only as wide as its prime list, so hits lie many windows
    past j_s and a shard rarely starts at a window boundary."""

    @pytest.fixture(autouse=True)
    def unit_first_window(self, monkeypatch):
        monkeypatch.setattr(searchctl, "_FIRST_WINDOW", 1)

    @pytest.mark.parametrize("width", [64, DEFAULT_SHARD_WIDTH])
    @pytest.mark.parametrize("c,p,bound", [
        (3, 5, 100),
        (7, 7, 100),
        (13, 3, 20_000),
        (59, 131, 25_000),
        (61, 97, 30_000),
        (157, 79, 100_000),  # exhausted: the hit 109507 is past the bound
        (157, 79, 120_000),
        (439, 7, 410_000),
    ])
    def test_search_matches_linear_oracle(self, monkeypatch, width, c, p, bound):
        # at width 64 a shard spans 32 j, so most start inside the region
        monkeypatch.setattr(searchctl, "DEFAULT_SHARD_WIDTH", width)
        task = SearchTask(c, p, bound)
        assert run_search(task).prime == oracles.reversed_step_scan(p, c, bound)

    def test_hit_past_the_third_window(self):
        # j_s = 61, and j < 247 is sieved by the 5 odd primes up to 15, so
        # the windows are 5, 10, 20, 40 and 80 j wide and end at j = 66, 76,
        # 96, 136 and 216: the hit at j = 199 lies in the fifth
        r = scan_multiplier_range(61, 97, 2, 494)
        assert r == oracles.reversed_step_scan(97, 61, 61 * 493 - 97) == 24181
        assert (r + 97) // 61 // 2 - 61 > 5 + 10 + 20

    @pytest.mark.parametrize("c", [61, 1009])
    def test_shards_starting_inside_the_region_match_brute_force(self, c):
        rng = random.Random(c)
        partners = [p for p in oracles.simple_primes(c) if p > 2]
        results = []
        for _ in range(40):
            p = rng.choice(partners)  # below c, so j_s = c
            lo = 2 * (c + rng.randrange(1, 3000))
            hi = lo + rng.randrange(2, 300)
            expected = brute_scan(c, p, lo, hi)
            assert scan_multiplier_range(c, p, lo, hi) == expected, (c, p, lo, hi)
            results.append(expected)
        assert None in results and any(results)

    def test_refuses_a_sieve_past_the_ceiling_before_any_work(self, monkeypatch):
        # step 22 from j = a20: the sieve would need the primes up to
        # 2**44 - 1, which is refused by the constraint's size, not by the
        # sieve's ceiling guard, and before any test or sieve runs
        task = SearchTask(A20, A21, 10**60)
        work = []
        monkeypatch.setattr(searchctl, "is_prime", work.append)
        monkeypatch.setattr(searchctl, "sieve_primes", work.append)
        with pytest.raises(
            ValueError,
            match=r"^the constraint has 88 bits, and sieving here needs the primes up to "
            r"17592186044415, past",
        ):
            run_search(task, resume_from=Checkpoint(task, 2 * A20, 0, 0.0))
        assert work == []


def make_checkpoint(next_multiplier=100, shards=2, wall=1.5):
    task = SearchTask(439, 7, 10**6)
    return Checkpoint(task, next_multiplier, shards, wall)


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint = make_checkpoint(next_multiplier=926, shards=15)
        save_checkpoint(checkpoint, path)
        assert load_checkpoint(path) == checkpoint
        assert not os.path.exists(path + ".tmp")

    def test_document_shape(self, tmp_path):
        path = str(tmp_path / "cp.json")
        save_checkpoint(make_checkpoint(), path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc == {
            "format_version": 3,
            "task": {"constraint_prime": 439, "partner": 7, "bound": 10**6},
            "next_multiplier": 100,
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
        save_checkpoint(Checkpoint(task, 2, 0, 0.0), path)
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
            save_checkpoint(Checkpoint(task, "100", 2, 1.5), path)
        assert not os.path.exists(path)

    @pytest.mark.parametrize("field", [
        "next_multiplier", "shards_done", "wall_seconds",
    ])
    def test_refuses_integers_past_str_limit(self, tmp_path, field):
        # the messages must not format these values digit by digit
        huge = -10**5000 if field == "shards_done" else 10**5000
        checkpoint = make_checkpoint()._replace(**{field: huge})
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

    def test_readme_example_loads(self, tmp_path):
        # the README's example file must stay a valid checkpoint of this format
        (example,) = re.findall(r"```json\n(.*?)```", _readme(), re.S)
        path = tmp_path / "cp.json"
        path.write_text(example)
        checkpoint = load_checkpoint(str(path))
        # a finished search leaves no file, so the example is one in progress
        assert not SearchResult(checkpoint, None).completed

    def test_completion_removes_the_readme_example(self, tmp_path):
        # a search resumed from the example's state finds it in the file: the
        # file is compared as parsed JSON, not byte for byte, with
        # save_checkpoint's output
        (example,) = re.findall(r"```json\n(.*?)```", _readme(), re.S)
        path = tmp_path / "cp.json"
        path.write_text(example)
        state = load_checkpoint(str(path))
        result = run_search(state.task, resume_from=state, checkpoint_path=str(path))
        assert result.prime == 330515394367
        assert not path.exists()


def test_readme_cli_examples(run_cli, monkeypatch):
    # every `$ pfib ...` line in the README's sh blocks prints exactly the
    # lines under it; the verify-bfile example names a path from the root
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", _readme(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.splitlines()
            examples.append((shlex.split(command), lines))
    assert len(examples) == 11
    monkeypatch.chdir(REPO)
    for (program, *argv), lines in examples:
        assert program == "pfib"
        _, out, err = run_cli(*argv)
        assert (out, err) == ("".join(line + "\n" for line in lines), ""), argv


def test_readme_library_section():
    # the Library section's python block runs as written, and every name its
    # paragraph on the public surface gives in backticks comes from pfib
    section = _readme().split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["seq"].terms == (5, 7, 3, 5)
    assert namespace["rev"].terms == A255562
    (paragraph,) = re.findall(
        r"The full public surface is re-exported from `pfib`(.*?)\n\n", section, re.S
    )
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) == 15
    assert [name for name in names if not hasattr(pfib, name)] == []


def _valid_doc():
    return {
        "format_version": 3,
        "task": {"constraint_prime": 439, "partner": 7, "bound": 10**6},
        "next_multiplier": 100,
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
        for version in (1, 2, 4):
            self.check(
                tmp_path, lambda d: d.update(format_version=version), "format_version"
            )

    @staticmethod
    def check_old_format_refused(path, version):
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(
            CheckpointError, match=f"unsupported format_version {version}"
        ) as info:
            load_checkpoint(path)
        assert path in str(info.value)
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_version_1_document_is_refused(self, checkpoint_v1):
        # format 1 carried the shard width in the task; no loader reads it
        self.check_old_format_refused(checkpoint_v1, 1)

    def test_version_2_document_is_refused(self, checkpoint_v2):
        # format 2 carried best_found, the search's answer; no loader reads it
        self.check_old_format_refused(checkpoint_v2, 2)

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
        ("1.5", '"\u00e9"'),
    ], ids=["int_past_str_limit", "non_ascii"])
    def test_decode_error_names_the_path(self, tmp_path, old, new):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(_valid_doc()).replace(old, new), encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid checkpoint JSON") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
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
        assert result.checkpoint.next_multiplier == 4
        assert result.checkpoint.shards_done == 1

    def test_deep_hit(self):
        result = run_search(SearchTask(439, 7, 10**6))
        assert result.prime == 406507
        assert result.checkpoint.next_multiplier == 926

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
        resumed = run_search(task, resume_from=Checkpoint(task, 2, 0, 0.0))
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
        assert result.checkpoint == Checkpoint(task, 2, 0, 0.0)
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
            run_search(task, resume_from=Checkpoint(task, 100, None, 1.5))


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
            if result.completed:
                break
            on_disk = load_checkpoint(path)
            assert on_disk == result.checkpoint
            seen.append(on_disk.next_multiplier)
            state = result.checkpoint
        else:
            pytest.fail("search never completed")
        assert result.prime == 406507
        assert seen == [2 + 64 * k for k in range(1, 15)]
        # the hit removes the file it resumed from
        assert not os.path.exists(path)

    def test_resume_from_hit_takes_one_shard(self, tmp_path):
        # a hit's checkpoint stops at the hit's own multiplier, so a resume
        # from its file finds the same prime and never skips it
        done = run_search(self.TASK)
        path = str(tmp_path / "cp.json")
        save_checkpoint(done.checkpoint, path)
        again = run_search(self.TASK, resume_from=load_checkpoint(path))
        assert again.prime == done.prime == 406507
        assert done.checkpoint.next_multiplier == 926
        assert again.checkpoint.next_multiplier == 926
        assert again.checkpoint.shards_done == done.checkpoint.shards_done + 1


@pytest.mark.usefixtures("narrow_shards")
class TestCheckpointWrites:
    """A search writes its checkpoint only where the write saves work: a
    _CHECKPOINT_INTERVAL after its start or its last write, and at once on
    suspension or interrupt.  A completion writes nothing: it removes the
    file the search resumed from or wrote."""

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
        ]
        assert [c.shards_done for c in saves] == list(range(1, 15))
        assert result.prime == 406507
        # the hit removes the file the search wrote
        assert not os.path.exists(path)

    @pytest.mark.parametrize("task", [
        TASK, SearchTask(406507, 67, 2 * 10**9),
    ], ids=["hit", "exhaustion"])
    def test_completion_removes_the_file_it_resumed_from(self, tmp_path, saves, task):
        path = str(tmp_path / "cp.json")
        suspended = run_search(task, checkpoint_path=path, max_shards=1)
        assert load_checkpoint(path) == suspended.checkpoint
        resumed = run_search(
            task, resume_from=load_checkpoint(path), checkpoint_path=path
        )
        assert resumed.completed
        assert saves == [suspended.checkpoint]
        assert not os.path.exists(path)

    def test_completion_leaves_a_file_it_did_not_resume_from(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("another search's state")
        assert run_search(self.TASK, checkpoint_path=str(path)).prime == 406507
        assert path.read_text() == "another search's state"

    def test_resume_from_memory_leaves_a_file_that_is_not_its_state(
        self, tmp_path
    ):
        # resumed from a checkpoint in memory, the search finds at the path
        # a file it neither saved nor resumed from: not JSON, or the
        # checkpoint of other progress
        path = tmp_path / "cp.json"
        suspended = run_search(self.TASK, max_shards=1)
        other = Checkpoint(self.TASK, 2 + 64 * 5, 5, 1.0)
        save_checkpoint(other, str(path))
        for text in ["another search's state", path.read_text()]:
            path.write_text(text)
            resumed = run_search(
                self.TASK, resume_from=suspended.checkpoint, checkpoint_path=str(path)
            )
            assert resumed.prime == 406507
            assert path.read_text() == text

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_progress_written_when_the_interval_passes(
        self, tmp_path, search_clock, saves, monkeypatch, workers
    ):
        # every shard moves the clock a third of the interval on: in-process
        # while it is scanned, in a pool while the parent waits for it
        step = searchctl._CHECKPOINT_INTERVAL / 3

        def slow_scan(*args):
            search_clock[0] += step
            return scan_multiplier_range(*args)

        class WaitingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                result = future.result

                def slow_result():
                    search_clock[0] += step
                    return result()

                future.result = slow_result
                return future

        if workers == 1:
            monkeypatch.setattr(searchctl, "scan_multiplier_range", slow_scan)
        else:
            monkeypatch.setattr(searchctl, "_POOL_AFTER_S", 0)
            monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", WaitingPool)
        path = str(tmp_path / "cp.json")
        result = run_search(self.TASK, workers=workers, checkpoint_path=path)
        first = saves[0]
        assert first.next_multiplier == 2 + 64 * 3
        assert first.shards_done == 3
        assert first.wall_seconds == searchctl._CHECKPOINT_INTERVAL
        # each write follows a finalized shard and the clock restarts at it,
        # on both paths alike; the hit removes the file
        assert [c.next_multiplier for c in saves] == [
            2 + 64 * k for k in (3, 6, 9, 12)
        ]
        assert [c.shards_done for c in saves] == [3, 6, 9, 12]
        assert result.prime == 406507
        serial = run_search(self.TASK)
        assert result.checkpoint.shards_done == serial.checkpoint.shards_done
        assert not os.path.exists(path)

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
        assert on_disk.shards_done == 3
        resumed = run_search(self.TASK, resume_from=on_disk)
        assert resumed.prime == 406507
        assert resumed.checkpoint.shards_done == 15

    def test_interrupt_in_a_pool_writes_the_state_so_far(
        self, tmp_path, monkeypatch, pools
    ):
        monkeypatch.setattr(searchctl, "_POOL_AFTER_S", 0)
        path = str(tmp_path / "cp.json")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(searchctl, "scan_multiplier_range", scan_interrupted_at_sixth)
            with pytest.raises(KeyboardInterrupt):
                run_search(self.TASK, workers=2, checkpoint_path=path)
        assert pools == [2]
        # the five shards below the interrupted one were finalized
        on_disk = load_checkpoint(path)
        assert on_disk.next_multiplier == 2 + 64 * 5
        assert on_disk.shards_done == 5
        resumed = run_search(self.TASK, resume_from=on_disk)
        uninterrupted = run_search(self.TASK)
        assert resumed.prime == uninterrupted.prime == 406507
        assert resumed.checkpoint.shards_done == uninterrupted.checkpoint.shards_done

    def test_sigint_ends_a_pool_wait(self, tmp_path):
        # the parent waits for each future with no timeout; a SIGINT sent to
        # the parent alone still ends that wait, saves the progress so far
        # and re-raises, once the shards running in the workers have ended
        script = tmp_path / "search.py"
        script.write_text(_POOLED_SEARCH)
        path = str(tmp_path / "cp.json")
        package_dir = os.path.dirname(os.path.dirname(pfib.__file__))
        proc = subprocess.Popen(
            [sys.executable, str(script), path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": package_dir},
        )
        try:
            assert proc.stdout.readline() == "searching\n"
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            sent = time.monotonic()
            _, err = proc.communicate(timeout=10)
            waited = time.monotonic() - sent
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130, err
        assert waited < 5
        on_disk = load_checkpoint(path)
        # the subprocess cuts shards of the default width, not this class's 64
        assert on_disk.next_multiplier > 2
        assert on_disk.next_multiplier == 2 + DEFAULT_SHARD_WIDTH * on_disk.shards_done

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
        spent = suspended.checkpoint._replace(wall_seconds=searchctl._POOL_AFTER_S)
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
        clone = checkpoint._replace(wall_seconds=0.0)
        clone.validate()

    def test_exhausted_checkpoint_covers_whole_range(self):
        task = SearchTask(406507, 67, 2_000_000_000)
        result = run_search(task)
        limit = multiplier_limit(task.constraint_prime, task.partner, task.bound)
        assert result.checkpoint.next_multiplier > limit
