import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import oracles
import pfib
from pfib import cli
from pfib.searchctl import Checkpoint, SearchTask, save_checkpoint

A255562_LINE = "3 5 7 3 11 7 37 19 277 331 223 439 7 406507 67"


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


def run_module(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m pfib` with the tested package first on its path."""
    package_dir = os.path.dirname(os.path.dirname(pfib.__file__))
    return subprocess.run(
        [sys.executable, "-m", "pfib", *argv], text=True,
        env={**os.environ, "PYTHONPATH": package_dir}, **kwargs,
    )


class TestForwardCommand:
    def test_plain(self, run_cli):
        code, out, err = run_cli("forward", "5", "7")
        assert code == 0 and err == ""
        assert out == "5 7 3 5 | terminated: 8\n"

    def test_plain_constant(self, run_cli):
        code, out, _ = run_cli("forward", "3", "3")
        assert code == 0
        assert out == "3 3 | constant\n"

    def test_plain_truncated(self, run_cli):
        code, out, _ = run_cli("forward", "5", "7", "--max-terms", "3")
        assert code == 0
        assert out == "5 7 3 | truncated: 3\n"

    def test_records(self, run_cli):
        code, out, _ = run_cli("forward", "5", "7", "--format", "records")
        assert code == 0
        (record,) = records(out)
        assert record["command"] == "forward"
        assert record["inputs"] == {"p1": "5", "p2": "7", "max_terms": "1000"}
        assert record["result"] == {
            "terms": ["5", "7", "3", "5"],
            "status": "terminated",
            "final_sum": "8",
        }
        assert isinstance(record["timing"], float)

    @pytest.mark.parametrize("bad", ["4", "1", "abc", "-3"])
    def test_rejects_bad_seed(self, run_cli, bad):
        code, out, err = run_cli("forward", bad, "7")
        assert code == 2
        assert out == "" and err.startswith("error:")


    def test_max_terms_below_two_is_usage_error(self, run_cli):
        code, out, err = run_cli("forward", "5", "7", "--max-terms", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "max_terms" in err


class TestExtendLeftCommand:
    def test_minimal_plain(self, run_cli):
        code, out, _ = run_cli("extend-left", "5", "7")
        assert code == 0
        assert out == "23\n"

    def test_minimal_records(self, run_cli):
        code, out, _ = run_cli(
            "extend-left", "5", "7", "--bound", "100", "--format", "records"
        )
        assert code == 0
        (record,) = records(out)
        assert record["inputs"] == {
            "p1": "5", "p2": "7", "method": "minimal", "bound": "100",
        }
        assert record["result"] == {"p0": "23"}

    def test_minimal_exhausted(self, run_cli):
        code, out, _ = run_cli("extend-left", "67", "406507", "--bound", "1000000")
        assert code == 3
        assert out == "no candidate <= 1000000\n"

    def test_minimal_exhausted_records(self, run_cli):
        code, out, _ = run_cli(
            "extend-left", "67", "406507", "--bound", "1000000",
            "--format", "records",
        )
        assert code == 3
        (record,) = records(out)
        assert record["result"] == {
            "p0": None, "status": "bound_exhausted", "bound": "1000000",
        }

    def test_crt_plain(self, run_cli):
        code, out, _ = run_cli("extend-left", "5", "7", "--method", "crt")
        assert code == 0
        assert out.splitlines() == [
            "191",
            "system: 2 mod 3, 1 mod 5, 2 mod 7",
            "solution: 86 mod 105",
            "progression index: 1",
        ]

    def test_crt_records(self, run_cli):
        code, out, _ = run_cli(
            "extend-left", "13", "5", "--method", "crt", "--format", "records"
        )
        assert code == 0
        (record,) = records(out)
        assert record["inputs"] == {"p1": "13", "p2": "5", "method": "crt"}
        assert record["result"] == {
            "p0": "7",
            "system": [
                {"residue": "1", "modulus": "3"},
                {"residue": "2", "modulus": "5"},
            ],
            "solution": "7",
            "combined_modulus": "15",
            "progression_index": 0,
        }

    def test_crt_rejects_equal_primes(self, run_cli):
        code, _, err = run_cli("extend-left", "7", "7", "--method", "crt")
        assert code == 2 and "distinct" in err

    def test_crt_refuses_p2_from_the_limit(self, run_cli):
        started = time.perf_counter()
        code, out, err = run_cli("extend-left", "3", "10007", "--method", "crt")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the CRT construction needs p2 below 2048, got 10007\n"

    def test_underscored_bound_accepted(self, run_cli):
        code, out, _ = run_cli("extend-left", "5", "7", "--bound", "1_00")
        assert code == 0 and out == "23\n"


class TestReversedCommand:
    def test_plain_complete(self, run_cli):
        code, out, err = run_cli("reversed", "3", "5", "--terms", "15")
        assert code == 0 and err == ""
        assert out == A255562_LINE + "\n"

    def test_plain_exhausted(self, run_cli):
        code, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "16", "--bound", "2000000000"
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0].split() == A255562_LINE.split()
        assert lines[1] == "term 16: no candidate <= 2000000000"

    def test_bound_below_gap_exhausts(self, run_cli):
        # term 3 would need 999999937 to divide 3 + r, so r > 999999934
        code, out, err = run_cli(
            "reversed", "999999937", "3", "--terms", "3", "--bound", "200000000"
        )
        assert code == 3 and err == ""
        assert out.splitlines() == [
            "999999937 3", "term 3: no candidate <= 200000000"
        ]

    def test_underscored_bound(self, run_cli):
        code, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "16", "--bound", "2_000_000_000"
        )
        assert code == 3
        assert out.splitlines()[1].endswith("no candidate <= 2000000000")

    def test_records_streams_terms(self, run_cli):
        code, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "15", "--workers", "1",
            "--format", "records",
        )
        assert code == 0
        rows = records(out)
        events, summaries = rows[:-1], rows[-1:]
        assert [int(e["value"]) for e in events] == [int(t) for t in A255562_LINE.split()]
        assert [e["index"] for e in events] == list(range(1, 16))
        assert all(e["event"] == "term" for e in events)
        (summary,) = summaries
        assert summary["result"]["status"] == "complete"
        assert summary["result"]["terms"] == A255562_LINE.split()
        assert summary["inputs"]["workers"] == "1"

    def test_records_exhausted_summary(self, run_cli):
        code, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "16", "--bound", "2000000000",
            "--format", "records",
        )
        assert code == 3
        summary = records(out)[-1]
        assert summary["result"]["status"] == "bound_exhausted"
        assert summary["result"]["at_term"] == 16
        assert summary["result"]["bound"] == "2000000000"

    @pytest.mark.parametrize("argv,fragment", [
        (("reversed", "3", "5", "--terms", "1"), "--terms"),
        (("reversed", "3", "5", "--terms", "5", "--bound", "0"), "--bound"),
        (("reversed", "3", "5", "--terms", "5", "--workers", "0"), "workers"),
        (("reversed", "2", "5", "--terms", "5"), "not an odd prime"),
    ])
    def test_rejects_bad_arguments(self, run_cli, argv, fragment):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert fragment in err


    def test_refused_checkpoint_is_left_in_place(self, run_cli, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"format_version": 1}')
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "5", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")
        assert path.read_text() == '{"format_version": 1}'

    def test_sieve_past_the_ceiling_is_refused(self, run_cli, tmp_path):
        # step 22 of A255562 resumed at j = a20, whose sieve would need the
        # primes up to 2**44 - 1: a clear error and exit 2, not a traceback
        a20, a21 = 223724392248491824062507397, 3691561
        path = tmp_path / "state.json"
        task = SearchTask(a20, a21, 10**60)
        save_checkpoint(Checkpoint(task, 2 * a20, 0, 0.0), str(path))
        before = path.read_text()
        code, out, err = run_cli(
            "reversed", str(a20), str(a21), "--terms", "3", "--bound", str(10**60),
            "--workers", "1", "--checkpoint", str(path),
        )
        assert code == 2 and err.startswith("error:")
        assert "88 bits" in err and "primes up to 17592186044415" in err
        assert out == f"{a20} {a21}\n"
        assert path.read_text() == before

    def test_checkpoint_past_task_range_is_refused(self, run_cli, tmp_path):
        # the step 439, 7 -> 406507 has multiplier limit 22779; a file that
        # claims multipliers up to 10**6 are done would skip the answer
        path = tmp_path / "state.json"
        text = json.dumps({
            "format_version": 3,
            "task": {"constraint_prime": 439, "partner": 7, "bound": 10**7},
            "next_multiplier": 10**6, "shards_done": 16, "wall_seconds": 0.5,
        })
        path.write_text(text)
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "15", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")
        assert str(path) in err and "multiplier limit" in err
        assert path.read_text() == text

    @staticmethod
    def check_old_format_refused(run_cli, path, version):
        with open(path, "rb") as handle:
            before = handle.read()
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "17", "--bound", "1_000_000_000_000",
            "--checkpoint", path,
        )
        assert code == 2 and err.startswith("error:")
        assert path in err and f"unsupported format_version {version}" in err
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_version_1_checkpoint_is_refused(self, run_cli, checkpoint_v1):
        self.check_old_format_refused(run_cli, checkpoint_v1, 1)

    def test_version_2_checkpoint_is_refused(self, run_cli, checkpoint_v2):
        self.check_old_format_refused(run_cli, checkpoint_v2, 2)

    def test_deeply_nested_checkpoint_is_refused(self, run_cli, tmp_path):
        # json.loads raises RecursionError on such a file, not a ValueError
        path = tmp_path / "state.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "4", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")
        assert str(path) in err and "not valid checkpoint JSON" in err

    def test_checkpoint_at_another_bound_is_refused(self, run_cli, tmp_path):
        # step 16's file at 10**12 is no state of a run at 2_000_000_000
        path = tmp_path / "state.json"
        task = SearchTask(406507, 67, 10**12)
        save_checkpoint(Checkpoint(task, 393218, 6, 0.0001), str(path))
        before = path.read_bytes()
        code, out, err = run_cli(
            "reversed", "3", "5", "--terms", "16", "--bound", "2_000_000_000",
            "--checkpoint", str(path),
        )
        assert code == 2 and out == "3 5\n"
        assert err == (
            f"error: {path}: checkpoint bound 1000000000000 is not the run's"
            " bound 2000000000\n"
        )
        assert path.read_bytes() == before

    def test_checkpoint_in_missing_directory(self, run_cli, tmp_path):
        path = tmp_path / "missing" / "state.json"
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "5", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt, RuntimeError])
@pytest.mark.parametrize("fmt", ["plain", "records"])
@pytest.mark.parametrize("command", ["forward", "reversed"])
def test_every_exit_ends_the_stream(run_cli, capsys, monkeypatch, command, fmt, raised):
    # a run stopped after its seeds by a mapped error, Ctrl-C or an
    # exception main lets through: the streamed line is ended on each exit,
    # and a records stream holds only whole term events
    def stopped(seed, *args, on_term, **kwargs):
        if on_term is not None:  # a forward run in records format streams none
            on_term(0, seed.p1)
            on_term(1, seed.p2)
        raise raised("stopped")

    monkeypatch.setattr(f"pfib.seqcore.generate_{command}", stopped)
    argv = {"forward": ("forward", "5", "7"),
            "reversed": ("reversed", "3", "5", "--terms", "5")}[command]
    argv += ("--format", fmt)
    if raised is RuntimeError:
        with pytest.raises(RuntimeError, match="stopped"):
            cli.main(list(argv))
        code, (out, err) = None, capsys.readouterr()
        assert err == ""
    else:
        code, out, err = run_cli(*argv)
    if raised is ValueError:
        assert code == 2 and err == "error: stopped\n"
    elif raised is KeyboardInterrupt:
        assert code == 130 and "interrupted" in err
    if fmt == "plain":
        assert out == " ".join(argv[1:3]) + "\n"
    elif command == "forward":
        assert out == ""
    else:
        assert [json.loads(line)["value"] for line in out.splitlines()] == ["3", "5"]
        assert out == (
            '{"command":"reversed","event":"term","index":1,"value":"3"}\n'
            '{"command":"reversed","event":"term","index":2,"value":"5"}\n'
        )


class TestWorkerResolution:
    def test_default_is_cpu_count(self, run_cli, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)),
                            raising=False)
        _, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "2", "--format", "records"
        )
        assert records(out)[-1]["inputs"]["workers"] == "5"

    def test_more_than_the_cpu_count_is_refused(self, run_cli, monkeypatch, pools):
        # a pool forks all its workers at once, so the count is checked
        # before any search: none may run, nor any pool start
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr("pfib.seqcore.generate_reversed", no_search)
        code, out, err = run_cli("reversed", "3", "5", "--terms", "5", "--workers", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "at most 2, the CPU count, got 3" in err
        assert pools == []


class TestGreenTaoCommand:
    def test_plain_k4(self, run_cli):
        code, out, _ = run_cli("green-tao", "--k", "4")
        assert code == 0
        assert out.splitlines() == [
            "ap: first=5 difference=6 length=5",
            "indices: 0 4 2 3",
            "sequence: 5 29 17 23 5 7 3 5 | terminated: 8",
            "length: 8 (required >= 4)",
        ]

    def test_explicit_ap(self, run_cli):
        code, out, _ = run_cli("green-tao", "--k", "3", "--ap", "3,2,3")
        assert code == 0
        assert out.splitlines()[2] == "sequence: 3 7 5 3 | terminated: 8"

    def test_k6_from_a_known_17_term_ap(self, run_cli):
        # k = 6 needs 2**4 + 1 = 17 primes in progression, beyond what
        # find_prime_ap reaches by brute force; every member is below 2**64
        ap = "3430751869,87297210,17"
        code, out, err = run_cli("green-tao", "--k", "6", "--ap", ap)
        assert (code, err) == (0, "")
        assert out == (
            "ap: first=3430751869 difference=87297210 length=17\n"
            "indices: 0 16 8 12 10 11\n"
            "sequence: 3430751869 4827507229 4129129549 4478318389 4303723969"
            " 4391021179 2173686287 3 5 | terminated: 8\n"
            "length: 9 (required >= 6)\n"
        )

    def test_records_k5(self, run_cli):
        code, out, _ = run_cli("green-tao", "--k", "5", "--format", "records")
        assert code == 0
        (record,) = records(out)
        assert record["result"]["ap"] == {
            "first": "199", "difference": "210", "length": 9,
        }
        assert record["result"]["indices"] == [0, 8, 4, 6, 5]
        assert record["result"]["terms"] == [
            "199", "1879", "1039", "1459", "1249", "677", "3", "5",
        ]
        assert record["result"]["length"] == 8

    def test_search_limit_exhaustion(self, run_cli):
        # an exhausted search is a result, on stdout, as for extend-left
        code, out, err = run_cli("green-tao", "--k", "5", "--search-limit", "100")
        assert (code, err) == (3, "")
        assert out == (
            "no prime progression of length 9 with first term and difference"
            " <= 100\n"
        )

    def test_search_limit_one_is_genuine_exhaustion(self, run_cli):
        code, out, err = run_cli("green-tao", "--k", "3", "--search-limit", "1")
        assert (code, err) == (3, "")
        assert out == (
            "no prime progression of length 3 with first term and difference"
            " <= 1\n"
        )

    def test_search_limit_bounds_the_difference_too(self, run_cli):
        # 5, 11, 17, 23, 29 has first term 5 but difference 6
        code, out, err = run_cli("green-tao", "--k", "4", "--search-limit", "5")
        assert (code, err) == (3, "")
        assert out == (
            "no prime progression of length 5 with first term and difference"
            " <= 5\n"
        )
        code, out, err = run_cli("green-tao", "--k", "4", "--search-limit", "6")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "ap: first=5 difference=6 length=5"

    def test_records_search_limit_exhaustion(self, run_cli):
        code, out, err = run_cli(
            "green-tao", "--k", "5", "--search-limit", "100", "--format", "records"
        )
        assert (code, err) == (3, "")
        (record,) = records(out)
        assert record["command"] == "green-tao"
        assert record["inputs"] == {"k": "5", "ap": None, "search_limit": "100"}
        assert record["result"] == {
            "ap": None, "status": "search_limit_exhausted", "search_limit": "100",
        }

    @pytest.mark.parametrize("argv,fragment", [
        (("green-tao", "--k", "2"), "--k"),
        (("green-tao", "--k", "3", "--ap", "3,2"), "first,difference,length"),
        (("green-tao", "--k", "3", "--ap", "9,2,3"), "not prime"),
        (("green-tao", "--k", "4", "--ap", "3,2,3"), "length 5"),
        (("green-tao", "--k", "3", "--search-limit", "-5"),
         "--search-limit must be positive, got -5"),
        (("green-tao", "--k", "3", "--search-limit", "0"), "--search-limit"),
    ])
    def test_rejects_bad_arguments(self, run_cli, argv, fragment):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert fragment in err


class TestVerifyBfileCommand:
    def test_match(self, run_cli, bfile_path):
        code, out, _ = run_cli("verify-bfile", "3", "5", bfile_path)
        assert code == 0
        assert out == "ok: 15 terms match\n"

    def test_match_records(self, run_cli, bfile_path):
        code, out, _ = run_cli(
            "verify-bfile", "3", "5", bfile_path, "--format", "records"
        )
        assert code == 0
        (record,) = records(out)
        assert record["result"] == {"entries": 15, "status": "match"}

    def test_mismatch(self, run_cli, bfile_path, tmp_path):
        target = tmp_path / "bad.txt"
        lines = []
        with open(bfile_path) as handle:
            for line in handle:
                lines.append("7 39\n" if line.strip() == "7 37" else line)
        target.write_text("".join(lines))
        code, out, _ = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 4
        assert out == "index 7: expected 39, got 37\n"

    def test_mismatch_records(self, run_cli, bfile_path, tmp_path):
        target = tmp_path / "bad.txt"
        shutil.copy(bfile_path, target)
        with open(target, "a") as handle:
            handle.write("16 1000003\n")
        code, out, _ = run_cli(
            "verify-bfile", "3", "5", str(target), "--format", "records"
        )
        assert code == 4
        (record,) = records(out)
        assert record["result"]["status"] == "mismatch"
        assert record["result"]["index"] == 16
        assert record["result"]["expected"] == "1000003"

    @pytest.mark.parametrize("text,entries", [
        ("1 3\n2 5\n4 3\n", 3),  # a gap: term 4 is 3
        ("2 5\n3 7\n4 3\n", 3),  # an offset: the file starts at term 2
        ("1 3\n", 1),  # one entry still generates the seed pair
    ], ids=["gapped", "offset", "single"])
    def test_entries_match_by_index(self, run_cli, tmp_path, text, entries):
        target = tmp_path / "part.txt"
        target.write_text(text)
        code, out, _ = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 0
        assert out == f"ok: {entries} terms match\n"

    @pytest.mark.parametrize("text,code,out,err", [
        ("# header\n\n1 3\n  \n2 5\n# trailing\n", 0, "ok: 2 terms match\n", ""),
        ("1 3\n2 5 8\n", 2, "", "line 2: expected 'index value', got '2 5 8'"),
        ("1 three\n", 2, "", "line 1: non-integer field in '1 three'"),
        ("1 3\n1 5\n", 2, "", "line 2: index 1 not above previous 1"),
        ("1 -3\n", 2, "", "line 1: negative value -3"),
    ], ids=["comments_and_blanks", "three_fields", "non_integer",
            "repeated_index", "negative_value"])
    def test_line_rules(self, run_cli, tmp_path, text, code, out, err):
        target = tmp_path / "b.txt"
        target.write_text(text)
        expected = (code, out, f"error: {target}: {err}\n" if err else "")
        assert run_cli("verify-bfile", "3", "5", str(target)) == expected

    def test_index_below_one_is_refused(self, run_cli, tmp_path):
        target = tmp_path / "zero.txt"
        target.write_text("# offset 0\n0 3\n1 5\n")
        code, out, err = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 2 and out == ""
        assert err == f"error: {target}: line 2: index 0 below 1\n"

    def test_garbage_line(self, run_cli, tmp_path):
        target = tmp_path / "junk.txt"
        target.write_text("1 3\nnot a data line\n")
        code, _, err = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 2
        assert "line 2" in err

    def test_non_ascii_file_named(self, run_cli, tmp_path):
        target = tmp_path / "latin1.txt"
        target.write_bytes(b"1 3\n2 5\xe9\n")
        code, _, err = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 2
        assert f"{target}: 'ascii' codec can't decode" in err

    def test_empty_file(self, run_cli, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("# nothing but comments\n")
        code, _, err = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 2
        assert "no entries" in err

    def test_missing_file(self, run_cli, tmp_path):
        code, _, err = run_cli("verify-bfile", "3", "5", str(tmp_path / "nope"))
        assert code == 2
        assert "cannot read" in err



@pytest.mark.parametrize("argv", [
    ("forward", "5", "7"),
    ("extend-left", "5", "7", "--method", "crt"),
    ("reversed", "3", "5", "--terms", "4", "--workers", "1"),
    ("green-tao", "--k", "3"),
    ("verify-bfile", "3", "5", None),  # None stands for the bundled b-file
], ids=lambda argv: argv[0])
def test_records_share_one_envelope(run_cli, bfile_path, argv):
    argv = [bfile_path if arg is None else arg for arg in argv]
    code, out, _ = run_cli(*argv, "--format", "records")
    assert code == 0
    final = json.loads(out.splitlines()[-1])
    assert set(final) == {"command", "inputs", "result", "timing"}
    assert final["command"] == argv[0]

class TestParserPlumbing:
    def test_no_arguments_is_usage_error(self, run_cli):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_command(self, run_cli):
        code, _, _ = run_cli("summon")
        assert code == 2

    def test_help_exits_zero(self, run_cli):
        # and lists every command with its help
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: pfib [-h] {forward,extend-left,reversed,")
        for command, (_, text, _, _) in cli._COMMANDS.items():
            assert any(line.split() == [command, *text.split()]
                       for line in out.splitlines()), command

    @pytest.mark.parametrize("argv", [
        ("reversed", "--help"), ("reversed", "3", "-h"), ("reversed", "--he"),
    ])
    def test_command_help_lists_every_option(self, run_cli, argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == (
            "usage: pfib reversed [-h] [--format {plain,records}] --terms TERMS"
            " [--bound BOUND] [--workers WORKERS] [--checkpoint CHECKPOINT] p q"
        )
        for form, text in [
            ("--format {plain,records}", "plain text or one JSON record per line"),
            ("--terms TERMS", "terms to generate, the seeds included"),
            ("--bound BOUND", "largest candidate of each step"),
            ("--workers WORKERS", "search processes (default: the CPU count)"),
            ("--checkpoint CHECKPOINT", "file that saves and resumes a search"),
        ]:
            assert any(line.split() == [*form.split(), *text.split()]
                       for line in lines), form

    # argparse's wording for each kind of usage error, which _parse keeps
    @pytest.mark.parametrize("argv,usage,message", [
        ((), "usage: pfib [-h] {forward,extend-left,reversed,green-tao,verify-bfile}",
         "pfib: error: the following arguments are required: command"),
        (("summon",), None,
         "pfib: error: argument command: invalid choice: 'summon' (choose from "
         "'forward', 'extend-left', 'reversed', 'green-tao', 'verify-bfile')"),
        (("reversed", "3", "5"), "usage: pfib reversed [-h] ",
         "pfib reversed: error: the following arguments are required: --terms"),
        (("reversed", "--terms", "4"), None,
         "pfib reversed: error: the following arguments are required: p, q"),
        (("reversed", "3", "5", "--terms", "x"), None,
         "pfib reversed: error: argument --terms: invalid int value: 'x'"),
        (("reversed", "3", "5", "--terms"), None,
         "pfib reversed: error: argument --terms: expected one argument"),
        (("forward", "5", "7", "--format=json"), "usage: pfib forward [-h] ",
         "pfib forward: error: argument --format: invalid choice: 'json' "
         "(choose from 'plain', 'records')"),
        (("extend-left", "5", "7", "--=crt"), None,
         "pfib extend-left: error: ambiguous option: --=crt could match --help, "
         "--format, --method, --bound"),
        (("forward", "5", "7", "9", "--bogus"), None,
         "pfib forward: error: unrecognized arguments: 9 --bogus"),
    ])
    def test_usage_errors_keep_argparse_wording(self, run_cli, argv, usage, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        first, second = err.splitlines()
        assert first.startswith(usage or "usage: pfib")
        assert second == message


class TestArgparseParity:
    """The table parser against the argparse parser it replaced."""

    VALID = [
        ("forward", "5", "7"),
        ("forward", "5", "7", "--max-terms", "3", "--format", "records"),
        ("forward", "--max-terms=3", "5", "7"),
        ("forward", "5", "--max-terms", "3", "7"),
        ("forward", "5", "7", "--max", "3", "--max", "4"),
        ("forward", "-5", "7", "--max-terms", "-3"),
        ("extend-left", "5", "7", "--method", "crt", "--bound", "5",
         "--format", "plain"),
        ("extend-left", "5", "7", "--met=crt", "--bo", "1_000"),
        ("extend-left", "5", "7", "--m", "crt"),
        ("reversed", "3", "5", "--terms", "4", "--bound", "-1"),
        ("reversed", "3", "5", "--term", "4", "--w", "1", "--check", "c.json",
         "--f", "records"),
        ("reversed", "--terms=4", "3", "--bound=2_000_000_000", "5"),
        ("reversed", "3", "5", "--terms", "4", "--terms", "5"),
        ("green-tao", "--k", "3"),
        ("green-tao", "--k=6", "--ap", "3,2,3", "--search-limit", "-5"),
        ("verify-bfile", "3", "5", "b.txt", "--format=records"),
        ("forward", "--", "-5", "7"),
    ]
    INVALID = [
        (),
        ("summon",),
        ("--format", "plain", "forward", "5", "7"),
        ("forward", "5"),
        ("forward", "5", "7", "9"),
        ("reversed", "3", "5"),
        ("reversed", "3", "5", "--terms"),
        ("reversed", "3", "5", "--terms", "--bound", "9"),
        ("reversed", "3", "5", "--terms", "4.0"),
        ("green-tao", "--k", "x"),
        ("forward", "5", "7", "--format", "json"),
        ("extend-left", "5", "7", "--method", "best"),
        ("forward", "5", "7", "--bogus", "1"),
        ("extend-left", "5", "7", "--=crt"),
        # extend-left has no --max-steps: refused as any unknown option is
        ("extend-left", "5", "7", "--method", "crt", "--max-steps", "10",
         "--bound", "5", "--format", "plain"),
        ("extend-left", "5", "7", "--met=crt", "--max-s", "1_000"),
    ]

    @staticmethod
    def reference(argv):
        parser = oracles.argparse_cli_parser()
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                return 0, vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code, None

    @staticmethod
    def table(argv):
        try:
            fields = vars(cli._parse(argv))
        except cli._Exit as exc:
            return exc.args[0], None
        return 0, {**fields, "func": fields["func"].__name__}

    @pytest.mark.parametrize("argv", VALID + INVALID, ids=" ".join)
    def test_same_status_and_fields(self, argv):
        expected = self.reference(list(argv))
        assert expected[0] == (2 if argv in self.INVALID else 0)
        assert self.table(list(argv)) == expected


class TestParserReuse:
    CALLS = [
        ("forward", "5", "7"),
        ("reversed", "3", "5", "--terms", "6", "--workers", "1",
         "--format", "records"),
        ("extend-left", "5", "7", "--method", "crt"),
        ("green-tao", "--k", "4"),
        ("verify-bfile", "3", "5", None),  # None stands for the bundled b-file
        ("--help",),
        ("reversed", "3", "5"),  # no --terms
        ("forward", "9", "7"),
    ]

    @staticmethod
    def untimed(out: str) -> str:
        # a records line's "timing" differs from run to run
        lines = []
        for line in out.splitlines():
            if line.startswith("{"):
                record = json.loads(line)
                record.pop("timing", None)
                line = json.dumps(record)
            lines.append(line)
        return "\n".join(lines)

    def test_reused_parser_matches_a_fresh_one(self, run_cli, bfile_path):
        # main keeps no state between calls: each call's second run in one
        # process prints and returns what its first did
        calls = [[bfile_path if a is None else a for a in argv] for argv in self.CALLS]
        first = [run_cli(*argv) for argv in calls]
        second = [run_cli(*argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 2, 2]
        for (code, out, err), (code2, out2, err2) in zip(first, second):
            assert (code, self.untimed(out), err) == (code2, self.untimed(out2), err2)

    def test_built_on_the_first_main_not_at_import(self):
        # the command table is read as it stands: no argparse parser is built
        # at import or by any main call, even with argparse loaded by the
        # caller; -S keeps site hooks from building one first
        code = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import pfib, pfib.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert pfib.cli.main(['forward', '5', '7']) == 0\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n"
        )
        package_dir = os.path.dirname(os.path.dirname(pfib.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 0 0\n"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pfib", "forward", "5", "7"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "5 7 3 5 | terminated: 8\n"

    def test_rho_refusal_keeps_the_seeds(self):
        # the README's example: the seeds' sum is 2 * (a product of two
        # 80-bit primes), past the rho budget
        seeds = ("1181640291642918365944871538900041798133700239031",
                 "1181640291642918365944871538900041798133700247611")
        proc = run_module("forward", *seeds, capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == " ".join(seeds) + "\n"
        assert proc.stderr == (
            "error: no factor of a 160-bit integer found within 524288 rho steps\n"
        )

    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("forward", "5", "7"),
        ("forward", "5", "7", "--format", "records"),
        ("reversed", "3", "5", "--terms", "4"),
        ("reversed", "3", "5", "--terms", "4", "--format", "records"),
        ("extend-left", "5", "7", "--method", "crt"),
    ])
    def test_closed_stdout_exits_141_quietly(self, argv):
        # stdout is a pipe whose reader has gone, as in `pfib ... | true`:
        # 128 + SIGPIPE, as a shell reports a process that signal killed
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module(*argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_import_leaves_out_the_pool_stack(self):
        # a search imports the process-pool machinery only to build a pool,
        # the records are named tuples, so no import loads dataclasses (or
        # the inspect it imports) or typing, and the command line is read
        # without argparse (or the gettext it imports), also by a first
        # main call; -S keeps site hooks from loading any of them first
        code = (
            "import contextlib, io, sys, pfib, pfib.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert pfib.cli.main(['forward', '5', '7']) == 0\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing', "
            "'dataclasses', 'inspect', 'typing', 'argparse', 'gettext') "
            "if m in sys.modules])\n"
        )
        package_dir = os.path.dirname(os.path.dirname(pfib.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_script(self):
        exe = shutil.which("pfib")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "reversed", "3", "5", "--terms", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3 5 7 3\n"
