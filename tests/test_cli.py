import json
import shutil
import subprocess
import sys

import pytest

from pfib.cli import BFileError, main, parse_bfile

A255562_LINE = "3 5 7 3 11 7 37 19 277 331 223 439 7 406507 67"


def records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


class TestParseBfile:
    def test_skips_comments_and_blanks(self):
        lines = ["# header", "", "1 3", "  ", "2 5", "# trailing"]
        assert parse_bfile(lines) == [(1, 3), (2, 5)]

    def test_negative_offsets_allowed_in_index(self):
        assert parse_bfile(["-1 3", "0 5"]) == [(-1, 3), (0, 5)]

    def test_rejects_field_count(self):
        with pytest.raises(BFileError, match="line 2"):
            parse_bfile(["1 3", "2 5 8"])

    def test_rejects_non_integer(self):
        with pytest.raises(BFileError, match="non-integer"):
            parse_bfile(["1 three"])

    def test_rejects_non_increasing_index(self):
        with pytest.raises(BFileError, match="not above previous"):
            parse_bfile(["2 3", "2 5"])

    def test_rejects_negative_value(self):
        with pytest.raises(BFileError, match="negative value"):
            parse_bfile(["1 -3"])


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

    def test_crt_exhaustion_exit_code(self, run_cli):
        code, _, err = run_cli(
            "extend-left", "5", "7", "--method", "crt", "--max-steps", "1"
        )
        assert code == 3
        assert err.startswith("error:")

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
            "999999937 3 ", "term 3: no candidate <= 200000000"
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

    def test_checkpoint_past_task_range_is_refused(self, run_cli, tmp_path):
        # the step 439, 7 -> 406507 has multiplier limit 22779; a file that
        # claims multipliers up to 10**6 are done would skip the answer
        path = tmp_path / "state.json"
        text = json.dumps({
            "format_version": 2,
            "task": {"constraint_prime": 439, "partner": 7, "bound": 10**7},
            "next_multiplier": 10**6, "best_found": None,
            "shards_done": 16, "wall_seconds": 0.5,
        })
        path.write_text(text)
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "15", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")
        assert str(path) in err and "multiplier limit" in err
        assert path.read_text() == text

    def test_version_1_checkpoint_is_refused(self, run_cli, checkpoint_v1):
        with open(checkpoint_v1, "rb") as handle:
            before = handle.read()
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "17", "--bound", "1_000_000_000_000",
            "--checkpoint", checkpoint_v1,
        )
        assert code == 2 and err.startswith("error:")
        assert checkpoint_v1 in err and "unsupported format_version 1" in err
        with open(checkpoint_v1, "rb") as handle:
            assert handle.read() == before

    def test_checkpoint_in_missing_directory(self, run_cli, tmp_path):
        path = tmp_path / "missing" / "state.json"
        code, _, err = run_cli(
            "reversed", "3", "5", "--terms", "5", "--checkpoint", str(path)
        )
        assert code == 2 and err.startswith("error:")

    def test_interrupt_keeps_records_stream_clean(self, run_cli, monkeypatch):
        def interrupted(seed, num_terms, per_step_bound, *, on_term, **kwargs):
            on_term(0, seed.p1)
            raise KeyboardInterrupt

        monkeypatch.setattr("pfib.seqcore.generate_reversed", interrupted)
        code, out, err = run_cli(
            "reversed", "3", "5", "--terms", "5", "--format", "records"
        )
        assert code == 130 and "interrupted" in err
        assert [json.loads(line)["value"] for line in out.splitlines()] == ["3"]

class TestWorkerResolution:
    def test_default_is_cpu_count(self, run_cli, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 5)
        _, out, _ = run_cli(
            "reversed", "3", "5", "--terms", "2", "--format", "records"
        )
        assert records(out)[-1]["inputs"]["workers"] == "5"


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
        code, out, err = run_cli("green-tao", "--k", "5", "--search-limit", "100")
        assert code == 3
        assert out == ""
        assert "length 9" in err

    @pytest.mark.parametrize("argv,fragment", [
        (("green-tao", "--k", "2"), "--k"),
        (("green-tao", "--k", "3", "--ap", "3,2"), "first,difference,length"),
        (("green-tao", "--k", "3", "--ap", "9,2,3"), "not prime"),
        (("green-tao", "--k", "4", "--ap", "3,2,3"), "length 5"),
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

    def test_garbage_line(self, run_cli, tmp_path):
        target = tmp_path / "junk.txt"
        target.write_text("1 3\nnot a data line\n")
        code, _, err = run_cli("verify-bfile", "3", "5", str(target))
        assert code == 2
        assert "line 2" in err

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
        code, out, _ = run_cli("--help")
        assert code == 0
        assert "forward" in out and "verify-bfile" in out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pfib", "forward", "5", "7"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "5 7 3 5 | terminated: 8\n"

    def test_console_script(self):
        exe = shutil.which("pfib")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "reversed", "3", "5", "--terms", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "3 5 7 3\n"
