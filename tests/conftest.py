import os
import shutil

import pytest

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data")

# name -> passed, filled in as acceptance-marked tests run
_acceptance_results: dict[str, bool] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: end-to-end acceptance criterion with a runtime budget"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.get_closest_marker("acceptance") and report.when == "call":
        _acceptance_results[item.name] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _acceptance_results.items():
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture
def bfile_path() -> str:
    return os.path.join(FIXTURE_DIR, "b255562.txt")


@pytest.fixture
def checkpoint_v1(tmp_path) -> str:
    """A copy of a format-1 step-16 checkpoint, suspended after one shard."""
    path = tmp_path / "checkpoint_v1.json"
    shutil.copy(os.path.join(FIXTURE_DIR, "checkpoint_v1.json"), path)
    return str(path)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from pfib.cli import main

    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke
