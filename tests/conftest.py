import os
import shutil
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from pfib import searchctl

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


def _fixture_copy(tmp_path, name: str) -> str:
    path = tmp_path / name
    shutil.copy(os.path.join(FIXTURE_DIR, name), path)
    return str(path)


@pytest.fixture
def checkpoint_v1(tmp_path) -> str:
    """A copy of a format-1 step-16 checkpoint, suspended after one shard."""
    return _fixture_copy(tmp_path, "checkpoint_v1.json")


@pytest.fixture
def checkpoint_v2(tmp_path) -> str:
    """A copy of a format-2 step-16 checkpoint, suspended after one shard."""
    return _fixture_copy(tmp_path, "checkpoint_v2.json")


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from pfib.cli import main

    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def pools(monkeypatch):
    """The first multiplier submitted to each process pool a search builds,
    in build order; a pool given no shard is recorded as None."""
    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(None)

        def submit(self, fn, *args, **kwargs):
            if built[-1] is None:
                built[-1] = args[-2]  # shards are submitted as (..., lo, hi)
            return super().submit(fn, *args, **kwargs)

    # run_search imports the pool class when it builds a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    return built


@pytest.fixture
def search_clock(monkeypatch):
    """A fake clock for searchctl, held in a one-item list that tests move
    by hand; it stands still unless a test moves it."""
    now = [0.0]
    clock = types.SimpleNamespace(monotonic=lambda: now[0])
    monkeypatch.setattr(searchctl, "time", clock)
    return now


@pytest.fixture
def saves(monkeypatch):
    """Every checkpoint written through searchctl.save_checkpoint, in order."""
    written = []
    real_save = searchctl.save_checkpoint

    def recording_save(checkpoint, path):
        written.append(checkpoint)
        real_save(checkpoint, path)

    monkeypatch.setattr(searchctl, "save_checkpoint", recording_save)
    return written
