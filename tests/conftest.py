import faulthandler
import os
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from minsyn import metrics, nn  # noqa: E402
from minsyn.cli import main  # noqa: E402
from minsyn.words import (build_word_dataset, builtin_glyphs,  # noqa: E402
                          bundled_letter_grid, bundled_word_list)


@pytest.fixture(scope="session")
def word_dataset():
    """The bundled word benchmark rendered with the built-in glyphs."""
    grid = bundled_letter_grid()
    letters = sorted({c for g in grid for c in g})
    return build_word_dataset(builtin_glyphs(letters), bundled_word_list(), grid)


@pytest.fixture(scope="session")
def word_data_dir(tmp_path_factory) -> Path:
    """Word dataset built once per session through the CLI."""
    out = tmp_path_factory.mktemp("words") / "data"
    code = main(["dataset-build", "--out-dir", str(out), "--glyphs", "builtin"])
    assert code == 0
    return out


class CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


# A test that starts threads and has not ended after this many seconds has
# stalled: the run ends with every thread's stack, written to the stderr the
# run started with, which pytest does not capture.
THREADED_TEST_SECONDS = 300
_stall_report_fd = None


def pytest_configure(config):
    global _stall_report_fd
    _stall_report_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stall_report_fd)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs eval's scoring threads and training's draw worker
    see; returns the class that counts the threads started."""
    monkeypatch.setattr(CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountedThread)

    def set_cpus(count):
        for module in (metrics, nn):
            monkeypatch.setattr(module, "_usable_cpus", lambda: count)
        return CountedThread

    faulthandler.dump_traceback_later(THREADED_TEST_SECONDS, exit=True,
                                      file=_stall_report_fd)
    yield set_cpus
    faulthandler.cancel_dump_traceback_later()
