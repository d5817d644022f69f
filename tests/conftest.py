import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
