"""Composed word-image benchmark: fixed per-letter glyphs concatenated into
three-slot word rasters, split into seen words (train) and the remaining
letter combinations (test).

Glyphs come either from handwritten-character IDX files on disk or from the
built-in pixel font below, which keeps the benchmark runnable with no
external downloads.  Each letter is always rendered by the same glyph, so
the only factors of variation are the three character identities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .idx import read_idx_file

log = logging.getLogger(__name__)

GLYPH_SIDE = 28
WORD_LEN = 3
LETTERS_PER_SLOT = 8
MAX_SHIFT = 4  # largest shift of a synthetic digit, in pixels per axis

# 5x7 pixel font, scaled x4 and centered on a 28x28 canvas.  Distinct
# shapes per character are all the benchmark needs.
_FONT_5X7 = {
    "a": (" ### ", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "b": ("#### ", "#   #", "#   #", "#### ", "#   #", "#   #", "#### "),
    "c": (" ### ", "#   #", "#    ", "#    ", "#    ", "#   #", " ### "),
    "d": ("#### ", "#   #", "#   #", "#   #", "#   #", "#   #", "#### "),
    "e": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#####"),
    "f": ("#####", "#    ", "#    ", "#### ", "#    ", "#    ", "#    "),
    "g": (" ### ", "#   #", "#    ", "# ###", "#   #", "#   #", " ### "),
    "h": ("#   #", "#   #", "#   #", "#####", "#   #", "#   #", "#   #"),
    "i": (" ### ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "j": ("  ###", "   # ", "   # ", "   # ", "   # ", "#  # ", " ##  "),
    "k": ("#   #", "#  # ", "# #  ", "##   ", "# #  ", "#  # ", "#   #"),
    "l": ("#    ", "#    ", "#    ", "#    ", "#    ", "#    ", "#####"),
    "m": ("#   #", "## ##", "# # #", "# # #", "#   #", "#   #", "#   #"),
    "n": ("#   #", "##  #", "# # #", "#  ##", "#   #", "#   #", "#   #"),
    "o": (" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "p": ("#### ", "#   #", "#   #", "#### ", "#    ", "#    ", "#    "),
    "q": (" ### ", "#   #", "#   #", "#   #", "# # #", "#  # ", " ## #"),
    "r": ("#### ", "#   #", "#   #", "#### ", "# #  ", "#  # ", "#   #"),
    "s": (" ####", "#    ", "#    ", " ### ", "    #", "    #", "#### "),
    "t": ("#####", "  #  ", "  #  ", "  #  ", "  #  ", "  #  ", "  #  "),
    "u": ("#   #", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "),
    "v": ("#   #", "#   #", "#   #", "#   #", "#   #", " # # ", "  #  "),
    "w": ("#   #", "#   #", "#   #", "# # #", "# # #", "## ##", "#   #"),
    "x": ("#   #", "#   #", " # # ", "  #  ", " # # ", "#   #", "#   #"),
    "y": ("#   #", "#   #", " # # ", "  #  ", "  #  ", "  #  ", "  #  "),
    "z": ("#####", "    #", "   # ", "  #  ", " #   ", "#    ", "#####"),
    "0": (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    "1": ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    "2": (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    "3": (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    "4": ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    "5": ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    "6": (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    "7": ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    "8": (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    "9": (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
}


def builtin_glyph(char: str) -> np.ndarray:
    """Render one character of the built-in font as a 28x28 array in {0, 1}."""
    key = char.lower()
    if key not in _FONT_5X7:
        raise KeyError(f"no built-in glyph for {char!r}")
    bitmap = np.array([[c != " " for c in row] for row in _FONT_5X7[key]], dtype=float)
    scaled = np.kron(bitmap, np.ones((4, 4)))  # 28 x 20
    canvas = np.zeros((GLYPH_SIDE, GLYPH_SIDE))
    left = (GLYPH_SIDE - scaled.shape[1]) // 2
    canvas[:, left:left + scaled.shape[1]] = scaled
    return canvas


def builtin_glyphs(chars) -> dict:
    return {c: builtin_glyph(c) for c in chars}


@dataclass(frozen=True, eq=False)
class WordDataset:
    """Word images plus the metadata needed by the concentration metric."""

    train_images: np.ndarray  # (W_train, 28 * 28*WORD_LEN)
    test_images: np.ndarray
    train_words: tuple
    test_words: tuple
    letters_by_position: tuple  # WORD_LEN tuples of LETTERS_PER_SLOT chars

    @property
    def num_slots(self) -> int:
        return len(self.letters_by_position)

    @property
    def char_layout(self) -> np.ndarray:
        """Slot index of every pixel of a row-major word raster."""
        cols = np.arange(GLYPH_SIDE * self.num_slots) // GLYPH_SIDE
        return np.tile(cols, GLYPH_SIDE)


def derive_letters_by_position(words) -> tuple:
    """The LETTERS_PER_SLOT most frequent letters at each of the first
    WORD_LEN positions.

    Counts position k over all words longer than k characters; ties are
    broken alphabetically so the grid is deterministic.
    """
    grids = []
    for k in range(WORD_LEN):
        counts = {}
        for w in words:
            w = w.strip().lower()
            if len(w) > k and w[k].isalpha():
                counts[w[k]] = counts.get(w[k], 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(ranked) < LETTERS_PER_SLOT:
            raise ValueError(f"not enough distinct letters at position {k}")
        grids.append(tuple(ch for ch, _ in ranked[:LETTERS_PER_SLOT]))
    return tuple(grids)


def build_word_dataset(letter_images: dict, word_list,
                       letters_by_position) -> WordDataset:
    """Compose the benchmark from one fixed glyph per letter.

    Words from ``word_list`` that are spelled entirely inside the per-slot
    letter grids become the training set; every other combination of the
    grid letters becomes the test set.  Images are horizontal concatenations
    of the slot glyphs, flattened row-major.
    """
    grids = tuple(tuple(g) for g in letters_by_position)
    if len(grids) != WORD_LEN or any(len(g) != LETTERS_PER_SLOT for g in grids):
        raise ValueError(
            f"need {WORD_LEN} positions with {LETTERS_PER_SLOT} letters each")
    for g in grids:
        for ch in g:
            if ch not in letter_images:
                raise KeyError(f"missing glyph for letter {ch!r}")
            img = np.asarray(letter_images[ch], dtype=float)
            if img.shape != (GLYPH_SIDE, GLYPH_SIDE):
                raise ValueError(f"glyph {ch!r} is not {GLYPH_SIDE}x{GLYPH_SIDE}")

    train_words, skipped = [], 0
    seen = set()
    for raw in word_list:
        w = raw.strip().lower()
        if len(w) != WORD_LEN or w in seen:
            continue
        if all(w[k] in grids[k] for k in range(WORD_LEN)):
            seen.add(w)
            train_words.append(w)
        else:
            skipped += 1
    if skipped:
        log.info("skipped %d words with letters outside the grid", skipped)
    train_words.sort()
    test_words = ["".join(c) for c in product(*grids) if "".join(c) not in seen]

    def render(words):
        out = np.empty((len(words), GLYPH_SIDE * GLYPH_SIDE * WORD_LEN))
        for i, w in enumerate(words):
            img = np.hstack([np.asarray(letter_images[ch], dtype=float) for ch in w])
            out[i] = img.ravel()
        return out

    return WordDataset(
        train_images=render(train_words),
        test_images=render(test_words),
        train_words=tuple(train_words),
        test_words=tuple(test_words),
        letters_by_position=grids,
    )


def read_word_list(source) -> list:
    """The words of a one-word-per-line text file, a path or a package
    resource: each line stripped and lower-cased, blank lines skipped."""
    return [w.strip().lower() for w in source.read_text().splitlines() if w.strip()]


def bundled_common_words() -> list:
    """The fixed list of common English words shipped with the package."""
    return read_word_list(resources.files("minsyn.data") / "common_words.txt")


def bundled_word_list() -> list:
    """The fixed three-letter English dictionary shipped with the package."""
    return read_word_list(resources.files("minsyn.data") / "three_letter_words.txt")


def bundled_letter_grid() -> tuple:
    """Per-slot letter sets derived from the bundled common-words list."""
    return derive_letters_by_position(bundled_common_words())


def load_handwritten_glyphs(directory, letters):
    """One glyph per letter from a handwritten-letters IDX pair.

    Labels 1..26 map to a..z.  The first occurrence of each requested letter
    is used and its index recorded; images are transposed on load so the
    glyphs render upright.  Returns (glyphs, indices).
    """
    directory = Path(directory)

    def find(stem):
        for suffix in ("", ".gz"):
            p = directory / (stem + suffix)
            if p.exists():
                return p
        raise FileNotFoundError(f"{stem}[.gz] not found under {directory}")

    images = read_idx_file(find("emnist-letters-train-images-idx3-ubyte")).reshaped()
    labels = read_idx_file(find("emnist-letters-train-labels-idx1-ubyte")).reshaped()
    labels = np.round(labels * 255.0).astype(int)  # stored as ubyte
    if images.ndim != 3 or images.shape[0] != labels.shape[0]:
        raise ValueError("images and labels do not line up")
    glyphs, indices = {}, {}
    wanted = set(letters)
    for ch in wanted:
        target = ord(ch) - ord("a") + 1
        hits = np.nonzero(labels == target)[0]
        if hits.size == 0:
            raise KeyError(f"no sample for letter {ch!r} in {directory}")
        idx = int(hits[0])
        glyphs[ch] = images[idx].T.copy()
        indices[ch] = idx
    return glyphs, indices


def synthetic_digits(count: int, seed: int = 0):
    """Digit rasters for experiments that would otherwise need a download.

    Renders the built-in digit glyphs with random integer translations of
    up to MAX_SHIFT pixels along each axis, so reconstruction is a real
    learning problem while the whole dataset stays deterministic.  Returns
    (images (count, 784), labels (count,)).
    """
    rng = np.random.default_rng(seed)
    # (digit, dy, dx) of each image in turn, from one call on the stream
    draws = rng.integers(np.tile([0, -MAX_SHIFT, -MAX_SHIFT], count),
                         np.tile([10, MAX_SHIFT + 1, MAX_SHIFT + 1], count)).reshape(count, 3)
    # Shifting a glyph by (dy, dx) with zero fill cuts the window at
    # (MAX_SHIFT - dy, MAX_SHIFT - dx) out of the glyph padded with MAX_SHIFT zeros.
    padded = np.zeros((10, GLYPH_SIDE + 2 * MAX_SHIFT, GLYPH_SIDE + 2 * MAX_SHIFT))
    padded[:, MAX_SHIFT:-MAX_SHIFT, MAX_SHIFT:-MAX_SHIFT] = [builtin_glyph(str(d))
                                                             for d in range(10)]
    window = np.arange(GLYPH_SIDE)
    rows = (MAX_SHIFT - draws[:, 1, None]) + window
    cols = (MAX_SHIFT - draws[:, 2, None]) + window
    images = padded[draws[:, 0, None, None], rows[:, :, None], cols[:, None, :]]
    return images.reshape(count, GLYPH_SIDE * GLYPH_SIDE), draws[:, 0].copy()
