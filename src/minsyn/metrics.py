"""Disentanglement and reconstruction metrics, and tabular report assembly."""

from __future__ import annotations

import csv
import functools
import io
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decoder import row_blocks
from .nn import _one_blas_thread, _usable_cpus, sample_losses
from .noise import corrupt_rows, noise_pattern

log = logging.getLogger(__name__)


def acc_score(decoder_weights, char_layout, num_slots: int | None = None) -> float:
    """Average concentration entropy of squared decoder weights over slots.

    For factor j, C_{j,k} is the share of sum_i w_ij^2 carried by the pixels
    of slot k; the score is the mean over factors of the entropy
    -sum_k C ln C, so 0 means every factor commits to a single slot and
    ln(num_slots) means maximal smearing.  A factor with all-zero weights
    explains nothing and is charged the maximal entropy (with a warning).

    The score is invariant to rescaling a factor (a column) but not to
    rescaling a pixel (a row), so it depends on the units the weights are
    given in.  Scores of weight matrices in different units (logit-space
    weights of a sigmoid decoder, pixel-space weights of a linear one)
    differing by a few percent are not a ranking.
    """
    w = np.asarray(decoder_weights, dtype=float)
    layout = np.asarray(char_layout, dtype=int)
    if w.ndim != 2 or layout.shape != (w.shape[0],):
        raise ValueError("decoder_weights must be (n, m) with char_layout of length n")
    k = int(layout.max()) + 1 if num_slots is None else int(num_slots)
    if layout.min() < 0 or layout.max() >= k:
        raise ValueError("char_layout slots out of range")
    w2 = w ** 2
    onehot = np.eye(k)[layout]  # (n, k)
    per_slot = w2.T @ onehot  # (m, k)
    totals = per_slot.sum(axis=1)
    dead = totals <= 0.0
    if np.any(dead):
        log.warning("%d factor(s) have all-zero weights; scoring them at ln K",
                    int(dead.sum()))
    safe = np.where(dead, 1.0, totals)
    conc = per_slot / safe[:, None]
    terms = np.zeros_like(conc)
    mask = conc > 0.0
    terms[mask] = -conc[mask] * np.log(conc[mask])
    ent = terms.sum(axis=1)
    ent[dead] = np.log(k)
    return float(ent.mean())


# float64 rows of n entries that scoring keeps live per image: the input,
# its reconstruction, the target and the loss terms.
_SCORE_ROW_FLOATS = 4
# OpenBLAS, the BLAS numpy ships with, runs a matrix product of at most
# 100^3 multiply-adds on small-matrix kernels and a one-row product as a
# matrix-vector product; both round some rows differently from the kernel a
# large batch takes.  A scoring block keeps enough rows for every product of
# the model to stay above that size, so each row comes out as in one
# whole-batch pass.
_SMALL_PRODUCT = 100 ** 3


def _min_block_rows(model) -> int:
    """Fewest rows that take every product of the model above _SMALL_PRODUCT."""
    return max(_SMALL_PRODUCT // p + 1 for p in model.product_sizes)


def _score_blocks(model, x: np.ndarray) -> list:
    """The row blocks in which ``reconstruction_loss`` scores images x."""
    return row_blocks(x.shape[0], _SCORE_ROW_FLOATS * x.shape[1] * 8,
                      _min_block_rows(model))


def _mean_loss(model, target: np.ndarray, kind: str, inputs) -> float:
    """Mean over the images of the feature-summed loss of reconstructing
    ``inputs(rows)`` against ``target[rows]``, one scoring block of rows at
    a time."""
    per_sample = np.empty(target.shape[0])
    for rows in _score_blocks(model, target):
        per_sample[rows] = sample_losses(target[rows], model.reconstruct(inputs(rows)), kind)
    return float(per_sample.mean())


def reconstruction_loss(model, x, kind: str, target=None) -> float:
    """Mean over the images of the feature-summed loss of reconstructing
    ``x`` (N, n) against ``target`` (default ``x`` itself).

    The images are reconstructed and scored a block of rows at a time, so
    no temporary grows with N (past the smallest block that keeps the BLAS
    on its large-matrix kernel); every image's loss depends on its own row
    alone, so the result is bit for bit that of ``loss(target,
    model.reconstruct(x), kind)``.
    """
    x = np.asarray(x, dtype=float)
    target = x if target is None else np.asarray(target, dtype=float)
    if x.ndim != 2 or target.shape != x.shape:
        raise ValueError(f"need (N, n) images and a target of the same shape, "
                         f"got {x.shape} and {target.shape}")
    return _mean_loss(model, target, kind, x.__getitem__)


def _corrupted_block(images, kind, pattern, buffer, rows) -> np.ndarray:
    """The images in ``rows`` corrupted as ``kind``, in the head of ``buffer``."""
    block = buffer[:rows.stop - rows.start]
    block[...] = images[rows]
    corrupt_rows(block, kind, None if pattern is None else pattern[rows])
    return block


def noise_losses(model, images, kinds, loss_kind: str, seed: int = 0) -> list:
    """The loss of reconstructing the images (N, 28*w) under each noise
    kind in ``kinds``, in order: bit for bit ``reconstruction_loss(model,
    apply_noise(images, kind, seed), loss_kind, target=images)``.

    Each kind's pattern is drawn for all the images at once, as
    ``apply_noise`` draws it, and each scoring block is copied from the
    clean images and corrupted in place, so no corrupted copy of the whole
    set is held.  The distinct kinds are scored on as many threads as there
    are kinds or usable CPUs, whichever is fewer: this one scores its own
    share and a pool of workers the others, under one OpenBLAS pin held
    here, and a worker's error is raised here.  Each image's loss depends on
    its own row alone, so the losses do not depend on the thread count.  The
    images and kinds are checked before any thread starts.
    """
    images = np.ascontiguousarray(images, dtype=float)
    tasks = [(kind, noise_pattern(kind, images.shape, seed)) for kind in dict.fromkeys(kinds)]
    longest = max(rows.stop - rows.start for rows in _score_blocks(model, images))
    losses = {}

    def score(share) -> None:
        buffer = np.empty((longest, images.shape[1]))
        for kind, pattern in share:
            inputs = functools.partial(_corrupted_block, images, kind, pattern, buffer)
            losses[kind] = _mean_loss(model, images, loss_kind, inputs)

    threads = max(1, min(len(tasks), _usable_cpus()))
    with _one_blas_thread(), ThreadPoolExecutor(max(1, threads - 1)) as pool:
        shares = [pool.submit(score, tasks[t::threads]) for t in range(1, threads)]
        score(tasks[::threads])
        for share in shares:
            share.result()
    return [losses[kind] for kind in kinds]


def reconstruction_losses(model, train, test, loss_kind: str) -> tuple:
    """(train_loss, test_loss): per-sample feature-summed loss, split means."""
    return tuple(reconstruction_loss(model, split, loss_kind) for split in (train, test))


@dataclass(frozen=True)
class ReportTable:
    rows: tuple  # ((method, train_loss, test_loss, acc), ...) sorted by method
    csv: str
    text: str


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def build_report(rows) -> ReportTable:
    """Assemble the method comparison table, sorted by method name.

    ``rows`` holds (method, train_loss, test_loss, acc) tuples; duplicate
    method names, and names that hold a line break, are rejected.  Returns
    CSV and aligned-text renderings.
    """
    items = [(str(m), float(tr), float(te), float(a)) for m, tr, te, a in rows]
    if not items:
        raise ValueError("report needs at least one row")
    names = [m for m, *_ in items]
    broken = [n for n in names if "\n" in n or "\r" in n]
    if broken:
        raise ValueError(f"method names must not hold a line break: {broken}")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate method names: {dupes}")
    items.sort(key=lambda r: r[0])

    header = ("method", "train_loss", "test_loss", "acc")
    cells = [header] + [(m, _fmt(tr), _fmt(te), _fmt(a)) for m, tr, te, a in items]
    # The csv module quotes a name holding a comma or a quote.
    csv_text = io.StringIO()
    csv.writer(csv_text, lineterminator="\n").writerows(cells)
    widths = [max(len(row[c]) for row in cells) for c in range(4)]
    text_lines = []
    for row in cells:
        text_lines.append("  ".join(
            row[0].ljust(widths[0]) if c == 0 else row[c].rjust(widths[c])
            for c, _ in enumerate(row)))
    return ReportTable(rows=tuple(items),
                       csv=csv_text.getvalue(),
                       text="\n".join(text_lines) + "\n")
