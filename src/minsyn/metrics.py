"""Disentanglement and reconstruction metrics, and tabular report assembly."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .decoder import row_blocks
from .nn import AutoencoderModel, PcaModel, forward, sample_losses

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


def reconstruct(model, x) -> np.ndarray:
    """Eval-mode reconstruction for either autoencoders or PCA models."""
    if isinstance(model, PcaModel):
        return model.reconstruct(x)
    if isinstance(model, AutoencoderModel):
        _, xbar = forward(model, x, mode="eval")
        return xbar
    raise TypeError(f"cannot reconstruct with {type(model).__name__}")


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
    if isinstance(model, PcaModel):
        k, n = model.components.shape
        products = [n * k]
    elif isinstance(model, AutoencoderModel):
        products = [layer.fan_in * layer.fan_out for layer in model.encoder]
        products.append(model.latent_dim * model.input_dim)
    else:
        raise TypeError(f"cannot reconstruct with {type(model).__name__}")
    return max(_SMALL_PRODUCT // p + 1 for p in products)


def _score_blocks(model, x: np.ndarray) -> list:
    """The row blocks in which ``reconstruction_loss`` scores images x."""
    return row_blocks(x.shape[0], _SCORE_ROW_FLOATS * x.shape[1] * 8,
                      _min_block_rows(model))


def reconstruction_loss(model, x, kind: str, target=None) -> float:
    """Mean over the images of the feature-summed loss of reconstructing
    ``x`` (N, n) against ``target`` (default ``x`` itself).

    The images are reconstructed and scored a block of rows at a time, so
    no temporary grows with N (past the smallest block that keeps the BLAS
    on its large-matrix kernel); every image's loss depends on its own row
    alone, so the result is bit for bit that of ``loss(target,
    reconstruct(model, x), kind)``.
    """
    x = np.asarray(x, dtype=float)
    target = x if target is None else np.asarray(target, dtype=float)
    if x.ndim != 2 or target.shape != x.shape:
        raise ValueError(f"need (N, n) images and a target of the same shape, "
                         f"got {x.shape} and {target.shape}")
    per_sample = np.empty(x.shape[0])
    for rows in _score_blocks(model, x):
        per_sample[rows] = sample_losses(target[rows], reconstruct(model, x[rows]), kind)
    return float(per_sample.mean())


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
    method names are rejected.  Returns CSV and aligned-text renderings.
    """
    items = [(str(m), float(tr), float(te), float(a)) for m, tr, te, a in rows]
    if not items:
        raise ValueError("report needs at least one row")
    names = [m for m, *_ in items]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate method names: {dupes}")
    items.sort(key=lambda r: r[0])

    header = ("method", "train_loss", "test_loss", "acc")
    csv_lines = [",".join(header)]
    for m, tr, te, a in items:
        csv_lines.append(",".join([m, _fmt(tr), _fmt(te), _fmt(a)]))

    cells = [header] + [(m, _fmt(tr), _fmt(te), _fmt(a)) for m, tr, te, a in items]
    widths = [max(len(row[c]) for row in cells) for c in range(4)]
    text_lines = []
    for row in cells:
        text_lines.append("  ".join(
            row[0].ljust(widths[0]) if c == 0 else row[c].rjust(widths[c])
            for c, _ in enumerate(row)))
    return ReportTable(rows=tuple(items),
                       csv="\n".join(csv_lines) + "\n",
                       text="\n".join(text_lines) + "\n")
