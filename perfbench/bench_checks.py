"""Output checks for the benchmark, computed apart from the program.

Every reference value here comes from plain numpy on the files the program
wrote (its own `.msck` and IDX readers are not used) or from the closed-form
definitions, never from a stored copy of an earlier output.  Each check
raises `CheckFailed` with a message naming the first mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from pathlib import Path

import numpy as np

# Clamps the program documents; the readouts below must honour them.
EPS = 1e-4  # binary conditionals and Gaussian correlations
STD_FLOOR = 1e-6
BCE_CLAMP = 1e-7
GLYPH_SIDE = 28
CHUNK = 4  # side of the tiles erase_chunk zeroes
WORD_SLOTS = 3

# Report and eval CSVs print 6 significant digits, curve CSVs 12.
REL_6 = 1e-5
REL_12 = 1e-10


class CheckFailed(AssertionError):
    pass


def _close(name, got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        err = np.abs(got - want)
        i = np.unravel_index(int(np.argmax(err)), err.shape) if err.ndim else ()
        raise CheckFailed(f"{name}: {got[i]!r} != {want[i]!r} (rtol {rtol}, atol {atol})")


# ----------------------------------------------------------------- readers

def read_msck(path) -> tuple:
    """(header, arrays) of a checkpoint: magic, u64 LE header length, JSON
    header, then float64 LE arrays in header order."""
    blob = Path(path).read_bytes()
    if blob[:8] != b"MSYNCKPT":
        raise CheckFailed(f"{path}: bad checkpoint magic")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    arrays, offset = {}, 16 + hlen
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise CheckFailed(f"{path}: {len(blob) - offset} bytes after the arrays")
    return header, arrays


def read_idx(path) -> np.ndarray:
    """IDX tensor: big-endian magic 00 00 <dtype> <ndim>, u32 sizes, payload.
    Unsigned bytes come back scaled to [0, 1], int32 raw."""
    blob = Path(path).read_bytes()
    dtype_code, ndim = blob[2], blob[3]
    dims = struct.unpack(f">{ndim}I", blob[4:4 + 4 * ndim])
    dtype = {0x08: ">u1", 0x0C: ">i4"}[dtype_code]
    data = np.frombuffer(blob, dtype=dtype, offset=4 + 4 * ndim).reshape(dims)
    return data / 255.0 if dtype_code == 0x08 else data.astype(float)


def read_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


# ----------------------------------------------------------------- models

def sigmoid(a):
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def logit(p):
    return np.log(p) - np.log1p(-p)


def binary_readout(x_mean, z_mean, xz_mean) -> tuple:
    """Naive-Bayes log-odds readout from Bernoulli moments.

    p(Z_j=1 | X_i=x) comes from Bayes on the moments and is clamped into
    [EPS, 1-EPS]; an output with E[x_i] outside [EPS, 1-EPS] conditions on
    nothing, so both its conditionals fall back to the latent marginal.
    """
    supported = (x_mean >= EPS) & (x_mean <= 1.0 - EPS)
    p1 = np.clip(x_mean, EPS, 1.0 - EPS)
    on = xz_mean / p1[:, None]
    off = (z_mean[None, :] - xz_mean) / (1.0 - p1)[:, None]
    on = np.clip(np.where(supported[:, None], on, z_mean), EPS, 1.0 - EPS)
    off = np.clip(np.where(supported[:, None], off, z_mean), EPS, 1.0 - EPS)
    weights = logit(on) - logit(off)
    bias = logit(p1) + (np.log1p(-on) - np.log1p(-off)).sum(axis=1)
    return weights, bias


def gaussian_readout(x_mean, z_mean, x_sq_mean, z_sq_mean, xz_mean) -> tuple:
    """Posterior mean of each output given latents that are independent
    given that output, in raw units.

    Standardized, X ~ N(0, 1) and Z_j | X ~ N(r_j X, 1 - r_j^2) independently,
    so the posterior precision is 1 + sum_j r_j^2 / (1 - r_j^2) and the mean
    is sum_j r_j z_j / (1 - r_j^2) divided by it.
    """
    sx = np.sqrt(np.maximum(x_sq_mean - x_mean ** 2, STD_FLOOR ** 2))
    sz = np.sqrt(np.maximum(z_sq_mean - z_mean ** 2, STD_FLOOR ** 2))
    r = (xz_mean - x_mean[:, None] * z_mean[None, :]) / (sx[:, None] * sz[None, :])
    r = np.clip(r, EPS - 1.0, 1.0 - EPS)
    precision = 1.0 + (r ** 2 / (1.0 - r ** 2)).sum(axis=1)
    standardized = r / (1.0 - r ** 2) / precision[:, None]
    weights = standardized * sx[:, None] / sz[None, :]
    return weights, x_mean - weights @ z_mean


def readout_from_checkpoint(header, arrays) -> tuple:
    """(weights, bias, output activation) of the checkpoint's decoder."""
    meta = header["meta"]
    kind = meta.get("decoder_kind")
    if kind == "minsyn_binary":
        w, b = binary_readout(arrays["ma.x_mean"], arrays["ma.z_mean"], arrays["ma.xz_mean"])
        return w, b, "sigmoid"
    if kind == "minsyn_gaussian":
        w, b = gaussian_readout(arrays["ma.x_mean"], arrays["ma.z_mean"], arrays["ma.x_sq_mean"],
                                arrays["ma.z_sq_mean"], arrays["ma.xz_mean"])
        return w, b, "identity"
    return arrays["decoder.weights"], arrays["decoder.bias"], meta["decoder_activation"]


def _activate(name, a):
    if name == "sigmoid":
        return sigmoid(a)
    if name == "softplus":
        return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))
    if name == "identity":
        return a
    raise CheckFailed(f"unknown activation {name!r}")


def reconstruct(header, arrays, x) -> np.ndarray:
    """Eval-mode reconstruction: encoder layers, then the decoder readout."""
    meta = header["meta"]
    if meta["model_kind"] == "pca":
        c, mu = arrays["pca.components"], arrays["pca.mean"]
        return mu + ((x - mu) @ c.T) @ c
    h = x
    for i, act in enumerate(meta["encoder_activations"]):
        h = _activate(act, h @ arrays[f"encoder.{i}.weights"].T + arrays[f"encoder.{i}.bias"])
    w, b, act = readout_from_checkpoint(header, arrays)
    return _activate(act, h @ w.T + b)


def mse(x, xbar) -> float:
    return float(((x - xbar) ** 2).sum(axis=1).mean())


def bce(x, xbar) -> float:
    p = np.clip(xbar, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-(x * np.log(p) + (1.0 - x) * np.log(1.0 - p)).sum(axis=1).mean())


def word_slots(pixels: int) -> np.ndarray:
    """Slot of each pixel of a row-major 28 x (28 * slots) word raster."""
    cols = pixels // GLYPH_SIDE
    return np.tile(np.arange(cols) // GLYPH_SIDE, GLYPH_SIDE)


def concentration_entropy(weights, slots, k=WORD_SLOTS) -> float:
    """Mean over factors of the entropy of their squared-weight mass per slot;
    an all-zero factor counts ln k."""
    out = []
    for col in np.asarray(weights, dtype=float).T:
        mass = np.bincount(slots, weights=col ** 2, minlength=k)
        total = mass.sum()
        if total <= 0.0:
            out.append(np.log(k))
            continue
        share = mass[mass > 0.0] / total
        out.append(float(-(share * np.log(share)).sum()))
    return float(np.mean(out))


def pca_reference(train, k) -> tuple:
    """(components (k, n), mean) from the SVD of the centered images."""
    mean = train.mean(axis=0)
    _, _, vt = np.linalg.svd(train - mean, full_matrices=False)
    return vt[:k], mean


# ----------------------------------------------------------------- checks

def check_decoder_readout(header, arrays, program_weights, program_bias) -> None:
    w, b, _ = readout_from_checkpoint(header, arrays)
    _close("decoder weights", program_weights, w, rtol=1e-9, atol=1e-9)
    _close("decoder bias", program_bias, b, rtol=1e-9, atol=1e-9)


def check_history(history, reference=None) -> None:
    """Every epoch loss finite, the last below the first, and (given a
    reference from an earlier run on the same seed) identical to it."""
    h = np.asarray(history, dtype=float)
    if h.size < 2:
        raise CheckFailed(f"history has {h.size} epochs, need at least 2")
    if not np.all(np.isfinite(h)):
        raise CheckFailed("history holds a non-finite loss")
    if not h[-1] < h[0]:
        raise CheckFailed(f"last epoch loss {h[-1]!r} is not below the first {h[0]!r}")
    if reference is not None and not np.array_equal(h, np.asarray(reference, dtype=float)):
        raise CheckFailed("history differs from the earlier run with the same seed")


def check_report_row(row: dict, train_loss, test_loss, acc) -> None:
    name = row["method"]
    _close(f"{name} train_loss", float(row["train_loss"]), train_loss, rtol=REL_6)
    _close(f"{name} test_loss", float(row["test_loss"]), test_loss, rtol=REL_6)
    _close(f"{name} acc", float(row["acc"]), acc, rtol=REL_6)


def check_acc_below(name, acc, reference_acc) -> None:
    if not acc < reference_acc:
        raise CheckFailed(f"{name}: acc {acc!r} is not below the PCA acc {reference_acc!r}")


def check_same_subspace(components, reference, tol=1e-6) -> None:
    """Both (k, n) row sets span one subspace: every principal angle ~ 0."""
    qa, _ = np.linalg.qr(np.asarray(components, dtype=float).T)
    qb, _ = np.linalg.qr(np.asarray(reference, dtype=float).T)
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    if qa.shape != qb.shape or cosines.min() < 1.0 - tol:
        raise CheckFailed(f"PCA subspaces differ: smallest principal cosine {cosines.min()!r}")


def check_noise_mask(kind, clean, corrupted) -> None:
    """The documented corruption: zeroed bottom rows or right columns, 4x4
    tiles zeroed whole, rows or columns set to 0.5 whole; everything else
    untouched."""
    b = clean.shape[0]
    c = clean.reshape(b, GLYPH_SIDE, -1)
    d = corrupted.reshape(b, GLYPH_SIDE, -1)
    half = GLYPH_SIDE // 2
    if kind == "none":
        ok = np.array_equal(c, d)
    elif kind == "bottom_half":
        ok = np.array_equal(c[:, :half], d[:, :half]) and not d[:, half:].any()
    elif kind == "right_half":
        w = c.shape[2] // 2
        ok = np.array_equal(c[:, :, :w], d[:, :, :w]) and not d[:, :, w:].any()
    elif kind == "erase_chunk":
        tiles = (b, GLYPH_SIDE // CHUNK, CHUNK, -1, CHUNK)
        ct, dt = c.reshape(tiles), d.reshape(tiles)
        kept = (ct == dt).all(axis=(2, 4))
        zeroed = (dt == 0.0).all(axis=(2, 4))
        inked = (ct != 0.0).any(axis=(2, 4))
        ok = bool((kept | zeroed).all()) and 0.3 < (~kept[inked]).mean() < 0.7
    elif kind in ("v_stripe", "h_stripe"):
        axis = 1 if kind == "v_stripe" else 2
        kept = (c == d).all(axis=axis)
        gray = (d == 0.5).all(axis=axis)
        ok = bool((kept | gray).all()) and 0.3 < gray.mean() < 0.7
    else:
        raise CheckFailed(f"unknown noise kind {kind!r}")
    if not ok:
        raise CheckFailed(f"{kind}: corrupted images do not show the documented mask")


def check_eval_rows(csv_text, expected: dict) -> None:
    """The eval CSV has one row per noise kind, in order, matching `expected`."""
    rows = read_csv(csv_text)
    if [r["noise"] for r in rows] != list(expected):
        raise CheckFailed(f"eval rows {[r['noise'] for r in rows]} != {list(expected)}")
    for r in rows:
        _close(f"eval {r['noise']}", float(r["loss"]), expected[r["noise"]], rtol=REL_6)


def gaussian_mi_logdet(sigma_z, rho) -> float:
    """I(Z; X) = 1/2 ln(det Sigma_z / det Sigma_joint) for unit-variance X."""
    m = len(rho)
    joint = np.eye(m + 1)
    joint[:m, :m] = sigma_z
    joint[:m, m] = joint[m, :m] = rho
    _, ld_z = np.linalg.slogdet(sigma_z)
    _, ld_joint = np.linalg.slogdet(joint)
    return 0.5 * (ld_z - ld_joint)


def check_gaussian_mi(sigma_z, rho, program_mi) -> None:
    _close("Gaussian mutual information", program_mi, gaussian_mi_logdet(sigma_z, rho),
           rtol=1e-8, atol=1e-10)


def check_at_most(name, value, limit) -> None:
    if not value <= limit:
        raise CheckFailed(f"{name}: {value!r} > {limit!r}")


def check_curve(nats_csv, bits_csv, rho1, rho2) -> None:
    """Bits are nats / ln 2, and the GK column is 0 at the union-gap zero
    (rho1/rho2 for the stronger rho2, else rho2/rho1) when it is interior."""
    nats, bits = read_csv(nats_csv), read_csv(bits_csv)
    if len(nats) != len(bits) or len(nats) < 3:
        raise CheckFailed(f"curve lengths {len(nats)} and {len(bits)}")
    cols = ("mutual_information", "union_information", "gk_synergy", "ci_synergy")
    grid = np.array([float(r["sigma12"]) for r in nats])
    _close("curve sigma12 in bits", [float(r["sigma12"]) for r in bits], grid, rtol=REL_12)
    for col in cols:
        n = np.array([float(r[col]) for r in nats])
        b = np.array([float(r[col]) for r in bits])
        _close(f"curve {col} bits", b, n / np.log(2.0), rtol=REL_12, atol=1e-15)
    if abs(rho1) == abs(rho2):
        return
    zero = rho1 / rho2 if abs(rho2) > abs(rho1) else rho2 / rho1
    half = np.sqrt((1.0 - rho1 ** 2) * (1.0 - rho2 ** 2))
    if not (rho1 * rho2 - half < zero < rho1 * rho2 + half):
        return
    at = int(np.argmin(np.abs(grid - zero)))
    gk = float(nats[at]["gk_synergy"])
    if abs(grid[at] - zero) > 1e-11 or abs(gk) > 1e-9:
        raise CheckFailed(f"GK synergy at sigma12={grid[at]!r} is {gk!r}, expected 0 at {zero!r}")


def entropy(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def discrete_mi(probs) -> float:
    """H(Z) + H(X) - H(Z, X) with X the last axis."""
    p = np.asarray(probs, dtype=float)
    return entropy(p.sum(axis=-1)) + entropy(p.reshape(-1, p.shape[-1]).sum(axis=0)) - entropy(p)


def check_discrete_mi(probs, program_mi) -> None:
    _close("discrete mutual information", program_mi, discrete_mi(probs), rtol=1e-9, atol=1e-12)


def check_equal_tables(name, got, want) -> None:
    if np.shape(got) != np.shape(want) or not np.array_equal(got, want):
        raise CheckFailed(f"{name}: tables differ")
