"""Test-time corruption models for 28-row image rasters.

Each kind obscures part of the image: zeroed half-planes, randomly erased
4x4 chunks, or rows/columns forced to gray.  Stochastic kinds are
deterministic given the seed.
"""

from __future__ import annotations

import numpy as np

from .words import GLYPH_SIDE

CHUNK = 4

NOISE_KINDS = ("none", "bottom_half", "right_half", "erase_chunk", "v_stripe", "h_stripe")


def apply_noise(images, kind: str, seed: int = 0) -> np.ndarray:
    """Corrupt a batch of flattened 28-row rasters; returns a new array.

    kinds:
      none         identity (copy)
      bottom_half  rows 14..27 set to zero
      right_half   right half of the columns set to zero
      erase_chunk  non-overlapping 4x4 tiles, each zeroed with probability 1/2
      v_stripe     each column set to 0.5 with probability 1/2
      h_stripe     each row set to 0.5 with probability 1/2
    """
    imgs = np.array(images, dtype=float, order="C")
    corrupt_rows(imgs, kind, noise_pattern(kind, imgs.shape, seed))
    return imgs


def noise_pattern(kind: str, shape: tuple, seed: int = 0) -> np.ndarray | None:
    """What ``kind`` obscures in each image of a batch of ``shape`` (B, 28*w),
    drawn as ``apply_noise`` draws it: the dropped tiles (B, 7, w // 4) of
    erase_chunk, the gray columns (B, w) of v_stripe or rows (B, 28) of
    h_stripe, or None for a kind that draws nothing.  Row i of the pattern
    belongs to image i, so ``pattern[rows]`` corrupts those images alone."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
    if len(shape) != 2 or shape[1] % GLYPH_SIDE:
        raise ValueError(f"images must be (B, {GLYPH_SIDE}*w) rasters")
    b, w = shape[0], shape[1] // GLYPH_SIDE
    rng = np.random.default_rng(seed)
    if kind == "erase_chunk":
        return rng.random((b, GLYPH_SIDE // CHUNK, w // CHUNK)) < 0.5
    if kind == "v_stripe":
        return rng.random((b, w)) < 0.5
    if kind == "h_stripe":
        return rng.random((b, GLYPH_SIDE)) < 0.5
    return None


def corrupt_rows(images: np.ndarray, kind: str, pattern: np.ndarray | None) -> None:
    """Corrupt the C-contiguous float rasters ``images`` (B, 28*w) in place
    as ``kind``, with the rows of its ``noise_pattern`` that belong to them."""
    b, w = images.shape[0], images.shape[1] // GLYPH_SIDE
    rast = images.reshape(b, GLYPH_SIDE, w)
    if kind == "bottom_half":
        rast[:, GLYPH_SIDE // 2:, :] = 0.0
    elif kind == "right_half":
        rast[:, :, w // 2:] = 0.0
    elif kind == "erase_chunk":
        ty, tx = pattern.shape[1:]
        mask = pattern.repeat(CHUNK, axis=1).repeat(CHUNK, axis=2)
        np.copyto(rast[:, :ty * CHUNK, :tx * CHUNK], 0.0, where=mask)
    elif kind == "v_stripe":
        np.copyto(rast, 0.5, where=pattern[:, None, :])
    elif kind == "h_stripe":
        np.copyto(rast, 0.5, where=pattern[:, :, None])
