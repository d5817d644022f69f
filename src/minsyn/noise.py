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
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
    imgs = np.array(images, dtype=float)
    if imgs.ndim != 2 or imgs.shape[1] % GLYPH_SIDE:
        raise ValueError(f"images must be (B, {GLYPH_SIDE}*w) rasters")
    if kind == "none":
        return imgs
    b = imgs.shape[0]
    w = imgs.shape[1] // GLYPH_SIDE
    rast = imgs.reshape(b, GLYPH_SIDE, w)
    rng = np.random.default_rng(seed)
    if kind == "bottom_half":
        rast[:, GLYPH_SIDE // 2:, :] = 0.0
    elif kind == "right_half":
        rast[:, :, w // 2:] = 0.0
    elif kind == "erase_chunk":
        ty, tx = GLYPH_SIDE // CHUNK, w // CHUNK
        drop = rng.random((b, ty, tx)) < 0.5
        mask = np.kron(drop, np.ones((CHUNK, CHUNK), dtype=bool))
        full = np.zeros((b, GLYPH_SIDE, w), dtype=bool)
        full[:, :ty * CHUNK, :tx * CHUNK] = mask
        rast[full] = 0.0
    elif kind == "v_stripe":
        cols = rng.random((b, w)) < 0.5
        rast[np.broadcast_to(cols[:, None, :], rast.shape)] = 0.5
    elif kind == "h_stripe":
        rows = rng.random((b, GLYPH_SIDE)) < 0.5
        rast[np.broadcast_to(rows[:, :, None], rast.shape)] = 0.5
    return rast.reshape(b, GLYPH_SIDE * w)
