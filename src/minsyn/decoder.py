"""Decoder parameters derived from batch statistics instead of training.

The decoders here are fixed functions of the pairwise statistics between
outputs X_i and latents Z_j: the Gaussian variant applies the
conditionally-independent posterior weights row by row, the binary variant
is the naive-Bayes log-odds readout.  Statistics are accumulated as raw
moments so they can be blended across batches with a moving average.  The
statistics objects are immutable, so the derived quantities (correlations,
conditionals) and the readout built from them are computed once per object,
on first use, and cached on it as read-only arrays.  Each (n, m) table is
built block by block of output rows, so the temporaries of one block stay
in cache; every row depends only on its own statistics, so the result is
the same bytes as one whole-array pass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import gaussian_ci_posterior

EPS = 1e-4
STD_FLOOR = 1e-6

# Working-set budget of one block of rows: 2 MiB, the per-core L2 cache of
# the reference machine.  Arrays that outgrow it are processed block by block.
BLOCK_BYTES = 2 * 1024 * 1024
# float64 rows of m entries the readout keeps live per output row.
_READOUT_ROW_FLOATS = 8


def row_blocks(rows: int, row_bytes: int, min_rows: int = 1) -> list:
    """Slices covering range(rows) in order: blocks of BLOCK_BYTES //
    row_bytes rows, but never fewer than ``min_rows``; a shorter remainder
    joins the last block.  No rows give one empty block."""
    step = max(1, min_rows, BLOCK_BYTES // max(1, row_bytes))
    starts = list(range(0, rows, step)) or [0]
    if len(starts) > 1 and rows - starts[-1] < min_rows:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows])]


def _stack_row_blocks(n: int, m: int, build) -> tuple:
    """The arrays ``build(rows)`` returns for the outputs in ``rows``, run
    over the readout's row blocks of an (n, m) table and stacked.  A single
    block returns ``build``'s own arrays."""
    blocks = row_blocks(n, _READOUT_ROW_FLOATS * m * 8)
    first = build(blocks[0])
    if len(blocks) == 1:
        return first
    stacked = tuple(np.empty((n,) + part.shape[1:]) for part in first)
    for i, rows in enumerate(blocks):
        parts = build(rows) if i else first
        for out, part in zip(stacked, parts):
            out[rows] = part
    return stacked


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianStats:
    """Raw first/second moments of a batch of outputs x and latents z.

    Derived views: per-variable standard deviations (floored at 1e-6) and the
    n x m correlation matrix rho (clamped to +-(1 - 1e-4)).  They and
    ``readout`` are built on first access and cached, read-only; the raw
    moments must not be changed in place.
    """

    x_mean: np.ndarray
    z_mean: np.ndarray
    x_sq_mean: np.ndarray
    z_sq_mean: np.ndarray
    xz_mean: np.ndarray  # (n, m) raw E[x_i z_j]

    def __post_init__(self):
        for name in ("x_mean", "z_mean", "x_sq_mean", "z_sq_mean", "xz_mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n, m = self.x_mean.size, self.z_mean.size
        if self.x_sq_mean.shape != (n,) or self.z_sq_mean.shape != (m,):
            raise ValueError("second-moment shapes do not match the means")
        if self.xz_mean.shape != (n, m):
            raise ValueError(f"xz_mean must have shape ({n}, {m})")

    @property
    def n(self) -> int:
        return self.x_mean.size

    @property
    def m(self) -> int:
        return self.z_mean.size

    @cached_property
    def x_std(self) -> np.ndarray:
        var = np.clip(self.x_sq_mean - self.x_mean ** 2, STD_FLOOR ** 2, None)
        return _frozen(np.sqrt(var))

    @cached_property
    def z_std(self) -> np.ndarray:
        var = np.clip(self.z_sq_mean - self.z_mean ** 2, STD_FLOOR ** 2, None)
        return _frozen(np.sqrt(var))

    def _rho_rows(self, rows: slice) -> np.ndarray:
        """Clamped correlations of the outputs in ``rows`` with every latent."""
        cov = self.xz_mean[rows] - np.outer(self.x_mean[rows], self.z_mean)
        r = cov / np.outer(self.x_std[rows], self.z_std)
        return np.clip(r, -(1.0 - EPS), 1.0 - EPS)

    @cached_property
    def rho(self) -> np.ndarray:
        (r,) = _stack_row_blocks(self.n, self.m, lambda rows: (self._rho_rows(rows),))
        return _frozen(r)

    def _readout_rows(self, rows: slice) -> tuple:
        """(weights, variance) of the outputs in ``rows``."""
        r = self._rho_rows(rows)
        r2 = r ** 2
        one_minus_r2 = 1.0 - r2
        # R_i = sum_j r2 / (1 - r2) and u = r / (1 - r2) / (1 + R_i), finished
        # in place in the buffers of r2 and r.
        one_plus_big_r = 1.0 + np.divide(r2, one_minus_r2, out=r2).sum(axis=1)
        weights = np.divide(r, one_minus_r2, out=r)
        weights /= one_plus_big_r[:, None]
        weights *= np.outer(self.x_std[rows], 1.0 / self.z_std)
        variance = self.x_std[rows] ** 2 / one_plus_big_r
        return weights, variance

    @cached_property
    def readout(self) -> DecoderParams:
        """Conditionally-independent posterior weights, row per output,
        expressed in raw (de-standardized) coordinates:

            xbar_i = x_mean_i + x_std_i * sum_j u_ij (z_j - z_mean_j) / z_std_j

        with u_ij the standardized posterior weights and variance
        x_std_i^2 / (1 + R_i).
        """
        weights, variance = _stack_row_blocks(self.n, self.m, self._readout_rows)
        bias = self.x_mean - weights @ self.z_mean
        return DecoderParams(weights=_frozen(weights), bias=_frozen(bias),
                             variance=_frozen(variance))


@dataclass(frozen=True)
class BinaryStats:
    """Raw Bernoulli moments E[x], E[z], E[x z] of a batch in [0, 1].

    Derived views give p(X_i = 1) and the conditional tables
    p(Z_j = 1 | X_i = 1/0), everything clamped into [1e-4, 1 - 1e-4].
    An output with (almost) no mass on one side, E[x_i] outside
    [1e-4, 1 - 1e-4], gives the latents nothing to condition on; both its
    conditionals then fall back to the latent marginals, so such an output
    draws zero evidence weight instead of a clamp artifact.  The derived
    views and ``readout`` are built on first access and cached, read-only;
    the raw moments must not be changed in place.
    """

    x_mean: np.ndarray
    z_mean: np.ndarray
    xz_mean: np.ndarray  # (n, m) raw E[x_i z_j]

    def __post_init__(self):
        for name in ("x_mean", "z_mean", "xz_mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.xz_mean.shape != (self.x_mean.size, self.z_mean.size):
            raise ValueError("xz_mean shape does not match the means")

    @property
    def n(self) -> int:
        return self.x_mean.size

    @property
    def m(self) -> int:
        return self.z_mean.size

    @cached_property
    def px1(self) -> np.ndarray:
        return _frozen(np.clip(self.x_mean, EPS, 1.0 - EPS))

    @cached_property
    def _supported(self) -> np.ndarray:
        return _frozen((self.x_mean >= EPS) & (self.x_mean <= 1.0 - EPS))

    def _conditional_rows(self, rows: slice, given_x1: bool) -> np.ndarray:
        """p(Z_j = 1 | X_i = 1) (or X_i = 0) for the outputs in ``rows``."""
        if given_x1:
            cond = self.xz_mean[rows] / self.px1[rows, None]
        else:
            cond = (self.z_mean[None, :] - self.xz_mean[rows]) / (1.0 - self.px1[rows])[:, None]
        cond = np.where(self._supported[rows, None], cond, self.z_mean[None, :])
        return np.clip(cond, EPS, 1.0 - EPS)

    def _conditional_table(self, given_x1: bool) -> np.ndarray:
        (table,) = _stack_row_blocks(
            self.n, self.m, lambda rows: (self._conditional_rows(rows, given_x1),))
        return _frozen(table)

    @cached_property
    def pz1_given_x1(self) -> np.ndarray:
        return self._conditional_table(True)

    @cached_property
    def pz1_given_x0(self) -> np.ndarray:
        return self._conditional_table(False)

    def _readout_rows(self, rows: slice) -> tuple:
        """(weights, summed evidence of the latents being 0) of the outputs
        in ``rows``."""
        q1 = self._conditional_rows(rows, True)
        q0 = self._conditional_rows(rows, False)
        not_q1 = 1.0 - q1
        not_q0 = 1.0 - q0
        # ln(q1 (1 - q0)) - ln((1 - q1) q0) and ln((1 - q1) / (1 - q0)),
        # finished in place in the buffers of q1 and q0.
        weights = np.log(np.multiply(q1, not_q0, out=q1), out=q1)
        weights -= np.log(np.multiply(not_q1, q0, out=q0), out=q0)
        evidence = np.log(np.divide(not_q1, not_q0, out=not_q1), out=not_q1)
        return weights, evidence.sum(axis=1)

    @cached_property
    def readout(self) -> DecoderParams:
        """Naive-Bayes log-odds readout of binary outputs from binary latents:

            b_i   = ln(p(X_i=1)/p(X_i=0)) + sum_j ln(p(Z_j=0|X_i=1)/p(Z_j=0|X_i=0))
            w_ij  = ln( p(Z_j=1|X_i=1) p(Z_j=0|X_i=0)
                      / (p(Z_j=0|X_i=1) p(Z_j=1|X_i=0)) )

        so that sigmoid(w . z + b) equals the Bayes posterior whenever the
        latents really are conditionally independent given each output.
        """
        p1 = self.px1
        weights, evidence = _stack_row_blocks(self.n, self.m, self._readout_rows)
        bias = np.log(p1 / (1.0 - p1)) + evidence
        return DecoderParams(weights=_frozen(weights), bias=_frozen(bias))


@dataclass(frozen=True)
class DecoderParams:
    """Affine readout of the latents: one row of weights and a bias per output.

    For the Gaussian decoder ``variance`` additionally carries the posterior
    variance of each output; the binary decoder leaves it None and its output
    is meant to pass through a sigmoid.
    """

    weights: np.ndarray  # (n, m)
    bias: np.ndarray  # (n,)
    variance: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weights must be (n, m) with an n-vector bias")
        ok = np.all(np.isfinite(w)) and np.all(np.isfinite(b))
        if self.variance is not None:
            v = np.asarray(self.variance, dtype=float)
            object.__setattr__(self, "variance", v)
            ok = ok and v.shape == b.shape and np.all(np.isfinite(v))
        if not ok:
            raise ValueError("decoder parameters must be finite and consistent")

    def linear(self, z: np.ndarray) -> np.ndarray:
        """Affine part w . z + b for a batch of latents (B, m)."""
        return np.asarray(z, dtype=float) @ self.weights.T + self.bias


def _batch_pair(x_batch, z_batch) -> tuple:
    x = np.asarray(x_batch, dtype=float)
    z = np.asarray(z_batch, dtype=float)
    if x.ndim != 2 or z.ndim != 2 or x.shape[0] != z.shape[0]:
        raise ValueError("x_batch and z_batch must be 2-D with equal batch size")
    return x, z


def gaussian_batch_stats(x_batch, z_batch) -> GaussianStats:
    """Raw Gaussian moments of a batch; needs at least two samples."""
    x, z = _batch_pair(x_batch, z_batch)
    b = x.shape[0]
    if b < 2:
        raise ValueError(f"batch size {b} < 2: statistics are undefined")
    return GaussianStats(
        x_mean=x.mean(axis=0),
        z_mean=z.mean(axis=0),
        x_sq_mean=(x ** 2).mean(axis=0),
        z_sq_mean=(z ** 2).mean(axis=0),
        xz_mean=x.T @ z / b,
    )


def binary_batch_stats(x_batch, z_batch) -> BinaryStats:
    """Raw Bernoulli moments of a batch whose entries live in [0, 1]."""
    x, z = _batch_pair(x_batch, z_batch)
    for name, arr in (("x_batch", x), ("z_batch", z)):
        if arr.size and (arr.min() < -1e-12 or arr.max() > 1.0 + 1e-12):
            raise ValueError(f"{name} entries must lie in [0, 1] to be read as probabilities")
    return _binary_moments(x, z)


def clipped_binary_batch_stats(x_batch, z_batch) -> BinaryStats:
    """Raw Bernoulli moments of a batch after clipping its entries into
    [0, 1], the reading a training step takes when regularizer noise has
    pushed latents out of range.  The clipped entries need no range check."""
    x, z = _batch_pair(x_batch, z_batch)
    return _binary_moments(np.clip(x, 0.0, 1.0), np.clip(z, 0.0, 1.0))


def _binary_moments(x, z) -> BinaryStats:
    b = x.shape[0]
    return BinaryStats(
        x_mean=x.mean(axis=0),
        z_mean=z.mean(axis=0),
        xz_mean=x.T @ z / b,
    )


def gaussian_decoder_params(stats: GaussianStats) -> DecoderParams:
    """The conditionally-independent posterior readout of ``stats`` (see
    ``GaussianStats.readout``), built once per statistics object."""
    return stats.readout


def binary_decoder_params(stats: BinaryStats) -> DecoderParams:
    """The naive-Bayes log-odds readout of ``stats`` (see
    ``BinaryStats.readout``), built once per statistics object."""
    return stats.readout


@dataclass(frozen=True)
class MovingAverageState:
    """Exponential moving average over raw batch statistics.

    The first update copies the batch outright; afterwards each raw-moment
    field follows running <- momentum * running + (1 - momentum) * batch.
    """

    stats: GaussianStats | BinaryStats | None
    momentum: float = 0.99
    step_count: int = 0

    def __post_init__(self):
        if not (0.0 < self.momentum < 1.0):
            raise ValueError("momentum must lie in (0, 1)")
        if self.step_count < 0:
            raise ValueError("step_count must be >= 0")
        if self.step_count > 0 and self.stats is None:
            raise ValueError("a state with updates must carry statistics")


def update_moving_average(state: MovingAverageState, batch) -> MovingAverageState:
    """Blend one batch of statistics into the running average.

    ``batch`` must be the same statistics type (and shapes) as the running
    value.  Every update returns a new statistics object, so its derived
    quantities and readout are rebuilt lazily from the blended raw moments,
    never averaged themselves, and no cached readout can go stale.
    """
    if state.step_count == 0 or state.stats is None:
        return MovingAverageState(stats=batch, momentum=state.momentum, step_count=1)
    running = state.stats
    if type(running) is not type(batch):
        raise ValueError(
            f"statistics type mismatch: running {type(running).__name__}, "
            f"batch {type(batch).__name__}"
        )
    mu = state.momentum
    blended = {}
    for f in dataclasses.fields(running):
        old = getattr(running, f.name)
        new = getattr(batch, f.name)
        if old.shape != new.shape:
            raise ValueError(f"shape mismatch on {f.name}: {old.shape} vs {new.shape}")
        blended[f.name] = mu * old + (1.0 - mu) * new
    return MovingAverageState(
        stats=type(running)(**blended),
        momentum=state.momentum,
        step_count=state.step_count + 1,
    )
