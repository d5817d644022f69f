"""Decoder parameters derived from batch statistics instead of training.

The decoders here are fixed functions of the pairwise statistics between
outputs X_i and latents Z_j: the Gaussian variant applies the
conditionally-independent posterior weights row by row, the binary variant
is the naive-Bayes log-odds readout.  Statistics are accumulated as raw
moments so they can be blended across batches with a moving average.  The
statistics objects are immutable, so the readout built from them is
computed once per object, on first use, and cached on it as read-only
arrays.  The correlations and conditionals behind a readout are built
block by block of output rows, so the temporaries of one block stay in
cache; every row depends only on its own statistics, so the result is the
same bytes as one whole-array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import ci_weights, clamp, clamp_correlations

# Clamp of the Bernoulli probabilities into [EPS, 1 - EPS].
EPS = 1e-4
STD_FLOOR = 1e-6
# Weight of the running value in each moving-average update.
MA_MOMENTUM = 0.99

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
    row_bytes = _READOUT_ROW_FLOATS * m * 8
    if n * row_bytes <= BLOCK_BYTES:
        return build(slice(0, n))
    blocks = row_blocks(n, row_bytes)
    first = build(blocks[0])
    if len(blocks) == 1:
        return first
    stacked = tuple(np.empty((n,) + part.shape[1:]) for part in first)
    for i, rows in enumerate(blocks):
        parts = build(rows) if i else first
        for out, part in zip(stacked, parts):
            out[rows] = part
    return stacked


def _column_means(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=0) as ndarray.mean computes it, the column sums divided by
    the row count, without its Python layers."""
    means = np.add.reduce(a, axis=0)
    means /= a.shape[0]
    return means


def _std(mean: np.ndarray, sq_mean: np.ndarray) -> np.ndarray:
    """Standard deviations from raw moments, the variance floored at
    STD_FLOOR ** 2."""
    var = sq_mean - mean ** 2
    return np.sqrt(np.maximum(var, STD_FLOOR ** 2, out=var), out=var)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    a.setflags(write=False)
    return a


class _Moments:
    """Raw moments of a batch of n outputs x and m latents z.

    Each subclass declares its moments once, in ``MOMENTS``: field name ->
    axes, "n" for one value per output, "m" for one per latent and "nm" for
    an (n, m) table.  The moments are stored as float arrays, each checked
    against its axes, with n the size of ``x_mean`` and m that of
    ``z_mean``.  The objects are immutable: derived views are built on first
    access and cached, read-only, so the raw moments must not be changed in
    place.
    """

    MOMENTS: dict = {}

    def __init__(self, **moments):
        if moments.keys() != self.MOMENTS.keys():
            raise TypeError(f"{type(self).__name__} takes the moments {list(self.MOMENTS)}, "
                            f"not {list(moments)}")
        fields = self.__dict__
        for name, value in moments.items():
            fields[name] = np.asarray(value, dtype=float)
        n, m = fields["x_mean"].size, fields["z_mean"].size
        shapes = {"n": (n,), "m": (m,), "nm": (n, m)}
        for name, axes in self.MOMENTS.items():
            if fields[name].shape != shapes[axes]:
                raise ValueError(f"{name} must have shape {shapes[axes]}, "
                                 f"not {fields[name].shape}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.x_mean.size

    @property
    def m(self) -> int:
        return self.z_mean.size


class GaussianStats(_Moments):
    """Raw first/second moments E[x], E[z], E[x^2], E[z^2] and E[x z] of a
    batch of outputs x and latents z.

    Derived views: per-variable standard deviations (floored at 1e-6) and,
    row by row, the correlations rho (clamped to +-(1 - 1e-4)), both cached
    with ``readout``.
    """

    MOMENTS = {"x_mean": "n", "z_mean": "m", "x_sq_mean": "n", "z_sq_mean": "m",
               "xz_mean": "nm"}

    @cached_property
    def x_std(self) -> np.ndarray:
        return _frozen(_std(self.x_mean, self.x_sq_mean))

    @cached_property
    def z_std(self) -> np.ndarray:
        return _frozen(_std(self.z_mean, self.z_sq_mean))

    def _rho_rows(self, rows: slice) -> np.ndarray:
        """Clamped correlations of the outputs in ``rows`` with every latent."""
        r = np.subtract(self.xz_mean[rows], self.x_mean[rows, None] * self.z_mean)
        r /= self.x_std[rows, None] * self.z_std
        return clamp_correlations(r, out=r)

    def _readout_rows(self, rows: slice) -> tuple:
        """(weights,) of the outputs in ``rows``."""
        weights, _ = ci_weights(self._rho_rows(rows))
        weights *= self.x_std[rows, None] * (1.0 / self.z_std)
        return (weights,)

    @cached_property
    def readout(self) -> DecoderParams:
        """Conditionally-independent posterior weights, row per output,
        expressed in raw (de-standardized) coordinates:

            xbar_i = x_mean_i + x_std_i * sum_j u_ij (z_j - z_mean_j) / z_std_j

        with u_ij the weights ``gaussian.gaussian_ci_posterior`` gives the
        row's correlations, so xbar_i is that posterior's mean.
        """
        (weights,) = _stack_row_blocks(self.n, self.m, self._readout_rows)
        bias = np.subtract(self.x_mean, weights @ self.z_mean)
        return DecoderParams(weights=_frozen(weights), bias=_frozen(bias))


class BinaryStats(_Moments):
    """Raw Bernoulli moments E[x], E[z], E[x z] of a batch in [0, 1].

    Derived views give p(X_i = 1) and, row by row, the conditionals
    p(Z_j = 1 | X_i = 1/0), everything clamped into [1e-4, 1 - 1e-4].
    An output with (almost) no mass on one side, E[x_i] outside
    [1e-4, 1 - 1e-4], gives the latents nothing to condition on; both its
    conditionals then fall back to the latent marginals, so such an output
    draws zero evidence weight instead of a clamp artifact.  p(X_i = 1) is
    cached with ``readout``.
    """

    MOMENTS = {"x_mean": "n", "z_mean": "m", "xz_mean": "nm"}

    @cached_property
    def px1(self) -> np.ndarray:
        return _frozen(clamp(self.x_mean, EPS, 1.0 - EPS))

    @cached_property
    def _supported(self) -> np.ndarray:
        # E[x_i] in [EPS, 1 - EPS]: exactly where the clamp leaves it alone.
        return _frozen(self.px1 == self.x_mean)

    def _conditional_rows(self, rows: slice, given_x1: bool) -> np.ndarray:
        """p(Z_j = 1 | X_i = 1) (or X_i = 0) for the outputs in ``rows``."""
        p1 = self.px1[rows, None]
        if given_x1:
            cond = np.divide(self.xz_mean[rows], p1)
        else:
            cond = np.subtract(self.z_mean, self.xz_mean[rows])
            cond /= 1.0 - p1
        cond = np.where(self._supported[rows, None], cond, self.z_mean)
        return clamp(cond, EPS, 1.0 - EPS, out=cond)

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
        return weights, np.add.reduce(evidence, axis=1)

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
        bias = np.divide(p1, 1.0 - p1)
        np.log(bias, out=bias)
        bias += evidence
        return DecoderParams(weights=_frozen(weights), bias=_frozen(bias))


@dataclass(frozen=True, eq=False)
class DecoderParams:
    """Affine readout of the latents: one row of weights and a bias per output."""

    weights: np.ndarray  # (n, m)
    bias: np.ndarray  # (n,)


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
    xz_mean = x.T @ z
    xz_mean /= b
    return GaussianStats(
        x_mean=_column_means(x),
        z_mean=_column_means(z),
        x_sq_mean=_column_means(x ** 2),
        z_sq_mean=_column_means(z ** 2),
        xz_mean=xz_mean,
    )


def binary_batch_stats(x_batch, z_batch) -> BinaryStats:
    """Raw Bernoulli moments of a batch after clipping its entries into
    [0, 1], so latents that regularizer noise pushed out of range are read
    as probabilities."""
    x, z = _batch_pair(x_batch, z_batch)
    x, z = clamp(x, 0.0, 1.0), clamp(z, 0.0, 1.0)
    xz_mean = x.T @ z
    xz_mean /= x.shape[0]
    return BinaryStats(x_mean=_column_means(x), z_mean=_column_means(z), xz_mean=xz_mean)


def widen_outputs(stats, group: np.ndarray):
    """``stats`` of one output per group of equal outputs, widened to every
    output: output i gets the per-output moments of its group ``group[i]``,
    as the statistics of the full batch would give it."""
    return type(stats)(**{name: getattr(stats, name)[group] if axes[0] == "n"
                          else getattr(stats, name) for name, axes in stats.MOMENTS.items()})


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
    field follows running <- MA_MOMENTUM * running + (1 - MA_MOMENTUM) * batch.
    """

    stats: GaussianStats | BinaryStats | None
    step_count: int = 0

    def __post_init__(self):
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
        return MovingAverageState(stats=batch, step_count=1)
    running = state.stats
    if type(running) is not type(batch):
        raise ValueError(
            f"statistics type mismatch: running {type(running).__name__}, "
            f"batch {type(batch).__name__}"
        )
    if running.xz_mean.shape != batch.xz_mean.shape:  # (n, m)
        raise ValueError(f"shape mismatch: running statistics of {running.n} outputs and "
                         f"{running.m} latents, batch of {batch.n} and {batch.m}")
    blended = {}
    for name in running.MOMENTS:
        # mu * old + (1 - mu) * new, blended in the fresh product's buffer.
        value = np.multiply(getattr(running, name), MA_MOMENTUM)
        value += np.multiply(getattr(batch, name), 1.0 - MA_MOMENTUM)
        blended[name] = value
    return MovingAverageState(
        stats=type(running)(**blended), step_count=state.step_count + 1)
