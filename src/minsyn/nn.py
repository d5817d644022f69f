"""Minimal dense autoencoder stack: forward/backward passes, losses, Adam.

Everything is plain numpy and deterministic given a seed.  Decoders come in
two families: learned dense layers, and fixed readouts whose parameters are
recomputed from batch statistics each step (moving-averaged for evaluation).
Gradients never flow through the statistics; the encoder still receives
gradient through z in the decoder's affine form.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decoder import (
    BinaryStats,
    DecoderParams,
    GaussianStats,
    MovingAverageState,
    binary_batch_stats,
    binary_decoder_params,
    gaussian_batch_stats,
    gaussian_decoder_params,
    update_moving_average,
    widen_outputs,
)

log = logging.getLogger(__name__)

# The output activation of each decoder kind, and from it the loss the kind
# trains and is scored with: cross entropy for the sigmoid outputs, squared
# error for the linear ones.
DECODER_OUTPUT = {"learned_sigmoid": "sigmoid", "learned_linear": "identity",
                  "minsyn_binary": "sigmoid", "minsyn_gaussian": "identity"}
DECODER_LOSS = {kind: "bce" if out == "sigmoid" else "mse"
                for kind, out in DECODER_OUTPUT.items()}
DECODER_KINDS = tuple(DECODER_OUTPUT)
# The statistics each MinSyn decoder is read out from.
MINSYN_STATS = {"minsyn_binary": BinaryStats, "minsyn_gaussian": GaussianStats}
MINSYN_KINDS = tuple(MINSYN_STATS)
LOSS_KINDS = ("bce", "mse")
# The one parameter each regularizer kind reads, None for none.
REGULARIZER_PARAMETER = {"none": None, "dropout": "p", "input_gaussian_noise": "sigma",
                         "latent_gaussian_noise": "sigma"}
REGULARIZER_KINDS = tuple(REGULARIZER_PARAMETER)

BCE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became NaN; carries the epoch and batch where it happened."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss became NaN at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: bit for bit 1 / (1 + e^-v) for v >= 0 and
    e^v / (1 + e^v) for v < 0, with one exp per element."""
    return _sigmoid_and_exp(np.asarray(v, dtype=float))[0]


def _sigmoid_and_exp(v: np.ndarray) -> tuple:
    """(sigmoid(v), t) with t = exp(-|v|): sigmoid(v) = where(v < 0, t, 1)
    / (1 + t).  t lies in [0, 1], so max(t, v >= 0) is that select without a
    masked copy.  -|v| is taken as min(v, -v), which keeps a NaN's sign bit."""
    t = np.negative(v, out=np.empty_like(v))
    np.minimum(v, t, out=t)
    np.exp(t, out=t)
    y = np.maximum(t, v >= 0.0)
    y /= t + 1.0
    return y, t


def softplus(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


# name -> (activation of the pre-activation a, d y / d a given a and the
# output y).
_ACTIVATIONS = {
    "identity": (lambda a: a, lambda a, y: 1.0),
    "sigmoid": (sigmoid, lambda a, y: y * (1.0 - y)),
    "softplus": (softplus, lambda a, y: sigmoid(a)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


@dataclass(eq=False)
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with matching bias")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


def init_dense_layer(rng: np.random.Generator, fan_in: int, fan_out: int,
                     activation: str) -> DenseLayer:
    # Uniform +-sqrt(6 / (fan_in + fan_out)), zero bias.
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return DenseLayer(weights=w, bias=np.zeros(fan_out), activation=activation)


@dataclass(frozen=True)
class Regularizer:
    """Training-time corruption: dropout on the latents, or additive
    Gaussian noise on the inputs or latents.  A kind reads only its
    ``REGULARIZER_PARAMETER``; the other must stay 0.  p=0 / sigma=0 are
    exact no-ops."""

    kind: str = "none"
    p: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"regularizer kind must be one of {REGULARIZER_KINDS}")
        if not (0.0 <= self.p < 1.0):
            raise ValueError("dropout probability must lie in [0, 1)")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("noise sigma must be >= 0 and finite")
        for name in ("p", "sigma"):
            if name != REGULARIZER_PARAMETER[self.kind] and getattr(self, name) != 0.0:
                raise ValueError(f"regularizer {self.kind} reads no {name!r}")

    @property
    def is_noop(self) -> bool:
        parameter = REGULARIZER_PARAMETER[self.kind]
        return parameter is None or getattr(self, parameter) == 0.0


NO_REGULARIZER = Regularizer()


@dataclass(eq=False)
class AutoencoderModel:
    encoder: list[DenseLayer]
    decoder_kind: str
    decoder: DenseLayer | None = None  # learned kinds only
    ma_state: MovingAverageState | None = None  # minsyn kinds only

    def __post_init__(self):
        if not self.encoder:
            raise ValueError("encoder needs at least one layer")
        for a, b in zip(self.encoder, self.encoder[1:]):
            if b.fan_in != a.fan_out:
                raise ValueError("encoder layer shapes do not chain")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}")
        if self.decoder_kind in MINSYN_KINDS:
            if self.decoder is not None:
                raise ValueError("minsyn decoders carry no learned layer")
            if self.ma_state is None:
                self.ma_state = MovingAverageState(stats=None)
            stats = self.ma_state.stats
            if stats is not None and (stats.n, stats.m) != (self.input_dim, self.latent_dim):
                raise ValueError(
                    f"moving-average statistics ma.* of {stats.n} outputs and {stats.m} "
                    f"latents do not match the encoder's {self.input_dim} inputs and "
                    f"{self.latent_dim} latents")
        else:
            if self.decoder is None:
                raise ValueError("learned decoder kinds need a decoder layer")
            if self.decoder.fan_in != self.latent_dim:
                raise ValueError("decoder input does not match the latent size")
            if self.decoder.fan_out != self.input_dim:
                raise ValueError(
                    f"decoder.weights has {self.decoder.fan_out} outputs, but the encoder "
                    f"takes {self.input_dim} inputs")
            if self.decoder.activation != DECODER_OUTPUT[self.decoder_kind]:
                raise ValueError(f"decoder {self.decoder_kind} needs a "
                                 f"{DECODER_OUTPUT[self.decoder_kind]} output layer")

    @property
    def loss_kind(self) -> str:
        return DECODER_LOSS[self.decoder_kind]

    @property
    def input_dim(self) -> int:
        return self.encoder[0].fan_in

    @property
    def latent_dim(self) -> int:
        return self.encoder[-1].fan_out

    @property
    def product_sizes(self) -> tuple:
        """Multiply-adds per image of each matrix product of a reconstruction:
        one per encoder layer, then the decoder's."""
        return (*(layer.weights.size for layer in self.encoder),
                self.latent_dim * self.input_dim)

    def reconstruct(self, x) -> np.ndarray:
        """Eval-mode reconstruction of the images x (N, n), on one OpenBLAS thread."""
        with _one_blas_thread():
            return forward(self, x)[1]

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters keyed by path; views, not copies."""
        params = {}
        for i, layer in enumerate(self.encoder):
            params[f"encoder.{i}.weights"] = layer.weights
            params[f"encoder.{i}.bias"] = layer.bias
        if self.decoder is not None:
            params["decoder.weights"] = self.decoder.weights
            params["decoder.bias"] = self.decoder.bias
        return params

    def decoder_params_from_average(self) -> DecoderParams:
        if self.decoder_kind not in MINSYN_KINDS:
            raise ValueError("only minsyn decoders derive parameters from statistics")
        if self.ma_state is None or self.ma_state.step_count == 0:
            raise ValueError("no statistics accumulated yet: train before evaluating")
        return _minsyn_functions(self.decoder_kind)[1](self.ma_state.stats)

    def decoder_weight_matrix(self) -> np.ndarray:
        """(n, m) readout weights, for concentration metrics and reports.

        The units follow the decoder's output: sigmoid-output decoders
        (``minsyn_binary``, ``learned_sigmoid``) give log-odds weights, linear
        ones (``minsyn_gaussian``, ``learned_linear``) pixel-unit weights.
        ``acc_score`` is not invariant to rescaling a pixel, so its values for
        the two families are not on one scale.
        """
        if self.decoder_kind in MINSYN_KINDS:
            return self.decoder_params_from_average().weights.copy()
        return self.decoder.weights.copy()


def build_autoencoder(input_dim: int, encoder_spec, decoder_kind: str,
                      seed: int = 0) -> AutoencoderModel:
    """Construct a seeded model from an encoder spec [(units, activation), ...]."""
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for units, activation in encoder_spec:
        layers.append(init_dense_layer(rng, fan_in, int(units), activation))
        fan_in = int(units)
    if decoder_kind not in DECODER_KINDS:
        raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}")
    decoder = None
    if decoder_kind not in MINSYN_KINDS:
        decoder = init_dense_layer(rng, fan_in, input_dim, DECODER_OUTPUT[decoder_kind])
    return AutoencoderModel(encoder=layers, decoder_kind=decoder_kind, decoder=decoder)


def _minsyn_functions(decoder_kind: str) -> tuple:
    """(batch statistics, readout) functions of a MinSyn decoder kind, read
    from this module's names at each call, so a rebound name is honoured."""
    if decoder_kind == "minsyn_binary":
        return binary_batch_stats, binary_decoder_params
    return gaussian_batch_stats, gaussian_decoder_params


def _feature_sums(terms: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Per-sample sums over the features of loss terms (B, n), each feature
    counted ``weights[i]`` times when weights (n,) are given."""
    return np.add.reduce(terms, axis=-1) if weights is None else terms @ weights


def _logit_bce_losses(x: np.ndarray, a: np.ndarray, t: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Per-sample cross entropy of sigmoid(a) against x from the logits a
    and t = exp(-|a|): the sum over features of log1p(t) + max(a, 0) - x a,
    weighted as ``_feature_sums`` weights it.  It equals the bce of
    ``sample_losses`` wherever that clamp is inactive, and stays finite and
    grows like |a| where the clamp would cap it."""
    terms = np.maximum(a, 0.0)
    scratch = np.log1p(t)
    terms += scratch
    np.multiply(x, a, out=scratch)
    terms -= scratch
    return _feature_sums(terms, weights)


def _check_bce_operand(name: str, arr: np.ndarray) -> None:
    # Written so that a NaN, whose comparisons are all false, fails it.
    if not (np.minimum.reduce(arr, axis=None) >= -1e-9
            and np.maximum.reduce(arr, axis=None) <= 1.0 + 1e-9):
        raise ValueError(f"bce requires {name} in [0, 1]")


def sample_losses(x: np.ndarray, xbar: np.ndarray, kind: str) -> np.ndarray:
    """Per-sample reconstruction loss, summed over the features: shape (B,).

    ``bce`` expects both arguments in [0, 1] and clamps the reconstruction to
    [1e-7, 1 - 1e-7]; ``mse`` is the plain squared error.  A sample's loss
    depends on its own row alone.  An empty batch is rejected.
    """
    x = np.asarray(x, dtype=float)
    xb = np.asarray(xbar, dtype=float)
    if x.shape != xb.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xb.shape}")
    if x.size == 0:
        raise ValueError(f"cannot score an empty batch of shape {x.shape}")
    if kind == "bce":
        _check_bce_operand("x", x)
        _check_bce_operand("xbar", xb)
        xc = np.clip(xb, BCE_CLAMP, 1.0 - BCE_CLAMP)
        # -(x * log(xc) + (1 - x) * log1p(-xc)) in its own operation order, so
        # the floats do not change, but in place to skip the temporaries.
        terms = np.log(xc)
        terms *= x
        np.negative(xc, out=xc)
        np.log1p(xc, out=xc)
        xc *= 1.0 - x
        terms += xc
        np.negative(terms, out=terms)
        return terms.sum(axis=-1)
    if kind == "mse":
        return ((x - xb) ** 2).sum(axis=-1)
    raise ValueError(f"loss kind must be one of {LOSS_KINDS}")


def loss(x: np.ndarray, xbar: np.ndarray, kind: str) -> float:
    """Reconstruction loss: sum over features, mean over the batch, i.e. the
    mean of ``sample_losses``."""
    return float(sample_losses(x, xbar, kind).mean())


@dataclass(eq=False)
class ForwardCache:
    x_input: np.ndarray  # encoder input after any input noise
    pre: list  # pre-activations per encoder layer
    post: list  # outputs per encoder layer
    z: np.ndarray  # latent fed to the decoder
    dropout_mask: np.ndarray | None
    decoder_pre: np.ndarray  # decoder pre-activation
    decoder_exp: np.ndarray | None  # exp(-|decoder_pre|) of a sigmoid output
    xbar: np.ndarray
    batch_stats: GaussianStats | BinaryStats | None


def _draw_shape(model, regularizer, rows: int) -> tuple | None:
    """Shape of the regularizer's draw for ``rows`` samples, or None."""
    if regularizer.is_noop:
        return None
    return rows, (model.input_dim if regularizer.kind == "input_gaussian_noise"
                  else model.latent_dim)


def _draw(rng: np.random.Generator, regularizer: Regularizer, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the regularizer's draw: uniforms for dropout,
    standard normals for the noises.  Filling an array gives the values of
    drawing its consecutive pieces in turn, so one call can draw an epoch."""
    if regularizer.kind == "dropout":
        return rng.random(out=out)
    return rng.standard_normal(out=out)


def _encode(model, x_input, regularizer, draw) -> tuple:
    pre, post = [], []
    h = x_input
    for layer in model.encoder:
        a = h @ layer.weights.T + layer.bias
        h = _ACTIVATIONS[layer.activation][0](a)
        pre.append(a)
        post.append(h)
    dropout_mask = None
    z = h
    if regularizer.kind == "dropout":
        keep = 1.0 - regularizer.p
        dropout_mask = (draw < keep) / keep
        z = h * dropout_mask
    elif regularizer.kind == "latent_gaussian_noise":
        z = h + regularizer.sigma * draw
    return pre, post, z, dropout_mask


def _decode(model, x_target, z, mode):
    """Returns (xbar, decoder_pre, decoder_exp, stats_or_None).

    Every decoder is one affine readout (W, b) followed by the kind's output
    activation: the learned layer, the readout of the batch statistics
    (train) or that of their moving average (eval).  A sigmoid output also
    returns the exp(-|a|) it was built from, which the training loss reuses;
    a linear output returns None there."""
    stats = None
    if model.decoder is not None:
        readout = model.decoder
    elif mode == "train":
        batch_stats, readout_of = _minsyn_functions(model.decoder_kind)
        stats = batch_stats(x_target, z)
        readout = readout_of(stats)
    else:
        readout = model.decoder_params_from_average()
    a = z @ readout.weights.T
    a += readout.bias
    if DECODER_OUTPUT[model.decoder_kind] == "identity":
        return a, a, None, stats
    xbar, t = _sigmoid_and_exp(a)
    return xbar, a, t, stats


def _forward_cached(model, x, mode, regularizer, rng, draw=None) -> ForwardCache:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape} does not match input dim {model.input_dim}")
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    # Corruption is training-time only, and p=0 / sigma=0 draw nothing.
    if mode == "eval" or regularizer.is_noop:
        regularizer = NO_REGULARIZER
    elif draw is None:
        if rng is None:
            raise ValueError("training with an active regularizer needs an rng")
        draw = _draw(rng, regularizer, np.empty(_draw_shape(model, regularizer, x.shape[0])))
    x_input = x
    if regularizer.kind == "input_gaussian_noise":
        x_input = x + regularizer.sigma * draw
    pre, post, z, mask = _encode(model, x_input, regularizer, draw)
    xbar, dec_pre, dec_exp, stats = _decode(model, x, z, mode)
    return ForwardCache(x_input=x_input, pre=pre, post=post, z=z,
                        dropout_mask=mask, decoder_pre=dec_pre, decoder_exp=dec_exp,
                        xbar=xbar, batch_stats=stats)


def forward(model: AutoencoderModel, x, mode: str = "eval",
            rng: np.random.Generator | None = None,
            regularizer: Regularizer = NO_REGULARIZER):
    """Run the autoencoder on a batch; returns (z, xbar).

    In train mode the regularizer corruption is applied and minsyn decoder
    parameters come from the batch statistics; in eval mode the input passes
    through untouched and minsyn parameters come from the moving average.
    """
    cache = _forward_cached(model, x, mode, regularizer, rng)
    return cache.z, cache.xbar


def gradients(model: AutoencoderModel, x, rng: np.random.Generator | None = None,
              regularizer: Regularizer = NO_REGULARIZER,
              output_weights: np.ndarray | None = None,
              input_columns: np.ndarray | None = None,
              draw: np.ndarray | None = None):
    """Loss and exact parameter gradients for one training batch.

    Returns (loss_value, grads keyed like model.parameters(), batch_stats).
    Minsyn decoder parameters are recomputed from the batch statistics but
    treated as constants: no gradient flows into the statistics, while the
    encoder still receives gradient through z via the affine readout.

    A sigmoid output trains on the cross entropy of its logits a, with no
    clamp: sum of log1p(exp(-|a|)) + max(a, 0) - x a, whose gradient in a is
    (xbar - x) / B everywhere.  A linear output trains on the squared error.

    ``output_weights`` (n,) counts output i's loss term that many times, as
    if the batch held that many copies of its column: a MinSyn run trains
    one output per group of equal pixels, weighted by the group's size.

    ``input_columns`` takes the first layer's weight gradient over those
    input columns only, for inputs whose other columns repeat them.
    ``draw`` is this batch's regularizer draw (``_draw``), made in place of
    one from ``rng``.
    """
    x = np.asarray(x, dtype=float)
    b = x.shape[0]
    if model.loss_kind == "bce":
        _check_bce_operand("x", x)
    cache = _forward_cached(model, x, "train", regularizer, rng, draw)
    if model.loss_kind == "bce":
        losses = _logit_bce_losses(x, cache.decoder_pre, cache.decoder_exp, output_weights)
        d_pre = np.subtract(cache.xbar, x)
        d_pre /= b
    else:
        losses = _feature_sums((x - cache.xbar) ** 2, output_weights)
        d_pre = 2.0 * (cache.xbar - x) / b
    if output_weights is not None:
        d_pre *= output_weights
    # The mean as ndarray.mean takes it, the sum over the count.
    loss_value = float(np.add.reduce(losses)) / losses.size
    grads = {}
    if model.decoder is None:
        w = _minsyn_functions(model.decoder_kind)[1](cache.batch_stats).weights
    else:
        w = model.decoder.weights
        grads["decoder.weights"] = d_pre.T @ cache.z
        grads["decoder.bias"] = np.add.reduce(d_pre, axis=0)
    d_z = d_pre @ w

    if cache.dropout_mask is not None:
        d_h = d_z * cache.dropout_mask
    else:
        d_h = d_z
    for i in range(len(model.encoder) - 1, -1, -1):
        layer = model.encoder[i]
        d_a = d_h * _ACTIVATIONS[layer.activation][1](cache.pre[i], cache.post[i])
        if i > 0:
            below = cache.post[i - 1]
        elif input_columns is None:
            below = cache.x_input
        else:
            below = cache.x_input[:, input_columns]
        grads[f"encoder.{i}.weights"] = d_a.T @ below
        grads[f"encoder.{i}.bias"] = np.add.reduce(d_a, axis=0)
        if i > 0:  # the gradient with respect to the input has no reader
            d_h = d_a @ layer.weights
    return loss_value, grads, cache.batch_stats


# Elements per block of the flat Adam update.  A block's four float64 rows
# (the two moments, and the gradient and its square, which then hold the
# update) take 1 MiB, so they stay in a 2 MiB cache together.
ADAM_BLOCK = 32 * 1024
# Row 0 of the moment buffer is the first moment m, row 1 the second, v.
_ADAM_BETAS = np.array([[ADAM_BETA1], [ADAM_BETA2]])
_ADAM_GRAD_SCALES = 1.0 - _ADAM_BETAS


@dataclass
class AdamState:
    """First/second-moment accumulators for a named set of parameters.

    The first step lays the moments of every parameter out in one flat
    (2, size) buffer, m in row 0 and v in row 1; ``m[name]`` and
    ``v[name]`` are views of it, shaped like the parameter.  The update
    runs over that buffer in blocks of at most ``ADAM_BLOCK`` elements of
    whole parameter rows, with two scratch rows kept from step to step.
    """

    lr: float = 0.001
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    _shapes: dict | None = field(default=None, init=False, repr=False)
    # (moments, scratch rows, row 0, row 1, pieces) per block; a piece is
    # (name, index into the parameter, view of scratch row 0 shaped like
    # that part).
    _blocks: list = field(default_factory=list, init=False, repr=False)
    # The bias corrections 1 - beta ** t of this step, one per moment row.
    _corrections: np.ndarray = field(default_factory=lambda: np.ones((2, 1)), init=False,
                                     repr=False)


def _adam_layout(state: AdamState, params: dict) -> None:
    """Lay out the flat moments of ``params``, their blocks and the scratch
    rows in ``state``."""
    moments = np.zeros((2, sum(p.size for p in params.values())))
    spans = []  # [block start, block stop, [(name, index, flat start, flat stop)]]
    offset = 0
    for name, p in params.items():
        state.m[name] = moments[0, offset:offset + p.size].reshape(p.shape)
        state.v[name] = moments[1, offset:offset + p.size].reshape(p.shape)
        if p.size <= ADAM_BLOCK:
            pieces = [(name, ..., offset, offset + p.size)]
        else:  # whole rows, as many as a block holds
            rows, row = p.shape[0], p.size // p.shape[0]
            step = max(1, ADAM_BLOCK // row)
            pieces = [(name, slice(r, r + step), offset + r * row,
                       offset + min(r + step, rows) * row) for r in range(0, rows, step)]
        for piece in pieces:
            if spans and piece[3] - spans[-1][0] <= ADAM_BLOCK:
                spans[-1][1] = piece[3]
                spans[-1][2].append(piece)
            else:
                spans.append([piece[2], piece[3], [piece]])
        offset += p.size
    scratch = np.empty((2, max((stop - start for start, stop, _ in spans), default=0)))
    for start, stop, pieces in spans:
        rows = scratch[:, :stop - start]
        views = [(name, index, rows[0, a - start:b - start].reshape(params[name][index].shape))
                 for name, index, a, b in pieces]
        state._blocks.append((moments[:, start:stop], rows, rows[0], rows[1], views))


def adam_step(state: AdamState, params: dict, grads: dict):
    """One bias-corrected Adam update, in place on the parameter arrays.

    Every step must pass the parameter names and shapes of the first."""
    shapes = {name: p.shape for name, p in params.items()}
    for name, shape in shapes.items():
        if grads[name].shape != shape:
            raise ValueError(f"gradient shape mismatch on {name}")
    if state._shapes is None:
        _adam_layout(state, params)
        state._shapes = shapes
    elif shapes != state._shapes:
        raise ValueError("Adam steps must update the parameters of the first step")
    state.t += 1
    corrections = state._corrections
    corrections[0, 0] = 1.0 - ADAM_BETA1 ** state.t
    corrections[1, 0] = 1.0 - ADAM_BETA2 ** state.t
    for moments, rows, first, second, pieces in state._blocks:
        for name, index, view in pieces:
            view[...] = grads[name][index]
        # m <- b1 m + (1 - b1) g and v <- b2 v + (1 - b2) g^2, then
        # p -= lr * m_hat / (sqrt(v_hat) + eps): the scratch rows hold g and
        # g^2, then m_hat and v_hat.  Each formula keeps its operation
        # order, so the floats are those of one parameter at a time.
        np.multiply(first, first, out=second)
        moments *= _ADAM_BETAS
        rows *= _ADAM_GRAD_SCALES
        moments += rows
        np.divide(moments, corrections, out=rows)
        np.sqrt(second, out=second)
        second += ADAM_EPS
        first *= state.lr
        first /= second
        for name, index, view in pieces:
            p = params[name][index]
            p -= view
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    seed: int
    lr: float
    decoder_kind: str
    encoder_spec: tuple  # ((units, activation), ...)
    regularizer: Regularizer = NO_REGULARIZER

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 2:
            raise ValueError("need epochs >= 0 and batch_size >= 2")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}")
        if not self.encoder_spec:
            raise ValueError("encoder_spec must name at least one layer")
        object.__setattr__(self, "encoder_spec",
                           tuple((int(u), str(a)) for u, a in self.encoder_spec))


# (get, set) thread-count entry points: numpy's bundled scipy-openblas, then
# a plain OpenBLAS.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the OpenBLAS numpy links against, or None, with one
    warning, when numpy bundles no OpenBLAS that exports them."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                get, put = getattr(handle, get_name), getattr(handle, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    log.warning("no OpenBLAS thread control found: training runs on the BLAS "
                "library's own thread count, and its bytes may depend on it")
    return None


# Open _one_blas_thread blocks, over all threads, and the thread count the
# outermost one found; both guarded by _BLAS_PIN_LOCK.
_BLAS_PIN_LOCK = threading.Lock()
_blas_pin_depth = 0
_blas_count_before = 0


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count.

    Multithreaded OpenBLAS products can round differently from the
    one-thread ones, so a pinned run trains the same bytes at any
    OPENBLAS_NUM_THREADS.  The count is one setting of the whole process,
    so blocks open on several threads at once share one pin: the first to
    enter sets it and the last to leave restores it."""
    global _blas_pin_depth, _blas_count_before
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _BLAS_PIN_LOCK:
        if _blas_pin_depth == 0:
            _blas_count_before = get()
            put(1)
        _blas_pin_depth += 1
    try:
        yield
    finally:
        with _BLAS_PIN_LOCK:
            _blas_pin_depth -= 1
            if _blas_pin_depth == 0:
                put(_blas_count_before)


def train_autoencoder(config: TrainConfig, data) -> tuple:
    """Train on ``data`` (N, n); returns (model, per-epoch mean batch loss).

    Deterministic given config.seed: one generator drives initialization,
    shuffling and regularizer noise in a fixed order, and the run holds
    OpenBLAS to one thread.  A trailing batch of a single sample is dropped
    (batch statistics need at least two); that is logged once per run.
    """
    with _one_blas_thread():
        return _train(config, data)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _sched_getcpu():
    """The C library's ``sched_getcpu``, or None where the system has no
    thread affinity to set or no such call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        call = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    call.argtypes, call.restype = [], ctypes.c_int
    return call


def _cpus_beside() -> set:
    """The CPUs this thread may run on other than the one it runs on now,
    or an empty set where that cannot be told."""
    getcpu = _sched_getcpu()
    return set() if getcpu is None else os.sched_getaffinity(0) - {getcpu()}


def _pixel_groups(config: TrainConfig, data: np.ndarray) -> tuple | None:
    """(first, group, size) of the groups of pixels whose columns of
    ``data`` are equal byte for byte, or None when no column repeats or the
    run adds input noise, which makes every column differ.

    Groups are numbered in the order of their first pixel ``first[g]``;
    ``group[i]`` is pixel i's group and ``size[g]`` its pixel count.  The
    pixels of a group get the same first-layer weight gradient, so Adam
    moves their encoder columns alike: every run takes that gradient and
    its Adam moments once per group.  A MinSyn output is also read out
    through its own batch statistics, so the pixels of a group get the same
    readout row, output and loss, and a MinSyn run trains one output per
    group, weighted by the group's size, and spreads the result back."""
    reg = config.regularizer
    if reg.kind == "input_gaussian_noise" and not reg.is_noop:
        return None
    n = data.shape[1]
    columns = np.ascontiguousarray(data.T)
    keys = columns.view(np.dtype((np.void, columns.itemsize * columns.shape[1]))).ravel()
    groups = {}  # column bytes -> group
    first, group = [], []
    for i, key in enumerate(keys.tolist()):
        g = groups.setdefault(key, len(groups))
        if g == len(first):
            first.append(i)
        group.append(g)
    if len(first) == n:
        return None
    log.info("training on %d pixel groups of %d pixels; the pixels of a group are "
             "equal in every training image", len(first), n)
    group = np.array(group, dtype=np.intp)
    return np.array(first, dtype=np.intp), group, np.bincount(group).astype(float)


def _draw_epoch(rng, regularizer, samples, order, draws) -> None:
    """Make one epoch's generator calls in the training loop's order, into
    buffers: the permutation of ``samples`` (0..N-1) into ``order``, as
    ``rng.permutation(N)`` draws it, then the regularizer's draw for each
    batch of two or more samples, one after another, into ``draws`` (None
    when the regularizer draws nothing)."""
    order[...] = samples
    rng.shuffle(order)
    if draws is not None:
        _draw(rng, regularizer, draws)


@contextmanager
def _epoch_draws(rng, regularizer, epochs: int, n_samples: int, shape):
    """Yield ``next_epoch(epoch)``, which returns the epoch's (order, draws
    of ``shape`` or None), as ``_draw_epoch`` makes them; it is called for
    epochs 0, 1, ... in turn.

    With two usable CPUs, something to draw and an epoch to train, one
    worker, the only user of ``rng``, fills a two-epoch ring one epoch ahead
    of the loop; numpy fills without the interpreter lock.  Every buffer is
    allocated here: what a thread allocates grows a malloc arena of its own.
    The worker keeps off the loop's CPU: the scheduler tends to wake it
    there, and the two would take turns.  Its error is raised by
    ``next_epoch`` for the epoch it was drawing, and it is joined before
    this block exits."""
    samples = np.arange(n_samples)
    if shape is None or not epochs or _usable_cpus() < 2:
        order, draws = np.empty_like(samples), None if shape is None else np.empty(shape)

        def draw_now(epoch) -> tuple:
            _draw_epoch(rng, regularizer, samples, order, draws)
            return order, draws

        yield draw_now
        return
    orders, ring = np.empty((2, n_samples), dtype=samples.dtype), np.empty((2, *shape))
    beside = _cpus_beside()

    def keep_beside() -> None:
        if beside:
            try:
                os.sched_setaffinity(0, beside)
            except OSError:  # a hint: CPUs can go offline or out of the process's set
                pass

    def draw(slot):
        return pool.submit(_draw_epoch, rng, regularizer, samples, orders[slot], ring[slot])

    def next_epoch(epoch) -> tuple:
        nonlocal pending
        pending.result()
        slot = epoch % 2
        if epoch + 1 < epochs:  # into the slot the loop has just finished with
            pending = draw(1 - slot)
        return orders[slot], ring[slot]

    with ThreadPoolExecutor(1, "minsyn-draws", initializer=keep_beside) as pool:
        pending = draw(0)
        yield next_epoch


def _train(config: TrainConfig, data) -> tuple:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise ValueError("data must be a non-empty (N, n) matrix")
    n_samples, n = data.shape
    model = build_autoencoder(n, config.encoder_spec, config.decoder_kind,
                              seed=config.seed)
    trained, size, columns = model, None, None
    params = model.parameters()
    groups = _pixel_groups(config, data)
    if groups is not None:
        first, group, group_size = groups
        layer = model.encoder[0]
        # Adam's first-layer weights, one column per group.
        step = np.zeros((layer.fan_out, first.size))
        if config.decoder_kind in MINSYN_KINDS:
            # The first layer holds each group's summed initial columns plus
            # the group's size times a shared step, which starts at zero.
            # Adam moves the step on the gradient of one member column, so
            # every member moves as it would alone.
            base = np.zeros_like(step)
            np.add.at(base.T, group, layer.weights.T)
            trained = AutoencoderModel(
                encoder=[DenseLayer(base.copy(), layer.bias, layer.activation),
                         *model.encoder[1:]],
                decoder_kind=model.decoder_kind)
            params = {**trained.parameters(), "encoder.0.weights": step}
            size = group_size
            data = data[:, first]
        else:
            # A learned run keeps its full-width forward pass.  The step is
            # zero before each update, so Adam leaves minus the update in
            # it: adding that to each member column is subtracting it.
            params = {**params, "encoder.0.weights": step}
            columns, spread = first, np.empty_like(layer.weights)
    rng = np.random.default_rng(config.seed + 1)
    opt = AdamState(lr=config.lr)
    history = []
    batch_size = config.batch_size
    dropped = n_samples % batch_size == 1
    if config.epochs and dropped:
        log.info("dropping the trailing batch of one sample in each of the %d epochs",
                 config.epochs)
    # The regularizer draws for every sample an epoch trains on.
    shape = _draw_shape(trained, config.regularizer, n_samples - dropped)
    with _epoch_draws(rng, config.regularizer, config.epochs, n_samples, shape) as next_epoch:
        for epoch in range(config.epochs):
            order, draws = next_epoch(epoch)
            batch_losses = []
            for start in range(0, n_samples, batch_size):
                idx = order[start:start + batch_size]
                if idx.size == 1:
                    continue
                loss_value, grads, stats = gradients(
                    trained, data[idx], regularizer=config.regularizer,
                    output_weights=size, input_columns=columns,
                    draw=None if draws is None else draws[start:start + idx.size])
                if not math.isfinite(loss_value):
                    raise TrainingDivergedError(epoch, start // batch_size)
                adam_step(opt, params, grads)
                if columns is not None:
                    model.encoder[0].weights += np.take(step, group, axis=1, out=spread)
                    step.fill(0.0)
                elif size is not None:
                    weights = trained.encoder[0].weights
                    np.multiply(step, size, out=weights)
                    weights += base
                if stats is not None:
                    trained.ma_state = update_moving_average(trained.ma_state, stats)
                batch_losses.append(loss_value)
            history.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    if size is not None:
        model.encoder[0].weights += step[:, group]
        ma = trained.ma_state
        if ma.stats is not None:
            model.ma_state = MovingAverageState(widen_outputs(ma.stats, group),
                                                ma.step_count)
    return model, history


def pca_fit(data, k: int):
    """Top-k principal components of ``data`` (N, n).

    Returns (components, mean) with components (k, n) ordered by decreasing
    eigenvalue; each component's largest-magnitude entry is made positive so
    the decomposition is deterministic.  The components are the leading right
    singular vectors of the centred data, so the n x n covariance is never
    formed.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be 2-D")
    n_samples, n_features = x.shape
    if not (1 <= k <= min(n_samples, n_features)):
        raise ValueError(f"k={k} out of range for data {x.shape}")
    mean = x.mean(axis=0)
    # Singular values come out in decreasing order, so the first k rows are
    # the components of largest variance.
    _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components, mean


@dataclass(eq=False)
class PcaModel:
    """Linear reconstruction through the top principal components."""

    components: np.ndarray  # (k, n)
    mean: np.ndarray  # (n,)

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        if (self.components.ndim != 2 or self.components.shape[0] < 1
                or self.mean.shape != (self.components.shape[1],)):
            raise ValueError("PCA components must be (k >= 1, n) with a mean of length n")
        if not (np.all(np.isfinite(self.components)) and np.all(np.isfinite(self.mean))):
            raise ValueError("PCA components and mean must be finite")

    @property
    def product_sizes(self) -> tuple:
        """Multiply-adds per image of the matrix products of a
        reconstruction: the projection and its way back take the same."""
        return (self.components.size,)

    def reconstruct(self, x) -> np.ndarray:
        """Reconstruction of the images x (N, n), on one OpenBLAS thread."""
        xc = np.asarray(x, dtype=float) - self.mean
        with _one_blas_thread():
            return self.mean + (xc @ self.components.T) @ self.components

    def decoder_weight_matrix(self) -> np.ndarray:
        return self.components.T.copy()
