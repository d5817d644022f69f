"""Minimal dense autoencoder stack: forward/backward passes, losses, Adam.

Everything is plain numpy and deterministic given a seed.  Decoders come in
two families: learned dense layers, and fixed readouts whose parameters are
recomputed from batch statistics each step (moving-averaged for evaluation).
Gradients never flow through the statistics; the encoder still receives
gradient through z in the decoder's affine form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .decoder import (
    BinaryStats,
    DecoderParams,
    GaussianStats,
    MovingAverageState,
    binary_decoder_params,
    clipped_binary_batch_stats,
    gaussian_batch_stats,
    gaussian_decoder_params,
    update_moving_average,
)

log = logging.getLogger(__name__)

ACTIVATIONS = ("identity", "sigmoid", "softplus")
# The loss each decoder kind trains and is scored with: cross entropy for the
# sigmoid-output decoders, squared error for the linear ones.
DECODER_LOSS = {"learned_sigmoid": "bce", "learned_linear": "mse",
                "minsyn_binary": "bce", "minsyn_gaussian": "mse"}
DECODER_KINDS = tuple(DECODER_LOSS)
MINSYN_KINDS = ("minsyn_binary", "minsyn_gaussian")
LOSS_KINDS = ("bce", "mse")
REGULARIZER_KINDS = ("none", "dropout", "input_gaussian_noise", "latent_gaussian_noise")

BCE_CLAMP = 1e-7


class TrainingDivergedError(RuntimeError):
    """Loss became NaN; carries the epoch and batch where it happened."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss became NaN at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Overflow-free logistic exp(min(v, 0)) / (1 + exp(-|v|)): bit for bit
    1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) for v < 0, with no
    branch and no temporaries beyond its two buffers."""
    v = np.asarray(v, dtype=float)
    num = np.minimum(v, 0.0, out=np.empty_like(v))
    np.exp(num, out=num)
    den = np.abs(v, out=np.empty_like(v))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num /= den
    return num


def softplus(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


def _activate(name: str, a: np.ndarray) -> np.ndarray:
    if name == "identity":
        return a
    if name == "sigmoid":
        return sigmoid(a)
    if name == "softplus":
        return softplus(a)
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(name: str, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d y / d a given pre-activation a and output y."""
    if name == "identity":
        return np.ones_like(a)
    if name == "sigmoid":
        return y * (1.0 - y)
    if name == "softplus":
        return sigmoid(a)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
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
    Gaussian noise on the inputs or latents.  p=0 / sigma=0 are exact no-ops."""

    kind: str = "none"
    p: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"regularizer kind must be one of {REGULARIZER_KINDS}")
        if not (0.0 <= self.p < 1.0):
            raise ValueError("dropout probability must lie in [0, 1)")
        if self.sigma < 0.0:
            raise ValueError("noise sigma must be >= 0")

    @property
    def is_noop(self) -> bool:
        return (self.kind == "none"
                or (self.kind == "dropout" and self.p == 0.0)
                or (self.kind.endswith("gaussian_noise") and self.sigma == 0.0))


NO_REGULARIZER = Regularizer()


@dataclass
class AutoencoderModel:
    encoder: list[DenseLayer]
    decoder_kind: str
    decoder: DenseLayer | None = None  # learned kinds only
    ma_state: MovingAverageState | None = None  # minsyn kinds only
    loss_kind: str = "bce"

    def __post_init__(self):
        if not self.encoder:
            raise ValueError("encoder needs at least one layer")
        for a, b in zip(self.encoder, self.encoder[1:]):
            if b.fan_in != a.fan_out:
                raise ValueError("encoder layer shapes do not chain")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.loss_kind != DECODER_LOSS[self.decoder_kind]:
            raise ValueError(
                f"decoder {self.decoder_kind} pairs with {DECODER_LOSS[self.decoder_kind]} loss"
            )
        if self.decoder_kind in MINSYN_KINDS:
            if self.decoder is not None:
                raise ValueError("minsyn decoders carry no learned layer")
            if self.ma_state is None:
                self.ma_state = MovingAverageState(stats=None)
        else:
            if self.decoder is None:
                raise ValueError("learned decoder kinds need a decoder layer")
            if self.decoder.fan_in != self.latent_dim:
                raise ValueError("decoder input does not match the latent size")

    @property
    def input_dim(self) -> int:
        return self.encoder[0].fan_in

    @property
    def latent_dim(self) -> int:
        return self.encoder[-1].fan_out

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
        stats = self.ma_state.stats
        if self.decoder_kind == "minsyn_binary":
            return binary_decoder_params(stats)
        return gaussian_decoder_params(stats)

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
                      seed: int = 0, momentum: float = 0.99) -> AutoencoderModel:
    """Construct a seeded model from an encoder spec [(units, activation), ...]."""
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for units, activation in encoder_spec:
        layers.append(init_dense_layer(rng, fan_in, int(units), activation))
        fan_in = int(units)
    decoder = None
    ma = None
    if decoder_kind in MINSYN_KINDS:
        ma = MovingAverageState(stats=None, momentum=momentum)
    else:
        activation = "sigmoid" if decoder_kind == "learned_sigmoid" else "identity"
        decoder = init_dense_layer(rng, fan_in, input_dim, activation)
    return AutoencoderModel(encoder=layers, decoder_kind=decoder_kind,
                            decoder=decoder, ma_state=ma,
                            loss_kind=DECODER_LOSS[decoder_kind])


def _check_bce_operand(name: str, arr: np.ndarray) -> None:
    if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
        raise ValueError(f"bce requires {name} in [0, 1]")


def sample_losses(x: np.ndarray, xbar: np.ndarray, kind: str) -> np.ndarray:
    """Per-sample reconstruction loss, summed over the features: shape (B,).

    ``bce`` expects both arguments in [0, 1] and clamps the reconstruction to
    [1e-7, 1 - 1e-7]; ``mse`` is the plain squared error.  A sample's loss
    depends on its own row alone.
    """
    x = np.asarray(x, dtype=float)
    xb = np.asarray(xbar, dtype=float)
    if x.shape != xb.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xb.shape}")
    if kind == "bce":
        _check_bce_operand("x", x)
        _check_bce_operand("xbar", xb)
    return _sample_losses(x, xb, kind)


def loss(x: np.ndarray, xbar: np.ndarray, kind: str) -> float:
    """Reconstruction loss: sum over features, mean over the batch, i.e. the
    mean of ``sample_losses``."""
    return float(sample_losses(x, xbar, kind).mean())


def _sample_losses(x: np.ndarray, xb: np.ndarray, kind: str) -> np.ndarray:
    """``sample_losses`` without the range checks, for float arrays of one
    shape."""
    if kind == "mse":
        return ((x - xb) ** 2).sum(axis=-1)
    if kind == "bce":
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
    raise ValueError(f"loss kind must be one of {LOSS_KINDS}")


@dataclass
class ForwardCache:
    x_input: np.ndarray  # encoder input after any input noise
    pre: list  # pre-activations per encoder layer
    post: list  # outputs per encoder layer
    z_pre: np.ndarray  # latent before latent-side regularizer
    z: np.ndarray  # latent fed to the decoder
    dropout_mask: np.ndarray | None
    decoder_pre: np.ndarray | None  # decoder pre-activation (learned / binary)
    xbar: np.ndarray
    batch_stats: GaussianStats | BinaryStats | None


def _encode(model, x_input, mode, regularizer, rng) -> tuple:
    pre, post = [], []
    h = x_input
    for layer in model.encoder:
        a = h @ layer.weights.T + layer.bias
        h = _activate(layer.activation, a)
        pre.append(a)
        post.append(h)
    z_pre = h
    dropout_mask = None
    z = z_pre
    if mode == "train" and not regularizer.is_noop:
        if regularizer.kind == "dropout":
            keep = 1.0 - regularizer.p
            dropout_mask = (rng.random(z_pre.shape) < keep) / keep
            z = z_pre * dropout_mask
        elif regularizer.kind == "latent_gaussian_noise":
            z = z_pre + regularizer.sigma * rng.standard_normal(z_pre.shape)
    return pre, post, z_pre, z, dropout_mask


def _decode(model, x_target, z, mode, fixed_params=None):
    """Returns (xbar, decoder_pre, params_or_None, stats_or_None)."""
    kind = model.decoder_kind
    if kind in MINSYN_KINDS:
        stats = None
        if fixed_params is not None:
            params = fixed_params
        elif mode == "train":
            if kind == "minsyn_binary":
                stats = clipped_binary_batch_stats(x_target, z)
                params = binary_decoder_params(stats)
            else:
                stats = gaussian_batch_stats(x_target, z)
                params = gaussian_decoder_params(stats)
        else:
            params = model.decoder_params_from_average()
        a = params.linear(z)
        if kind == "minsyn_binary":
            return sigmoid(a), a, params, stats
        return a, None, params, stats
    a = z @ model.decoder.weights.T + model.decoder.bias
    xbar = _activate(model.decoder.activation, a)
    return xbar, a, None, None


def _forward_cached(model, x, mode, regularizer, rng, fixed_params=None) -> ForwardCache:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {x.shape} does not match input dim {model.input_dim}")
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    if mode == "train" and not regularizer.is_noop and rng is None:
        raise ValueError("training with an active regularizer needs an rng")
    x_input = x
    if mode == "train" and regularizer.kind == "input_gaussian_noise" and not regularizer.is_noop:
        x_input = x + regularizer.sigma * rng.standard_normal(x.shape)
    pre, post, z_pre, z, mask = _encode(model, x_input, mode, regularizer, rng)
    xbar, dec_pre, _, stats = _decode(model, x, z, mode, fixed_params)
    return ForwardCache(x_input=x_input, pre=pre, post=post, z_pre=z_pre, z=z,
                        dropout_mask=mask, decoder_pre=dec_pre, xbar=xbar,
                        batch_stats=stats)


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


def evaluate_loss(model: AutoencoderModel, x, mode: str = "eval",
                  rng: np.random.Generator | None = None,
                  regularizer: Regularizer = NO_REGULARIZER,
                  fixed_decoder_params: DecoderParams | None = None) -> float:
    """Loss of one forward pass; reconstruction is always scored against the
    clean input.  ``fixed_decoder_params`` pins a minsyn decoder so the loss
    is a pure function of the network parameters (used by gradient checks)."""
    x = np.asarray(x, dtype=float)
    cache = _forward_cached(model, x, mode, regularizer, rng, fixed_decoder_params)
    return loss(x, cache.xbar, model.loss_kind)


def _loss_grad_wrt_xbar(x, xbar, kind) -> np.ndarray:
    b = x.shape[0]
    if kind == "mse":
        return 2.0 * (xbar - x) / b
    xc = np.clip(xbar, BCE_CLAMP, 1.0 - BCE_CLAMP)
    g = ((1.0 - x) / (1.0 - xc) - x / xc) / b
    # Where the clamp is active the loss is locally flat in xbar.
    return np.where(xbar == xc, g, 0.0)


def gradients(model: AutoencoderModel, x, rng: np.random.Generator | None = None,
              regularizer: Regularizer = NO_REGULARIZER,
              fixed_decoder_params: DecoderParams | None = None):
    """Loss and exact parameter gradients for one training batch.

    Returns (loss_value, grads keyed like model.parameters(), batch_stats).
    Minsyn decoder parameters are recomputed from the batch statistics but
    treated as constants: no gradient flows into the statistics, while the
    encoder still receives gradient through z via the affine readout.
    """
    x = np.asarray(x, dtype=float)
    if model.loss_kind == "bce":
        _check_bce_operand("x", x)
    cache = _forward_cached(model, x, "train", regularizer, rng, fixed_decoder_params)
    # Only x is checked: the reconstruction of a bce model is a sigmoid
    # output, in [0, 1] by construction.
    loss_value = float(_sample_losses(x, cache.xbar, model.loss_kind).mean())
    grads = {}

    d_xbar = _loss_grad_wrt_xbar(x, cache.xbar, model.loss_kind)
    kind = model.decoder_kind
    if kind in MINSYN_KINDS:
        if fixed_decoder_params is not None:
            params = fixed_decoder_params
        elif kind == "minsyn_binary":
            params = binary_decoder_params(cache.batch_stats)
        else:
            params = gaussian_decoder_params(cache.batch_stats)
        if kind == "minsyn_binary":
            d_pre = d_xbar * cache.xbar * (1.0 - cache.xbar)
        else:
            d_pre = d_xbar
        d_z = d_pre @ params.weights
    else:
        d_pre = d_xbar * _activate_grad(model.decoder.activation,
                                        cache.decoder_pre, cache.xbar)
        grads["decoder.weights"] = d_pre.T @ cache.z
        grads["decoder.bias"] = d_pre.sum(axis=0)
        d_z = d_pre @ model.decoder.weights

    if cache.dropout_mask is not None:
        d_h = d_z * cache.dropout_mask
    else:
        d_h = d_z
    for i in range(len(model.encoder) - 1, -1, -1):
        layer = model.encoder[i]
        d_a = d_h * _activate_grad(layer.activation, cache.pre[i], cache.post[i])
        below = cache.post[i - 1] if i > 0 else cache.x_input
        grads[f"encoder.{i}.weights"] = d_a.T @ below
        grads[f"encoder.{i}.bias"] = d_a.sum(axis=0)
        if i > 0:  # the gradient with respect to the input has no reader
            d_h = d_a @ layer.weights
    return loss_value, grads, cache.batch_stats


@dataclass
class AdamState:
    """First/second-moment accumulators for a named set of parameters."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict):
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch on {name}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g ** 2
        # p -= lr * m_hat / (sqrt(v_hat) + eps) in its own operation order, so
        # the floats do not change, but in place to skip the temporaries.
        m_hat = m / (1.0 - b1 ** state.t)
        denom = v / (1.0 - b2 ** state.t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        m_hat *= state.lr
        m_hat /= denom
        p -= m_hat
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
    momentum: float = 0.99

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 2:
            raise ValueError("need epochs >= 0 and batch_size >= 2")
        if self.decoder_kind not in DECODER_KINDS:
            raise ValueError(f"decoder_kind must be one of {DECODER_KINDS}")
        if not self.encoder_spec:
            raise ValueError("encoder_spec must name at least one layer")
        object.__setattr__(self, "encoder_spec",
                           tuple((int(u), str(a)) for u, a in self.encoder_spec))

    @property
    def loss_kind(self) -> str:
        return DECODER_LOSS[self.decoder_kind]


def train_autoencoder(config: TrainConfig, data) -> tuple:
    """Train on ``data`` (N, n); returns (model, per-epoch mean batch loss).

    Deterministic given config.seed: one generator drives initialization,
    shuffling and regularizer noise in a fixed order.  A trailing batch of a
    single sample is dropped (batch statistics need at least two); that is
    logged once per run.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty (N, n) matrix")
    n_samples = data.shape[0]
    model = build_autoencoder(data.shape[1], config.encoder_spec,
                              config.decoder_kind, seed=config.seed,
                              momentum=config.momentum)
    rng = np.random.default_rng(config.seed + 1)
    opt = AdamState(lr=config.lr)
    params = model.parameters()
    history = []
    minsyn = config.decoder_kind in MINSYN_KINDS
    if config.epochs and n_samples % config.batch_size == 1:
        log.info("dropping the trailing batch of one sample in each of the %d epochs",
                 config.epochs)
    for epoch in range(config.epochs):
        order = rng.permutation(n_samples)
        batch_losses = []
        for start in range(0, n_samples, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size == 1:
                continue
            batch = data[idx]
            loss_value, grads, stats = gradients(model, batch, rng=rng,
                                                 regularizer=config.regularizer)
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(epoch, start // config.batch_size)
            adam_step(opt, params, grads)
            if minsyn:
                model.ma_state = update_moving_average(model.ma_state, stats)
            batch_losses.append(loss_value)
        history.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
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


@dataclass
class PcaModel:
    """Linear reconstruction through the top principal components."""

    components: np.ndarray  # (k, n)
    mean: np.ndarray  # (n,)

    def reconstruct(self, x) -> np.ndarray:
        xc = np.asarray(x, dtype=float) - self.mean
        return self.mean + (xc @ self.components.T) @ self.components

    def decoder_weight_matrix(self) -> np.ndarray:
        return self.components.T.copy()
