import logging
import os
import sys
import threading
import time

import numpy as np
import pytest

from minsyn import nn
from minsyn.checkpoint import model_arrays
from minsyn.metrics import reconstruction_loss
from minsyn.nn import (
    BCE_CLAMP,
    DECODER_KINDS,
    DECODER_LOSS,
    DECODER_OUTPUT,
    MINSYN_KINDS,
    AdamState,
    AutoencoderModel,
    DenseLayer,
    PcaModel,
    Regularizer,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_autoencoder,
    forward,
    gradients,
    loss,
    pca_fit,
    sample_losses,
    sigmoid,
    softplus,
    train_autoencoder,
)
from minsyn.words import synthetic_digits

from _oracles import (
    adam_textbook,
    bce_textbook,
    finite_difference_gradients,
    logit_bce_long_double,
    pca_directions_eigh,
    pca_reconstruction_mse,
    pinned_readout_loss,
    sigmoid_two_branch,
    train_full_width,
)

EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308, -2.2250738585072014e-308,
                        800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7, 710.0, -745.2])

REGULARIZERS = (
    Regularizer(),
    Regularizer(kind="dropout", p=0.0),
    Regularizer(kind="input_gaussian_noise", sigma=0.0),
    Regularizer(kind="dropout", p=0.4),
    Regularizer(kind="input_gaussian_noise", sigma=0.3),
    Regularizer(kind="latent_gaussian_noise", sigma=0.3),
)


def small_model(decoder_kind, seed=1):
    return build_autoencoder(5, [(4, "softplus"), (3, "sigmoid")], decoder_kind,
                             seed=seed)


class TestForward:
    def test_zero_weights_sigmoid_decoder(self):
        enc = DenseLayer(np.zeros((3, 4)), np.zeros(3), "sigmoid")
        dec = DenseLayer(np.zeros((4, 3)), np.zeros(4), "sigmoid")
        model = AutoencoderModel([enc], "learned_sigmoid", decoder=dec)
        _, xbar = forward(model, np.random.default_rng(0).random((2, 4)))
        assert np.allclose(xbar, 0.5)

    def test_softplus_at_zero(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(np.log(2), abs=1e-12)
        assert softplus(np.array([0.0]))[0] == pytest.approx(0.69315, abs=1e-5)

    def test_hand_composition(self):
        # 1-1-1 chain with identity/sigmoid wiring, checked by hand
        enc = DenseLayer(np.array([[2.0]]), np.array([0.5]), "softplus")
        dec = DenseLayer(np.array([[-1.0]]), np.array([0.25]), "sigmoid")
        model = AutoencoderModel([enc], "learned_sigmoid", decoder=dec)
        z, xbar = forward(model, np.array([[0.3]]))
        z_hand = np.log1p(np.exp(2.0 * 0.3 + 0.5))
        x_hand = 1 / (1 + np.exp(-(-1.0 * z_hand + 0.25)))
        assert z[0, 0] == pytest.approx(z_hand, abs=1e-12)
        assert xbar[0, 0] == pytest.approx(x_hand, abs=1e-12)

    def test_minsyn_eval_requires_training(self):
        model = small_model("minsyn_binary")
        with pytest.raises(ValueError, match="train before"):
            forward(model, np.random.default_rng(0).random((4, 5)), mode="eval")

    def test_shape_mismatch(self):
        model = small_model("learned_sigmoid")
        with pytest.raises(ValueError, match="shape"):
            forward(model, np.ones((2, 7)))

    def test_noop_regularizers_bitwise_identical(self):
        model = small_model("learned_sigmoid")
        x = np.random.default_rng(3).random((6, 5))
        base = forward(model, x, mode="train", rng=np.random.default_rng(0))
        for reg in (Regularizer(kind="dropout", p=0.0),
                    Regularizer(kind="input_gaussian_noise", sigma=0.0),
                    Regularizer(kind="latent_gaussian_noise", sigma=0.0)):
            z, xbar = forward(model, x, mode="train",
                              rng=np.random.default_rng(0), regularizer=reg)
            assert np.array_equal(z, base[0]) and np.array_equal(xbar, base[1])

    @pytest.mark.parametrize("kwargs,name", [
        ({"kind": "dropout", "p": 0.2, "sigma": 0.3}, "sigma"),
        ({"kind": "none", "p": 0.1}, "p"),
        ({"kind": "none", "sigma": 0.1}, "sigma"),
        ({"kind": "input_gaussian_noise", "p": 0.2}, "p"),
        ({"kind": "latent_gaussian_noise", "sigma": 0.3, "p": 0.2}, "p"),
    ])
    def test_regularizer_rejects_a_parameter_its_kind_does_not_read(self, kwargs, name):
        with pytest.raises(ValueError, match=f"reads no '{name}'"):
            Regularizer(**kwargs)

    def test_regularizer_rejects_nan_sigma(self):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            Regularizer(kind="latent_gaussian_noise", sigma=float("nan"))


class TestSigmoid:
    def test_edge_values_match_two_branch_bit_for_bit(self):
        with np.errstate(over="ignore", invalid="ignore"):
            # tobytes: a NaN keeps its sign bit too
            assert sigmoid(EDGE_VALUES).tobytes() == sigmoid_two_branch(EDGE_VALUES).tobytes()
            assert sigmoid(-EDGE_VALUES).tobytes() == sigmoid_two_branch(-EDGE_VALUES).tobytes()

    @pytest.mark.parametrize("shape", [(16, 9), (16, 2352), (100, 128), (7,)])
    def test_random_arrays_match_two_branch_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0])
        v = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 30.0, 700.0], size=shape)
        before = v.copy()
        assert sigmoid(v).tobytes() == sigmoid_two_branch(v).tobytes()
        assert np.array_equal(v, before)  # the input is not written

    def test_scalar_input(self):
        assert sigmoid(np.float64(0.0)) == 0.5

    def test_one_exp_per_call(self, monkeypatch):
        calls = []

        def counting_exp(*args, **kwargs):
            calls.append(args[0].shape)
            return exp(*args, **kwargs)

        exp = np.exp
        v = np.random.default_rng(2).standard_normal((16, 2352)) * 30
        want = sigmoid_two_branch(v)
        monkeypatch.setattr(nn.np, "exp", counting_exp)
        assert sigmoid(v).tobytes() == want.tobytes()
        assert calls == [v.shape]


class TestLoss:
    def test_bce_matches_textbook_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = (rng.random((16, 50)) < 0.3).astype(float)
        x[0] = rng.random(50)
        xbar = sigmoid(rng.standard_normal((16, 50)) * 20)
        xbar[1, :4] = [0.0, 1.0, 1e-9, 1.0 - 1e-12]
        assert loss(x, xbar, "bce") == bce_textbook(x, xbar, BCE_CLAMP)
        assert np.array_equal(xbar[1, :2], [0.0, 1.0])  # the input is not written

    def test_bce_perfect(self):
        x = np.array([[0.0, 1.0]])
        assert loss(x, x, "bce") <= 2 * 1e-7 * 20

    def test_bce_half(self):
        assert loss(np.array([[1.0]]), np.array([[0.5]]), "bce") == pytest.approx(
            np.log(2), abs=1e-12)

    def test_mse_hand(self):
        assert loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), "mse") == 5.0

    def test_bce_domain(self):
        with pytest.raises(ValueError, match="bce"):
            loss(np.array([[1.5]]), np.array([[0.5]]), "bce")

    def test_bce_rejects_nan(self):
        with pytest.raises(ValueError, match="bce requires x in"):
            sample_losses(np.array([[0.5, np.nan]]), np.array([[0.5, 0.5]]), "bce")
        with pytest.raises(ValueError, match="bce requires xbar in"):
            sample_losses(np.array([[0.5, 0.5]]), np.array([[np.nan, 0.5]]), "bce")

    def test_bce_reconstruction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="bce requires xbar"):
            loss(np.array([[0.5]]), np.array([[1.5]]), "bce")
        with pytest.raises(ValueError, match="bce requires xbar"):
            sample_losses(np.array([[0.5]]), np.array([[-0.5]]), "bce")

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_empty_batch_rejected(self, kind):
        with pytest.raises(ValueError, match=r"empty batch of shape \(0, 3\)"):
            sample_losses(np.zeros((0, 3)), np.zeros((0, 3)), kind)

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_loss_is_the_mean_of_row_independent_sample_losses(self, kind):
        rng = np.random.default_rng(5)
        x, xbar = rng.random((9, 40)), rng.random((9, 40))
        per_sample = sample_losses(x, xbar, kind)
        assert per_sample.shape == (9,)
        assert loss(x, xbar, kind) == float(per_sample.mean())
        rows = np.concatenate([sample_losses(x[i:i + 4], xbar[i:i + 4], kind)
                               for i in range(0, 9, 4)])
        assert rows.tobytes() == per_sample.tobytes()

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, xb = rng.random((3, 6)), rng.random((3, 6))
            assert loss(x, xb, "bce") >= 0.0
            assert loss(x, xb, "mse") >= 0.0


class TestGradients:
    def test_zero_batch_zero_grads(self):
        enc = DenseLayer(np.zeros((3, 4)), np.zeros(3), "identity")
        dec = DenseLayer(np.zeros((4, 3)), np.zeros(4), "identity")
        model = AutoencoderModel([enc], "learned_linear", decoder=dec)
        _, grads, _ = gradients(model, np.zeros((4, 4)))
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_sigmoid_bce_canonical_identity(self):
        # single sigmoid output unit: d loss / d logit = xbar - x
        enc = DenseLayer(np.array([[1.0]]), np.zeros(1), "identity")
        dec = DenseLayer(np.array([[1.3]]), np.array([0.2]), "sigmoid")
        model = AutoencoderModel([enc], "learned_sigmoid", decoder=dec)
        x = np.array([[1.0]])
        _, grads, _ = gradients(model, x)
        z, xbar = forward(model, x, mode="train")
        assert grads["decoder.bias"][0] == pytest.approx(xbar[0, 0] - x[0, 0], abs=1e-12)

    @pytest.mark.parametrize("decoder_kind", ["learned_sigmoid", "minsyn_binary"])
    def test_bce_batch_outside_unit_interval_rejected(self, decoder_kind):
        x = np.random.default_rng(12).random((6, 5))
        x[2, 3] = 1.5
        with pytest.raises(ValueError, match="bce requires x"):
            gradients(small_model(decoder_kind), x)

    @pytest.mark.parametrize("decoder_kind", DECODER_KINDS)
    @pytest.mark.parametrize("reg", REGULARIZERS, ids=lambda r: f"{r.kind}-p{r.p}-s{r.sigma}")
    def test_matches_finite_differences(self, decoder_kind, reg):
        model = small_model(decoder_kind)
        x = np.random.default_rng(11).random((6, 5))
        _, grads, stats = gradients(model, x, rng=np.random.default_rng(5), regularizer=reg)
        readout = stats.readout if decoder_kind in MINSYN_KINDS else None

        def loss_fn():
            return pinned_readout_loss(model, x, np.random.default_rng(5), reg, readout)

        fd = finite_difference_gradients(loss_fn, model.parameters())
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(g)), 1e-6)
            assert np.max(np.abs(ref - g) / denom) <= 1e-4, name


def saturated_sigmoid_model(bias):
    """Identity encoder into a sigmoid decoder whose logits sit near ``bias``."""
    n = len(bias)
    enc = DenseLayer(np.eye(n), np.zeros(n), "identity")
    w = np.random.default_rng(7).standard_normal((n, n)) * 0.5
    return AutoencoderModel([enc], "learned_sigmoid",
                            decoder=DenseLayer(w, np.asarray(bias, float), "sigmoid"))


class TestLogitSpaceTraining:
    """The sigmoid-output training loss, taken from the logits a and
    t = exp(-|a|), and its gradient (sigmoid(a) - x) / B."""

    @pytest.mark.parametrize("binary", [True, False], ids=["binary-x", "fractional-x"])
    def test_loss_equals_the_clamped_bce_where_the_clamp_is_inactive(self, binary):
        rng = np.random.default_rng(21)
        a = rng.uniform(-15.0, 15.0, (16, 50))
        a[0, :4] = [15.0, -15.0, 0.0, -0.0]
        x = (rng.random(a.shape) < 0.3).astype(float) if binary else rng.random(a.shape)
        xbar, t = nn._sigmoid_and_exp(a)
        got = nn._logit_bce_losses(x, a, t)
        exact = logit_bce_long_double(x, a)
        assert np.all(np.abs(got - exact) <= 1e-14 * exact)
        # The clamped form is itself off by up to about 4e-12 near |a| = 15:
        # sigma's rounding error is a relative 3e-10 of 1 - sigma(15).
        clamped = sample_losses(x, xbar, "bce")
        assert np.allclose(got, clamped, rtol=1e-11, atol=0.0)

    def test_loss_stays_finite_and_grows_like_the_logit(self):
        a = np.array([[20.0, -40.0, 100.0, -300.0, 1e3, -1e3]])
        x = (a < 0).astype(float)  # every output on the wrong side
        _, t = nn._sigmoid_and_exp(a)
        per_output = nn._logit_bce_losses(x.T, a.T, t.T)  # one output per row
        assert np.all(np.isfinite(per_output))
        assert per_output == pytest.approx(np.abs(a[0]) + np.log1p(np.exp(-np.abs(a[0]))),
                                           rel=1e-15)
        # the clamped bce caps each output near -ln(1e-7)
        assert sample_losses(x, sigmoid(a), "bce")[0] <= a.shape[1] * -np.log(BCE_CLAMP) + 1e-6

    def test_gradient_is_sigmoid_minus_x_with_no_dead_zone(self):
        model = saturated_sigmoid_model([30.0, -30.0, 25.0, -40.0, 18.0])
        x = np.random.default_rng(8).random((6, 5))
        x[:, :2] = [1.0, 0.0]  # on the right side of saturated logits
        loss_value, grads, _ = gradients(model, x)
        a = x @ model.decoder.weights.T + model.decoder.bias
        d_pre = (sigmoid(a) - x) / x.shape[0]
        assert np.allclose(grads["decoder.bias"], d_pre.sum(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(grads["decoder.weights"], d_pre.T @ x, rtol=1e-12, atol=0.0)
        assert loss_value == pytest.approx(float(logit_bce_long_double(x, a).mean()), rel=1e-14)
        clamped = (sigmoid(a) < BCE_CLAMP) | (sigmoid(a) > 1.0 - BCE_CLAMP)
        assert clamped[:, :2].all()  # where the clamp gave a zero gradient
        assert np.all(d_pre[clamped] != 0.0)

    @pytest.mark.parametrize("reg", [Regularizer(), Regularizer(kind="dropout", p=0.4)],
                             ids=lambda r: r.kind)
    def test_matches_finite_differences_at_saturated_logits(self, reg):
        model = saturated_sigmoid_model([30.0, -25.0, 35.0, -40.0, 20.0])
        x = np.random.default_rng(9).random((6, 5))
        _, grads, _ = gradients(model, x, rng=np.random.default_rng(5), regularizer=reg)

        def loss_fn():
            z, _ = forward(model, x, mode="train", rng=np.random.default_rng(5),
                           regularizer=reg)
            a = z @ model.decoder.weights.T + model.decoder.bias
            assert np.abs(a).min() > 15.0  # the clamped bce would be flat here
            return float(logit_bce_long_double(x, a).mean())

        fd = finite_difference_gradients(loss_fn, model.parameters())
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(g)), 1e-6)
            assert np.max(np.abs(ref - g) / denom) <= 1e-4, name


class TestDecoderLoss:
    @pytest.mark.parametrize("decoder_kind", DECODER_KINDS)
    def test_one_table_pairs_each_decoder_with_its_loss(self, decoder_kind):
        sigmoid_output = decoder_kind in ("learned_sigmoid", "minsyn_binary")
        assert DECODER_OUTPUT[decoder_kind] == ("sigmoid" if sigmoid_output else "identity")
        assert DECODER_LOSS[decoder_kind] == ("bce" if sigmoid_output else "mse")
        assert small_model(decoder_kind).loss_kind == DECODER_LOSS[decoder_kind]

    @pytest.mark.parametrize("decoder_kind", ["learned_sigmoid", "learned_linear"])
    def test_output_layer_must_match_the_kind(self, decoder_kind):
        model = small_model(decoder_kind)
        wrong = "identity" if DECODER_OUTPUT[decoder_kind] == "sigmoid" else "sigmoid"
        layer = DenseLayer(model.decoder.weights, model.decoder.bias, wrong)
        with pytest.raises(ValueError, match=f"needs a {DECODER_OUTPUT[decoder_kind]} output"):
            AutoencoderModel(model.encoder, decoder_kind, decoder=layer)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = {"w": np.array([1.0, -2.0])}
        adam_step(AdamState(lr=0.1), p, {"w": np.zeros(2)})
        assert np.array_equal(p["w"], [1.0, -2.0])

    def test_hand_first_step(self):
        p = {"w": np.array([1.0])}
        state = AdamState(lr=0.001)
        adam_step(state, p, {"w": np.array([2.0])})
        expected = 1.0 - 0.001 * 2.0 / (np.sqrt(4.0) + 1e-8)
        assert p["w"][0] == pytest.approx(expected, abs=1e-15)
        assert p["w"][0] == pytest.approx(0.99900, abs=1e-5)
        assert state.t == 1

    def test_constant_gradient_step_size_converges_to_lr(self):
        p = {"w": np.array([0.0])}
        state = AdamState(lr=0.01)
        prev = p["w"][0]
        for _ in range(500):
            prev = p["w"][0]
            adam_step(state, p, {"w": np.array([3.0])})
        assert abs(prev - p["w"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_moment_buffers_persist_across_steps(self):
        params = {"w": np.ones((3, 2)), "b": np.ones(3)}
        grads = {"w": np.full((3, 2), 0.5), "b": np.full(3, -0.5)}
        state = AdamState(lr=0.01)
        adam_step(state, params, grads)
        moments = [state.m["w"], state.v["w"], state.m["b"], state.v["b"]]
        # One flat buffer holds both moments of every parameter.
        assert all(a.base is moments[0].base for a in moments)
        for _ in range(4):
            adam_step(state, params, grads)
            now = [state.m["w"], state.v["w"], state.m["b"], state.v["b"]]
            assert all(a is b for a, b in zip(now, moments))

    def test_changed_parameter_set_rejected(self):
        state = AdamState(lr=0.01)
        adam_step(state, {"w": np.zeros(2)}, {"w": np.ones(2)})
        with pytest.raises(ValueError, match="parameters of the first step"):
            adam_step(state, {"w": np.zeros(3)}, {"w": np.ones(3)})
        with pytest.raises(ValueError, match="parameters of the first step"):
            adam_step(state, {"w": np.zeros(2), "b": np.zeros(1)},
                      {"w": np.ones(2), "b": np.ones(1)})

    def test_blocked_update_equals_textbook_per_parameter(self):
        # Several blocks: parameters split by rows across blocks, a row wider
        # than a block, small parameters sharing one, and a scalar.
        shapes = {"enc": (100, 500), "bias": (100,), "dec": (500, 100), "wide": (2, 40000),
                  "small": (3, 7), "scalar": ()}
        assert sum(int(np.prod(s)) for s in shapes.values()) > 4 * nn.ADAM_BLOCK
        rng = np.random.default_rng(19)
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
        state = AdamState(lr=0.002)
        for t in range(1, 7):
            grads = {k: rng.standard_normal(s) * 10.0 ** (t - 3) for k, s in shapes.items()}
            adam_step(state, params, grads)
            for k, g in grads.items():
                ref[k] = adam_textbook(*ref[k], g, t, lr=0.002)
                assert params[k].tobytes() == ref[k][0].tobytes(), (k, t)
                assert state.m[k].tobytes() == ref[k][1].tobytes(), (k, t)
                assert state.v[k].tobytes() == ref[k][2].tobytes(), (k, t)

    def test_matches_textbook_bit_for_bit_over_steps(self):
        rng = np.random.default_rng(18)
        shapes = {"w": (9, 40), "b": (9,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
        state = AdamState(lr=0.003)
        for t in range(1, 8):
            grads = {k: rng.standard_normal(s) * 10.0 ** (t - 4) for k, s in shapes.items()}
            adam_step(state, params, grads)
            for k, g in grads.items():
                ref[k] = adam_textbook(*ref[k], g, t, lr=0.003)
                assert params[k].tobytes() == ref[k][0].tobytes(), (k, t)
                assert state.m[k].tobytes() == ref[k][1].tobytes()
                assert state.v[k].tobytes() == ref[k][2].tobytes()


class TestTraining:
    DATA = np.array([[1, 1, 0, 0, 1], [0, 0, 1, 1, 0],
                     [1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=float)

    def test_lr_zero_keeps_parameters(self):
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, lr=0.0,
                          decoder_kind="learned_sigmoid",
                          encoder_spec=((3, "sigmoid"),))
        ref = build_autoencoder(5, cfg.encoder_spec, cfg.decoder_kind, seed=0)
        model, history = train_autoencoder(cfg, self.DATA)
        assert len(history) == 1
        for a, b in zip(model.encoder, ref.encoder):
            assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(model.decoder.weights, ref.decoder.weights)

    @pytest.mark.parametrize("decoder_kind", DECODER_KINDS)
    def test_loss_decreases(self, decoder_kind):
        cfg = TrainConfig(epochs=200, batch_size=4, seed=0, lr=0.01,
                          decoder_kind=decoder_kind,
                          encoder_spec=((3, "sigmoid"),))
        _, history = train_autoencoder(cfg, self.DATA)
        assert history[-1] < history[0]

    def test_deterministic_across_runs(self):
        cfg = TrainConfig(epochs=20, batch_size=2, seed=7, lr=0.005,
                          decoder_kind="minsyn_binary",
                          encoder_spec=((3, "sigmoid"),),
                          regularizer=Regularizer(kind="dropout", p=0.25))
        m1, h1 = train_autoencoder(cfg, self.DATA)
        m2, h2 = train_autoencoder(cfg, self.DATA)
        assert h1 == h2
        for a, b in zip(m1.encoder, m2.encoder):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(m1.ma_state.stats.xz_mean, m2.ma_state.stats.xz_mean)

    def test_nan_abort_names_location(self):
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0, lr=1e9,
                          decoder_kind="learned_linear",
                          encoder_spec=((3, "identity"),))
        data = self.DATA * 1e150
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train_autoencoder(cfg, data)
        # A statistics-driven readout gone non-finite aborts through the loss.
        images, _ = synthetic_digits(60, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=10, seed=0, lr=1e300,
                          decoder_kind="minsyn_gaussian",
                          encoder_spec=((4, "identity"),))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch 0, batch 1"):
                train_autoencoder(cfg, images)

    @pytest.mark.parametrize("decoder_kind", ["minsyn_binary", "learned_sigmoid"])
    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_data_rejected(self, decoder_kind, shape):
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, lr=0.01,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        with pytest.raises(ValueError, match="non-empty"):
            train_autoencoder(cfg, np.zeros(shape))

    def test_dropped_trailing_batch_logged_once_per_run(self, caplog):
        data = np.vstack([self.DATA, self.DATA[:1]])  # 5 samples, batch 2: 5 mod 2 = 1
        cfg = TrainConfig(epochs=3, batch_size=2, seed=0, lr=0.01,
                          decoder_kind="minsyn_binary", encoder_spec=((3, "sigmoid"),))
        with caplog.at_level(logging.INFO, logger="minsyn.nn"):
            model, history = train_autoencoder(cfg, data)
        dropped = [r for r in caplog.records if "trailing batch" in r.getMessage()]
        assert len(dropped) == 1
        assert model.ma_state.step_count == 6 and len(history) == 3

    def test_blas_thread_count_pinned_while_training_then_restored(self, monkeypatch):
        calls = nn._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy bundles no OpenBLAS thread control here")
        get, put = calls
        seen = []

        def recording_gradients(*args, **kwargs):
            seen.append(get())
            return gradients(*args, **kwargs)

        monkeypatch.setattr(nn, "gradients", recording_gradients)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, lr=0.01,
                          decoder_kind="learned_sigmoid", encoder_spec=((3, "sigmoid"),))
        before = get()
        try:
            put(2)
            train_autoencoder(cfg, self.DATA)
            assert seen == [1, 1] and get() == 2
        finally:
            put(before)

    def test_blas_thread_count_pinned_while_scoring_then_restored(self, monkeypatch):
        calls = nn._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy bundles no OpenBLAS thread control here")
        get, put = calls
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0, lr=0.01,
                          decoder_kind="learned_sigmoid", encoder_spec=((3, "sigmoid"),))
        model, _ = train_autoencoder(cfg, self.DATA)
        seen = []

        def recording_forward(*args, **kwargs):
            seen.append(get())
            return forward(*args, **kwargs)

        monkeypatch.setattr(nn, "forward", recording_forward)
        before = get()
        try:
            put(2)
            reconstruction_loss(model, self.DATA, "bce")
            assert seen == [1] and get() == 2
        finally:
            put(before)

    def test_blocks_open_on_two_threads_share_one_pin(self, monkeypatch):
        count, sets = [2], []

        def put(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(nn, "_openblas_thread_calls", lambda: (lambda: count[0], put))
        both_inside, first_left = threading.Barrier(2, timeout=30), threading.Event()
        seen = []

        def second():
            with nn._one_blas_thread():
                both_inside.wait()
                first_left.wait(30)
                seen.append(count[0])

        worker = threading.Thread(target=second)
        worker.start()
        with nn._one_blas_thread():
            both_inside.wait()
        seen.append(count[0])  # one thread left, the other is still inside
        first_left.set()
        worker.join(30)
        assert not worker.is_alive()
        assert seen == [1, 1] and count[0] == 2 and sets == [1, 2]

    def test_pin_holds_under_many_threads_switching_often(self, monkeypatch):
        count, sets, outside = [2], [], []

        def put(n):
            sets.append(n)
            count[0] = n

        start = threading.Barrier(3, timeout=30)

        def enter_and_leave():
            start.wait()
            for _ in range(500):
                with nn._one_blas_thread():
                    time.sleep(0)  # let another thread enter or leave
                    if count[0] != 1:
                        outside.append(count[0])

        monkeypatch.setattr(nn, "_openblas_thread_calls", lambda: (lambda: count[0], put))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(3)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert outside == [] and count[0] == 2
        assert sets[::2] == [1] * (len(sets) // 2) and sets[1::2] == [2] * (len(sets) // 2)

    def test_missing_blas_thread_control_gives_none_and_one_warning(self, monkeypatch,
                                                                    tmp_path, caplog):
        monkeypatch.setattr(nn.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        with caplog.at_level(logging.WARNING, logger="minsyn.nn"):
            assert nn._openblas_thread_calls.__wrapped__() is None
        assert ["no OpenBLAS thread control" in r.getMessage() for r in caplog.records] == [True]

    def test_minsyn_eval_uses_moving_average(self):
        cfg = TrainConfig(epochs=30, batch_size=2, seed=1, lr=0.01,
                          decoder_kind="minsyn_binary",
                          encoder_spec=((3, "sigmoid"),))
        model, _ = train_autoencoder(cfg, self.DATA)
        assert model.ma_state.step_count == 60
        _, xbar = forward(model, self.DATA, mode="eval")
        assert xbar.shape == self.DATA.shape


def _with_blank_columns(data, at):
    """``data`` with all-zero columns inserted before the columns ``at``."""
    return np.insert(data, at, 0.0, axis=1)


def _trained_and_oracle(cfg, data):
    model, history = train_autoencoder(cfg, data)
    ref, ref_history = train_full_width(cfg, data)
    return model_arrays(model, history)[0], history, model_arrays(ref, ref_history)[0], ref_history


class TestPixelTrimming:
    """MinSyn runs train one pixel per group of equal pixels, the blank ones
    among them, then spread the result back; ``train_full_width`` is the run
    over every pixel."""

    LIVE = (np.random.default_rng(21).random((30, 12)) < 0.4).astype(float)
    BLANK_AT = [0, 5, 5, 9, 12]
    PER_OUTPUT = {"minsyn_binary": ("ma.x_mean", "ma.xz_mean"),
                  "minsyn_gaussian": ("ma.x_mean", "ma.x_sq_mean", "ma.xz_mean")}

    @pytest.mark.parametrize("decoder_kind,activation", [("minsyn_binary", "sigmoid"),
                                                         ("minsyn_gaussian", "softplus")])
    def test_blank_pixels_restored_as_full_width_training_leaves_them(self, decoder_kind,
                                                                       activation):
        data = _with_blank_columns(self.LIVE, self.BLANK_AT)
        dead = ~data.any(axis=0)
        assert dead.sum() == len(self.BLANK_AT)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4, lr=0.01, decoder_kind=decoder_kind,
                          encoder_spec=((5, activation), (3, "sigmoid")))
        arrays, history, ref_arrays, ref_history = _trained_and_oracle(cfg, data)
        assert sorted(arrays) == sorted(ref_arrays)
        for key, ref in ref_arrays.items():
            assert arrays[key].shape == ref.shape, key
            np.testing.assert_allclose(arrays[key], ref, rtol=1e-9, atol=0, err_msg=key)
        np.testing.assert_allclose(history, ref_history, rtol=1e-9, atol=0)
        assert (arrays["encoder.0.weights"][:, dead].tobytes()
                == ref_arrays["encoder.0.weights"][:, dead].tobytes())
        init = build_autoencoder(data.shape[1], cfg.encoder_spec, decoder_kind, seed=4)
        assert (arrays["encoder.0.weights"][:, dead].tobytes()
                == init.encoder[0].weights[:, dead].tobytes())
        for key in self.PER_OUTPUT[decoder_kind]:
            assert arrays[key][dead].tobytes() == ref_arrays[key][dead].tobytes(), key
            assert not arrays[key][dead].any(), key

    @pytest.mark.parametrize("case", ["no_blank_pixels", "input_noise", "learned_decoder",
                                      "all_zero"])
    def test_untrimmed_runs_are_the_full_width_run_bit_for_bit(self, case):
        data = _with_blank_columns(self.LIVE, self.BLANK_AT)
        kind, reg = "minsyn_binary", Regularizer()
        if case == "no_blank_pixels":
            data = self.LIVE
            assert data.any(axis=0).all()
        elif case == "input_noise":
            kind, reg = "minsyn_gaussian", Regularizer(kind="input_gaussian_noise", sigma=0.2)
        elif case == "learned_decoder":
            kind = "learned_sigmoid"
        else:
            data = np.zeros_like(data)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4, lr=0.01, decoder_kind=kind,
                          encoder_spec=((4, "sigmoid"),), regularizer=reg)
        arrays, history, ref_arrays, ref_history = _trained_and_oracle(cfg, data)
        assert history == ref_history
        assert sorted(arrays) == sorted(ref_arrays)
        for key, ref in ref_arrays.items():
            assert arrays[key].tobytes() == ref.tobytes(), key



def _grouped_model(model, group, groups):
    """``model`` on one input per pixel group: a first encoder layer holding
    each group's summed columns, and every other parameter array shared."""
    first = model.encoder[0]
    summed = np.zeros((first.fan_out, groups))
    for i, g in enumerate(group):
        summed[:, g] += first.weights[:, i]
    return AutoencoderModel(encoder=[DenseLayer(summed, first.bias, first.activation),
                                     *model.encoder[1:]],
                            decoder_kind=model.decoder_kind)


class TestPixelGroups:
    """A MinSyn run trains one output per group of pixels whose training
    columns are equal byte for byte, weighted by the group's size."""

    DISTINCT = (np.random.default_rng(31).random((30, 6)) < 0.4).astype(float)
    # Pixel -> column of DISTINCT, or -1 for a blank pixel.
    SOURCE = np.array([0, 1, 0, -1, 2, 3, 3, 4, -1, 5, 1, 0, -1, 5, 2, 4])
    FIRST = np.array([0, 1, 3, 4, 5, 7, 9])
    GROUP = np.array([0, 1, 0, 2, 3, 4, 4, 5, 2, 6, 1, 0, 2, 6, 3, 5])
    KINDS = [("minsyn_binary", "sigmoid"), ("minsyn_gaussian", "softplus")]
    REGS = [Regularizer(), Regularizer(kind="dropout", p=0.3),
            Regularizer(kind="latent_gaussian_noise", sigma=0.2)]

    def data(self):
        padded = np.hstack([self.DISTINCT, np.zeros((30, 1))])
        return padded[:, self.SOURCE]

    def config(self, decoder_kind, activation, layers=1, reg=Regularizer(), epochs=3):
        spec = ((5, activation), (3, "sigmoid"))[:layers]
        return TrainConfig(epochs=epochs, batch_size=8, seed=4, lr=0.01,
                           decoder_kind=decoder_kind, encoder_spec=spec, regularizer=reg)

    def test_groups_are_numbered_by_first_pixel(self):
        cfg = self.config("minsyn_binary", "sigmoid")
        first, group, size = nn._pixel_groups(cfg, self.data())
        assert first.tolist() == self.FIRST.tolist()
        assert group.tolist() == self.GROUP.tolist()
        assert size.tolist() == [3.0, 2.0, 3.0, 2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("decoder_kind,activation", KINDS)
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("reg", REGS, ids=lambda r: r.kind)
    def test_grouped_run_matches_the_full_width_run(self, decoder_kind, activation,
                                                    layers, reg):
        cfg = self.config(decoder_kind, activation, layers, reg)
        model, history = train_autoencoder(cfg, self.data())
        ref, ref_history = train_full_width(cfg, self.data())
        arrays, ref_arrays = model_arrays(model, history)[0], model_arrays(ref, ref_history)[0]
        assert sorted(arrays) == sorted(ref_arrays)
        for key, want in ref_arrays.items():
            assert arrays[key].shape == want.shape, key
            np.testing.assert_allclose(arrays[key], want, rtol=1e-9, atol=0, err_msg=key)
        np.testing.assert_allclose(history, ref_history, rtol=1e-9, atol=0)
        readout = model.decoder_params_from_average()
        for g, leader in enumerate(self.FIRST):
            for i in np.flatnonzero(self.GROUP == g):
                for key in TestPixelTrimming.PER_OUTPUT[decoder_kind]:
                    assert arrays[key][i].tobytes() == arrays[key][leader].tobytes(), key
                assert readout.weights[i].tobytes() == readout.weights[leader].tobytes()
                assert readout.bias[i].tobytes() == readout.bias[leader].tobytes()

    @pytest.mark.parametrize("decoder_kind,activation", KINDS)
    @pytest.mark.parametrize("reg", REGS, ids=lambda r: r.kind)
    def test_weighted_gradients_are_each_members_full_width_gradients(
            self, decoder_kind, activation, reg):
        x = self.data()[:10]
        full = build_autoencoder(x.shape[1], ((5, activation), (3, "sigmoid")), decoder_kind,
                                 seed=9)
        grouped = _grouped_model(full, self.GROUP, self.FIRST.size)
        size = np.bincount(self.GROUP).astype(float)
        loss_value, grads, _ = gradients(grouped, x[:, self.FIRST],
                                         rng=np.random.default_rng(5), regularizer=reg,
                                         output_weights=size)
        ref_loss, ref_grads, _ = gradients(full, x, rng=np.random.default_rng(5),
                                           regularizer=reg)
        assert loss_value == pytest.approx(ref_loss, rel=1e-12, abs=0)
        grads["encoder.0.weights"] = grads["encoder.0.weights"][:, self.GROUP]
        assert sorted(grads) == sorted(ref_grads)
        for name, want in ref_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("decoder_kind", ["learned_sigmoid", "learned_linear"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("reg", REGS, ids=lambda r: r.kind)
    def test_grouped_learned_run_is_the_full_width_run_bit_for_bit(self, decoder_kind,
                                                                   layers, reg):
        """A learned run takes its first-layer weight gradient and Adam
        moments per group and keeps its full-width forward pass."""
        cfg = self.config(decoder_kind, "softplus", layers, reg)
        assert nn._pixel_groups(cfg, self.data()) is not None
        model, history = train_autoencoder(cfg, self.data())
        ref, ref_history = train_full_width(cfg, self.data())
        arrays, ref_arrays = model_arrays(model, history)[0], model_arrays(ref, ref_history)[0]
        assert history == ref_history
        assert sorted(arrays) == sorted(ref_arrays)
        for key, want in ref_arrays.items():
            assert arrays[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("decoder_kind", ["minsyn_binary", "learned_sigmoid"])
    def test_group_count_logged_once_per_run(self, caplog, decoder_kind):
        cfg = self.config(decoder_kind, "sigmoid", epochs=2)
        with caplog.at_level(logging.INFO, logger="minsyn.nn"):
            train_autoencoder(cfg, self.data())
            train_autoencoder(cfg, self.DISTINCT)  # no column repeats: no line
        counts = [r.getMessage() for r in caplog.records if "pixel groups" in r.getMessage()]
        assert counts == ["training on 7 pixel groups of 16 pixels; the pixels of a group "
                          "are equal in every training image"]

    def test_reference_data_grouping(self, word_dataset):
        """The word benchmark renders each letter with one fixed glyph, so its
        training pixels fall into few groups; the digits have no two equal
        pixels.  A data or renderer change that ends the grouping fails here."""
        words = word_dataset
        cfg = self.config("minsyn_binary", "sigmoid")
        first, group, size = nn._pixel_groups(cfg, words.train_images)
        assert (first.size, group.size) == (49, 2352)
        blank = ~words.train_images[:, first].any(axis=0)
        assert size[blank].tolist() == [944.0]
        assert nn._pixel_groups(cfg, synthetic_digits(1000, seed=10)[0]) is None


class TestEpochDraws:
    """A run makes each epoch's generator calls at once: on a worker thread,
    one epoch ahead, when two CPUs are usable and the regularizer draws.
    The bytes are those of drawing each batch in turn."""

    DRAWING = [Regularizer(kind="dropout", p=0.3),
               Regularizer(kind="input_gaussian_noise", sigma=0.2),
               Regularizer(kind="latent_gaussian_noise", sigma=0.2)]

    @staticmethod
    def data(samples):
        """``samples`` images of 16 pixels, some columns repeated."""
        live = (np.random.default_rng(41).random((samples, 6)) < 0.4).astype(float)
        return live[:, TestPixelGroups.SOURCE.clip(0)]

    @staticmethod
    def config(decoder_kind, reg, epochs=3):
        return TrainConfig(epochs=epochs, batch_size=8, seed=4, lr=0.01,
                           decoder_kind=decoder_kind, encoder_spec=((5, "softplus"),),
                           regularizer=reg)

    @pytest.mark.parametrize("reg", DRAWING, ids=lambda r: r.kind)
    def test_one_fill_is_the_shaped_draws_in_turn(self, reg):
        rng = np.random.default_rng(3)
        draw = rng.random if reg.kind == "dropout" else rng.standard_normal
        want = np.vstack([draw((rows, 4)) for rows in (8, 8, 6)])
        got = nn._draw(np.random.default_rng(3), reg, np.empty((22, 4)))
        assert got.tobytes() == want.tobytes()

    # 30 samples in batches of 8 end in a batch of 6; 33 end in one sample,
    # which is dropped.
    @pytest.mark.parametrize("samples", [30, 33], ids=["ragged", "dropped"])
    @pytest.mark.parametrize("decoder_kind", ["learned_sigmoid", "minsyn_binary"])
    @pytest.mark.parametrize("reg", DRAWING, ids=lambda r: r.kind)
    def test_bytes_do_not_depend_on_the_cpu_count(self, cpus, reg, decoder_kind,
                                                  samples):
        data, cfg = self.data(samples), self.config(decoder_kind, reg)
        before = threading.active_count()
        runs = []
        for count in (1, 2):
            threads = cpus(count)
            started = threads.started
            model, history = train_autoencoder(cfg, data)
            assert threads.started - started == count - 1
            assert threading.active_count() == before
            runs.append(model_arrays(model, history))
        if decoder_kind == "learned_sigmoid":  # drawn batch by batch, as the run trains
            ref, ref_history = train_full_width(cfg, data)
            runs.append(model_arrays(ref, ref_history))
        (arrays, meta), *others = runs
        for other, other_meta in others:
            assert other_meta == meta
            assert sorted(other) == sorted(arrays)
            for key, want in arrays.items():
                assert other[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("count,reg,workers", [
        (2, Regularizer(kind="dropout", p=0.3), 1),
        (1, Regularizer(kind="dropout", p=0.3), 0),
        (2, Regularizer(), 0),
        (2, Regularizer(kind="input_gaussian_noise", sigma=0.0), 0),
    ], ids=["drawing", "one_cpu", "none", "noop"])
    def test_worker_only_on_two_cpus_with_a_drawing_regularizer(self, cpus, count,
                                                               reg, workers):
        threads = cpus(count)
        train_autoencoder(self.config("learned_sigmoid", reg), self.data(30))
        assert threads.started == workers

    def test_no_worker_for_zero_epochs(self, cpus):
        threads = cpus(2)
        _, history = train_autoencoder(
            self.config("learned_sigmoid", Regularizer(kind="dropout", p=0.3), epochs=0),
            self.data(30))
        assert history == [] and threads.started == 0

    def test_cpus_beside_leave_out_the_callers_cpu(self):
        beside = nn._cpus_beside()
        if not hasattr(os, "sched_setaffinity"):
            assert beside == set()
            return
        usable = os.sched_getaffinity(0)
        assert beside < usable and len(usable - beside) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity")
    @pytest.mark.parametrize("pin", ["usable", "unusable"])
    def test_the_worker_runs_beside_the_loop(self, cpus, monkeypatch, pin):
        """The worker keeps to ``_cpus_beside``; a set the system refuses
        leaves it where it is, and the caller's affinity never changes."""
        cpus(2)
        before = os.sched_getaffinity(0)
        beside = {min(before)} if pin == "usable" else {10 ** 5}
        monkeypatch.setattr(nn, "_cpus_beside", lambda: beside)
        draw_epoch, seen = nn._draw_epoch, []

        def recording(*args):
            seen.append(os.sched_getaffinity(0))
            return draw_epoch(*args)

        monkeypatch.setattr(nn, "_draw_epoch", recording)
        cfg = self.config("learned_sigmoid", self.DRAWING[2])
        model, history = train_autoencoder(cfg, self.data(30))
        assert seen == [beside if pin == "usable" else before] * cfg.epochs
        assert os.sched_getaffinity(0) == before
        ref, ref_history = train_full_width(cfg, self.data(30))
        assert history == ref_history

    def test_a_diverging_run_joins_the_worker(self, cpus):
        threads = cpus(2)
        before = threading.active_count()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0, lr=1e9,
                          decoder_kind="learned_linear", encoder_spec=((3, "identity"),),
                          regularizer=Regularizer(kind="latent_gaussian_noise", sigma=0.1))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train_autoencoder(cfg, TestTraining.DATA * 1e150)
        assert threads.started == 1
        assert threading.active_count() == before

    def test_a_raising_step_joins_the_worker(self, cpus, monkeypatch):
        threads = cpus(2)
        before = threading.active_count()

        def fails(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(nn, "gradients", fails)
        with pytest.raises(RuntimeError, match="step failed"):
            train_autoencoder(self.config("learned_sigmoid", self.DRAWING[0], epochs=50),
                              self.data(30))
        assert threads.started == 1
        assert threading.active_count() == before

    def test_a_worker_error_is_raised_on_the_caller(self, cpus, monkeypatch):
        threads = cpus(2)
        before = threading.active_count()
        draw_epoch, callers = nn._draw_epoch, []

        def fails_on_the_second_epoch(*args):
            callers.append(threading.current_thread())
            if len(callers) == 2:
                raise RuntimeError("draws failed")
            return draw_epoch(*args)

        monkeypatch.setattr(nn, "_draw_epoch", fails_on_the_second_epoch)
        with pytest.raises(RuntimeError, match="draws failed"):
            train_autoencoder(self.config("learned_sigmoid", self.DRAWING[1]), self.data(30))
        assert threads.started == 1
        assert len(callers) == 2 and threading.main_thread() not in callers
        assert threading.active_count() == before

    def test_concurrent_runs_keep_their_bytes(self, cpus):
        """More threads than CPUs, switching as often as the interpreter
        lets them: a slot refilled before its epoch was trained would change
        the bytes."""
        cpus(2)
        data = self.data(33)
        configs = [self.config("learned_sigmoid", reg, epochs=20) for reg in self.DRAWING]
        want = [train_full_width(cfg, data) for cfg in configs]
        got = [None] * len(configs)

        def run(i):
            got[i] = train_autoencoder(configs[i], data)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        for (model, history), (ref, ref_history) in zip(got, want):
            assert history == ref_history
            arrays, ref_arrays = model_arrays(model, history)[0], model_arrays(ref, ref_history)[0]
            for key, ref in ref_arrays.items():
                assert arrays[key].tobytes() == ref.tobytes(), key


class TestPca:
    def test_line_in_plane(self):
        t = np.linspace(-1, 1, 40)
        data = np.stack([2 * t, -t], axis=1)
        comps, mean = pca_fit(data, 1)
        direction = comps[0] / np.linalg.norm(comps[0])
        assert abs(direction @ np.array([2, -1]) / np.sqrt(5)) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(30, 4))
        comps, mean = pca_fit(data, 4)
        model = PcaModel(comps, mean)
        assert np.allclose(model.reconstruct(data), data, atol=1e-9)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(50, 8)) @ np.diag([3, 2, 1.5, 1, 1, 0.5, 0.2, 0.1])
        comps, mean = pca_fit(data, 3)
        model = PcaModel(comps, mean)
        ours = float(((data - model.reconstruct(data)) ** 2).sum(axis=1).mean())
        assert ours == pytest.approx(pca_reconstruction_mse(data, 3), abs=1e-9)

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(40, 6))
        errors = []
        for k in range(1, 7):
            comps, mean = pca_fit(data, k)
            model = PcaModel(comps, mean)
            errors.append(float(((data - model.reconstruct(data)) ** 2).sum()))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(25, 5))
        c1, _ = pca_fit(data, 2)
        c2, _ = pca_fit(data.copy(), 2)
        assert np.array_equal(c1, c2)
        for row in c1:
            assert row[np.argmax(np.abs(row))] > 0

    def test_wide_data_spans_the_eigendecomposition_subspace(self):
        # fewer samples than features, as on the word benchmark
        rng = np.random.default_rng(19)
        scores = rng.normal(size=(20, 6)) * [5.0, 4.0, 3.0, 2.0, 1.5, 1.0]
        data = scores @ rng.normal(size=(6, 300)) + 0.05 * rng.normal(size=(20, 300))
        comps, _ = pca_fit(data, 4)
        assert comps.shape == (4, 300)
        cosines = np.linalg.svd(comps @ pca_directions_eigh(data, 4), compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-9
        assert np.allclose(comps @ comps.T, np.eye(4), atol=1e-12)
        variances = ((data - data.mean(axis=0)) @ comps.T).var(axis=0)
        assert np.all(np.diff(variances) < 0)
        for row in comps:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((3, 2)), 3)
