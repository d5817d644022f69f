import logging

import numpy as np
import pytest

from minsyn.decoder import binary_decoder_params, gaussian_decoder_params
from minsyn.nn import (
    BCE_CLAMP,
    DECODER_KINDS,
    DECODER_LOSS,
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
    evaluate_loss,
    forward,
    gradients,
    loss,
    pca_fit,
    sample_losses,
    sigmoid,
    softplus,
    train_autoencoder,
)

from _oracles import (
    adam_textbook,
    bce_textbook,
    finite_difference_gradients,
    pca_directions_eigh,
    pca_reconstruction_mse,
    sigmoid_two_branch,
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


class TestSigmoid:
    def test_edge_values_match_two_branch_bit_for_bit(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(sigmoid(EDGE_VALUES), sigmoid_two_branch(EDGE_VALUES),
                                  equal_nan=True)

    @pytest.mark.parametrize("shape", [(16, 9), (16, 2352), (100, 128), (7,)])
    def test_random_arrays_match_two_branch_bit_for_bit(self, shape):
        rng = np.random.default_rng(shape[0])
        v = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 30.0, 700.0], size=shape)
        before = v.copy()
        assert sigmoid(v).tobytes() == sigmoid_two_branch(v).tobytes()
        assert np.array_equal(v, before)  # the input is not written

    def test_scalar_input(self):
        assert sigmoid(np.float64(0.0)) == 0.5


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

    def test_bce_reconstruction_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="bce requires xbar"):
            loss(np.array([[0.5]]), np.array([[1.5]]), "bce")
        with pytest.raises(ValueError, match="bce requires xbar"):
            sample_losses(np.array([[0.5]]), np.array([[-0.5]]), "bce")

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
        model = AutoencoderModel([enc], "learned_linear", decoder=dec, loss_kind="mse")
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
        fixed = None
        if decoder_kind in MINSYN_KINDS:
            _, _, stats = gradients(model, x, rng=np.random.default_rng(5), regularizer=reg)
            fixed = (binary_decoder_params(stats) if decoder_kind == "minsyn_binary"
                     else gaussian_decoder_params(stats))
        _, grads, _ = gradients(model, x, rng=np.random.default_rng(5),
                                regularizer=reg, fixed_decoder_params=fixed)

        def loss_fn():
            return evaluate_loss(model, x, mode="train", rng=np.random.default_rng(5),
                                 regularizer=reg, fixed_decoder_params=fixed)

        fd = finite_difference_gradients(loss_fn, model.parameters())
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(g)), 1e-6)
            assert np.max(np.abs(ref - g) / denom) <= 1e-4, name


class TestDecoderLoss:
    @pytest.mark.parametrize("decoder_kind", DECODER_KINDS)
    def test_one_table_pairs_each_decoder_with_its_loss(self, decoder_kind):
        cfg = TrainConfig(epochs=0, batch_size=2, seed=0, lr=0.0,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        assert cfg.loss_kind == DECODER_LOSS[decoder_kind]
        assert small_model(decoder_kind).loss_kind == DECODER_LOSS[decoder_kind]
        assert DECODER_LOSS[decoder_kind] == (
            "bce" if decoder_kind in ("learned_sigmoid", "minsyn_binary") else "mse")

    def test_mismatched_loss_rejected(self):
        model = small_model("minsyn_gaussian")
        with pytest.raises(ValueError, match="pairs with mse"):
            AutoencoderModel(model.encoder, "minsyn_gaussian", loss_kind="bce")


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

    def test_dropped_trailing_batch_logged_once_per_run(self, caplog):
        data = np.vstack([self.DATA, self.DATA[:1]])  # 5 samples, batch 2: 5 mod 2 = 1
        cfg = TrainConfig(epochs=3, batch_size=2, seed=0, lr=0.01,
                          decoder_kind="minsyn_binary", encoder_spec=((3, "sigmoid"),))
        with caplog.at_level(logging.INFO, logger="minsyn.nn"):
            model, history = train_autoencoder(cfg, data)
        dropped = [r for r in caplog.records if "trailing batch" in r.getMessage()]
        assert len(dropped) == 1
        assert model.ma_state.step_count == 6 and len(history) == 3

    def test_minsyn_eval_uses_moving_average(self):
        cfg = TrainConfig(epochs=30, batch_size=2, seed=1, lr=0.01,
                          decoder_kind="minsyn_binary",
                          encoder_spec=((3, "sigmoid"),))
        model, _ = train_autoencoder(cfg, self.DATA)
        assert model.ma_state.step_count == 60
        _, xbar = forward(model, self.DATA, mode="eval")
        assert xbar.shape == self.DATA.shape


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
