import tracemalloc

import numpy as np
import pytest

from minsyn import metrics
from minsyn.metrics import (acc_score, build_report, reconstruct, reconstruction_loss,
                            reconstruction_losses)
from minsyn.nn import PcaModel, TrainConfig, loss, pca_fit, train_autoencoder
from minsyn.noise import apply_noise
from minsyn.words import (build_word_dataset, builtin_glyphs, bundled_letter_grid,
                          bundled_word_list, synthetic_digits)

from _oracles import pca_reconstruction_mse

LN3 = np.log(3.0)


def three_slot_layout(per_slot=4):
    return np.repeat(np.arange(3), per_slot)


class TestAccScore:
    def test_block_concentrated_is_zero(self):
        layout = three_slot_layout()
        w = np.zeros((12, 3))
        w[0:4, 0] = 1.3
        w[4:8, 1] = -0.2
        w[8:12, 2] = 7.0
        assert acc_score(w, layout, 3) == 0.0

    def test_uniform_is_ln3(self):
        layout = three_slot_layout()
        w = np.ones((12, 5))
        assert acc_score(w, layout, 3) == pytest.approx(LN3, abs=1e-12)
        assert acc_score(w, layout, 3) == pytest.approx(1.09861, abs=1e-5)

    def test_scale_invariance_per_factor(self):
        rng = np.random.default_rng(0)
        layout = three_slot_layout()
        w = rng.normal(size=(12, 4))
        scales = rng.uniform(0.1, 10.0, size=4)
        assert acc_score(w * scales, layout, 3) == pytest.approx(
            acc_score(w, layout, 3), abs=1e-12)

    def test_factor_permutation_invariance(self):
        rng = np.random.default_rng(1)
        layout = three_slot_layout()
        w = rng.normal(size=(12, 4))
        perm = rng.permutation(4)
        assert acc_score(w[:, perm], layout, 3) == pytest.approx(
            acc_score(w, layout, 3), abs=1e-12)

    def test_mass_toward_mode_decreases_entropy(self):
        layout = three_slot_layout(1)  # 3 pixels, one per slot
        mass = np.array([0.81, 0.15, 0.04])  # squared weight per slot
        base = acc_score(np.sqrt(mass)[:, None], layout, 3)
        delta = 0.03  # move squared mass from the minority slot into the mode
        shifted = mass + np.array([delta, 0.0, -delta])
        assert acc_score(np.sqrt(shifted)[:, None], layout, 3) < base

    def test_dead_factor_charged_max_entropy(self, caplog):
        layout = three_slot_layout()
        w = np.zeros((12, 2))
        w[0:4, 0] = 1.0
        with caplog.at_level("WARNING"):
            score = acc_score(w, layout, 3)
        assert score == pytest.approx(LN3 / 2, abs=1e-12)
        assert any("all-zero" in r.message for r in caplog.records)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        layout = three_slot_layout()
        for _ in range(25):
            w = rng.normal(size=(12, 5))
            s = acc_score(w, layout, 3)
            assert 0.0 <= s <= LN3 + 1e-12


class TestReconstructionLosses:
    def test_constant_half_predictor_bce(self):
        # an untrained zero autoencoder emits 0.5 everywhere
        from minsyn.nn import AutoencoderModel, DenseLayer
        n = 6
        enc = DenseLayer(np.zeros((2, n)), np.zeros(2), "sigmoid")
        dec = DenseLayer(np.zeros((n, 2)), np.zeros(n), "sigmoid")
        model = AutoencoderModel([enc], "learned_sigmoid", decoder=dec)
        data = np.random.default_rng(0).integers(0, 2, size=(10, n)).astype(float)
        tr, te = reconstruction_losses(model, data, data, "bce")
        assert tr == pytest.approx(n * np.log(2), abs=1e-9)
        assert te == tr

    def test_perfect_pca_identity(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20, 4))
        comps, mean = pca_fit(data, 4)
        model = PcaModel(comps, mean)
        tr, te = reconstruction_losses(model, data, data, "mse")
        assert tr == pytest.approx(0.0, abs=1e-12)

    def test_pca_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(40, 9)) * np.linspace(3, 0.2, 9)
        comps, mean = pca_fit(data, 4)
        model = PcaModel(comps, mean)
        tr, _ = reconstruction_losses(model, data, data, "mse")
        assert tr == pytest.approx(pca_reconstruction_mse(data, 4), abs=1e-6)

    def test_untrained_minsyn_rejected(self):
        cfg = TrainConfig(epochs=0, batch_size=2, seed=0, lr=0.01,
                          decoder_kind="minsyn_binary", encoder_spec=((2, "sigmoid"),))
        model, _ = train_autoencoder(cfg, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="train"):
            reconstruction_losses(model, np.zeros((4, 3)), np.zeros((4, 3)), "bce")


DIGIT_PIXELS = 784


@pytest.fixture(scope="module")
def digit_models():
    """One small model of each reconstructing kind on 784-pixel digits."""
    train, _ = synthetic_digits(100, seed=3)
    models = {"pca": PcaModel(*pca_fit(train, 16))}
    for kind in ("minsyn_binary", "minsyn_gaussian", "learned_sigmoid"):
        cfg = TrainConfig(epochs=2, batch_size=50, seed=0, lr=0.003,
                          decoder_kind=kind, encoder_spec=((32, "sigmoid"),))
        models[kind], _ = train_autoencoder(cfg, train)
    return models


def _score_blocks(model, n_images):
    return metrics._score_blocks(model, np.empty((n_images, DIGIT_PIXELS)))


def _assert_blockwise_reconstruction(model, x):
    """Each scoring block reconstructs to the bytes of its rows in one
    whole-batch pass."""
    whole = reconstruct(model, x)
    for rows in metrics._score_blocks(model, x):
        assert reconstruct(model, x[rows]).tobytes() == whole[rows].tobytes(), rows


class TestReconstructionLoss:
    """Blocked scoring must give the whole-batch loss bit for bit."""

    CASES = [("minsyn_binary", "bce"), ("minsyn_binary", "mse"),
             ("learned_sigmoid", "bce"), ("learned_sigmoid", "mse"),
             ("minsyn_gaussian", "mse"), ("pca", "mse")]

    @pytest.mark.parametrize("kind,loss_kind", CASES)
    @pytest.mark.parametrize("shape", ["below_one_block", "exact_multiple",
                                       "one_row_over", "ragged_block"])
    def test_equals_whole_batch(self, digit_models, kind, loss_kind, shape):
        model = digit_models[kind]
        step = _score_blocks(model, 10 ** 6)[0].stop
        floor = metrics._min_block_rows(model)
        n_images = {"below_one_block": step // 2, "exact_multiple": 2 * step,
                    "one_row_over": 2 * step + 1, "ragged_block": 2 * step + floor}[shape]
        blocks = _score_blocks(model, n_images)
        assert len(blocks) == {"below_one_block": 1, "exact_multiple": 2,
                               "one_row_over": 2, "ragged_block": 3}[shape]
        x, _ = synthetic_digits(n_images, seed=4)
        _assert_blockwise_reconstruction(model, x)
        assert reconstruction_loss(model, x, loss_kind) == loss(
            x, reconstruct(model, x), loss_kind)
        corrupted = apply_noise(x, "bottom_half", seed=5)
        assert reconstruction_loss(model, corrupted, loss_kind, target=x) == loss(
            x, reconstruct(model, corrupted), loss_kind)

    @pytest.mark.parametrize("kind,loss_kind", [("learned_sigmoid", "bce"),
                                                ("learned_sigmoid", "mse"), ("pca", "mse")])
    def test_word_splits_equal_whole_batch(self, kind, loss_kind):
        # 2352-pixel rows into 9 latents: the budget alone would give blocks
        # of 27 images, whose products BLAS runs on its small-matrix kernels.
        grid = bundled_letter_grid()
        letters = sorted({ch for g in grid for ch in g})
        words = build_word_dataset(builtin_glyphs(letters), bundled_word_list(), grid)
        if kind == "pca":
            model = PcaModel(*pca_fit(words.train_images, 9))
        else:
            cfg = TrainConfig(epochs=20, batch_size=16, seed=0, lr=0.001,
                              decoder_kind=kind, encoder_spec=((9, "softplus"),))
            model, _ = train_autoencoder(cfg, words.train_images)
        for split in (words.train_images, words.test_images):
            assert len(metrics._score_blocks(model, split)) > 1
            _assert_blockwise_reconstruction(model, split)
            assert reconstruction_loss(model, split, loss_kind) == loss(
                split, reconstruct(model, split), loss_kind)

    def test_no_temporary_grows_with_the_batch(self, digit_models):
        model = digit_models["minsyn_binary"]
        x, _ = synthetic_digits(2000, seed=6)
        full_array = x.nbytes
        reconstruction_loss(model, x[:200], "bce")  # build the cached readout
        tracemalloc.start()
        try:
            reconstruction_loss(model, x, "bce")
            _, blocked_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss(x, reconstruct(model, x), "bce")
            _, whole_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whole_peak >= full_array  # the measurement sees numpy's arrays
        assert blocked_peak < full_array

    def test_range_and_shape_checks_stay(self, digit_models):
        x, _ = synthetic_digits(10, seed=7)
        with pytest.raises(ValueError, match="bce requires x"):
            reconstruction_loss(digit_models["learned_sigmoid"], x, "bce", target=x + 1.0)
        with pytest.raises(ValueError, match="bce requires xbar"):
            reconstruction_loss(digit_models["pca"], x * 50.0, "bce", target=x)
        with pytest.raises(ValueError, match="same shape"):
            reconstruction_loss(digit_models["pca"], x, "mse", target=x[:5])


class TestReport:
    def test_single_row_csv(self):
        table = build_report([("ae", 1.0, 2.0, 0.5)])
        assert table.csv.splitlines() == ["method,train_loss,test_loss,acc",
                                          "ae,1,2,0.5"]

    def test_sorted_by_method(self):
        table = build_report([("zeta", 1, 2, 3), ("alpha", 4, 5, 6)])
        assert [r[0] for r in table.rows] == ["alpha", "zeta"]
        shuffled = build_report([("alpha", 4, 5, 6), ("zeta", 1, 2, 3)])
        assert table.csv == shuffled.csv
        assert table.text == shuffled.text

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_report([("ae", 1, 2, 3), ("ae", 1, 2, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([])

    def test_text_aligned(self):
        table = build_report([("a", 1.25, 2.5, 0.125), ("bbbb", 10, 20, 1)])
        lines = table.text.splitlines()
        assert len({len(l) for l in lines}) == 1  # fixed width rows
