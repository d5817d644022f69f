import csv
import io
import threading
import tracemalloc

import numpy as np
import pytest

from minsyn import metrics
from minsyn.metrics import (acc_score, build_report, noise_losses, reconstruction_loss,
                            reconstruction_losses)
from minsyn.nn import PcaModel, TrainConfig, loss, pca_fit, train_autoencoder
from minsyn.noise import NOISE_KINDS, apply_noise
from minsyn.words import synthetic_digits

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
    whole = model.reconstruct(x)
    for rows in metrics._score_blocks(model, x):
        assert model.reconstruct(x[rows]).tobytes() == whole[rows].tobytes(), rows


class TestReconstructionLoss:
    """Blocked scoring must give the whole-batch loss bit for bit."""

    CASES = [("minsyn_binary", "bce"), ("minsyn_binary", "mse"),
             ("learned_sigmoid", "bce"), ("learned_sigmoid", "mse"),
             ("minsyn_gaussian", "mse"), ("pca", "mse")]

    def test_block_floors(self, digit_models):
        # 10^6 // (784 * 16) + 1 for PCA, 10^6 // (784 * 32) + 1 for the rest
        floors = {kind: metrics._min_block_rows(model) for kind, model in digit_models.items()}
        assert floors == {"pca": 80, "minsyn_binary": 40, "minsyn_gaussian": 40,
                          "learned_sigmoid": 40}

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
            x, model.reconstruct(x), loss_kind)
        corrupted = apply_noise(x, "bottom_half", seed=5)
        assert reconstruction_loss(model, corrupted, loss_kind, target=x) == loss(
            x, model.reconstruct(corrupted), loss_kind)

    @pytest.mark.parametrize("kind,loss_kind", [("learned_sigmoid", "bce"),
                                                ("learned_sigmoid", "mse"), ("pca", "mse")])
    def test_word_splits_equal_whole_batch(self, word_dataset, kind, loss_kind):
        # 2352-pixel rows into 9 latents: the budget alone would give blocks
        # of 27 images, whose products BLAS runs on its small-matrix kernels.
        words = word_dataset
        if kind == "pca":
            model = PcaModel(*pca_fit(words.train_images, 9))
        else:
            cfg = TrainConfig(epochs=20, batch_size=16, seed=0, lr=0.001,
                              decoder_kind=kind, encoder_spec=((9, "softplus"),))
            model, _ = train_autoencoder(cfg, words.train_images)
        assert metrics._min_block_rows(model) == 48  # 10^6 // (2352 * 9) + 1
        for split in (words.train_images, words.test_images):
            assert len(metrics._score_blocks(model, split)) > 1
            _assert_blockwise_reconstruction(model, split)
            assert reconstruction_loss(model, split, loss_kind) == loss(
                split, model.reconstruct(split), loss_kind)

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
            loss(x, model.reconstruct(x), "bce")
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


def sequential_noise_losses(model, images, kinds, loss_kind, seed):
    """Each kind corrupted as a whole copy, then scored, one after another."""
    return [reconstruction_loss(model, apply_noise(images, kind, seed), loss_kind,
                                target=images) for kind in kinds]


class TestNoiseLosses:
    """Threaded, block-corrupted scoring must give the sequential losses bit
    for bit."""

    @pytest.mark.parametrize("kind,loss_kind", TestReconstructionLoss.CASES)
    @pytest.mark.parametrize("shape", ["below_one_block", "exact_multiple", "ragged_block"])
    def test_equals_the_sequential_oracle(self, digit_models, cpus, kind, loss_kind, shape):
        model = digit_models[kind]
        step = _score_blocks(model, 10 ** 6)[0].stop
        n_images = {"below_one_block": step // 2, "exact_multiple": 2 * step,
                    "ragged_block": 2 * step + metrics._min_block_rows(model)}[shape]
        x, _ = synthetic_digits(n_images, seed=4)
        cpus(2)
        assert noise_losses(model, x, NOISE_KINDS, loss_kind, seed=5) == \
            sequential_noise_losses(model, x, NOISE_KINDS, loss_kind, 5)

    @pytest.mark.parametrize("count,started", [(1, 0), (2, 1), (3, 2)])
    def test_any_cpu_count_gives_the_same_losses(self, digit_models, cpus, count, started):
        model = digit_models["minsyn_binary"]
        x, _ = synthetic_digits(150, seed=9)
        threads = cpus(count)
        assert noise_losses(model, x, NOISE_KINDS, "bce", seed=2) == \
            sequential_noise_losses(model, x, NOISE_KINDS, "bce", 2)
        assert threads.started == started

    def test_repeated_kinds_are_scored_once_and_reported_each_time(self, digit_models, cpus):
        model = digit_models["learned_sigmoid"]
        x, _ = synthetic_digits(90, seed=1)
        kinds = ["v_stripe", "none", "v_stripe"]
        threads = cpus(3)
        assert noise_losses(model, x, kinds, "bce", seed=3) == \
            sequential_noise_losses(model, x, kinds, "bce", 3)
        assert threads.started == 1

    def test_word_rasters(self, cpus, word_dataset):
        words = word_dataset
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0, lr=0.001,
                          decoder_kind="learned_sigmoid", encoder_spec=((9, "softplus"),))
        learned, _ = train_autoencoder(cfg, words.train_images)
        cpus(2)
        for model, loss_kind in ((learned, "bce"), (PcaModel(*pca_fit(words.train_images, 9)),
                                                    "mse")):
            assert len(metrics._score_blocks(model, words.test_images)) > 1
            assert noise_losses(model, words.test_images, NOISE_KINDS, loss_kind, seed=6) == \
                sequential_noise_losses(model, words.test_images, NOISE_KINDS, loss_kind, 6)

    def test_bad_input_is_rejected_before_any_thread_starts(self, digit_models, cpus):
        model = digit_models["pca"]
        threads = cpus(3)
        with pytest.raises(ValueError, match="rasters"):
            noise_losses(model, np.ones((3, 100)), NOISE_KINDS, "mse")
        with pytest.raises(ValueError, match="noise kind"):
            noise_losses(model, np.ones((3, 784)), ["none", "sparkle"], "mse")
        assert threads.started == 0

    def test_an_error_on_a_worker_thread_reaches_the_caller(self, cpus):
        class FailsOffTheMainThread:
            product_sizes = (784,)

            def reconstruct(self, x):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("worker failed")
                return x

        x, _ = synthetic_digits(20, seed=7)
        threads = cpus(2)
        with pytest.raises(RuntimeError, match="worker failed"):
            noise_losses(FailsOffTheMainThread(), x, ["none", "bottom_half"], "mse")
        assert threads.started == 1


class TestReport:
    def test_single_row_csv(self):
        table = build_report([("ae", 1.0, 2.0, 0.5)])
        assert table.csv.splitlines() == ["method,train_loss,test_loss,acc",
                                          "ae,1,2,0.5"]

    @pytest.mark.parametrize("name", ["a,b", 'say "ae"'])
    def test_csv_quotes_a_name_with_a_separator(self, name):
        table = build_report([(name, 1, 2, 0.5)])
        rows = list(csv.reader(io.StringIO(table.csv, newline="")))
        assert rows == [["method", "train_loss", "test_loss", "acc"], [name, "1", "2", "0.5"]]

    @pytest.mark.parametrize("name", ["two\nlines", "two\r\nlines", "a\rb", "end\n"])
    def test_a_name_with_a_line_break_is_rejected(self, name):
        # csv.writer leaves a lone \r unquoted, which reads back as two rows,
        # and any line break splits a row of the text table.
        with pytest.raises(ValueError, match="must not hold a line break") as err:
            build_report([("ae", 1, 2, 0.5), (name, 1, 2, 0.5)])
        assert repr(name) in str(err.value)

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
