import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import minsyn
from minsyn import cli, metrics, nn
from minsyn.checkpoint import load_checkpoint, model_arrays, save_checkpoint
from minsyn.cli import main
from minsyn.config import parse_config
from minsyn.decoder import binary_batch_stats, update_moving_average
from minsyn.gaussian import GaussianSystem, gk_synergy
from minsyn.idx import IdxTensor, write_idx_file, images_tensor
from minsyn.nn import PcaModel, build_autoencoder, pca_fit, train_autoencoder
from minsyn.svg import line_plot_svg
from minsyn.words import builtin_glyph, synthetic_digits

from _oracles import synergy_curve_grid, synergy_curve_rows


def write_config(path: Path, doc: dict) -> Path:
    p = path / f"{doc['name']}.json"
    p.write_text(json.dumps(doc, indent=2))
    return p


def digits_config(tmp_path, name="run", decoder_kind="minsyn_binary", epochs=2,
                  lr=0.005, **extra_training):
    return {
        "name": name,
        "dataset": {"kind": "synthetic_digits", "train": 32, "test": 8, "seed": 0},
        "model": {"kind": "autoencoder", "latents": 6,
                  "encoder": [{"units": 6, "activation": "sigmoid"}],
                  "decoder_kind": decoder_kind},
        "training": {"epochs": epochs, "batch_size": 8, "lr": lr, "seed": 1,
                     **extra_training},
        "output_dir": str(tmp_path / name),
    }


class TestDatasetBuild:
    def test_counts_printed_and_manifest(self, word_data_dir, capsys):
        manifest = json.loads((word_data_dir / "manifest.json").read_text())
        counts = manifest["counts"]
        assert counts["train"] + counts["test"] == 512
        assert len(manifest["train_words"]) == counts["train"]
        assert manifest["glyph_source"] == "builtin"

    def test_loaded_layout_is_the_built_datasets(self, word_data_dir, word_dataset):
        loaded, manifest = cli.load_word_dataset(word_data_dir)
        assert np.array_equal(loaded.char_layout, word_dataset.char_layout)
        assert loaded.char_layout.shape == (manifest["glyph_side"] ** 2 * manifest["word_len"],)
        assert np.array_equal(loaded.train_images, word_dataset.train_images)

    def test_rerun_byte_identical(self, word_data_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["dataset-build", "--out-dir", str(out2), "--glyphs", "builtin"]) == 0
        for name in ("train_images.idx", "test_images.idx", "train_labels.idx",
                     "test_labels.idx", "manifest.json"):
            assert (word_data_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_python_dash_m_runs_main(self, tmp_path):
        out = tmp_path / "d"
        src = str(Path(minsyn.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "minsyn.cli", "dataset-build",
                               "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").is_file()

    def test_missing_emnist_dir_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w"
        code = main(["dataset-build", "--out-dir", str(out),
                     "--emnist-dir", str(tmp_path / "nope")])
        assert code == 2
        assert not out.exists()  # no partial output

    def test_out_dir_that_is_a_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("taken")
        assert main(["dataset-build", "--out-dir", str(out), "--glyphs", "builtin"]) == 3
        assert "data error:" in capsys.readouterr().err
        assert out.read_text() == "taken"

    def test_emnist_glyphs_loaded_and_transposed(self, tmp_path):
        # fake handwritten-letters pair: one stored sample per letter, saved
        # transposed the way the source files are
        emnist = tmp_path / "emnist"
        emnist.mkdir()
        images, labels = [], []
        for code in range(1, 27):
            glyph = builtin_glyph(chr(ord("a") + code - 1))
            images.append(glyph.T.ravel())
            labels.append(code)
        write_idx_file(emnist / "emnist-letters-train-images-idx3-ubyte",
                       images_tensor(np.array(images)))
        write_idx_file(emnist / "emnist-letters-train-labels-idx1-ubyte",
                       labels_tensor_ubyte(np.array(labels)))
        out = tmp_path / "words"
        assert main(["dataset-build", "--out-dir", str(out),
                     "--emnist-dir", str(emnist)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["glyph_source"] == "emnist"
        assert set(manifest["glyph_indices"]) == {
            c for g in manifest["letters_by_position"] for c in g}


def labels_tensor_ubyte(labels):
    from minsyn.idx import IdxTensor
    return IdxTensor(dims=(labels.size,), data=labels / 255.0)


class TestTrain:
    def test_lr_zero_checkpoint_equals_init(self, tmp_path):
        doc = digits_config(tmp_path, name="frozen", decoder_kind="learned_sigmoid",
                            epochs=1, lr=0.0)
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = load_checkpoint(Path(doc["output_dir"]) / "checkpoint.msck")
        ref = build_autoencoder(784, ((6, "sigmoid"),), "learned_sigmoid", seed=1)
        assert np.array_equal(ckpt.arrays["encoder.0.weights"], ref.encoder[0].weights)
        history = (Path(doc["output_dir"]) / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 2

    def test_same_seed_identical_checkpoints(self, tmp_path):
        doc_a = digits_config(tmp_path, name="a", epochs=2)
        doc_b = digits_config(tmp_path, name="b", epochs=2)
        doc_b["name"] = "a"  # identical config content, different directory
        doc_b["output_dir"] = str(tmp_path / "b")
        pa = write_config(tmp_path / "ca", _mk(tmp_path / "ca", doc_a))
        pb = write_config(tmp_path / "cb", _mk(tmp_path / "cb", doc_b))
        assert main(["train", "--config", str(pa)]) == 0
        assert main(["train", "--config", str(pb)]) == 0
        a = (Path(doc_a["output_dir"]) / "checkpoint.msck").read_bytes()
        b = (Path(doc_b["output_dir"]) / "checkpoint.msck").read_bytes()
        # payloads differ only in the recorded output_dir inside the config
        assert _strip_config(a) == _strip_config(b)

    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The reference digits shapes (784 -> 3 x 128), where threaded OpenBLAS
        # products round differently from one-thread ones, cut to two epochs
        # of 100 images.  Each run's checkpoint is then scored by `minsyn eval`
        # at the same thread count.
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "digits_minsyn_binary.json").read_text())
        doc["dataset"]["train"] = 100
        doc["training"]["epochs"] = 2
        images = tmp_path / "eval.idx"
        write_idx_file(images, images_tensor(synthetic_digits(500, seed=3)[0]))
        src = str(Path(minsyn.__file__).resolve().parent.parent)
        blobs, csvs = [], []
        for threads in ("1", "2"):
            doc["output_dir"] = str(tmp_path / f"threads{threads}")
            cfg_dir = tmp_path / f"c{threads}"
            cfg_dir.mkdir()
            cfg_path = write_config(cfg_dir, doc)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            ckpt = Path(doc["output_dir"]) / "checkpoint.msck"
            out = tmp_path / f"eval{threads}.csv"
            for argv in (["train", "--config", cfg_path],
                         ["eval", "--checkpoint", ckpt, "--images", images, "--out", out]):
                proc = subprocess.run([sys.executable, "-m", "minsyn.cli", *map(str, argv)],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            blobs.append(ckpt.read_bytes())
            csvs.append(out.read_text())
        assert _strip_config(blobs[0]) == _strip_config(blobs[1])
        assert csvs[0] == csvs[1]

    def test_invalid_config_exits_2(self, tmp_path):
        doc = digits_config(tmp_path)
        doc["surprise"] = True
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        cfg_path = tmp_path / "run.json"
        if kind == "directory":
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(b'{"name": "\xff"}')
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"error: cannot read config file {cfg_path}" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_3(self, tmp_path, capsys):
        doc = digits_config(tmp_path, epochs=1)
        Path(doc["output_dir"]).write_text("taken")
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 3
        assert "data error:" in capsys.readouterr().err
        assert Path(doc["output_dir"]).read_text() == "taken"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["lr", "p", "sigma"])
    def test_non_finite_float_exits_2_at_load(self, tmp_path, capsys, key, value):
        doc = digits_config(tmp_path)
        if key == "lr":
            doc["training"]["lr"] = value
        else:
            kind = "dropout" if key == "p" else "input_gaussian_noise"
            doc["training"]["regularizer"] = {"kind": kind, key: value}
        cfg_path = write_config(tmp_path, doc)  # json writes Infinity, -Infinity, NaN
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f".{key}: value {value!r} is not finite" in err
        assert not (tmp_path / doc["name"]).exists()

    def test_diverged_training_exits_4(self, tmp_path, capsys):
        doc = digits_config(tmp_path, name="boom", decoder_kind="learned_linear",
                            epochs=2, lr=1e200)
        cfg_path = write_config(tmp_path, doc)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 4
        # A statistics-driven decoder diverges through the loss as well.
        doc = digits_config(tmp_path, name="boom_minsyn", decoder_kind="minsyn_gaussian",
                            epochs=2, lr=1e300)
        doc["dataset"].update(train=60, seed=1)
        doc["model"].update(latents=4, encoder=[{"units": 4, "activation": "identity"}])
        doc["training"]["batch_size"] = 10
        cfg_path = write_config(tmp_path, doc)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 4
        assert "numerical abort: loss became NaN at epoch 0, batch 1" in capsys.readouterr().err

    def test_idx_config_trains_on_its_images(self, tmp_path, monkeypatch):
        images, _ = synthetic_digits(20, seed=3)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_idx_file(data_dir / "train_images.idx", images_tensor(images))
        monkeypatch.setenv("MINSYN_DATA_DIR", str(data_dir))
        doc = digits_config(tmp_path, name="idx_run", epochs=2)
        doc["dataset"] = {"kind": "idx", "train_images": "train_images.idx"}
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = load_checkpoint(Path(doc["output_dir"]) / "checkpoint.msck")
        expected, _ = model_arrays(
            *train_autoencoder(parse_config(doc).train, images))
        assert ckpt.arrays.keys() == expected.keys()
        for key, array in expected.items():
            assert ckpt.arrays[key].tobytes() == array.tobytes(), key

    def test_words_training_reads_only_the_training_images(self, tmp_path, word_data_dir):
        only_train = tmp_path / "only_train"
        only_train.mkdir()
        (only_train / "train_images.idx").write_bytes(
            (word_data_dir / "train_images.idx").read_bytes())
        checkpoints = []
        for name, data_dir in (("full", word_data_dir), ("only_train", only_train)):
            doc = {
                "name": name,
                "dataset": {"kind": "words", "dir": str(data_dir)},
                "model": {"kind": "autoencoder", "latents": 4,
                          "encoder": [{"units": 4, "activation": "sigmoid"}],
                          "decoder_kind": "minsyn_gaussian"},
                "training": {"epochs": 2, "batch_size": 16, "lr": 0.01, "seed": 0},
                "output_dir": str(tmp_path / "runs" / name),
            }
            assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
            checkpoints.append(load_checkpoint(Path(doc["output_dir"]) / "checkpoint.msck"))
        full, only = checkpoints
        assert full.arrays.keys() == only.arrays.keys()
        for key, array in full.arrays.items():
            assert only.arrays[key].tobytes() == array.tobytes(), key

    def test_words_training_smoke(self, tmp_path, word_data_dir):
        doc = {
            "name": "words_smoke",
            "dataset": {"kind": "words", "dir": str(word_data_dir)},
            "model": {"kind": "autoencoder", "latents": 9,
                      "encoder": [{"units": 9, "activation": "sigmoid"}],
                      "decoder_kind": "minsyn_binary"},
            "training": {"epochs": 12, "batch_size": 16, "lr": 0.01, "seed": 0},
            "output_dir": str(tmp_path / "words_smoke"),
        }
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "words_smoke" / "history.csv").read_text().splitlines()
        losses = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(losses) == 12
        assert losses[-1] < losses[0]


def _mk(d, doc):
    d.mkdir(parents=True, exist_ok=True)
    return doc


def _strip_config(blob: bytes) -> bytes:
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    header["config"].pop("output_dir")
    return json.dumps(header, sort_keys=True).encode() + blob[16 + hlen:]


def _checkpoint_blob(header: bytes) -> bytes:
    return b"MSYNCKPT" + struct.pack("<Q", len(header)) + header


class TestEval:
    def _identity_checkpoint(self, tmp_path, n=784):
        model = build_autoencoder(n, ((n, "identity"),), "learned_linear", seed=0)
        model.encoder[0].weights[:] = np.eye(n)
        model.encoder[0].bias[:] = 0.0
        model.decoder.weights[:] = np.eye(n)
        model.decoder.bias[:] = 0.0
        arrays, meta = model_arrays(model, [0.0])
        path = tmp_path / "identity.msck"
        save_checkpoint(path, {"name": "identity"}, arrays, meta)
        return path

    def _digit_images(self, tmp_path, count=6):
        imgs, _ = synthetic_digits(count, seed=3)
        path = tmp_path / "digits.idx"
        write_idx_file(path, images_tensor(imgs))
        return path

    def test_identity_model_no_noise_zero_loss(self, tmp_path, capsys):
        ckpt = self._identity_checkpoint(tmp_path)
        images = self._digit_images(tmp_path)
        out = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                     "--noise", "none", "--loss", "mse", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "noise,loss"
        kind, value = rows[1].split(",")
        assert kind == "none"
        assert float(value) == pytest.approx(0.0, abs=1e-18)

    def test_all_noise_kinds_and_determinism(self, tmp_path):
        ckpt = self._identity_checkpoint(tmp_path)
        images = self._digit_images(tmp_path)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        for out in (out1, out2):
            code = main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--loss", "mse", "--seed", "11", "--out", str(out)])
            assert code == 0
        assert out1.read_text() == out2.read_text()
        rows = out1.read_text().splitlines()
        assert len(rows) == 7  # header + six kinds
        assert [r.split(",")[0] for r in rows[1:]] == [
            "none", "bottom_half", "right_half", "erase_chunk", "v_stripe", "h_stripe"]

    def test_checkpoint_activation_disagreeing_with_the_kind_exits_3(self, tmp_path, capsys):
        model = build_autoencoder(784, ((4, "sigmoid"),), "learned_linear", seed=0)
        arrays, meta = model_arrays(model, [0.0])
        meta["decoder_activation"] = "sigmoid"
        path = tmp_path / "mismatch.msck"
        save_checkpoint(path, {"name": "mismatch"}, arrays, meta)
        assert main(["eval", "--checkpoint", str(path),
                     "--images", str(self._digit_images(tmp_path))]) == 3
        assert "needs a identity output layer" in capsys.readouterr().err

    def test_non_finite_average_readout_exits_3(self, tmp_path, capsys):
        doc = digits_config(tmp_path, name="nan_ma", decoder_kind="minsyn_gaussian")
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
        ckpt = load_checkpoint(Path(doc["output_dir"]) / "checkpoint.msck")
        ckpt.arrays["ma.xz_mean"][10, 0] = np.nan
        path = tmp_path / "nan_ma.msck"
        save_checkpoint(path, ckpt.config, ckpt.arrays, ckpt.meta)
        assert main(["eval", "--checkpoint", str(path),
                     "--images", str(self._digit_images(tmp_path))]) == 3
        assert "readout is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [
        b"MSYNCKPT\x01",
        _checkpoint_blob(b"[]"),
        _checkpoint_blob(b'{"arrays":[],"config":{},"meta":[],"version":1}'),
        _checkpoint_blob(b'{"arrays":[{"shape":[1]}],"config":{},"meta":{},"version":1}'),
        _checkpoint_blob(b'{"arrays":[{"name":"a","shape":1}],"config":{},"meta":{},"version":1}'),
    ], ids=["short_header_length", "header_not_an_object", "meta_not_an_object",
            "entry_without_name", "shape_not_a_list"])
    def test_malformed_checkpoint_exits_3(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.msck"
        path.write_bytes(blob)
        assert main(["eval", "--checkpoint", str(path),
                     "--images", str(self._digit_images(tmp_path))]) == 3
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("model_kind", 5),
        ("decoder_kind", ["x"]),
        ("encoder_activations", 5),
        ("encoder_activations", [1]),
        ("ma_step_count", 2.5),
        ("ma_step_count", "3"),
        ("ma_step_count", None),
    ], ids=["model_kind_int", "decoder_kind_list", "activations_int",
            "activations_of_int", "step_count_float", "step_count_str", "step_count_missing"])
    def test_malformed_meta_types_exit_3(self, tmp_path, capsys, key, value):
        model = build_autoencoder(784, ((4, "sigmoid"),), "minsyn_binary", seed=0)
        x, _ = synthetic_digits(8, seed=3)
        z = np.random.default_rng(0).random((8, 4))
        model.ma_state = update_moving_average(model.ma_state, binary_batch_stats(x, z))
        arrays, meta = model_arrays(model, [0.0])
        meta[key] = value
        path = tmp_path / "bad_meta.msck"
        save_checkpoint(path, {"name": "bad_meta"}, arrays, meta)
        assert main(["eval", "--checkpoint", str(path),
                     "--images", str(self._digit_images(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and key in err

    def _minsyn_checkpoint_parts(self, encoder_spec):
        """(arrays, meta) of a MinSyn binary model on 784 pixels whose
        moving average holds one batch of statistics."""
        model = build_autoencoder(784, encoder_spec, "minsyn_binary", seed=0)
        x, _ = synthetic_digits(8, seed=3)
        z = np.random.default_rng(0).random((8, model.latent_dim))
        model.ma_state = update_moving_average(model.ma_state, binary_batch_stats(x, z))
        return model_arrays(model, [0.0])

    def _pca_checkpoint_parts(self):
        """(arrays, meta) of a 2-component PCA model on 784 pixels."""
        train, _ = synthetic_digits(20, seed=1)
        return model_arrays(PcaModel(*pca_fit(train, 2)), [])

    def _eval_csv(self, tmp_path, arrays, meta):
        """The eval CSV of the checkpoint (arrays, meta), or None when eval
        exits 3."""
        path, out = tmp_path / "ckpt.msck", tmp_path / "eval.csv"
        save_checkpoint(path, {"name": "ckpt"}, arrays, meta)
        code = main(["eval", "--checkpoint", str(path), "--images",
                     str(self._digit_images(tmp_path)), "--loss", "mse", "--out", str(out)])
        assert code in (0, 3)
        return out.read_text() if code == 0 else None

    def test_unread_checkpoint_arrays_exit_3(self, tmp_path, capsys):
        # An encoder_activations list one layer short would score the
        # checkpoint with its encoder cut after the first layer.
        arrays, meta = self._minsyn_checkpoint_parts(((4, "sigmoid"), (4, "sigmoid")))
        assert self._eval_csv(tmp_path, arrays, meta) is not None
        meta["encoder_activations"] = ["sigmoid"]
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "['encoder.1.bias', 'encoder.1.weights']" in capsys.readouterr().err
        # A PCA checkpoint with an array PCA does not read.
        arrays, meta = self._pca_checkpoint_parts()
        arrays["encoder.0.weights"] = np.zeros((2, 784))
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "['encoder.0.weights']" in capsys.readouterr().err

    def test_arrays_that_do_not_line_up_exit_3(self, tmp_path, capsys):
        # A 784 -> 4 encoder whose moving-average statistics are for 5 latents.
        arrays, meta = self._minsyn_checkpoint_parts(((4, "sigmoid"),))
        five, _ = self._minsyn_checkpoint_parts(((5, "sigmoid"),))
        arrays.update({name: a for name, a in five.items() if name.startswith("ma.")})
        assert self._eval_csv(tmp_path, arrays, meta) is None
        err = capsys.readouterr().err
        assert "data error: moving-average statistics ma.* of 784 outputs and 5 latents" in err
        assert "784 inputs and 4 latents" in err
        # A learned decoder 700 wide behind a 784-pixel encoder.
        model = build_autoencoder(784, ((4, "sigmoid"),), "learned_sigmoid", seed=0)
        arrays, meta = model_arrays(model, [0.0])
        arrays["decoder.weights"] = arrays["decoder.weights"][:700]
        arrays["decoder.bias"] = arrays["decoder.bias"][:700]
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert ("data error: decoder.weights has 700 outputs, but the encoder takes 784 "
                "inputs") in capsys.readouterr().err

    def test_missing_checkpoint_arrays_exit_3_naming_the_array(self, tmp_path, capsys):
        arrays, meta = self._minsyn_checkpoint_parts(((4, "sigmoid"),))
        del arrays["ma.xz_mean"]
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "data error: checkpoint array ma.xz_mean is missing" in capsys.readouterr().err
        model = build_autoencoder(784, ((4, "sigmoid"),), "learned_sigmoid", seed=0)
        arrays, meta = model_arrays(model, [0.0])
        del arrays["encoder.0.bias"]
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "data error: checkpoint array encoder.0.bias is missing" in capsys.readouterr().err

    def test_statistics_of_the_wrong_shape_exit_3_naming_the_field(self, tmp_path, capsys):
        arrays, meta = self._minsyn_checkpoint_parts(((4, "sigmoid"),))
        arrays["ma.x_mean"] = arrays["ma.x_mean"].reshape(28, 28)
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "data error: x_mean must have shape (784,), not (28, 28)" in capsys.readouterr().err

    def test_legacy_minsyn_meta_keys_are_ignored(self, tmp_path):
        arrays, meta = self._minsyn_checkpoint_parts(((4, "sigmoid"),))
        assert "ma_momentum" not in meta and "ma_stats_kind" not in meta
        legacy = dict(meta, ma_momentum=0.99, ma_stats_kind="BinaryStats")
        expected = self._eval_csv(tmp_path, arrays, meta)
        assert expected is not None
        assert self._eval_csv(tmp_path, arrays, legacy) == expected

    @pytest.mark.parametrize("name,value", [
        ("pca.mean", np.zeros(1)),
        ("pca.mean", np.full(784, np.nan)),
        ("pca.components", np.full((2, 784), np.nan)),
        ("pca.components", np.zeros(784)),
        ("pca.components", np.zeros((0, 784))),
    ], ids=["mean_of_length_1", "mean_nan", "components_nan", "components_1d",
            "no_components"])
    def test_malformed_pca_checkpoint_exits_3(self, tmp_path, capsys, name, value):
        arrays, meta = self._pca_checkpoint_parts()
        arrays[name] = value
        assert self._eval_csv(tmp_path, arrays, meta) is None
        assert "data error: PCA components" in capsys.readouterr().err

    def test_checkpoint_trained_on_the_inked_pixels_evaluates_full_images(self, tmp_path):
        doc = digits_config(tmp_path, name="inked")
        train, _ = synthetic_digits(doc["dataset"]["train"], seed=doc["dataset"]["seed"])
        blank = ~train.any(axis=0)
        assert blank.any()
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
        path = Path(doc["output_dir"]) / "checkpoint.msck"
        ckpt = load_checkpoint(path)
        assert ckpt.arrays["encoder.0.weights"].shape == (6, 784)
        assert ckpt.arrays["ma.xz_mean"].shape == (784, 6)
        imgs, _ = synthetic_digits(6, seed=3)
        imgs[0, blank] = 1.0  # ink the pixels no training image inks
        images = tmp_path / "inked.idx"
        write_idx_file(images, images_tensor(imgs))
        out = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(path), "--images", str(images),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 6
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)

    def test_missing_checkpoint_exits_3(self, tmp_path):
        images = self._digit_images(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "no.msck"),
                     "--images", str(images)]) == 3

    def test_checkpoint_that_is_a_directory_exits_3(self, tmp_path, capsys):
        images = self._digit_images(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path), "--images", str(images)]) == 3
        assert "data error:" in capsys.readouterr().err

    def test_images_that_are_not_rasters_exit_3_before_any_thread(self, tmp_path, capsys,
                                                                  monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        images = tmp_path / "narrow.idx"
        write_idx_file(images, IdxTensor(dims=(3, 27, 27), data=np.zeros(3 * 27 * 27)))
        assert main(["eval", "--checkpoint", str(self._identity_checkpoint(tmp_path, 729)),
                     "--images", str(images)]) == 3
        assert "images must be (B, 28*w) rasters" in capsys.readouterr().err

    def test_blas_pinned_on_every_scoring_thread_then_restored(self, tmp_path, monkeypatch):
        calls = nn._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy bundles no OpenBLAS thread control here")
        get, put = calls
        forward, seen = nn.forward, []

        def recording_forward(*args, **kwargs):
            seen.append(get())
            return forward(*args, **kwargs)

        monkeypatch.setattr(nn, "forward", recording_forward)
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        ckpt = self._identity_checkpoint(tmp_path)
        images = self._digit_images(tmp_path)
        before = get()
        try:
            put(2)
            assert main(["eval", "--checkpoint", str(ckpt), "--images", str(images),
                         "--loss", "mse"]) == 0
            assert get() == 2
        finally:
            put(before)
        assert seen == [1] * 6  # one block of each kind


class TestMain:
    def test_handler_replaced_after_the_parser_was_built_is_called(self, tmp_path,
                                                                   monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        calls = []
        train = cli.cmd_train

        def recording(args):
            calls.append(args.config)
            return train(args)

        monkeypatch.setattr(cli, "cmd_train", recording)
        path = str(write_config(tmp_path, digits_config(tmp_path, epochs=1)))
        assert cli.main(["train", "--config", path]) == 0
        assert calls == [path]


class TestSynergyCurve:
    def test_reference_curve(self, tmp_path, capsys):
        out = tmp_path / "curve"
        assert main(["synergy-curve", "--rho1", "0.5", "--rho2", "0.75",
                     "--steps", "101", "--out-dir", str(out)]) == 0
        rows = (out / "synergy_curve.csv").read_text().splitlines()
        assert rows[0] == "sigma12,mutual_information,union_information,gk_synergy,ci_synergy"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape == (101, 5)
        assert np.isfinite(data).all()
        assert (data[:, 3] >= 0).all() and (data[:, 4] >= 0).all()
        gk_min_row = data[np.argmin(data[:, 3])]
        assert gk_min_row[0] == pytest.approx(2 / 3, abs=(data[1, 0] - data[0, 0]) + 1e-12)
        assert gk_min_row[3] <= 1e-9
        assert (out / "synergy_curve.svg").read_text().startswith("<svg")

    def test_rows_match_module(self, tmp_path):
        out = tmp_path / "curve"
        main(["synergy-curve", "--rho1", "0.5", "--rho2", "0.75",
              "--steps", "31", "--out-dir", str(out)])
        rows = (out / "synergy_curve.csv").read_text().splitlines()[1:]
        for r in rows[::7]:
            s12, mi, ui, gk, ci = (float(v) for v in r.split(","))
            assert gk == pytest.approx(
                gk_synergy(GaussianSystem.pair(0.5, 0.75, s12)), abs=1e-9)

    @pytest.mark.parametrize("units", ["nats", "bits"])
    @pytest.mark.parametrize("rho1, rho2", [(0.5, 0.75), (-0.3, 0.6)])
    def test_files_equal_per_system_rows(self, tmp_path, rho1, rho2, units):
        out = tmp_path / "curve"
        assert main(["synergy-curve", "--rho1", str(rho1), "--rho2", str(rho2),
                     "--units", units, "--out-dir", str(out)]) == 0
        scale = 1.0 / np.log(2.0) if units == "bits" else 1.0
        rows = synergy_curve_rows(rho1, rho2, synergy_curve_grid(rho1, rho2, 101), scale)
        header = ["sigma12", "mutual_information", "union_information", "gk_synergy",
                  "ci_synergy"]
        csv = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
        assert (out / "synergy_curve.csv").read_text() == ",".join(header) + "\n" + csv
        series = {name: [r[i] for r in rows] for i, name in enumerate(header[1:], start=1)}
        svg = line_plot_svg([r[0] for r in rows], series, title=f"rho1={rho1:g}, rho2={rho2:g}",
                            xlabel="sigma12", ylabel=f"information ({units})")
        assert (out / "synergy_curve.svg").read_text() == svg

    def test_bits_units(self, tmp_path):
        out_n, out_b = tmp_path / "nats", tmp_path / "bits"
        main(["synergy-curve", "--rho1", "0.5", "--rho2", "0.75", "--steps", "11",
              "--out-dir", str(out_n)])
        main(["synergy-curve", "--rho1", "0.5", "--rho2", "0.75", "--steps", "11",
              "--units", "bits", "--out-dir", str(out_b)])
        n = np.loadtxt(out_n / "synergy_curve.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(out_b / "synergy_curve.csv", delimiter=",", skiprows=1)
        assert np.allclose(n[:, 1] / np.log(2), b[:, 1], atol=1e-9)

    def test_infeasible_rho_exits(self, tmp_path):
        assert main(["synergy-curve", "--rho1", "1.0", "--rho2", "0.5",
                     "--steps", "11", "--out-dir", str(tmp_path / "x")]) == 3


class TestReport:
    @pytest.fixture()
    def trained_runs(self, tmp_path, word_data_dir):
        runs = []
        for name, kind in (("minsyn", "minsyn_binary"), ("ae", "learned_sigmoid")):
            doc = {
                "name": name,
                "dataset": {"kind": "words", "dir": str(word_data_dir)},
                "model": {"kind": "autoencoder", "latents": 9,
                          "encoder": [{"units": 9, "activation": "sigmoid"}],
                          "decoder_kind": kind},
                "training": {"epochs": 4, "batch_size": 16, "lr": 0.01, "seed": 0},
                "output_dir": str(tmp_path / name),
            }
            cfg_path = write_config(tmp_path, doc)
            assert main(["train", "--config", str(cfg_path)]) == 0
            runs.append(doc["output_dir"])
        # one PCA run through the same pipeline
        doc = {
            "name": "pca",
            "dataset": {"kind": "words", "dir": str(word_data_dir)},
            "model": {"kind": "pca", "latents": 9},
            "output_dir": str(tmp_path / "pca"),
        }
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 0
        runs.append(doc["output_dir"])
        return runs

    def test_report_rows_and_determinism(self, tmp_path, trained_runs, capsys):
        out = tmp_path / "report"
        assert main(["report", *trained_runs, "--out-dir", str(out)]) == 0
        csv = (out / "report.csv").read_text()
        lines = csv.splitlines()
        assert lines[0] == "method,train_loss,test_loss,acc"
        assert [l.split(",")[0] for l in lines[1:]] == ["ae", "minsyn", "pca"]
        assert main(["report", *trained_runs, "--out-dir", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r2" / "report.csv").read_text() == csv

    def test_mismatched_datasets_rejected(self, tmp_path, trained_runs, word_data_dir):
        other_dir = tmp_path / "other_words"
        # different dictionary -> different manifest (enough words for k=9 PCA)
        wl = tmp_path / "tiny_words.txt"
        wl.write_text("\n".join(["ail", "air", "ale", "all", "ant", "ban",
                                 "bar", "bat", "bee", "bet", "bin", "bit"]) + "\n")
        assert main(["dataset-build", "--out-dir", str(other_dir),
                     "--glyphs", "builtin", "--word-list", str(wl)]) == 0
        doc = {
            "name": "odd",
            "dataset": {"kind": "words", "dir": str(other_dir)},
            "model": {"kind": "pca", "latents": 9},
            "output_dir": str(tmp_path / "odd"),
        }
        cfg_path = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg_path)]) == 0
        code = main(["report", trained_runs[0], str(tmp_path / "odd"),
                     "--out-dir", str(tmp_path / "bad")])
        assert code == 3

    def test_missing_run_dir_exits_3(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost"),
                     "--out-dir", str(tmp_path / "r")]) == 3
