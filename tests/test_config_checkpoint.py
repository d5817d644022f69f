import json
import math
import re
import struct

import numpy as np
import pytest

from minsyn.checkpoint import (
    dump_checkpoint,
    load_checkpoint,
    model_arrays,
    parse_checkpoint,
    restore_model,
    save_checkpoint,
)
from minsyn.config import ConfigError, load_config, parse_config, resolve_data_path
from minsyn.nn import (DECODER_LOSS, PcaModel, Regularizer, TrainConfig, forward, pca_fit,
                       train_autoencoder)

GOOD = {
    "name": "demo",
    "dataset": {"kind": "synthetic_digits", "train": 16, "test": 4, "seed": 0},
    "model": {"kind": "autoencoder", "latents": 3,
              "encoder": [{"units": 3, "activation": "sigmoid"}],
              "decoder_kind": "minsyn_binary"},
    "training": {"epochs": 2, "batch_size": 4, "lr": 0.001, "seed": 0,
                 "regularizer": {"kind": "none"}},
    "output_dir": "runs/demo",
}


def cfg_dict(**overrides):
    doc = json.loads(json.dumps(GOOD))
    doc.update(overrides)
    return doc


class TestConfigSchema:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.name == "demo"
        assert cfg.train.decoder_kind == "minsyn_binary"
        assert cfg.train.batch_size == 4

    @pytest.mark.parametrize("name", ["two\nlines", "a\rb", "a\r\nb"])
    def test_a_name_with_a_line_break_is_rejected(self, name):
        with pytest.raises(ConfigError, match=rf"^config.name: {re.escape(repr(name))} "
                                              "holds a line break$"):
            parse_config(cfg_dict(name=name))

    @pytest.mark.parametrize("name", ["", 7])
    def test_an_empty_or_non_string_name_is_rejected(self, name):
        with pytest.raises(ConfigError, match="^config.name: "):
            parse_config(cfg_dict(name=name))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*bogus"):
            parse_config(cfg_dict(bogus=1))

    def test_unknown_nested_key(self):
        doc = cfg_dict()
        doc["training"]["optimizer"] = "sgd"
        with pytest.raises(ConfigError, match="unknown keys.*optimizer"):
            parse_config(doc)

    def test_missing_required(self):
        doc = cfg_dict()
        del doc["output_dir"]
        with pytest.raises(ConfigError, match="missing keys.*output_dir"):
            parse_config(doc)

    def test_latents_must_match_encoder(self):
        doc = cfg_dict()
        doc["model"]["latents"] = 5
        with pytest.raises(ConfigError, match="latents"):
            parse_config(doc)

    def test_bad_decoder_kind(self):
        doc = cfg_dict()
        doc["model"]["decoder_kind"] = "magic"
        with pytest.raises(ConfigError, match="decoder_kind"):
            parse_config(doc)

    def test_regularizer_needs_parameter(self):
        doc = cfg_dict()
        doc["training"]["regularizer"] = {"kind": "dropout"}
        with pytest.raises(ConfigError, match="dropout needs"):
            parse_config(doc)

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "dropout", "p": 0.1, "sigma": 0.2}, "dropout needs 'p' and no other"),
        ({"kind": "latent_gaussian_noise", "p": 0.1},
         "latent_gaussian_noise needs 'sigma' and no other"),
        ({"kind": "none", "p": 0.0}, "none needs no parameters"),
        ({"kind": "dropout", "p": 1.0}, r"dropout probability must lie in \[0, 1\)"),
        ({"kind": "input_gaussian_noise", "sigma": -0.5}, "noise sigma must be >= 0"),
    ], ids=["extra_sigma", "p_for_noise", "p_for_none", "p_of_1", "negative_sigma"])
    def test_regularizer_takes_its_one_parameter_in_range(self, spec, message):
        doc = cfg_dict()
        doc["training"]["regularizer"] = spec
        with pytest.raises(ConfigError, match=f"config.training.regularizer: {message}"):
            parse_config(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["lr", "p", "sigma"])
    def test_non_finite_float_rejected_naming_the_key(self, key, value):
        doc = cfg_dict()
        if key == "lr":
            doc["training"]["lr"] = value
            path = "config.training.lr"
        else:
            kind = "dropout" if key == "p" else "latent_gaussian_noise"
            doc["training"]["regularizer"] = {"kind": kind, key: value}
            path = f"config.training.regularizer.{key}"
        # Through the JSON text, which spells them Infinity, -Infinity and NaN.
        doc = json.loads(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: value .* is not finite$"):
            parse_config(doc)

    @pytest.mark.parametrize("kind", ["input_gaussian_noise", "latent_gaussian_noise"])
    def test_regularizer_rejects_an_infinite_sigma(self, kind):
        with pytest.raises(ValueError, match="noise sigma must be >= 0 and finite"):
            Regularizer(kind=kind, sigma=math.inf)

    @pytest.mark.parametrize("section,kinds", [
        ("dataset", "['words', 'synthetic_digits', 'idx']"),
        ("model", "['autoencoder', 'pca']"),
    ])
    def test_unknown_section_kind_lists_the_kinds(self, section, kinds):
        doc = cfg_dict()
        doc[section]["kind"] = "magic"
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"config.{section}.kind: must be one of {kinds}"

    def test_unknown_regularizer_kind_lists_the_kinds(self):
        doc = cfg_dict()
        doc["training"]["regularizer"] = {"kind": "magic"}
        with pytest.raises(ConfigError, match="latent_gaussian_noise"):
            parse_config(doc)

    def test_pca_has_no_training(self):
        doc = cfg_dict()
        doc["model"] = {"kind": "pca", "latents": 4}
        with pytest.raises(ConfigError, match="PCA"):
            parse_config(doc)
        del doc["training"]
        assert parse_config(doc).train is None

    def test_bool_is_not_int(self):
        doc = cfg_dict()
        doc["training"]["epochs"] = True
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(GOOD))
        assert load_config(p).name == "demo"
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "missing.json")
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_resolve_data_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MINSYN_DATA_DIR", str(tmp_path))
        assert resolve_data_path("sub/x") == tmp_path / "sub" / "x"
        assert resolve_data_path("/abs/x") == __import__("pathlib").Path("/abs/x")
        monkeypatch.delenv("MINSYN_DATA_DIR")
        assert str(resolve_data_path("sub/x")) == "sub/x"


class TestCheckpointFormat:
    def test_byte_round_trip(self):
        arrays = {"a": np.arange(6, dtype=float).reshape(2, 3),
                  "b": np.array([1.5])}
        blob = dump_checkpoint(GOOD, arrays, {"final_epoch": 2})
        ckpt = parse_checkpoint(blob)
        again = dump_checkpoint(ckpt.config, ckpt.arrays, ckpt.meta)
        assert blob == again
        assert np.array_equal(ckpt.arrays["a"], arrays["a"])

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_checkpoint(b"NOTMAGIC" + bytes(16))

    def test_truncated(self):
        blob = dump_checkpoint(GOOD, {"a": np.zeros(4)}, {})
        with pytest.raises(ValueError, match="truncated"):
            parse_checkpoint(blob[:-8])

    def test_shape_past_int64_is_truncated(self):
        blob = dump_checkpoint(GOOD, {"a": np.zeros(4)}, {})
        (hlen,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + hlen])
        header["arrays"][0]["shape"] = [2 ** 32, 2 ** 32]
        text = json.dumps(header).encode()
        with pytest.raises(ValueError, match="truncated"):
            parse_checkpoint(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])

    @pytest.mark.parametrize("size", [-1, 2.5])
    def test_invalid_shape_rejected(self, size):
        # With no check, a size of -1 moves the read offset back 8 bytes and
        # "b" is read from the end of the header.
        header = {"version": 1, "config": {}, "meta": {},
                  "arrays": [{"name": "a", "shape": [size]}, {"name": "b", "shape": [1]}]}
        text = json.dumps(header, sort_keys=True).encode()
        with pytest.raises(ValueError, match="invalid shape .* 'a'"):
            parse_checkpoint(b"MSYNCKPT" + struct.pack("<Q", len(text)) + text)

    def test_file_round_trip_byte_identity(self, tmp_path):
        cfg = parse_config(GOOD)
        data = (np.random.default_rng(0).random((16, 6)) > 0.5).astype(float)
        model, history = train_autoencoder(cfg.train, data)
        arrays, meta = model_arrays(model, history)
        p1, p2 = tmp_path / "a.msck", tmp_path / "b.msck"
        save_checkpoint(p1, GOOD, arrays, meta)
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.config, ckpt.arrays, ckpt.meta)
        assert p1.read_bytes() == p2.read_bytes()


class TestModelRestore:
    def test_autoencoder_round_trip_behaviour(self, tmp_path):
        cfg = parse_config(GOOD)
        data = (np.random.default_rng(1).random((16, 6)) > 0.5).astype(float)
        model, history = train_autoencoder(cfg.train, data)
        arrays, meta = model_arrays(model, history)
        restored = restore_model(parse_checkpoint(dump_checkpoint(GOOD, arrays, meta)))
        _, xbar_a = forward(model, data, mode="eval")
        _, xbar_b = forward(restored, data, mode="eval")
        assert np.array_equal(xbar_a, xbar_b)
        assert restored.ma_state.step_count == model.ma_state.step_count

    @pytest.mark.parametrize("decoder_kind", ["minsyn_binary", "minsyn_gaussian"])
    def test_statistics_fields_round_trip(self, decoder_kind):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1, lr=0.01,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        data = (np.random.default_rng(4).random((12, 5)) > 0.5).astype(float)
        model, history = train_autoencoder(cfg, data)
        arrays, meta = model_arrays(model, history)
        names = list(model.ma_state.stats.MOMENTS)
        assert [k for k in arrays if k.startswith("ma.")] == [f"ma.{n}" for n in names]
        restored = restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))
        assert type(restored.ma_state.stats) is type(model.ma_state.stats)
        for n in names:
            assert np.array_equal(getattr(restored.ma_state.stats, n),
                                  getattr(model.ma_state.stats, n))
        assert restored.loss_kind == model.loss_kind == DECODER_LOSS[decoder_kind]

    def test_learned_decoder_round_trip(self):
        cfg = TrainConfig(epochs=3, batch_size=4, seed=2, lr=0.01,
                          decoder_kind="learned_sigmoid",
                          encoder_spec=((2, "softplus"),))
        data = np.random.default_rng(2).random((12, 5))
        model, history = train_autoencoder(cfg, data)
        arrays, meta = model_arrays(model, history)
        restored = restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))
        assert np.array_equal(restored.decoder.weights, model.decoder.weights)
        assert restored.decoder.activation == "sigmoid"

    @pytest.mark.parametrize("decoder_kind,key,stored", [
        ("learned_sigmoid", "decoder_activation", "identity"),
    ])
    def test_stored_value_disagreeing_with_the_kind_rejected(self, decoder_kind, key, stored):
        cfg = TrainConfig(epochs=1, batch_size=4, seed=1, lr=0.01,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        model, history = train_autoencoder(cfg, np.random.default_rng(5).random((8, 5)))
        arrays, meta = model_arrays(model, history)
        restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))
        meta[key] = stored
        with pytest.raises(ValueError, match="needs a sigmoid output layer"):
            restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))

    @pytest.mark.parametrize("decoder_kind", ["minsyn_binary", "minsyn_gaussian"])
    def test_non_finite_average_readout_rejected(self, decoder_kind):
        cfg = TrainConfig(epochs=1, batch_size=4, seed=1, lr=0.01,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        model, history = train_autoencoder(cfg, np.random.default_rng(6).random((8, 5)))
        arrays, meta = model_arrays(model, history)
        arrays["ma.xz_mean"] = arrays["ma.xz_mean"].copy()
        arrays["ma.xz_mean"][1, 2] = np.nan
        with pytest.raises(ValueError, match="readout is not finite"):
            restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))

    def test_pca_round_trip(self):
        data = np.random.default_rng(3).normal(size=(20, 5))
        comps, mean = pca_fit(data, 2)
        model = PcaModel(comps, mean)
        arrays, meta = model_arrays(model, [])
        restored = restore_model(parse_checkpoint(dump_checkpoint({}, arrays, meta)))
        assert isinstance(restored, PcaModel)
        assert np.array_equal(restored.components, comps)

    def test_untrained_minsyn_refused(self):
        cfg = TrainConfig(epochs=0, batch_size=4, seed=0, lr=0.01,
                          decoder_kind="minsyn_binary",
                          encoder_spec=((2, "sigmoid"),))
        model, history = train_autoencoder(cfg, np.zeros((8, 4)))
        with pytest.raises(ValueError, match="untrained"):
            model_arrays(model, history)
