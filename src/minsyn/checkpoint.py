"""Model checkpoints: JSON header plus a flat little-endian float64 payload.

Layout:

    bytes 0..7    magic b"MSYNCKPT"
    bytes 8..15   header length H, unsigned 64-bit little-endian
    bytes 16..16+H  header, UTF-8 JSON with sorted keys
    remainder     the arrays named in header["arrays"], concatenated in
                  listed order as little-endian float64

The header records the format version, the full experiment configuration,
scalar metadata and the (name, shape) of every array, so a checkpoint
round-trips byte for byte through load/save.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoder import BinaryStats, GaussianStats, MovingAverageState
from .nn import DECODER_LOSS, AutoencoderModel, DenseLayer, MINSYN_KINDS, PcaModel

MAGIC = b"MSYNCKPT"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    version: int
    config: dict
    meta: dict
    arrays: dict


def dump_checkpoint(config: dict, arrays: dict, meta: dict) -> bytes:
    names = list(arrays)
    header = {
        "version": FORMAT_VERSION,
        "config": config,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(
        np.ascontiguousarray(np.asarray(arrays[n], dtype=float)).astype("<f8").tobytes()
        for n in names)
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def parse_checkpoint(data: bytes) -> Checkpoint:
    if data[:8] != MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    (hlen,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + hlen].decode())
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
    arrays = {}
    offset = 16 + hlen
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(data):
            raise ValueError(f"checkpoint truncated in array {entry['name']!r}")
        arrays[entry["name"]] = np.frombuffer(
            data[offset:end], dtype="<f8").astype(float).reshape(shape)
        offset = end
    if offset != len(data):
        raise ValueError("trailing bytes after checkpoint payload")
    return Checkpoint(version=header["version"], config=header["config"],
                      meta=header["meta"], arrays=arrays)


def save_checkpoint(path, config: dict, arrays: dict, meta: dict) -> None:
    Path(path).write_bytes(dump_checkpoint(config, arrays, meta))


def load_checkpoint(path) -> Checkpoint:
    return parse_checkpoint(Path(path).read_bytes())


def model_arrays(model, history) -> tuple:
    """Flatten a trained model into (arrays, meta) for dump_checkpoint."""
    arrays = {"history": np.asarray(history, dtype=float)}
    meta = {"final_epoch": len(history)}
    if isinstance(model, PcaModel):
        meta["model_kind"] = "pca"
        arrays["pca.components"] = model.components
        arrays["pca.mean"] = model.mean
        return arrays, meta
    if not isinstance(model, AutoencoderModel):
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    meta["model_kind"] = "autoencoder"
    meta["decoder_kind"] = model.decoder_kind
    meta["encoder_activations"] = [layer.activation for layer in model.encoder]
    for i, layer in enumerate(model.encoder):
        arrays[f"encoder.{i}.weights"] = layer.weights
        arrays[f"encoder.{i}.bias"] = layer.bias
    if model.decoder is not None:
        meta["decoder_activation"] = model.decoder.activation
        arrays["decoder.weights"] = model.decoder.weights
        arrays["decoder.bias"] = model.decoder.bias
    if model.decoder_kind in MINSYN_KINDS:
        ma = model.ma_state
        if ma is None or ma.step_count == 0:
            raise ValueError("refusing to checkpoint an untrained minsyn model")
        meta["ma_momentum"] = ma.momentum
        meta["ma_step_count"] = ma.step_count
        meta["ma_stats_kind"] = type(ma.stats).__name__
        for f in dataclasses.fields(ma.stats):
            arrays[f"ma.{f.name}"] = getattr(ma.stats, f.name)
    return arrays, meta


def restore_model(ckpt: Checkpoint):
    """Rebuild the Python model object from a parsed checkpoint."""
    meta, arrays = ckpt.meta, ckpt.arrays
    if meta["model_kind"] == "pca":
        return PcaModel(components=arrays["pca.components"], mean=arrays["pca.mean"])
    layers = []
    for i, activation in enumerate(meta["encoder_activations"]):
        layers.append(DenseLayer(weights=arrays[f"encoder.{i}.weights"],
                                 bias=arrays[f"encoder.{i}.bias"],
                                 activation=activation))
    decoder_kind = meta["decoder_kind"]
    decoder = None
    ma = None
    if decoder_kind in MINSYN_KINDS:
        cls = GaussianStats if meta["ma_stats_kind"] == "GaussianStats" else BinaryStats
        stats = cls(**{f.name: arrays[f"ma.{f.name}"] for f in dataclasses.fields(cls)})
        ma = MovingAverageState(stats=stats, momentum=meta["ma_momentum"],
                                step_count=int(meta["ma_step_count"]))
    else:
        decoder = DenseLayer(weights=arrays["decoder.weights"],
                             bias=arrays["decoder.bias"],
                             activation=meta["decoder_activation"])
    return AutoencoderModel(encoder=layers, decoder_kind=decoder_kind,
                            decoder=decoder, ma_state=ma,
                            loss_kind=DECODER_LOSS[decoder_kind])
