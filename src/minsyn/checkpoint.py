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

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoder import MovingAverageState
from .nn import MINSYN_STATS, AutoencoderModel, DenseLayer, PcaModel

MAGIC = b"MSYNCKPT"
FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
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
    if len(data) < 16:
        raise ValueError("checkpoint truncated in its header length")
    (hlen,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + hlen].decode())
    if not (isinstance(header, dict)
            and all(isinstance(header.get(k), dict) for k in ("config", "meta"))):
        raise ValueError("checkpoint header is not a JSON object with config and meta objects")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r}")
    if not isinstance(header.get("arrays"), list):
        raise ValueError("checkpoint header lists no arrays")
    arrays = {}
    offset = 16 + hlen
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)):
            raise ValueError(f"checkpoint array entry {entry!r} needs a name and a list shape")
        shape = tuple(entry["shape"])
        if not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"invalid shape {entry['shape']!r} for array {entry['name']!r}")
        end = offset + 8 * math.prod(shape)
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
    meta["model_kind"] = "autoencoder"
    meta["decoder_kind"] = model.decoder_kind
    meta["encoder_activations"] = [layer.activation for layer in model.encoder]
    arrays.update(model.parameters())
    if model.decoder is not None:
        meta["decoder_activation"] = model.decoder.activation
    else:
        ma = model.ma_state
        if ma.step_count == 0:
            raise ValueError("refusing to checkpoint an untrained minsyn model")
        meta["ma_step_count"] = ma.step_count
        arrays.update((f"ma.{name}", getattr(ma.stats, name)) for name in ma.stats.MOMENTS)
    return arrays, meta


def _meta_entry(meta: dict, key: str, kind: type, item: type | None = None):
    """``meta[key]``, which must be a ``kind`` (a list of ``item`` entries
    when ``item`` is given); otherwise a ValueError names the key."""
    value = meta.get(key)
    if (not isinstance(value, kind) or isinstance(value, bool)
            or (item is not None and not all(isinstance(v, item) for v in value))):
        of = f" of {item.__name__}" if item is not None else ""
        raise ValueError(f"checkpoint meta {key} must be a {kind.__name__}{of}, "
                         f"not {value!r}")
    return value


class _Arrays(dict):
    """A checkpoint's arrays by name; reading one it lacks is a ValueError
    that names it."""

    def __missing__(self, name: str):
        raise ValueError(f"checkpoint array {name} is missing")


def restore_model(ckpt: Checkpoint):
    """Rebuild the Python model object from a parsed checkpoint.

    An array that is not part of the model the meta describes is a
    ValueError, and so is a missing one.  Meta keys no model reads, such as
    the ``ma_momentum`` and ``ma_stats_kind`` of older checkpoints, are
    ignored."""
    meta, arrays = ckpt.meta, _Arrays(ckpt.arrays)
    if _meta_entry(meta, "model_kind", str) == "pca":
        model = PcaModel(components=arrays["pca.components"], mean=arrays["pca.mean"])
    else:
        layers = [DenseLayer(weights=arrays[f"encoder.{i}.weights"],
                             bias=arrays[f"encoder.{i}.bias"], activation=activation)
                  for i, activation in enumerate(
                      _meta_entry(meta, "encoder_activations", list, str))]
        decoder_kind = _meta_entry(meta, "decoder_kind", str)
        if decoder_kind in MINSYN_STATS:
            cls = MINSYN_STATS[decoder_kind]
            stats = cls(**{name: arrays[f"ma.{name}"] for name in cls.MOMENTS})
            ma = MovingAverageState(stats=stats,
                                    step_count=_meta_entry(meta, "ma_step_count", int))
            model = AutoencoderModel(encoder=layers, decoder_kind=decoder_kind, ma_state=ma)
            readout = model.decoder_params_from_average()  # cached: evaluation reuses it
            if not (np.isfinite(readout.weights).all() and np.isfinite(readout.bias).all()):
                raise ValueError("checkpoint moving-average readout is not finite")
        else:
            decoder = DenseLayer(weights=arrays["decoder.weights"], bias=arrays["decoder.bias"],
                                 activation=_meta_entry(meta, "decoder_activation", str))
            model = AutoencoderModel(encoder=layers, decoder_kind=decoder_kind, decoder=decoder)
    unread = sorted(set(arrays) - set(model_arrays(model, [])[0]))
    if unread:
        raise ValueError(f"checkpoint arrays {unread} are not part of the model its meta "
                         "describes")
    return model
