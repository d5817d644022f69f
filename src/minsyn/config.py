"""Experiment configuration: one JSON document per run, strictly validated.

Unknown keys are rejected everywhere so typos fail before any computation.
Relative dataset paths resolve against the MINSYN_DATA_DIR environment
variable when it is set, else against the current directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .nn import DECODER_KINDS, ACTIVATIONS, REGULARIZER_KINDS, Regularizer, TrainConfig

DATA_DIR_ENV = "MINSYN_DATA_DIR"

DATASET_KINDS = ("words", "synthetic_digits", "idx")
MODEL_KINDS = ("autoencoder", "pca")


class ConfigError(ValueError):
    """Configuration document violates the schema."""


def _require_keys(section: dict, path: str, required: dict, optional: dict = {}):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    out = {}
    for key, checker in {**required, **optional}.items():
        if key in section:
            out[key] = checker(section[key], f"{path}.{key}")
    return out


def _typed(kind, extra=None):
    def check(v, path):
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
            raise ConfigError(f"{path}: expected {kind.__name__}, got {type(v).__name__}")
        if extra is not None and not extra(v):
            raise ConfigError(f"{path}: value {v!r} out of range")
        return v
    return check


def _choice(options):
    def check(v, path):
        if v not in options:
            raise ConfigError(f"{path}: must be one of {list(options)}, got {v!r}")
        return v
    return check


def _regularizer(section, path) -> Regularizer:
    spec = _require_keys(section, path,
                         {"kind": _choice(REGULARIZER_KINDS)},
                         {"p": _typed(float, lambda v: 0.0 <= v < 1.0),
                          "sigma": _typed(float, lambda v: v >= 0.0)})
    kind = spec["kind"]
    if kind == "dropout" and "p" not in spec:
        raise ConfigError(f"{path}: dropout needs 'p'")
    if kind.endswith("gaussian_noise") and "sigma" not in spec:
        raise ConfigError(f"{path}: {kind} needs 'sigma'")
    if kind == "none" and (("p" in spec) or ("sigma" in spec)):
        raise ConfigError(f"{path}: 'none' takes no parameters")
    try:
        return Regularizer(kind=kind, p=spec.get("p", 0.0), sigma=spec.get("sigma", 0.0))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _encoder_spec(v, path):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: expected a non-empty list of layers")
    layers = []
    for i, layer in enumerate(v):
        out = _require_keys(layer, f"{path}[{i}]",
                            {"units": _typed(int, lambda u: u >= 1),
                             "activation": _choice(ACTIVATIONS)})
        layers.append((out["units"], out["activation"]))
    return tuple(layers)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated view of one experiment document plus its raw snapshot;
    ``train`` is None for PCA, which is fit directly."""

    raw: dict
    name: str
    dataset: dict
    latents: int
    train: TrainConfig | None
    output_dir: Path


def _dataset_section(section, path) -> dict:
    kind = section.get("kind") if isinstance(section, dict) else None
    if kind == "words":
        return {"kind": "words", **_require_keys(section, path, {
            "kind": _choice(("words",)), "dir": _typed(str)})}
    if kind == "synthetic_digits":
        return {"kind": "synthetic_digits", **_require_keys(section, path, {
            "kind": _choice(("synthetic_digits",)),
            "train": _typed(int, lambda v: v >= 2),
            "test": _typed(int, lambda v: v >= 1),
            "seed": _typed(int)})}
    if kind == "idx":
        return {"kind": "idx", **_require_keys(section, path, {
            "kind": _choice(("idx",)), "train_images": _typed(str)})}
    raise ConfigError(f"{path}.kind: must be one of {list(DATASET_KINDS)}")


def parse_config(document: dict) -> ExperimentConfig:
    top = _require_keys(document, "config", {
        "name": _typed(str, lambda s: len(s) > 0),
        "dataset": _dataset_section,
        "model": lambda v, p: v,
        "output_dir": _typed(str, lambda s: len(s) > 0),
    }, {
        "training": lambda v, p: v,
    })

    model = document["model"]
    kind = model.get("kind") if isinstance(model, dict) else None
    if kind == "pca":
        m = _require_keys(model, "config.model", {
            "kind": _choice(("pca",)),
            "latents": _typed(int, lambda v: v >= 1)})
    elif kind == "autoencoder":
        m = _require_keys(model, "config.model", {
            "kind": _choice(("autoencoder",)),
            "latents": _typed(int, lambda v: v >= 1),
            "encoder": _encoder_spec,
            "decoder_kind": _choice(DECODER_KINDS)})
        if m["encoder"][-1][0] != m["latents"]:
            raise ConfigError(
                "config.model: last encoder layer must have 'latents' units "
                f"({m['encoder'][-1][0]} != {m['latents']})")
    else:
        raise ConfigError(f"config.model.kind: must be one of {list(MODEL_KINDS)}")

    train = None
    if "training" in document:
        if kind == "pca":
            raise ConfigError("config.training: PCA models are fit directly, drop this section")
        training = _require_keys(document["training"], "config.training", {
            "epochs": _typed(int, lambda v: v >= 0),
            "batch_size": _typed(int, lambda v: v >= 2),
            "lr": _typed(float, lambda v: v >= 0.0),
            "seed": _typed(int),
        }, {
            "regularizer": _regularizer,
        })
        train = TrainConfig(decoder_kind=m["decoder_kind"], encoder_spec=m["encoder"],
                            **training)
    elif kind == "autoencoder":
        raise ConfigError("config.training: required for autoencoder models")

    return ExperimentConfig(
        raw=document,
        name=document["name"],
        dataset=top["dataset"],
        latents=model["latents"],
        train=train,
        output_dir=Path(document["output_dir"]),
    )


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        document = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from None
    return parse_config(document)


def resolve_data_path(path_str: str) -> Path:
    """Resolve a dataset path against MINSYN_DATA_DIR when it is relative."""
    p = Path(path_str)
    if p.is_absolute():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    return (Path(root) / p) if root else p
