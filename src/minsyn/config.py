"""Experiment configuration: one JSON document per run, strictly validated.

Unknown keys are rejected everywhere so typos fail before any computation.
Relative dataset paths resolve against the MINSYN_DATA_DIR environment
variable when it is set, else against the current directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .nn import (ACTIVATIONS, DECODER_KINDS, REGULARIZER_KINDS, REGULARIZER_PARAMETER,
                 Regularizer, TrainConfig)

DATA_DIR_ENV = "MINSYN_DATA_DIR"


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
        if kind is float and not math.isfinite(v):  # json.loads accepts Infinity and NaN
            raise ConfigError(f"{path}: value {v!r} is not finite")
        if extra is not None and not extra(v):
            raise ConfigError(f"{path}: value {v!r} out of range")
        return v
    return check


def _run_name(v, path):
    """A non-empty name on one line: it is a row of the report tables."""
    v = _typed(str, lambda s: len(s) > 0)(v, path)
    if "\n" in v or "\r" in v:
        raise ConfigError(f"{path}: {v!r} holds a line break")
    return v


def _choice(options):
    def check(v, path):
        if v not in options:
            raise ConfigError(f"{path}: must be one of {list(options)}, got {v!r}")
        return v
    return check


def _regularizer(section, path) -> Regularizer:
    """Each kind takes exactly the parameter ``REGULARIZER_PARAMETER`` names;
    ``Regularizer`` checks its range."""
    spec = _require_keys(section, path, {"kind": _choice(REGULARIZER_KINDS)},
                         {"p": _typed(float), "sigma": _typed(float)})
    kind = spec["kind"]
    parameter = REGULARIZER_PARAMETER[kind]
    if set(spec) != {"kind", parameter} - {None}:
        raise ConfigError(f"{path}: {kind} needs " + (
            "no parameters" if parameter is None else f"{parameter!r} and no other parameter"))
    try:
        return Regularizer(**spec)
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


def _kind_section(kinds: dict):
    """Checker of a section whose ``kind`` picks its keys from ``kinds``,
    {kind: {key: check}}; every key of the kind is required."""
    def check(section, path):
        kind = section.get("kind") if isinstance(section, dict) else None
        if kind not in kinds:
            raise ConfigError(f"{path}.kind: must be one of {list(kinds)}")
        return _require_keys(section, path, {"kind": _choice(kinds), **kinds[kind]})
    return check


# The keys of each dataset kind and of each model kind.
DATASETS = {
    "words": {"dir": _typed(str)},
    "synthetic_digits": {"train": _typed(int, lambda v: v >= 2),
                         "test": _typed(int, lambda v: v >= 1),
                         "seed": _typed(int)},
    "idx": {"train_images": _typed(str)},
}
MODELS = {
    "autoencoder": {"latents": _typed(int, lambda v: v >= 1),
                    "encoder": _encoder_spec,
                    "decoder_kind": _choice(DECODER_KINDS)},
    "pca": {"latents": _typed(int, lambda v: v >= 1)},
}


def parse_config(document: dict) -> ExperimentConfig:
    top = _require_keys(document, "config", {
        "name": _run_name,
        "dataset": _kind_section(DATASETS),
        "model": _kind_section(MODELS),
        "output_dir": _typed(str, lambda s: len(s) > 0),
    }, {
        "training": lambda v, p: v,
    })

    model = top["model"]
    if model["kind"] == "autoencoder" and model["encoder"][-1][0] != model["latents"]:
        raise ConfigError(
            "config.model: last encoder layer must have 'latents' units "
            f"({model['encoder'][-1][0]} != {model['latents']})")

    train = None
    if "training" in document:
        if model["kind"] == "pca":
            raise ConfigError("config.training: PCA models are fit directly, drop this section")
        training = _require_keys(document["training"], "config.training", {
            "epochs": _typed(int, lambda v: v >= 0),
            "batch_size": _typed(int, lambda v: v >= 2),
            "lr": _typed(float, lambda v: v >= 0.0),
            "seed": _typed(int),
        }, {
            "regularizer": _regularizer,
        })
        train = TrainConfig(decoder_kind=model["decoder_kind"], encoder_spec=model["encoder"],
                            **training)
    elif model["kind"] == "autoencoder":
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
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
