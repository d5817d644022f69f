#!/usr/bin/env python3
"""Print a digest of every reference model trained at a cut epoch budget.

Each config under configs/ is copied with the given epoch budget and seed
and with its paths inside --out-dir, then trained through `minsyn train`.
The script prints, one fact per line:

- the SHA-256 of every checkpoint array and of history.csv;
- for MinSyn models, the SHA-256 of the moving-average readout's arrays;
- for word models, the report losses (train and test, mse) and acc;
- for digits models, the eval loss under every noise kind, on a seeded
  set of synthetic digits written to and read back from an IDX file as
  `minsyn eval` reads it, with the config's evaluation loss and noise seed.

Floats are printed with repr, so two checkouts whose output is identical
train the same bytes and score them to the same floats.  Run from the
repository root, once per checkout, and diff the outputs:

    PYTHONPATH=src python3 scripts/model_digest.py --out-dir /tmp/digest \\
        --word-epochs 40 --digit-epochs 8 --seed 101
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from minsyn import cli
from minsyn.checkpoint import load_checkpoint, restore_model
from minsyn.config import load_config
from minsyn.idx import images_tensor, read_idx_file, write_idx_file
from minsyn.metrics import acc_score, reconstruction_loss, reconstruction_losses
from minsyn.nn import MINSYN_KINDS
from minsyn.noise import apply_noise
from minsyn.words import synthetic_digits

ROOT = Path(__file__).resolve().parents[1]
EVAL_IMAGES = 2000
EVAL_IMAGE_SEED = 12


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a) -> str:
    return sha(np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes())


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"minsyn {' '.join(map(str, argv))} exited {code}")


def write_config(name: str, out_dir: Path, epochs: dict, seed: int) -> Path:
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    if "training" in doc:
        doc["training"]["epochs"] = epochs[doc["dataset"]["kind"]]
        doc["training"]["seed"] = seed
    if doc["dataset"]["kind"] == "words":
        doc["dataset"]["dir"] = str(out_dir / "data")
    doc["output_dir"] = str(out_dir / "runs" / name)
    path = out_dir / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def digest(name: str, config_path: Path, eval_images: Path):
    cfg = load_config(config_path)
    run_dir = cfg.output_dir
    ckpt = load_checkpoint(run_dir / cli.CHECKPOINT_NAME)
    for key, array in ckpt.arrays.items():
        yield f"{name} array {key} {array_sha(array)}"
    yield f"{name} history.csv {sha((run_dir / 'history.csv').read_bytes())}"
    model = restore_model(ckpt)
    if getattr(model, "decoder_kind", None) in MINSYN_KINDS:
        readout = model.decoder_params_from_average()
        for key in ("weights", "bias", "variance"):
            value = getattr(readout, key)
            if value is not None:
                yield f"{name} readout {key} {array_sha(value)}"
    if cfg.dataset["kind"] == "words":
        words, _ = cli.load_word_dataset(cfg.dataset["dir"])
        train_loss, test_loss = reconstruction_losses(
            model, words.train_images, words.test_images, "mse")
        acc = acc_score(model.decoder_weight_matrix(), words.char_layout, words.num_slots)
        yield f"{name} report train_loss {train_loss!r} test_loss {test_loss!r} acc {acc!r}"
    else:
        images = read_idx_file(eval_images).reshaped()
        images = images.reshape(images.shape[0], -1)
        loss_kind = cfg.evaluation["loss"] or "bce"
        for kind in cfg.evaluation["noise_kinds"]:
            corrupted = apply_noise(images, kind, seed=cfg.evaluation["noise_seed"])
            value = reconstruction_loss(model, corrupted, loss_kind, target=images)
            yield f"{name} eval {loss_kind} {kind} {value!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--word-epochs", type=int, default=40)
    parser.add_argument("--digit-epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    out_dir = args.out_dir.resolve()
    epochs = {"words": args.word_epochs, "synthetic_digits": args.digit_epochs}
    run(["dataset-build", "--out-dir", out_dir / "data", "--glyphs", "builtin"])
    images, _ = synthetic_digits(EVAL_IMAGES, seed=EVAL_IMAGE_SEED)
    eval_images = out_dir / "eval_images.idx"
    write_idx_file(eval_images, images_tensor(images))
    for path in sorted((ROOT / "configs").glob("*.json")):
        config_path = write_config(path.stem, out_dir, epochs, args.seed)
        run(["train", "--config", config_path])
        for line in digest(path.stem, config_path, eval_images):
            print(line, flush=True)


if __name__ == "__main__":
    main()
