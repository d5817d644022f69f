#!/usr/bin/env python3
"""Print a digest of the synergy measures and of every reference model trained
at a cut epoch budget.

Each config under configs/ is copied with the given epoch budget and seed
and with its paths inside --out-dir, then trained through `minsyn train`.
The script prints, one fact per line:

- the SHA-256 of `synergy_curve.csv` and `synergy_curve.svg` written by
  `minsyn synergy-curve` for the paper pair (0.5, 0.75) and five pairs drawn
  from --seed, in nats and in bits;
- MI, WMS, GK and CI synergy, and GK synergy at the GK-minimizing
  covariance, of 50 Gaussian systems of 3 to 7 variables drawn from --seed;
- CI synergy, WMS synergy, total correlation, the whole-group MI and each
  single-latent MI of two discrete joints per latent count from 1 to
  `MAX_LATENTS`, drawn from --seed: one binary, one of mixed arities with
  zero cells; for joints of at most 8 latents, also the SHA-256 of
  `to_text()` and of the bytes of `from_text(to_text()).probs`;
- the SHA-256 of every file `minsyn dataset-build` writes for the word
  dataset with the built-in glyphs: the manifest and the four IDX files;
- each checkpoint's `meta` as sorted JSON, the SHA-256 of every
  checkpoint array and of history.csv;
- for digits configs, the SHA-256 of the training digits' images and
  labels, drawn by `synthetic_digits` with the config's count and seed;
- for MinSyn configs, how many groups of pixels with equal training
  columns there are: MinSyn training runs one pixel per group;
- for MinSyn models, the SHA-256 of the moving-average readout's weights
  and bias;
- for word models, the report losses (train and test, mse) and acc;
- the SHA-256 of the images and labels of a seeded set of synthetic digits
  and, for digits models, the eval loss (`EVAL_LOSS`) under every noise
  kind, corrupted with `EVAL_NOISE_SEED`, on those images written to and
  read back from an IDX file as `minsyn eval` reads it, scored one kind
  after another as the sequential reference;
- for digits models, the SHA-256 of the CSV `minsyn eval` writes for the
  same images, loss and seed, which scores its kinds on parallel threads.

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

from minsyn import cli, discrete, gaussian
from minsyn.checkpoint import load_checkpoint, restore_model
from minsyn.config import load_config
from minsyn.idx import images_tensor, read_idx_file, write_idx_file
from minsyn.metrics import acc_score, reconstruction_loss, reconstruction_losses
from minsyn.nn import MINSYN_KINDS
from minsyn.noise import NOISE_KINDS, apply_noise
from minsyn.words import synthetic_digits

ROOT = Path(__file__).resolve().parents[1]
EVAL_IMAGES = 2000
EVAL_IMAGE_SEED = 12
EVAL_LOSS = "bce"
EVAL_NOISE_SEED = 5
SEEDED_PAIRS = 5
GAUSSIAN_SYSTEMS = 50
MIXED_JOINT_CELLS = 1 << 14
TEXT_LATENTS = 8


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a) -> str:
    return sha(np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes())


def digits_sha(count: int, seed: int) -> str:
    images, labels = synthetic_digits(count, seed=seed)
    return f"images {array_sha(images)} labels {sha(labels.astype('<i8').tobytes())}"


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
    yield f"{name} meta {json.dumps(ckpt.meta, sort_keys=True)}"
    for key, array in ckpt.arrays.items():
        yield f"{name} array {key} {array_sha(array)}"
    yield f"{name} history.csv {sha((run_dir / 'history.csv').read_bytes())}"
    if cfg.dataset["kind"] == "synthetic_digits":
        yield f"{name} training digits {digits_sha(cfg.dataset['train'], cfg.dataset['seed'])}"
    if cfg.train is not None and cfg.train.decoder_kind in MINSYN_KINDS:
        columns = cli.load_experiment_data(cfg).T
        groups = len({column.tobytes() for column in columns})
        yield f"{name} pixel groups {groups} of {len(columns)}"
    model = restore_model(ckpt)
    if getattr(model, "decoder_kind", None) in MINSYN_KINDS:
        readout = model.decoder_params_from_average()
        for key in ("weights", "bias"):
            yield f"{name} readout {key} {array_sha(getattr(readout, key))}"
    if cfg.dataset["kind"] == "words":
        words, _ = cli.load_word_dataset(cfg.dataset["dir"])
        train_loss, test_loss = reconstruction_losses(
            model, words.train_images, words.test_images, "mse")
        acc = acc_score(model.decoder_weight_matrix(), words.char_layout, words.num_slots)
        yield f"{name} report train_loss {train_loss!r} test_loss {test_loss!r} acc {acc!r}"
    else:
        images = read_idx_file(eval_images).reshaped()
        images = images.reshape(images.shape[0], -1)
        for kind in NOISE_KINDS:
            corrupted = apply_noise(images, kind, seed=EVAL_NOISE_SEED)
            value = reconstruction_loss(model, corrupted, EVAL_LOSS, target=images)
            yield f"{name} eval {EVAL_LOSS} {kind} {value!r}"
        eval_csv = run_dir / "eval.csv"
        run(["eval", "--checkpoint", run_dir / cli.CHECKPOINT_NAME, "--images", eval_images,
             "--loss", EVAL_LOSS, "--seed", EVAL_NOISE_SEED, "--out", eval_csv])
        yield f"{name} eval csv {sha(eval_csv.read_bytes())}"


def random_correlation(rng, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size + 2))
    c = a @ a.T
    d = 1.0 / np.sqrt(np.diag(c))
    c = c * d[:, None] * d[None, :]
    np.fill_diagonal(c, 1.0)
    return (c + c.T) / 2.0


def synergy_digest(out_dir: Path, seed: int):
    rng = np.random.default_rng(seed)
    pairs = [(0.5, 0.75)] + [tuple(np.round(rng.uniform(-0.9, 0.9, size=2), 3).tolist())
                             for _ in range(SEEDED_PAIRS)]
    for rho1, rho2 in pairs:
        for units in ("nats", "bits"):
            curve_dir = out_dir / "curves" / f"{rho1}_{rho2}_{units}"
            run(["synergy-curve", "--rho1", rho1, "--rho2", rho2, "--units", units,
                 "--out-dir", curve_dir])
            yield (f"synergy-curve {rho1} {rho2} {units} "
                   f"csv {sha((curve_dir / 'synergy_curve.csv').read_bytes())} "
                   f"svg {sha((curve_dir / 'synergy_curve.svg').read_bytes())}")
    for i in range(GAUSSIAN_SYSTEMS):
        c = random_correlation(rng, int(rng.integers(3, 8)))
        rho, sigma = c[-1, :-1].copy(), c[:-1, :-1].copy()
        s = gaussian.GaussianSystem(rho, sigma)
        at_min = gaussian.gk_synergy(gaussian.gk_minimizing_covariance(rho))
        yield (f"gaussian system {i} mi {gaussian.gaussian_mutual_information(s)!r} "
               f"wms {gaussian.wms_synergy(s)!r} gk {gaussian.gk_synergy(s)!r} "
               f"ci {gaussian.gaussian_ci_synergy(s)!r} gk_at_minimizer {at_min!r}")
    for m in range(1, discrete.MAX_LATENTS + 1):
        binary = rng.dirichlet(np.ones(2 ** (m + 1))).reshape((2,) * (m + 1))
        arities = rng.integers(1, 4, size=m + 1)
        arities[-1] += 1
        while np.prod(arities) > MIXED_JOINT_CELLS:
            arities[np.argmax(arities)] -= 1
        mixed = rng.dirichlet(np.ones(np.prod(arities))).reshape(arities)
        mixed[rng.random(mixed.shape) < 0.3] = 0.0
        for kind, table in (("binary", binary), ("mixed", mixed / mixed.sum())):
            yield discrete_line(f"discrete {kind} {table.shape}", discrete.DiscreteJoint(table))


def discrete_line(name: str, joint) -> str:
    line = (f"{name} ci {discrete.discrete_ci_synergy(joint)!r} "
            f"wms {discrete.discrete_wms_synergy(joint)!r} "
            f"tc {discrete.total_correlation(joint)!r} "
            f"mi {discrete.mutual_information(joint, range(joint.m))!r} mi_single")
    for j in range(joint.m):
        line += f" {discrete.mutual_information(joint, [j])!r}"
    if joint.m <= TEXT_LATENTS:
        text = joint.to_text()
        again = discrete.DiscreteJoint.from_text(text)
        line += f" text {sha(text.encode())} round_trip {sha(again.probs.tobytes())}"
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--word-epochs", type=int, default=40)
    parser.add_argument("--digit-epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args()
    out_dir = args.out_dir.resolve()
    epochs = {"words": args.word_epochs, "synthetic_digits": args.digit_epochs}
    for line in synergy_digest(out_dir, args.seed):
        print(line, flush=True)
    run(["dataset-build", "--out-dir", out_dir / "data", "--glyphs", "builtin"])
    for path in sorted((out_dir / "data").iterdir()):
        print(f"dataset {path.name} {sha(path.read_bytes())}", flush=True)
    print(f"eval digits {digits_sha(EVAL_IMAGES, EVAL_IMAGE_SEED)}", flush=True)
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
