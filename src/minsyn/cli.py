"""Command-line entry point: dataset building, training, evaluation, synergy
curves and method reports.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import gaussian
from .checkpoint import load_checkpoint, model_arrays, restore_model, save_checkpoint
from .config import (ConfigError, ExperimentConfig, load_config, parse_config,
                     resolve_data_path)
from .idx import IdxParseError, images_tensor, labels_tensor, read_idx_file, write_idx_file
from .metrics import acc_score, build_report, reconstruction_loss, reconstruction_losses
from .nn import PcaModel, TrainingDivergedError, pca_fit, train_autoencoder
from .noise import NOISE_KINDS, apply_noise
from .svg import line_plot_svg
from .words import (WordDataset, build_word_dataset, builtin_glyphs,
                    bundled_letter_grid, bundled_word_list, char_layout,
                    load_handwritten_glyphs, synthetic_digits)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.msck"


class DataError(RuntimeError):
    pass


class UsageError(RuntimeError):
    pass


# ---------------------------------------------------------------- datasets

def write_word_dataset(out_dir: Path, ds: WordDataset, glyph_source: str,
                       glyph_indices, word_list_origin: str) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_idx_file(out_dir / "train_images.idx", images_tensor(ds.train_images))
    write_idx_file(out_dir / "train_labels.idx",
                   labels_tensor(np.arange(len(ds.train_words))))
    write_idx_file(out_dir / "test_images.idx", images_tensor(ds.test_images))
    write_idx_file(out_dir / "test_labels.idx",
                   labels_tensor(np.arange(len(ds.test_words))))
    manifest = {
        "kind": "words",
        "glyph_side": 28,
        "word_len": len(ds.letters_by_position),
        "letters_by_position": [list(g) for g in ds.letters_by_position],
        "train_words": list(ds.train_words),
        "test_words": list(ds.test_words),
        "counts": {"train": len(ds.train_words), "test": len(ds.test_words)},
        "glyph_source": glyph_source,
        "glyph_indices": glyph_indices,
        "word_list": word_list_origin,
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def load_word_dataset(directory) -> tuple:
    """Read a built word dataset; returns (WordDataset, manifest dict)."""
    d = Path(directory)
    manifest_path = d / MANIFEST_NAME
    if not manifest_path.exists():
        raise DataError(f"no {MANIFEST_NAME} under {d}")
    manifest = json.loads(manifest_path.read_text())
    train = read_idx_file(d / "train_images.idx").reshaped()
    test = read_idx_file(d / "test_images.idx").reshaped()
    grids = tuple(tuple(g) for g in manifest["letters_by_position"])
    ds = WordDataset(
        train_images=train.reshape(train.shape[0], -1),
        test_images=test.reshape(test.shape[0], -1),
        train_words=tuple(manifest["train_words"]),
        test_words=tuple(manifest["test_words"]),
        letters_by_position=grids,
        char_layout=char_layout(word_len=manifest["word_len"],
                                side=manifest["glyph_side"]),
    )
    return ds, manifest


def load_experiment_data(cfg: ExperimentConfig) -> tuple:
    """(train, test, manifest_or_None) image matrices for a config."""
    ds = cfg.dataset
    if ds["kind"] == "words":
        words, manifest = load_word_dataset(resolve_data_path(ds["dir"]))
        return words.train_images, words.test_images, manifest
    if ds["kind"] == "synthetic_digits":
        train, _ = synthetic_digits(ds["train"], seed=ds["seed"])
        test, _ = synthetic_digits(ds["test"], seed=ds["seed"] + 1)
        return train, test, None
    train = read_idx_file(resolve_data_path(ds["train_images"])).reshaped()
    train = train.reshape(train.shape[0], -1)
    test = None
    if "test_images" in ds:
        test = read_idx_file(resolve_data_path(ds["test_images"])).reshaped()
        test = test.reshape(test.shape[0], -1)
    return train, test, None


# ---------------------------------------------------------------- commands

def cmd_dataset_build(args) -> int:
    grid = bundled_letter_grid()
    if args.word_list:
        word_list_path = Path(args.word_list)
        if not word_list_path.exists():
            raise DataError(f"word list not found: {word_list_path}")
        word_list = [w.strip().lower() for w in word_list_path.read_text().splitlines()
                     if w.strip()]
        origin = str(word_list_path)
    else:
        word_list = bundled_word_list()
        origin = "bundled"

    letters = sorted({ch for g in grid for ch in g})
    glyph_indices = None
    if args.glyphs == "emnist":
        if not args.emnist_dir:
            raise UsageError("--glyphs emnist requires --emnist-dir")
        emnist_dir = Path(args.emnist_dir)
        if not emnist_dir.is_dir():
            raise UsageError(f"EMNIST directory not found: {emnist_dir}")
        glyphs, glyph_indices = load_handwritten_glyphs(emnist_dir, letters)
    else:
        glyphs = builtin_glyphs(letters)

    ds = build_word_dataset(glyphs, word_list, grid)
    manifest = write_word_dataset(Path(args.out_dir), ds, args.glyphs,
                                  glyph_indices, origin)
    print(f"wrote word dataset to {args.out_dir}: "
          f"{manifest['counts']['train']} train + {manifest['counts']['test']} test "
          f"= {manifest['counts']['train'] + manifest['counts']['test']} words")
    return EXIT_OK


def _history_csv(history) -> str:
    lines = ["epoch,loss"]
    for i, v in enumerate(history):
        lines.append(f"{i},{v!r}")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train, _, _ = load_experiment_data(cfg)
    if cfg.is_pca:
        components, mean = pca_fit(train, cfg.latents)
        model = PcaModel(components=components, mean=mean)
        history = []
    else:
        model, history = train_autoencoder(cfg.train_config(), train)
    out_dir = cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays, meta = model_arrays(model, history)
    save_checkpoint(out_dir / CHECKPOINT_NAME, cfg.raw, arrays, meta)
    (out_dir / "history.csv").write_text(_history_csv(history))
    final = f", final loss {history[-1]:.6g}" if history else ""
    print(f"trained {cfg.name}: {meta['final_epoch']} epochs{final}; "
          f"checkpoint at {out_dir / CHECKPOINT_NAME}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt)
    images = read_idx_file(args.images).reshaped()
    images = images.reshape(images.shape[0], -1)
    kinds = args.noise or list(NOISE_KINDS)
    rows = ["noise,loss"]
    printable = []
    for kind in kinds:
        corrupted = apply_noise(images, kind, seed=args.seed)
        value = reconstruction_loss(model, corrupted, args.loss, target=images)
        rows.append(f"{kind},{value:.6g}")
        printable.append(f"  {kind:<12} {value:.6g}")
    csv = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(csv)
    print(f"eval of {args.checkpoint} on {args.images} ({args.loss}):")
    print("\n".join(printable))
    return EXIT_OK


def cmd_synergy_curve(args) -> int:
    rho1, rho2, steps = args.rho1, args.rho2, args.steps
    if steps < 3:
        raise UsageError("--steps must be at least 3")
    interval = gaussian.feasible_sigma12_range(rho1, rho2)
    lo, hi = interval.lo, interval.hi
    # Strictly interior grid; the exact union-gap zero is snapped onto the
    # nearest grid point so the curve shows it reaching zero.
    grid = lo + (hi - lo) * (np.arange(1, steps + 1) / (steps + 1))
    mags = np.abs([rho1, rho2])
    if mags.max() > 0 and mags[0] != mags[1]:
        k = int(np.argmax(mags))
        zero = (rho1 / rho2) if k == 1 else (rho2 / rho1)
        if lo < zero < hi:
            grid[np.argmin(np.abs(grid - zero))] = zero
    scale = 1.0 / np.log(2.0) if args.units == "bits" else 1.0
    rows = []
    for s12 in grid:
        sys_ = gaussian.GaussianSystem.pair(rho1, rho2, float(s12))
        rows.append((float(s12),
                     scale * gaussian.gaussian_mutual_information(sys_),
                     scale * gaussian.gk_union_information(sys_.rho),
                     scale * gaussian.gk_synergy(sys_),
                     scale * gaussian.gaussian_ci_synergy(sys_)))
    header = ["sigma12", "mutual_information", "union_information",
              "gk_synergy", "ci_synergy"]
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(f"{v:.12g}" for v in row))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "synergy_curve.csv").write_text("\n".join(csv_lines) + "\n")
    series = {name: [r[i + 1] for r in rows] for i, name in enumerate(header[1:])}
    svg = line_plot_svg([r[0] for r in rows], series,
                        title=f"rho1={rho1:g}, rho2={rho2:g}",
                        xlabel="sigma12", ylabel=f"information ({args.units})")
    (out_dir / "synergy_curve.svg").write_text(svg)
    gk = np.array([r[3] for r in rows])
    print(f"synergy curve over [{lo:.5f}, {hi:.5f}] written to {out_dir}; "
          f"union-gap minimum {gk.min():.3g} at sigma12={rows[int(np.argmin(gk))][0]:.5f}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    manifests = {}
    loss_kind = args.loss
    for run_dir in args.runs:
        ckpt_path = Path(run_dir) / CHECKPOINT_NAME
        if not ckpt_path.exists():
            raise DataError(f"no {CHECKPOINT_NAME} under {run_dir}")
        ckpt = load_checkpoint(ckpt_path)
        cfg = parse_config(ckpt.config)
        if cfg.dataset["kind"] != "words":
            raise DataError(
                f"{run_dir}: report needs runs on a words dataset (got "
                f"{cfg.dataset['kind']!r}; the concentration score requires slots)")
        words, manifest = load_word_dataset(resolve_data_path(cfg.dataset["dir"]))
        manifests[run_dir] = json.dumps(manifest, sort_keys=True)
        model = restore_model(ckpt)
        train_loss, test_loss = reconstruction_losses(
            model, words.train_images, words.test_images, loss_kind)
        acc = acc_score(model.decoder_weight_matrix(), words.char_layout,
                        words.num_slots)
        rows.append((cfg.name, train_loss, test_loss, acc))
    if len(set(manifests.values())) > 1:
        raise DataError("runs were built against different word datasets; "
                        "their metrics are not comparable")
    table = build_report(rows)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(table.csv)
    (out_dir / "report.txt").write_text(table.text)
    print(table.text, end="")
    return EXIT_OK


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minsyn",
        description="Synergy measures and minimally-synergistic autoencoders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset-build", help="compose the word-image dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emnist-dir", help="directory with handwritten-letter IDX files")
    p.add_argument("--glyphs", choices=("builtin", "emnist"), default=None,
                   help="glyph source (default: emnist when --emnist-dir is given)")
    p.add_argument("--word-list", help="override the bundled dictionary file")
    p.set_defaults(func=cmd_dataset_build)

    p = sub.add_parser("train", help="train one configured model")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score reconstructions of corrupted images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help="IDX image file (raw or .gz)")
    p.add_argument("--noise", action="append", choices=NOISE_KINDS,
                   help="noise kind (repeatable; default: all kinds)")
    p.add_argument("--loss", choices=("bce", "mse"), default="bce")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the CSV here as well")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synergy-curve",
                       help="information and synergy across the feasible latent correlation")
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--rho2", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synergy_curve)

    p = sub.add_parser("report", help="aggregate runs into a method table")
    p.add_argument("runs", nargs="+", help="run directories holding checkpoints")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--loss", choices=("bce", "mse"), default="mse")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "dataset-build" and args.glyphs is None:
        args.glyphs = "emnist" if args.emnist_dir else "builtin"
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergedError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, IdxParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
