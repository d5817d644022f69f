#!/usr/bin/env python3
"""Which autoencoder survives corrupted inputs it never saw in training?

Trains a fixed-decoder (statistics-driven) autoencoder and a standard one
on clean synthetic digit images, then scores reconstructions of corrupted
test digits against the clean originals: occluded halves, erased 4x4
chunks, gray stripes.  The fixed decoder only ever consumes pairwise
statistics, which acts as a strong regularizer under occlusion, at a small
cost on clean data.

Uses the built-in translated digit glyphs so no dataset download is
needed; point the same flow at real handwritten-digit IDX files via
`minsyn eval --images ...` to reproduce at full scale.

Run:  python3 demos/digits_noise_robustness.py   (a few minutes)
"""

from pathlib import Path

from minsyn.config import load_config
from minsyn.metrics import noise_losses
from minsyn.nn import train_autoencoder
from minsyn.noise import NOISE_KINDS
from minsyn.words import synthetic_digits

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def train(cfg, data):
    model, history = train_autoencoder(cfg.train, data)
    print(f"  {cfg.train.decoder_kind}: cross entropy {history[0]:.1f} -> {history[-1]:.1f}")
    return model


def main():
    cfgs = [load_config(CONFIG_DIR / f"{name}.json")
            for name in ("digits_minsyn_binary", "digits_autoencoder")]
    ds = cfgs[0].dataset
    train_imgs, _ = synthetic_digits(ds["train"], seed=ds["seed"])
    test_imgs, _ = synthetic_digits(ds["test"], seed=ds["seed"] + 1)
    print(f"training on {ds['train']} clean digits, "
          f"{cfgs[0].train.epochs} epochs each:")
    minsyn, plain = [train(cfg, train_imgs) for cfg in cfgs]

    print(f"\n{'corruption':<14} {'fixed-decoder':>14} {'standard AE':>12}")
    columns = [noise_losses(model, test_imgs, NOISE_KINDS, "bce", seed=5)
               for model in (minsyn, plain)]
    for kind, *row in zip(NOISE_KINDS, *columns):
        marker = "  <-- fixed decoder wins" if row[0] < row[1] and kind != "none" else ""
        print(f"{kind:<14} {row[0]:>14.1f} {row[1]:>12.1f}{marker}")
    print("\n(loss: cross entropy between the clean test digits and the "
          "reconstruction of their corrupted versions)")


if __name__ == "__main__":
    main()
