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

from minsyn.metrics import reconstruction_loss
from minsyn.nn import TrainConfig, train_autoencoder
from minsyn.noise import NOISE_KINDS, apply_noise
from minsyn.words import synthetic_digits

# mirrors configs/digits_*.json
TRAIN, TEST, EPOCHS = 1000, 300, 600
LAYERS = ((128, "sigmoid"), (128, "sigmoid"), (128, "sigmoid"))
LR = {"minsyn_binary": 0.003, "learned_sigmoid": 0.001}


def train(decoder_kind, data):
    cfg = TrainConfig(epochs=EPOCHS, batch_size=100, seed=0, lr=LR[decoder_kind],
                      decoder_kind=decoder_kind, encoder_spec=LAYERS)
    model, history = train_autoencoder(cfg, data)
    print(f"  {decoder_kind}: cross entropy {history[0]:.1f} -> {history[-1]:.1f}")
    return model


def main():
    train_imgs, _ = synthetic_digits(TRAIN, seed=10)
    test_imgs, _ = synthetic_digits(TEST, seed=11)
    print(f"training on {TRAIN} clean digits, {EPOCHS} epochs each:")
    minsyn = train("minsyn_binary", train_imgs)
    plain = train("learned_sigmoid", train_imgs)

    print(f"\n{'corruption':<14} {'fixed-decoder':>14} {'standard AE':>12}")
    for kind in NOISE_KINDS:
        corrupted = apply_noise(test_imgs, kind, seed=5)
        row = []
        for model in (minsyn, plain):
            row.append(reconstruction_loss(model, corrupted, "bce", target=test_imgs))
        marker = "  <-- fixed decoder wins" if row[0] < row[1] and kind != "none" else ""
        print(f"{kind:<14} {row[0]:>14.1f} {row[1]:>12.1f}{marker}")
    print("\n(loss: cross entropy between the clean test digits and the "
          "reconstruction of their corrupted versions)")


if __name__ == "__main__":
    main()
