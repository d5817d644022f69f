#!/usr/bin/env python3
"""Do learned factors align with character positions in word images?

Builds the bundled three-letter word benchmark, trains the fixed-decoder
autoencoders and the learned baselines with the reference configs, then
prints the method table: squared-error on the seen words (train), on the
unseen letter combinations (test), and the character-concentration score
(0 = every factor commits to one character slot, ln 3 = maximal smearing).

Runs the same flow as `minsyn train` + `minsyn report`, in process.
Takes a few minutes; artifacts land under runs/words/.

Run:  python3 demos/words_disentangling.py
"""

import json
from pathlib import Path

from minsyn.cli import main as minsyn_cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
METHODS = ["words_minsyn_binary", "words_minsyn_gaussian", "words_autoencoder",
           "words_denoising", "words_pca"]


def main():
    data_dir = Path("runs/words/data")
    if not (data_dir / "manifest.json").exists():
        assert minsyn_cli(["dataset-build", "--out-dir", str(data_dir),
                           "--glyphs", "builtin"]) == 0
    manifest = json.loads((data_dir / "manifest.json").read_text())
    print(f"benchmark: {manifest['counts']['train']} seen words, "
          f"{manifest['counts']['test']} unseen combinations\n")

    run_dirs = []
    for method in METHODS:
        cfg_path = CONFIG_DIR / f"{method}.json"
        print(f"training {method} ...", flush=True)
        assert minsyn_cli(["train", "--config", str(cfg_path)]) == 0
        run_dirs.append(json.loads(cfg_path.read_text())["output_dir"])

    print("\nmethod table (squared error; concentration in nats, lower = "
          "more disentangled):")
    minsyn_cli(["report", *run_dirs, "--out-dir", "runs/words/report",
                "--loss", "mse"])


if __name__ == "__main__":
    main()
