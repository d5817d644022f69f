"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The two experiment criteria (6 and 7) train several models and
take a few minutes on one core.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from minsyn.checkpoint import load_checkpoint, restore_model
from minsyn.cli import main as minsyn_cli
from minsyn.config import parse_config
from minsyn.decoder import BinaryStats, binary_decoder_params
from minsyn.discrete import (DiscreteJoint, discrete_ci_synergy,
                             discrete_wms_synergy, mutual_information,
                             total_correlation)
from minsyn.gaussian import (GaussianSystem, feasible_sigma12_range,
                             gaussian_ci_posterior, gk_minimizing_covariance,
                             gk_synergy)
from minsyn.idx import parse_idx, write_idx
from minsyn.metrics import acc_score
from minsyn.nn import (DECODER_KINDS, MINSYN_KINDS, Regularizer, build_autoencoder,
                       forward, gradients, sigmoid)
from minsyn.nn import loss as loss_fn
from minsyn.noise import apply_noise

from _oracles import (affine_readout, bayes_posterior_binary, ci_posterior_numeric,
                      finite_difference_gradients, grid_min_explained_variance,
                      pinned_readout_loss)

LN2 = np.log(2.0)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({title}): {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_gaussian_example(tmp_path):
    t0 = time.time()
    problems = []
    iv = feasible_sigma12_range(0.5, 0.75)
    if abs(iv.lo - (-0.19782)) > 1e-4 or abs(iv.hi - 0.94782) > 1e-4:
        problems.append(f"interval [{iv.lo:.5f}, {iv.hi:.5f}]")
    if gk_synergy(GaussianSystem.pair(0.5, 0.75, 2 / 3)) > 1e-9:
        problems.append("union gap not zero at 2/3")
    # frozen by hand linear algebra: rho^T Sigma^{-1} rho = 0.8875/0.99,
    # so the gap is 0.5*ln(0.4375/(1 - 0.8875/0.99)) = 0.720582
    gk = gk_synergy(GaussianSystem.pair(0.5, 0.75, -0.10))
    if abs(gk - 0.720582) > 1e-4:
        problems.append(f"gk at -0.10 = {gk:.6f}")
    out = tmp_path / "curve"
    assert minsyn_cli(["synergy-curve", "--rho1", "0.5", "--rho2", "0.75",
                       "--steps", "101", "--out-dir", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (out / "synergy_curve.csv").read_text().splitlines()[1:]])
    if not np.isfinite(rows).all():
        problems.append("non-finite curve values")
    if (rows[:, 3] < 0).any() or (rows[:, 4] < 0).any():
        problems.append("negative synergy on the open range")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    report(1, "Gaussian example reproduction", not problems,
           "; ".join(problems) or f"gk(-0.10)={gk:.6f}, {elapsed:.2f}s")


def test_criterion_2_sdp_optimum_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_gap, worst_syn = 0.0, 0.0
    for trial in range(100):
        m = 2 if trial % 2 == 0 else 3
        rho = rng.uniform(-0.95, 0.95, size=m)
        grid_min = grid_min_explained_variance(rho)
        worst_gap = max(worst_gap, abs(grid_min - np.max(rho ** 2)))
        syn = gk_synergy(gk_minimizing_covariance(rho))
        worst_syn = max(worst_syn, syn)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-3 and worst_syn <= 1e-9 and elapsed < 30.0
    report(2, "SDP optimum oracle", ok,
           f"worst grid gap {worst_gap:.2e}, worst residual synergy "
           f"{worst_syn:.2e}, {elapsed:.1f}s")


def test_criterion_3_xor_canon():
    xor = DiscreteJoint.xor()
    ci = discrete_ci_synergy(xor)
    wms = discrete_wms_synergy(xor)
    tc = total_correlation(xor)
    singles = [mutual_information(xor, [j]) for j in (0, 1)]
    ok = (abs(ci - LN2) <= 1e-12 and abs(wms - LN2) <= 1e-12
          and abs(tc) <= 1e-12 and all(s == 0.0 for s in singles))
    report(3, "XOR canon", ok,
           f"ci={ci:.15f}, wms={wms:.15f}, tc={tc:.1e}, singles={singles}")


def test_criterion_4_decoder_bayes_equivalence():
    rng = np.random.default_rng(4)
    worst_binary = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 7))
        px1 = rng.uniform(0.05, 0.95)
        q1 = rng.uniform(0.05, 0.95, size=m)
        q0 = rng.uniform(0.05, 0.95, size=m)
        stats = BinaryStats(x_mean=np.array([px1]),
                            z_mean=px1 * q1 + (1 - px1) * q0,
                            xz_mean=(px1 * q1)[None, :])
        params = binary_decoder_params(stats)
        for bits in range(2 ** m):
            z = np.array([(bits >> j) & 1 for j in range(m)], dtype=float)
            ours = sigmoid(affine_readout(params, z[None, :]))[0, 0]
            ref = bayes_posterior_binary(px1, q1, q0, z.astype(int))
            worst_binary = max(worst_binary, abs(ours - ref))
    worst_gauss = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 5))
        rho = rng.uniform(-0.9, 0.9, size=m)
        post = gaussian_ci_posterior(rho)
        for _ in range(3):
            z = rng.normal(size=m)
            mean, var = ci_posterior_numeric(rho, z)
            worst_gauss = max(worst_gauss, abs(float(post.weights @ z) - mean),
                              abs(post.variance - var))
    ok = worst_binary <= 1e-9 and worst_gauss <= 1e-5
    report(4, "decoder-Bayes equivalence", ok,
           f"binary max err {worst_binary:.2e}, gaussian max err {worst_gauss:.2e}")


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(5)
    regularizers = (Regularizer(),
                    Regularizer(kind="dropout", p=0.0),
                    Regularizer(kind="input_gaussian_noise", sigma=0.0),
                    Regularizer(kind="latent_gaussian_noise", sigma=0.0),
                    Regularizer(kind="dropout", p=0.35),
                    Regularizer(kind="input_gaussian_noise", sigma=0.3),
                    Regularizer(kind="latent_gaussian_noise", sigma=0.3))
    worst = 0.0
    for trial in range(20):
        decoder_kind = DECODER_KINDS[trial % len(DECODER_KINDS)]
        reg = regularizers[trial % len(regularizers)]
        n_in = int(rng.integers(3, 7))
        hidden = int(rng.integers(2, 6))
        spec = [(hidden, "softplus"), (int(rng.integers(2, 5)), "sigmoid")]
        model = build_autoencoder(n_in, spec, decoder_kind, seed=trial)
        x = rng.random((5, n_in))
        _, grads, stats = gradients(model, x, rng=np.random.default_rng(trial),
                                    regularizer=reg)
        readout = stats.readout if decoder_kind in MINSYN_KINDS else None

        def loss_of_params():
            return pinned_readout_loss(model, x, np.random.default_rng(trial), reg,
                                       readout)

        fd = finite_difference_gradients(loss_of_params, model.parameters())
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(ref), np.abs(g)), 1e-6)
            worst = max(worst, float(np.max(np.abs(ref - g) / denom)))
    report(5, "gradient suite", worst <= 1e-4, f"worst relative error {worst:.2e}")


def _train_from_config(name, word_dir, tmp_path):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc["dataset"]["dir"] = str(word_dir)
    doc["output_dir"] = str(tmp_path / name)
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(doc))
    assert minsyn_cli(["train", "--config", str(cfg_path)]) == 0
    return doc["output_dir"]


@pytest.mark.slow
def test_criterion_6_words_experiment(word_data_dir, tmp_path):
    t0 = time.time()
    methods = ["words_minsyn_binary", "words_minsyn_gaussian", "words_pca",
               "words_autoencoder", "words_denoising"]
    run_dirs = [_train_from_config(m, word_data_dir, tmp_path) for m in methods]
    out = tmp_path / "report"
    assert minsyn_cli(["report", *run_dirs, "--out-dir", str(out),
                       "--loss", "mse"]) == 0
    rows = {}
    for line in (out / "report.csv").read_text().splitlines()[1:]:
        name, tr, te, acc = line.split(",")
        rows[name] = (float(tr), float(te), float(acc))
    binary = rows["words_minsyn_binary"]
    plain = rows["words_autoencoder"]
    # The paper's claim: synergy-minimizing readouts disentangle the characters
    # where methods relying on statistical independence do not.  The two MinSyn
    # readouts are not ranked against each other: report scores sigmoid-output
    # decoders on logit-space weights and linear ones on pixel-space weights,
    # and acc is not invariant to rescaling a pixel.
    minsyn = ("words_minsyn_binary", "words_minsyn_gaussian")
    baselines = ("words_pca", "words_autoencoder", "words_denoising")
    closest = min(baselines, key=lambda b: rows[b][2])
    margins = {m: rows[closest][2] - rows[m][2] for m in minsyn}
    below_baselines = all(d > 0 for d in margins.values())
    lower_test = binary[1] < plain[1]
    acc_gap = binary[2] <= 0.8 * plain[2]
    elapsed = time.time() - t0
    table = ", ".join(f"{k.removeprefix('words_')}: acc={v[2]:.3f} test={v[1]:.1f}"
                      for k, v in sorted(rows.items()))
    closest_pairs = ", ".join(
        f"{m.removeprefix('words_')} vs {closest.removeprefix('words_')} margin={d:+.3f}"
        for m, d in margins.items())
    ok = below_baselines and lower_test and acc_gap and elapsed < 600
    report(6, "words experiment orderings", ok,
           f"minsyn-acc-below-baselines={below_baselines} ({closest_pairs}), "
           f"test-loss-beats-ae={lower_test}, "
           f"acc<=0.8*ae={acc_gap}, {elapsed:.0f}s [{table}]")


@pytest.mark.slow
def test_criterion_7_robustness_ordering(tmp_path):
    t0 = time.time()
    models = {}
    for name in ("digits_minsyn_binary", "digits_autoencoder"):
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        doc["output_dir"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        assert minsyn_cli(["train", "--config", str(cfg_path)]) == 0
        ckpt = load_checkpoint(Path(doc["output_dir"]) / "checkpoint.msck")
        models[name] = restore_model(ckpt)
        dataset = parse_config(ckpt.config).dataset
    from minsyn.words import synthetic_digits
    test_imgs, _ = synthetic_digits(dataset["test"], seed=dataset["seed"] + 1)

    def bce_under(model, kind):
        corrupted = apply_noise(test_imgs, kind, seed=5)
        _, xbar = forward(model, corrupted, mode="eval")
        return loss_fn(test_imgs, xbar, "bce")

    lines = []
    occlusions_ok = True
    for kind in ("bottom_half", "right_half", "erase_chunk"):
        a = bce_under(models["digits_minsyn_binary"], kind)
        b = bce_under(models["digits_autoencoder"], kind)
        occlusions_ok &= a < b
        lines.append(f"{kind}: minsyn={a:.1f} ae={b:.1f}")
    clean_minsyn = bce_under(models["digits_minsyn_binary"], "none")
    clean_ae = bce_under(models["digits_autoencoder"], "none")
    capacity_ok = clean_ae <= clean_minsyn
    lines.append(f"none: minsyn={clean_minsyn:.1f} ae={clean_ae:.1f}")
    elapsed = time.time() - t0
    report(7, "robustness ordering", occlusions_ok and capacity_ok,
           f"{'; '.join(lines)} ({elapsed:.0f}s)")


def test_criterion_8_format_round_trips(word_data_dir, tmp_path):
    rng = np.random.default_rng(8)
    idx_ok = True
    for _ in range(100):
        dims = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 4))))
        from minsyn.idx import IdxTensor
        t = IdxTensor(dims=dims, data=rng.integers(0, 256, int(np.prod(dims))) / 255.0)
        back = parse_idx(write_idx(t))
        idx_ok &= back.dims == t.dims and np.array_equal(back.data, t.data)

    # checkpoint byte identity through a real training run
    run_dir = _train_from_config("words_pca", word_data_dir, tmp_path)
    ckpt_path = Path(run_dir) / "checkpoint.msck"
    blob = ckpt_path.read_bytes()
    ckpt = load_checkpoint(ckpt_path)
    from minsyn.checkpoint import dump_checkpoint
    ckpt_ok = dump_checkpoint(ckpt.config, ckpt.arrays, ckpt.meta) == blob

    build_dir = tmp_path / "rebuild"
    assert minsyn_cli(["dataset-build", "--out-dir", str(build_dir),
                       "--glyphs", "builtin"]) == 0
    build_ok = all(
        (build_dir / f).read_bytes() == (word_data_dir / f).read_bytes()
        for f in ("train_images.idx", "train_labels.idx", "test_images.idx",
                  "test_labels.idx", "manifest.json"))
    ok = idx_ok and ckpt_ok and build_ok
    report(8, "format round-trips", ok,
           f"idx={idx_ok}, checkpoint={ckpt_ok}, dataset-rebuild={build_ok}")


def test_criterion_9_metric_properties():
    layout = np.repeat(np.arange(3), 5)
    w_block = np.zeros((15, 3))
    for j in range(3):
        w_block[5 * j:5 * (j + 1), j] = 1.0 + j
    block_zero = acc_score(w_block, layout, 3) == 0.0
    uniform = abs(acc_score(np.ones((15, 4)), layout, 3) - np.log(3)) <= 1e-12
    rng = np.random.default_rng(9)
    w = rng.normal(size=(15, 4))
    scales = rng.uniform(0.1, 10, size=4)
    invariant = abs(acc_score(w * scales, layout, 3)
                    - acc_score(w, layout, 3)) <= 1e-12
    ok = block_zero and uniform and invariant
    report(9, "metric properties", ok,
           f"block-zero={block_zero}, uniform-ln3={uniform}, scale-invariant={invariant}")
