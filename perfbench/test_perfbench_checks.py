"""Each benchmark check passes on real program output and fails once that
output is perturbed.

    python3 -m pytest perfbench/test_perfbench_checks.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_checks as chk  # noqa: E402
from minsyn import cli, discrete  # noqa: E402
from minsyn.idx import images_tensor, write_idx_file  # noqa: E402
from minsyn.noise import NOISE_KINDS, apply_noise  # noqa: E402
from minsyn.words import synthetic_digits  # noqa: E402

CONFIGS = HERE.parent / "configs"


def _config(tmp, name, epochs, **dataset):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    if "training" in doc:
        doc["training"]["epochs"] = epochs
    doc["dataset"].update(dataset)
    doc["output_dir"] = str(tmp / "runs" / name)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def words_runs(tmp_path_factory):
    """Two minsyn models, an autoencoder and PCA on the word benchmark, and
    their report."""
    tmp = tmp_path_factory.mktemp("words")
    _run("dataset-build", "--out-dir", tmp / "data", "--glyphs", "builtin")
    names = ("words_minsyn_binary", "words_minsyn_gaussian", "words_autoencoder", "words_pca")
    for name in names:
        _run("train", "--config", _config(tmp, name, 3, dir=str(tmp / "data")))
    _run("report", *(tmp / "runs" / n for n in names), "--out-dir", tmp / "report")
    train = chk.read_idx(tmp / "data" / "train_images.idx")
    test = chk.read_idx(tmp / "data" / "test_images.idx")
    rows = {r["method"]: r for r in chk.read_csv((tmp / "report" / "report.csv").read_text())}
    return tmp, train.reshape(len(train), -1), test.reshape(len(test), -1), rows


def _ckpt(tmp, name):
    header, arrays = chk.read_msck(tmp / "runs" / name / "checkpoint.msck")
    return header, {k: v.copy() for k, v in arrays.items()}


def _program_readout(tmp, name):
    from minsyn.checkpoint import load_checkpoint, restore_model
    model = restore_model(load_checkpoint(tmp / "runs" / name / "checkpoint.msck"))
    return model.decoder_weight_matrix(), model.decoder_params_from_average().bias


@pytest.mark.parametrize("name", ["words_minsyn_binary", "words_minsyn_gaussian"])
def test_decoder_readout_fails_on_a_nudged_moment(words_runs, name):
    tmp = words_runs[0]
    header, arrays = _ckpt(tmp, name)
    weights, bias = _program_readout(tmp, name)
    chk.check_decoder_readout(header, arrays, weights, bias)
    arrays["ma.xz_mean"][100, 3] += 1e-3
    with pytest.raises(chk.CheckFailed):
        chk.check_decoder_readout(header, arrays, weights, bias)


def test_binary_readout_uses_the_marginal_fallback():
    x_mean = np.array([0.5, 0.0, 1.0])
    z_mean = np.array([0.3, 0.6])
    xz = np.array([[0.2, 0.4], [0.0, 0.0], [0.3, 0.6]])
    w, _ = chk.binary_readout(x_mean, z_mean, xz)
    assert np.all(w[1:] == 0.0) and np.all(w[0] != 0.0)


@pytest.mark.parametrize("name", ["words_minsyn_binary", "words_minsyn_gaussian",
                                  "words_autoencoder", "words_pca"])
@pytest.mark.parametrize("cell", ["train_loss", "test_loss", "acc"])
def test_report_row_fails_on_an_altered_cell(words_runs, name, cell):
    tmp, train, test, rows = words_runs
    header, arrays = _ckpt(tmp, name)
    if name == "words_pca":
        weights = arrays["pca.components"].T
    else:
        weights = chk.readout_from_checkpoint(header, arrays)[0]
    mine = (chk.mse(train, chk.reconstruct(header, arrays, train)),
            chk.mse(test, chk.reconstruct(header, arrays, test)),
            chk.concentration_entropy(weights, chk.word_slots(train.shape[1])))
    chk.check_report_row(rows[name], *mine)
    altered = dict(rows[name], **{cell: f"{float(rows[name][cell]) * 1.001:.6g}"})
    with pytest.raises(chk.CheckFailed):
        chk.check_report_row(altered, *mine)


def test_pca_subspace_and_acc_ordering(words_runs):
    tmp, train, _, rows = words_runs
    _, arrays = _ckpt(tmp, "words_pca")
    reference, _ = chk.pca_reference(train, 9)
    rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((9, 9)))[0]
    chk.check_same_subspace(rotation @ arrays["pca.components"], reference)
    other = arrays["pca.components"].copy()
    other[0] = chk.pca_reference(train, 12)[0][11]
    with pytest.raises(chk.CheckFailed):
        chk.check_same_subspace(other, reference)
    pca_acc = chk.concentration_entropy(reference.T, chk.word_slots(train.shape[1]))
    chk.check_acc_below("pca - 0.1", pca_acc - 0.1, pca_acc)
    with pytest.raises(chk.CheckFailed):
        chk.check_acc_below("pca", pca_acc, pca_acc)


def test_history_checks(words_runs):
    _, arrays = _ckpt(words_runs[0], "words_autoencoder")
    history = arrays["history"]
    chk.check_history(history, history.copy())
    for bad, ref in ((np.append(history, np.nan), None), (history[::-1], None),
                     (history, history + 1e-12)):
        with pytest.raises(chk.CheckFailed):
            chk.check_history(bad, ref)


@pytest.fixture(scope="module")
def digits_eval(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digits")
    images, _ = synthetic_digits(60, seed=3)
    write_idx_file(tmp / "eval.idx", images_tensor(images))
    cfg = _config(tmp, "digits_minsyn_binary", 2, train=200, test=20)
    _run("train", "--config", cfg)
    _run("eval", "--checkpoint", tmp / "runs" / "digits_minsyn_binary" / "checkpoint.msck",
         "--images", tmp / "eval.idx", "--seed", 7, "--out", tmp / "eval.csv")
    return tmp, chk.read_idx(tmp / "eval.idx").reshape(60, -1)


def test_eval_rows_fail_on_a_wrong_row(digits_eval):
    tmp, clean = digits_eval
    header, arrays = _ckpt(tmp, "digits_minsyn_binary")
    expected = {k: chk.bce(clean, chk.reconstruct(header, arrays, apply_noise(clean, k, seed=7)))
                for k in NOISE_KINDS}
    text = (tmp / "eval.csv").read_text()
    chk.check_eval_rows(text, expected)
    lines = text.splitlines()
    kind, value = lines[3].split(",")
    wrong = lines[:3] + [f"{kind},{float(value) * 1.001:.6g}"] + lines[4:]
    with pytest.raises(chk.CheckFailed):
        chk.check_eval_rows("\n".join(wrong) + "\n", expected)
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    with pytest.raises(chk.CheckFailed):
        chk.check_eval_rows("\n".join(swapped) + "\n", expected)


def test_eval_uses_the_bce_clamp():
    x = np.array([[1.0, 0.0]])
    assert chk.bce(x, np.array([[0.0, 1.0]])) == pytest.approx(-2 * np.log(1e-7))


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_masks_fail_when_tampered(digits_eval, kind):
    _, clean = digits_eval
    corrupted = apply_noise(clean, kind, seed=7)
    chk.check_noise_mask(kind, clean, corrupted)
    tampered = corrupted.copy()
    tampered.reshape(len(clean), 28, 28)[:, 20, 21] = 0.25
    with pytest.raises(chk.CheckFailed):
        chk.check_noise_mask(kind, clean, tampered)


def test_curve_checks(tmp_path):
    for units in ("nats", "bits"):
        _run("synergy-curve", "--rho1", 0.5, "--rho2", 0.75, "--steps", 31, "--units", units,
             "--out-dir", tmp_path / units)
    nats = (tmp_path / "nats" / "synergy_curve.csv").read_text()
    bits = (tmp_path / "bits" / "synergy_curve.csv").read_text()
    chk.check_curve(nats, bits, 0.5, 0.75)
    lines = bits.splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) * 1.0001)
    with pytest.raises(chk.CheckFailed):
        chk.check_curve(nats, "\n".join(lines[:5] + [",".join(cells)] + lines[6:]), 0.5, 0.75)
    rows = chk.read_csv(nats)
    at = min(range(len(rows)), key=lambda i: abs(float(rows[i]["sigma12"]) - 0.5 / 0.75))
    n_lines = nats.splitlines()
    cells = n_lines[at + 1].split(",")
    cells[3] = "0.001"
    b_lines = bits.splitlines()
    b_cells = b_lines[at + 1].split(",")
    b_cells[3] = repr(float(0.001 / np.log(2.0)))
    with pytest.raises(chk.CheckFailed):
        chk.check_curve("\n".join(n_lines[:at + 1] + [",".join(cells)] + n_lines[at + 2:]),
                        "\n".join(b_lines[:at + 1] + [",".join(b_cells)] + b_lines[at + 2:]),
                        0.5, 0.75)


def test_gaussian_mi_check():
    from minsyn import GaussianSystem, gaussian_mutual_information
    s = GaussianSystem.pair(0.5, 0.75, -0.1)
    mi = gaussian_mutual_information(s)
    chk.check_gaussian_mi(s.sigma_z, s.rho, mi)
    with pytest.raises(chk.CheckFailed):
        chk.check_gaussian_mi(s.sigma_z, s.rho, mi * (1 + 1e-6))


def test_discrete_checks_fail_on_a_changed_probability():
    p = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
    joint = discrete.DiscreteJoint(p)
    mi = discrete.mutual_information(joint, range(joint.m))
    chk.check_discrete_mi(p, mi)
    changed = p.copy()
    changed[0, 1, 1, 0] += 0.01
    changed /= changed.sum()
    with pytest.raises(chk.CheckFailed):
        chk.check_discrete_mi(changed, mi)
    reparsed = discrete.DiscreteJoint.from_text(joint.to_text()).probs
    chk.check_equal_tables("round trip", reparsed, p)
    with pytest.raises(chk.CheckFailed):
        chk.check_equal_tables("round trip", reparsed, changed)


def test_at_most():
    chk.check_at_most("x", 1e-10, 1e-9)
    with pytest.raises(chk.CheckFailed):
        chk.check_at_most("x", 2e-9, 1e-9)


def test_tracer_spans_reach_the_names_callers_use():
    import bench_trace
    from minsyn import nn
    from minsyn.words import synthetic_digits as digits
    original = nn.binary_decoder_params
    tracer = bench_trace.Tracer()
    tracer.install(bench_trace.targets())
    try:
        tracer.round = 1
        config = nn.TrainConfig(epochs=1, batch_size=10, seed=0, lr=1e-3,
                                decoder_kind="minsyn_binary", encoder_spec=((8, "sigmoid"),))
        nn.train_autoencoder(config, digits(30, seed=1)[0])
    finally:
        tracer.uninstall()
    assert nn.binary_decoder_params is original
    names = [s[bench_trace.NAME] for s in tracer.spans]
    assert names.count("nn.gradients") == 3 and names.count("decoder.params") == 6
    values = bench_trace.layer_metrics(tracer.spans, [1], [1.0])
    assert values["nn.steps"] == 3 and values["decoder.params_calls_per_step"] == 2
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(values) == sorted(m["name"] for m in listed)
