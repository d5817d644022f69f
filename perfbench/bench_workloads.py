"""The four benchmark workloads.

Each workload writes its inputs once per set-up (reference configs with a
cut epoch budget and the benchmark's seed, a word dataset, a digits IDX
file, seeded synergy systems), then repeats identical rounds of program
calls.  Round 0 checks every output against `bench_checks`; later rounds
check that the program wrote byte-identical outputs, since the seed is the
same.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from pathlib import Path

import numpy as np

import bench_checks as chk
from minsyn import checkpoint, cli, config, discrete, gaussian, idx, noise, words

WORD_EPOCHS = 40
DIGIT_EPOCHS = 8
EVAL_IMAGES = 2000
CURVE_STEPS = 101


class OpFailed(RuntimeError):
    pass


class Ledger:
    """Counts operations (program calls and checks) and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, what, fn, *args, **kwargs):
        """One program operation; a raise or a non-zero exit aborts the run."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            raise OpFailed(what) from exc
        return result

    def check(self, what, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except chk.CheckFailed as exc:
            self.failed += 1
            self.failures.append(f"check {what}: {exc}")


def _seed_stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Shared plumbing: CLI calls, config copies and the round protocol."""

    name = ""
    outputs = ()  # files compared byte for byte with round 0

    def __init__(self, root: Path, seed: int, ledger: Ledger, tracer, log):
        self.root = root
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer
        self.log = log
        self.first = {}  # output file -> digest in round 0
        self.work = {}  # phase -> [seconds, items] summed over timed rounds

    # -- program calls

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(self.log):
            code = self.ledger.call(f"minsyn {argv[0]}", cli.main, argv)
        if code != 0:
            self.ledger.failed += 1
            self.ledger.failures.append(f"minsyn {' '.join(argv)} exited {code}")
            raise OpFailed(argv[0])

    def write_config(self, name: str, epochs: int | None = None) -> Path:
        """Copy a reference config with the cut epoch budget, the benchmark's
        seed and paths inside the set-up directory."""
        doc = json.loads((self.root / "configs" / f"{name}.json").read_text())
        if "training" in doc:
            doc["training"]["epochs"] = epochs
            doc["training"]["seed"] = self.seed
        if doc["dataset"]["kind"] == "words":
            doc["dataset"]["dir"] = str(self.dir / "data")
        doc["output_dir"] = str(self.dir / "runs" / name)
        path = self.dir / "configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        self.ledger.call(f"load_config {name}", config.load_config, path)
        return path

    def checkpoint_path(self, name: str) -> Path:
        return self.dir / "runs" / name / cli.CHECKPOINT_NAME

    def timed(self, phase: str, items: int, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        totals = self.work.setdefault(phase, [0.0, 0])
        totals[0] += seconds
        totals[1] += items

    # -- protocol

    def setup(self, directory: Path) -> None:
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)

    def run_round(self) -> None:
        raise NotImplementedError

    def check_outputs(self) -> None:
        raise NotImplementedError

    def check_round(self, index: int) -> None:
        if index == 0:
            self.check_outputs()
            self.first = {p: _sha(self.dir / p) for p in self.outputs}
            return
        for p in self.outputs:
            self.ledger.check(f"{p} repeats round 0", _same_digest, p,
                              self.first[p], _sha(self.dir / p))

    def results(self) -> dict:
        """Digests of the round-0 outputs, for comparing runs with one seed."""
        return {p: d[:16] for p, d in self.first.items()}


def _same_digest(path, want, got) -> None:
    if want != got:
        raise chk.CheckFailed(f"{path} differs from the round-0 output of the same seed")


# ------------------------------------------------------------ word workloads

class _Words(Workload):
    configs = ()  # (config name, epochs or None for PCA)

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        self.cli("dataset-build", "--out-dir", self.dir / "data", "--glyphs", "builtin")
        self.paths = {n: self.write_config(n, e) for n, e in self.configs}
        counts = json.loads((self.dir / "data" / cli.MANIFEST_NAME).read_text())["counts"]
        self.n_train = counts["train"]
        self.images_per_report = len(self.configs) * (counts["train"] + counts["test"])
        steps = 0
        for n, e in self.configs:
            if e:
                b = json.loads(self.paths[n].read_text())["training"]["batch_size"]
                steps += e * (self.n_train // b + (self.n_train % b >= 2))
        self.steps_per_round = steps
        self.outputs = tuple(f"runs/{n}/{cli.CHECKPOINT_NAME}" for n, _ in self.configs) + (
            "report/report.csv",)
        self._reference = None

    def _train_all(self):
        for n, _ in self.configs:
            self.cli("train", "--config", self.paths[n])

    def run_round(self) -> None:
        self.timed("train", self.steps_per_round, self._train_all)
        runs = [self.dir / "runs" / n for n, _ in self.configs]
        self.timed("report", self.images_per_report, self.cli, "report", *runs,
                   "--out-dir", self.dir / "report")

    def reference(self):
        """Images read apart from the program, and the benchmark's own PCA."""
        if self._reference is None:
            data = self.dir / "data"
            train = chk.read_idx(data / "train_images.idx")
            train = train.reshape(train.shape[0], -1)
            test = chk.read_idx(data / "test_images.idx")
            test = test.reshape(test.shape[0], -1)
            components, mean = chk.pca_reference(train, 9)
            slots = chk.word_slots(train.shape[1])
            pca_acc = chk.concentration_entropy(components.T, slots)
            self._reference = (train, test, slots, components, mean, pca_acc)
        return self._reference

    def check_outputs(self) -> None:
        train, test, slots, _, _, _ = self.reference()
        rows = {r["method"]: r for r in chk.read_csv((self.dir / "report/report.csv").read_text())}
        for n, _ in self.configs:
            header, arrays = chk.read_msck(self.checkpoint_path(n))
            if n not in rows:
                self.ledger.check(f"{n} report row", _fail, f"no report row for {n}")
                continue
            weights = self.own_weights(n, header, arrays)
            self.ledger.check(
                f"{n} report row", chk.check_report_row, rows[n],
                chk.mse(train, chk.reconstruct(header, arrays, train)),
                chk.mse(test, chk.reconstruct(header, arrays, test)),
                chk.concentration_entropy(weights, slots))
            if arrays["history"].size:
                self.ledger.check(f"{n} history", chk.check_history, arrays["history"])
            self.extra_checks(n, header, arrays, rows[n])

    def own_weights(self, name, header, arrays):
        if header["meta"]["model_kind"] == "pca":
            return arrays["pca.components"].T
        return chk.readout_from_checkpoint(header, arrays)[0]

    def extra_checks(self, name, header, arrays, row) -> None:
        pass


def _fail(message) -> None:
    raise chk.CheckFailed(message)


class WordsMinsyn(_Words):
    name = "words-minsyn"
    configs = (("words_minsyn_binary", WORD_EPOCHS), ("words_minsyn_gaussian", WORD_EPOCHS))

    def extra_checks(self, name, header, arrays, row) -> None:
        model = self.ledger.call("restore_model", checkpoint.restore_model,
                                 self.ledger.call("load_checkpoint", checkpoint.load_checkpoint,
                                                  self.checkpoint_path(name)))
        weights = self.ledger.call("decoder_weight_matrix", model.decoder_weight_matrix)
        bias = self.ledger.call("decoder_params_from_average",
                                model.decoder_params_from_average).bias
        self.ledger.check(f"{name} decoder from moments", chk.check_decoder_readout,
                          header, arrays, weights, bias)
        pca_acc = self.reference()[5]
        self.ledger.check(f"{name} acc below PCA", chk.check_acc_below, name,
                          float(row["acc"]), pca_acc)


class WordsBaselines(_Words):
    name = "words-baselines"
    configs = (("words_autoencoder", WORD_EPOCHS), ("words_denoising", WORD_EPOCHS),
               ("words_pca", None))

    def own_weights(self, name, header, arrays):
        if name == "words_pca":
            return self.reference()[3].T
        return super().own_weights(name, header, arrays)

    def extra_checks(self, name, header, arrays, row) -> None:
        if name == "words_pca":
            self.ledger.check("PCA subspace", chk.check_same_subspace,
                              arrays["pca.components"], self.reference()[3])


# ------------------------------------------------------------ digits

class DigitsRobustness(Workload):
    name = "digits-robustness"
    models = ("digits_minsyn_binary", "digits_autoencoder")

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        image_seed = int(_seed_stream(self.seed, 1).integers(2 ** 31))
        images, _ = self.ledger.call("synthetic_digits", words.synthetic_digits,
                                     EVAL_IMAGES, image_seed)
        tensor = self.ledger.call("images_tensor", idx.images_tensor, images)
        self.images_path = self.dir / "eval_images.idx"
        self.ledger.call("write_idx_file", idx.write_idx_file, self.images_path, tensor)
        self.paths = {m: self.write_config(m, DIGIT_EPOCHS) for m in self.models}
        self.noise_seed = int(_seed_stream(self.seed, 2).integers(2 ** 31))
        doc = json.loads(self.paths[self.models[0]].read_text())
        n, b = doc["dataset"]["train"], doc["training"]["batch_size"]
        self.steps_per_round = len(self.models) * DIGIT_EPOCHS * (n // b + (n % b >= 2))
        self.outputs = tuple(f"runs/{m}/{cli.CHECKPOINT_NAME}" for m in self.models) + tuple(
            f"eval/{m}.csv" for m in self.models)

    def _train_all(self):
        for m in self.models:
            self.cli("train", "--config", self.paths[m])

    def _eval(self, model):
        self.cli("eval", "--checkpoint", self.checkpoint_path(model), "--images",
                 self.images_path, "--loss", "bce", "--seed", self.noise_seed,
                 "--out", self.dir / "eval" / f"{model}.csv")

    def run_round(self) -> None:
        self.timed("train", self.steps_per_round, self._train_all)
        for m in self.models:
            self.timed("eval", EVAL_IMAGES * len(noise.NOISE_KINDS), self._eval, m)

    def check_outputs(self) -> None:
        clean = chk.read_idx(self.images_path).reshape(EVAL_IMAGES, -1)
        corrupted = {}
        for kind in noise.NOISE_KINDS:
            corrupted[kind] = self.ledger.call(f"apply_noise {kind}", noise.apply_noise,
                                               clean, kind, self.noise_seed)
            self.ledger.check(f"{kind} mask", chk.check_noise_mask, kind, clean, corrupted[kind])
        for m in self.models:
            header, arrays = chk.read_msck(self.checkpoint_path(m))
            self.ledger.check(f"{m} history", chk.check_history, arrays["history"])
            expected = {k: chk.bce(clean, chk.reconstruct(header, arrays, c))
                        for k, c in corrupted.items()}
            self.ledger.check(f"{m} eval rows", chk.check_eval_rows,
                              (self.dir / "eval" / f"{m}.csv").read_text(), expected)


# ------------------------------------------------------------ synergy

PAPER_PAIR = (0.5, 0.75)
RANDOM_PAIRS = 5
GAUSSIAN_SYSTEMS = 200
JOINTS_PER_SIZE = 12
MAX_TEXT_LATENTS = 8  # the text round trip grows as 2^(m+1) lines


def random_correlation(rng, size) -> np.ndarray:
    a = rng.standard_normal((size, size + 2))
    c = a @ a.T
    d = 1.0 / np.sqrt(np.diag(c))
    c = c * d[:, None] * d[None, :]
    np.fill_diagonal(c, 1.0)
    return (c + c.T) / 2.0


class SynergyMeasures(Workload):
    name = "synergy-measures"

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        rng = _seed_stream(self.seed, 3)
        pairs = [PAPER_PAIR]
        while len(pairs) < 1 + RANDOM_PAIRS:
            r1, r2 = np.round(rng.uniform(-0.9, 0.9, size=2), 3)
            if min(abs(r1), abs(r2)) > 0.05 and abs(abs(r1) - abs(r2)) > 0.05:
                pairs.append((float(r1), float(r2)))
        self.pairs = pairs
        self.systems = []
        for _ in range(GAUSSIAN_SYSTEMS):
            c = random_correlation(rng, int(rng.integers(3, 8)))
            self.systems.append((c[-1, :-1].copy(), c[:-1, :-1].copy()))
        self.joints = [rng.dirichlet(np.ones(2 ** (m + 1))).reshape((2,) * (m + 1))
                       for m in range(2, discrete.MAX_LATENTS + 1)
                       for _ in range(JOINTS_PER_SIZE)]
        self.conditionals = []
        for m in range(2, 7):
            p_x = rng.dirichlet(np.ones(2))
            tables = [rng.dirichlet(np.ones(2), size=2).T for _ in range(m)]
            self.conditionals.append((p_x, tables))
        self.outputs = tuple(f"curves/{i}-{u}/synergy_curve.csv"
                             for i in range(len(pairs)) for u in ("nats", "bits"))

    def _curves(self):
        for i, (r1, r2) in enumerate(self.pairs):
            for units in ("nats", "bits"):
                self.cli("synergy-curve", "--rho1", r1, "--rho2", r2, "--steps", CURVE_STEPS,
                         "--units", units, "--out-dir", self.dir / "curves" / f"{i}-{units}")

    def _gaussian(self):
        call, out = self.ledger.call, []
        for rho, sigma in self.systems:
            with self.tracer.span("gaussian.measures"):
                s = call("GaussianSystem", gaussian.GaussianSystem, rho, sigma)
                values = (call("gaussian_mutual_information",
                               gaussian.gaussian_mutual_information, s),
                          call("wms_synergy", gaussian.wms_synergy, s),
                          call("gk_synergy", gaussian.gk_synergy, s),
                          call("gaussian_ci_synergy", gaussian.gaussian_ci_synergy, s))
            at_min = call("gk_minimizing_covariance", gaussian.gk_minimizing_covariance, rho)
            out.append(values + (call("gk_synergy", gaussian.gk_synergy, at_min),))
        self.gaussian_values = out

    def _discrete(self):
        call, out = self.ledger.call, []
        for p in self.joints:
            j = call("DiscreteJoint", discrete.DiscreteJoint, p)
            out.append((call("discrete_ci_synergy", discrete.discrete_ci_synergy, j),
                        call("discrete_wms_synergy", discrete.discrete_wms_synergy, j),
                        call("total_correlation", discrete.total_correlation, j),
                        call("mutual_information", discrete.mutual_information, j, range(j.m))))
        self.discrete_values = out
        self.ci_of_conditionals = [
            call("discrete_ci_synergy", discrete.discrete_ci_synergy,
                 call("from_conditionals", discrete.DiscreteJoint.from_conditionals, p_x, tables))
            for p_x, tables in self.conditionals]
        self.xor_ci = call("discrete_ci_synergy", discrete.discrete_ci_synergy,
                           call("xor", discrete.DiscreteJoint.xor))
        self.reparsed = [
            call("from_text", discrete.DiscreteJoint.from_text,
                 call("to_text", discrete.DiscreteJoint(p).to_text)).probs
            for p in self.joints if p.ndim - 1 <= MAX_TEXT_LATENTS]

    def run_round(self) -> None:
        self.timed("curve", len(self.outputs) * CURVE_STEPS, self._curves)
        self.timed("gaussian", len(self.systems), self._gaussian)
        self.timed("joints", len(self.joints), self._discrete)

    def check_outputs(self) -> None:
        check = self.ledger.check
        for i, (r1, r2) in enumerate(self.pairs):
            check(f"curve {r1},{r2}", chk.check_curve,
                  (self.dir / "curves" / f"{i}-nats" / "synergy_curve.csv").read_text(),
                  (self.dir / "curves" / f"{i}-bits" / "synergy_curve.csv").read_text(), r1, r2)
        for (rho, sigma), (mi, _, _, ci, gk_min) in zip(self.systems, self.gaussian_values):
            check("Gaussian MI", chk.check_gaussian_mi, sigma, rho, mi)
            check("GK synergy at its minimizer", chk.check_at_most, "GK synergy", gk_min, 1e-9)
            check("Gaussian CI synergy >= 0", chk.check_at_most, "-CI synergy", -ci, 0.0)
        for p, (ci, _, _, mi) in zip(self.joints, self.discrete_values):
            check("discrete MI", chk.check_discrete_mi, p, mi)
            check("discrete CI synergy >= 0", chk.check_at_most, "-CI synergy", -ci, 0.0)
        for ci in self.ci_of_conditionals:
            check("CI synergy of a factorized joint", chk.check_at_most, "CI synergy", ci, 1e-12)
        check("XOR CI synergy", chk.check_at_most, "|XOR CI synergy - ln 2|",
              abs(self.xor_ci - np.log(2.0)), 1e-12)
        small = [p for p in self.joints if p.ndim - 1 <= MAX_TEXT_LATENTS]
        for p, q in zip(small, self.reparsed):
            check("text round trip", chk.check_equal_tables, "from_text(to_text(j))", q, p)

    def check_round(self, index: int) -> None:
        super().check_round(index)
        values = (self.gaussian_values, self.discrete_values, self.ci_of_conditionals, self.xor_ci)
        if index == 0:
            self.first_values = values
        else:
            self.ledger.check("library values repeat round 0", _same_digest, "library values",
                              repr(self.first_values), repr(values))


WORKLOADS = {w.name: w for w in (WordsMinsyn, WordsBaselines, DigitsRobustness, SynergyMeasures)}
