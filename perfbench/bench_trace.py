"""Spans around the calls into each `minsyn` module, and the per-layer
metrics derived from them.

Wrappers are installed from outside the program: each public function is
replaced under every name a `minsyn` module (or the benchmark) looks it up
by, so `nn` calling `binary_decoder_params` through its own import is
traced as well.  Spans live in memory as lists
[name, start, end, parent index, round, size, child seconds] and are written
out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

NAME, START, END, PARENT, ROUND, SIZE, CHILD = range(7)


class NullTracer:
    """Stands in for the tracer in untraced runs: spans cost one call."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def paused(self):
        return self._null


class Tracer:
    active = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.round = -1  # set-up i is round -1 - i, timed rounds count from 0
        self._installed = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, 0, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, size=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if size is not None:
                self.spans[index][SIZE] = size(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute, span name, size) under every name a
        loaded `minsyn` module binds to the same function."""
        holders = [m for n, m in list(sys.modules.items())
                   if n == "minsyn" or n.startswith("minsyn.")]
        for module, attr, name, size in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, size)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._installed.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "size"],
                       "spans": [s[:CHILD] for s in self.spans]}, fh, separators=(",", ":"))


def _rows(position):
    def size(args, kwargs, result):
        return len(args[position])
    return size


def _file_bytes(args, kwargs, result):
    return Path(args[0]).stat().st_size


def targets():
    """(module, attribute, span name, size) for every traced function."""
    from minsyn import (checkpoint, cli, config, decoder, discrete, idx, metrics, nn, noise,
                        svg, words)
    return [
        (nn, "train_autoencoder", "nn.train_autoencoder", None),
        (nn, "gradients", "nn.gradients", _rows(1)),
        (nn, "loss", "nn.loss", None),
        (nn, "adam_step", "nn.adam_step", None),
        (nn, "pca_fit", "nn.pca_fit", None),
        (nn, "forward", "nn.forward", _rows(1)),
        (decoder, "binary_batch_stats", "decoder.batch_stats", None),
        (decoder, "gaussian_batch_stats", "decoder.batch_stats", None),
        (decoder, "binary_decoder_params", "decoder.params", None),
        (decoder, "gaussian_decoder_params", "decoder.params", None),
        (decoder, "update_moving_average", "decoder.ma_update", None),
        (checkpoint, "save_checkpoint", "checkpoint.save", _file_bytes),
        (checkpoint, "load_checkpoint", "checkpoint.load", _file_bytes),
        (words, "build_word_dataset", "words.dataset_build", None),
        (words, "synthetic_digits", "words.synthetic_digits", None),
        (idx, "read_idx_file", "idx.read", _file_bytes),
        (idx, "write_idx_file", "idx.write", _file_bytes),
        (noise, "apply_noise", "noise.apply", _rows(0)),
        (metrics, "reconstruction_losses", "metrics.reconstruction_losses", None),
        (metrics, "acc_score", "metrics.acc", None),
        (config, "load_config", "config.load", None),
        (svg, "line_plot_svg", "svg.plot", None),
        (discrete, "discrete_ci_synergy", "discrete.ci_synergy", None),
        (discrete, "discrete_wms_synergy", "discrete.wms_synergy", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_report", "cli.report", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "cmd_synergy_curve", "cli.synergy_curve", None),
    ]


# ------------------------------------------------------------ layer metrics

def layer_metrics(spans, timed_rounds, round_seconds) -> dict:
    """Per-layer metrics from one traced run.

    Returns every per-layer metric of BENCHMARK.json by name.  An in-round
    time is the round's total over its calls (or training steps, or images),
    median over the timed rounds; a set-up time is the median over the
    set-up repetitions.  A layer the workload never calls reads 0.
    """
    rounds = list(timed_rounds)
    by_name = {}
    training = []  # span i runs inside train_autoencoder
    for s in spans:
        by_name.setdefault(s[NAME], []).append(len(training))
        training.append(s[NAME] == "nn.train_autoencoder"
                        or (s[PARENT] >= 0 and training[s[PARENT]]))

    def dur(i):
        return spans[i][END] - spans[i][START]

    def own(i):
        return dur(i) - spans[i][CHILD]

    def median_ratio(name, value=dur, per=lambda i: 1, where=lambda i: True, over=rounds):
        """Median over rounds of sum(value) / sum(per) of the chosen spans."""
        totals = {r: [0.0, 0.0] for r in over}
        for i in by_name.get(name, ()):
            r = spans[i][ROUND]
            if r in totals and where(i):
                totals[r][0] += value(i)
                totals[r][1] += per(i)
        ratios = [v / n for v, n in totals.values() if n > 0]
        return statistics.median(ratios) if ratios else 0.0

    steps = {r: 0 for r in rounds}
    for i in by_name.get("nn.gradients", ()):
        if training[i] and spans[i][ROUND] in steps:
            steps[spans[i][ROUND]] += 1

    def per_step(name, value=dur, steps=steps):
        ratios = []
        for r in rounds:
            if steps[r]:
                total = sum(value(i) for i in by_name.get(name, ())
                            if spans[i][ROUND] == r and training[i])
                ratios.append(total / steps[r])
        return statistics.median(ratios) if ratios else 0.0

    # Steps that build decoder parameters: those of the minsyn models.
    decoder_steps = {r: 0 for r in rounds}
    for i in {spans[i][PARENT] for i in by_name.get("decoder.params", ()) if training[i]}:
        if spans[i][ROUND] in decoder_steps:
            decoder_steps[spans[i][ROUND]] += 1

    def round_total(name):
        """Median over rounds of the summed span sizes (bytes per round)."""
        totals = {r: 0 for r in rounds}
        for i in by_name.get(name, ()):
            if spans[i][ROUND] in totals:
                totals[spans[i][ROUND]] += spans[i][SIZE]
        return statistics.median(totals.values()) if totals else 0

    def in_training(i):
        return training[i]

    def size(i):
        return spans[i][SIZE]

    setup = sorted({s[ROUND] for s in spans if s[ROUND] < 0})
    return {
        "nn.step_us": 1e6 * per_step("nn.train_autoencoder"),
        "nn.steps": statistics.median(steps.values()) if steps else 0,
        "nn.gradients_self_us": 1e6 * median_ratio("nn.gradients", own, where=in_training),
        "nn.loss_us": 1e6 * median_ratio("nn.loss", where=in_training),
        "nn.adam_us": 1e6 * median_ratio("nn.adam_step"),
        "nn.pca_fit_s": median_ratio("nn.pca_fit"),
        "nn.forward_eval_us_per_image": 1e6 * median_ratio("nn.forward", per=size),
        "decoder.batch_stats_us": 1e6 * median_ratio("decoder.batch_stats", where=in_training),
        "decoder.params_us": 1e6 * median_ratio("decoder.params", where=in_training),
        "decoder.params_calls_per_step": per_step("decoder.params", lambda i: 1, decoder_steps),
        "decoder.ma_update_us": 1e6 * median_ratio("decoder.ma_update"),
        "decoder.eval_params_us": 1e6 * median_ratio(
            "decoder.params", where=lambda i: not training[i]),
        "checkpoint.save_ms": 1e3 * median_ratio("checkpoint.save"),
        "checkpoint.load_ms": 1e3 * median_ratio("checkpoint.load"),
        "checkpoint.bytes": round_total("checkpoint.save"),
        "words.dataset_build_ms": 1e3 * median_ratio("words.dataset_build", over=setup),
        "words.synthetic_digits_ms": 1e3 * median_ratio("words.synthetic_digits", over=setup),
        "idx.read_ms": 1e3 * median_ratio("idx.read"),
        "idx.write_ms": 1e3 * median_ratio("idx.write", over=setup),
        "idx.bytes": round_total("idx.read"),
        "noise.apply_us_per_image": 1e6 * median_ratio("noise.apply", per=size),
        "metrics.reconstruction_losses_ms": 1e3 * median_ratio("metrics.reconstruction_losses"),
        "metrics.acc_ms": 1e3 * median_ratio("metrics.acc"),
        "config.load_ms": 1e3 * median_ratio("config.load", over=rounds + setup),
        "gaussian.measures_us": 1e6 * median_ratio("gaussian.measures"),
        "discrete.ci_synergy_us": 1e6 * median_ratio("discrete.ci_synergy"),
        "discrete.wms_synergy_us": 1e6 * median_ratio("discrete.wms_synergy"),
        "svg.plot_ms": 1e3 * median_ratio("svg.plot"),
        "cli.train_s": median_ratio("cli.train"),
        "cli.report_s": median_ratio("cli.report"),
        "cli.eval_s": median_ratio("cli.eval"),
        "cli.synergy_curve_ms": 1e3 * median_ratio("cli.synergy_curve"),
        "trace.wall_s": statistics.median(round_seconds) if round_seconds else 0.0,
    }
