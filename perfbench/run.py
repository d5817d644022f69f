"""minsyn benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload words-minsyn --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).  Run
outputs, results and traces go under `perfbench-out/` in the checkout.
See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process with one BLAS thread: fixed before numpy loads, recorded below.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 8  # fresh interpreters; one sample varies by +-20% here
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import minsyn.cli; print(time.perf_counter() - t)")
MIN_ROUNDS = 3  # round 0 warms up and is checked in full; the rest are timed



def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_in_use():
    """OpenBLAS's own thread count, when the library exposes it."""
    import ctypes
    import glob

    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def run_conditions() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads_in_use": blas_threads_in_use(),
        "processes": 1,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def import_seconds() -> list:
    """Import time of the program in fresh interpreters, one per sample."""
    out = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        out.append(float(probe.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "minsyn" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no minsyn source tree (src/minsyn, configs)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench_trace
    from bench_workloads import WORKLOADS, Ledger, OpFailed

    import minsyn
    if Path(minsyn.__file__).resolve().parent != ROOT / "src" / "minsyn":
        print(f"error: imported minsyn from {minsyn.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = OUT / "run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log = open(run_dir / "program.log", "w")
    logging.basicConfig(stream=log, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    tracer = bench_trace.Tracer() if args.trace else bench_trace.NullTracer()
    if args.trace:
        tracer.install(bench_trace.targets())
    ledger = Ledger()
    workload = WORKLOADS[args.workload](ROOT, args.seed, ledger, tracer, log)

    setup_times, round_times = [], []
    rounds = 0
    import_times = [] if args.trace else import_seconds()
    try:
        for i in range(SETUP_REPEATS):
            tracer.round = -1 - i
            t0 = time.perf_counter()
            workload.setup(run_dir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            if rounds == 1:
                workload.work.clear()  # rates count the timed rounds only
            tracer.round = rounds
            t0 = time.perf_counter()
            workload.run_round()
            if rounds:
                round_times.append(time.perf_counter() - t0)
            with tracer.paused():
                workload.check_round(rounds)
            rounds += 1
    except OpFailed:
        pass
    finally:
        if args.trace:
            tracer.uninstall()
        log.close()

    if not round_times:
        for failure in ledger.failures[:20]:
            print(f"FAILED {failure}", file=sys.stderr)
        print("error: no timed round completed", file=sys.stderr)
        return 1
    correct = not ledger.failures
    if args.trace:
        values = bench_trace.layer_metrics(tracer.spans, range(1, rounds), round_times)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(round_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    rates = {phase: {"seconds": s, "items": n, "per_s": n / s if s else 0.0}
             for phase, (s, n) in workload.work.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "timed_rounds": len(round_times),
        "import_s": import_s, "import_times_s": import_times, "setup_times_s": setup_times,
        "round_times_s": round_times,
        "phase_rates": rates, "outputs_round0": workload.results(),
        "failures": ledger.failures[:20], "conditions": run_conditions(),
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": metrics,
    }
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n")

    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")
    for phase, r in rates.items():
        print(f"{args.workload} {phase}: {r['items']} items in {r['seconds']:.3f} s "
              f"= {r['per_s']:.6g}/s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
