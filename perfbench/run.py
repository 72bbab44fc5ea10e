"""afalib benchmark: one command, three workloads, end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload zoo-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One run imports afalib from ``src/`` and sets up ``SETUPS`` times, then
runs whole rounds of the workload until ``--seconds`` of operations have
been timed, checking every round's outputs. Times are reported at the
reference host speed: each one is scaled by the time of a fixed probe
computation run next to it (``probe``). The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds alternate untraced and traced, the metrics are the
per-layer ones from the traced rounds (see ``tracer.py``), and the spans
are written to ``perfbench/out/``. The line before it records the run's
Python and numpy versions, ``nproc``, commit and seed, and the raw
(unscaled) timings.
"""

from __future__ import annotations

import os

# One closed-loop caller: keep numpy's BLAS to a single thread, which is
# also what makes the float lane's results the same from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from tracer import LAYER_METRICS, Tracer, summarize
from workloads import WORKLOADS, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 7
MIN_ROUNDS = 3  # per kind of round: untraced, and traced when tracing
PROBE_TERMS = 1000
PROBE_REFERENCE_S = 0.008  # the probe's time on the reference 2-core host, undisturbed

END_TO_END = {"setup_s": "s", "strings_per_s": "strings/s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}


def commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_afalib(modules):
    """A fresh import of afalib (and the listed submodules) from ``src/``."""
    for name in [m for m in sys.modules if m == "afalib" or m.startswith("afalib.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    return sys.modules["afalib"]


def attempt(fn):
    """Call ``fn``; an exception becomes its output, with the traceback on stderr."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is an output here
        traceback.print_exc(file=sys.stderr)
        return exc


def probe() -> float:
    """Wall time of a fixed pure-Python computation on stdlib Fractions.

    The host's speed swings by a third and more within a minute, while
    the ratio of an afalib operation's time to this probe's time, taken
    next to it, stays within a few percent; see README.md.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return perf_counter() - start


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled to the host speed at which the probe takes ``PROBE_REFERENCE_S``."""
    return elapsed * PROBE_REFERENCE_S / ((before + after) / 2)


def scale_times(layers: dict, factor: float) -> dict:
    """Layer metrics with every time (unit ``s``) scaled by ``factor``."""
    return {key: value * factor if LAYER_METRICS[key] == "s" else value for key, value in layers.items()}


def run_round(workload, scaled: dict) -> tuple[dict, float, float]:
    """One round: the outputs by key; appends each operation's time at
    reference speed to ``scaled[key]``; returns the round's wall time raw
    and at reference speed."""
    outputs, raw, total = {}, 0.0, 0.0
    before = probe()
    for key, fn in workload.operations():
        start = perf_counter()
        outputs[key] = attempt(fn)
        elapsed = perf_counter() - start
        after = probe()
        at_reference = at_reference_speed(elapsed, before, after)
        scaled.setdefault(key, []).append(at_reference)
        raw += elapsed
        total += at_reference
        before = after
    return outputs, raw, total


def median_round(scaled: dict) -> float:
    """A round's time as the sum over operations of each one's median time."""
    return sum(median(times) for times in scaled.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        tracer = Tracer() if trace else None
        setup_raw, setup_scaled, setup_layers = [], [], []
        for _ in range(SETUPS):
            before = probe()
            start = perf_counter()
            afalib = import_afalib(workload.modules)
            if tracer:
                tracer.install()
            workload.setup(afalib)
            elapsed = perf_counter() - start
            if tracer:
                tracer.uninstall()
            setup_raw.append(elapsed)
            setup_scaled.append(at_reference_speed(elapsed, before, probe()))
            if tracer:
                setup_layers.append(scale_times(tracer.take(), setup_scaled[-1] / elapsed))
        if Path(afalib.__file__).resolve().parent != SRC / "afalib":
            raise RuntimeError(f"afalib imported from {afalib.__file__}, not from {SRC}")

        tally = Tally()
        plain, traced, round_layers, raw_rates = {}, {}, [], []
        rounds = traced_rounds = 0
        timed = 0.0
        while timed < seconds or rounds < MIN_ROUNDS or (tracer and traced_rounds < MIN_ROUNDS):
            tracing = tracer is not None and rounds > traced_rounds
            if tracing:
                tracer.install()
            outputs, raw, scaled = run_round(workload, traced if tracing else plain)
            if tracing:
                tracer.uninstall()
                round_layers.append(scale_times(tracer.take(), scaled / raw))
                traced_rounds += 1
            result = workload.check(outputs)
            tally.merge(result)
            timed += raw
            if not tracing:
                rounds += 1
                raw_rates.append(result.attempted / raw)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if tracer:
            values = summarize(setup_layers, round_layers)
            values["trace.overhead_ratio"] = median_round(traced) / median_round(plain)
            units = PER_LAYER
            tracer.write(OUT / f"trace-{name}-seed{seed}.tsv")
        else:
            values = {
                "setup_s": median(setup_scaled),
                "strings_per_s": result.attempted / median_round(plain),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
        info = {
            "setups": SETUPS,
            "rounds": rounds,
            "traced_rounds": traced_rounds,
            "timed_s": timed,
            "strings_per_round": result.attempted,
            "raw_setup_s": median(setup_raw),
            "raw_strings_per_s": median(raw_rates),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return result, info


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(proc.stdout, end="")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }
    print(json.dumps({"run": environment(args)}))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afalib" / "__init__.py").is_file():
        print(f"error: no afalib sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result, run_info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload}\t{key}\t{metric['value']:.6g}\t{metric['unit']}")
    print(f"{args.workload}\tattempted\t{result['attempted']}\tfailed\t{result['failed']}")
    info = {**environment(args), **run_info}
    print(json.dumps({"run": info}))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
