#!/usr/bin/env python3
"""Benchmark of the dessins command line.

    python3 perfbench/run.py --workload dessin_survey --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  One client in a closed loop: each call of
``dessins.cli.main(argv)`` starts when the previous one has returned, in
this process.  The loop stops after the first pass that ends past
``--seconds``.  Outputs are checked after the loop, outside the timing.

Times are scaled to a reference host speed.  A fixed numpy and pure-Python
probe that the package never runs is timed before every call and every
set-up; each time metric is multiplied by PROBE_REFERENCE_S over the
run's median probe time.  The report line keeps the unscaled values.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a run in which every public
function of the package is wrapped in a span (see spans.py); the spans are
written to .bench_out/ when the run ends.  The line before it is a report
with the machine, the failure ratio and the per-item times.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SPAN_DIR = ROOT / ".bench_out"

if not (SRC / "dessins" / "__init__.py").is_file():
    sys.stderr.write(f"no package source at {SRC / 'dessins'}; run from a source checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import dessins.cli  # noqa: E402,F401  (import is part of the in-process set-up)
from dessins.polynomials import roots_of_f  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI = sys.modules["dessins.cli"]
PROBE_REFERENCE_S = 0.02
SETUP_REPEATS = 5  # before and again after the timed loop
SETUP_CODE = (
    "import dessins.cli, dessins.polynomials as p; p.roots_of_f(); print('ready', flush=True)"
)

END_TO_END = {
    "setup_s": "s",
    "item_p50_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per item of the traced pass.  A function never entered reads 0.
PER_LAYER_FUNCTIONS = (
    "monodromy.track_loop", "monodromy.fiber", "polynomials.roots",
    "maps.eval_chain", "dessin.canonical_form", "render.render_graph",
)
PER_LAYER_SELF_ONLY = (
    "maps.branch_values", "dessin.dessin_json", "render.structural_vertices",
    "render.merge_dots", "cli.main",
)
LAYERS = ("cli", "polynomials", "maps", "monodromy", "dessin", "galois", "render", "perms")
PER_LAYER = {
    **{f"{fn}.self_s": "s" for fn in PER_LAYER_FUNCTIONS + PER_LAYER_SELF_ONLY},
    **{f"{fn}.calls": "count" for fn in PER_LAYER_FUNCTIONS},
    "monodromy.runs_per_item": "count",
    "maps.branch_values.calls_per_item": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.edges_per_s": "1/s",
    "trace.spans_per_item": "count",
}


def probe() -> float:
    """Seconds for a fixed kernel shaped like the tracking loop (a 528 x
    528 gap matrix and a pure-Python loop), 16-26 ms on a 2.1 GHz x86-64
    core depending on load.  It measures how fast the host runs now: on
    shared cores that speed drifts by a third within minutes.  Its arrays
    add about 7 MB to the peak RSS of runs whose items use less."""
    x = numpy.exp(2j * numpy.pi * numpy.arange(528) / 528)
    start = time.perf_counter()
    for _ in range(12):
        gaps = numpy.abs(x[:, None] - x[None, :])
        numpy.fill_diagonal(gaps, numpy.inf)
        gaps.min(axis=1)
        total = 0
        for k in range(3000):
            total += k * k % 7
    return time.perf_counter() - start


def setup_seconds(probes: list[float]) -> list[float]:
    """Times from starting a fresh interpreter until it has imported
    dessins.cli and computed the roots of f; appends a probe per start."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        probes.append(probe())
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode})")
    return times


def call(item) -> oracle.Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(list(item.argv))
    except (Exception, SystemExit) as exc:  # an item that raises is a failed item
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return oracle.Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


def capture_pairs(captured: list):
    """Rebind dessin_json so the constellation of each call is kept for the
    gate; the capture only stores a reference."""
    original = sys.modules["dessins.dessin"].dessin_json

    @functools.wraps(original)
    def dessin_json(c):
        captured.append(c)
        return original(c)

    return spans.patch_everywhere(original, dessin_json)


def timed_pass(passes, seconds: float, tracer=None):
    """Run passes until one ends past the budget; returns (items,
    outcomes, probe seconds), with a probe before each call."""
    items, outcomes, probes, captured = [], [], [], []
    undo = capture_pairs(captured)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for batch in passes:
            for item in batch:
                probes.append(probe())
                if tracer is not None:
                    tracer.item = len(items)
                before = len(captured)
                outcome = call(item)
                if len(captured) > before:
                    outcome.pair = captured[-1]
                items.append(item)
                outcomes.append(outcome)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        spans.restore(undo)
    return items, outcomes, probes


def gate(items, outcomes, seed: int) -> int:
    """Check every outcome; returns the number of failed items."""
    rng = random.Random(seed ^ 0x5EED)
    for item, outcome in zip(items, outcomes):
        outcome.problems = oracle.check(item, outcome, rng)
    return sum(1 for o in outcomes if o.problems)


def edges_per_s(items, outcomes) -> float:
    """Summed degrees of the items that passed the gate per second of
    calls."""
    passed = sum(i.degree for i, o in zip(items, outcomes) if not o.problems)
    return passed / sum(o.seconds for o in outcomes)


def end_to_end(items, outcomes, setup: float) -> dict:
    return {
        "setup_s": setup,
        "item_p50_s": statistics.median(o.seconds for o in outcomes),
        "edges_per_s": edges_per_s(items, outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: spans.Tracer, items, outcomes) -> dict:
    n = len(items)
    table = tracer.self_times()

    def calls(name):
        return table.get(name, (0, 0.0))[0] / n

    def self_s(name):
        return table.get(name, (0, 0.0))[1] / n

    out = {}
    for fn in PER_LAYER_FUNCTIONS + PER_LAYER_SELF_ONLY:
        out[f"{fn}.self_s"] = self_s(fn)
    for fn in PER_LAYER_FUNCTIONS:
        out[f"{fn}.calls"] = calls(fn)
    out["monodromy.runs_per_item"] = calls("monodromy.monodromy")
    out["maps.branch_values.calls_per_item"] = calls("maps.branch_values")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            total for name, (_, total) in table.items() if name.split(".")[0] == layer) / n
    out["trace.edges_per_s"] = edges_per_s(items, outcomes)
    out["trace.spans_per_item"] = len(tracer.spans) / n
    return out


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start_s", "end_s", "item"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return path


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path,
        max_items: int | None = None) -> dict:
    """One benchmark run; returns the report and the result object printed
    last.  ``max_items`` keeps only the first items of the first pass."""
    probes: list[float] = []
    setups = setup_seconds(probes)
    roots_of_f()  # in-process set-up, before timing
    passes = WORKLOADS[workload](random.Random(seed), scratch)
    if max_items is not None:
        passes = [passes[0][:max_items]]
    tracer = spans.Tracer() if trace else None
    items, outcomes, item_probes = timed_pass(passes, seconds, tracer)
    probes += item_probes
    setups += setup_seconds(probes)
    failed = gate(items, outcomes, seed)
    raw = (per_layer(tracer, items, outcomes) if trace
           else end_to_end(items, outcomes, statistics.median(setups)))
    units = PER_LAYER if trace else END_TO_END
    scale = PROBE_REFERENCE_S / statistics.median(probes)
    exponent = {"s": 1, "1/s": -1}
    metrics = {k: raw[k] * scale ** exponent.get(units[k], 0) for k in units}
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "machine": machine(),
        "items": len(items), "failed_ratio": failed / len(items),
        "probe_median_s": statistics.median(probes), "time_scale": scale,
        "unscaled": {k: raw[k] for k in units},
        "item_seconds": [round(o.seconds, 4) for o in outcomes],
        "failures": [{"argv": list(i.argv), "problems": o.problems}
                     for i, o in zip(items, outcomes) if o.problems],
    }
    if trace:
        report["spans_file"] = str(write_spans(tracer, workload, seed).relative_to(ROOT))
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": len(items),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
