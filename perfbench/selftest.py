#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke run and a fault check.

    python3 perfbench/selftest.py

The smoke run executes one item per workload, untraced and traced, and
checks that the metric names and units in the output are the ones
BENCHMARK.json declares.  The fault check feeds the gate wrong pairs and
wrong payloads built from real outputs and requires every one of them to
raise the failed ratio above 0, so the gate cannot pass vacuously.
Exits 0 and prints "selftest ok" when everything holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import sys
from pathlib import Path

import run  # noqa: E402  (sets the thread pinning and the import path first)
from dessins.dessin import Constellation
from dessins.perms import Permutation, compose, format_cycles, inverse, parse_cycles


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_declared() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        fail("end_to_end metrics differ between BENCHMARK.json and run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        fail("per_layer metrics differ between BENCHMARK.json and run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        fail("workloads differ between BENCHMARK.json and workloads.py")


def smoke(scratch) -> None:
    for workload in run.WORKLOADS:
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.run(workload, 1, 0, trace, scratch, max_items=1)["result"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] != 1 or result["failed"] != 0:
                fail(f"{workload} trace={int(trace)}: {result}")
            metrics = result["metrics"]
            if {k: v["unit"] for k, v in metrics.items()} != units:
                fail(f"{workload} trace={int(trace)}: metric names or units differ")
            if not all(isinstance(v["value"], (int, float)) for v in metrics.values()):
                fail(f"{workload} trace={int(trace)}: a metric is not a number")
            print(f"smoke {workload} trace={int(trace)}: {len(metrics)} metrics ok")


def _with_payload(outcome, **changes):
    payload = json.loads(outcome.stdout)
    payload.update(changes)
    outcome.stdout = json.dumps(payload)
    return outcome


def _scrambled(c: Constellation, rng: random.Random) -> Constellation:
    """Same cycle types, wrong pair: g1 alone conjugated by a random h."""
    n = c.degree
    h = rng.sample(range(1, n + 1), n)
    images = [0] * n
    for x in range(1, n + 1):
        images[h[x - 1] - 1] = h[c.g1(x) - 1]
    return Constellation(c.g0, Permutation(tuple(images)))


def _wrong_monodromy_pair(item, outcome):
    payload = json.loads(outcome.stdout)
    n = payload["degree"]
    c = _scrambled(Constellation(parse_cycles(payload["g0"], n),
                                 parse_cycles(payload["g1"], n)), random.Random(7))
    return item, _with_payload(outcome, g1=format_cycles(c.g1),
                               ginf=format_cycles(inverse(compose(c.g0, c.g1))))


def _wrong_dessin_pair(item, outcome):
    outcome.pair = _scrambled(outcome.pair, random.Random(7))
    return item, outcome


def _flipped_hash(item, outcome):
    h = json.loads(outcome.stdout)["canonical_hash"]
    return item, _with_payload(outcome, canonical_hash=("0" if h[0] != "0" else "1") + h[1:])


def _truncated_svg(item, outcome):
    out = item.argv.index("--out") + 1
    path = Path(item.argv[out])
    lines = path.read_text(encoding="utf-8").splitlines()
    first_path = next(k for k, line in enumerate(lines) if line.startswith("<path"))
    bad = path.with_name("truncated.svg")
    bad.write_text("\n".join(lines[:first_path] + lines[first_path + 1:]), encoding="utf-8")
    argv = item.argv[:out] + (str(bad),) + item.argv[out + 1:]
    return dataclasses.replace(item, argv=argv), outcome


FAULTS = {
    "dessin_survey": {
        "wrong pair": _wrong_dessin_pair,
        "genus 2": lambda i, o: (i, _with_payload(o, genus=2)),
        "flipped canonical_hash": _flipped_hash,
        "not clean": lambda i, o: (i, _with_payload(o, clean=False)),
    },
    "chain_stability": {
        "wrong pair": _wrong_monodromy_pair,
        "unstable": lambda i, o: (i, _with_payload(o, stability=False)),
        "schema break": lambda i, o: (i, _with_payload(o, degree="22")),
        "numerical failure": lambda i, o: (i, dataclasses.replace(o, exit_code=3, stdout="")),
    },
    "render": {
        "arcs off by one": lambda i, o: (i, _with_payload(o, arcs=i.degree - 1)),
        "missing path": _truncated_svg,
        "raised": lambda i, o: (i, dataclasses.replace(o, error="RenderError: x", stdout="")),
    },
}


def fault_check(scratch) -> None:
    for workload, faults in FAULTS.items():
        passes = run.WORKLOADS[workload](random.Random(1), scratch)
        items, outcomes, _ = run.timed_pass([passes[0][:1]], 0)
        if run.gate(items, outcomes, 1) != 0:
            fail(f"{workload}: the real output fails the gate: {outcomes[0].problems}")
        for label, corrupt in faults.items():
            item, outcome = corrupt(items[0], copy.copy(outcomes[0]))
            failed_ratio = run.gate([item], [outcome], 1) / 1
            if failed_ratio <= 0:
                fail(f"{workload}: {label} passed the gate")
            print(f"fault {workload} {label}: failed_ratio {failed_ratio:.1f} "
                  f"({outcome.problems[0]})")


def main() -> int:
    check_declared()
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = run.SCRATCH / "selftest"
    scratch.mkdir(exist_ok=True)
    try:
        smoke(scratch)
        fault_check(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
