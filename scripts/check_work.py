#!/usr/bin/env python3
"""Exact check of the tracking work of a fixed set of calls against a table.

The committed table ``check_work.json`` holds, for each call, integer
counts of the work it does:

- ``steps``: one [accepted, refused] pair per ``_continue`` run, in call
  order;
- ``composite``: evaluations of the composite and its derivative
  (``_composite_and_derivative``), each over every stacked row;
- ``fits``: gap guard calls (``_fits``), one per step that Newton accepts;
- ``aberth``: batched root solves (``polynomials._aberth``);
- ``dense_matches``: end matches that build the dense metric
  (``_nearest``).

The counts are taken by wrapping those module functions from outside, so
the package carries no counters.  ``roots_of_f``, which the package solves
once per process, is solved before counting, so each entry's counts do not
depend on the entries before it.  The calls are ``monodromy_json`` of every
chain the CI pins with ``--check-stability``, ``monodromy()`` of the
paper's full chain, and ``render_graph`` of the full chain and of the CI's
render pins, all on the default configuration.

Counts do not depend on the host's speed, so a change in work shows here
even where timings cannot tell it from noise.  The script recomputes every
entry and exits 1 on any mismatch.

    PYTHONPATH=src python3 scripts/check_work.py            # check
    PYTHONPATH=src python3 scripts/check_work.py --write    # rebuild

``--write`` replaces the table with the counts of the current code; use it
only when the work is meant to change, in its own commit, and record why.
"""

import argparse
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from dessins.galois import Triple, full_chain
from dessins.maps import format_map_expr, parse_map_expr
from dessins.monodromy import TrackingConfig, monodromy, monodromy_json
from dessins.render import render_graph

TABLE = Path(__file__).with_name("check_work.json")

# The package exports functions named like some of its modules.
MONODROMY = importlib.import_module("dessins.monodromy")
POLYNOMIALS = importlib.import_module("dessins.polynomials")
RENDER = importlib.import_module("dessins.render")

FULL_CHAIN = format_map_expr(full_chain(Triple(2, 7, 11)))

# The chains of the CI's monodromy pins, all run here with the probe.
MONODROMY_PINS = (
    "b(10,1).f.pi(3,5,8)", "b(20,2).f", "b(1,1).b(10,1).f", "b(10,1).f.pi(3,4,12)",
    "b(2,2).b(3,5)", "b(1,1).b(10,1).f.pi(2,7,11)", "b(1,1).b(1,1).b(2,3)",
    "b(1,1).b(10,1)", "b(1,1).b(1,1).b(10,1).f.pi(2,7,11)", "b(2,3).b(3,2)",
    "b(30,3).f", "b(6,5).b(1,1).b(2,2)", "b(5,5).b(4,4)",
)

# The full chain and the chains of the CI's render pins.
RENDER_CHAINS = (FULL_CHAIN, "b(1,1).b(10,1)", "b(4,6)", "b(1,1).b(20,2).f.pi(1,6,9)")

COUNTED = (
    (MONODROMY, "_composite_and_derivative", "composite"),
    (MONODROMY, "_fits", "fits"),
    (POLYNOMIALS, "_aberth", "aberth"),
    (MONODROMY, "_nearest", "dense_matches"),
)


def count(call) -> dict:
    """The counts of the work ``call()`` does, with the counted functions
    wrapped while it runs."""
    counts = Counter()
    runs = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def continued(fn):
        def wrapper(*args, **kwargs):
            runs.append([0, 0])
            return fn(*args, **kwargs)

        return wrapper

    def stepper(fn):
        def wrapper(*args, **kwargs):
            step, run = fn(*args, **kwargs), runs[-1]

            def counted_step(*step_args):
                landed, refused, slope = step(*step_args)
                run[landed is None] += 1
                return landed, refused, slope

            return counted_step

        return wrapper

    patches = [(module, name, counted(getattr(module, name), key)) for module, name, key in COUNTED]
    patches += [(module, "_continue", continued(module._continue)) for module in (MONODROMY, RENDER)]
    patches.append((MONODROMY, "_stepper", stepper(MONODROMY._stepper)))
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, fn in patches:
            setattr(module, name, fn)
        call()
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    return {"steps": runs, **{key: counts[key] for *_, key in COUNTED}}


def calls():
    """(key, call) for every entry of the table, in table order."""
    cfg = TrackingConfig()
    yield f"monodromy {FULL_CHAIN}", lambda: monodromy(full_chain(Triple(2, 7, 11)), cfg)
    for text in MONODROMY_PINS:
        yield (f"monodromy {text} --check-stability",
               lambda text=text: monodromy_json(parse_map_expr(text), cfg, check_stability=True))
    for text in RENDER_CHAINS:
        yield f"render {text}", lambda text=text: render_graph(parse_map_expr(text), cfg)


def survey():
    """(key, entry) for every entry of the table, in table order."""
    POLYNOMIALS.roots_of_f()
    for key, call in calls():
        yield key, count(call)


def _write(table: dict) -> None:
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rebuild the table from the current code")
    args = parser.parse_args()
    expected = {} if args.write else json.loads(TABLE.read_text(encoding="utf-8"))

    start = time.perf_counter()
    got, mismatches = {}, 0
    for key, entry in survey():
        got[key] = entry
        if not args.write and entry != expected.get(key):
            mismatches += 1
            print(f"MISMATCH {key}: {entry} != {expected.get(key)}")
    missing = sorted(set(expected) - set(got))
    for key in missing:
        print(f"MISSING {key}")
    seconds = time.perf_counter() - start

    if args.write:
        _write(got)
        print(f"wrote {len(got)} entries to {TABLE.name} in {seconds:.1f} s")
        return 0
    print(f"{len(got)} entries, {mismatches + len(missing)} mismatches, {seconds:.1f} s")
    return 1 if mismatches or missing else 0


if __name__ == "__main__":
    sys.exit(main())
