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
depend on the entries before it.  The calls are ``monodromy()`` of the
paper's full chain and of the full chains of the bases of the CI's orbit
pins, one per other A5 orbit, ``monodromy_json`` with the stability probe
of every chain the CI pins with ``--check-stability`` and of three chains
whose innermost tracked pair has degree 22, and ``render_graph`` of the
full chain and of the CI's render pins, all on the default configuration.

Counts do not depend on the host's speed, so a change in work shows here
even where timings cannot tell it from noise.  The script recomputes every
entry and exits 1 on any mismatch.

    PYTHONPATH=src python3 scripts/check_work.py            # check
    PYTHONPATH=src python3 scripts/check_work.py --write    # rebuild

``--write`` replaces the table with the counts of the current code; use it
only when the work is meant to change, in its own commit, and record why.
The check and the rewrite are ``committed_table.run``'s.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

from committed_table import run
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

# The paper's triple, then the bases of the CI's orbit pins, one per other A5 orbit.
TRIPLES = (Triple(2, 7, 11), Triple(1, 2, 4), Triple(1, 2, 8), Triple(1, 2, 9), Triple(1, 7, 9))

# The chains of the CI's monodromy pins, all run here with the probe.
MONODROMY_PINS = (
    "b(10,1).f.pi(3,5,8)", "b(20,2).f", "b(1,1).b(10,1).f", "b(10,1).f.pi(3,4,12)",
    "b(2,2).b(3,5)", "b(1,1).b(10,1).f.pi(2,7,11)", "b(1,1).b(1,1).b(2,3)",
    "b(1,1).b(10,1)", "b(1,1).b(1,1).b(10,1).f.pi(2,7,11)", "b(2,3).b(3,2)",
    "b(30,3).f", "b(6,5).b(1,1).b(2,2)", "b(5,5).b(4,4)",
)

# Chains whose innermost tracked pair has degree 22, the size of the
# published psi pair; none of them is a CI pin.
DEGREE_22 = ("b(20,2)", "b(21,1)", "b(10,1).b(1,1)")

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
    for t in TRIPLES:
        yield f"monodromy {format_map_expr(full_chain(t))}", lambda t=t: monodromy(full_chain(t), cfg)
    for text in MONODROMY_PINS + DEGREE_22:
        yield (f"monodromy {text} --check-stability",
               lambda text=text: monodromy_json(parse_map_expr(text), cfg, check_stability=True))
    for text in RENDER_CHAINS:
        yield f"render {text}", lambda text=text: render_graph(parse_map_expr(text), cfg)


def survey():
    """(key, entry, problem) for every entry of the table, in table order."""
    POLYNOMIALS.roots_of_f()
    for key, call in calls():
        yield key, count(call), None


if __name__ == "__main__":
    sys.exit(run(TABLE, survey))
