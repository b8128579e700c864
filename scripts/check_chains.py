#!/usr/bin/env python3
"""Exact check of a fixed survey of chains and CLI calls against a table.

The committed table ``check_chains.json`` holds, for each chain of the
survey, the sha256 of the JSON of ``monodromy_json(e, cfg,
check_stability=True)`` and of ``render_graph(e, cfg).svg``, and for
each CLI call the sha256 of its stdout.  Where a call raises, or a CLI
call exits nonzero, the entry holds the exception class and message
instead.  Each entry also records whether the calls raised a
RuntimeWarning.  The script recomputes every entry and exits 1 on any
mismatch, so a change that moves one label, one output byte, one error
message or one warning anywhere in the survey is caught.

The survey is fixed: the workload chains of perfbench (copied below), every
fifth ``b(10,1).f.pi`` triple, every eleventh full chain, chains under one
or two leading b(1,1)s, the chains render refuses, chains that are not
Belyi or whose fiber the root finder cannot solve, chains that track a pair
of degree 22, 40 random b-chains from
``random.Random(2222)``, and coarse tracking configurations.

    PYTHONPATH=src python3 scripts/check_chains.py            # check
    PYTHONPATH=src python3 scripts/check_chains.py --write    # rebuild

``--write`` replaces the table with the output of the current code; use it
only when the output is meant to change, and record why.  The check and
the rewrite are ``committed_table.run``'s.
"""

import json
import random
import sys
import warnings
from pathlib import Path

from committed_table import cli_stdout, run, sha256
from dessins.galois import all_triples, full_chain
from dessins.maps import format_map_expr, parse_map_expr
from dessins.monodromy import TrackingConfig, monodromy_json
from dessins.render import render_graph

TABLE = Path(__file__).with_name("check_chains.json")

# perfbench's genus-0 and f workload chains (perfbench/workloads.py).
GENUS0_CHAINS = tuple(
    f"b({m},{d1 - m}).b({p},{d2 - p})"
    for d1 in (2, 3, 4)
    for d2 in range(3, 10)
    if 12 <= d1 * d2 <= 36
    for m in range(1, d1)
    for p in range(1, d2)
)
F_CHAINS = ("b(1,1).b(10,1).f", "b(20,2).f", "b(10,1).f")

LEADING_DOUBLINGS = (
    "b(1,1)", "b(1,1).b(1,1)", "b(1,1).b(10,1)", "b(1,1).b(1,1).b(10,1)",
    "b(1,1).b(2,3)", "b(1,1).b(1,1).b(2,3)", "b(1,1).b(1,1).b(10,1).f",
    "b(1,1).b(20,2).f.pi(1,6,9)", "b(1,1).b(1,1).b(10,1).f.pi(2,7,11)",
    "b(6,5).b(1,1).b(2,2)",
)

# Chains whose loops track but whose drawing render refuses.
RENDER_REFUSALS = (
    "b(6,2).b(5,1).b(5,1)", "b(5,2).b(5,1).b(1,4)", "b(1,1).b(30,3).f",
    "b(4,2).b(3,2).b(4,4)", "b(3,1).b(4,4).b(4,1)", "b(3,3).b(4,2).b(1,3)",
    "b(5,2).b(4,1).b(2,2)", "b(4,3).b(2,4).b(3,1)", "b(2,1).b(5,2).b(4,1)",
    "b(4,3).b(2,1).b(2,5)",
)

# Chains branched off {0, 1, inf}, an overflow, and fibers that stall.
REFUSED = (
    "f", "f.pi(2,7,11)", "b(1,2).f", "b(1,11).f", "b(1,1).b(2,1).f",
    "b(2,3).pi(1,2,3)", "b(1,11).f.pi(2,7,11)", "b(600,600)",
    "b(1,12)", "b(2,10)", "b(1,1).b(1,12)", "b(25,25)",
)

OTHER_CHAINS = (
    "b(30,3).f", "b(2,3).b(3,2)", "b(2,2).b(3,5)", "b(5,5).b(4,4)",
    "b(10,1).f.pi(3,4,12)",
)

# Chains whose innermost tracked pair has degree 22, the size of the
# published psi pair.
DEGREE_22 = ("b(20,2)", "b(21,1)", "b(10,1).b(1,1)")

# Each coarse configuration runs on each of these chains.
COARSE_CONFIGS = (
    {"initial_step": 0.33}, {"initial_step": 0.125}, {"initial_step": 1},
    {"match_tol": 1e-15}, {"separation_factor": 1e12},
)
COARSE_CHAINS = ("b(2,3).b(3,2)", "b(10,1).f.pi(2,7,11)", "b(1,1).b(10,1).f", "b(1,1).b(2,3)")

CLI_CALLS = (
    ["roots"],
    ["evidence"],
    ["dessin", "--triple", "2,7,11"],
    ["orbit", "--triple", "2,7,11", "--subgroup", "ab"],
)


def random_chains(count: int = 40, max_degree: int = 200) -> list[str]:
    """``count`` distinct chains of one to three b(m,n) with m, n <= 5 and
    degree at most ``max_degree``, drawn from random.Random(2222)."""
    rng = random.Random(2222)
    out = []
    while len(out) < count:
        stages = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        degree = 1
        for m, n in stages:
            degree *= m + n
        text = ".".join(f"b({m},{n})" for m, n in stages)
        if degree <= max_degree and text not in out:
            out.append(text)
    return out


def chains() -> list[str]:
    """The survey's chains, in table order, each once."""
    triples = all_triples()
    curves = ["b(10,1).f.pi({},{},{})".format(*t.as_tuple()) for t in triples[::5]]
    full = [format_map_expr(full_chain(t)) for t in triples[::11]]
    survey = (list(GENUS0_CHAINS) + list(F_CHAINS) + curves + full + list(LEADING_DOUBLINGS)
              + list(RENDER_REFUSALS) + list(REFUSED) + list(OTHER_CHAINS) + list(DEGREE_22)
              + random_chains())
    return list(dict.fromkeys(survey))


def _outcome(call) -> str:
    """The sha256 of the text ``call`` returns, or the class and message of
    what it raises."""
    try:
        return sha256(call())
    except Exception as exc:  # noqa: BLE001  (the table records every failure)
        return f"{type(exc).__name__}: {exc}"


def _entry(calls: dict) -> dict:
    """The outcome of each of ``calls``, and whether any of them raised a
    RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry = {name: _outcome(call) for name, call in calls.items()}
    entry["runtime_warning"] = any(issubclass(w.category, RuntimeWarning) for w in caught)
    return entry


def chain_entry(text: str, cfg: TrackingConfig = TrackingConfig()) -> dict:
    def tracked():
        return json.dumps(monodromy_json(parse_map_expr(text), cfg, check_stability=True))

    def drawn():
        return render_graph(parse_map_expr(text), cfg).svg

    return _entry({"monodromy": tracked, "render_svg": drawn})


def survey():
    """(key, entry, problem) for every entry of the table, in table order."""
    for text in chains():
        yield text, chain_entry(text), None
    for overrides in COARSE_CONFIGS:
        cfg = TrackingConfig(**overrides)
        for text in COARSE_CHAINS:
            yield f"{text} {json.dumps(overrides)}", chain_entry(text, cfg), None
    for argv in CLI_CALLS:
        yield "dessins " + " ".join(argv), _entry({"stdout": lambda: cli_stdout(argv)}), None


if __name__ == "__main__":
    sys.exit(run(TABLE, survey))
