"""Correctness gate, run after the timed pass and outside every span.

``check`` returns the problems found with one CLI call; an item passes
when the list is empty.  The expected values come from exact sources: the
published invariants and degree-22 pair, ramification multiplicities from
``render.structural_vertices`` (rational and symbolic bookkeeping, no
continuation), Riemann-Hurwitz, and ``schemas.SCHEMAS_BY_COMMAND``.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from dessins import maps
from dessins.dessin import Constellation, canonical_hash, genus, isomorphic, passport
from dessins.perms import Permutation, compose, cycle_type, inverse, parse_cycles
from dessins.render import structural_vertices
from dessins.schemas import SCHEMAS_BY_COMMAND
from workloads import PSI_CHAIN

PUBLISHED_PSI = (
    "(1,2,3,4,5,6,7,8,9,10)(11,21)",
    "(1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)(21,22)",
)
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass
class Outcome:
    """What one CLI call returned; ``pair`` is the constellation handed to
    ``dessin_json`` during the call, when there was one."""

    exit_code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None
    pair: Constellation | None = None
    problems: list[str] = field(default_factory=list)


def exact_cycle_type(chain: str, target: int) -> tuple[int, ...]:
    """Ramification orders over 0 or 1, largest first."""
    e = maps.parse_map_expr(chain)
    return tuple(sorted((v.order for v in structural_vertices(e, target)), reverse=True))


def relabel(c: Constellation, rng: random.Random) -> Constellation:
    """Conjugate both permutations by a seeded random relabelling h:
    the new pair sends h(x) to h(g(x))."""
    n = c.degree
    h = rng.sample(range(1, n + 1), n)
    out = []
    for g in (c.g0, c.g1):
        images = [0] * n
        for x in range(1, n + 1):
            images[h[x - 1] - 1] = h[g(x) - 1]
        out.append(Permutation(tuple(images)))
    return Constellation(*out)


def _payload(item, outcome: Outcome) -> dict:
    if outcome.error is not None:
        raise AssertionError(f"raised {outcome.error}")
    if outcome.exit_code != 0:
        raise AssertionError(f"exit code {outcome.exit_code}: {outcome.stderr.strip()[:200]}")
    payload = json.loads(outcome.stdout.strip().splitlines()[-1])
    jsonschema.validate(payload, SCHEMAS_BY_COMMAND[item.command])
    return payload


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_dessin(item, payload: dict, outcome: Outcome, rng: random.Random) -> list[str]:
    p: list[str] = []
    pp = payload["passport"]
    black = pp["black"]
    _expect(p, payload["triple"] == list(item.triple), "triple echo")
    _expect(p, payload["map"] == item.chain, "map echo")
    _expect(p, payload["degree"] == 528, "degree 528")
    _expect(p, payload["genus"] == 1, "genus 1")
    _expect(p, payload["clean"] is True, "clean")
    _expect(p, pp["faces"] == [528], "one face of 528")
    _expect(p, pp["white"] == [2] * 264, "264 white 2-cycles")
    _expect(p, black.count(20) == 3 and black.count(10) == 18,
            "three black 20-cycles and eighteen 10-cycles")
    _expect(p, tuple(black) == exact_cycle_type(item.chain, 0),
            "black cycle type equals the exact ramification orders")
    c = outcome.pair
    if c is None:
        p.append("no constellation reached dessin_json")
        return p
    _expect(p, passport(c).to_json_dict() == pp, "passport of the computed pair")
    _expect(p, canonical_hash(relabel(c, rng)) == payload["canonical_hash"],
            "canonical_hash unchanged under a random relabelling")
    return p


def _check_monodromy(item, payload: dict) -> list[str]:
    p: list[str] = []
    n = item.degree
    g0 = parse_cycles(payload["g0"], n)
    g1 = parse_cycles(payload["g1"], n)
    c = Constellation(g0, g1)
    _expect(p, payload["degree"] == n, f"degree {n}")
    _expect(p, payload["stability"] is True, "stability")
    _expect(p, parse_cycles(payload["ginf"], n) == inverse(compose(g0, g1)), "ginf = (g0 g1)^-1")
    _expect(p, cycle_type(g0).parts == exact_cycle_type(item.chain, 0),
            "g0 cycle type equals the exact ramification orders over 0")
    _expect(p, cycle_type(g1).parts == exact_cycle_type(item.chain, 1),
            "g1 cycle type equals the exact ramification orders over 1")
    if not c.transitive:
        p.append("pair is not transitive")
        return p
    expected_genus = 1 if maps.parse_map_expr(item.chain).has_curve else 0
    _expect(p, genus(c) == expected_genus, f"Riemann-Hurwitz genus {expected_genus}")
    if item.chain == PSI_CHAIN:
        published = Constellation(*(parse_cycles(s, 22) for s in PUBLISHED_PSI))
        _expect(p, isomorphic(c, published)[0], "isomorphic to the published pair")
    return p


def _check_render(item, payload: dict) -> list[str]:
    p: list[str] = []
    _expect(p, payload["map"] == item.chain, "map echo")
    _expect(p, payload["arcs"] == item.degree, f"arcs == degree {item.degree}")
    root = ET.parse(Path(item.argv[item.argv.index("--out") + 1])).getroot()
    _expect(p, len(root.findall(f".//{SVG_NS}path")) == item.degree, "one <path> per edge")
    circles = len(root.findall(f".//{SVG_NS}circle"))
    _expect(p, circles == payload["black_dots"] + payload["white_dots"], "one <circle> per dot")
    return p


def check(item, outcome: Outcome, rng: random.Random) -> list[str]:
    try:
        payload = _payload(item, outcome)
        if item.command == "dessin":
            return _check_dessin(item, payload, outcome, rng)
        if item.command == "monodromy":
            return _check_monodromy(item, payload)
        return _check_render(item, payload)
    except (AssertionError, ValueError, KeyError, IndexError, OSError, ET.ParseError,
            jsonschema.ValidationError) as exc:
        return [f"{type(exc).__name__}: {(str(exc).splitlines() or [''])[0]}"[:300]]
