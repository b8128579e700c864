"""Seeded inputs for the three workloads.

Each workload is a list of passes and each pass a list of CLI calls; the
timed loop stops after the first pass that ends past the time budget.
Every input is drawn from ``random.Random(seed)`` and none repeats within
a run, so a cache of results cannot pass for a speed-up.  The program only
ever sees the generated argv: no ``--seed-offset`` (it sets process-wide
state that would leak across items) and no ``--workers``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from dessins import galois, maps

PSI_CHAIN = "b(1,1).b(10,1)"

# Genus-0 two-stage chains b(m,n).b(p,q) of degree 12..36 with m+n <= 4 and
# p+q <= 9: every one of these 197 chains tracks and passes the stability
# re-run at the default configuration.  Larger exponents are left out
# because some of them fail (b(1,4).b(2,7) underflows its step,
# b(7,5).b(9,7) defeats the root finder), and a workload must not fail.
GENUS0_CHAINS = tuple(
    f"b({m},{d1 - m}).b({p},{d2 - p})"
    for d1 in (2, 3, 4)
    for d2 in range(3, 10)
    if 12 <= d1 * d2 <= 36
    for m in range(1, d1)
    for p in range(1, d2)
)

# The Belyi chains through f without a curve, up to degree 264: b(10,1) and
# b(20,2) send f's critical values 1 and 10/11 to 0 and 1.  There are only
# three, one per pass, so chain_stability runs exactly three passes.
F_CHAINS = ("b(1,1).b(10,1).f", "b(20,2).f", "b(10,1).f")
# Per pass: as many genus-0 chains (under 1.5 s each) as curve chains (2-3.5
# s each) around one f chain (1-2.6 s), so the median call of a run is one
# of the fixed f chains whatever genus-0 chains and triples the seed draws.
GENUS0_PER_PASS = CURVES_PER_PASS = 2


@dataclass(frozen=True)
class Item:
    command: str
    chain: str
    degree: int
    argv: tuple[str, ...]
    triple: tuple[int, int, int] | None = None


def _degree(chain: str) -> int:
    return maps.degree(maps.parse_map_expr(chain))


def stratified_triples(rng: random.Random) -> list[tuple[int, int, int]]:
    """All 220 triples, round-robin over the five A5 orbits (sizes 20, 60,
    60, 60, 20) in a fresh seeded orbit order each round, seeded order
    inside each orbit."""
    queues = [
        rng.sample(sorted(t.as_tuple() for t in orbit), len(orbit))
        for orbit in galois.a5_orbit_partition()
    ]
    out = []
    while any(queues):
        order = list(range(len(queues)))
        rng.shuffle(order)
        out += [queues[k].pop() for k in order if queues[k]]
    return out


def _full_chain(triple) -> str:
    return galois.FULL_CHAIN_TEMPLATE.format(*triple)


def dessin_survey(rng: random.Random, scratch: Path) -> list[list[Item]]:
    return [
        [Item("dessin", _full_chain(t), 528,
              ("dessin", "--triple", "{},{},{}".format(*t)), t)]
        for t in stratified_triples(rng)
    ]


def _monodromy_item(chain: str) -> Item:
    return Item("monodromy", chain, _degree(chain),
                ("monodromy", "--map", chain, "--check-stability"))


def chain_stability(rng: random.Random, scratch: Path) -> list[list[Item]]:
    genus0 = rng.sample(GENUS0_CHAINS, GENUS0_PER_PASS * len(F_CHAINS))
    genus0[0] = PSI_CHAIN  # checked against the published pair
    curves = ["b(10,1).f.pi({},{},{})".format(*t) for t in stratified_triples(rng)]
    passes = []
    for k, f_chain in enumerate(F_CHAINS):
        chains = (genus0[k * GENUS0_PER_PASS:(k + 1) * GENUS0_PER_PASS] + [f_chain]
                  + curves[k * CURVES_PER_PASS:(k + 1) * CURVES_PER_PASS])
        passes.append([_monodromy_item(c) for c in chains])
    return passes


def render(rng: random.Random, scratch: Path) -> list[list[Item]]:
    chains = [(PSI_CHAIN, None)] + [(_full_chain(t), t) for t in stratified_triples(rng)]
    return [
        [Item("render", chain, _degree(chain),
              ("render", "--map", chain, "--out", str(scratch / f"item{k}.svg")), t)]
        for k, (chain, t) in enumerate(chains)
    ]


WORKLOADS = {
    "dessin_survey": dessin_survey,
    "chain_stability": chain_stability,
    "render": render,
}
