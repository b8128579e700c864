#!/usr/bin/env python3
"""End-to-end reproduction of the published computation.

Walks the whole chain: labeled roots, the three monodromy pairs, the A5
action with its three small orbits of (2,7,11), and the factorization
evidence for the Galois group.  Prints a plain-text report; exits nonzero
if anything disagrees with the recorded values.
"""

import argparse
import sys
import time

from dessins.dessin import Constellation, genus, invariants, isomorphic
from dessins.galois import (
    SubgroupSpec,
    Triple,
    generators_a5,
    orbit_triples,
    verify_a5,
)
from dessins.maps import parse_map_expr
from dessins.monodromy import TrackingConfig, monodromy, verify_stability
from dessins.perms import compose, cycle_type, format_cycles, parse_cycles
from dessins.polynomials import roots_of_f, s12_evidence

PUBLISHED_PSI_G0 = "(1,2,3,4,5,6,7,8,9,10)(11,21)"
PUBLISHED_PSI_G1 = (
    "(1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)(21,22)"
)
PUBLISHED_AB = "(1,2)(3,6)(4,11)(5,7)(8,10)(9,12)"

failures = 0


def check(ok: bool, label: str) -> None:
    global failures
    mark = "ok" if ok else "MISMATCH"
    print(f"  [{mark}] {label}")
    if not ok:
        failures += 1


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    cfg = TrackingConfig()
    t0 = time.perf_counter()

    print("roots of f(x) = x^12 - (12/11) x^11 + 1")
    lr = roots_of_f()
    check(max(r.residual for r in lr.roots) < 1e-10, "all residuals < 1e-10")
    check(abs(sum(lr.values) - 12 / 11) < 1e-9, "root sum = 12/11")

    print("\nmonodromy of b(1,1)")
    pair = monodromy(parse_map_expr("b(1,1)"), cfg)
    print(f"  g0 = {format_cycles(pair.g0)}   g1 = {format_cycles(pair.g1)}")
    check(format_cycles(pair.g0) == "(1)(2)", "g0 = (1)(2)")
    check(format_cycles(pair.g1) == "(1,2)", "g1 = (1,2)")

    print("\nmonodromy of b(1,1).b(10,1), degree 22")
    pair = monodromy(parse_map_expr("b(1,1).b(10,1)"), cfg)
    published = Constellation(
        parse_cycles(PUBLISHED_PSI_G0, 22), parse_cycles(PUBLISHED_PSI_G1, 22)
    )
    ok, _ = isomorphic(pair, published)
    check(ok, "dessin-isomorphic to the published pair")
    check(genus(pair) == 0, "genus 0")

    print("\nfull chain b(1,1).b(10,1).f.pi(2,7,11), degree 528")
    e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
    pair = monodromy(e, cfg)
    inv = invariants(pair)
    black = cycle_type(pair.g0).parts
    print(f"  black profile: three 20s: {black.count(20) == 3}, "
          f"eighteen 10s: {black.count(10) == 18}")
    check(black.count(20) == 3 and black.count(10) == 18, "bouquet counts")
    check(inv.face_count == 1 and inv.genus == 1, "single face on a torus")
    check(verify_stability(e, cfg), "stable under re-tracking")

    print("\nA5 action on root labels")
    report = verify_a5()
    check(report.relations_hold and report.order == 60,
          "a^5 = b^3 = (ab)^2 = id, order 60")
    a, b = generators_a5()
    check(format_cycles(compose(a, b)) == PUBLISHED_AB,
          "ab matches the published product")
    base = Triple(2, 7, 11)
    for word, size in (("a", 5), ("b", 3), ("ab", 2)):
        orb = sorted(orbit_triples(SubgroupSpec((word,)), base),
                     key=Triple.as_tuple)
        print(f"  <{word}> orbit: {[t.as_tuple() for t in orb]}")
        check(len(orb) == size, f"<{word}> orbit has {size} triples")

    print("\nfactorization evidence for Gal(f) = S12")
    cert = s12_evidence(2000)
    for name, w in (
        ("transitive", cert.witness_transitive),
        ("11-cycle", cert.witness_11cycle),
        ("transposition", cert.witness_transposition),
    ):
        print(f"  {name}: p = {w.prime}, degrees {list(w.degrees)}")
    check(cert.witness_transitive.degrees == (12,), "irreducible witness")

    print(f"\n{failures} mismatches, {time.perf_counter() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
