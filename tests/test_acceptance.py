"""Acceptance gate: one test per shipping criterion, each printing a
[PASS]/[FAIL] line with its elapsed time (run with -rP to see them all).
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from naive_factor import naive_degree_pattern
from dessins.dessin import (
    Constellation,
    genus,
    invariants,
    isomorphic,
    passport,
)
from dessins.galois import (
    SubgroupSpec,
    Triple,
    act,
    all_triples,
    generators_a5,
    orbit_dessins,
    orbit_triples,
    verify_a5,
)
from dessins.maps import parse_map_expr
from dessins.monodromy import TrackingConfig, monodromy, verify_stability
from dessins.perms import (
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    parse_cycles,
    power,
)
from dessins.polynomials import roots_of_f, s12_evidence, scaled_integer_model

CFG = TrackingConfig()


@contextmanager
def criterion(label: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"[FAIL] {label}: {elapsed:.2f}s exceeded the {budget:.0f}s budget")
        raise AssertionError(f"{label} exceeded its time budget")
    suffix = f" ({elapsed:.2f}s" + (f" / {budget:.0f}s)" if budget else ")")
    print(f"[PASS] {label}{suffix}")


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_involution(rng: random.Random, n: int) -> Permutation:
    """Fixed-point-free involution; n must be even."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    images = [0] * n
    for a, b in zip(points[0::2], points[1::2]):
        images[a - 1] = b
        images[b - 1] = a
    return Permutation(tuple(images))


def test_c01_monodromy_b11():
    with criterion("C1 b(1,1) pair is (identity, (1,2)) exactly", budget=1.0):
        pair = monodromy(parse_map_expr("b(1,1)"), CFG)
        assert pair.g0 == identity(2)
        assert pair.g1 == parse_cycles("(1,2)", 2)


def test_c02_monodromy_degree_22():
    with criterion("C2 degree-22 chain matches the published pair", budget=10.0):
        pair = monodromy(parse_map_expr("b(1,1).b(10,1)"), CFG)
        assert pair.g0.degree == 22
        assert cycle_type(pair.g0).parts == (10, 2) + (1,) * 10
        assert cycle_type(pair.g1).parts == (2,) * 11
        published = Constellation(
            parse_cycles("(1,2,3,4,5,6,7,8,9,10)(11,21)", 22),
            parse_cycles(
                "(1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)(21,22)",
                22,
            ),
        )
        ok, _ = isomorphic(Constellation(pair.g0, pair.g1), published)
        assert ok
        assert genus(published) == 0
        assert genus(Constellation(pair.g0, pair.g1)) == 0


def test_c03_full_chain_528():
    with criterion("C3 full chain at (2,7,11): 528, clean, 3x20 + 18x10, "
                   "one face, genus 1, stable", budget=300.0):
        e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
        pair = monodromy(e, CFG)
        assert pair.g0.degree == 528
        c = Constellation(pair.g0, pair.g1)
        black = cycle_type(pair.g0).parts
        assert invariants(c).bouquets == black
        assert black.count(20) == 3
        assert black.count(10) == 18
        assert len(cycle_decomposition(compose(pair.g0, pair.g1))) == 1
        assert genus(c) == 1
        assert verify_stability(e, CFG)


def test_c04_a5_relations():
    with criterion("C4 a^5 = b^3 = (ab)^2 = id, published product, order 60",
                   budget=1.0):
        report = verify_a5()
        assert report.relations_hold
        assert report.order == 60
        a, b = generators_a5()
        assert format_cycles(compose(a, b)) == "(1,2)(3,6)(4,11)(5,7)(8,10)(9,12)"


def test_c05_published_orbits():
    with criterion("C5 orbits of (2,7,11) under a, b, ab are the published sets",
                   budget=1.0):
        base = Triple(2, 7, 11)
        assert orbit_triples(SubgroupSpec(("a",)), base) == frozenset({
            Triple(2, 7, 11), Triple(3, 7, 8), Triple(4, 8, 9),
            Triple(5, 9, 10), Triple(6, 10, 11),
        })
        assert orbit_triples(SubgroupSpec(("b",)), base) == frozenset({
            Triple(1, 5, 6), Triple(2, 7, 11), Triple(3, 4, 8),
        })
        assert orbit_triples(SubgroupSpec(("ab",)), base) == frozenset({
            Triple(1, 4, 5), Triple(2, 7, 11),
        })


def test_c06_orbit_dessin_invariance():
    with criterion("C6 a-orbit: five dessins, all genus 1, one face, "
                   "shared passport", budget=1500.0):
        report = orbit_dessins(SubgroupSpec(("a",)), Triple(2, 7, 11))
        assert len(report.orbit) == 5
        assert report.genus == (1, 1, 1, 1, 1)
        assert report.shared_passport
        assert len(set(report.passports)) == 1
        shared = report.passports[0]
        assert shared.faces.parts == (528,)
        assert shared.black.parts.count(20) == 3
        assert shared.black.parts.count(10) == 18
        assert shared.white.parts == (2,) * 264


def test_c07_roots_of_f():
    with criterion("C7 roots: residuals, sum, product, argument gaps, "
                   "integer-model match"):
        lr = roots_of_f()
        assert len(lr.roots) == 12
        assert all(r.residual < 1e-10 for r in lr.roots)
        values = list(lr.values)
        assert abs(sum(values) - 12 / 11) < 1e-9
        assert abs(math.prod(values) - 1) < 1e-9
        args = [r.argument for r in lr.roots]
        assert min(b - a for a, b in zip(args, args[1:] + [args[0] + 2 * math.pi])) > 1e-3

        scaled = sorted((11 * v for v in values), key=lambda z: (z.real, z.imag))
        integer_coeffs = list(scaled_integer_model())
        reference = sorted(
            np.roots(integer_coeffs[::-1]), key=lambda z: (z.real, z.imag)
        )
        for ours, ref in zip(scaled, reference):
            assert abs(ours - ref) < 1e-8


def test_c08_s12_evidence():
    with criterion("C8 three-witness S12 certificate, naive-oracle confirmed",
                   budget=30.0):
        cert = s12_evidence(2000)
        coeffs = list(scaled_integer_model())

        assert cert.witness_transitive.degrees == (12,)
        assert cert.witness_11cycle.degrees == (1, 11)
        evens = [d for d in cert.witness_transposition.degrees if d % 2 == 0]
        assert evens == [2]

        for witness in (cert.witness_transitive, cert.witness_11cycle,
                        cert.witness_transposition):
            assert naive_degree_pattern(coeffs, witness.prime) == witness.degrees


def test_c09_property_battery():
    rng = random.Random(20260815)
    cases = 0

    with criterion("C9 randomized battery: permutation algebra, Euler "
                   "integrality, clean valency, action associativity"):
        # permutation algebra laws
        for _ in range(350):
            n = rng.randrange(2, 13)
            p = random_permutation(rng, n)
            q = random_permutation(rng, n)
            r = random_permutation(rng, n)
            assert compose(compose(p, q), r) == compose(p, compose(q, r))
            assert compose(p, inverse(p)) == identity(n)
            x = rng.randrange(1, n + 1)
            assert compose(p, q)(x) == q(p(x))
            k = rng.randrange(-6, 7)
            assert power(p, k + 1) == compose(power(p, k), p)
            assert parse_cycles(format_cycles(p), n) == p
            conj = compose(compose(inverse(q), p), q)
            assert cycle_type(conj) == cycle_type(p)
            cases += 1

        # Euler-formula integrality on random transitive pairs
        checked = 0
        while checked < 250:
            n = rng.randrange(3, 13)
            g0 = random_permutation(rng, n)
            g1 = random_permutation(rng, n)
            if not is_transitive([g0, g1]):
                continue
            c = Constellation(g0, g1)
            chi = (
                len(cycle_decomposition(g0))
                + len(cycle_decomposition(g1))
                + len(cycle_decomposition(compose(g0, g1)))
                - n
            )
            assert chi % 2 == 0 and chi <= 2
            g = genus(c)
            assert isinstance(g, int) and g >= 0
            checked += 1
            cases += 1

        # clean maps: white valencies all 2, bouquets mirror black profile
        for _ in range(250):
            n = 2 * rng.randrange(1, 9)
            g0 = random_permutation(rng, n)
            g1 = random_involution(rng, n)
            c = Constellation(g0, g1)
            assert cycle_type(g1).parts == (2,) * (n // 2)
            if c.transitive:
                assert invariants(c).bouquets == cycle_type(g0).parts
            cases += 1

        # action associativity over every triple with random words
        letters = "abAB"
        for t in all_triples():
            for _ in range(2):
                w1 = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
                w2 = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
                assert act(w1 + w2, t) == act(w2, act(w1, t))
                cases += 1

        assert cases >= 1000
    print(f"       battery size: {cases} randomized cases, zero failures")
