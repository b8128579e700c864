"""An A5 action on root-index triples and the curves and dessins it moves.

The two generators below satisfy a^5 = b^3 = (ab)^2 = 1 and generate a
group of order 60 inside the symmetric group on the 12 root labels.  Words
over {a, b, a^-1, b^-1} are written with lowercase letters for the
generators and uppercase for their inverses and multiply left to right, so
the word "ab" acts by a first and then b.

A triple of distinct root labels names the curve y^2 = (x-ri)(x-rj)(x-rk);
the action permutes the 220 sorted triples, and per orbit the full
covering chain b(1,1).b(10,1).f.pi(i,j,k) yields one dessin per triple.

That dessin is read off one planar dessin.  D0, the dessin of the
polynomial P = b(1,1).b(10,1).f, has 264 edges, one face and a ten-valent
black vertex at each root r_m of f; the chain at (i, j, k) is P after the
double cover pi, branched over r_i, r_j, r_k and infinity, so its dessin
is the double cover of D0 branched at the vertices at r_i, r_j, r_k and
at the face (Lando and Zvonkin, Graphs on Surfaces and Their
Applications, 2004, ch. 1-2).  D0 is tracked once per call, and A5 acts
by moving the three branched vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import dessin as dessin_mod
from . import monodromy as monodromy_mod
from .dessin import Constellation, Passport
from .maps import MapExpr, parse_map_expr
from .monodromy import TrackingConfig, TrackingError
from .perms import Permutation, compose, cycle_decomposition, group_order, identity, parse_cycles, power
from .polynomials import roots_of_f


class BadWordError(ValueError):
    pass


A_CYCLES = "(2,3,4,5,6)(7,8,9,10,11)"
B_CYCLES = "(1,2,3)(4,6,7)(5,11,8)(9,10,12)"


def generators_a5() -> tuple[Permutation, Permutation]:
    return parse_cycles(A_CYCLES, 12), parse_cycles(B_CYCLES, 12)


@dataclass(frozen=True)
class A5Report:
    relations_hold: bool
    order: int


def verify_a5() -> A5Report:
    a, b = generators_a5()
    e = identity(12)
    ab = compose(a, b)
    relations = power(a, 5) == e and power(b, 3) == e and compose(ab, ab) == e
    return A5Report(relations_hold=relations, order=group_order([a, b], cap=10000))


def word_permutation(word: str) -> Permutation:
    """Evaluate a word left to right; empty words give the identity."""
    a, b = generators_a5()
    letters = {"a": a, "b": b, "A": power(a, -1), "B": power(b, -1)}
    acc = identity(12)
    for ch in word:
        if ch not in letters:
            raise BadWordError(f"unknown letter {ch!r}; alphabet is a, b, A, B")
        acc = compose(acc, letters[ch])
    return acc


@dataclass(frozen=True)
class Triple:
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        t = (self.i, self.j, self.k)
        if len(set(t)) != 3 or not all(1 <= v <= 12 for v in t):
            raise ValueError(f"{t} is not a triple of distinct labels in 1..12")
        if not self.i < self.j < self.k:
            raise ValueError(f"{t} must be sorted ascending")

    @classmethod
    def of(cls, labels: Iterable[int]) -> "Triple":
        i, j, k = sorted(labels)
        return cls(i, j, k)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


@dataclass(frozen=True)
class SubgroupSpec:
    """Generating words for a subgroup of the action group."""

    generator_words: tuple[str, ...]

    def permutations(self) -> tuple[Permutation, ...]:
        return tuple(word_permutation(w) for w in self.generator_words)

    def label(self) -> str:
        return ",".join(self.generator_words) if self.generator_words else "1"


def act(word: str, t: Triple) -> Triple:
    """Apply the permutation of a word to the three labels and resort.

    Acts on the right: act(w1 + w2, t) == act(w2, act(w1, t)).
    """
    g = word_permutation(word)
    return Triple.of(g(v) for v in t.as_tuple())


def all_triples() -> tuple[Triple, ...]:
    return tuple(
        Triple(i, j, k) for i, j, k in itertools.combinations(range(1, 13), 3)
    )


def orbit_triples(spec: SubgroupSpec, base: Triple) -> frozenset[Triple]:
    gens = spec.permutations()
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                image = Triple.of(g(v) for v in t.as_tuple())
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return frozenset(seen)


def a5_orbit_partition() -> list[frozenset[Triple]]:
    """Orbits of the full group on all 220 triples."""
    spec = SubgroupSpec(("a", "b"))
    remaining = set(all_triples())
    out = []
    while remaining:
        base = min(remaining, key=Triple.as_tuple)
        orb = orbit_triples(spec, base)
        out.append(orb)
        remaining -= orb
    return out


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class CurveModel:
    """Monic cubic right-hand side of y^2 = c(x), ascending coefficients."""

    coeffs: tuple[complex, complex, complex, complex]
    discriminant: complex


def curve_from_triple(t: Triple) -> CurveModel:
    labeled = roots_of_f()
    ri, rj, rk = (labeled[v] for v in t.as_tuple())
    p = -(ri + rj + rk)
    q = ri * rj + ri * rk + rj * rk
    s = -(ri * rj * rk)
    disc = (
        18 * p * q * s - 4 * p**3 * s + p**2 * q**2 - 4 * q**3 - 27 * s**2
    )
    return CurveModel(coeffs=(s, q, p, 1.0 + 0j), discriminant=disc)


def j_from_cubic_roots(r1: complex, r2: complex, r3: complex) -> complex:
    """j-invariant of y^2 = (x-r1)(x-r2)(x-r3)."""
    p = -(r1 + r2 + r3)
    q = r1 * r2 + r1 * r3 + r2 * r3
    s = -(r1 * r2 * r3)
    # depress the cubic; j only depends on the shifted coefficients
    a = q - p * p / 3
    b = 2 * p**3 / 27 - p * q / 3 + s
    denom = 4 * a**3 + 27 * b * b
    if denom == 0:
        raise ZeroDivisionError("singular cubic has no j-invariant")
    return 1728 * 4 * a**3 / denom


def j_invariant(t: Triple) -> complex:
    labeled = roots_of_f()
    r1, r2, r3 = (labeled[v] for v in t.as_tuple())
    return j_from_cubic_roots(r1, r2, r3)


# ---------------------------------------------------------------------------
# dessins along an orbit

FULL_CHAIN_TEMPLATE = "b(1,1).b(10,1).f.pi({},{},{})"
PLANAR_CHAIN = "b(1,1).b(10,1).f"


def full_chain(t: Triple) -> MapExpr:
    return parse_map_expr(FULL_CHAIN_TEMPLATE.format(*t.as_tuple()))


@dataclass(frozen=True)
class PlanarDessin:
    """The dessin D0 of P = b(1,1).b(10,1).f, of degree 264 with one face;
    ``root_darts[m - 1]`` is a dart of its ten-valent black vertex at root
    m of f."""

    g0: Permutation
    g1: Permutation
    root_darts: tuple[int, ...]

    def cover(self, t: Triple) -> Constellation:
        """The dessin of the full chain at ``t``: the double cover of D0
        branched at the vertices at r_i, r_j, r_k and at the face.

        Dart (d, s), s in Z/2, is point d + n s of the cover, n = 264:
        g1 (d, s) = (g1 d, s) and g0 (d, s) = (g0 d, s + eps(d)), where eps
        is 1 on the one dart root_darts names at each branched vertex.
        """
        n = self.g0.degree
        flips = {self.root_darts[v - 1] for v in t.as_tuple()}
        g0 = [0] * (2 * n)
        g1 = [0] * (2 * n)
        for d in range(1, n + 1):
            flip = d in flips
            for s in (0, 1):
                g0[d - 1 + s * n] = self.g0(d) + n * (s ^ flip)
                g1[d - 1 + s * n] = self.g1(d) + n * s
        return Constellation(Permutation(tuple(g0)), Permutation(tuple(g1)))


def planar_dessin(cfg: TrackingConfig = TrackingConfig()) -> PlanarDessin:
    """D0, tracked once, with its ten-valent vertices labeled by the roots
    of f.

    Each vertex takes the label of the root nearest the mean x of its
    darts, the fiber points over 1/2 around it.  Raises TrackingError
    unless there are exactly 12 ten-valent vertices, they take the 12
    labels one to one, and each runner-up root is at least
    separation_factor times farther from the mean than the nearest.
    """
    points, pair, _ = monodromy_mod._base_and_probe(
        parse_map_expr(PLANAR_CHAIN), cfg, probe=False)
    tens = [c for c in cycle_decomposition(pair.g0) if len(c) == 10]
    if len(tens) != 12:
        raise TrackingError(f"{len(tens)} ten-valent black vertices, expected 12")
    roots = np.array(roots_of_f().values)
    darts = {}
    for cycle in tens:
        mean = sum(points.x[d - 1] for d in cycle) / len(cycle)
        distance = np.abs(roots - mean)
        nearest, second = np.argsort(distance)[:2]
        if distance[second] < cfg.separation_factor * distance[nearest]:
            raise TrackingError(
                f"vertex at {mean:.6f} is {distance[nearest]:.3e} from root "
                f"{nearest + 1} and {distance[second]:.3e} from root {second + 1}, "
                f"not separation_factor {cfg.separation_factor} apart")
        darts[int(nearest) + 1] = cycle[0]
    if len(darts) != 12:
        raise TrackingError("two ten-valent vertices took the same root label")
    return PlanarDessin(pair.g0, pair.g1, tuple(darts[m] for m in range(1, 13)))


@dataclass(frozen=True)
class OrbitReport:
    subgroup: str
    base_triple: Triple
    orbit: tuple[Triple, ...]
    passports: tuple[Passport, ...]
    genus: tuple[int, ...]
    iso_classes: tuple[tuple[Triple, ...], ...]
    shared_passport: bool

    def to_json_dict(self) -> dict:
        return {
            "subgroup": self.subgroup,
            "base_triple": list(self.base_triple.as_tuple()),
            "orbit": [list(t.as_tuple()) for t in self.orbit],
            "passports": [p.to_json_dict() for p in self.passports],
            "genus": list(self.genus),
            "iso_classes": [
                [list(t.as_tuple()) for t in cls] for cls in self.iso_classes
            ],
            "shared_passport": self.shared_passport,
        }


def orbit_dessins(
    spec: SubgroupSpec,
    base: Triple,
    cfg: TrackingConfig = TrackingConfig(),
) -> OrbitReport:
    """One dessin per orbit triple, grouped into isomorphism classes: the
    covers of one planar dessin (see planar_dessin)."""
    orbit = tuple(sorted(orbit_triples(spec, base), key=Triple.as_tuple))
    d0 = planar_dessin(cfg)
    passports = []
    genera = []
    classes: dict[tuple, list[Triple]] = {}
    for t in orbit:
        c = d0.cover(t)
        cf = dessin_mod.canonical_form(c)
        passports.append(dessin_mod.passport(c))
        genera.append(dessin_mod.genus(c))
        classes.setdefault((cf.g0.images, cf.g1.images), []).append(t)

    iso_classes = tuple(
        tuple(sorted(members, key=Triple.as_tuple))
        for _, members in sorted(
            classes.items(), key=lambda kv: kv[1][0].as_tuple()
        )
    )
    return OrbitReport(
        subgroup=spec.label(),
        base_triple=base,
        orbit=orbit,
        passports=tuple(passports),
        genus=tuple(genera),
        iso_classes=iso_classes,
        shared_passport=len({p for p in passports}) == 1,
    )
