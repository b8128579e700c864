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
Applications, 2004, ch. 1-2).  D0 is built exactly from the plane tree
of f (see planar_dessin), and A5 acts by moving the three branched
vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .dessin import Constellation, Passport, canonical_key, doubled, genus_and_passport
from .maps import MapExpr, parse_map_expr
from .perms import Permutation, compose, from_cycles, group_order, identity, parse_cycles, power
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
        """The words joined by commas; the empty word, and no words, is 1."""
        return ",".join(word or "1" for word in self.generator_words) or "1"


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


def full_chain(t: Triple) -> MapExpr:
    return parse_map_expr(FULL_CHAIN_TEMPLATE.format(*t.as_tuple()))


@dataclass(frozen=True)
class PlanarDessin(Constellation):
    """The dessin D0 of P = b(1,1).b(10,1).f, of degree 264 with one face;
    ``root_darts[m - 1]`` is a dart of its ten-valent black vertex at root
    m of f."""

    root_darts: tuple[int, ...]

    def cover(self, t: Triple) -> Constellation:
        """The dessin of the full chain at ``t``: the double cover of D0
        branched at the vertices at r_i, r_j, r_k and at the face.

        Dart (d, s), s in Z/2, is point d + n s of the cover, n = 264:
        g1 (d, s) = (g1 d, s) and g0 (d, s) = (g0 d, s + eps(d)), where eps
        is 1 on the one dart root_darts names at each branched vertex.
        """
        n = self.degree
        # the unbranched cover, then (d, s) -> (g0 d, s + 1) at the three darts
        g0 = [*self.g0.images, *(image + n for image in self.g0.images)]
        g1 = [*self.g1.images, *(image + n for image in self.g1.images)]
        for v in t.as_tuple():
            d = self.root_darts[v - 1]
            g0[d - 1] += n
            g0[d - 1 + n] -= n
        return Constellation(Permutation(tuple(g0)), Permutation(tuple(g1)))


def planar_dessin() -> PlanarDessin:
    """D0 built exactly from the plane tree of f, with no continuation.

    The tree of b(10,1) has an edge from 0 through the white vertex 10/11
    to 1 and nine leaves at 0.  D1, the dessin of b(10,1).f, is its
    preimage under f, with 132 edges: e_m = m for m = 1..12, from root r_m
    to a preimage of 10/11; t_k = 13 + k for k = 0..11; and the nine
    leaves of each root after them.  f - 1 ~ x^11 at 0 and f - 10/11 ~
    6(x - 1)^2 at 1, so t_0..t_10 leave x = 0 at angles 2 pi k / 11, t_0
    along the real axis to x = 1, and t_11 runs from x = 1 to 12/11.  This
    relies on the roots being labeled by ascending argument
    (LabeledRoots): the preimage w_k of 10/11 at the end of t_k takes root
    k + 1, and x = 1 takes roots 1 (leaving at +pi/2) and 12 (at -pi/2).
    The counterclockwise rotations of D1 are

        s0: (e_m, nine leaves of r_m), (t_0 ... t_10), (t_11);
        s1: (t_k, e_{k+1}) for k = 1..10, (t_11, e_1, t_0, e_12),

    and s1 fixes the leaves.  D0 is D1 with a white vertex on each edge,
    dessin.doubled with a(k) = k and b(k) = k + 132, the rule that
    monodromy applies for each tracked leading b(1,1) on its transported
    labels (monodromy._pair).
    """
    n = 132
    e = list(range(1, 13))
    t = list(range(13, 25))
    leaves = iter(range(25, n + 1))
    s0 = [[d, *itertools.islice(leaves, 9)] for d in e] + [t[:11], t[11:]]
    s1 = [[t[k], e[k]] for k in range(1, 11)] + [[t[11], e[0], t[0], e[11]]]
    d1 = Constellation(from_cycles(s0, n), from_cycles(s1, n))
    g0, g1 = doubled(d1, range(1, n + 1), range(n + 1, 2 * n + 1))
    return PlanarDessin(g0, g1, tuple(e))


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


def orbit_dessins(spec: SubgroupSpec, base: Triple) -> OrbitReport:
    """One dessin per orbit triple, grouped into isomorphism classes: the
    covers of one planar dessin (see planar_dessin)."""
    orbit = tuple(sorted(orbit_triples(spec, base), key=Triple.as_tuple))
    d0 = planar_dessin()
    passports = []
    genera = []
    classes: dict[tuple, list[Triple]] = {}
    for t in orbit:
        c = d0.cover(t)
        g, p = genus_and_passport(c)
        genera.append(g)
        passports.append(p)
        classes.setdefault(canonical_key(c), []).append(t)

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
