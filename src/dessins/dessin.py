"""Constellations and dessin invariants.

A constellation is a pair of permutations (g0, g1) of the same degree; its
points are the edges of a bipartite map, cycles of g0 the black vertices,
cycles of g1 the white vertices, and cycles of the inverse of the product
"g0 then g1" the faces.  For a connected pair Euler's relation

    2 - 2 * genus = cycles(g0) + cycles(g1) + cycles(g_inf) - degree

fixes the genus.  A clean constellation is one where every white vertex
has valency exactly 2; there the black valencies are the bouquet orders of
the underlying graph.

Isomorphism is simultaneous conjugacy, decided through a canonical form:
the least relabeled pair over breadth-first relabelings rooted at every
point (neighbors visited g0 first, then g1), the first root in point order
winning a tie.  The relabeled g0 of a root is known position by position
as its BFS runs, and the root is abandoned at the first position where it
exceeds the best pair so far; roots that tie run to the end and are
compared in full.  All roots share one label list and one stamp list, and
a root's relabeled pair is built only when it completes its BFS.  So the
search takes O(n^2) time in the worst case, a dessin whose roots all tie
(one with automorphisms, such as a cyclic pair), and O(n) memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .perms import (
    CycleType,
    Permutation,
    cycle_decomposition,
    cycle_type,
    is_transitive,
    orbit,
)


class NotConnectedError(ValueError):
    pass


class CleannessRequiredError(ValueError):
    pass


@dataclass(frozen=True)
class Constellation:
    g0: Permutation
    g1: Permutation

    def __post_init__(self) -> None:
        if self.g0.degree != self.g1.degree:
            raise ValueError("g0 and g1 must share a degree")

    def __iter__(self):
        return iter((self.g0, self.g1))

    @property
    def degree(self) -> int:
        return self.g0.degree

    @cached_property
    def transitive(self) -> bool:
        return is_transitive((self.g0, self.g1))


def doubled(c: Constellation, a: Sequence[int], b: Sequence[int]) -> Constellation:
    """c with a white vertex on each edge, the pair of b(1,1) after a
    Belyi map of pair c (Lando and Zvonkin, Graphs on Surfaces and Their
    Applications, 2004).  Point k of c becomes a(k) = a[k - 1] and b(k) =
    b[k - 1], which together label 1..2n, and

        g0: a(k) -> a(g0 k),  b(k) -> b(g1 k);    g1: a(k) <-> b(k).
    """
    a, b = [0, *a], [0, *b]  # padded, so that a[k] is a(k)
    g0 = [0] * (2 * c.degree + 1)  # padded, so that g0[p] is the image of p
    g1 = [0] * (2 * c.degree + 1)
    for ak, bk, s0k, s1k in zip(a[1:], b[1:], c.g0.images, c.g1.images):
        g0[ak] = a[s0k]
        g0[bk] = b[s1k]
        g1[ak] = bk
        g1[bk] = ak
    return Constellation(Permutation(tuple(g0[1:])), Permutation(tuple(g1[1:])))


def _orbits(c: Constellation) -> list[list[int]]:
    """Connected components, each sorted, in order of their least point."""
    seen: set[int] = set()
    out = []
    for start in range(1, c.degree + 1):
        if start not in seen:
            comp = orbit((c.g0, c.g1), start)
            seen |= comp
            out.append(sorted(comp))
    return out


def g_infinity(c: Constellation) -> Permutation:
    """The inverse of "g0 then g1", built in one pass."""
    g1 = c.g1.images
    out = [0] * c.degree
    for i, image in enumerate(c.g0.images, 1):
        out[g1[image - 1] - 1] = i
    return Permutation(tuple(out))


def faces(c: Constellation) -> tuple[tuple[int, ...], ...]:
    return cycle_decomposition(g_infinity(c))


def genus(c: Constellation) -> int:
    return genus_and_passport(c)[0]


@dataclass(frozen=True)
class Passport:
    black: CycleType
    white: CycleType
    faces: CycleType

    def to_json_dict(self) -> dict:
        return {
            "black": list(self.black.parts),
            "white": list(self.white.parts),
            "faces": list(self.faces.parts),
        }


def passport(c: Constellation) -> Passport:
    return Passport(
        black=cycle_type(c.g0),
        white=cycle_type(c.g1),
        faces=cycle_type(g_infinity(c)),
    )


def genus_and_passport(c: Constellation) -> tuple[int, Passport]:
    """Genus and passport, from one cycle type each of g0, g1 and g_inf."""
    if not c.transitive:
        raise NotConnectedError("genus needs a connected constellation")
    p = passport(c)
    chi = len(p.black.parts) + len(p.white.parts) + len(p.faces.parts) - c.degree
    if chi % 2 != 0 or chi > 2:
        raise AssertionError(f"Euler characteristic {chi} is impossible")
    return (2 - chi) // 2, p


def _all_twos(white: CycleType) -> bool:
    return all(length == 2 for length in white.parts)


def is_clean(c: Constellation) -> bool:
    return _all_twos(cycle_type(c.g1))


def bouquet_profile(c: Constellation) -> tuple[int, ...]:
    """Black valencies of a clean constellation, descending; these are the
    bouquet orders of the graph obtained by shrinking white vertices."""
    if not is_clean(c):
        raise CleannessRequiredError("bouquet profile needs a clean constellation")
    return cycle_type(c.g0).parts


@dataclass(frozen=True)
class DessinInvariants:
    genus: int
    black_count: int
    white_count: int
    face_count: int
    bouquets: tuple[int, ...] | None


def invariants(c: Constellation) -> DessinInvariants:
    g, p = genus_and_passport(c)
    return DessinInvariants(
        genus=g,
        black_count=len(p.black.parts),
        white_count=len(p.white.parts),
        face_count=len(p.faces.parts),
        bouquets=p.black.parts if _all_twos(p.white) else None,
    )


# ---------------------------------------------------------------------------
# canonical form and isomorphism


CanonicalKey = tuple[tuple[int, ...], tuple[int, ...]]


def _component_canonical(
    g0: list[int], g1: list[int], points: list[int]
) -> tuple[CanonicalKey, dict[int, int]]:
    """Least relabeled pair over all BFS roots in one component, with the
    winning relabeling (old point -> 1..k); the first root in ``points``
    order wins a tie.

    The BFS from a root visits neighbors g0 before g1.  Label i + 1 is
    dequeued at position i, so the relabeled g0 at position i is known
    while the BFS runs, and a root is dropped at the first position where
    it exceeds the best pair so far.  All roots share one label list and
    one stamp list: a point is labeled in the current BFS when its stamp
    is the current root's number, so nothing is reset between roots.
    """
    g0 = [0, *g0]  # padded, so that g0[x] is the image of x
    g1 = [0, *g1]
    label = [0] * len(g0)
    stamp = [0] * len(g0)
    best_a = best_b = best_order = None
    for number, root in enumerate(points, 1):
        label[root] = 1
        stamp[root] = number
        order = [root]
        tied = best_a is not None
        # order grows while it is walked: it is the BFS queue
        for i, x in enumerate(order):
            y = g0[x]
            if stamp[y] != number:
                stamp[y] = number
                order.append(y)
                label[y] = len(order)
            if tied:
                ai = label[y]
                if ai > best_a[i]:
                    break
                tied = ai == best_a[i]
            y = g1[x]
            if stamp[y] != number:
                stamp[y] = number
                order.append(y)
                label[y] = len(order)
        else:
            if len(order) != len(points):
                raise NotConnectedError("relabeling did not reach every point")
            b = tuple([label[y] for y in map(g1.__getitem__, order)])
            if tied and b >= best_b:
                continue
            best_a = tuple([label[y] for y in map(g0.__getitem__, order)])
            best_b = b
            best_order = order
    return (best_a, best_b), {x: i for i, x in enumerate(best_order, 1)}


def canonical_key(c: Constellation) -> CanonicalKey:
    """The images of the canonical form's g0 and g1; connected only."""
    if not c.transitive:
        raise NotConnectedError("canonical form needs a connected constellation")
    key, _ = _component_canonical(
        list(c.g0.images), list(c.g1.images), list(range(1, c.degree + 1)))
    return key


def canonical_form(c: Constellation) -> Constellation:
    """The canonical representative of the conjugacy class; connected only."""
    a, b = canonical_key(c)
    return Constellation(Permutation(a), Permutation(b))


def canonical_hash(c: Constellation) -> str:
    return hashlib.sha256(repr(canonical_key(c)).encode()).hexdigest()


def isomorphic(c1: Constellation, c2: Constellation) -> tuple[bool, Permutation | None]:
    """Simultaneous conjugacy test with witness.

    The witness h satisfies h(g0(x)) = g0'(h(x)) and h(g1(x)) = g1'(h(x)),
    mapping points of c1 to points of c2.  Disconnected pairs are matched
    component by component.
    """
    if c1.degree != c2.degree:
        return False, None
    g0a, g1a = list(c1.g0.images), list(c1.g1.images)
    g0b, g1b = list(c2.g0.images), list(c2.g1.images)
    comps1 = _orbits(c1)
    comps2 = _orbits(c2)
    if sorted(map(len, comps1)) != sorted(map(len, comps2)):
        return False, None

    canon1 = [(_component_canonical(g0a, g1a, pts), pts) for pts in comps1]
    canon2 = [(_component_canonical(g0b, g1b, pts), pts) for pts in comps2]
    canon1.sort(key=lambda item: (len(item[1]), item[0][0], item[1]))
    canon2.sort(key=lambda item: (len(item[1]), item[0][0], item[1]))

    h = [0] * c1.degree
    for ((key1, map1), _), ((key2, map2), _) in zip(canon1, canon2):
        if key1 != key2:
            return False, None
        inverse2 = {new: old for old, new in map2.items()}
        for old, new in map1.items():
            h[old - 1] = inverse2[new]
    witness = Permutation(tuple(h))
    return True, witness


def dessin_json(c: Constellation) -> dict:
    g, p = genus_and_passport(c)
    clean = _all_twos(p.white)
    return {
        "degree": c.degree,
        "genus": g,
        "passport": p.to_json_dict(),
        "clean": clean,
        "bouquets": _run_lengths(p.black.parts) if clean else None,
        "canonical_hash": canonical_hash(c),
    }


def _run_lengths(parts: tuple[int, ...]) -> list[list[int]]:
    """[[part, multiplicity], ...] of a descending tuple."""
    pairs: list[list[int]] = []
    for part in parts:
        if pairs and pairs[-1][0] == part:
            pairs[-1][1] += 1
        else:
            pairs.append([part, 1])
    return pairs
