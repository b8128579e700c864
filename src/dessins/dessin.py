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
point (neighbors visited g0 first, then g1).  The relabeled g0 of a root
is built position by position as its BFS runs, and the root is abandoned
at the first position where it exceeds the best pair so far; roots that
tie run to the end and are compared in full.  The result is still the
least relabeled pair over all roots; only a dessin whose roots all tie
(one with automorphisms) costs a full BFS per root.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .perms import (
    CycleType,
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    inverse,
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
        object.__setattr__(self, "_transitive", is_transitive((self.g0, self.g1)))

    @property
    def degree(self) -> int:
        return self.g0.degree

    @property
    def transitive(self) -> bool:
        return self._transitive


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
    return inverse(compose(c.g0, c.g1))


def faces(c: Constellation) -> tuple[tuple[int, ...], ...]:
    return cycle_decomposition(g_infinity(c))


def genus(c: Constellation) -> int:
    if not c.transitive:
        raise NotConnectedError("genus needs a connected constellation")
    chi = (
        len(cycle_decomposition(c.g0))
        + len(cycle_decomposition(c.g1))
        + len(faces(c))
        - c.degree
    )
    if chi % 2 != 0 or chi > 2:
        raise AssertionError(f"Euler characteristic {chi} is impossible")
    return (2 - chi) // 2


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


def is_clean(c: Constellation) -> bool:
    return all(length == 2 for length in cycle_type(c.g1).parts)


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
    return DessinInvariants(
        genus=genus(c),
        black_count=len(cycle_decomposition(c.g0)),
        white_count=len(cycle_decomposition(c.g1)),
        face_count=len(faces(c)),
        bouquets=bouquet_profile(c) if is_clean(c) else None,
    )


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def _bfs_key(
    g0: list[int],
    g1: list[int],
    root: int,
    points: list[int],
    best_a: tuple[int, ...] | None,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] | None:
    """Relabeled pair and relabeling (old point -> 1..k) of the BFS from
    root, g0 before g1; None as soon as the relabeled g0 exceeds best_a.

    Label i + 1 is dequeued at position i, so a[i] and b[i] are known
    while the BFS runs and the comparison with best_a needs no full pass.
    """
    new_of = {root: 1}
    order = [root]
    a = []
    b = []
    tied = best_a is not None
    # order grows while it is walked: it is the BFS queue
    for i, x in enumerate(order):
        y = g0[x - 1]
        if y not in new_of:
            new_of[y] = len(order) + 1
            order.append(y)
        ai = new_of[y]
        if tied:
            if ai > best_a[i]:
                return None
            tied = ai == best_a[i]
        y = g1[x - 1]
        if y not in new_of:
            new_of[y] = len(order) + 1
            order.append(y)
        a.append(ai)
        b.append(new_of[y])
    if len(order) != len(points):
        raise NotConnectedError("relabeling did not reach every point")
    return (tuple(a), tuple(b)), new_of


def _component_canonical(
    g0: list[int], g1: list[int], points: list[int]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]]:
    """Least relabeled pair over all BFS roots in one component, with the
    winning relabeling (old point -> 1..k).  A root is dropped at the
    first position where its relabeled g0 exceeds the best so far."""
    best_key = None
    best_map = None
    for root in points:
        found = _bfs_key(g0, g1, root, points, None if best_key is None else best_key[0])
        if found is None:
            continue
        key, new_of = found
        if best_key is None or key < best_key:
            best_key = key
            best_map = new_of
    return best_key, best_map


def canonical_form(c: Constellation) -> Constellation:
    """The canonical representative of the conjugacy class; connected only."""
    if not c.transitive:
        raise NotConnectedError("canonical form needs a connected constellation")
    g0 = list(c.g0.images)
    g1 = list(c.g1.images)
    key, _ = _component_canonical(g0, g1, list(range(1, c.degree + 1)))
    return Constellation(Permutation(key[0]), Permutation(key[1]))


def canonical_hash(c: Constellation) -> str:
    cf = canonical_form(c)
    blob = repr((cf.g0.images, cf.g1.images)).encode()
    return hashlib.sha256(blob).hexdigest()


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
    return {
        "degree": c.degree,
        "genus": genus(c),
        "passport": passport(c).to_json_dict(),
        "clean": is_clean(c),
        "bouquets": _bouquet_pairs(c),
        "canonical_hash": canonical_hash(c),
    }


def _bouquet_pairs(c: Constellation) -> list[list[int]] | None:
    if not is_clean(c):
        return None
    profile = bouquet_profile(c)
    pairs: dict[int, int] = {}
    for order in profile:
        pairs[order] = pairs.get(order, 0) + 1
    return [[order, count] for order, count in sorted(pairs.items(), reverse=True)]
