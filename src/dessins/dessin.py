"""Constellations and dessin invariants.

A constellation is a pair of permutations (g0, g1) of the same degree; its
points are the edges of a bipartite map, cycles of g0 the black vertices,
cycles of g1 the white vertices, and cycles of the inverse of the product
"g0 then g1" the faces.  For a connected pair Euler's relation

    2 - 2 * genus = cycles(g0) + cycles(g1) + cycles(g_inf) - degree

fixes the genus.  A clean constellation is one where every white vertex
has valency exactly 2; there the black valencies are the bouquet orders of
the underlying graph.

A dessin is connected: the genus, the canonical form and isomorphism take
connected pairs only, and raise NotConnectedError on any other.
Isomorphism is simultaneous conjugacy, decided through a canonical form:
the least relabeled pair over breadth-first relabelings rooted at every
point (neighbors visited g0 first, then g1), the first root in point order
winning a tie.  The search (_component_canonical) skips roots that cannot
win: those past n/2 when the sheet swap p -> p + n/2 of a double cover
commutes with the pair, and those g0 moves when g0 fixes some root.  It
runs the best root's BFS only as far as a challenger needs, and takes
O(n) memory and O(n^2) time in the worst case, a dessin whose roots all
tie (one with automorphisms, such as a cyclic pair).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .perms import CycleType, Permutation, cycle_type, is_transitive


class NotConnectedError(ValueError):
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


def g_infinity(c: Constellation) -> Permutation:
    """The inverse of "g0 then g1", built in one pass."""
    g1 = c.g1.images
    out = [0] * c.degree
    for i, image in enumerate(c.g0.images, 1):
        out[g1[image - 1] - 1] = i
    return Permutation(tuple(out))


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


def _sheet_swap_commutes(g: list[int], h: int) -> bool:
    """Whether p -> p + h (mod 2h) commutes with g, given as the images of
    1..2h: the swap of the sheets d and d + h of a double cover labeled
    d + h*s (s = 0, 1) as galois.PlanarDessin.cover labels them."""
    return g[h:] == [v + h if v <= h else v - h for v in g[:h]]


def _pair_swap_commutes(g: list[int]) -> bool:
    """Whether 2i + 1 <-> 2i + 2 commutes with g, given as the images of
    1..2h: the swap of the sheets of a curve fiber as monodromy.Fiber
    labels them."""
    return g[1::2] == [v + 1 if v % 2 else v - 1 for v in g[0::2]]


def _advance(g0: list[int], g1: list[int], order: list[int], label: list[int],
             stamp: list[int], number: int, a: list[int]) -> None:
    """Dequeue position len(a) of the BFS numbered ``number`` (g0 padded,
    as in _component_canonical) and append its relabeled g0 to a."""
    i = len(a)
    if i == len(order):
        raise NotConnectedError("relabeling did not reach every point")
    x = order[i]
    y = g0[x]
    if stamp[y] != number:
        stamp[y] = number
        order.append(y)
        label[y] = len(order)
    a.append(label[y])
    y = g1[x]
    if stamp[y] != number:
        stamp[y] = number
        order.append(y)
        label[y] = len(order)


def _component_canonical(g0: list[int], g1: list[int]) -> tuple[CanonicalKey, list[int]]:
    """Least relabeled pair over all BFS roots of a connected pair on
    1..n, with the winning BFS order (the old point of each new label
    1..n); the first root in point order wins a tie.  Raises
    NotConnectedError when a BFS does not reach every point.

    The BFS from a root visits neighbors g0 before g1.  Label i + 1 is
    dequeued at position i, so the relabeled g0 at position i is known
    while the BFS runs.  Three facts cut the work:

    - When n = 2h and p -> p + h commutes with g0 and g1, that swap is an
      automorphism: root p + h ties with root p, which comes first, so
      only roots 1..h are searched.  Failing that, when 2i + 1 <-> 2i + 2
      commutes with both, as on tracked curve pairs, only the odd roots
      are searched, for the same reason.
    - The relabeled g0 starts with 1 at a root that g0 fixes and with 2
      elsewhere, so if g0 fixes a root only those roots are searched.
    - The best root's BFS runs only as far as a challenger has come.  A
      challenger is dropped at the first position where its relabeled g0
      exceeds the best's and takes over, with its BFS as far as it has
      run, at the first where it is smaller; only one that ties to the end
      has its relabeled g1 compared.

    The best and the challenger each keep a label list and a stamp list,
    swapped on a takeover: a point is labeled in a BFS when its stamp is
    that root's number, so nothing is reset between roots.
    """
    n = len(g0)
    h = n // 2
    roots = list(range(1, n + 1))
    if n % 2 == 0:
        if _sheet_swap_commutes(g0, h) and _sheet_swap_commutes(g1, h):
            roots = roots[:h]
        elif _pair_swap_commutes(g0) and _pair_swap_commutes(g1):
            roots = roots[::2]
    roots = [r for r in roots if g0[r - 1] == r] or roots
    g0 = [0, *g0]  # padded, so that g0[x] is the image of x
    g1 = [0, *g1]
    # the best root's BFS: queue, labels, stamps, number and relabeled g0
    # up to where it has run
    order, label, stamp, best, a = roots[:1], [0] * (n + 1), [0] * (n + 1), 1, []
    label[roots[0]] = stamp[roots[0]] = 1
    # a challenger's labels and stamps
    clabel, cstamp = [0] * (n + 1), [0] * (n + 1)
    for number, root in enumerate(roots[1:], 2):
        clabel[root] = 1
        cstamp[root] = number
        corder = [root]
        # corder grows while it is walked: it is the BFS queue
        for i, x in enumerate(corder):
            y = g0[x]
            if cstamp[y] != number:
                cstamp[y] = number
                corder.append(y)
                clabel[y] = len(corder)
            ai = clabel[y]
            if i == len(a):
                _advance(g0, g1, order, label, stamp, best, a)
            if ai > a[i]:
                break
            y = g1[x]
            if cstamp[y] != number:
                cstamp[y] = number
                corder.append(y)
                clabel[y] = len(corder)
            if ai < a[i]:
                del a[i:]
                a.append(ai)
                order, best = corder, number
                label, clabel, stamp, cstamp = clabel, label, cstamp, stamp
                break
        else:
            if len(corder) != n:
                raise NotConnectedError("relabeling did not reach every point")
            cb = [clabel[y] for y in map(g1.__getitem__, corder)]
            if cb < [label[y] for y in map(g1.__getitem__, order)]:
                order, best = corder, number
                label, clabel, stamp, cstamp = clabel, label, cstamp, stamp
    # _advance raises unless the best root's BFS reaches every point
    while len(a) < n:
        _advance(g0, g1, order, label, stamp, best, a)
    b = tuple([label[y] for y in map(g1.__getitem__, order)])
    return (tuple(a), b), order


def _canonical(c: Constellation) -> tuple[CanonicalKey, list[int]]:
    """_component_canonical of a connected pair."""
    if not c.transitive:
        raise NotConnectedError("canonical form needs a connected constellation")
    return _component_canonical(list(c.g0.images), list(c.g1.images))


def canonical_key(c: Constellation) -> CanonicalKey:
    """The images of the canonical form's g0 and g1; connected only."""
    return _canonical(c)[0]


def canonical_hash(c: Constellation) -> str:
    return hashlib.sha256(repr(canonical_key(c)).encode()).hexdigest()


def isomorphic(c1: Constellation, c2: Constellation) -> tuple[bool, Permutation | None]:
    """Simultaneous conjugacy test with witness, for connected pairs.

    The witness h satisfies h(g0(x)) = g0'(h(x)) and h(g1(x)) = g1'(h(x)),
    mapping points of c1 to points of c2: the point of c1 with canonical
    label i goes to the point of c2 with the same label.  Pairs of
    different degrees are not isomorphic; a disconnected pair raises
    NotConnectedError, as its canonical form does.
    """
    if c1.degree != c2.degree:
        return False, None
    (key1, order1), (key2, order2) = _canonical(c1), _canonical(c2)
    if key1 != key2:
        return False, None
    h = [0] * c1.degree
    for x, y in zip(order1, order2):
        h[x - 1] = y
    return True, Permutation(tuple(h))


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
