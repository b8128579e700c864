"""All-roots canonical form, deliberately naive.

A full breadth-first relabeling from every root of a connected pair (g0
before g1), each in a dict of its own, then the relabeled pair of each
root; the least pair wins, and of tied roots the first in point order.  This is
the package's canonical form before roots were abandoned early and before
the roots shared one label list and one stamp list, kept so that the
search in ``dessins.dessin._component_canonical`` can be checked against
it: both must return the same key and the same winning BFS order.
"""

from __future__ import annotations

from collections import deque

from dessins.dessin import NotConnectedError


def _bfs_relabeling(g0: list[int], g1: list[int], root: int) -> dict[int, int]:
    """New label of every reachable point, BFS from root, g0 before g1."""
    new_of = {root: 1}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in (g0[x - 1], g1[x - 1]):
            if y not in new_of:
                new_of[y] = len(new_of) + 1
                queue.append(y)
    if len(new_of) != len(g0):
        raise NotConnectedError("relabeling did not reach every point")
    return new_of


def _relabeled_key(
    g0: list[int], g1: list[int], new_of: dict[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    k = len(new_of)
    a = [0] * k
    b = [0] * k
    for old, new in new_of.items():
        a[new - 1] = new_of[g0[old - 1]]
        b[new - 1] = new_of[g1[old - 1]]
    return tuple(a), tuple(b)


def naive_component_canonical(
    g0: list[int], g1: list[int]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], list[int]]:
    """Least relabeled pair over all BFS roots of a connected pair on
    1..n, with the winning BFS order (the old point of each new label)."""
    best_key = None
    best_map = None
    for root in range(1, len(g0) + 1):
        new_of = _bfs_relabeling(g0, g1, root)
        key = _relabeled_key(g0, g1, new_of)
        if best_key is None or key < best_key:
            best_key = key
            best_map = new_of
    return best_key, list(best_map)
