"""Vertex merging by a scan over every group, deliberately naive.

Each vertex, in (re x, im x, im y) order, is compared with the first
vertex of every group opened so far and joins the first within ``tol``:
the reference that render.merge_dots, which compares only the trailing
groups that open within ``tol`` in real part, is checked against.
"""

from __future__ import annotations


def naive_merge_dots(vertices, tol: float) -> list[list]:
    groups: list[list] = []
    for v in sorted(vertices, key=lambda u: (u.x.real, u.x.imag, 0 if u.y is None else u.y.imag)):
        for g in groups:
            if abs(g[0].x - v.x) < tol:
                g.append(v)
                break
        else:
            groups.append([v])
    return groups
