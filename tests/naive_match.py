"""The end match on every point, deliberately naive.

Every end point, both sheets of each pair unfolded (see monodromy.Fiber),
is ranked against every start point by |dx| + |dy|: the reference that
monodromy._match, which ranks only the tracked sheet of each pair and
reads the other off it, is checked against.
"""

from __future__ import annotations

import numpy as np

from dessins.monodromy import MatchAmbiguousError, NotBijectiveError


def naive_match(end, start, cfg) -> np.ndarray:
    (ax, ay), (bx, by) = end, start
    d = np.abs(ax[:, None] - bx[None, :])
    if ay is not None:
        d = d + np.abs(ay[:, None] - by[None, :])
    order = np.argpartition(d, 1, axis=1)
    rows = np.arange(len(d))
    nearest = order[:, 0].copy()
    best = d[rows, nearest]
    second = d[rows, order[:, 1]]
    if np.any(best > cfg.match_tol):
        raise MatchAmbiguousError(
            f"endpoint {best.max():.3e} away from every start point")
    with np.errstate(divide="ignore"):
        ratio = np.where(best > 0, second / np.maximum(best, 1e-300), np.inf)
    if np.any(ratio < cfg.separation_factor):
        raise MatchAmbiguousError(
            f"match separation ratio {ratio.min():.2f} below "
            f"{cfg.separation_factor}")
    if len(np.unique(nearest)) != len(nearest):
        raise NotBijectiveError("two trajectories matched one fiber point")
    return nearest
