"""Numerical monodromy of covering-map chains by analytic continuation.

The fiber over the base point 1/2 is computed stage by stage (outermost
primitive first, each value pulled back through the next primitive).  A
loop is the counterclockwise circle about its real center through the
base point 1/2, of radius 1/2 about 0 and 1; the fiber is continued along
it with a tangent predictor and a Newton corrector on the composite
equation F(x) = gamma(t), F and F' taken by the chain rule over each
primitive's product form, and the predictor on the slope of the last
Newton iteration of the step before.  On a curve y^2 = c(x) only x is
continued, on the polynomial stages alone, and y is carried by the exact
ratio sqrt(c(x_new) / c(x)); a step is accepted only when it moves each x
much less than its gap to the other x and to the roots of c.  Render's
strands take this continuation too, in x alone, as y does not move x.

Only the upper half of a loop is continued, from the base point to the
antipode on the real axis.  Every stage has real coefficients and the
circle is symmetric under conjugation, so the lift of the lower half is
the conjugate of a lift of the upper half, run backwards: the loop's
permutation is read off the half-loop ends and the conjugation of the
fiber over 1/2 (see _loop_permutations).  Conjugation maps a curve y^2 =
c(x) to y^2 = cbar(x), cbar the cubic with conjugated roots, so on curves
the half loop also carries a square root of cbar along x and keeps x
clear of the roots of cbar too.

The step starts at the nominal step, halves on a refusal and doubles
after each acceptance up to twelve nominal steps or a quarter of the path,
whichever is less, but never below the nominal step (see _continue).  The
gap guard is the disjoint-disk condition of Beltran and Leykin, Certified
numerical homotopy tracking (2012), with the roots of c among the disks,
decided afresh on every step: by the dense n x n gaps on rows of up to 64
points, and on longer rows by one sorted-reach search over all stacked
rows, each point compared only with the points of its own row whose real
part lies within its move / 0.4 of its own (see _fits).  The fiber's
collision check searches its pairs the same way, and so does the end
match, each end point ranked against the start points within
separation_factor * match_tol in real part (see _match).

The paths of one run are continued together.  Their tracked points are
stacked as rows of one (P, n) array, one row per path, all starting from
the same fiber; the rows share the parameter t and the step, and a
refusal on any row halves the step for all.  Each row has its own gaps,
so a point is guarded against its own path's fiber only.  Both loops of a
chain are one run, and the two transport segments under a leading b(1,1)
are another (see below).  The fiber itself is pulled back through each
stage by one batched root solve.

Only what the structure leaves open is continued.  Curve points come in
sheet pairs (x, y), (x, -y) whose continuations differ only by the sign
of y, so a fiber is held as one sheet of each pair (Fiber), and that
sheet is the one tracked.  A leading b(1,1) over a Belyi
chain only doubles the inner dessin: its pair is dessin.doubled of the
inner pair on the transport of the inner fiber to the two preimages of 1/2.

Permutations map start labels to end labels, so the product of the loop
permutations taken in traversal order is the permutation of the
concatenated path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import maps
from .dessin import Constellation, doubled, g_infinity
from .maps import MapExpr, Primitive
from .perms import Permutation, format_cycles
from .polynomials import shifted_roots
from .tracking import NotBelyiError, TrackingConfig, TrackingError

BASEPOINT = 0.5


class CollisionError(TrackingError):
    pass


class StepUnderflowError(TrackingError):
    pass


class MatchAmbiguousError(TrackingError):
    pass


class NotBijectiveError(TrackingError):
    pass


@dataclass(frozen=True)
class LoopSpec:
    """The counterclockwise circle about the real ``center`` through the
    base point, in ``steps`` nominal steps.

    About 0 and 1 the radius is 1/2, so each circle keeps the other finite
    branch value outside.  point(1 - t) is the conjugate of point(t), so
    only the upper half, t in [0, 1/2] from the base point to the antipode
    2 center - 1/2, is continued, and the lower half is read off
    conjugation (see _loop_permutations); a center off the real axis would
    break that symmetry, so it is refused.  A loop needs at least one
    step.
    """

    center: float
    steps: int = round(1 / TrackingConfig.initial_step)

    def __post_init__(self) -> None:
        if complex(self.center).imag != 0:
            raise ValueError(
                f"center must be real, got {self.center!r}: the lower half "
                "of the loop is read off conjugation")
        if self.center == BASEPOINT:
            raise ValueError("center must differ from the base point")
        if self.steps < 1:
            raise ValueError(f"a loop needs at least 1 step, got {self.steps}")

    @property
    def length(self) -> float:
        return 2 * math.pi * abs(BASEPOINT - self.center)

    @property
    def name(self) -> str:
        return f"loop around {complex(self.center):g}"

    def point(self, t: float) -> complex:
        """Position along the loop at arc-length fraction t in [0, 1]."""
        return self.center + (BASEPOINT - self.center) * cmath.exp(2j * math.pi * t)


@dataclass(frozen=True, eq=False)
class Fiber:
    """A fiber by its tracked half; labels follow from position.

    On plain chains y is None and label i + 1 is the point x[i].  On curves
    label 2i + 1 is (x[i], y[i]) and label 2i + 2 is (x[i], -y[i]): the two
    sheets of a pair continue alike but for the sign of y, so only the
    first is continued.  len() is the degree.
    """

    x: np.ndarray
    y: np.ndarray | None

    def __len__(self) -> int:
        return len(self.x) if self.y is None else 2 * len(self.x)

    def unfold(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The (x, y) of every point, in label order."""
        if self.y is None:
            return self.x, None
        return np.repeat(self.x, 2), np.column_stack((self.y, -self.y)).ravel()


def _composite_and_derivative(stages: Sequence[Primitive], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and F' at x by the chain rule over value_and_slope of each stage."""
    value, slope = x, None
    for prim in reversed(stages):
        value, stage_slope = prim.value_and_slope(value)
        slope = stage_slope if slope is None else stage_slope * slope
    return value, slope


def fiber(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> Fiber:
    """The fiber over the base point 1/2, deterministically labeled (see
    Fiber).  The callers hold Belyi chains (maps.require_belyi), whose only
    finite branch values are 0 and 1, so 1/2 is never near one.

    x is sorted by (re, im); on curves y[i] is the square root of c(x[i])
    that sorts first by (im y, re y).  A conjugate pair whose real parts
    differ only in their last bits is ordered by those bits (labels 6 and 7
    of b(2,2).b(3,5) by 6.9e-18, +im first), so the labels depend on the
    exact bits of shifted_roots.  Raises CollisionError when two fiber
    points, or a point and a root of c, lie within match_tol: only the
    pairs within match_tol in real part are measured (_close_pairs), and
    among them is the nearest pair whenever it is that close, so the
    distance reported is the least of all.
    """
    values: list[complex] = [complex(BASEPOINT)]
    for prim in e.polynomial_part():
        values = [x for row in shifted_roots(maps.as_poly(prim), values) for x in row]

    values.sort(key=lambda x: (x.real, x.imag))
    x = np.array(values, dtype=complex)
    y = None
    if e.has_curve:
        sqrts = (cmath.sqrt(e.proj.curve_rhs(v)) for v in values)
        y = np.array([min(s, -s, key=lambda v: (v.imag, v.real)) for s in sqrts])
    out = Fiber(x, y)

    if len(out) != maps.degree(e):
        raise TrackingError(
            f"fiber has {len(out)} points, expected {maps.degree(e)}")
    i, j = _close_pairs(x, cfg.match_tol)  # x is sorted by real part
    dist = float(np.abs(x[j] - x[i]).min(initial=np.inf))
    if e.proj is not None:
        dist = min(dist, float(np.abs(x[:, None] - np.array(e.proj.cubic_roots())).min()))
    if dist <= cfg.match_tol:
        raise CollisionError(f"fiber points within {dist:.3e}")
    # on curves y is a square root of c(x) by construction, so x decides
    value, _ = _composite_and_derivative(e.polynomial_part(), x)
    if np.any(np.abs(value - BASEPOINT) >= 1e-8):
        raise TrackingError("fiber point fails to evaluate back to base")
    return out


def _gaps(x: np.ndarray, branch: np.ndarray | None) -> np.ndarray:
    """Distance from each tracked x to the nearest other tracked x of its
    row and, on curves, to the nearest root of c in ``branch``: the two
    sheets of a pair share x and meet where x is a root, as |2 y|^2 =
    4 |c(x)|.  x is one row of shape (n,) or stacked rows of shape (P, n),
    one per path, which do not see each other.
    """
    d = np.abs(x[..., :, None] - x[..., None, :])
    diagonal = np.arange(x.shape[-1])
    d[..., diagonal, diagonal] = np.inf
    nearest = d.min(axis=-1)
    if branch is not None:
        nearest = np.minimum(nearest, np.abs(x[..., :, None] - branch).min(axis=-1))
    return nearest


_DENSE_ROW = 64


def _in_reach(re: np.ndarray, queries: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, counts): every pair of a query i and a position j of the
    ascending ``re`` whose values lie within ``reach`` of each other, the
    pairs of each query in turn, and the number of pairs of each query;
    reach is a scalar or one per query, and a NaN reach gives its query
    no pair.

    The reach is widened by a relative 1e-9 and an absolute 1e-300, so a
    pair left out differs by more than the widened reach R, exactly, and
    its rounded difference is at least R.  numpy's complex abs is never
    below the absolute real part and rounding is monotone, so every
    rounded quantity taken from |d| on is at least the one taken from R.
    Without the widening a rounded difference of real parts could land
    exactly on the reach.  Two searchsorted calls bound each query's range
    and np.repeat expands the ranges into pairs.
    """
    wide = reach * (1 + 1e-9) + 1e-300
    lo = re.searchsorted(queries - wide, side="left")
    counts = re.searchsorted(queries + wide, side="right") - lo
    i = np.arange(len(queries)).repeat(counts)
    j = np.arange(len(i)) + (lo - (counts.cumsum() - counts)).repeat(counts)
    return i, j, counts


def _close_pairs(xs: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i != j, of a row ``xs`` sorted by real part
    whose real parts lie within ``reach`` of each other, reach a scalar or
    one per point i (see _in_reach)."""
    i, j, _ = _in_reach(xs.real, xs.real, reach)
    keep = i != j
    return i[keep], j[keep]


def _fits(x: np.ndarray, moved: np.ndarray, branch: np.ndarray | None) -> np.ndarray:
    """moved < 0.4 * _gaps(x, branch), elementwise and exactly, without the
    n x n distances of _gaps on long rows.

    Rows of at most _DENSE_ROW points take the dense form.  Longer rows
    are flattened and sorted by real part together, and point i is
    compared only with the points whose real part lies within moved_i /
    0.4 of its own (_close_pairs) and that sit in its own row: it is
    refused when moved_i >= 0.4 |d| for one of them.  A point of its row
    left out has its rounded 0.4 |d| at least the rounded 0.4 times the
    widened reach, which exceeds moved_i, so it cannot refuse i.  The
    widening is needed: 0.4 * fl(2.5 m) <= m holds for about two m in
    three.  The minimum of the rounded 0.4 d is the rounded 0.4 times the
    minimum, which the dense form compares.  A NaN move finds no pair, and
    its < against the roots of c, or infinity, refuses it as the dense <
    does.  The distances to the roots are the dense ones, reduced over a
    leading axis of roots: one elementwise minimum per root, in one call.
    """
    n = x.shape[-1]
    if n <= _DENSE_ROW:
        return moved < 0.4 * _gaps(x, branch)
    near = np.inf if branch is None else 0.4 * np.abs(x - branch.reshape(-1, *[1] * x.ndim)).min(axis=0)
    out = moved < near
    order = x.real.argsort(axis=None)
    xs, ms = x.ravel()[order], moved.ravel()[order]
    i, j = _close_pairs(xs, ms * 2.5)
    row = order // n
    refused = (row[i] == row[j]) & (ms[i] >= 0.4 * np.abs(xs[j] - xs[i]))
    out.reshape(-1)[order[i[refused]]] = False
    return out


def _stepper(e: MapExpr, max_newton_iters: int, mirrored: bool = False):
    """The continuation step for the tracked half of a fiber of ``e`` (see
    Fiber), one row of shape (n,) or rows stacked as (P, n).

    ``step(x, y, slope, origin, target, tol)`` carries the points sitting
    over the base value ``origin`` to ``target``: a tangent predictor along
    ``slope``, F' at or one Newton correction from x (None evaluates it at
    x), then Newton on F(x) = target to relative tolerance ``tol`` in at
    most max_newton_iters iterations.  On stacked rows, origin and target
    have shape (P, 1), one base value per row, and Newton runs until every
    correction is at most tol times max(1, |x|).  The step is refused on
    the rows whose last corrections miss that when the iterations run out
    (a non-finite iterate never converges), and on the rows where some x
    moves 0.4 of its gap (_gaps at x) or more, as _fits decides without the
    n x n gaps on long rows.

    On curves y, when it is given, is then carried by y_new = y sqrt(c(x_new)
    / c(x)), with the principal root, and this is its continuation along
    the step: the guard keeps |x_new - x| < 0.4 |x - r| for each root r of
    c, so for x' on the segment from x to x_new each factor (x' - r) /
    (x - r) of c(x') / c(x) lies in the disc of radius 0.4 about 1, the
    product has argument below 3 asin 0.4 < 1.24 < pi, and its principal
    root moves continuously from 1.  c is maps.cubic, as in curve_rhs,
    taken at x_new and x, and for every cubic (see below), in one pass over
    the stacked (x_new, x) with a leading axis of cubics: the same
    elementwise operations, so the same bits.  y never moves x and the
    guard counts the roots of c either way, so with y None, as on render's
    strands, x is the same bit for bit.

    With ``mirrored`` (the half loops, see _loop_permutations), y on curves
    holds two blocks of n columns: y, carried on c as above, then a square
    root w of cbar(x), cbar the cubic whose roots are the conjugates of
    c's, carried by w_new = w R' with R' = sqrt(cbar(x_new) / cbar(x)).
    The guard then also keeps each x clear of the roots of cbar, which
    makes R' the continuation of w as above, and keeps the conjugate path
    conj(x), whose distance to a root of c is that of x to a root of cbar,
    as clear of the roots of c.

    Returns (landed, refused, slope).  landed is the new (x, y), or None
    when the step is refused; refused tells, row by row, which rows failed
    Newton or the gap guard.  slope is the predictor's after a refusal, as
    x has not moved, and F' at the last Newton iterate after an acceptance.
    """
    stages = e.polynomial_part()
    branch = None
    if e.proj is not None:
        roots = np.array(e.proj.cubic_roots())
        cubics = np.stack((roots, roots.conj()) if mirrored else (roots,), axis=1)  # (3, K)
        branch = cubics.T.ravel()

    def step(x, y, slope, origin, target, tol):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if slope is None:
                _, slope = _composite_and_derivative(stages, x)
            x_new = x + (target - origin) / slope
            for _ in range(max_newton_iters):
                value, slope_new = _composite_and_derivative(stages, x_new)
                delta = (value - target) / slope_new
                x_new = x_new - delta
                converged = np.abs(delta) <= tol * np.maximum(1.0, np.abs(x_new))
                if converged.all():
                    break
            else:
                return None, ~converged.all(axis=-1), slope
        fits = _fits(x, np.abs(x_new - x), branch)
        if not fits.all():
            return None, ~fits.all(axis=-1), slope
        if y is not None:
            c = maps.cubic(np.array((x_new, x)), cubics.reshape(3, -1, *[1] * (x.ndim + 1)))
            y = y * np.sqrt(np.concatenate(c[:, 0] / c[:, 1], axis=-1))
        return (x_new, y), np.zeros(x.shape[:-1], dtype=bool), slope_new

    return step


def _continue(
    e: MapExpr,
    paths: Sequence,
    x: np.ndarray,
    y: np.ndarray | None,
    cfg: TrackingConfig,
    mirrored: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Continue the tracked half of a fiber (see Fiber) along every one
    of ``paths`` at once; returns the end positions stacked as (P, n), row
    p for paths[p].  The start x and y have shape (n,), one fiber that
    every path starts from, or (P, n), row p the start of paths[p].  With
    ``mirrored`` the paths are loops (LoopSpec), continued from t = 0 to
    their antipode at t = 1/2 only, by _stepper's mirrored step: on curves
    y then has 2n columns, y and w (see _stepper), at the start and end.

    A path has ``.point(t)`` for t in [0, 1], ``.steps`` and ``.name``.
    All paths share one parameter t, and each step carries every row from
    its path's point at t to its point at t + h.  The step h starts at the
    nominal step 1/max(steps), halves whenever the step of _stepper is
    refused on any row, and doubles after each accepted one, up to
    min(12 / max(steps), max(1 / max(steps), 1/4)): past the nominal step,
    never more than a quarter of the path, as a step of half a loop or
    more could land back near its origin, where no guard can refuse it.
    Paths of at most four steps keep the nominal step.  The rows share
    nothing else: each gap counts only the fiber of its own path.  The
    predictor slope is carried from step to step, from None.  Raises
    StepUnderflowError below min_step, naming the paths whose rows refused
    the last step.
    """
    step = _stepper(e, cfg.max_newton_iters, mirrored)
    x = np.broadcast_to(x, (len(paths), x.shape[-1]))
    y = None if y is None else np.broadcast_to(y, x.shape[:-1] + y.shape[-1:])
    t, end = 0.0, 0.5 if mirrored else 1.0
    h = 1.0 / max(path.steps for path in paths)
    h_max = min(12 * h, max(h, 0.25))
    gamma_t = np.array([[path.point(0.0)] for path in paths])
    slope = None
    while t < end:
        h = min(h, end - t)
        target = np.array([[path.point(t + h)] for path in paths])
        landed, refused, slope = step(x, y, slope, gamma_t, target, cfg.newton_tol)
        if landed is None:
            h /= 2
            if h < cfg.min_step:
                names = ", ".join(path.name for path, r in zip(paths, refused) if r)
                raise StepUnderflowError(f"step underflow at t = {t:.6f} on {names}")
            continue
        x, y = landed
        t += h
        gamma_t = target
        h = min(h * 2, h_max)
    return x, y


def _match(end: Fiber, start: Fiber, cfg: TrackingConfig) -> np.ndarray:
    """Index of the start point each end point landed on, in label order
    (see Fiber), by |dx| + |dy| to every start point, unfolded.

    On curves only the tracked sheet (x[i], y[i]) of each end pair is
    matched, an (n, 2n) metric: the distance of its other sheet (x[i],
    -y[i]) to start point j is bit for bit that of (x[i], y[i]) to j ^ 1,
    the other sheet of j's pair, so that sheet lands on nearest ^ 1, and
    the result interleaves nearest with nearest ^ 1.

    Raises MatchAmbiguousError when an end point is farther than match_tol
    from every start point or its runner-up is not separation_factor times
    farther, and NotBijectiveError when two end points, either sheet of a
    pair, land on one start point.  Only the two nearest start points are
    ranked; when they tie, either is the nearest and the ratio 1 raises.

    Past _DENSE_ROW start points, each end point is first ranked only
    against the start points whose real part lies within separation_factor
    times max(match_tol, 1e-300), the ratio's floor, of its own
    (_in_reach).  A start point left out is farther than that, so when
    every end point has a unique nearest within match_tol and a runner-up
    in reach, if any, at least separation_factor times farther, the dense
    metric ranks the same nearest and passes too.  On a tie, a failed
    bound or an end point with nothing in reach, the dense metric decides
    and raises what it raises.
    """
    start_x, start_y = start.unfold()
    nearest = _nearest_in_reach(end, start_x, start_y, cfg) if len(start_x) > _DENSE_ROW else None
    if nearest is None:
        nearest = _nearest(end, start_x, start_y, cfg)
    if end.y is not None:
        nearest = np.column_stack((nearest, nearest ^ 1)).ravel()
    if np.bincount(nearest).max() > 1:
        raise NotBijectiveError("two trajectories matched one fiber point")
    return nearest


def _nearest_in_reach(end: Fiber, start_x: np.ndarray, start_y: np.ndarray | None, cfg: TrackingConfig):
    """The nearest start point of each tracked end point by sorted reach,
    or None when the reach does not decide (see _match)."""
    order = start_x.real.argsort()
    reach = cfg.separation_factor * max(cfg.match_tol, 1e-300)
    i, j, counts = _in_reach(start_x.real[order], end.x.real, reach)
    if not counts.all():
        return None
    j = order[j]
    d = np.abs(end.x[i] - start_x[j])
    if end.y is not None:
        d = d + np.abs(end.y[i] - start_y[j])
    first = counts.cumsum() - counts
    best = np.minimum.reduceat(d, first)
    if not (best <= cfg.match_tol).all():
        return None
    is_best = d == best[i]
    if not (np.add.reduceat(is_best, first) == 1).all():
        return None
    d[is_best] = np.inf
    second = np.minimum.reduceat(d, first)
    with np.errstate(over="ignore"):  # a ratio past the largest float passes
        ratio = np.where(best > 0, second / np.maximum(best, 1e-300), np.inf)
    return j[is_best] if (ratio >= cfg.separation_factor).all() else None


def _nearest(end: Fiber, start_x: np.ndarray, start_y: np.ndarray | None, cfg: TrackingConfig):
    """The nearest start point of each tracked end point by the dense
    metric, or the error of _match."""
    d = np.abs(end.x[:, None] - start_x[None, :])
    if end.y is not None:
        d = d + np.abs(end.y[:, None] - start_y[None, :])
    order = np.argpartition(d, 1, axis=1)
    rows = np.arange(len(d))
    nearest = order[:, 0].copy()  # a view would keep all of order alive
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
    return nearest


def _permutation(start: Fiber, end: Fiber, cfg: TrackingConfig) -> Permutation:
    """Label i -> the label of the point of ``start`` that point i of
    ``end`` lands on; for a closed path whose tracked half runs from
    ``start`` to ``end``, start label -> end label."""
    nearest = _match(end, start, cfg)
    return Permutation(tuple((nearest + 1).tolist()))


def _conjugation(points: Fiber, cfg: TrackingConfig) -> np.ndarray:
    """kappa, the conjugation of a fiber over a real base point: x[kappa[k]]
    is the conjugate of x[k], by _match of conj(x) against x.  Only x is
    matched, as on curves conjugation maps y^2 = c(x) to y^2 = cbar(x)."""
    return _match(Fiber(points.x.conj(), None), Fiber(points.x, None), cfg)


def _conjugate(points: Fiber, kappa: np.ndarray) -> Fiber:
    """Point k is the conjugate of point kappa[k] of ``points``."""
    return Fiber(points.x.conj()[kappa], None if points.y is None else points.y.conj()[kappa])


def _loop_permutations(
    e: MapExpr, loops: Sequence[LoopSpec], start: Fiber, kappa: np.ndarray, cfg: TrackingConfig,
):
    """The permutation of each loop, from one stacked continuation of the
    upper halves on the fiber ``start``, whose conjugation is ``kappa``
    (see _conjugation).

    F has real coefficients, so the lift of a loop's lower half from an
    upper-half end z[i] is the conjugate, run backwards, of the upper-half
    lift that ends at conj(z[i]).  That lift starts at some x[j], so the
    loop ends at conj(x[j]) = x[kappa[j]]: label i goes to the label of
    the point of conj(z)[kappa] that z[i] lands on.  On curves conjugation
    maps y^2 = c(x) to y^2 = cbar(x), so w, the conjugate of start's y
    reordered by kappa, is carried on cbar beside y (see _stepper), and
    the conjugate of the end (z, w), reordered by kappa, is the start of
    the lower half on y^2 = c(x).
    """
    yw = None if start.y is None else np.concatenate((start.y, _conjugate(start, kappa).y))
    end_x, end_y = _continue(e, loops, start.x, yw, cfg, mirrored=True)
    perms = []
    for p, x in enumerate(end_x):
        y, w = (None, None) if end_y is None else np.split(end_y[p], 2)
        perms.append(_permutation(_conjugate(Fiber(x, w), kappa), Fiber(x, y), cfg))
    return perms


def monodromy(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> Constellation:
    """The dessin's pair (g0, g1), loops around 0 and 1 from 1/2.

    The chain must be branched only over {0, 1, infinity}.  The loop
    around infinity is never tracked; dessin.g_infinity plays its part.
    The leading b(1,1)s over a Belyi chain are peeled off exactly (see
    _pair); the innermost chain has both loops tracked in one stacked
    continuation.
    """
    return _base_and_probe(e, cfg, probe=False)[0]


def _base_and_probe(
    e: MapExpr, cfg: TrackingConfig, probe: bool,
) -> tuple[Constellation, Constellation | None]:
    """The pair of ``e`` over the base point and, with probe, the pair on
    the same fibers around the stability probe's loops: the circles about
    1/10 and 9/10, radius 0.4, in twice the steps (see _loops).  Both
    read one conjugation of the tracked fiber."""
    maps.require_belyi(e)
    levels = _fibers(e, cfg)
    kappa = _conjugation(levels[-1][1], cfg)
    base = _pair(levels, kappa, cfg, _loops(cfg))
    if not probe:
        return base, None
    return base, _pair(levels, kappa, cfg, _loops(cfg, centers=(0.1, 0.9), refine=2))


def _loops(
    cfg: TrackingConfig, centers: tuple[float, float] = (0, 1), refine: int = 1,
) -> tuple[LoopSpec, LoopSpec]:
    """The circles through the base point about ``centers`` (see LoopSpec),
    in refine / initial_step nominal steps.

    Each encloses one of 0 and 1: the default circles have radius 1/2, and
    the probe's, about 1/10 and 9/10, radius 0.4.
    """
    steps = round(1.0 / cfg.initial_step) * refine
    return tuple(LoopSpec(center=c, steps=steps) for c in centers)


def _doubles(e: MapExpr) -> bool:
    """Whether ``e`` is b(1,1) over a Belyi chain (see _pair)."""
    inner = e.inner()
    return e.chain[0] == maps.BelyiMN(1, 1) and inner is not None and maps.is_belyi(inner)


def _fibers(e: MapExpr, cfg: TrackingConfig) -> list[tuple[MapExpr, Fiber]]:
    """(chain, its labeled fiber over the base point), outermost first, for
    ``e`` and each inner chain while the chain is b(1,1) over a Belyi chain:
    one level per b(1,1) that _pair peels off and one for the chain it tracks."""
    out = [(e, fiber(e, cfg))]
    while _doubles(e):
        e = e.inner()
        out.append((e, fiber(e, cfg)))
    return out


# The preimages w1 < 1/2 < w2 of the base point under b(1,1) = 4w(1 - w).
_HALF_PREIMAGES = ((1 - math.sqrt(0.5)) / 2, (1 + math.sqrt(0.5)) / 2)


@dataclass(frozen=True)
class _Segment:
    """The straight path from start to end, in ``steps`` nominal steps."""

    start: complex
    end: complex
    steps: int

    @property
    def name(self) -> str:
        return f"segment to {self.end:g}"

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)


def _pair(
    levels: Sequence[tuple[MapExpr, Fiber]],
    kappa: np.ndarray,
    cfg: TrackingConfig,
    loops: tuple[LoopSpec, LoopSpec],
) -> Constellation:
    """The pair of a Belyi chain on its levels (see _fibers): the last
    level's, by continuation around ``loops`` (see _loops) on its fiber,
    whose conjugation is ``kappa``, then each level's before it, from the
    inside out, as dessin.doubled of the pair after it.

    For b(1,1) . inner, each inner fiber point k is carried along the real
    segments from 1/2 to w1 and to w2, which meet no branch value of
    inner, in max(1, ceil(|w - 1/2| / h)) nominal steps, h the loops'
    nominal arc step; a(k) and b(k) are the labels of the points it lands
    on.  The two segments are one stacked continuation of their own.  The
    loop around 0 lifts through 4w(1 - w) to a loop around 0 at w1 and
    around 1 at w2, and the loop around 1 to a path from w1 to w2 through
    1/2, so the pair is doubled(inner pair, a, b), as D0 is built exactly
    (galois.planar_dessin).
    """
    inner, start = levels[-1]
    pair = Constellation(*_loop_permutations(inner, loops, start, kappa, cfg))
    h = loops[0].length / loops[0].steps
    segments = [_Segment(BASEPOINT, w, max(1, math.ceil(abs(w - BASEPOINT) / h))) for w in _HALF_PREIMAGES]
    for (_, points), (inner, start) in reversed(list(zip(levels, levels[1:]))):
        x, y = _continue(inner, segments, start.x, start.y, cfg)
        # a(k) and b(k), the labels that inner label k lands on, in turn
        landed = (_match(Fiber(x.ravel(), None if y is None else y.ravel()), points, cfg) + 1).tolist()
        pair = doubled(pair, landed[:len(start)], landed[len(start):])
    return pair


def verify_stability(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> bool:
    """Recompute around the probe's circles about 1/10 and 9/10 in twice
    the steps (see _loops); True when both permutation pairs agree label
    for label."""
    base, probe = _base_and_probe(e, cfg, probe=True)
    return base == probe


def monodromy_json(
    e: MapExpr,
    cfg: TrackingConfig = TrackingConfig(),
    check_stability: bool = False,
) -> dict:
    """The CLI payload; with check_stability, ``stability`` reports
    verify_stability, whose base run is the pair of the payload and whose
    probe reuses its fibers."""
    pair, probe = _base_and_probe(e, cfg, check_stability)
    return {
        "degree": maps.degree(e),
        "g0": format_cycles(pair.g0),
        "g1": format_cycles(pair.g1),
        "ginf": format_cycles(g_infinity(pair)),
        "stability": pair == probe if check_stability else None,
        "config_echo": cfg.to_json_dict(),
    }
