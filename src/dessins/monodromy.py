"""Numerical monodromy of covering-map chains by analytic continuation.

The fiber over a base point is computed stage by stage (outermost
primitive first, each value pulled back through the next primitive).  A
loop is a segment from the base point to a circle, the full circle
counterclockwise, and the segment back; the fiber is continued along it
with a tangent predictor and a Newton corrector on the composite equation
F(x) = gamma(t).  On a curve y^2 = c(x) only x is continued, on the
polynomial stages alone, and y is carried by the exact ratio sqrt(c(x_new)
/ c(x)); a step is accepted only when it moves each x much less than its
gap to the other x and to the roots of c.  Render's ladders take this step.

The gap guard does not rebuild the all-pairs gaps on every step.  The
caller of the step carries a per-point lower bound on the gaps from step
to step: an accepted step shrinks the gap of point i by at most moved_i +
max_j moved_j, so the bound is lowered by that much (less a relative
rounding slack).  The exact gaps are computed only when the bound is too
weak to accept a step, and then decide it, so every step is accepted or
refused exactly as if the gaps were rebuilt each time.  This is the cheap
form of the disjoint-disk condition of Beltran and Leykin, Certified
numerical homotopy tracking (2012), with the roots of c among the disks.

Only what the structure leaves open is continued.  Curve points come in
sheet pairs (x, y), (x, -y) whose continuations differ only by the sign
of y, so one sheet of each pair is tracked.  A leading b(1,1) over a Belyi
chain only doubles the inner dessin: its pair is assembled from the inner
pair and the transport of the inner fiber to the two preimages of 1/2.

Permutations map start labels to end labels, so the product of the loop
permutations taken in traversal order is the permutation of the
concatenated path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import maps
from .maps import MapExpr
from .perms import Permutation, compose, inverse, format_cycles
from .polynomials import ComplexPoly, roots

BASEPOINT = 0.5


class TrackingError(RuntimeError):
    """Base class for numerical continuation failures."""


class NearBranchError(TrackingError):
    pass


class CollisionError(TrackingError):
    pass


class StepUnderflowError(TrackingError):
    pass


class MatchAmbiguousError(TrackingError):
    pass


class NotBijectiveError(TrackingError):
    pass


class NotBelyiError(ValueError):
    pass


@dataclass(frozen=True)
class TrackingConfig:
    newton_tol: float = 1e-12
    max_newton_iters: int = 30
    initial_step: float = 1.0 / 256.0   # fraction of the loop length
    min_step: float = 2.0**-20          # fraction of the loop length
    match_tol: float = 1e-6
    separation_factor: float = 10.0

    def __post_init__(self) -> None:
        """Raises ValueError unless every float setting is a finite positive
        number, max_newton_iters is an integer of at least 1, and
        min_step <= initial_step <= 1."""
        for name in ("newton_tol", "initial_step", "min_step", "match_tol", "separation_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        n = self.max_newton_iters
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"max_newton_iters must be an integer >= 1, got {n!r}")
        if not self.min_step <= self.initial_step <= 1:
            raise ValueError(
                f"need min_step <= initial_step <= 1, got {self.min_step!r} and {self.initial_step!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrackingConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class LoopSpec:
    """Segment to the circle, counterclockwise circle, segment back.

    The entry point sits at ``center + radius * exp(i * entry_angle)``;
    by default the entry angle points from the center toward the base
    point, so the segment is radial.
    """

    center: complex
    radius: float
    basepoint: complex = BASEPOINT
    steps: int = 256
    entry_angle: float | None = None

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if abs(self.basepoint - self.center) == 0:
            raise ValueError("basepoint must differ from center")

    @property
    def _entry(self) -> complex:
        angle = self.entry_angle
        if angle is None:
            angle = cmath.phase(self.basepoint - self.center)
        return self.center + self.radius * cmath.exp(1j * angle)

    @property
    def length(self) -> float:
        return 2 * abs(self._entry - self.basepoint) + 2 * math.pi * self.radius

    def point(self, t: float) -> complex:
        """Position along the loop at arc-length fraction t in [0, 1]."""
        entry = self._entry
        seg = abs(entry - self.basepoint)
        total = 2 * seg + 2 * math.pi * self.radius
        s = t * total
        if s <= seg:
            frac = s / seg if seg > 0 else 1.0
            return self.basepoint + frac * (entry - self.basepoint)
        if s <= seg + 2 * math.pi * self.radius:
            theta0 = cmath.phase(entry - self.center)
            theta = theta0 + (s - seg) / self.radius
            return self.center + self.radius * cmath.exp(1j * theta)
        frac = (s - seg - 2 * math.pi * self.radius) / seg if seg > 0 else 1.0
        return entry + frac * (self.basepoint - entry)


@dataclass(frozen=True)
class FiberPoint:
    x: complex
    y: complex | None
    label: int


@dataclass(frozen=True)
class MonodromyPair:
    g0: Permutation
    g1: Permutation

    def __iter__(self):
        return iter((self.g0, self.g1))


def _stage_polys(e: MapExpr) -> list[ComplexPoly]:
    return [maps.as_poly(p) for p in e.polynomial_part()]


def _composite_and_derivative(
    stages: Sequence[ComplexPoly],
    derivs: Sequence[ComplexPoly],
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    value = x
    slope = np.ones_like(x)
    for poly, dpoly in zip(reversed(stages), reversed(derivs)):
        slope = dpoly.eval_many(value) * slope
        value = poly.eval_many(value)
    return value, slope


def fiber(e: MapExpr, p: complex, cfg: TrackingConfig = TrackingConfig()) -> tuple[FiberPoint, ...]:
    """The full fiber over a base point, deterministically labeled.

    Points are sorted by (re x, im x) and, on curves, by (im y, re y) to
    split the two sheets; labels count from 1.  Raises NearBranchError when
    the base point sits within 1e-6 of a branch value and CollisionError
    when two fiber points nearly coincide.
    """
    data = maps.branch_values(e)
    for v in data.finite_numeric():
        if abs(p - v) < 1e-6:
            raise NearBranchError(f"base point {p} within 1e-6 of branch value {v}")

    stages = _stage_polys(e)
    values: list[complex] = [complex(p)]
    for poly in stages:
        pulled: list[complex] = []
        for v in values:
            shifted = ComplexPoly((poly.coeffs[0] - v,) + poly.coeffs[1:])
            pulled.extend(roots(shifted))
        values = pulled

    if e.has_curve:
        proj = e.proj
        points = []
        for x in values:
            y = cmath.sqrt(proj.curve_rhs(x))
            points.extend([(x, y), (x, -y)])
        points.sort(key=lambda pt: (pt[0].real, pt[0].imag, pt[1].imag, pt[1].real))
        out = tuple(
            FiberPoint(x=x, y=y, label=i) for i, (x, y) in enumerate(points, 1)
        )
    else:
        values.sort(key=lambda x: (x.real, x.imag))
        out = tuple(FiberPoint(x=x, y=None, label=i) for i, x in enumerate(values, 1))

    if len(out) != maps.degree(e):
        raise TrackingError(
            f"fiber has {len(out)} points, expected {maps.degree(e)}")
    x, _ = _sheets(e, out)
    branch = None if e.proj is None else np.array(e.proj.cubic_roots())
    dist = float(_gaps(x, branch).min())
    if dist <= cfg.match_tol:
        raise CollisionError(f"fiber points within {dist:.3e}")
    # on curves y is a square root of c(x) by construction, so x decides
    value, _ = _composite_and_derivative(stages, [s.derivative() for s in stages], x)
    if np.any(np.abs(value - p) >= 1e-8):
        raise TrackingError("fiber point fails to evaluate back to base")
    return out


def _coords(points: Sequence[FiberPoint]) -> tuple[np.ndarray, np.ndarray | None]:
    x = np.array([pt.x for pt in points], dtype=complex)
    if points[0].y is not None:
        y = np.array([pt.y for pt in points], dtype=complex)
    else:
        y = None
    return x, y


def _metric(ax, ay, bx, by) -> np.ndarray:
    d = np.abs(ax[:, None] - bx[None, :])
    if ay is not None:
        d = d + np.abs(ay[:, None] - by[None, :])
    return d


def _sheets(e: MapExpr, points: Sequence[FiberPoint]) -> tuple[np.ndarray, np.ndarray | None]:
    """The tracked half of a fiber: every x on plain chains; on curves the
    first point of each adjacent pair (x, y), (x, -y).

    The pair shares x exactly and has exactly negated y, so the continuation
    of the second point is the first with y negated.  Raises TrackingError
    when the curve points do not pair this way.
    """
    x, y = _coords(points)
    if not e.has_curve:
        return x, None
    if y is None or len(points) % 2 or np.any(x[0::2] != x[1::2]) or np.any(y[0::2] != -y[1::2]):
        raise TrackingError("curve fiber is not in adjacent (x, y), (x, -y) pairs")
    return x[0::2], y[0::2]


def _unfold(x: np.ndarray, y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Full fiber coordinates, in fiber order, from the tracked half."""
    if y is None:
        return x, None
    return np.repeat(x, 2), np.column_stack((y, -y)).ravel()


def _gaps(x: np.ndarray, branch: np.ndarray | None) -> np.ndarray:
    """Distance from each tracked x to the nearest other tracked x and, on
    curves, to the nearest root of c in ``branch``: the two sheets of a
    pair share x and meet where x is a root, as |2 y|^2 = 4 |c(x)|.
    """
    d = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    if branch is not None:
        nearest = np.minimum(nearest, np.abs(x[:, None] - branch[None, :]).min(axis=1))
    return nearest


# Relative slack of _lowered.  Away from underflow, the float values of
# _gaps and of the moves are within a few units of roundoff (2**-53) of the
# exact distances between the stored coordinates, and the update itself
# rounds three times; about 15 units would do, and 1e-12 is some thousand
# times that.
_BOUND_SLACK = 1e-12


def _lowered(bound: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """A lower bound on the float gaps (_gaps) after each tracked x_i
    moves by moved_i = |dx_i|, from a lower bound before the move.

    By the triangle inequality the distance from x_i to another x_j shrinks
    by at most moved_i + moved_j, and to a fixed root of c by at most
    moved_i, so the bound drops by moved_i + max_j moved_j, with the
    relative slack _BOUND_SLACK taken off both terms so that rounding
    cannot lift it above the float gaps.
    """
    return bound * (1 - _BOUND_SLACK) - (moved + moved.max()) * (1 + _BOUND_SLACK)


def _stepper(e: MapExpr, max_newton_iters: int):
    """The continuation step for the tracked half of a fiber of ``e`` (see
    _sheets).

    ``step(x, y, bound, origin, target, tol)`` carries the points sitting
    over the base value ``origin`` to ``target``: a tangent predictor, then
    Newton on F(x) = target to relative tolerance ``tol`` in at most
    max_newton_iters iterations.  The step is refused when Newton does not
    converge (a non-finite iterate never does) or some x moves 0.4 of its
    gap (_gaps) or more.

    On curves y is then carried by y_new = y sqrt(c(x_new) / c(x)), with
    the principal root, and this is its continuation along the step: the
    guard keeps |x_new - x| < 0.4 |x - r| for each root r of c, so for x'
    on the segment from x to x_new each factor (x' - r) / (x - r) of
    c(x') / c(x) lies in the disc of radius 0.4 about 1, the product has
    argument below 3 asin 0.4 < 1.24 < pi, and its principal root moves
    continuously from 1.

    ``bound`` is a per-point lower bound on the float value of _gaps,
    kept by the caller from step to step; zeros are always valid, and make
    the first step of a path compute the gaps.  The gap guard tests
    ``moved < 0.4 * bound`` first.  Only when that fails are the gaps
    computed, and ``moved < 0.4 * _gaps(x, branch)`` decides.  Float
    multiplication by 0.4 is monotone, so a step the bound accepts is one
    the exact guard accepts too, and every decision is the exact one.

    Returns (landed, bound): landed is the new (x, y), or None when the
    step is refused; bound holds for the points the caller now has.  After
    a refusal it is the old bound, or the exact gaps when they were
    computed.  After an acceptance it is the old bound, or the exact gaps,
    lowered by moved_i + max_j moved_j less a rounding slack (_lowered).
    """
    stages = _stage_polys(e)
    derivs = [s.derivative() for s in stages]
    proj = e.proj
    branch = None if proj is None else np.array(proj.cubic_roots())

    def step(x, y, bound, origin, target, tol):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, slope = _composite_and_derivative(stages, derivs, x)
            x_new = x + (target - origin) / slope
            for _ in range(max_newton_iters):
                value, slope_new = _composite_and_derivative(stages, derivs, x_new)
                delta = (value - target) / slope_new
                x_new = x_new - delta
                if np.all(np.abs(delta) <= tol * np.maximum(1.0, np.abs(x_new))):
                    break
            else:
                return None, bound
        moved = np.abs(x_new - x)
        if not np.all(moved < 0.4 * bound):
            bound = _gaps(x, branch)
            if not np.all(moved < 0.4 * bound):
                return None, bound
        if proj is not None:
            y = y * np.sqrt(proj.curve_rhs(x_new) / proj.curve_rhs(x))
        return (x_new, y), _lowered(bound, moved)

    return step


def _continue(
    e: MapExpr,
    path,
    x: np.ndarray,
    y: np.ndarray | None,
    cfg: TrackingConfig,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Continue the tracked half of a fiber (see _sheets) along a path
    with ``.point(t)`` for t in [0, 1] and ``.steps``; returns the end
    positions.

    The step is a fraction of the path, starting at 1/steps, halving
    whenever the step of _stepper fails and doubling back toward 1/steps
    after each accepted one.  The gap bound of _stepper starts at zero, so
    the first step computes the exact gaps, and is then carried along the
    path; the exact gaps are recomputed only where the bound cannot accept
    a step.  Raises StepUnderflowError below min_step.
    """
    step = _stepper(e, cfg.max_newton_iters)
    t = 0.0
    h = 1.0 / path.steps
    h_nominal = h
    gamma_t = path.point(0.0)
    bound = np.zeros(len(x))
    while t < 1.0:
        h = min(h, 1.0 - t)
        target = path.point(t + h)
        landed, bound = step(x, y, bound, gamma_t, target, cfg.newton_tol)
        if landed is None:
            h /= 2
            if h < cfg.min_step:
                raise StepUnderflowError(f"step underflow at t = {t:.6f}")
            continue
        x, y = landed
        t += h
        gamma_t = target
        h = min(h * 2, h_nominal)
    return x, y


def _match(end, start, cfg: TrackingConfig) -> np.ndarray:
    """Index of the start point each end point landed on.

    Raises MatchAmbiguousError when an end point is farther than match_tol
    from every start point or its runner-up is not separation_factor times
    farther, and NotBijectiveError when two end points land on one start
    point.
    """
    d = _metric(*end, *start)
    order = np.argsort(d, axis=1)
    rows = np.arange(len(d))
    nearest = order[:, 0]
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


def track_loop(
    e: MapExpr,
    loop: LoopSpec,
    points: Sequence[FiberPoint],
    cfg: TrackingConfig = TrackingConfig(),
) -> Permutation:
    """Continue the fiber around the loop; returns start label -> end label.

    The step is a fraction of the loop, starting at 1/steps and halving
    whenever Newton fails or an x moves 0.4 of its gap or more (see
    _stepper).  On curves the fiber must come as from ``fiber``, in
    adjacent (x, y), (x, -y) pairs, and only one sheet of each pair is
    continued, its y carried along x.  Raises TrackingError for an
    unpaired curve fiber, StepUnderflowError below min_step,
    MatchAmbiguousError when the final nearest-neighbor match is not clear
    by separation_factor, and NotBijectiveError when two trajectories land
    on one fiber point.
    """
    start = _sheets(e, points)
    end = _continue(e, loop, *start, cfg)
    nearest = _match(_unfold(*end), _unfold(*start), cfg)
    images = [0] * len(points)
    for row, pt in enumerate(points):
        images[pt.label - 1] = points[nearest[row]].label
    return Permutation(tuple(images))


def monodromy(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> MonodromyPair:
    """Loop permutations (g0, g1) around 0 and 1 from the base point 1/2.

    The chain must be branched only over {0, 1, infinity}.  The loop
    around infinity is never tracked; inverse(compose(g0, g1)) plays its
    part.  A leading b(1,1) over a Belyi chain is peeled off exactly (see
    _doubled); every other chain has both loops tracked.
    """
    if not maps.is_belyi(e):
        raise NotBelyiError(f"{maps.format_map_expr(e)} is branched off {{0, 1, inf}}")
    return _pair(e, fiber(e, BASEPOINT, cfg), cfg, _loops(cfg))


def _loops(cfg: TrackingConfig, radius: float = 0.25, refine: int = 1) -> tuple[LoopSpec, LoopSpec]:
    """The loops around 0 and 1, in refine / initial_step nominal steps.

    The default radius 1/4 is half the distance from each center to the
    base point 1/2, which on a chain branched over {0, 1, infinity} is
    nearer than the other finite branch value.
    """
    steps = max(1, round(1.0 / cfg.initial_step)) * refine
    return tuple(LoopSpec(center=c, radius=radius, steps=steps) for c in (0j, 1 + 0j))


def _pair(
    e: MapExpr,
    points: Sequence[FiberPoint],
    cfg: TrackingConfig,
    loops: tuple[LoopSpec, LoopSpec],
) -> MonodromyPair:
    """The pair of a Belyi chain on its labeled fiber over the base point,
    by continuation around ``loops`` (see _loops)."""
    inner = e.inner()
    if e.chain[0] == maps.BelyiMN(1, 1) and inner is not None and maps.is_belyi(inner):
        return _doubled(inner, points, cfg, loops)
    g0, g1 = (track_loop(e, loop, points, cfg) for loop in loops)
    return MonodromyPair(g0=g0, g1=g1)


# The preimages w1 < 1/2 < w2 of the base point under b(1,1) = 4w(1 - w).
_HALF_PREIMAGES = ((1 - math.sqrt(0.5)) / 2, (1 + math.sqrt(0.5)) / 2)


@dataclass(frozen=True)
class _Segment:
    """The straight path from start to end, in nominal steps no longer
    than arc_step."""

    start: complex
    end: complex
    arc_step: float

    @property
    def steps(self) -> int:
        return max(1, math.ceil(abs(self.end - self.start) / self.arc_step))

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)


def _doubled(
    inner: MapExpr,
    points: Sequence[FiberPoint],
    cfg: TrackingConfig,
    loops: tuple[LoopSpec, LoopSpec],
) -> MonodromyPair:
    """The pair of b(1,1) . inner on ``points``, its fiber over 1/2, from
    the pair (s0, s1) of the Belyi chain ``inner`` on its own fiber,
    tracked around ``loops``.

    Each inner fiber point k is carried along the real segments from 1/2
    to w1 and to w2, which meet no branch value of ``inner``, with the
    loops' nominal step length; a(k) and b(k) are the labels of
    the points it lands on.  The loop around 0 lifts through 4w(1 - w) to
    a loop around 0 at w1 and around 1 at w2, and the loop around 1 to a
    path from w1 to w2 through 1/2, so

        g0: a(k) -> a(s0 k),  b(k) -> b(s1 k);    g1: a(k) <-> b(k),

    the composition of Belyi functions in Lando and Zvonkin, Graphs on
    Surfaces and Their Applications (2004): the dessin of inner with a
    white vertex on each edge.
    """
    inner_points = fiber(inner, BASEPOINT, cfg)
    s0, s1 = _pair(inner, inner_points, cfg, loops)
    arc_step = loops[0].length / loops[0].steps
    start = _sheets(inner, inner_points)
    ends = [
        _unfold(*_continue(inner, _Segment(BASEPOINT, w, arc_step), *start, cfg))
        for w in _HALF_PREIMAGES
    ]
    x = np.concatenate([end[0] for end in ends])
    y = None if inner.proj is None else np.concatenate([end[1] for end in ends])
    landed = [points[k].label for k in _match((x, y), _coords(points), cfg)]
    n = len(inner_points)
    a = {pt.label: landed[k] for k, pt in enumerate(inner_points)}
    b = {pt.label: landed[n + k] for k, pt in enumerate(inner_points)}
    g0 = [0] * len(points)
    g1 = [0] * len(points)
    for k in a:
        g0[a[k] - 1] = a[s0(k)]
        g0[b[k] - 1] = b[s1(k)]
        g1[a[k] - 1] = b[k]
        g1[b[k] - 1] = a[k]
    return MonodromyPair(g0=Permutation(tuple(g0)), g1=Permutation(tuple(g1)))


def verify_stability(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> bool:
    """Recompute with doubled steps and radius scaled by 0.8; True when
    both permutation pairs agree label for label."""
    return _agrees_with_probe(e, cfg, monodromy(e, cfg))


def _agrees_with_probe(e: MapExpr, cfg: TrackingConfig, base: MonodromyPair) -> bool:
    probe = _loops(cfg, radius=0.25 * 0.8, refine=2)
    return _pair(e, fiber(e, BASEPOINT, cfg), cfg, probe) == base


def monodromy_json(
    e: MapExpr,
    cfg: TrackingConfig = TrackingConfig(),
    check_stability: bool = False,
) -> dict:
    """The CLI payload; with check_stability, ``stability`` reports
    verify_stability, reusing the pair of the payload as its base run."""
    pair = monodromy(e, cfg)
    stability = _agrees_with_probe(e, cfg, pair) if check_stability else None
    ginf = inverse(compose(pair.g0, pair.g1))
    return {
        "degree": maps.degree(e),
        "g0": format_cycles(pair.g0),
        "g1": format_cycles(pair.g1),
        "ginf": format_cycles(ginf),
        "stability": stability,
        "config_echo": cfg.to_json_dict(),
    }
