"""Deterministic SVG drawings of dessins by lifting the segment [0, 1].

Vertices are the structural preimages of 0 (black) and 1 (white), computed
stage by stage with exact multiplicity bookkeeping at critical values.
Edges are the fiber points over 1/2, continued toward both endpoints along
a geometric sample ladder with the continuation step of loop tracking
(monodromy._stepper); each strand is attached to the vertex nearest its
deep endpoint (x and y jointly on curves).  The strand count at every
vertex must equal the vertex's ramification order, and the drawing refuses
to render when the two disagree.

On curve chains one sheet of each (x, y), (x, -y) pair is continued, y
carried along x; the other is its negation in y, on the same x.  The two
y-sheets are drawn with two distinguishable strokes.  Vertices closer
than the merge tolerance in the x plane are drawn as a single dot
carrying the orders of all constituents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import maps
from .maps import BelyiMN, FPoly, MapExpr, RootRef
from .monodromy import NotBelyiError, TrackingConfig, _sheets, _stepper, _unfold, fiber
from .polynomials import ComplexPoly, roots

ENDPOINT_VALUE_GAP = 1e-8  # how close to 0 and 1 the strands are tracked

# drawing style
WIDTH = 840.0
PADDING = 28.0
MERGE_TOL = 1e-4
EDGE_WIDTH = 1.6
SHEET_WIDTHS = (2.4, 1.1)
SHEET_COLORS = ("#5b8dd9", "#d97b5b")
EDGE_COLOR = "#555555"
BLACK_COLOR = "#111111"
WHITE_FILL = "#ffffff"
VERTEX_RADIUS = 3.2


class RenderError(RuntimeError):
    pass


@dataclass(frozen=True)
class RenderVertex:
    x: complex
    y: complex | None
    order: int
    color: str


@dataclass(frozen=True)
class RenderResult:
    svg: str
    black_vertices: tuple[RenderVertex, ...]
    white_vertices: tuple[RenderVertex, ...]
    arc_count: int
    merged_black_count: int
    merged_white_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.black_vertices) + len(self.white_vertices)


# ---------------------------------------------------------------------------
# structural preimages with multiplicity


def _poly_minus(prim, v: complex) -> ComplexPoly:
    poly = maps.as_poly(prim)
    return ComplexPoly((poly.coeffs[0] - v,) + poly.coeffs[1:])


def _deflated_roots(prim, v: complex, at: complex, times: int) -> tuple[complex, ...]:
    poly = _poly_minus(prim, v)
    for _ in range(times):
        poly = poly.deflate(at)
    if poly.degree == 0:
        return ()
    return roots(poly)


def _preimages(prim, v):
    """(preimage, multiplicity) pairs of a single primitive at one value."""
    if isinstance(prim, BelyiMN):
        if v == Fraction(0):
            return [(Fraction(0), prim.m), (Fraction(1), prim.n)]
        if v == Fraction(1):
            crit = Fraction(prim.m, prim.m + prim.n)
            extra = _deflated_roots(prim, 1.0, complex(crit), 2)
            return [(crit, 2)] + [(r, 1) for r in extra]
        return [(r, 1) for r in _solve_regular(prim, v)]
    if isinstance(prim, FPoly):
        if v == Fraction(1):
            return [(Fraction(0), 11), (Fraction(12, 11), 1)]
        if v == Fraction(10, 11):
            extra = _deflated_roots(prim, 10.0 / 11.0, 1.0, 2)
            return [(Fraction(1), 2)] + [(r, 1) for r in extra]
        if v == Fraction(0):
            return [(RootRef(i), 1) for i in range(1, 13)]
        return [(r, 1) for r in _solve_regular(prim, v)]
    raise TypeError("pi preimages are handled on the curve")


def _solve_regular(prim, v) -> tuple[complex, ...]:
    vc = maps.point_to_complex(v) if not isinstance(v, complex) else v
    data = maps.branch_values(MapExpr((prim,)))
    for bv in data.finite_numeric():
        if abs(vc - bv) < 1e-9 and not _is_exact(v):
            raise RenderError(
                f"value {vc} sits on a critical value without an exact tag")
    return roots(_poly_minus(prim, vc))


def _is_exact(v) -> bool:
    return isinstance(v, (Fraction, RootRef))


def structural_vertices(e: MapExpr, target: int) -> list[RenderVertex]:
    """Preimages of 0 or 1 under the chain, with ramification orders."""
    if target not in (0, 1):
        raise ValueError("target must be 0 or 1")
    color = "black" if target == 0 else "white"
    current: list[tuple[object, int]] = [(Fraction(target), 1)]
    for prim in e.polynomial_part():
        nxt: list[tuple[object, int]] = []
        for v, mult in current:
            for w, m in _preimages(prim, v):
                nxt.append((w, mult * m))
        current = nxt

    out = []
    if e.has_curve:
        proj = e.proj
        in_triple = set(proj.triple)
        for v, mult in current:
            if isinstance(v, RootRef) and v.label in in_triple:
                out.append(RenderVertex(x=v.value(), y=0j, order=2 * mult, color=color))
                continue
            x = maps.point_to_complex(v)
            y = np.sqrt(complex(proj.curve_rhs(x)))
            out.append(RenderVertex(x=x, y=complex(y), order=mult, color=color))
            out.append(RenderVertex(x=x, y=-complex(y), order=mult, color=color))
    else:
        for v, mult in current:
            out.append(RenderVertex(
                x=maps.point_to_complex(v), y=None, order=mult, color=color))
    return out


# ---------------------------------------------------------------------------
# strand tracking


def _ladder(step, x, y, targets, tol):
    """Continue the tracked half of the fiber over 1/2 through a
    decreasing ladder of base values; returns the half after each rung.

    A rejected step is retried to the midpoint in value space, as often
    as needed; raises RenderError after 60 rejections in a row.
    """
    rungs = [(x, y)]
    reached = 0.5
    for target in targets:
        pending = [float(target)]
        depth = 0
        while pending:
            sub = pending[-1]
            landed, _ = step(x, y, np.zeros(len(x)), reached, sub, tol)
            if landed is None:
                depth += 1
                if depth > 60:
                    raise RenderError("substep bisection stalled")
                pending.append((reached + sub) / 2)
                continue
            depth = 0
            x, y = landed
            reached = sub
            pending.pop()
        rungs.append((x, y))
    return rungs


def _value_ladder(samples: int, toward_one: bool) -> list[float]:
    ratio = (ENDPOINT_VALUE_GAP / 0.5) ** (1.0 / samples)
    ladder = [0.5 * ratio**k for k in range(1, samples + 1)]
    if toward_one:
        return [1.0 - v for v in ladder]
    return ladder


# ---------------------------------------------------------------------------
# assembly


def _attach(x, y, vertices: list[RenderVertex], side: str) -> np.ndarray:
    """The x of the vertex nearest each strand end, in |dx| + |dy| on
    curves (the first of equals wins).  Raises RenderError unless every
    vertex collects as many strands as its ramification order."""
    vx = np.array([v.x for v in vertices])
    d = np.abs(x[:, None] - vx[None, :])
    if y is not None:
        d = d + np.abs(y[:, None] - np.array([v.y for v in vertices])[None, :])
    nearest = np.argmin(d, axis=1)
    for count, v in zip(np.bincount(nearest, minlength=len(vertices)), vertices):
        if count != v.order:
            raise RenderError(
                f"{side} vertex at {v.x:.6f} collected {count} strands, "
                f"ramification order is {v.order}")
    return vx[nearest]


def render_graph(
    e: MapExpr,
    samples_per_edge: int = 48,
    cfg: TrackingConfig = TrackingConfig(),
) -> RenderResult:
    """Render the dessin of a chain with samples_per_edge rungs on each
    half-edge; see the module docstring.

    Raises ValueError below 8 samples and NotBelyiError for a chain
    branched off {0, 1, infinity}.
    """
    if samples_per_edge < 8:
        raise ValueError("samples_per_edge must be at least 8")
    if not maps.is_belyi(e):
        raise NotBelyiError(f"{maps.format_map_expr(e)} is branched off {{0, 1, inf}}")
    blacks = structural_vertices(e, 0)
    whites = structural_vertices(e, 1)
    base = fiber(e, 0.5, cfg)
    half = _sheets(e, base)
    step = _stepper(e, cfg.max_newton_iters)
    # Strands run into ramification points where |F'| -> 0, so the
    # attainable Newton step plateaus near eps/|F'| (about 1e-8 on the
    # last rung of a 10-fold point).  The loop tolerance is unreachable
    # there; 1e-7 still sits three decades below the merge tolerance.
    tol = max(cfg.newton_tol, 1e-7)
    to_zero = _ladder(step, *half, _value_ladder(samples_per_edge, False), tol)
    to_one = _ladder(step, *half, _value_ladder(samples_per_edge, True), tol)

    # one row per fiber point, from its vertex over 0 to its vertex over 1
    lines = np.column_stack((
        _attach(*_unfold(*to_zero[-1]), blacks, "black"),
        np.array([_unfold(*rung)[0] for rung in to_zero[::-1] + to_one]).T,
        _attach(*_unfold(*to_one[-1]), whites, "white"),
    ))
    sheets = [
        0 if pt.y is None or (pt.y.imag, pt.y.real) >= (0.0, 0.0) else 1
        for pt in base
    ]

    svg, merged_black, merged_white = _svg_document(e, blacks, whites, lines, sheets)
    return RenderResult(
        svg=svg,
        black_vertices=tuple(blacks),
        white_vertices=tuple(whites),
        arc_count=len(lines),
        merged_black_count=merged_black,
        merged_white_count=merged_white,
    )


def merge_dots(vertices, tol: float) -> list[list[RenderVertex]]:
    """Group vertices by x-plane proximity; each group is one drawn dot."""
    groups: list[list[RenderVertex]] = []
    for v in sorted(vertices, key=lambda u: (u.x.real, u.x.imag, 0 if u.y is None else u.y.imag)):
        for g in groups:
            if abs(g[0].x - v.x) < tol:
                g.append(v)
                break
        else:
            groups.append([v])
    return groups


def _svg_document(e, blacks, whites, lines, sheets):
    """The SVG of the strands ``lines`` (one row of x-plane points per fiber
    point, in label order) on their sheets, and of the merged vertices."""
    points = np.concatenate((lines.ravel(), [v.x for v in blacks + whites]))
    minx = float(points.real.min())
    maxx = float(points.real.max())
    miny = float(points.imag.min())
    maxy = float(points.imag.max())
    span_x = max(maxx - minx, 1e-9)
    span_y = max(maxy - miny, 1e-9)
    scale = (WIDTH - 2 * PADDING) / span_x
    height = span_y * scale + 2 * PADDING

    # complex scalars and arrays alike
    def sx(z):
        return (z.real - minx) * scale + PADDING

    def sy(z):
        return (maxy - z.imag) * scale + PADDING

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{height:.2f}" '
        f'viewBox="0 0 {WIDTH:.2f} {height:.2f}">'
    )
    title = maps.format_map_expr(e)
    out.append(f"<title>{title}</title>")
    out.append(f'<rect width="100%" height="100%" fill="{WHITE_FILL}"/>')

    curve = e.has_curve
    for sheet, px, py in zip(sheets, sx(lines), sy(lines)):
        if curve:
            color = SHEET_COLORS[sheet]
            width = SHEET_WIDTHS[sheet]
        else:
            color = EDGE_COLOR
            width = EDGE_WIDTH
        d = "M " + " L ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        out.append(
            f'<path fill="none" stroke="{color}" stroke-width="{width:.2f}" '
            f'stroke-linecap="round" d="{d}"/>'
        )

    merged_black = merge_dots(blacks, MERGE_TOL)
    merged_white = merge_dots(whites, MERGE_TOL)
    for groups, fill, stroke in (
        (merged_black, BLACK_COLOR, "none"),
        (merged_white, WHITE_FILL, BLACK_COLOR),
    ):
        for g in groups:
            total = sum(v.order for v in g)
            r = VERTEX_RADIUS * (1.0 + 0.25 * min(total, 24) ** 0.5)
            z = g[0].x
            orders = "+".join(str(v.order) for v in sorted(g, key=lambda u: -u.order))
            extra = '' if stroke == "none" else f' stroke="{stroke}" stroke-width="1.2"'
            out.append(
                f'<circle cx="{sx(z):.2f}" cy="{sy(z):.2f}" r="{r:.2f}" '
                f'fill="{fill}"{extra}><title>orders {orders}</title></circle>'
            )

    if curve:
        out.append(
            f'<text x="{PADDING:.0f}" y="16" font-family="sans-serif" '
            f'font-size="12" fill="{SHEET_COLORS[0]}">sheet 1</text>'
        )
        out.append(
            f'<text x="{PADDING + 70:.0f}" y="16" font-family="sans-serif" '
            f'font-size="12" fill="{SHEET_COLORS[1]}">sheet 2</text>'
        )
    out.append("</svg>")
    return "\n".join(out), len(merged_black), len(merged_white)
