"""Deterministic SVG drawings of dessins by lifting the segment [0, 1].

Vertices are the structural preimages of 0 (black) and 1 (white), computed
stage by stage with exact multiplicity bookkeeping at the values of each
primitive's ramification table (maps.Ramification).
Edges are the fiber points over 1/2, continued toward both endpoints
through geometric ladders of base values by the continuation of loop
tracking (monodromy._continue), one stacked run of the two ladders per
rung; each strand is attached to the vertex nearest its deep endpoint in
the x plane.  The strand count at every vertex must equal the vertex's
ramification order, and the drawing refuses to render when the two
disagree.

On curve chains the two sheets (x, y), (x, -y) of a pair share x all the
way, so only the x of one sheet per pair is continued, and no y is
carried; the pair's strands end over the same x, one on each vertex
(x, +-y) over it, or both on a ramified vertex (y = 0) (see _attach).
The two y-sheets are drawn from one path string with two distinguishable
strokes: the tracked y of monodromy.Fiber as sheet 2, its negation as
sheet 1.
Vertices closer than the merge tolerance in the x plane are drawn as a
single dot carrying the orders of all constituents; taken in order of
real part, a vertex is compared only with the dots that open within the
tolerance in real part (see merge_dots).
The path data of all strands is written in one array pass, byte for byte
as "%.2f" formats each coordinate (see _path_data).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import maps
from .maps import MapExpr
from .monodromy import BASEPOINT, _continue, _Segment, fiber
from .polynomials import ComplexPoly, roots, shifted_roots
from .tracking import RenderError, TrackingConfig

ENDPOINT_VALUE_GAP = 1e-8  # how close to 0 and 1 the strands are tracked
RUNGS = 48  # rungs of each ladder, from BASEPOINT to ENDPOINT_VALUE_GAP

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


@dataclass(frozen=True)
class RenderVertex:
    x: complex
    y: complex | None
    order: int


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


def _preimages(prim, v, table: maps.Ramification):
    """(preimage, multiplicity) pairs of a polynomial primitive at a value
    of its ramification table: the table's exact points, then the simple
    roots of prim - v left after deflating each exact point of order k
    k times.  None at any other value (see _solve_regular)."""
    exact = table.get(v)
    if exact is None:
        return None
    poly = maps.as_poly(prim)
    poly = ComplexPoly((poly.coeffs[0] - maps.point_to_complex(v),) + poly.coeffs[1:])
    for point, order in exact:
        for _ in range(order):
            poly = poly.deflate(maps.point_to_complex(point))
    simple = roots(poly) if poly.degree else ()
    return list(exact) + [(r, 1) for r in simple]


def _solve_regular(prim, values) -> list[tuple[complex, ...]]:
    """The roots of prim - v for each value v off the ramification table,
    from one batched solve; raises RenderError for a numeric value within
    1e-9 of a critical value, which it may only approximate."""
    if not values:
        return []
    vcs = [maps.point_to_complex(v) for v in values]
    critical = [maps.point_to_complex(c) for c in maps.critical_values(prim)]
    for v, vc in zip(values, vcs):
        if isinstance(v, complex) and any(abs(vc - c) < 1e-9 for c in critical):
            raise RenderError(f"value {vc} sits on a critical value without an exact tag")
    return shifted_roots(maps.as_poly(prim), vcs)


def structural_vertices(e: MapExpr, target: int) -> list[RenderVertex]:
    """Preimages of 0 or 1 under the chain, with ramification orders; the
    regular values of each stage are solved together."""
    if target not in (0, 1):
        raise ValueError("target must be 0 or 1")
    current: list[tuple[object, int]] = [(Fraction(target), 1)]
    for prim in e.polynomial_part():
        table = prim.ramification()
        exact = [_preimages(prim, v, table) for v, _ in current]
        regular = iter(_solve_regular(
            prim, [v for (v, _), pre in zip(current, exact) if pre is None]))
        nxt: list[tuple[object, int]] = []
        for (v, mult), pre in zip(current, exact):
            if pre is None:
                pre = [(r, 1) for r in next(regular)]
            nxt.extend((w, mult * m) for w, m in pre)
        current = nxt

    out = []
    if e.has_curve:
        proj = e.proj
        ramified = proj.ramification()
        for v, mult in current:
            if v in ramified:
                (x, order), = ramified[v]
                out.append(RenderVertex(x=x.value(), y=0j, order=order * mult))
                continue
            x = maps.point_to_complex(v)
            y = np.sqrt(complex(proj.curve_rhs(x)))
            out.append(RenderVertex(x=x, y=complex(y), order=mult))
            out.append(RenderVertex(x=x, y=-complex(y), order=mult))
    else:
        for v, mult in current:
            out.append(RenderVertex(x=maps.point_to_complex(v), y=None, order=mult))
    return out


# ---------------------------------------------------------------------------
# strand tracking


def _rungs() -> list[tuple[float, float]]:
    """The base values of the two ladders, (v, 1 - v) with v falling
    geometrically from BASEPOINT to ENDPOINT_VALUE_GAP in RUNGS rungs."""
    ratio = (ENDPOINT_VALUE_GAP / BASEPOINT) ** (1.0 / RUNGS)
    return [(v, 1.0 - v) for v in (BASEPOINT * ratio**k for k in range(RUNGS + 1))]


# ---------------------------------------------------------------------------
# assembly


def _attach(x, vertices: list[RenderVertex], side: str) -> np.ndarray:
    """The x of the vertex nearest each tracked strand end ``x`` in the x
    plane; the first of equals wins.  On curves an end stands for the two
    strands of its sheet pair (see monodromy.Fiber), which share x: over
    an unramified x they end one on each vertex (x, +-y), and a ramified
    vertex (y = 0) takes both.  Raises RenderError unless every vertex
    collects as many strands as its ramification order."""
    vx = np.array([v.x for v in vertices])
    at = vx[np.argmin(np.abs(x[:, None] - vx[None, :]), axis=1)]
    ends = np.count_nonzero(at[:, None] == vx[None, :], axis=0)
    for count, v in zip(ends, vertices):
        count *= 2 if v.y == 0 else 1
        if count != v.order:
            raise RenderError(
                f"{side} vertex at {v.x:.6f} collected {count} strands, "
                f"ramification order is {v.order}")
    return at


def render_graph(e: MapExpr, cfg: TrackingConfig = TrackingConfig()) -> RenderResult:
    """Render the dessin of a chain with RUNGS (48) rungs on each
    half-edge; see the module docstring.

    Of ``cfg`` render reads newton_tol (raised to at least 1e-7, see
    below), max_newton_iters, min_step and match_tol (the fiber's
    collision check); a rung is one nominal step and no end is matched,
    so initial_step and separation_factor change nothing.

    Raises NotBelyiError for a chain branched off {0, 1, infinity},
    CollisionError for fiber points within match_tol, and
    StepUnderflowError, naming its segment, for a strand that cannot be
    continued.
    """
    maps.require_belyi(e)
    blacks = structural_vertices(e, 0)
    whites = structural_vertices(e, 1)
    base = fiber(e, cfg)
    # Strands run into ramification points where |F'| -> 0, so the
    # attainable Newton step plateaus near eps/|F'| (about 1e-8 on the
    # last rung of a 10-fold point).  The loop tolerance is unreachable
    # there; 1e-7 still sits three decades below the merge tolerance.
    cfg = replace(cfg, newton_tol=max(cfg.newton_tol, 1e-7))
    rungs = _rungs()
    x = base.x
    to_zero, to_one = [x], [x]
    for previous, rung in zip(rungs, rungs[1:]):
        # one nominal step per rung, on each ladder, in x alone
        x, _ = _continue(e, [_Segment(a, b, 1) for a, b in zip(previous, rung)], x, None, cfg)
        to_zero.append(x[0])
        to_one.append(x[1])

    # one row per tracked point, from its vertex over 0 to its vertex over 1
    lines = np.column_stack((
        _attach(to_zero[-1], blacks, "black"),
        np.array(to_zero[::-1] + to_one).T,
        _attach(to_one[-1], whites, "white"),
    ))

    svg, merged_black, merged_white = _svg_document(e, blacks, whites, lines)
    return RenderResult(
        svg=svg,
        black_vertices=tuple(blacks),
        white_vertices=tuple(whites),
        arc_count=len(base),
        merged_black_count=merged_black,
        merged_white_count=merged_white,
    )


def merge_dots(vertices, tol: float) -> list[list[RenderVertex]]:
    """Group vertices by x-plane proximity; each group is one drawn dot.

    A vertex joins the first group whose first vertex lies within tol of
    it.  Groups open in order of real part, and no point is nearer than its
    difference in real part, so only the trailing groups that open within
    tol in real part are compared."""
    groups: list[list[RenderVertex]] = []
    for v in sorted(vertices, key=lambda u: (u.x.real, u.x.imag, 0 if u.y is None else u.y.imag)):
        first = None
        for g in reversed(groups):
            if v.x.real - g[0].x.real >= tol:
                break
            if abs(g[0].x - v.x) < tol:
                first = g
        if first is None:
            groups.append([v])
        else:
            first.append(v)
    return groups


def _path_data(coords: np.ndarray) -> list[str]:
    """The path data "M x,y L x,y ..." of each row of ``coords`` (x and y
    interleaved, at least one point), byte for byte as "%.2f" formats
    each coordinate.

    "%.2f" rounds v correctly to two places, ties to even (D. M. Gay's
    conversion, which CPython uses), so it prints "%d.%02d" of k // 100
    and k % 100, k the integer nearest 100 v, whenever 100 v is off the
    half-integers.  k = rint(fl(100 v)) is that integer when
    |fl(100 v) - k| < 1/2: rounding is monotone and the half-integers
    below 2^52 are floats, so fl(100 v) lies strictly between k - 1/2 and
    k + 1/2 only if 100 v does.  A row takes this path when every
    coordinate passes that test, has k < 4e9, which keeps k in uint32,
    and no sign bit, as -0.0 and (-0.005, 0) print "-0.00".  Its digits
    are written into cells of width + 4 bytes, leading zeros past "0.00"
    left NUL, and the NULs are dropped in one pass.  Every other row (a
    product on a half-integer, as from 0.125 or 0.015, a NaN, an
    infinity, a sign bit or k past the cap) is formatted by "%.2f" itself.
    """
    count = coords.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = coords * 100
        k = np.rint(scaled)
        off = np.abs(scaled - k).max(axis=1)
        fast = (off < 0.5) & (k.max(axis=1) < 4e9) & ~np.signbit(coords).any(axis=1)
    k = k[fast].astype(np.uint32)
    width = max(3, len(str(int(k.max(initial=0)))))
    # a row's cells: "\nM " before its first x, " L " before every other
    # x, "," before each y, then the digits of k around the "."
    cell = np.zeros((count, width + 4), np.uint8)
    cell[::2, :3] = np.frombuffer(b" L ", np.uint8)
    cell[0, :3] = np.frombuffer(b"\nM ", np.uint8)
    cell[1::2, 0] = ord(",")
    cell[:, width + 1] = ord(".")
    cells = np.tile(cell, (len(k), 1, 1))
    q = k
    for p in range(width):  # the digit of 10^p
        rest = q // 10
        digit = (q - 10 * rest).astype(np.uint8) + ord("0")
        if p >= 3:
            digit *= k >= 10**p
        cells[:, :, width + 3 - p - (p >= 2)] = digit
        q = rest
    written = iter(cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")[1:])
    template = "M " + " L ".join(["%.2f,%.2f"] * (count // 2))
    return [next(written) if ok else template % tuple(row.tolist())
            for ok, row in zip(fast.tolist(), coords)]


def _svg_document(e, blacks, whites, lines):
    """The SVG of the strands ``lines`` (one row of x-plane points per
    tracked point, in label order; see monodromy.Fiber) on their sheets,
    and of the merged vertices.  The path data of every strand is written
    at once by _path_data."""
    points = np.concatenate((lines.ravel(), [v.x for v in blacks + whites]))
    minx = float(points.real.min())
    maxx = float(points.real.max())
    miny = float(points.imag.min())
    maxy = float(points.imag.max())
    span_x = max(maxx - minx, 1e-9)
    span_y = max(maxy - miny, 1e-9)
    scale = (WIDTH - 2 * PADDING) / span_x
    height = span_y * scale + 2 * PADDING

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
    if curve:
        # a row is a sheet pair, drawn twice from one path string: the
        # tracked y (label 2i + 1) as sheet 2, then its negation as sheet 1
        strokes = [(SHEET_COLORS[sheet], SHEET_WIDTHS[sheet]) for sheet in (1, 0)]
    else:
        strokes = [(EDGE_COLOR, EDGE_WIDTH)]
    # sx and sy of every row, interleaved, scaled in place in one pass by
    # the operations of sx and sy; every row has as many points
    coords = np.empty((len(lines), 2 * lines.shape[1]))
    np.subtract(lines.real, minx, out=coords[:, ::2])
    np.subtract(maxy, lines.imag, out=coords[:, 1::2])
    coords *= scale
    coords += PADDING
    for d in _path_data(coords):
        for color, width in strokes:
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
