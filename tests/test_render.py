import hashlib
import importlib
import math
import warnings
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_merge import naive_merge_dots
from test_monodromy import run_without_simd_dispatch

from dessins.maps import BelyiMN, parse_map_expr
from dessins.monodromy import NotBelyiError, monodromy
from dessins.perms import Permutation, cycle_type
from dessins.polynomials import roots_of_f
from dessins.render import (
    MERGE_TOL,
    SHEET_COLORS,
    RenderError,
    RenderVertex,
    _attach,
    _path_data,
    _solve_regular,
    merge_dots,
    render_graph,
    structural_vertices,
)

RENDER = importlib.import_module("dessins.render")
POLYNOMIALS = importlib.import_module("dessins.polynomials")

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_counts(svg: str) -> tuple[int, int]:
    """(path count, circle count) of a parsed document."""
    root = ET.fromstring(svg)
    paths = root.findall(f".//{SVG_NS}path")
    circles = root.findall(f".//{SVG_NS}circle")
    return len(paths), len(circles)


class TestPlan:
    @pytest.mark.parametrize("chain", ["b(1,1).b(2,1).f", "b(5,1).f.pi(1,2,3)", "b(1,11).f"])
    def test_non_belyi_rejected(self, chain):
        with pytest.raises(NotBelyiError):
            render_graph(parse_map_expr(chain))


class TestStructuralVertices:
    def test_b11(self):
        e = parse_map_expr("b(1,1)")
        blacks = structural_vertices(e, 0)
        whites = structural_vertices(e, 1)
        assert sorted((v.x.real, v.order) for v in blacks) == [(0.0, 1), (1.0, 1)]
        assert [(v.x.real, v.order) for v in whites] == [(0.5, 2)]

    def test_psi_orders_match_monodromy(self, psi_pair):
        e = parse_map_expr("b(1,1).b(10,1)")
        blacks = structural_vertices(e, 0)
        whites = structural_vertices(e, 1)
        g0, g1 = psi_pair
        assert sorted(v.order for v in blacks) == sorted(cycle_type(g0).parts)
        assert sorted(v.order for v in whites) == sorted(cycle_type(g1).parts)

    def test_full_chain_doubles_off_axis_roots(self, full_pair):
        e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
        blacks = structural_vertices(e, 0)
        whites = structural_vertices(e, 1)
        # curve points: one per cycle of the monodromy permutations
        assert len(blacks) == len(cycle_type(full_pair.g0).parts)
        assert len(whites) == len(cycle_type(full_pair.g1).parts)
        assert sorted(v.order for v in blacks) == sorted(
            cycle_type(full_pair.g0).parts
        )

    def test_numeric_value_on_critical_value_refused(self):
        # b(2,1) ramifies over 1: a float there may be the critical value
        # itself, while an exact value off the table is solved as it is
        with pytest.raises(RenderError, match="critical value"):
            _solve_regular(BelyiMN(2, 1), [0.5, 1 + 1e-12j])
        (got,) = _solve_regular(BelyiMN(2, 1), [Fraction(10**10 + 1, 10**10)])
        assert len(got) == 3

    def test_full_chain_root_solves(self, monkeypatch):
        # two deflated solves, at b(10,1) = 1 and f = 10/11, and one batched
        # solve per stage with regular values: b(10,1) at 1/2, f at the 9
        # preimages of 1 and f at the 11 preimages of 1/2, where one solve
        # per value made 21
        roots_of_f()
        counts = Counter()
        for module, name in ((RENDER, "roots"), (RENDER, "shifted_roots"), (POLYNOMIALS, "_aberth")):
            monkeypatch.setattr(module, name, _counting(counts, name, getattr(module, name)))
        e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
        structural_vertices(e, 0)
        structural_vertices(e, 1)
        assert counts == {"roots": 2, "shifted_roots": 3, "_aberth": 5}


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class TestMergeDots:
    def test_groups_by_proximity(self):
        vs = [
            RenderVertex(0j, None, 1),
            RenderVertex(5e-5 + 0j, None, 2),
            RenderVertex(1 + 0j, None, 3),
        ]
        groups = merge_dots(vs, 1e-4)
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_joins_the_first_group_in_reach(self):
        # v lies within tol of both a and b, which open groups of their own
        a = RenderVertex(0j, None, 1)
        b = RenderVertex(complex(5e-5, 9e-5), None, 1)
        v = RenderVertex(complex(6e-5, 3e-5), None, 1)
        assert merge_dots([v, b, a], 1e-4) == [[a, v], [b]]

    def test_singletons_below_tol(self):
        vs = [RenderVertex(complex(i), None, 1) for i in range(5)]
        assert all(len(g) == 1 for g in merge_dots(vs, 1e-4))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 60),
           columns=st.integers(1, 6), curve=st.booleans())
    def test_matches_naive_scan(self, seed, count, columns, curve):
        # clouds whose points share a few real parts and sit 1 ulp either
        # side of tol from one another, in real part, imaginary part or both
        tol = MERGE_TOL
        rng = np.random.default_rng(seed)
        res = rng.choice(rng.normal(scale=3 * tol, size=columns), size=count)
        steps = [0.0, tol, np.nextafter(tol, 0), np.nextafter(tol, 1), tol / 2]
        re = res + rng.choice(steps, size=count) * rng.integers(0, 2, size=count)
        im = rng.choice(steps, size=count) * rng.integers(-2, 3, size=count)
        vs = [RenderVertex(complex(a, b), complex(0, rng.normal()) if curve else None,
                           int(rng.integers(1, 4)))
              for a, b in zip(re.tolist(), im.tolist())]
        assert merge_dots(vs, tol) == naive_merge_dots(vs, tol)


class TestAttach:
    def test_first_of_equals_wins(self):
        vs = [RenderVertex(0j, None, 2), RenderVertex(2 + 0j, None, 0)]
        ends = np.array([1 + 0j, 0.1 + 0j])
        assert _attach(ends, vs, "black").tolist() == [0j, 0j]

    def test_curve_attaches_in_x(self):
        # near a branch point of pi, |y| ~ sqrt|x - r| outweighs x in
        # |dx| + |dy|, which would take the pair to the vertices at 0.3; x
        # takes it to 0, one strand to each sheet there
        vs = [RenderVertex(0j, 0.01j, 1), RenderVertex(0j, -0.01j, 1),
              RenderVertex(0.3 + 0j, 1j, 0), RenderVertex(0.3 + 0j, -1j, 0)]
        assert _attach(np.array([0.05 + 0j]), vs, "black").tolist() == [0j]

    def test_ramified_vertex_takes_both_sheets(self):
        # a vertex with y = 0 of order 2 collects the two strands of a pair
        vs = [RenderVertex(0j, 0j, 2),
              RenderVertex(1 + 0j, 1j, 1), RenderVertex(1 + 0j, -1j, 1)]
        assert _attach(np.array([0.01 + 0j, 0.9 + 0j]), vs, "black").tolist() == [0j, 1 + 0j]

    def test_count_mismatch_refused(self):
        vs = [RenderVertex(0j, None, 1), RenderVertex(1 + 0j, None, 1)]
        with pytest.raises(RenderError, match="white vertex at 0.000000.* collected 2"):
            _attach(np.array([0.1 + 0j, -0.1 + 0j]), vs, "white")

    def test_curve_count_mismatch_refused(self):
        # each sheet of an unramified x collects one strand of the pair
        vs = [RenderVertex(0j, 0j, 2),
              RenderVertex(1 + 0j, 1j, 2), RenderVertex(1 + 0j, -1j, 2)]
        message = "white vertex at 1.000000+0.000000j collected 1 strands, ramification order is 2"
        with pytest.raises(RenderError) as raised:
            _attach(np.array([0.1 + 0j, 0.9 + 0j]), vs, "white")
        assert str(raised.value) == message


def _formatted(coords):
    """The path data of each row of ``coords`` by "%.2f", number by number."""
    template = "M " + " L ".join(["%.2f,%.2f"] * (coords.shape[1] // 2))
    return [template % tuple(row.tolist()) for row in coords]


@st.composite
def _coordinate_rows(draw):
    """1-4 rows of 1-6 points, each coordinate +-m 10^e with m in [1, 10)
    and e in [-3, 9]: integer parts of 1 to 10 digits, past the cap from
    4e7 on, and one row in four negative somewhere."""
    rows, count = draw(st.integers(1, 4)), 2 * draw(st.integers(1, 6))
    value = st.builds(lambda sign, m, e: sign * m * 10.0**e,
                      st.sampled_from([1.0, 1.0, 1.0, -1.0]),
                      st.floats(1, 10, exclude_max=True), st.integers(-3, 9))
    values = draw(st.lists(value, min_size=rows * count, max_size=rows * count))
    return np.array(values).reshape(rows, count)


class TestPathData:
    """_path_data writes every row as "%.2f" does, and raises no
    RuntimeWarning on any float array."""

    @staticmethod
    def _check(coords):
        coords = np.array(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _path_data(coords)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        for row, (a, b) in enumerate(zip(got, _formatted(coords), strict=True)):
            assert a == b, f"row {row}"

    @given(_coordinate_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_format(self, coords):
        self._check(coords)

    def test_page_coordinates(self):
        # the shape of the full chain's strands: 264 rows of 100 points
        self._check(np.random.default_rng(34).uniform(28, 1200, (264, 200)))

    def test_binary_ties(self):
        # 100 v = j / 8 * 100 is a half-integer exactly for odd j: ties to even
        self._check([j / 8 for j in range(8001)] + [28.125, 0.375, 1e6 + 0.125, 3e7 + 0.625, 0.0])

    def test_next_to_ties(self):
        # the float nearest (k + 1/2) / 100, whose fl(100 v) often lands on
        # k + 1/2 while 100 v does not (0.015 prints "0.01"), and four
        # floats on either side of it
        values = []
        for k in [*range(0, 10**6, 997), 399999998, 3999999998]:
            tie = (k + 0.5) / 100
            values.append(tie)
            for toward in (-np.inf, np.inf):
                v = tie
                for _ in range(4):
                    v = np.nextafter(v, toward)
                    values.append(v)
        self._check(values)

    @pytest.mark.parametrize("v", [-0.0, -5e-324, -1e-300, -0.001, -0.004999, -0.005, -0.0051, -1.5])
    def test_negative_zero_and_small_negatives(self, v):
        self._check([[v, 1.0], [1.0, v], [1.0, 2.0]])

    @pytest.mark.parametrize("v", [
        np.nan, np.inf, -np.inf, 4e7, 39999999.995, 1e9, 1e300, 1.7976931348623157e308])
    def test_nonfinite_and_past_the_cap(self, v):
        self._check([[v, 1.0], [1.0, v], [1.0, 2.0]])

    def test_below_the_cap(self):
        self._check([39999999.99, 39999999.994, 12345678.9, 5e-324, 0.0, 1e-3])

    def test_digit_counts(self):
        # each power of ten and the value just below it, where the count of
        # integer digits changes
        self._check([w for j in range(-2, 8) for w in (10.0**j, 10.0**j - 0.01)])

    def test_one_point_rows(self):
        self._check(np.array([[28.0, 812.5], [0.0, -0.0], [np.nan, 3.14159], [1.0, 2.0]]))

    @pytest.mark.parametrize("v", [np.nan, -0.0, 5e7, 0.015, 0.125])
    def test_one_element_falls_back(self, v):
        coords = np.random.default_rng(7).uniform(28, 812, (3, 8))
        coords[1, 5] = v
        self._check(coords)

    def test_without_simd_dispatch(self):
        # numpy's rint, abs and integer division run other kernels with its
        # run-time SIMD targets turned off; the battery holds there too
        run = run_without_simd_dispatch(
            f"{Path(__file__).resolve()}::TestPathData", "-k", "not without_simd_dispatch")
        assert run.returncode == 0, run.stdout + run.stderr


class TestSmallRenders:
    def test_b11(self):
        res = render_graph(parse_map_expr("b(1,1)"))
        assert res.arc_count == 2
        assert len(res.black_vertices) == 2
        assert len(res.white_vertices) == 1
        assert res.vertex_count == 3
        assert res.merged_black_count == 2
        assert res.merged_white_count == 1
        xs = sorted(v.x.real for v in res.black_vertices)
        assert abs(xs[0] - 0.0) < 1e-4 and abs(xs[1] - 1.0) < 1e-4
        assert abs(res.white_vertices[0].x - 0.5) < 1e-4

    def test_deterministic(self):
        e = parse_map_expr("b(1,1)")
        assert render_graph(e).svg == render_graph(e).svg

    def test_svg_structure_b11(self):
        res = render_graph(parse_map_expr("b(1,1)"))
        paths, circles = svg_counts(res.svg)
        assert paths == res.arc_count
        assert circles == res.merged_black_count + res.merged_white_count

    def test_psi(self):
        res = render_graph(parse_map_expr("b(1,1).b(10,1)"))
        assert res.arc_count == 22
        assert len(res.black_vertices) == 12
        assert len(res.white_vertices) == 11
        groups = merge_dots(res.black_vertices, 1e-4)
        at_zero = [g for g in groups if abs(g[0].x) < 1e-4]
        assert len(at_zero) == 1
        # ten petals meeting the origin: a single order-10 vertex there
        assert [v.order for v in at_zero[0]] == [10]
        two_petal = [g for g in groups if any(v.order == 2 for v in g)]
        assert len(two_petal) == 1
        assert abs(two_petal[0][0].x - 10 / 11) < 1e-4

    def test_sheet_pair_shares_one_path_string(self):
        # the two sheets of pair i, labels 2i + 1 and 2i + 2, lie over the
        # same x: one path string, stroked as sheet 2 and then sheet 1
        res = render_graph(parse_map_expr("b(10,1).f.pi(3,5,8)"))
        paths = ET.fromstring(res.svg).findall(f".//{SVG_NS}path")
        assert len(paths) == res.arc_count == 264
        for tracked, negated in zip(paths[::2], paths[1::2]):
            assert tracked.get("d") == negated.get("d")
            assert tracked.get("stroke") == SHEET_COLORS[1]
            assert negated.get("stroke") == SHEET_COLORS[0]
        assert len({p.get("d") for p in paths}) == 132

    def test_plain_chain_has_no_sheet_colors(self):
        res = render_graph(parse_map_expr("b(1,1).b(10,1)"))
        for color in SHEET_COLORS:
            assert color not in res.svg


@pytest.fixture(scope="module")
def result():
    return render_graph(parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)"))


class TestFullChainRender:
    def test_arc_and_vertex_counts(self, result, full_pair):
        assert result.arc_count == 528
        assert len(result.black_vertices) == len(cycle_type(full_pair.g0).parts)
        assert len(result.white_vertices) == len(cycle_type(full_pair.g1).parts)
        assert result.vertex_count == 263 + 264

    def test_orders_match_monodromy(self, result, full_pair):
        assert sorted(v.order for v in result.black_vertices) == sorted(
            cycle_type(full_pair.g0).parts
        )

    def test_three_locations_carry_order_20(self, result):
        groups = merge_dots(result.black_vertices, 1e-4)
        with_twenty = [g for g in groups if any(v.order == 20 for v in g)]
        assert len(with_twenty) == 3

    def test_sheet_colors_present(self, result):
        for color in SHEET_COLORS:
            assert color in result.svg

    def test_svg_parses_with_matching_counts(self, result):
        paths, circles = svg_counts(result.svg)
        assert paths == 528
        assert circles == result.merged_black_count + result.merged_white_count


class TestHighRamification:
    """Strands into 6- to 40-fold vertices, where Newton meets its 1e-7
    tolerance only to within rounding: every vertex collects its order."""

    @pytest.mark.parametrize(
        "chain", ["b(4,6)", "b(5,6)", "b(1,1).b(1,8)", "b(20,2).f", "b(1,1).b(20,2).f.pi(1,6,9)"])
    def test_orders_match_monodromy(self, chain):
        e = parse_map_expr(chain)
        res = render_graph(e)
        g0, g1 = monodromy(e)
        assert sorted(v.order for v in res.black_vertices) == sorted(cycle_type(g0).parts)
        assert sorted(v.order for v in res.white_vertices) == sorted(cycle_type(g1).parts)


# sha256 of the SVG with the default plan and config; any change to the
# tracked strands, the attachment or the number formatting shows here
GOLDEN_SVG_SHA256 = {
    "b(1,1)": "d3a637dc1ad4ab03892cdba0007a86a5b9f27b7087f53d76d1099d4d70f12927",
    "b(1,1).b(10,1)": "3afb618ded8460f8dffa7b69c73615aa7c8e8d3b122049d9a2eb9ec9277d5a3b",
    "b(1,1).b(10,1).f": "420a30bf6a5bce1cad6196401e2e4f80c6738bd4c7344f8851a6db7fcc7adabf",
    "b(10,1).f.pi(3,5,8)": "1467dfa40e58d6eff680095ffff16eb3f153e19966b6963419657fc5ffc9d592",
    "b(1,1).b(10,1).f.pi(2,7,11)": "8ec15bf4bdc21ccd7cc527e2c7cda9b36e15cedb7966f9c108b1ff3e4e6d6ce9",
}


def _svg_sha256(svg: str) -> str:
    return hashlib.sha256(svg.encode()).hexdigest()


class TestGoldenSvg:
    @pytest.mark.parametrize(
        "chain", ["b(1,1)", "b(1,1).b(10,1)", "b(1,1).b(10,1).f", "b(10,1).f.pi(3,5,8)"])
    def test_chain(self, chain):
        svg = render_graph(parse_map_expr(chain)).svg
        assert _svg_sha256(svg) == GOLDEN_SVG_SHA256[chain]

    def test_full_chain(self, result):
        assert _svg_sha256(result.svg) == GOLDEN_SVG_SHA256["b(1,1).b(10,1).f.pi(2,7,11)"]

    def test_unreached_vertex_refused(self):
        # the strands stop at value 1e-8, out of reach of this 36-fold vertex
        with pytest.raises(RenderError, match="black vertex at 1.000000.* collected 5 strands, "
                                              "ramification order is 36$"):
            render_graph(parse_map_expr("b(3,3).b(4,2).b(1,3)"))


def _drawn_pair(svg: str) -> tuple[Permutation, Permutation]:
    """The rotation pair of a drawing of a plain chain.  Path k carries
    label k + 1 from its black vertex (first point) to its white vertex
    (last point); around each vertex the labels follow counterclockwise by
    the direction to the deepest rung (second and second-to-last point),
    with SVG's y axis pointing down."""
    strands = [[tuple(map(float, point.split(","))) for point in path.get("d")[2:].split(" L ")]
               for path in ET.fromstring(svg).findall(f".//{SVG_NS}path")]
    pair = []
    for vertex, rung in ((0, 1), (-1, -2)):
        spokes = defaultdict(list)
        for label, points in enumerate(strands, 1):
            (vx, vy), (rx, ry) = points[vertex], points[rung]
            spokes[points[vertex]].append((math.atan2(vy - ry, rx - vx), label))
        images = [0] * len(strands)
        for around in spokes.values():
            labels = [label for _, label in sorted(around)]
            for label, following in zip(labels, labels[1:] + labels[:1]):
                images[label - 1] = following
        pair.append(Permutation(tuple(images)))
    return pair[0], pair[1]


class TestDrawnDessin:
    """The drawing is the dessin that monodromy prints: the strands around
    each vertex, taken counterclockwise, are its cycle of g0 or g1 label for
    label.  Plain chains only: on curves both sheets share one x-plane path."""

    @pytest.mark.parametrize("chain", [
        "b(1,1)", "b(1,1).b(10,1)", "b(1,1).b(10,1).f", "b(20,2).f", "b(4,6)", "b(5,6)",
        "b(1,1).b(1,8)", "b(10,1).f", "b(2,3).b(3,2)",
    ])
    def test_rotations_are_the_pair(self, chain):
        e = parse_map_expr(chain)
        assert _drawn_pair(render_graph(e).svg) == tuple(monodromy(e))
