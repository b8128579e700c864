import cmath
import hashlib
import importlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_horner import rounding_error
from naive_match import naive_match

from dessins.dessin import Constellation, isomorphic
from dessins.galois import Triple, full_chain
from dessins.maps import as_poly, parse_map_expr
from dessins.monodromy import (
    BASEPOINT,
    CollisionError,
    Fiber,
    LoopSpec,
    MatchAmbiguousError,
    NotBijectiveError,
    NotBelyiError,
    StepUnderflowError,
    TrackingConfig,
    _conjugate,
    _conjugation,
    _continue,
    _doubles,
    _fits,
    _gaps,
    _loop_permutations,
    _loops,
    _match,
    _permutation,
    _Segment,
    _stepper,
    fiber,
    monodromy,
    monodromy_json,
    verify_stability,
)
from dessins.perms import (
    compose,
    cycle_type,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    parse_cycles,
)
from dessins.polynomials import ComplexPoly, f_polynomial, roots, roots_of_f
from dessins.render import render_graph

# the module itself: the package re-exports the function of the same name
MONODROMY = importlib.import_module("dessins.monodromy")
POLYNOMIALS = importlib.import_module("dessins.polynomials")


def _one_loop(e, loop, start, cfg):
    """The permutation of one loop from the fiber ``start``: the one-loop
    case of the stacked continuation that monodromy runs."""
    return _loop_permutations(e, [loop], start, _conjugation(start, cfg), cfg)[0]


# verbatim from the published degree-22 example
PSI_G0 = "(1,2,3,4,5,6,7,8,9,10)(11,21)"
PSI_G1 = "(1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)(21,22)"


class TestTrackingConfig:
    def test_round_trip(self):
        cfg = TrackingConfig(newton_tol=1e-11)
        assert TrackingConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            TrackingConfig.from_json_dict({"newton_tol": 1e-12, "bogus": 1})

    @pytest.mark.parametrize("bad", [
        {"newton_tol": float("nan")},
        {"match_tol": float("inf")},
        {"separation_factor": -1.0},
        {"match_tol": True},
        {"newton_tol": "1e-12"},
        {"max_newton_iters": 0},
        {"max_newton_iters": 2.5},
        {"max_newton_iters": True},
        {"initial_step": 2.0, "min_step": 1e-6},
        {"initial_step": 1e-3, "min_step": 1e-2},
        # at or below 1 _match's ratio guard could never fire
        {"separation_factor": 1.0},
        {"separation_factor": 0.5},
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrackingConfig(**bad)

    def test_integer_floats_and_bounds_accepted(self):
        cfg = TrackingConfig(separation_factor=10, initial_step=1, min_step=1)
        assert cfg.separation_factor == 10


class TestLoopSpec:
    def test_starts_and_ends_at_basepoint(self):
        loop = LoopSpec(center=0j)
        assert loop.point(0.0) == pytest.approx(BASEPOINT)
        assert loop.point(1.0) == pytest.approx(BASEPOINT)

    def test_circle_is_counterclockwise(self):
        assert LoopSpec(center=0j).point(0.25) == pytest.approx(0.5j)
        assert LoopSpec(center=1 + 0j).point(0.25) == pytest.approx(1 - 0.5j)
        assert LoopSpec(center=0j).length == pytest.approx(math.pi)

    def test_rejects_center_on_basepoint(self):
        with pytest.raises(ValueError, match="center"):
            LoopSpec(center=BASEPOINT)

    @pytest.mark.parametrize("center", [0.5 + 0.3j, 1j, 0.3 - 1e-12j])
    def test_rejects_non_real_center(self, center):
        # only a circle about a real center is its own conjugate, which the
        # half loop needs
        with pytest.raises(ValueError, match="center must be real"):
            LoopSpec(center=center)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_rejects_no_steps(self, steps):
        # a nominal step of 1 / steps
        with pytest.raises(ValueError, match="at least 1 step"):
            LoopSpec(center=0j, steps=steps)

    def test_one_step_takes_the_steps_of_two(self, cfg, monkeypatch):
        # the first step is capped at the antipode, so one nominal step
        # never lands back on the base point
        e = parse_map_expr("b(2,3).b(3,2)")
        points = fiber(e, cfg)
        runs = []
        for steps in (1, 2):
            log = []
            monkeypatch.setattr(MONODROMY, "_stepper", _recording_stepper(log))
            perm = _one_loop(e, LoopSpec(center=0j, steps=steps), points, cfg)
            runs.append((perm, [(o.tolist(), t.tolist(), ok) for o, t, ok in log]))
        assert runs[0] == runs[1]
        # the first step tried is to the antipode
        assert runs[0][1][0][1] == [[LoopSpec(center=0j).point(0.5)]]


class TestFiber:
    def test_b11_fiber_exact(self):
        pts = fiber(parse_map_expr("b(1,1)"))
        lo, hi = (1 - math.sqrt(0.5)) / 2, (1 + math.sqrt(0.5)) / 2
        assert isinstance(pts, Fiber) and pts.y is None
        assert pts.x.tolist() == pytest.approx([lo, hi])

    @pytest.mark.parametrize("text,n", [
        ("b(1,1)", 2),
        ("b(1,1).b(10,1)", 22),
        ("b(1,1).b(10,1).f", 264),
    ])
    def test_fiber_sizes(self, text, n):
        assert len(fiber(parse_map_expr(text))) == n

    def test_curve_fiber_doubles_and_lies_on_curve(self):
        e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
        pts = fiber(e)
        assert len(pts) == 528
        assert len(pts.x) == len(pts.y) == 264
        x, y = pts.unfold()
        assert np.all(np.abs(y**2 - e.proj.curve_rhs(x)) < 1e-8)

    def test_labels_are_consecutive(self):
        # labels 1..22 are x[0..21] in order, and x is sorted by (re, im)
        pts = fiber(parse_map_expr("b(1,1).b(10,1)"))
        x, y = pts.unfold()
        assert y is None and len(pts) == 22
        assert np.array_equal(x, pts.x)
        assert sorted(x.tolist(), key=lambda v: (v.real, v.imag)) == x.tolist()

    def test_curve_labels_pair_the_sheets(self):
        # labels 2i + 1 and 2i + 2 are (x[i], y[i]) and (x[i], -y[i]), and
        # y[i] is the square root of c(x[i]) that sorts first by (im y, re y)
        pts = fiber(parse_map_expr("f.pi(2,7,11)"))
        x, y = pts.unfold()
        assert len(pts) == len(x) == 24
        assert np.array_equal(x[0::2], pts.x) and np.array_equal(x[1::2], pts.x)
        assert np.array_equal(y[0::2], pts.y) and np.array_equal(y[1::2], -pts.y)
        assert all((v.imag, v.real) < (-v.imag, -v.real) for v in pts.y.tolist())
        assert sorted(pts.x.tolist(), key=lambda v: (v.real, v.imag)) == pts.x.tolist()

    @pytest.mark.parametrize("text", [
        "b(1,1).b(10,1)",  # the nearest pair differs in real part alone
        "b(2,3).b(3,2)",  # in imaginary part alone
        "f.pi(2,7,11)",  # a root of c is nearer than any pair
        "b(1,1).b(10,1).f.pi(2,7,11)",
    ])
    def test_collision_at_the_dense_minimum(self, text):
        # a match_tol equal to the least distance of the dense gaps refuses
        # the fiber with that distance, and one ulp below it passes
        e = parse_map_expr(text)
        x = fiber(e).x
        dist = float(_gaps(x, None if e.proj is None else np.array(e.proj.cubic_roots())).min())
        with pytest.raises(CollisionError, match=f"within {dist:.3e}$"):
            fiber(e, TrackingConfig(match_tol=dist))
        fiber(e, TrackingConfig(match_tol=float(np.nextafter(dist, 0))))


class TestSmallMonodromy:
    def test_b11_published_pair(self, cfg):
        g0, g1 = monodromy(parse_map_expr("b(1,1)"), cfg)
        assert format_cycles(g0) == "(1)(2)"
        assert format_cycles(g1) == "(1,2)"

    def test_rejects_non_belyi(self, cfg):
        with pytest.raises(NotBelyiError):
            monodromy(parse_map_expr("f"), cfg)


class TestPsi:
    def test_cycle_types(self, psi_pair):
        g0, g1 = psi_pair
        assert cycle_type(g0).parts == (10, 2) + (1,) * 10
        assert cycle_type(g1).parts == (2,) * 11

    def test_isomorphic_to_published_pair(self, psi_pair):
        published = Constellation(parse_cycles(PSI_G0, 22), parse_cycles(PSI_G1, 22))
        computed = Constellation(*psi_pair)
        ok, witness = isomorphic(computed, published)
        assert ok
        # the witness must be a genuine simultaneous conjugation
        for x in range(1, 23):
            assert witness(computed.g0(x)) == published.g0(witness(x))
            assert witness(computed.g1(x)) == published.g1(witness(x))

    def test_transitive_single_face_genus_zero(self, psi_pair):
        g0, g1 = psi_pair
        assert is_transitive([g0, g1])
        faces = cycle_type(compose(g0, g1))
        assert faces.parts == (22,)

    def test_stability(self, cfg):
        assert verify_stability(parse_map_expr("b(1,1).b(10,1)"), cfg)

    def test_big_contour_equals_product(self, cfg, psi_pair):
        """A counterclockwise contour around both branch points, entered
        from above, tracks to compose(g0, g1); entered from below it gives
        the product in the other order."""
        e = parse_map_expr("b(1,1).b(10,1)")
        g0, g1 = psi_pair
        base = fiber(e, cfg)
        paths = [_BigContour(entry=0.99 + 1.2j), _BigContour(entry=0.99 - 1.2j)]
        x, _ = _continue(e, paths, base.x, base.y, cfg)
        top, bottom = (_permutation(base, Fiber(x[p], None), cfg) for p in (0, 1))
        assert top == compose(g0, g1)
        assert bottom == compose(g1, g0)


@dataclass(frozen=True)
class _BigContour:
    """Straight from the base point to ``entry``, counterclockwise once
    around the circle about 0.99 through it, which encloses 0 and 1, and
    straight back; in nominal steps of about 0.04."""

    entry: complex
    steps: int = 256
    name: str = "big contour"

    def point(self, t: float) -> complex:
        if t <= 1 / 8:
            return BASEPOINT + 8 * t * (self.entry - BASEPOINT)
        if t <= 7 / 8:
            return 0.99 + (self.entry - 0.99) * cmath.exp(2j * math.pi * (t - 1 / 8) * 4 / 3)
        return self.entry + 8 * (t - 7 / 8) * (BASEPOINT - self.entry)


@pytest.fixture(scope="module")
def pair264(cfg):
    return monodromy(parse_map_expr("b(1,1).b(10,1).f"), cfg)


class TestPreCurveChain:
    """b(1,1).b(10,1).f, degree 264: profiles derived by multiplicity
    bookkeeping through the stages, frozen as a regression."""

    def test_black_profile(self, pair264):
        expected = (11,) + (10,) * 12 + (4,) + (2,) * 10 + (1,) * 109
        assert cycle_type(pair264.g0).parts == tuple(sorted(expected, reverse=True))

    def test_white_profile(self, pair264):
        assert cycle_type(pair264.g1).parts == (2,) * 132

    def test_single_face_genus_zero(self, pair264):
        g0, g1 = pair264
        assert cycle_type(compose(g0, g1)).parts == (264,)
        c = Constellation(g0, g1)
        from dessins.dessin import genus
        assert genus(c) == 0


class TestJsonAndErrors:
    def test_monodromy_json_shape(self, cfg):
        data = monodromy_json(parse_map_expr("b(1,1)"), cfg)
        assert set(data) == {"degree", "g0", "g1", "ginf", "stability", "config_echo"}
        assert data["degree"] == 2
        assert data["stability"] is None

    def test_triple_product_is_identity(self, psi_pair):
        g0, g1 = psi_pair
        ginf = inverse(compose(g0, g1))
        assert compose(compose(g0, g1), ginf) == identity(22)

    def test_track_loop_around_regular_point_is_identity(self, cfg):
        e = parse_map_expr("b(1,1)")
        base = fiber(e, cfg)
        # radius 0.2: neither 0 nor 1 is enclosed
        loop = LoopSpec(center=0.7)
        assert _one_loop(e, loop, base, cfg) == identity(2)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# format_cycles(g0), format_cycles(g1) as the dense 528-point tracker of the
# initial import computed them: the labels, not only the isomorphism class,
# must survive changes to the continuation.
GOLDEN_SHA256 = {
    "b(1,1).b(10,1).f.pi(2,7,11)": (
        "50d294d6e0a58a951e640b863a787759698fdfe07d9bc8fb244fbc781224be7f",
        "660b5e1052e05689172b645a1804a68a848798e680cc1909667867c152a399df",
    ),
    "b(1,1).b(10,1).f": (
        "a1dad728c9e42330ddedbe7166c0425c69bff42689e7956e6a825849b0781e1a",
        "973a4d085b7c832914abd9b032b61e0cff98b2d2c1c851c98d7c4caa52fd5553",
    ),
    "b(10,1).f.pi(3,5,8)": (
        "a9bcfd806e0dc78d0a9ef28b95c02233ca4953fb33ee2a75bd36ca989473496d",
        "8878d11805d60b884653098a66736ef404330aab8fc23249c389c250543ae2e0",
    ),
    # as commit 17fa1c9 computed it, with the dense end match
    "b(10,1).f.pi(2,7,11)": (
        "9816092b0233e183575d89d11282450f89e03283f7aa6987b001a57e337aa50c",
        "29cfe1610ab2c3236551529912e3f35d861c92d4c4282ac58488819e35c9111e",
    ),
}
# format_cycles(g0), format_cycles(g1) of chains whose tracked pair has
# degree 22, the size of the published psi pair, as commit 4072d8f
# computed them: b(1,1).b(10,1) and its kin track b(10,1) and double it,
# so only these track loop permutations of degree 22.
DEGREE_22_SHA256 = {
    "b(20,2)": (
        "d1323a3a51bba6459207c40bba3837f2ca47c156fd1c0728edead2796bbdf373",
        "24b34d24a67e01a12a498a870eb6ca02268f6755288bac0c202ee027c5efffdd",
    ),
    "b(10,1).b(1,1)": (
        "a15f259395e4b18b56f1f56d3c87325a4b910cd9d9e7252ce4df9de76f1e96dc",
        "1110ac8e15f12f3277fba076f2d259b40d6a7383d01b636814579fe4f75633af",
    ),
}
DOUBLED_PSI = (
    "(1)(2,3)(4)(5)(6,8)(7,9)(10,11,19,21,29,35,30,22,20,12)(13)(14)(15,17)"
    "(16,18)(23,25)(24,26)(27)(28)(31,33)(32,34)(36)(37)(38,39)(40,41)(42,43)(44)",
    "(1,2)(3,10)(4,6)(5,7)(8,11)(9,12)(13,15)(14,16)(17,19)(18,20)(21,23)"
    "(22,24)(25,27)(26,28)(29,31)(30,32)(33,36)(34,37)(35,38)(39,40)(41,42)(43,44)",
)


# sha256 of repr([(x, y), ...]) over every fiber point in label order: the
# coordinates, and the labels they carry, must survive changes to how a
# fiber is held.
FIBER_SHA256 = {
    "b(1,1).b(10,1).f.pi(2,7,11)": "2cb7d11182ff852d4e398e4ceb1efe22254b3389fb8b1704dc0052893f9c03e5",
    "b(1,1).b(10,1).f": "61c0cb37f85cdcce4a1c78448c2bae2291a69a2baa612afb13da860b58ca8ef4",
}


class TestGoldenFibers:
    @pytest.mark.parametrize("text", FIBER_SHA256)
    def test_coordinates(self, text):
        x, y = fiber(parse_map_expr(text)).unfold()
        ys = [None] * len(x) if y is None else y.tolist()
        points = [(complex(a), b) for a, b in zip(x.tolist(), ys)]
        assert _sha256(repr(points)) == FIBER_SHA256[text]


class TestGoldenLabels:
    def test_full_chain(self, full_pair):
        got = tuple(_sha256(format_cycles(g)) for g in full_pair)
        assert got == GOLDEN_SHA256["b(1,1).b(10,1).f.pi(2,7,11)"]

    def test_pre_curve_chain(self, pair264):
        got = tuple(_sha256(format_cycles(g)) for g in pair264)
        assert got == GOLDEN_SHA256["b(1,1).b(10,1).f"]

    def test_curve_chain_without_doubling(self, cfg):
        pair = monodromy(parse_map_expr("b(10,1).f.pi(3,5,8)"), cfg)
        got = tuple(_sha256(format_cycles(g)) for g in pair)
        assert got == GOLDEN_SHA256["b(10,1).f.pi(3,5,8)"]

    @pytest.mark.parametrize("text", DEGREE_22_SHA256)
    def test_degree_22(self, cfg, text):
        pair = monodromy(parse_map_expr(text), cfg)
        got = tuple(_sha256(format_cycles(g)) for g in pair)
        assert got == DEGREE_22_SHA256[text]

    def test_twice_doubled(self, cfg):
        pair = monodromy(parse_map_expr("b(1,1).b(1,1).b(10,1)"), cfg)
        assert (format_cycles(pair.g0), format_cycles(pair.g1)) == DOUBLED_PSI

    def test_curve_chain_twice_doubled(self, capsys):
        # two b(1,1)s peeled off a curve chain, with the stability probe
        from dessins import cli
        argv = ["monodromy", "--map", "b(1,1).b(1,1).b(10,1).f.pi(2,7,11)", "--check-stability"]
        assert cli.main(argv) == 0
        assert _sha256(capsys.readouterr().out) == (
            "4b2638ddba45b525e6e1772583d817030367194e2d0effad6051d91cd33ab9c7")


class TestDoubling:
    """b(1,1) . inner puts a white vertex on every edge of the dessin of
    inner: g1 is a fixed-point-free involution and the black vertices are
    the black and white vertices of inner."""

    @pytest.mark.parametrize("inner", ["b(10,1)", "b(1,1).b(10,1)", "b(10,1).f"])
    def test_cycle_types(self, cfg, inner):
        s0, s1 = monodromy(parse_map_expr(inner), cfg)
        g0, g1 = monodromy(parse_map_expr(f"b(1,1).{inner}"), cfg)
        assert cycle_type(g1).parts == (2,) * s0.degree
        expected = sorted(cycle_type(s0).parts + cycle_type(s1).parts, reverse=True)
        assert cycle_type(g0).parts == tuple(expected)

    @pytest.mark.parametrize("text,doubles", [
        ("b(1,1)", False),        # nothing inside to double
        ("b(10,1)", False),
        ("b(1,1).b(10,1)", True),
        ("b(1,1).b(10,1).f.pi(2,7,11)", True),
        ("b(1,1).f", False),      # the inner chain is not Belyi
    ])
    def test_doubles(self, text, doubles):
        assert _doubles(parse_map_expr(text)) == doubles


class TestStep:
    """The shared continuation step on b(1,1) = 4x(1 - x): the fiber over
    1/2 is (1 -+ 1/sqrt 2)/2, 0.71 apart, and the fiber over v is
    (1 -+ sqrt(1 - v))/2."""

    E = parse_map_expr("b(1,1)")

    @pytest.fixture()
    def step(self, cfg):
        return _stepper(self.E, cfg.max_newton_iters)

    @pytest.fixture()
    def half(self, cfg):
        return fiber(self.E, cfg)

    @staticmethod
    def _over(v):
        return np.array([(1 - math.sqrt(1 - v)) / 2, (1 + math.sqrt(1 - v)) / 2])

    def test_short_step_lands_on_fiber(self, cfg, step, half):
        (x, y), refused, _ = step(half.x, half.y, None, BASEPOINT, 0.9, cfg.newton_tol)
        assert not refused
        assert y is None
        assert np.allclose(x, self._over(0.9), atol=1e-12)

    def test_over_long_step_refused_by_gap_guard(self, cfg, step, half):
        # straight to 0.99 each point would move 0.30, past 0.4 of the
        # 0.71 gap; Newton converges there, and two steps reach the target
        landed, refused, _ = step(half.x, half.y, None, BASEPOINT, 0.99, cfg.newton_tol)
        assert landed is None and refused
        mid, _, slope = step(half.x, half.y, None, BASEPOINT, 0.9, cfg.newton_tol)
        (x, _), _, _ = step(*mid, slope, 0.9, 0.99, cfg.newton_tol)
        assert np.allclose(x, self._over(0.99), atol=1e-12)

    def test_gaps_patched_to_infinity_accepts(self, cfg, step, half, monkeypatch):
        # the gap guard alone refuses the over-long step
        monkeypatch.setattr(MONODROMY, "_fits", lambda x, moved, branch: moved < np.inf)
        (x, _), _, _ = step(half.x, half.y, None, BASEPOINT, 0.99, cfg.newton_tol)
        assert np.allclose(x, self._over(0.99), atol=1e-12)

    def test_slope_handed_back(self, cfg, step, half):
        # a refused step leaves x where it was, and hands back F' there;
        # an accepted one hands back F' at its last Newton iterate
        stages = self.E.polynomial_part()
        _, at_x = MONODROMY._composite_and_derivative(stages, half.x)
        landed, _, slope = step(half.x, half.y, None, BASEPOINT, 0.99, cfg.newton_tol)
        assert landed is None and np.array_equal(slope, at_x)
        given = at_x * (1 + 1e-9)
        landed, _, slope = step(half.x, half.y, given, BASEPOINT, 0.99, cfg.newton_tol)
        assert landed is None and slope is given
        (x, _), _, slope = step(half.x, half.y, None, BASEPOINT, 0.9, cfg.newton_tol)
        assert np.allclose(slope, MONODROMY._composite_and_derivative(stages, x)[1], rtol=1e-10)


def _cpu_dispatch() -> list[str]:
    """The SIMD targets that numpy picks among at run time."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def run_without_simd_dispatch(*args: str) -> subprocess.CompletedProcess:
    """pytest on ``args`` in a fresh interpreter with numpy's run-time SIMD
    targets turned off, so that its ufuncs run other kernels."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(_cpu_dispatch()))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)


# the roots of c on f.pi(2,7,11); their conjugates are the roots of cbar
_C_ROOTS = np.array(parse_map_expr("f.pi(2,7,11)").proj.cubic_roots())


@st.composite
def _guard_cases(draw):
    """(x, moved, branch) for the gap guard: one row of n points or 1-3
    rows stacked as (P, n), n on both sides of the short-row cut and up to
    the 792 points of the longest tracked rows, and each move one of a
    drawn set of kinds: 0.4 of its gap, one ulp either side of it, a
    random fraction of it, zero, or near the radius of the clusters; in
    some cases one move is NaN, which the guard must refuse."""
    shape = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    n = draw(st.sampled_from([1, 2, 18, 63, 64, 65, 66, 100, 132, 140, 264, 528, 792]))
    cloud = draw(st.sampled_from(
        ["spread", "strip", "strip", "grid", "line", "duplicates", "roots", "clusters"]))
    curve = draw(st.sampled_from([None, "c", "c and cbar"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 2))
    radius = 1.0
    x = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
    if cloud == "strip":  # a long thin cloud, where few points are in reach
        x.real = rng.uniform(0, n, size=x.shape)
    elif cloud == "grid":  # a few shared real parts
        x.real = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], size=x.shape)
    elif cloud == "line":  # most points on Re = 1/2
        x.real = np.where(rng.random(x.shape) < 0.8, 0.5 / scale, x.real)
    elif cloud == "duplicates":
        x[..., n // 2:] = x[..., :n - n // 2]
    elif cloud == "clusters":  # circles of 10-40 points about a few centres,
        # as the strands near render's vertices; each centre's later circles
        # are wider by one radius each
        k, size = draw(st.integers(1, 4)), draw(st.integers(10, 40))
        radius = 10.0 ** draw(st.integers(-6, -2))
        circle = np.arange(n) // size
        centres = rng.normal(size=k) + 1j * rng.normal(size=k)
        turn = np.arange(n) % size / size + rng.uniform(0, 1e-3, size=x.shape)
        x = centres[circle % k] + radius * (1 + circle // k) * np.exp(2j * np.pi * turn)
    x *= scale
    roots = _C_ROOTS
    if cloud == "roots":  # points on and near the roots of c and cbar
        near = np.concatenate((roots, roots.conj()))
        x.flat[:2 * len(near)] = np.concatenate((near, near + 1e-9))[:x.size]
    branch = {None: None, "c": roots, "c and cbar": np.concatenate((roots, roots.conj()))}[curve]
    guard = 0.4 * _gaps(x, branch)
    kinds = sorted(draw(st.sets(st.integers(0, 5), min_size=1)))
    moved = np.choose(rng.choice(kinds, size=x.shape), [
        guard,
        np.nextafter(guard, np.inf),
        np.nextafter(guard, 0),
        guard * rng.random(x.shape) * 2,
        np.zeros(x.shape),
        radius * scale * rng.uniform(0.5, 2, size=x.shape),
    ])
    if draw(st.integers(0, 3)) == 3:
        moved.flat[rng.integers(x.size)] = np.nan
    return x, moved, branch


class TestFits:
    """The gap guard by sorted reach decides exactly as the dense one, bit
    for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_guard_cases())
    def test_matches_dense(self, case):
        x, moved, branch = case
        assert np.array_equal(_fits(x, moved, branch), moved < 0.4 * _gaps(x, branch))

    def test_matches_dense_without_simd_dispatch(self):
        # numpy's complex abs runs another kernel with its run-time SIMD
        # targets turned off; the battery holds there too
        run = run_without_simd_dispatch(f"{Path(__file__).resolve()}::TestFits::test_matches_dense")
        assert run.returncode == 0, run.stdout + run.stderr

    def test_long_rows_build_no_gaps(self, monkeypatch):
        # past the short-row cut, the search builds no n x n array: the
        # integers 0..199 in shuffled order, each 1 from the next
        x = np.random.default_rng(5).permutation(200) + 0j
        moved = np.where(np.arange(200) % 2, 0.4, 0.3)
        monkeypatch.setattr(MONODROMY, "_gaps", None)
        assert np.array_equal(_fits(x, moved, None), moved < 0.4)

    @pytest.mark.parametrize("curve", [False, True])
    def test_window_on_a_vertical_line_builds_no_gaps(self, monkeypatch, curve):
        # 60 of 100 points share the real part 1/2, as the b(m,m) fibers
        # do, so each of them has the other 59 in reach; the search still
        # builds no n x n array
        rng = np.random.default_rng(29)
        x = rng.permutation(np.concatenate((
            0.5 + 1j * rng.uniform(-3, 3, 60), rng.normal(size=40) + 1j * rng.normal(size=40))))
        branch = rng.normal(size=3) + 1j * rng.normal(size=3) if curve else None
        moved = 0.4 * _gaps(x, branch) * rng.uniform(0.5, 1.5, 100)
        dense = moved < 0.4 * _gaps(x, branch)
        assert dense.any() and not dense.all()
        monkeypatch.setattr(MONODROMY, "_gaps", None)
        assert np.array_equal(_fits(x, moved, branch), dense)

    def test_window_reaches_the_last_offset(self, monkeypatch):
        # every real part lies in [0, 1e-12], so every point has the whole
        # row in reach, and the one pair that refuses a point is the first
        # and the last in real-part order
        k = np.arange(1, 69)
        x = np.concatenate(([0j], 1e-14 * k + 1j * (2 + k), [1e-12 + 1e-3j]))
        moved = np.full(70, 1e-6)
        moved[0] = 5e-4
        dense = moved < 0.4 * _gaps(x, None)
        assert dense.tolist() == [False] + [True] * 69
        monkeypatch.setattr(MONODROMY, "_gaps", None)
        assert np.array_equal(_fits(x, moved, None), dense)

    def test_real_part_difference_on_the_reach(self, monkeypatch):
        # pairs whose points differ in real part alone, by the rounded reach
        # 2.5 m of their move m or one ulp either side of it, 10 apart in
        # imaginary part; the three shifts are stacked rows.  Only the
        # widened reach keeps every pair that refuses a point
        rng = np.random.default_rng(37)
        m = 10.0 ** rng.uniform(-8, 2, size=40)
        below, above = (np.nextafter(2.5 * m, direction) for direction in (-np.inf, np.inf))
        x = np.array([np.concatenate((10j * np.arange(40), d + 10j * np.arange(40)))
                      for d in (below, 2.5 * m, above)])
        moved = np.tile(m, (3, 2))
        dense = moved < 0.4 * _gaps(x, None)
        assert not dense[0].any() and dense[1:].any() and not dense[1:].all()
        monkeypatch.setattr(MONODROMY, "_gaps", None)
        assert np.array_equal(_fits(x, moved, None), dense)

    @pytest.mark.parametrize("curve", [False, True])
    def test_conjugates_closer_than_an_ulp_of_their_real_part(self, monkeypatch, curve):
        # conjugate points share a real part; here their moves, and so the
        # reach, are below half an ulp of it, so re +- reach rounds back to
        # re and only the points at re itself, on both sides, are in
        # reach.  One move is NaN, which must be refused
        k = np.arange(70)
        x = np.concatenate((1 + k + 1e-20j * (k + 1), 1 + k - 1e-20j * (k + 1)))
        moved = np.tile(np.where(k % 2, 0.9e-20, 0.7e-20) * (k + 1), 2)
        moved[3] = np.nan
        branch = _C_ROOTS if curve else None
        dense = moved < 0.4 * _gaps(x, branch)
        expected = np.tile(k % 2 == 0, 2)
        expected[3] = False
        assert np.array_equal(dense, expected)
        monkeypatch.setattr(MONODROMY, "_gaps", None)
        assert np.array_equal(_fits(x, moved, branch), dense)


@st.composite
def _match_cases(draw):
    """(end, start, cfg) for the end match: a start of n points, or of n
    sheet pairs (x, +-y) on a curve, and a tracked end that permutes it,
    flips the sheet of some pairs and moves each point by a drawn noise.
    The sheets of a pair lie up to 1e-8 apart, and in some cases two ends
    land on one pair, on one sheet or on opposite sheets of it.
    match_tol is the default or the largest distance of an end point to
    its nearest start point, and separation_factor the default or the
    least ratio of runner-up to nearest, exactly or one ulp either side."""
    curve = draw(st.booleans())
    n = draw(st.sampled_from([1, 2, 3, 8, 40, 70] if curve else [2, 3, 8, 40, 70]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cloud(scale):
        return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))

    start = Fiber(cloud(1.0), cloud(10.0 ** draw(st.integers(-8, 0))) if curve else None)
    pick = rng.permutation(n)
    noise = 10.0 ** draw(st.integers(-17, -7))
    end = Fiber(start.x[pick] + cloud(noise),
                start.y[pick] * rng.choice([1, -1], size=n) + cloud(noise) if curve else None)
    if n >= 2 and draw(st.booleans()):
        end.x[1] = end.x[0]
        if curve:
            end.y[1] = draw(st.sampled_from([1, -1])) * end.y[0]

    (ax, ay), (bx, by) = end.unfold(), start.unfold()
    d = np.abs(ax[:, None] - bx[None, :]) + (0 if ay is None else np.abs(ay[:, None] - by[None, :]))
    best, second = np.sort(d, axis=1)[:, :2].T
    ulp = draw(st.sampled_from([-np.inf, None, np.inf]))

    def nudge(v):
        return float(v if ulp is None else np.nextafter(v, ulp))

    chosen = {}
    if draw(st.booleans()) and nudge(best.max()) > 0:
        chosen["match_tol"] = nudge(best.max())
    ratio = second[best > 0] / best[best > 0]
    if draw(st.booleans()) and len(ratio) and 1 < nudge(ratio.min()) < np.inf:
        chosen["separation_factor"] = nudge(ratio.min())
    return end, start, TrackingConfig(**chosen)


def _outcome(match, end, start, cfg):
    """The indices of a match, or the class and message it raised."""
    try:
        return match(end, start, cfg).tolist()
    except Exception as exc:
        return type(exc), str(exc)


class TestMatch:
    """_match, which ranks the tracked sheet of each end pair only, returns
    the indices of the naive match of every end point, or raises the same
    error with the same message."""

    @settings(max_examples=600, deadline=None)
    @given(_match_cases())
    def test_matches_naive(self, case):
        end, start, cfg = case
        assert (_outcome(_match, end, start, cfg)
                == _outcome(naive_match, end.unfold(), start.unfold(), cfg))

    def test_matches_naive_without_simd_dispatch(self):
        # the reach takes each distance from the same ufuncs as the dense
        # metric, on other kernels too
        run = run_without_simd_dispatch(f"{Path(__file__).resolve()}::TestMatch::test_matches_naive")
        assert run.returncode == 0, run.stdout + run.stderr

    def test_sheet_pairs_interleave(self, cfg):
        start = Fiber(np.array([0j, 1 + 0j]), np.array([1 + 0j, 1j]))
        end = Fiber(np.array([1 + 0j, 0j]), np.array([-1j, 1 + 0j]))
        assert _match(end, start, cfg).tolist() == [3, 2, 0, 1]

    def test_opposite_sheets_of_one_pair_refused(self, cfg):
        # the tracked ends land on 0 and 1, and so their other sheets on 1 and 0
        start = Fiber(np.array([0j, 1 + 0j]), np.array([1 + 0j, 1j]))
        end = Fiber(np.array([0j, 0j]), np.array([1 + 0j, -1 + 0j]))
        with pytest.raises(NotBijectiveError):
            _match(end, start, cfg)

    # past the dense cut: 70 start points 1 apart on the real axis, or 35
    # sheet pairs on a curve, each end on its start point but end 0, which
    # lies match_tol from start 0; powers of two keep every distance exact
    CUT = TrackingConfig(match_tol=2.0**-20, separation_factor=8.0)

    def _far_apart(self, curve):
        x = np.arange(35 if curve else 70) + 0j
        y = np.full(35, 1j) if curve else None
        end = Fiber(x.copy(), None if y is None else y.copy())
        end.x[0] = self.CUT.match_tol
        return end, Fiber(x, y)

    def _check(self, end, start, cfg):
        got = _outcome(_match, end, start, cfg)
        assert got == _outcome(naive_match, end.unfold(), start.unfold(), cfg)
        return got

    @pytest.mark.parametrize("curve", [False, True])
    def test_runner_up_on_the_reach(self, curve):
        # start 1 moved to separation_factor * match_tol from end 0, or one
        # ulp either side: the ratio of runner-up to nearest is then exactly
        # the bound, and one ulp below it refuses the match
        outcomes = []
        for direction in (-np.inf, None, np.inf):
            end, start = self._far_apart(curve)
            on_reach = end.x[0].real + self.CUT.separation_factor * self.CUT.match_tol
            start.x[1] = end.x[1] = on_reach if direction is None else np.nextafter(on_reach, direction)
            outcomes.append(self._check(end, start, self.CUT))
        assert outcomes[0][0] is MatchAmbiguousError
        assert all(isinstance(got, list) for got in outcomes[1:])

    @pytest.mark.parametrize("where", [0, 30, -1])
    def test_no_start_point_in_reach(self, where):
        # one end point lies 1/2 from every start point in real part
        end, start = self._far_apart(False)
        end.x[where] += 0.5
        assert self._check(end, start, self.CUT) == (
            MatchAmbiguousError, "endpoint 5.000e-01 away from every start point")

    @pytest.mark.parametrize("curve", [False, True])
    def test_tie_at_distance_zero(self, curve):
        # a copy of start point 0 (or pair 0) appended, and end 0 moved onto
        # both: the ratio is infinite, and the dense ranking picks one
        end, start = self._far_apart(curve)
        end.x[0] = 0
        start = Fiber(np.append(start.x, 0), None if start.y is None else np.append(start.y, 1j))
        assert isinstance(self._check(end, start, self.CUT), list)


class TestRoundingFloor:
    """Newton accepts a row only when its last corrections meet newton_tol.
    Near the solution a correction cannot fall below about F's rounding
    error (naive_horner.rounding_error) over |F'|, so a tolerance under
    that floor is never met and its steps are refused, loudly."""

    E = parse_map_expr("b(1,1).b(10,1)")

    def test_unreachable_tolerance_refused(self, monkeypatch):
        # no correction meets 1e-30: the first step of the stacked loops is
        # refused at the nominal 2**-8 of the loop and at each halving down
        # to min_step, 2**-20
        cfg = TrackingConfig(newton_tol=1e-30)
        outcomes = Counter()

        def make(e, *args):
            step = _stepper(e, *args)

            def counted(*a):
                landed, refused, slope = step(*a)
                outcomes["landed" if landed is not None else "refused"] += 1
                return landed, refused, slope

            return counted

        monkeypatch.setattr(MONODROMY, "_stepper", make)
        with pytest.raises(StepUnderflowError, match=(
                r"^step underflow at t = 0\.000000 on loop around 0\+0j, loop around 1\+0j$")):
            monodromy(self.E, cfg)
        assert outcomes == {"refused": 13}

    def test_non_finite_newton_refused(self, cfg):
        # the row near its start converges, and the row whose far target
        # overflows the composite is refused
        half = fiber(self.E, cfg)
        step = _stepper(self.E, cfg.max_newton_iters)
        x = np.stack((half.x, half.x))
        origin = np.full((2, 1), BASEPOINT)
        target = np.array([[0.6], [1e300]])
        landed, refused, _ = step(x, None, None, origin, target, cfg.newton_tol)
        assert landed is None
        assert refused.tolist() == [False, True]

    @staticmethod
    def _near(rng, vertices, count):
        """``count`` points within 1e-6 of each vertex."""
        return [v + 1e-6 * rng.random() * np.exp(2j * np.pi * rng.random())
                for v in vertices for _ in range(count)]

    def test_bound_holds_against_exact_evaluation(self):
        # the float composite against the same coefficients evaluated in
        # 200-bit arithmetic, near the vertices and off them.  Over f the
        # vertices are 0 and 12/11 over 1, the roots of f, where b(m,n)
        # ramifies m-fold, and the preimages of 10/11 = m/(m + n): 1,
        # doubled, and the ten roots of (f - 10/11) / (x - 1)^2
        rng = np.random.default_rng(3)
        chains = {
            "b(1,1).b(10,1)": [1e-3, 1 - 2e-5j, (1 - math.sqrt(1 / 11)) / 2 + 1e-6],
            "b(4,6)": self._near(rng, [0, 1, 0.4], 16),
            "b(5,6)": self._near(rng, [0, 1, 5 / 11], 16),
        }
        f = f_polynomial()
        white = ComplexPoly((1 / 11,) + f.coeffs[1:]).deflate(1).deflate(1)
        over_f = self._near(rng, [0, 1, 12 / 11], 8) + self._near(rng, roots(f) + roots(white), 2)
        chains.update({"b(20,2).f": over_f, "b(30,3).f": over_f})
        for text, points in chains.items():
            stages = parse_map_expr(text).polynomial_part()
            x = np.concatenate((
                points,
                rng.normal(scale=0.6, size=40) + 1j * rng.normal(scale=0.6, size=40) + 0.5,
            ))
            value, _ = MONODROMY._composite_and_derivative(stages, x)
            error = rounding_error(stages, x)
            with mpmath.workprec(200):
                for xi, vi, ei in zip(x.tolist(), value.tolist(), error.tolist()):
                    exact = mpmath.mpc(xi)
                    for prim in reversed(stages):
                        coeffs = reversed(as_poly(prim).coeffs)
                        exact = mpmath.polyval([mpmath.mpc(c) for c in coeffs], exact)
                    assert abs(vi - exact) <= ei, (text, xi)


class TestCurveStep:
    """The step on f.pi(2,7,11): tracked point 0 of the fiber over 1/2 is
    0.055 from the root r_7 of c and 0.48 from the nearest other x, so a
    step toward r_7 is guarded by the distance to the root alone."""

    E = parse_map_expr("f.pi(2,7,11)")
    BRANCH = np.array(E.proj.cubic_roots())

    def _toward_root(self, cfg, frac):
        """(tracked half, target, goal): the target value over which point
        0 sits ``frac`` of the way to its nearest root of c, at goal."""
        half = fiber(self.E, cfg)
        x = half.x
        root = self.BRANCH[np.abs(x[0] - self.BRANCH).argmin()]
        goal = x[0] + frac * (root - x[0])
        return half, f_polynomial()(goal), goal

    def _step(self, cfg, frac):
        half, target, goal = self._toward_root(cfg, frac)
        step = _stepper(self.E, cfg.max_newton_iters)
        return step(half.x, half.y, None, BASEPOINT, target, cfg.newton_tol), goal

    def test_step_toward_root_refused(self, cfg):
        (landed, refused, _), _ = self._step(cfg, 0.41)
        assert landed is None and refused
        (landed, _, _), _ = self._step(cfg, 0.39)
        assert landed is not None

    def test_step_toward_root_of_cbar_refused_on_half_loops(self, cfg):
        # r_6 = conj(r_7) is a root of cbar, not of c: the half loops' step,
        # which carries a square root w of cbar beside y, keeps x as clear
        # of it as of the roots of c, and the step of segments and render
        # does not.  A step moves every fiber point alike toward its nearest
        # root of f, some of them roots of c, so point 1, 0.055 from r_6 and
        # 0.48 from the roots of c, is stepped alone
        half = fiber(self.E, cfg)
        w = _conjugate(half, _conjugation(half, cfg)).y
        r6 = roots_of_f()[6]
        i = np.abs(half.x - r6).argmin()

        def landed(frac, mirrored):
            goal = half.x[i] + frac * (r6 - half.x[i])
            y = np.array([half.y[i], w[i]]) if mirrored else half.y[i:i + 1]
            step = _stepper(self.E, cfg.max_newton_iters, mirrored)
            out, _, _ = step(half.x[i:i + 1], y, None, BASEPOINT, f_polynomial()(goal), cfg.newton_tol)
            return out

        assert landed(0.41, mirrored=True) is None
        assert landed(0.41, mirrored=False) is not None
        x, (y, w) = landed(0.39, mirrored=True)
        for sheet, roots in ((y, self.BRANCH), (w, self.BRANCH.conj())):
            c = np.prod(x - roots)
            assert abs(sheet**2 - c) <= 1e-12 * abs(c)

    def test_x_alone_as_with_y(self, cfg):
        # render's strands carry no y: every x is the same bit for bit, as
        # the guard counts the roots of c either way
        half, target, _ = self._toward_root(cfg, 0.41)
        step = _stepper(self.E, cfg.max_newton_iters)
        landed, refused, _ = step(half.x, None, None, BASEPOINT, target, cfg.newton_tol)
        assert landed is None and refused
        e = parse_map_expr("b(10,1).f.pi(3,5,8)")
        start = fiber(e, cfg)
        paths = [_Segment(BASEPOINT, v, 49) for v in (0.01, 0.99)] + list(_loops(cfg))
        x, y = _continue(e, paths, start.x, start.y, cfg)
        alone, none = _continue(e, paths, start.x, None, cfg)
        assert y is not None and none is None
        assert np.array_equal(x, alone)

    def test_accepted_when_gaps_ignore_roots(self, cfg, monkeypatch):
        monkeypatch.setattr(MONODROMY, "_fits", lambda x, moved, branch: _fits(x, moved, None))
        ((x, y), _, _), goal = self._step(cfg, 0.41)
        assert abs(x[0] - goal) < 1e-12
        c = self.E.proj.curve_rhs(x)
        assert np.all(np.abs(y**2 - c) <= 1e-12 * np.abs(c))


class TestCurveY:
    """y is carried by the ratio sqrt(c(x_new) / c(x)) on every step."""

    E = parse_map_expr("b(10,1).f.pi(2,7,11)")

    @pytest.mark.parametrize("which", [0, 1], ids=["loop_0", "loop_1"])
    def test_loop_end_y(self, cfg, monkeypatch, which):
        # every step lands on the sheet that the nearer of the two square
        # roots of c(x_new) picks, and the loop ends on the curve
        c = self.E.proj.curve_rhs
        agree = []

        def make(e, *args):
            step = _stepper(e, *args)

            def checked(x, y, slope, origin, target, tol):
                landed, refused, slope = step(x, y, slope, origin, target, tol)
                if landed is not None:
                    s = np.sqrt(c(landed[0]))
                    nearer = np.where(np.abs(s - y) <= np.abs(s + y), s, -s)
                    agree.append(np.all(np.abs(landed[1] - nearer) < np.abs(landed[1] + nearer)))
                return landed, refused, slope

            return checked

        monkeypatch.setattr(MONODROMY, "_stepper", make)
        start = fiber(self.E, cfg)
        x, y = _continue(self.E, [_loops(cfg)[which]], start.x, start.y, cfg)
        assert np.all(np.abs(y**2 - c(x)) <= 1e-12 * np.abs(c(x)))
        assert len(agree) == 25 and all(agree)


def _recording_stepper(log, fresh_slope=False):
    """A _stepper that logs (origin, target, accepted) for every step, and
    with fresh_slope passes no slope, so that every predictor evaluates F'
    at its own x."""
    def make(e, *args):
        step = _stepper(e, *args)

        def logged(x, y, slope, origin, target, tol):
            if fresh_slope:
                slope = None
            landed, refused, slope = step(x, y, slope, origin, target, tol)
            log.append((origin, target, landed is not None))
            return landed, refused, slope

        return logged

    return make


def _counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


class TestDecisionsUnchanged:
    E = parse_map_expr("b(10,1).f.pi(2,7,11)")

    def test_carried_slope_same_decisions(self, cfg, monkeypatch):
        """The predictor on the slope of the last Newton iterate takes the
        steps that a predictor on F' at the landed x takes, and lands on
        the same points to Newton's tolerance."""
        loop = LoopSpec(center=0.76, steps=40)
        start = fiber(self.E, cfg)
        runs = []
        for fresh_slope in (False, True):
            log = []
            monkeypatch.setattr(MONODROMY, "_stepper", _recording_stepper(log, fresh_slope))
            runs.append((log, _continue(self.E, [loop], start.x, start.y, cfg)))
        (log, end), (fresh_log, fresh_end) = runs
        assert log == fresh_log
        assert not all(accepted for *_, accepted in log)
        assert np.allclose(end[0], fresh_end[0], rtol=0, atol=1e-10)
        assert np.allclose(end[1], fresh_end[1], rtol=0, atol=1e-10)

    def test_full_chain_work(self, cfg, monkeypatch, full_pair):
        counts = Counter()
        for name in ("_gaps", "_fits", "_composite_and_derivative"):
            monkeypatch.setattr(
                MONODROMY, name, _counting(counts, name, getattr(MONODROMY, name)))
        assert monodromy(full_chain(Triple(2, 7, 11)), cfg) == full_pair
        # the upper halves of the two loops of the inner chain are one
        # stacked run of 14 steps, growing from the nominal step to 12 of
        # them, and the two transport segments another of 7, capped at a
        # quarter of the path; each step's predictor reuses the slope of the
        # step before, and the gap guard runs once per step.  Its rows of
        # 132 points are past the short-row cut, and the fibers' collision
        # checks search close pairs too, so no n x n gaps are built
        assert counts["_composite_and_derivative"] == 82
        assert counts["_fits"] == 21
        assert counts["_gaps"] == 0
        # the stability probe on a curve chain, and the render ladders, whose
        # one-step rungs do not grow: both ladders one stacked run per rung
        counts.clear()
        monodromy_json(parse_map_expr("b(10,1).f.pi(3,4,12)"), cfg, check_stability=True)
        assert counts["_composite_and_derivative"] == 151
        counts.clear()
        render_graph(full_chain(Triple(2, 7, 11)), cfg=cfg)
        assert counts["_composite_and_derivative"] == 193
        assert counts["_fits"] == 48
        assert counts["_gaps"] == 0

    @pytest.mark.parametrize("text", ["b(10,1).f.pi(2,7,11)", "b(1,1).b(10,1).f.pi(2,7,11)"])
    def test_every_end_match_by_reach(self, cfg, monkeypatch, text):
        # the conjugation, the loop ends and the transport ends of the
        # default runs and the probe all match past the dense cut, and the
        # reach decides each of them, so the dense metric is never built
        def dense(*args):
            raise AssertionError("dense end match")

        monkeypatch.setattr(MONODROMY, "_nearest", dense)
        payload = monodromy_json(parse_map_expr(text), cfg, check_stability=True)
        assert payload["stability"] is True
        assert (_sha256(payload["g0"]), _sha256(payload["g1"])) == GOLDEN_SHA256[text]

    def test_fiber_root_solves(self, monkeypatch):
        # one batched solve per polynomial stage, none one value at a time
        counts = Counter()
        monkeypatch.setattr(POLYNOMIALS, "_aberth", _counting(counts, "_aberth", POLYNOMIALS._aberth))
        monkeypatch.setattr(POLYNOMIALS, "roots", _counting(counts, "roots", POLYNOMIALS.roots))
        e = full_chain(Triple(2, 7, 11))
        fiber(e)
        assert counts == {"_aberth": len(e.polynomial_part())}

    def test_stability_fiber_computed_once(self, cfg, monkeypatch):
        counts = Counter()
        monkeypatch.setattr(MONODROMY, "fiber", _counting(counts, "fiber", fiber))
        payload = monodromy_json(parse_map_expr("b(10,1).f.pi(3,4,12)"), cfg, check_stability=True)
        assert payload["stability"] is True
        assert counts["fiber"] == 1

    def test_doubled_stability_inner_fiber_computed_once(self, cfg, monkeypatch):
        # the fiber of the full chain and of b(10,1).f.pi(2,7,11), each read
        # by the base run and the probe; the probe used to recompute the inner
        counts = Counter()
        monkeypatch.setattr(MONODROMY, "fiber", _counting(counts, "fiber", fiber))
        payload = monodromy_json(full_chain(Triple(2, 7, 11)), cfg, check_stability=True)
        assert payload["stability"] is True
        assert counts["fiber"] == 2


class _LoggedPath:
    """A path that logs every t its point is asked for."""

    def __init__(self, path):
        self.path, self.ts = path, []
        self.steps, self.name = path.steps, path.name

    def point(self, t):
        self.ts.append(t)
        return self.path.point(t)


def _random_b_chain(seed):
    """1-3 stages b(m,n) with m, n <= 5."""
    rng = random.Random(seed)
    return ".".join(f"b({rng.randint(1, 5)},{rng.randint(1, 5)})" for _ in range(rng.randint(1, 3)))


class TestStepGrowth:
    """The step grows from the nominal step to at most twelve of them and
    never past a quarter of the path; the pairs do not depend on the step,
    and the gap guard keeps a wide margin."""

    @pytest.mark.parametrize("text", ["b(1,1).b(10,1).f.pi(2,7,11)", "b(20,2).f", "b(10,1).f"])
    def test_guard_margin(self, cfg, monkeypatch, text):
        # every accepted step would pass the guard at twice its moves: no x
        # moves 0.2 of its gap, where the guard refuses 0.4
        moves, margins = [], []

        def make(e, max_newton_iters, mirrored=False):
            step = _stepper(e, max_newton_iters, mirrored)
            branch = None if e.proj is None else np.array(e.proj.cubic_roots())
            if mirrored and branch is not None:
                # the half loops' guard counts the roots of cbar too
                branch = np.concatenate((branch, branch.conj()))

            def measured(x, y, slope, origin, target, tol):
                landed, refused, slope = step(x, y, slope, origin, target, tol)
                if landed is not None:
                    moved = np.abs(landed[0] - x)
                    moves.append(moved.max())
                    margins.append(_fits(x, 2 * moved, branch).all())
                return landed, refused, slope

            return measured

        monkeypatch.setattr(MONODROMY, "_stepper", make)
        monodromy(parse_map_expr(text), cfg)
        assert max(moves) > 0 and all(margins)

    @pytest.mark.parametrize("seed", range(12))
    def test_pair_independent_of_step(self, cfg, seed):
        # a random chain (see _random_b_chain), tracked in
        # steps growing from 1/256 and in steps of at most 12/1024
        text = _random_b_chain(seed)
        e = parse_map_expr(text)
        assert monodromy(e, cfg) == monodromy(e, TrackingConfig(initial_step=1 / 1024)), text

    @pytest.mark.parametrize("initial_step,longest,probe_longest", [
        (1 / 256, 12 / 256, 12 / 512),
        # from this nominal step up, the loops reach a quarter of the path
        # within eight nominal steps, so the cap does not bind them; the
        # probe's nominal step, half as long, still grows to twelve
        (1 / 32, 1 / 4, 12 / 64),
        (1 / 16, 1 / 4, 1 / 4),
        (1 / 8, 1 / 4, 1 / 4),
        # a loop of three nominal steps keeps them; the probe's six grow
        (0.33, 1 / 3, 1 / 4),
    ], ids=["default", "thirty_second", "sixteenth", "eighth", "coarse"])
    def test_longest_loop_step(self, monkeypatch, initial_step, longest, probe_longest):
        cfg = TrackingConfig(initial_step=initial_step)
        e = parse_map_expr("b(10,1).f.pi(2,7,11)")
        start = fiber(e, cfg)
        kappa = _conjugation(start, cfg)
        runs = ((_loops(cfg), longest), (_loops(cfg, centers=(0.1, 0.9), refine=2), probe_longest))
        for loops, expected in runs:
            log = []
            monkeypatch.setattr(MONODROMY, "_stepper", _recording_stepper(log))
            paths = [_LoggedPath(loop) for loop in loops]
            _loop_permutations(e, paths, start, kappa, cfg)
            for path in paths:
                # ts[0] is the start, then one target per step tried, up to
                # the antipode at t = 1/2
                t, tried = 0.0, []
                for target, (*_, accepted) in zip(path.ts[1:], log, strict=True):
                    tried.append(target - t)
                    if accepted:
                        t = target
                assert t == 0.5
                assert max(tried) == pytest.approx(expected, rel=1e-12)


@dataclass(frozen=True)
class _FullCircle:
    """The whole counterclockwise circle about ``center`` through the base
    point, continued from t = 0 to 1 with no use of conjugation."""

    center: float
    steps: int
    name: str = "full circle"

    def point(self, t: float) -> complex:
        return self.center + (BASEPOINT - self.center) * cmath.exp(2j * math.pi * t)


def _full_circle_permutations(e, start, loops, cfg):
    """The permutation of each of ``loops`` tracked the whole way round on
    ``e`` itself, no b(1,1) peeled off: the oracle of the half loops."""
    circles = [_FullCircle(loop.center, loop.steps) for loop in loops]
    x, y = _continue(e, circles, start.x, start.y, cfg)
    return [_permutation(start, Fiber(x[p], None if y is None else y[p]), cfg)
            for p in range(len(circles))]


class TestHalfLoops:
    """A loop's upper half and the conjugation of the fiber give the
    permutation of the whole circle, on the base loops and the probe's."""

    @pytest.mark.parametrize("text", [_random_b_chain(100 + seed) for seed in range(12)] + [
        "b(10,1).f.pi(2,7,11)",
        "b(10,1).f.pi(3,4,12)",
        "b(10,1).f.pi(1,6,9)",
        "b(30,3).f",
    ])
    def test_equal_to_full_circles(self, cfg, text):
        e = parse_map_expr(text)
        start = fiber(e, cfg)
        loops = _loops(cfg)
        probe_loops = _loops(cfg, centers=(0.1, 0.9), refine=2)
        full = _full_circle_permutations(e, start, loops, cfg)
        assert list(monodromy(e, cfg)) == full
        assert [_one_loop(e, loop, start, cfg) for loop in loops] == full
        probe = MONODROMY._base_and_probe(e, cfg, probe=True)[1]
        assert list(probe) == _full_circle_permutations(e, start, probe_loops, cfg)


def _one_path_at_a_time(continue_):
    """A _continue that runs each path on its own and stacks the ends,
    logging the number of paths of each call."""
    calls = []

    def unstacked(e, paths, x, y, cfg, **kwargs):
        calls.append(len(paths))
        ends = [continue_(e, [path], x, y, cfg, **kwargs) for path in paths]
        return (np.concatenate([end[0] for end in ends]),
                None if y is None else np.concatenate([end[1] for end in ends]))

    return unstacked, calls


class TestStacked:
    """All paths of a run share one parameter t and one step; each row's
    gaps count only its own path's fiber.  The permutations must be those
    of continuing one path at a time."""

    @pytest.mark.parametrize("text", [
        "b(2,3).b(3,2)",
        "b(10,1).f",
        "b(20,2).f",
        "b(10,1).f.pi(2,7,11)",
        "b(1,1).b(1,1).b(10,1)",
    ])
    def test_same_pair_as_one_path_at_a_time(self, cfg, monkeypatch, text):
        e = parse_map_expr(text)
        stacked = monodromy(e, cfg)
        unstacked, calls = _one_path_at_a_time(_continue)
        monkeypatch.setattr(MONODROMY, "_continue", unstacked)
        assert monodromy(e, cfg) == stacked
        assert max(calls) >= 2

    def test_tight_loop_where_the_guard_refuses(self, cfg, monkeypatch):
        e = parse_map_expr("b(10,1).f.pi(2,7,11)")
        points = fiber(e, cfg)
        # in 40 common steps the row passing 0.02 from 1 is refused on some
        loops = [LoopSpec(center=0j, steps=40), LoopSpec(center=0.76, steps=40)]
        log = []
        monkeypatch.setattr(MONODROMY, "_stepper", _recording_stepper(log))
        x, y = _continue(e, loops, points.x, points.y, cfg)
        assert not all(accepted for *_, accepted in log)
        for p, loop in enumerate(loops):
            assert _permutation(points, Fiber(x[p], y[p]), cfg) == _one_loop(e, loop, points, cfg)

    @pytest.mark.parametrize("curve", [False, True])
    def test_gaps_row_by_row(self, curve):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        branch = rng.normal(size=3) + 1j * rng.normal(size=3) if curve else None
        # row 2 alone has two points close together
        x[2, 1] = x[2, 0] + 1e-3
        gaps = _gaps(x, branch)
        for p in range(4):
            assert np.array_equal(gaps[p], _gaps(x[p], branch))
        assert gaps[2].min() < 1e-2 < np.delete(gaps, 2, axis=0).min()

    @pytest.mark.parametrize("text", ["b(1,1).b(10,1)", "b(10,1).f.pi(2,7,11)"])
    def test_stacked_start_row_for_row(self, cfg, text):
        # row p of a (P, n) start continues along paths[p] as it would alone
        e = parse_map_expr(text)
        points = fiber(e, cfg)
        first = [_Segment(BASEPOINT, v, n) for v, n in ((0.3, 4), (0.6 + 0.1j, 3), (0.7, 4))]
        start = _continue(e, first, points.x, points.y, cfg)
        assert not np.allclose(start[0][0], start[0][1])
        paths = [_Segment(a, b, n) for a, b, n in ((0.3, 0.2, 2), (0.6 + 0.1j, 0.6 - 0.1j, 4), (0.7, 0.8, 3))]
        end = _continue(e, paths, *start, cfg)
        for p, path in enumerate(paths):
            y = None if start[1] is None else start[1][p]
            alone = _continue(e, [path], start[0][p], y, cfg)
            # equal to Newton's tolerance: a row may take the extra Newton
            # iterations or shorter steps of another
            assert np.allclose(end[0][p], alone[0][0], rtol=0, atol=1e-10)
            if y is not None:
                assert np.allclose(end[1][p], alone[1][0], rtol=0, atol=1e-10)

    def test_underflow_names_the_refusing_path(self):
        cfg = TrackingConfig(initial_step=1 / 40, min_step=1 / 40)
        e = parse_map_expr("b(10,1).f.pi(2,7,11)")
        start = fiber(e, cfg)
        loops = [LoopSpec(center=0j, steps=40), LoopSpec(center=0.76, steps=40)]
        with pytest.raises(StepUnderflowError) as caught:
            _continue(e, loops, start.x, start.y, cfg)
        message = str(caught.value)
        assert "at t = 0." in message
        assert message.endswith("on loop around 0.76+0j")

    def test_half_loop_underflow_reports_t_on_the_whole_loop(self):
        # the upper half of the loop around 0.755 ends 0.005 from 1, at its
        # antipode t = 1/2; min_step and t are fractions of the whole loop
        cfg = TrackingConfig(initial_step=1 / 40, min_step=1 / 40)
        e = parse_map_expr("b(10,1).f.pi(2,7,11)")
        start = fiber(e, cfg)
        loops = [LoopSpec(center=0j, steps=40), LoopSpec(center=0.755, steps=40)]
        with pytest.raises(StepUnderflowError, match=r"^step underflow at t = 0\.468750 on loop around 0\.755\+0j$"):
            _loop_permutations(e, loops, start, _conjugation(start, cfg), cfg)

    def test_path_names(self):
        assert LoopSpec(center=0.76).name == "loop around 0.76+0j"
        assert _Segment(BASEPOINT, 0.25 + 0j, 25).name == "segment to 0.25+0j"
