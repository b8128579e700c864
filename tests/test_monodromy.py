import dataclasses
import hashlib
import importlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.dessin import Constellation, isomorphic
from dessins.galois import Triple, full_chain
from dessins.maps import parse_map_expr
from dessins.monodromy import (
    BASEPOINT,
    LoopSpec,
    NearBranchError,
    NotBelyiError,
    TrackingConfig,
    TrackingError,
    _continue,
    _gaps,
    _loops,
    _lowered,
    _sheets,
    _stepper,
    fiber,
    monodromy,
    monodromy_json,
    track_loop,
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

# the module itself: the package re-exports the function of the same name
MONODROMY = importlib.import_module("dessins.monodromy")

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
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrackingConfig(**bad)

    def test_integer_floats_and_bounds_accepted(self):
        cfg = TrackingConfig(separation_factor=10, initial_step=1, min_step=1)
        assert cfg.separation_factor == 10


class TestLoopSpec:
    def test_starts_and_ends_at_basepoint(self):
        loop = LoopSpec(center=0j, radius=0.25)
        assert loop.point(0.0) == pytest.approx(BASEPOINT)
        assert loop.point(1.0) == pytest.approx(BASEPOINT)

    def test_default_entry_is_radial(self):
        loop = LoopSpec(center=0j, radius=0.25)
        # entry sits on the segment from center toward the base point
        seg_frac = 0.25 / loop.length
        entry = loop.point(seg_frac)
        assert entry == pytest.approx(0.25 + 0j)

    def test_circle_is_counterclockwise(self):
        loop = LoopSpec(center=0j, radius=0.25)
        seg = 0.25 / loop.length
        quarter = loop.point(seg + (1 - 2 * seg) / 4)
        assert quarter == pytest.approx(0.25j)

    def test_explicit_entry_angle(self):
        loop = LoopSpec(center=0.99, radius=1.2, entry_angle=math.pi / 2)
        seg_frac = abs(0.99 + 1.2j - BASEPOINT) / loop.length
        assert loop.point(seg_frac) == pytest.approx(0.99 + 1.2j)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            LoopSpec(center=0j, radius=0.0)


class TestFiber:
    def test_b11_fiber_exact(self):
        pts = fiber(parse_map_expr("b(1,1)"), 0.5)
        xs = sorted(p.x.real for p in pts)
        lo, hi = (1 - math.sqrt(0.5)) / 2, (1 + math.sqrt(0.5)) / 2
        assert xs == pytest.approx([lo, hi])
        assert [p.label for p in pts] == [1, 2]

    @pytest.mark.parametrize("text,n", [
        ("b(1,1)", 2),
        ("b(1,1).b(10,1)", 22),
        ("b(1,1).b(10,1).f", 264),
    ])
    def test_fiber_sizes(self, text, n):
        assert len(fiber(parse_map_expr(text), 0.5)) == n

    def test_curve_fiber_doubles_and_lies_on_curve(self):
        e = parse_map_expr("b(1,1).b(10,1).f.pi(2,7,11)")
        pts = fiber(e, 0.5)
        assert len(pts) == 528
        proj = e.proj
        for p in pts[:20]:
            assert abs(p.y**2 - proj.curve_rhs(p.x)) < 1e-8

    def test_near_branch_value_rejected(self):
        with pytest.raises(NearBranchError):
            fiber(parse_map_expr("b(1,1)"), 1 - 1e-9)

    def test_labels_are_consecutive(self):
        pts = fiber(parse_map_expr("b(1,1).b(10,1)"), 0.5)
        assert [p.label for p in pts] == list(range(1, 23))


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
        base = fiber(e, BASEPOINT, cfg)
        top = track_loop(e, LoopSpec(0.99, 1.2, entry_angle=math.pi / 2), base, cfg)
        assert top == compose(g0, g1)
        bottom = track_loop(e, LoopSpec(0.99, 1.2, entry_angle=-math.pi / 2), base, cfg)
        assert bottom == compose(g1, g0)


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
        base = fiber(e, BASEPOINT, cfg)
        loop = LoopSpec(center=0.5 + 0.3j, radius=0.05)
        assert track_loop(e, loop, base, cfg) == identity(2)


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
}
DOUBLED_PSI = (
    "(1)(2,3)(4)(5)(6,8)(7,9)(10,11,19,21,29,35,30,22,20,12)(13)(14)(15,17)"
    "(16,18)(23,25)(24,26)(27)(28)(31,33)(32,34)(36)(37)(38,39)(40,41)(42,43)(44)",
    "(1,2)(3,10)(4,6)(5,7)(8,11)(9,12)(13,15)(14,16)(17,19)(18,20)(21,23)"
    "(22,24)(25,27)(26,28)(29,31)(30,32)(33,36)(34,37)(35,38)(39,40)(41,42)(43,44)",
)


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

    def test_twice_doubled(self, cfg):
        pair = monodromy(parse_map_expr("b(1,1).b(1,1).b(10,1)"), cfg)
        assert (format_cycles(pair.g0), format_cycles(pair.g1)) == DOUBLED_PSI


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


class TestSheetPairing:
    """Only one sheet of each (x, y), (x, -y) pair is continued, so a curve
    fiber that does not come in exact adjacent pairs is refused."""

    @pytest.mark.parametrize("corrupt", ["rotated", "y_off_by_one_ulp"])
    def test_unpaired_curve_fiber_refused(self, cfg, corrupt):
        e = parse_map_expr("f.pi(2,7,11)")
        points = list(fiber(e, BASEPOINT, cfg))
        if corrupt == "rotated":
            points = points[1:] + points[:1]
        else:
            y = points[1].y
            points[1] = dataclasses.replace(
                points[1], y=complex(np.nextafter(y.real, np.inf), y.imag))
        loop = LoopSpec(center=0.5 + 0.3j, radius=0.05)
        with pytest.raises(TrackingError, match="pairs"):
            track_loop(e, loop, points, cfg)


class TestStep:
    """The shared continuation step on b(1,1) = 4x(1 - x): the fiber over
    1/2 is (1 -+ 1/sqrt 2)/2, 0.71 apart, and the fiber over v is
    (1 -+ sqrt(1 - v))/2.  A zero gap bound is always valid and makes the
    step compute the exact gaps."""

    E = parse_map_expr("b(1,1)")

    @pytest.fixture()
    def step(self, cfg):
        return _stepper(self.E, cfg.max_newton_iters)

    @pytest.fixture()
    def half(self, cfg):
        return _sheets(self.E, fiber(self.E, BASEPOINT, cfg))

    @staticmethod
    def _over(v):
        return np.array([(1 - math.sqrt(1 - v)) / 2, (1 + math.sqrt(1 - v)) / 2])

    def test_short_step_lands_on_fiber(self, cfg, step, half):
        (x, y), _ = step(*half, np.zeros(2), BASEPOINT, 0.9, cfg.newton_tol)
        assert y is None
        assert np.allclose(x, self._over(0.9), atol=1e-12)

    def test_over_long_step_refused_by_gap_guard(self, cfg, step, half):
        # straight to 0.99 each point would move 0.30, past 0.4 of the
        # 0.71 gap; Newton converges there, and two steps reach the target
        # refused from the trivial bound and from the tightest valid one;
        # either way the exact gaps are computed and handed back
        for bound in (np.zeros(2), _gaps(*half)):
            landed, bound = step(*half, bound, BASEPOINT, 0.99, cfg.newton_tol)
            assert landed is None
            assert np.array_equal(bound, _gaps(*half))
        mid, bound = step(*half, bound, BASEPOINT, 0.9, cfg.newton_tol)
        (x, _), _ = step(*mid, bound, 0.9, 0.99, cfg.newton_tol)
        assert np.allclose(x, self._over(0.99), atol=1e-12)

    def test_gaps_patched_to_infinity_accepts(self, cfg, step, half, monkeypatch):
        # the gap guard alone refuses the over-long step
        monkeypatch.setattr(MONODROMY, "_gaps", lambda x, y: np.full(len(x), np.inf))
        (x, _), _ = step(*half, np.zeros(2), BASEPOINT, 0.99, cfg.newton_tol)
        assert np.allclose(x, self._over(0.99), atol=1e-12)

    def test_accepting_bound_skips_exact_gaps(self, cfg, step, half, monkeypatch):
        bound = _gaps(*half)

        def refuse(x, y):
            raise AssertionError("exact gaps computed")

        monkeypatch.setattr(MONODROMY, "_gaps", refuse)
        (x, _), lowered = step(*half, bound, BASEPOINT, 0.9, cfg.newton_tol)
        moved = np.abs(x - half[0])
        assert np.all(lowered <= bound - moved - moved.max())


def _nearest_other(x, y):
    """Index of the nearest other tracked point, in |dx| + |dy|."""
    d = np.abs(x[:, None] - x[None, :])
    if y is not None:
        d = d + np.abs(y[:, None] - y[None, :])
    np.fill_diagonal(d, np.inf)
    return d.argmin(axis=1)


class TestGapBound:
    """The bound carried between steps (_lowered) never exceeds the float
    value of _gaps, so a step it accepts is one the exact guard accepts."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        curve=st.booleans(),
        pull=st.floats(min_value=0.0, max_value=0.3),
        noise=st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_above_gaps_on_random_walks(self, seed, curve, pull, noise):
        # each point drifts toward its nearest neighbor, which makes the
        # triangle inequality nearly tight, plus a random jitter
        rng = np.random.default_rng(seed)
        n = 7

        def cloud():
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        x = cloud()
        y = cloud() if curve else None
        bound = _gaps(x, y)
        for _ in range(30):
            j = _nearest_other(x, y)
            x_new = x + pull * (x[j] - x) + noise * cloud()
            moved = np.abs(x_new - x)
            y_new = None
            if curve:
                y_new = y + pull * (y[j] - y) + noise * cloud()
                moved = moved + np.abs(y_new - y)
            bound = _lowered(bound, moved)
            x, y = x_new, y_new
            assert np.all(bound <= _gaps(x, y))

    @pytest.mark.parametrize("curve", [False, True])
    def test_never_above_gaps_head_on(self, curve):
        # two points closing in on each other at equal speed, or on curves a
        # point closing in on its partner sheet: the triangle inequality is
        # an equality, and only the rounding slack keeps the bound below
        a, delta = math.pi / 3, math.e * 1e-4
        if curve:
            x, y = np.array([0.3 + 0.1j]), np.array([a + 0j])
        else:
            x, y = np.array([-a + 0j, a + 0j]), None
        bound = _gaps(x, y)
        for _ in range(3000):
            if curve:
                y_new = y - delta
                moved = np.abs(y_new - y)
                y = y_new
            else:
                x_new = x + np.array([delta, -delta])
                moved = np.abs(x_new - x)
                x = x_new
            bound = _lowered(bound, moved)
            assert np.all(bound <= _gaps(x, y))
        assert np.all(bound > 0.9 * _gaps(x, y))


def _recording_stepper(log, exact_only):
    """A _stepper that logs (origin, target, accepted) for every step,
    and with exact_only passes a zero bound, so that every gap guard
    computes the exact gaps."""
    def make(e, max_newton_iters):
        step = _stepper(e, max_newton_iters)

        def logged(x, y, bound, origin, target, tol):
            if exact_only:
                bound = np.zeros(len(x))
            landed, bound = step(x, y, bound, origin, target, tol)
            log.append((origin, target, landed is not None))
            return landed, bound

        return logged

    return make


def _counting(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)

    return counted


class TestDecisionsUnchanged:
    E = parse_map_expr("b(10,1).f.pi(2,7,11)")

    @pytest.mark.parametrize("loop", [
        LoopSpec(center=0j, radius=0.25),
        # tight around 1 in few steps, so that the gap guard refuses steps
        LoopSpec(center=1 + 0j, radius=0.02, steps=32),
    ], ids=["loop_0", "tight_loop_1"])
    def test_loop_matches_exact_guard(self, cfg, monkeypatch, loop):
        """Same accept/refuse sequence and bit-identical end positions as
        the guard that computes the exact gaps on every step."""
        start = _sheets(self.E, fiber(self.E, BASEPOINT, cfg))
        runs = []
        for exact_only in (False, True):
            log, counts = [], Counter()
            monkeypatch.setattr(MONODROMY, "_stepper", _recording_stepper(log, exact_only))
            monkeypatch.setattr(MONODROMY, "_gaps", _counting(counts, "gaps", _gaps))
            end = _continue(self.E, loop, *start, cfg)
            runs.append((log, end, counts["gaps"]))
        (log, end, gaps), (exact_log, exact_end, exact_gaps) = runs
        assert log == exact_log
        assert np.array_equal(end[0], exact_end[0])
        assert np.array_equal(end[1], exact_end[1])
        assert exact_gaps == len(log)
        assert gaps < exact_gaps / 2
        if loop.steps == 32:
            assert not all(accepted for *_, accepted in log)

    def test_full_chain_work(self, cfg, monkeypatch, full_pair):
        # the trajectory is the one of the exact guard: as many composite
        # evaluations as before the bound was carried, and far fewer gaps
        counts = Counter()
        for name in ("_gaps", "_composite_and_derivative"):
            monkeypatch.setattr(
                MONODROMY, name, _counting(counts, name, getattr(MONODROMY, name)))
        assert monodromy(full_chain(Triple(2, 7, 11)), cfg) == full_pair
        assert counts["_composite_and_derivative"] == 2406
        assert counts["_gaps"] <= 150
