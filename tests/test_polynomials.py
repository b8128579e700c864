import gc
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from naive_horner import dense_eval_many, rounding_error
from naive_roots import dense_aberth, naive_roots
from test_monodromy import run_without_simd_dispatch

from dessins import polynomials
from dessins.maps import BelyiMN, FPoly, as_poly
from dessins.polynomials import (
    ClusteredRootsError,
    ComplexPoly,
    LabeledRoot,
    LabeledRoots,
    NonConvergedError,
    RootFindingError,
    f_polynomial,
    roots,
    roots_of_f,
    scaled_integer_model,
    _aberth,
    shifted_roots,
)


class TestComplexPoly:
    def test_trims_trailing_zeros(self):
        p = ComplexPoly((1, 2, 0, 0))
        assert p.degree == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ComplexPoly(())

    def test_horner_eval(self):
        p = ComplexPoly((1, -2, 1))  # (x-1)^2
        assert p(1) == 0
        assert p(3) == 4

    def test_deflate_removes_root(self):
        p = ComplexPoly((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
        q = p.deflate(1.0)
        assert q.degree == 2
        assert abs(q(2)) < 1e-12 and abs(q(3)) < 1e-12


_coeff = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)

_PRIMITIVES = [FPoly()] + [BelyiMN(m, n) for m in range(1, 13) for n in range(1, 13)]


def _slope_coeffs(prim):
    """The ascending coefficients of the derivative of a primitive."""
    return [k * c for k, c in enumerate(as_poly(prim).coeffs)][1:]


class TestProductForm:
    """Each primitive evaluates itself and its slope in product form; both
    must agree with dense Horner on the coefficient form to within Horner's
    first-order rounding bound (naive_horner.rounding_error), at random
    points and within 1e-6 of the vertices, where the two round most
    differently."""

    @staticmethod
    def _points(prim):
        rng = np.random.default_rng(17)
        vertices = [0, 1, 12 / 11] if isinstance(prim, FPoly) else [0, 1, prim.m / prim.degree]
        near = [v + 1e-6 * rng.random() * np.exp(2j * np.pi * rng.random())
                for v in vertices for _ in range(8)]
        away = rng.normal(scale=0.7, size=40) + 1j * rng.normal(scale=0.7, size=40) + 0.5
        return np.concatenate((near, away))

    @pytest.mark.parametrize("prim", _PRIMITIVES, ids=[p.text() for p in _PRIMITIVES])
    def test_matches_dense_horner(self, prim):
        u = self._points(prim)
        value, slope = prim.value_and_slope(u)
        bound = rounding_error((prim,), u)
        assert np.all(np.abs(value - dense_eval_many(as_poly(prim).coeffs, u)) <= bound)
        # the same bound on the slope: gamma_2n times sum |k c_k| |u|^(k - 1)
        k = 2 * prim.degree * 2.0**-53
        slope_bound = k / (1 - k) * dense_eval_many(np.abs(_slope_coeffs(prim)), np.abs(u)).real
        assert np.all(np.abs(slope - dense_eval_many(_slope_coeffs(prim), u)) <= slope_bound)

    def test_scalar_and_shape(self):
        for prim in (FPoly(), BelyiMN(10, 1), BelyiMN(1, 1)):
            value, slope = prim.value_and_slope(0.3 + 0.1j)
            assert value == pytest.approx(as_poly(prim)(0.3 + 0.1j), rel=1e-13)
            value, slope = prim.value_and_slope(np.ones((2, 3)))
            assert value.shape == slope.shape == (2, 3)


class TestRoots:
    def test_quadratic(self):
        got = roots(ComplexPoly((1, 0, 1)))  # x^2+1
        assert np.allclose(sorted(got, key=lambda z: z.imag), [-1j, 1j])

    def test_cubic_real(self):
        got = roots(ComplexPoly((-6, 11, -6, 1)))
        assert np.allclose(got, [1, 2, 3])

    def test_sorted_by_real_then_imag(self):
        got = roots(ComplexPoly((-6, 11, -6, 1)))
        assert list(got) == sorted(got, key=lambda z: (z.real, z.imag))

    def test_double_root_raises_clustered(self):
        with pytest.raises(ClusteredRootsError):
            roots(ComplexPoly((1, -2, 1)))  # (x-1)^2

    def test_stall_at_double_root_raises_clustered(self):
        # -(x^2+2x+2)^2: the iteration never settles at the double roots -1 +- i
        with pytest.raises(ClusteredRootsError):
            roots(ComplexPoly((-4, -8, -8, -4, -1)))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(ComplexPoly((5,)))

    def test_offsets_are_not_cached(self, monkeypatch):
        # only the one rotation is kept: 200 other offsets leave next to nothing
        cached = roots_of_f()
        p = f_polynomial()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for k in range(200):
                with monkeypatch.context() as m:
                    m.setattr(polynomials, "ANGULAR_OFFSET", 1 + k / 1000)
                    _aberth(p, (p.coeffs[0],))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 50_000
        assert roots_of_f() is cached

    @given(
        st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(
            lambda c: c[-1] != 0
        )
    )
    @example(coeffs=[-4, -8, -8, -4, -1])
    @settings(max_examples=150, deadline=None)
    def test_random_integer_polynomials(self, coeffs):
        p = ComplexPoly(tuple(coeffs))
        if p.degree < 1:
            return
        try:
            got = roots(p)
        except ClusteredRootsError:
            return  # repeated roots are a documented refusal, not a bug
        assert len(got) == p.degree
        scale = max(1.0, max(abs(c) for c in coeffs))
        for z in got:
            assert abs(p(z)) < 1e-7 * scale

    def test_angular_offset_changes_start_not_result(self, monkeypatch):
        p = ComplexPoly((-1, 0, 0, 1))  # x^3-1
        a = roots(p)
        for offset in (0.37, 0.9, 1.3):
            monkeypatch.setattr(polynomials, "ANGULAR_OFFSET", offset)
            b = roots(p)
            assert np.allclose(a, b, atol=1e-10)

    def test_subnormal_lead_raises_without_warning(self):
        # 1 / 5e-324 overflows the monic coefficients; the iteration's
        # errstate covers their derivative too, so the refusal is the only
        # signal
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergedError):
                roots(ComplexPoly((0, 1, 5e-324)))


def _shifted(poly, v):
    return ComplexPoly((poly.coeffs[0] - complex(v),) + poly.coeffs[1:])


def _naive_rows(poly, values):
    """naive_roots of poly - v for each v in order, up to the first error:
    (the root tuples, the error or None)."""
    rows = []
    for v in values:
        try:
            rows.append(naive_roots(_shifted(poly, v)))
        except RootFindingError as exc:
            return rows, exc
    return rows, None


def _iterations(poly):
    """The iterations naive_roots takes to converge on poly."""
    for k in range(1, 200):
        try:
            naive_roots(poly, max_iterations=k)
            return k
        except RootFindingError:
            continue
    raise AssertionError("no convergence in 200 iterations")


class TestShiftedRoots:
    """shifted_roots solves poly - v for every v in one batched iteration;
    each row must equal the one-polynomial iteration (naive_roots) bit for
    bit, and raise its error on the first row that fails."""

    @given(
        st.lists(_coeff, min_size=3, max_size=13).filter(lambda c: c[-1] != 0),
        st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=5),
    )
    @example(coeffs=[0j, -2 + 0j, 1 + 0j], values=[0.5, -1, 3j])  # (x - 1)^2 at -1
    @settings(max_examples=200, deadline=None)
    def test_matches_one_polynomial_iteration(self, coeffs, values):
        poly = ComplexPoly(tuple(coeffs))
        # on wild coefficients the iterates of both may overflow before
        # the residual check refuses them; the arithmetic is the same
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows, error = _naive_rows(poly, values)
            if error is None:
                assert shifted_roots(poly, values) == rows
                return
            with pytest.raises(type(error)) as caught:
                shifted_roots(poly, values)
        assert str(caught.value) == str(error)

    def test_rows_stop_at_different_iterations(self):
        poly = f_polynomial()
        values = [0.5, 1e-3, 7 + 2j, 1e4, -3j]
        iterations = {_iterations(_shifted(poly, v)) for v in values}
        assert len(iterations) > 1
        assert shifted_roots(poly, values) == _naive_rows(poly, values)[0]

    def test_double_root_row_raises_its_error(self):
        # x^2 - 2x + 1 = (x - 1)^2: the middle row has a double root, and the
        # rows after it are not reached
        poly = ComplexPoly((0, -2, 1))
        rows, error = _naive_rows(poly, [0.5, -1, -1 + 1e-30j, 3j])
        assert len(rows) == 1 and isinstance(error, ClusteredRootsError)
        with pytest.raises(ClusteredRootsError) as caught:
            shifted_roots(poly, [0.5, -1, -1 + 1e-30j, 3j])
        assert str(caught.value) == str(error)

    def test_roots_is_the_one_row_case(self):
        for poly in (f_polynomial(), _shifted(as_poly(BelyiMN(10, 1)), 0.5), ComplexPoly((-6, 11, -6, 1))):
            assert roots(poly) == naive_roots(poly)
            assert shifted_roots(poly, [0]) == [roots(poly)]

    def test_degree_one_and_empty(self):
        poly = ComplexPoly((1, 2))
        assert shifted_roots(poly, [1, 3 + 1j]) == [naive_roots(_shifted(poly, v)) for v in (1, 3 + 1j)]
        assert shifted_roots(f_polynomial(), []) == []


def _aberth_outcome(solve, poly, heads):
    """The roots of every row as one array, or the class and message of
    the error raised."""
    try:
        return np.array(solve(poly, heads))
    except RootFindingError as exc:
        return type(exc), str(exc)


_SPARSE_COEFF = st.one_of(
    st.just(0j),
    st.floats(-9, 9).map(complex),
    st.floats(-9, 9).map(lambda v: complex(0, v)),
    st.complex_numbers(max_magnitude=9, allow_nan=False, allow_infinity=False),
)


class TestSparseHorner:
    """_aberth's Horner loops skip the zero coefficients that dense Horner
    adds (naive_roots.dense_aberth): an added zero only sets the sign of a
    zero, so every root keeps its bits, signs of zero parts included, and
    every error its message."""

    @staticmethod
    def _check(poly, heads):
        got, want = (_aberth_outcome(solve, poly, heads) for solve in (_aberth, dense_aberth))
        if isinstance(want, tuple):
            assert got == want
            return
        assert np.array_equal(got, want)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))

    @given(
        st.lists(_SPARSE_COEFF, min_size=3, max_size=16).filter(lambda c: c[-1] != 0),
        st.lists(_SPARSE_COEFF, min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_horner(self, coeffs, heads):
        # a subnormal lead overflows the monic coefficients of both alike
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self._check(ComplexPoly(tuple(coeffs)), heads)

    @pytest.mark.parametrize("poly, values", [
        (f_polynomial(), [0.5, 1e-3, 7 + 2j]),
        (as_poly(BelyiMN(10, 1)), [0.5, 0.25 + 1j]),
        (as_poly(BelyiMN(20, 2)), [0.5]),
        (as_poly(BelyiMN(1, 12)), [0.5]),  # stalls at a root cluster
        (ComplexPoly((1, 0, 2j, 0, 1)), [0, 3]),  # a purely imaginary coefficient
    ], ids=["f", "b(10,1)", "b(20,2)", "b(1,12)", "imaginary"])
    def test_chains(self, poly, values):
        self._check(poly, [poly.coeffs[0] - v for v in values])

    def test_without_simd_dispatch(self):
        run = run_without_simd_dispatch(
            f"{Path(__file__).resolve()}::TestSparseHorner", "-k", "not without_simd_dispatch")
        assert run.returncode == 0, run.stdout + run.stderr


class TestFPolynomial:
    def test_coefficients(self):
        f = f_polynomial()
        assert f.degree == 12
        assert f.coeffs[0] == 1.0
        assert f.coeffs[11] == pytest.approx(-12 / 11)
        assert f.coeffs[12] == 1.0

    def test_scaled_integer_model(self):
        coeffs = scaled_integer_model()
        assert len(coeffs) == 13
        assert coeffs[0] == 11**12
        assert coeffs[11] == -12
        assert coeffs[12] == 1
        assert all(c == 0 for c in coeffs[1:11])


def _reference_roots_50_digits():
    """Ground truth from mpmath at 50 digits on the exact rational input."""
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(1), -mpmath.mpf(12) / 11] + [mpmath.mpf(0)] * 10
        coeffs.append(mpmath.mpf(1))
        return [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200)]


def _nearest_pairs(ours, theirs):
    """Each of ``ours`` with its nearest of ``theirs``; the pairing must
    be a bijection.  Sort positions would pair a conjugate pair whose real
    parts differ in their last bit in either order."""
    nearest = [min(theirs, key=lambda w: abs(z - w)) for z in ours]
    assert len(ours) == len(theirs) == len(set(nearest))
    return list(zip(ours, nearest))


class TestRootsOfF:
    def test_twelve_labeled_roots(self):
        lr = roots_of_f()
        assert len(lr.roots) == 12
        assert [r.label for r in lr.roots] == list(range(1, 13))

    def test_residuals(self):
        assert all(r.residual < 1e-10 for r in roots_of_f().roots)

    def test_sum_and_product(self):
        vals = roots_of_f().values
        assert abs(sum(vals) - Fraction(12, 11)) < 1e-9
        prod = 1
        for v in vals:
            prod *= v
        assert abs(prod - 1) < 1e-9

    def test_labels_ascend_by_argument(self):
        args = [r.argument for r in roots_of_f().roots]
        assert args == sorted(args)
        assert all(0 <= a < 2 * math.pi for a in args)

    def test_min_argument_gap(self):
        args = [r.argument for r in roots_of_f().roots]
        gap = min(b - a for a, b in zip(args, args[1:] + [args[0] + 2 * math.pi]))
        assert gap > 1e-3
        assert gap == pytest.approx(0.333068, abs=1e-5)

    def test_no_real_roots(self):
        assert all(abs(r.value.imag) > 0.1 for r in roots_of_f().roots)

    def test_conjugate_pairing(self):
        lr = roots_of_f()
        for i in range(1, 13):
            assert lr[i] == pytest.approx(lr[13 - i].conjugate(), abs=1e-12)

    def test_against_high_precision_reference(self):
        reference = _reference_roots_50_digits()
        for r in roots_of_f().roots:
            nearest = min(reference, key=lambda z: abs(z - r.value))
            assert abs(nearest - r.value) < 1e-12

    def test_getitem_by_label(self):
        lr = roots_of_f()
        assert lr[1] == lr.roots[0].value
        with pytest.raises(KeyError):
            lr[13]

    def test_offset_override_gives_same_roots(self, monkeypatch):
        # the roots of f from start circles turned by other offsets
        p = f_polynomial()
        a = roots_of_f().values
        for offset in (0.37, 0.9, 1.3):
            monkeypatch.setattr(polynomials, "ANGULAR_OFFSET", offset)
            for ours, theirs in _nearest_pairs(a, roots(p)):
                assert abs(ours - theirs) < 1e-10

    def test_solved_once(self):
        assert roots_of_f() is roots_of_f()

    def test_scaled_roots_match_integer_model(self):
        scaled = [11 * r for r in roots_of_f().values]
        big = roots(ComplexPoly(scaled_integer_model()))
        for ours, theirs in _nearest_pairs(scaled, big):
            assert abs(ours - theirs) < 1e-8

    def test_to_json_list_shape(self):
        rows = roots_of_f().to_json_list()
        assert len(rows) == 12
        assert set(rows[0]) == {"label", "re", "im", "residual"}


class TestLabeledRootsValidation:
    def test_rejects_wrong_count(self):
        row = LabeledRoot(label=1, value=1 + 1j, residual=0.0)
        with pytest.raises(ValueError):
            LabeledRoots((row,))

    def test_rejects_bad_residual(self):
        base = roots_of_f().roots
        rows = tuple(
            LabeledRoot(r.label, r.value, 1e-3 if r.label == 5 else r.residual)
            for r in base
        )
        with pytest.raises(ValueError):
            LabeledRoots(rows)
