import random
import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_parse

from dessins.maps import (
    BadTripleError,
    BelyiMN,
    EmptyChainError,
    FPoly,
    MapExpr,
    MapExprError,
    MapSyntaxError,
    MisplacedPrimitiveError,
    Proj,
    RootRef,
    as_poly,
    branch_values,
    critical_values,
    degree,
    format_map_expr,
    is_belyi,
    parse_map_expr,
    point_to_complex,
)
from dessins.monodromy import _composite_and_derivative
from dessins.polynomials import roots_of_f

FULL = "b(1,1).b(10,1).f.pi(2,7,11)"


class TestParsing:
    @pytest.mark.parametrize("text,expected_degree", [
        ("b(1,1)", 2),
        ("b(10,1)", 11),
        ("f", 12),
        ("b(1,1).b(10,1)", 22),
        ("b(1,1).b(10,1).f", 264),
        (FULL, 528),
    ])
    def test_degrees(self, text, expected_degree):
        assert degree(parse_map_expr(text)) == expected_degree

    def test_round_trip(self):
        for text in ("b(1,1)", "b(2,3)", FULL):
            assert format_map_expr(parse_map_expr(text)) == text

    def test_whitespace_tolerated_formatting_canonical(self):
        e = parse_map_expr(" b( 1 , 1 ) . f ")
        assert format_map_expr(e) == "b(1,1).f"

    def test_str_matches_format(self):
        e = parse_map_expr(FULL)
        assert str(e) == format_map_expr(e)

    @pytest.mark.parametrize("bad", [
        "b", "b(1)", "b(1,1", "b(1,1))", "q(1,2)", "b(1,1)..f",
        "b(one,1)", "pi(1,2)", "pi(1,2,3,4)",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(MapSyntaxError):
            parse_map_expr(bad)

    def test_syntax_error_carries_position(self):
        with pytest.raises(MapSyntaxError) as err:
            parse_map_expr("b(1,x)")
        assert err.value.position == 4

    def test_empty_is_its_own_error(self):
        with pytest.raises(EmptyChainError):
            MapExpr(())
        with pytest.raises(EmptyChainError):
            parse_map_expr("")

    @pytest.mark.parametrize("bad", ["pi(1,1,2)", "pi(0,3,4)", "pi(1,2,13)"])
    def test_bad_triples(self, bad):
        with pytest.raises(BadTripleError):
            parse_map_expr(bad)

    def test_triple_order_is_preserved_not_sorted(self):
        e = parse_map_expr("f.pi(7,2,11)")
        assert e.proj.triple == (7, 2, 11)

    @pytest.mark.parametrize("bad", [
        "pi(1,2,3).f",            # curve projection must be innermost
        "b(1,1).pi(1,2,3).f",
        "f.f",                    # the fixed degree-12 stage appears once
        "f.b(1,1)",               # no Belyi stage inside f
        "pi(1,2,3).pi(4,5,6)",
    ])
    def test_misplaced_primitives(self, bad):
        with pytest.raises(MisplacedPrimitiveError):
            parse_map_expr(bad)

    def test_zero_exponent_rejected(self):
        with pytest.raises(MapExprError):
            parse_map_expr("b(0,1)")

    @pytest.mark.parametrize("text,position", [
        ("b(\u00b2,1)", 2),     # a superscript digit, which int() refuses
        ("b(\u0661,1)", 2),     # an Arabic-Indic digit, which int() reads
        ("b(1,1).\u0192", 7),   # a Latin letter outside ASCII
    ])
    def test_off_ascii_is_a_syntax_error(self, text, position):
        with pytest.raises(MapSyntaxError, match="unexpected character") as err:
            parse_map_expr(text)
        assert err.value.position == position

    def test_overlong_integer_is_a_syntax_error(self):
        # int() refuses a run of more than 4300 digits with a ValueError
        with pytest.raises(MapSyntaxError, match="integer of 4301 digits is too long") as err:
            parse_map_expr("b(" + "1" * 4301 + ",1)")
        assert err.value.position == 2

    def test_unicode_whitespace_is_whitespace(self):
        assert parse_map_expr("b(1,1)\u00a0.\u2003f") == parse_map_expr("b(1,1).f")


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the MapExpr, or the exception's
    class, message and position."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


CHAIN_FRAGMENTS = ["b(", "pi(", ".f", "f", ".", ",", "(", ")", " ", "0", "1", "10", "12", "13"]


def _near_chain(rng):
    """A random chain over labels and exponents 0..13, with one printable
    character replaced, inserted or deleted half the time."""
    def prim():
        i, j, k = (rng.randint(0, 13) for _ in range(3))
        return rng.choice([f"b({i},{j})", "f", f"pi({i},{j},{k})"])

    text = ".".join(prim() for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.5:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(["", rng.choice(string.printable)]) + text[at + rng.randint(0, 1):]
    return text


class TestGrammarAgainstNaiveParser:
    """On printable ASCII the table-driven parser agrees with the
    hand-written one it replaced (naive_parse)."""

    def test_random_printable_ascii(self):
        # printable characters, chain fragments, and chains with one
        # character replaced, inserted or deleted
        rng = random.Random(7)
        parsed = 0
        for k in range(100_000):
            if k % 3 == 2:
                text = _near_chain(rng)
            else:
                alphabet = [string.printable, CHAIN_FRAGMENTS][k % 3]
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
            got = _outcome(parse_map_expr, text)
            assert got == _outcome(naive_parse.parse_map_expr, text), text
            parsed += isinstance(got, MapExpr)
        assert parsed > 5_000  # many strings are chains, not only errors

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(CHAIN_FRAGMENTS) | st.text(string.printable, max_size=2),
                    max_size=12).map("".join))
    def test_chain_fragments(self, text):
        assert _outcome(parse_map_expr, text) == _outcome(naive_parse.parse_map_expr, text)


def _composite(text, x):
    """The polynomial part of a chain at the points x, as continuation
    evaluates it."""
    value, _ = _composite_and_derivative(parse_map_expr(text).polynomial_part(), np.array(x))
    return value


class TestEvaluation:
    def test_b11_peak(self):
        b11 = as_poly(BelyiMN(1, 1))
        assert b11(0.5) == pytest.approx(1.0)
        assert b11(0.0) == pytest.approx(0.0)

    def test_b101_magic_value_is_exact_in_fractions(self):
        b = BelyiMN(10, 1)
        x = Fraction(10, 11)
        assert b.lead_constant * x**10 * (1 - x) == 1

    def test_float_lead_is_the_rounded_fraction(self):
        for m in range(1, 41):
            for n in range(1, 41):
                assert BelyiMN(m, n)._lead == float(BelyiMN(m, n).lead_constant)

    def test_float_lead_overflows(self):
        with pytest.raises(OverflowError):
            BelyiMN(600, 600)._lead

    def test_b101_numeric(self):
        assert as_poly(BelyiMN(10, 1))(10 / 11) == pytest.approx(1.0, abs=1e-12)

    def test_composite_matches_manual(self):
        # outermost first: b(1,1) applied to the value of b(10,1)
        x = 0.3 + 0.2j
        inner = as_poly(BelyiMN(10, 1))(x)
        assert _composite("b(1,1).b(10,1)", [x])[0] == pytest.approx(4 * inner * (1 - inner))

    def test_curve_point_evaluation(self):
        # (r2, 0) sits on the curve; the whole chain sends it to 0
        assert _composite(FULL, [roots_of_f()[2]])[0] == pytest.approx(0.0, abs=1e-9)

    def test_as_poly_binomial_expansion(self):
        poly = as_poly(BelyiMN(2, 3))
        # (5^5 / (2^2 3^3)) x^2 (1-x)^3
        x = 0.37
        expected = (5**5 / (4 * 27)) * x**2 * (1 - x) ** 3
        assert poly(x) == pytest.approx(expected)


class TestBranchValues:
    def _finite(self, text):
        values = branch_values(parse_map_expr(text))
        return sorted((point_to_complex(v) for v in values), key=lambda z: z.real)

    # the values are exact and finite, in the order they are found:
    # infinity, a branch value of every chain, is not listed

    def test_b_alone(self):
        assert branch_values(parse_map_expr("b(10,1)")) == (Fraction(0), Fraction(1))

    def test_f_alone(self):
        assert branch_values(parse_map_expr("f")) == (Fraction(1), Fraction(10, 11))

    def test_f_with_curve(self):
        # roots of f map to 0 through f, so 0 joins the branch values
        values = branch_values(parse_map_expr("f.pi(2,7,11)"))
        assert values == (Fraction(1), Fraction(10, 11), Fraction(0))

    def test_b_over_f_keeps_a_stray_value(self):
        # b(1,11)(10/11) is a rational near 0, kept exactly
        values = branch_values(parse_map_expr("b(1,11).f"))
        assert values == (Fraction(0), Fraction(1), Fraction(89161004482560, 895430243255237372246531))

    def test_b101_swallows_the_stray_value(self):
        # beta_{10,1}(10/11) = 1, so one more stage restores three values
        vals = self._finite("b(10,1).f.pi(2,7,11)")
        assert vals == pytest.approx([0.0, 1.0])

    def test_full_chain_is_belyi(self):
        e = parse_map_expr(FULL)
        assert branch_values(e) == (Fraction(1), Fraction(0))
        assert is_belyi(e)

    @pytest.mark.parametrize("text,belyi", [
        ("b(1,1)", True),
        ("b(10,1)", True),
        ("b(1,1).b(10,1)", True),
        ("f", False),
        ("f.pi(2,7,11)", False),
        ("b(10,1).f.pi(2,7,11)", True),
        (FULL, True),
        # b(1,11)(10/11) ~ 1e-10 and b(2,11)(10/11) ~ 8e-10 are branch values
        # near 0 but not 0
        ("b(1,11).f", False),
        ("b(2,11).f", False),
        ("b(1,1).b(1,11).f", False),
        ("b(30,3).f", True),
    ])
    def test_is_belyi(self, text, belyi):
        assert is_belyi(parse_map_expr(text)) == belyi

    def test_b_over_f_is_belyi_exactly_when_m_is_10n(self):
        # b(m,n) sends f's critical values 1 and 10/11 into {0, 1} only when
        # 10/11 is its critical point m/(m+n); elsewhere b(m,n)(10/11) is
        # some other rational, however close to 0
        for m in range(1, 41):
            for n in range(1, 16):
                assert is_belyi(parse_map_expr(f"b({m},{n}).f")) == (m == 10 * n), (m, n)

    def test_images_of_curve_roots_are_numeric(self):
        # b(2,3) sends the roots 1, 2, 3 of f, where pi branches, to complex
        # values, after its own critical values 0 and 1
        values = branch_values(parse_map_expr("b(2,3).pi(1,2,3)"))
        assert values[:2] == (Fraction(0), Fraction(1))
        assert all(type(v) is complex for v in values[2:])
        assert values[2:] == pytest.approx((
            0.5293856481232778 - 0.004581839016196104j,
            -7.472201356764687 - 5.809362930525819j,
            38.17114019806042 - 16.028922399313075j,
        ), rel=1e-12)


class TestRamification:
    @pytest.mark.parametrize("prim", [FPoly()] + [
        BelyiMN(m, n) for m in range(1, 13) for n in range(1, 13)], ids=lambda p: p.text())
    def test_riemann_hurwitz(self, prim):
        # a polynomial of degree d has d - 1 finite ramification in all
        orders = [k for points in prim.ramification().values() for _, k in points]
        assert sum(k - 1 for k in orders) == prim.degree - 1

    @pytest.mark.parametrize("prim", [FPoly(), BelyiMN(1, 1), BelyiMN(10, 1), BelyiMN(3, 5)],
                             ids=lambda p: p.text())
    def test_points_lie_over_their_values(self, prim):
        for v, points in prim.ramification().items():
            x = np.array([point_to_complex(p) for p, _ in points])
            value, _ = prim.value_and_slope(x)
            assert value == pytest.approx([point_to_complex(v)] * len(x), abs=1e-12)

    def test_critical_values(self):
        assert critical_values(BelyiMN(1, 1)) == [Fraction(1)]
        assert critical_values(BelyiMN(10, 1)) == [Fraction(0), Fraction(1)]
        assert critical_values(FPoly()) == [Fraction(1), Fraction(10, 11)]
        assert critical_values(Proj((2, 7, 11))) == [RootRef(2), RootRef(7), RootRef(11)]


class TestCurveBits:
    def test_rootref_value(self):
        lr = roots_of_f()
        assert RootRef(3).value() == lr[3]
        assert point_to_complex(RootRef(3)) == lr[3]

    def test_proj_curve_rhs(self):
        proj = Proj((2, 7, 11))
        lr = roots_of_f()
        for label in (2, 7, 11):
            assert abs(proj.curve_rhs(lr[label])) < 1e-9

    def test_proj_degree(self):
        assert Proj((1, 2, 3)).degree == 2

    def test_has_curve_and_polynomial_part(self):
        e = parse_map_expr(FULL)
        assert e.has_curve
        assert len(e.polynomial_part()) == 3
        plain = parse_map_expr("b(1,1).f")
        assert not plain.has_curve
        assert plain.proj is None
