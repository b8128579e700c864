import pytest
from hypothesis import given, strategies as st

from dessins.perms import (
    CycleType,
    GroupOrderOverflow,
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    format_cycles,
    group_order,
    identity,
    inverse,
    is_transitive,
    orbit,
    parse_cycles,
    power,
)


def perm_strategy(max_degree: int = 12, min_degree: int = 1):
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(
            lambda images: Permutation(tuple(images))
        )
    )


def same_degree_pairs(max_degree: int = 10):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)).map(lambda i: Permutation(tuple(i))),
            st.permutations(range(1, n + 1)).map(lambda i: Permutation(tuple(i))),
        )
    )


class TestPermutation:
    def test_identity_maps_points_to_themselves(self):
        e = identity(4)
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]

    def test_rejects_duplicate_images(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_rejects_out_of_range_images(self):
        with pytest.raises(ValueError):
            Permutation((0, 2, 3))
        with pytest.raises(ValueError):
            Permutation((1, 2, 4))

    def test_call_outside_domain(self):
        p = Permutation((2, 1))
        with pytest.raises(ValueError):
            p(3)

    def test_compose_applies_left_factor_first(self):
        # the composition convention everything else builds on
        p = parse_cycles("(1,2)", 3)
        q = parse_cycles("(2,3)", 3)
        r = compose(p, q)
        for x in (1, 2, 3):
            assert r(x) == q(p(x))
        assert format_cycles(r) == "(1,3,2)"

    @given(same_degree_pairs())
    def test_compose_pointwise(self, pq):
        p, q = pq
        r = compose(p, q)
        assert all(r(x) == q(p(x)) for x in range(1, p.degree + 1))

    @given(perm_strategy())
    def test_inverse_cancels(self, p):
        e = identity(p.degree)
        assert compose(p, inverse(p)) == e
        assert compose(inverse(p), p) == e

    @given(perm_strategy(max_degree=8), st.integers(-6, 6), st.integers(-6, 6))
    def test_power_adds_exponents(self, p, a, b):
        assert compose(power(p, a), power(p, b)) == power(p, a + b)

    @given(perm_strategy())
    def test_power_zero_and_one(self, p):
        assert power(p, 0) == identity(p.degree)
        assert power(p, 1) == p
        assert power(p, -1) == inverse(p)


class TestCycles:
    def test_decomposition_covers_all_points_once(self):
        p = parse_cycles("(1,4,2)(3,5)", 6)
        cycles = cycle_decomposition(p)
        flat = sorted(x for c in cycles for x in c)
        assert flat == [1, 2, 3, 4, 5, 6]

    def test_cycles_start_at_their_minimum(self):
        p = parse_cycles("(4,1,2)", 5)
        assert cycle_decomposition(p)[0][0] == 1

    @given(perm_strategy())
    def test_decomposition_reassembles(self, p):
        images = [0] * p.degree
        for cycle in cycle_decomposition(p):
            for i, x in enumerate(cycle):
                images[x - 1] = cycle[(i + 1) % len(cycle)]
        assert Permutation(tuple(images)) == p

    @given(perm_strategy())
    def test_cycle_type_sums_to_degree(self, p):
        assert cycle_type(p).degree == p.degree

    def test_cycle_type_counts_and_str(self):
        t = cycle_type(parse_cycles("(1,2)(3,4)(5,6,7)", 8))
        assert t.parts == (3, 2, 2, 1)
        assert t.parts.count(2) == 2
        assert str(t) == "[3, 2^2, 1]"

    def test_cycle_type_rejects_unsorted(self):
        with pytest.raises(ValueError):
            CycleType((1, 2))

    @given(perm_strategy())
    def test_conjugation_preserves_cycle_type(self, p):
        s = power(p, 3)  # any permutation commensurate with the degree
        conj = compose(compose(inverse(s), p), s)
        assert cycle_type(conj) == cycle_type(p)


class TestGroupHelpers:
    def test_orbit_of_generated_cycle(self):
        p = parse_cycles("(1,2,3)", 5)
        assert orbit([p], 1) == frozenset({1, 2, 3})
        assert orbit([p], 4) == frozenset({4})

    def test_is_transitive(self):
        assert is_transitive([parse_cycles("(1,2,3,4)", 4)])
        assert not is_transitive([parse_cycles("(1,2)", 4)])

    def test_group_order_s3(self):
        gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
        assert group_order(gens) == 6

    def test_group_order_cyclic(self):
        assert group_order([parse_cycles("(1,2,3,4,5)", 5)]) == 5

    def test_group_order_cap(self):
        gens = [parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)]
        with pytest.raises(GroupOrderOverflow):
            group_order(gens, cap=1000)


class TestParseFormat:
    def test_parse_simple(self):
        p = parse_cycles("(1,2,3)(4,5)", 5)
        assert p(1) == 2 and p(3) == 1 and p(4) == 5

    def test_parse_pads_to_degree(self):
        p = parse_cycles("(1,2)", 5)
        assert p.degree == 5 and p(5) == 5

    def test_parse_whitespace_insensitive(self):
        assert parse_cycles(" (1, 2) ( 3,4 ) ", 4) == parse_cycles("(1,2)(3,4)", 4)

    def test_format_includes_fixed_points(self):
        assert format_cycles(identity(2)) == "(1)(2)"
        assert format_cycles(parse_cycles("(2,3)", 4)) == "(1)(2,3)(4)"

    @given(perm_strategy())
    def test_round_trip(self, p):
        assert parse_cycles(format_cycles(p), p.degree) == p

    @pytest.mark.parametrize("bad", ["", "(1,2", "(0,1)", "(1,1)", "(1,2)(2,3)", "1,2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_cycles(bad, 4)

    def test_str_matches_format(self):
        p = parse_cycles("(1,2)", 3)
        assert str(p) == format_cycles(p)
