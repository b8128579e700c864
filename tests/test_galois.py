import hashlib
import importlib
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.dessin import Constellation, canonical_hash, isomorphic
from dessins.galois import (
    BadWordError,
    SubgroupSpec,
    Triple,
    a5_orbit_partition,
    act,
    all_triples,
    curve_from_triple,
    full_chain,
    generators_a5,
    j_from_cubic_roots,
    j_invariant,
    orbit_dessins,
    orbit_triples,
    planar_dessin,
    verify_a5,
    word_permutation,
)
from dessins.monodromy import TrackingError, monodromy
from dessins.perms import compose, cycle_decomposition, format_cycles, group_order, identity, power
from dessins.polynomials import roots_of_f

GALOIS = importlib.import_module("dessins.galois")

# the three cyclic subgroups studied alongside the full group
SPEC_A = SubgroupSpec(("a",))
SPEC_B = SubgroupSpec(("b",))
SPEC_AB = SubgroupSpec(("ab",))

words = st.text(alphabet="abAB", max_size=8)


def triples(draw_from=None):
    pool = all_triples()
    return st.sampled_from(pool)


class TestGroup:
    def test_published_generators(self):
        a, b = generators_a5()
        assert format_cycles(a) == "(1)(2,3,4,5,6)(7,8,9,10,11)(12)"
        assert format_cycles(b) == "(1,2,3)(4,6,7)(5,11,8)(9,10,12)"

    def test_relations_and_order(self):
        report = verify_a5()
        assert report.relations_hold
        assert report.order == 60

    def test_relations_directly(self):
        a, b = generators_a5()
        e = identity(12)
        assert power(a, 5) == e
        assert power(b, 3) == e
        ab = compose(a, b)
        assert compose(ab, ab) == e

    def test_ab_published_char_for_char(self):
        a, b = generators_a5()
        assert format_cycles(compose(a, b)) == "(1,2)(3,6)(4,11)(5,7)(8,10)(9,12)"

    def test_generator_orders(self):
        a, b = generators_a5()
        assert group_order([a]) == 5
        assert group_order([b]) == 3
        assert group_order([compose(a, b)]) == 2


class TestWords:
    def test_empty_word_is_identity(self):
        assert word_permutation("") == identity(12)

    @pytest.mark.parametrize("w", ["aA", "Aa", "bB", "Bb", "abBA"])
    def test_cancelling_words(self, w):
        assert word_permutation(w) == identity(12)

    def test_bad_letter(self):
        with pytest.raises(BadWordError):
            word_permutation("ax")

    @given(words, words)
    @settings(max_examples=60, deadline=None)
    def test_concatenation_is_composition(self, w1, w2):
        assert word_permutation(w1 + w2) == compose(
            word_permutation(w1), word_permutation(w2)
        )


class TestTriples:
    def test_of_sorts(self):
        assert Triple.of((11, 2, 7)) == Triple(2, 7, 11)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Triple(2, 2, 7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Triple(0, 1, 2)
        with pytest.raises(ValueError):
            Triple(1, 2, 13)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Triple(7, 2, 11)

    def test_all_triples_complete_and_sorted(self):
        ts = all_triples()
        assert len(ts) == 220
        tuples = [t.as_tuple() for t in ts]
        assert tuples == sorted(tuples)
        assert tuples == list(itertools.combinations(range(1, 13), 3))


class TestAction:
    def test_published_image(self):
        assert act("a", Triple(2, 7, 11)) == Triple(3, 7, 8)

    @given(words, words, triples())
    @settings(max_examples=80, deadline=None)
    def test_right_action_law(self, w1, w2, t):
        assert act(w1 + w2, t) == act(w2, act(w1, t))

    def test_identity_word_fixes_everything(self):
        for t in all_triples():
            assert act("", t) == t


class TestOrbits:
    def test_orbit_under_a(self):
        orb = orbit_triples(SPEC_A, Triple(2, 7, 11))
        assert orb == frozenset({
            Triple(2, 7, 11), Triple(3, 7, 8), Triple(4, 8, 9),
            Triple(5, 9, 10), Triple(6, 10, 11),
        })

    def test_orbit_under_b(self):
        orb = orbit_triples(SPEC_B, Triple(2, 7, 11))
        assert orb == frozenset({
            Triple(1, 5, 6), Triple(2, 7, 11), Triple(3, 4, 8),
        })

    def test_orbit_under_ab(self):
        orb = orbit_triples(SPEC_AB, Triple(2, 7, 11))
        assert orb == frozenset({Triple(1, 4, 5), Triple(2, 7, 11)})

    @pytest.mark.parametrize("spec,order", [
        (SPEC_A, 5), (SPEC_B, 3), (SPEC_AB, 2), (SubgroupSpec(("a", "b")), 60),
    ])
    def test_orbit_sizes_divide_subgroup_order(self, spec, order):
        assert group_order(list(spec.permutations())) == order
        for base in [Triple(2, 7, 11), Triple(1, 2, 3), Triple(10, 11, 12)]:
            assert order % len(orbit_triples(spec, base)) == 0

    def test_full_partition(self):
        parts = a5_orbit_partition()
        sizes = sorted(len(p) for p in parts)
        assert sizes == [20, 20, 60, 60, 60]
        union: set[Triple] = set()
        for p in parts:
            assert not (union & p)
            union |= p
        assert union == set(all_triples())

    def test_subgroup_labels(self):
        assert SPEC_A.label() == "a"
        assert SubgroupSpec(("a", "b")).label() == "a,b"
        assert SubgroupSpec(()).label() == "1"


class TestCurves:
    def test_discriminant_dual_route(self):
        lr = roots_of_f()
        for t in [Triple(2, 7, 11), Triple(1, 2, 3), Triple(4, 9, 12)]:
            ri, rj, rk = (lr[v] for v in t.as_tuple())
            product_form = ((ri - rj) * (ri - rk) * (rj - rk)) ** 2
            assert curve_from_triple(t).discriminant == pytest.approx(
                product_form, abs=1e-10
            )

    def test_discriminant_271(self):
        # frozen from a 40-digit evaluation on the labeled roots
        disc = curve_from_triple(Triple(2, 7, 11)).discriminant
        assert disc == pytest.approx(
            -16.602771697569236897 - 9.4765077430620074003j, abs=1e-9
        )
        assert abs(disc) > 1e-8

    def test_every_triple_is_nonsingular(self):
        for t in all_triples():
            assert abs(curve_from_triple(t).discriminant) > 1e-8

    def test_curve_coefficients_expand_product(self):
        lr = roots_of_f()
        t = Triple(2, 7, 11)
        model = curve_from_triple(t)
        s0, s1, s2, s3 = model.coeffs
        assert s3 == 1
        for x in [0.3 + 0.1j, -1.2j, 2.0]:
            expanded = s0 + s1 * x + s2 * x * x + x**3
            product = (x - lr[2]) * (x - lr[7]) * (x - lr[11])
            assert expanded == pytest.approx(product, abs=1e-10)

    def test_j_synthetic_lemniscatic(self):
        assert j_from_cubic_roots(0, 1, -1) == pytest.approx(1728.0)

    def test_j_271(self):
        # frozen from a 40-digit evaluation on the labeled roots
        assert j_invariant(Triple(2, 7, 11)) == pytest.approx(
            -45.85244058624623501795819 - 66.92308565481831239455003j, abs=1e-9
        )

    def test_j_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            j_from_cubic_roots(0, 0, 0)

    def test_j_constant_on_isomorphic_scalings(self):
        # rescaling roots by u^2 leaves j unchanged
        r = (0.5 + 0.2j, -1.1, 2.3 - 0.7j)
        u2 = 1.7 - 0.4j
        scaled = tuple(u2 * v for v in r)
        assert j_from_cubic_roots(*r) == pytest.approx(
            j_from_cubic_roots(*scaled), rel=1e-9
        )


class TestFullChain:
    def test_text(self):
        assert str(full_chain(Triple(2, 7, 11))) == "b(1,1).b(10,1).f.pi(2,7,11)"

    def test_has_curve(self):
        assert full_chain(Triple(1, 2, 3)).has_curve


@pytest.fixture(scope="module")
def d0(cfg):
    return planar_dessin(cfg)


class TestPlanarDessin:
    """D0 = b(1,1).b(10,1).f and its double covers, with the tracked full
    chain as the oracle."""

    def test_one_face_of_264(self, d0):
        assert d0.g0.degree == 264
        assert len(cycle_decomposition(compose(d0.g0, d0.g1))) == 1

    def test_labels_are_a_bijection(self, d0):
        tens = {c for c in cycle_decomposition(d0.g0) if len(c) == 10}
        assert len(tens) == 12
        labelled = [next(c for c in tens if dart in c) for dart in d0.root_darts]
        assert set(labelled) == tens

    @pytest.mark.parametrize("orbit", range(5))
    def test_cover_is_the_tracked_dessin(self, cfg, d0, orbit):
        # one triple from each A5 orbit
        t = min(a5_orbit_partition()[orbit], key=Triple.as_tuple)
        cover = d0.cover(t)
        tracked = Constellation(*monodromy(full_chain(t), cfg))
        assert isomorphic(cover, tracked)[0]
        assert canonical_hash(cover) == canonical_hash(tracked)

    def test_tied_roots_refused(self, cfg, monkeypatch):
        # root 2 moved onto root 1: the vertex at root 1 has two nearest roots
        values = list(roots_of_f().values)
        values[1] = values[0]
        monkeypatch.setattr(GALOIS, "roots_of_f", lambda: SimpleNamespace(values=tuple(values)))
        with pytest.raises(TrackingError, match="separation_factor"):
            planar_dessin(cfg)

    def test_orbit_report_unchanged(self, cfg):
        # sha256 of the report as the per-triple tracked dessins gave it
        report = orbit_dessins(SPEC_A, Triple(2, 7, 11), cfg)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "13fd6fbbdb51b22dd2578ab775ee3afd057fb1a92e145774d9c8a12e20600c9c"
        )
