import hashlib
import importlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import cli
from dessins.dessin import Constellation, canonical_hash, isomorphic
from dessins.galois import (
    BadWordError,
    PlanarDessin,
    SubgroupSpec,
    Triple,
    a5_orbit_partition,
    act,
    all_triples,
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
from dessins.maps import parse_map_expr
from dessins.monodromy import fiber, monodromy
from dessins.perms import compose, cycle_decomposition, format_cycles, group_order, identity, inverse, power
from dessins.polynomials import roots_of_f

MONODROMY = importlib.import_module("dessins.monodromy")

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
        assert SubgroupSpec(("",)).label() == "1"
        assert SubgroupSpec(("a", "")).label() == "a,1"


def discriminant(t: Triple) -> complex:
    """Of y^2 = (x - r_i)(x - r_j)(x - r_k), from the labeled roots."""
    lr = roots_of_f()
    ri, rj, rk = (lr[v] for v in t.as_tuple())
    return ((ri - rj) * (ri - rk) * (rj - rk)) ** 2


class TestCurves:
    def test_discriminant_271(self):
        # frozen from a 40-digit evaluation on the labeled roots
        disc = discriminant(Triple(2, 7, 11))
        assert disc == pytest.approx(
            -16.602771697569236897 - 9.4765077430620074003j, abs=1e-9
        )
        assert abs(disc) > 1e-8

    def test_every_triple_is_nonsingular(self):
        for t in all_triples():
            assert abs(discriminant(t)) > 1e-8

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
def d0():
    return planar_dessin()


@pytest.fixture(scope="module")
def tracked_d0(cfg):
    """D0 tracked, with each ten-valent vertex labelled by the root of f
    nearest the mean x of its darts, the fiber points over 1/2 around it:
    a labelling that does not rely on the order of the roots.  Returns
    the constellation and, per root label m, that vertex's darts."""
    e = parse_map_expr("b(1,1).b(10,1).f")
    pair = monodromy(e, cfg)
    x = fiber(e, cfg).x
    roots = np.array(roots_of_f().values)
    vertices = {}
    for cycle in cycle_decomposition(pair.g0):
        if len(cycle) == 10:
            mean = x[np.array(cycle) - 1].mean()
            vertices[int(np.argmin(np.abs(roots - mean))) + 1] = frozenset(cycle)
    assert sorted(vertices) == list(range(1, 13))
    return Constellation(*pair), vertices


def labels_agree(exact: PlanarDessin, tracked_d0) -> bool:
    """Whether an isomorphism takes the exact D0 onto the tracked one and
    each root_darts[m - 1] into the tracked vertex labelled m."""
    tracked, vertices = tracked_d0
    found, witness = isomorphic(Constellation(exact.g0, exact.g1), tracked)
    return found and all(
        witness(dart) in vertices[m] for m, dart in enumerate(exact.root_darts, 1))


def mirrored(d0: PlanarDessin) -> PlanarDessin:
    """Every rotation reversed: the mirror image of D0."""
    return PlanarDessin(inverse(d0.g0), inverse(d0.g1), d0.root_darts)


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

    def test_exact_is_the_tracked_d0(self, d0, tracked_d0):
        assert labels_agree(d0, tracked_d0)

    def test_mirror_is_refused(self, d0, tracked_d0):
        # f is real, so the mirror is D0 again, but with root m at 13 - m
        mirror = mirrored(d0)
        assert isomorphic(Constellation(mirror.g0, mirror.g1), tracked_d0[0])[0]
        assert not labels_agree(mirror, tracked_d0)
        for orbit in a5_orbit_partition():
            t = min(orbit, key=Triple.as_tuple)
            assert canonical_hash(mirror.cover(t)) != canonical_hash(d0.cover(t))

    @pytest.mark.parametrize("orbit", range(5))
    def test_cover_is_the_tracked_dessin(self, cfg, d0, orbit):
        # one triple from each A5 orbit
        t = min(a5_orbit_partition()[orbit], key=Triple.as_tuple)
        cover = d0.cover(t)
        tracked = Constellation(*monodromy(full_chain(t), cfg))
        assert isomorphic(cover, tracked)[0]
        assert canonical_hash(cover) == canonical_hash(tracked)

    def test_dessin_does_no_continuation(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dessin continued a path")

        monkeypatch.setattr(MONODROMY, "_continue", refuse)
        assert cli.main(["dessin", "--triple", "2,7,11"]) == 0
        assert json.loads(capsys.readouterr().out)["canonical_hash"] == (
            "f38a8e85fbc94c7e1b957bc326844b03173010dc870d429e97e0a3fe5c3def89"
        )

    def test_orbit_report_unchanged(self):
        # sha256 of the report as the per-triple tracked dessins gave it
        report = orbit_dessins(SPEC_A, Triple(2, 7, 11))
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "13fd6fbbdb51b22dd2578ab775ee3afd057fb1a92e145774d9c8a12e20600c9c"
        )
