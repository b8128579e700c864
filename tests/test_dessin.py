import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dessins.dessin import (
    Constellation,
    NotConnectedError,
    _component_canonical,
    _pair_swap_commutes,
    _sheet_swap_commutes,
    canonical_hash,
    canonical_key,
    dessin_json,
    doubled,
    g_infinity,
    genus,
    invariants,
    isomorphic,
    passport,
)
from dessins.perms import (
    Permutation,
    compose,
    cycle_type,
    identity,
    inverse,
    parse_cycles,
    power,
)

from dessins.galois import Triple, a5_orbit_partition, planar_dessin

from naive_canonical import naive_component_canonical

PSI_G0 = parse_cycles("(1,2,3,4,5,6,7,8,9,10)(11,21)", 22)
PSI_G1 = parse_cycles(
    "(1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)(21,22)", 22
)


@pytest.fixture(scope="module")
def d0():
    return planar_dessin()


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


class TestBasics:
    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Constellation(identity(3), identity(4))

    def test_b11_dessin(self):
        c = Constellation(identity(2), parse_cycles("(1,2)", 2))
        assert genus(c) == 0
        assert invariants(c).bouquets == (1, 1)
        assert passport(c).faces.parts == (2,)

    def test_genus_needs_connected(self):
        disconnected = Constellation(
            parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)
        )
        assert not disconnected.transitive
        with pytest.raises(NotConnectedError):
            genus(disconnected)

    def test_bouquet_needs_clean(self):
        c = Constellation(parse_cycles("(1,2,3)", 3), parse_cycles("(1,2,3)", 3))
        assert invariants(c).bouquets is None


@pytest.fixture(scope="module")
def published():
    return Constellation(PSI_G0, PSI_G1)


class TestPublishedDegree22:
    def test_genus_zero(self, published):
        assert genus(published) == 0

    def test_clean_with_bouquets(self, published):
        assert invariants(published).bouquets == (10, 2) + (1,) * 10

    def test_passport(self, published):
        p = passport(published)
        assert p.black.parts == (10, 2) + (1,) * 10
        assert p.white.parts == (2,) * 11
        assert p.faces.parts == (22,)

    def test_invariants_bundle(self, published):
        inv = invariants(published)
        assert inv.genus == 0
        assert inv.black_count == 12
        assert inv.white_count == 11
        assert inv.face_count == 1
        assert inv.bouquets == (10, 2) + (1,) * 10

    def test_euler_relation(self, published):
        inv = invariants(published)
        chi = inv.black_count + inv.white_count + inv.face_count - 22
        assert chi == 2 - 2 * inv.genus


class TestCanonical:
    def test_hash_is_hex64(self):
        c = Constellation(PSI_G0, PSI_G1)
        h = canonical_hash(c)
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")

    def test_invariant_under_conjugation(self):
        c = Constellation(PSI_G0, PSI_G1)
        base = canonical_hash(c)
        rng = random.Random(7)
        for _ in range(25):
            h = random_permutation(rng, 22)
            conj = Constellation(
                compose(compose(inverse(h), c.g0), h),
                compose(compose(inverse(h), c.g1), h),
            )
            assert canonical_hash(conj) == base
            assert canonical_key(conj) == canonical_key(c)

    def test_distinguishes_different_dessins(self):
        c1 = Constellation(parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)(3,4)", 4))
        c2 = Constellation(parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4))
        assert canonical_hash(c1) != canonical_hash(c2)


class TestCanonicalPinned:
    """canonical_hash values measured before roots were abandoned early."""

    def test_published_psi_pair(self):
        c = Constellation(PSI_G0, PSI_G1)
        assert canonical_hash(c) == (
            "b852cd233acec361457932f0c5c97624f769cf29f18815b5c035354222467160"
        )


def _agree_with_all_roots(g0: list[int], g1: list[int]) -> None:
    """The pruned search returns the key and BFS order of the all-roots one
    on a connected pair, and both raise NotConnectedError on any other."""
    if Constellation(Permutation(tuple(g0)), Permutation(tuple(g1))).transitive:
        assert _component_canonical(g0, g1) == naive_component_canonical(g0, g1)
        return
    for search in (_component_canonical, naive_component_canonical):
        with pytest.raises(NotConnectedError):
            search(g0, g1)


class TestPrunedAgainstAllRoots:
    """The pruned search returns the key and BFS order of the all-roots one."""

    @staticmethod
    def _agree(c: Constellation) -> None:
        _agree_with_all_roots(list(c.g0.images), list(c.g1.images))

    def test_random_pairs(self):
        rng = random.Random(20240)
        for _ in range(400):
            n = rng.randint(1, 8)
            self._agree(Constellation(random_permutation(rng, n), random_permutation(rng, n)))

    def test_cyclic_pairs_where_every_root_ties(self):
        for n in range(1, 31):
            c = Permutation(tuple(list(range(2, n + 1)) + [1]))
            for k in range(n):
                self._agree(Constellation(c, power(c, k)))

    def test_full_chain(self, full_pair):
        self._agree(Constellation(full_pair.g0, full_pair.g1))

    @pytest.mark.parametrize("t", [(1, 2, 3), (1, 2, 4), (1, 2, 8), (1, 2, 9), (1, 7, 9)])
    def test_covers_where_two_roots_tie(self, d0, t):
        # one base per A5 orbit; the sheet swap is an automorphism of each
        # cover, so two roots tie to the end
        self._agree(d0.cover(Triple(*t)))

    def test_disconnected_pair_raises(self):
        c = Constellation(parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4))
        g0, g1 = list(c.g0.images), list(c.g1.images)
        with pytest.raises(NotConnectedError):
            _component_canonical(g0, g1)
        with pytest.raises(NotConnectedError):
            naive_component_canonical(g0, g1)
        with pytest.raises(NotConnectedError):
            canonical_key(c)


def _double_cover(rng: random.Random, m: int, switched: int) -> tuple[list[int], list[int]]:
    """A random pair of degree m doubled with labels d + m*s, s = 0, 1, as
    galois.PlanarDessin.cover labels its cover: (d, s) -> (g d, s), except
    at ``switched`` darts, each of g0 or g1, where (d, s) -> (g d, s + 1)."""
    g0, g1 = (list(random_permutation(rng, m).images) for _ in range(2))
    g0, g1 = [*g0, *(v + m for v in g0)], [*g1, *(v + m for v in g1)]
    for _ in range(switched):
        g = rng.choice((g0, g1))
        d = rng.randrange(m)
        g[d], g[d + m] = g[d + m], g[d]
    return g0, g1


def _winner(g0: list[int], g1: list[int]) -> int:
    """The root whose BFS order the all-roots search returns."""
    return naive_component_canonical(g0, g1)[1][0]


class TestSheetPairsAgainstAllRoots:
    """The search over one root per sheet pair and over g0-fixed roots
    returns the key and BFS order of the all-roots one, and the controls
    where neither cut applies have winners that a cut search would miss."""

    _agree = staticmethod(_agree_with_all_roots)

    def test_random_double_covers(self):
        rng = random.Random(3131)
        seen = Counter()
        for _ in range(1500):
            m = rng.randint(1, 10)
            g0, g1 = _double_cover(rng, m, rng.randint(0, 3))
            assert _sheet_swap_commutes(g0, m) and _sheet_swap_commutes(g1, m)
            self._agree(g0, g1)
            if Constellation(Permutation(tuple(g0)), Permutation(tuple(g1))).transitive:
                seen["connected"] += 1
                seen["g0 fixes a point" if any(v == p for p, v in enumerate(g0, 1)) else "no fixed point"] += 1
        assert seen["connected"] > 300 and seen["g0 fixes a point"] > 100 and seen["no fixed point"] > 100

    @pytest.mark.parametrize("broken", [0, 1])
    def test_swap_commutes_with_one_generator_only(self, broken):
        # a cover with one of g0, g1 replaced by a random permutation: the
        # sheet swap is no automorphism, and some winners lie past n/2
        rng = random.Random(3132 + broken)
        late = 0
        for _ in range(400):
            m = rng.randint(2, 10)
            pair = list(_double_cover(rng, m, rng.randint(1, 3)))
            pair[broken] = list(random_permutation(rng, 2 * m).images)
            g0, g1 = pair
            c = Constellation(Permutation(tuple(g0)), Permutation(tuple(g1)))
            if not c.transitive or _sheet_swap_commutes(pair[broken], m):
                continue
            assert _sheet_swap_commutes(pair[1 - broken], m)
            self._agree(g0, g1)
            late += _winner(g0, g1) > m
        assert late > 20

    def test_least_root_in_the_second_half(self):
        # random connected pairs of even degree with the winner swapped to
        # the last point; where no other root ties, it still wins there
        rng = random.Random(3133)
        late = 0
        for _ in range(300):
            n = 2 * rng.randint(1, 8)
            c = Constellation(random_permutation(rng, n), random_permutation(rng, n))
            if not c.transitive:
                continue
            points = list(range(1, n + 1))
            r = _winner(list(c.g0.images), list(c.g1.images))
            swap = [n if x == r else r if x == n else x for x in points]
            g0, g1 = ([swap[g.images[swap[x - 1] - 1] - 1] for x in points] for g in (c.g0, c.g1))
            self._agree(g0, g1)
            late += _winner(g0, g1) > n // 2
        assert late > 150

    def test_odd_degree(self):
        rng = random.Random(3134)
        late = 0
        for _ in range(400):
            n = 2 * rng.randint(1, 8) + 1
            g0, g1 = (list(random_permutation(rng, n).images) for _ in range(2))
            self._agree(g0, g1)
            c = Constellation(Permutation(tuple(g0)), Permutation(tuple(g1)))
            if c.transitive:
                late += _winner(g0, g1) > n // 2
        assert late > 20

    def test_g0_without_fixed_points(self):
        # g0 one n-cycle, conjugated at random
        rng = random.Random(3135)
        for _ in range(600):
            n = rng.randint(2, 16)
            h = random_permutation(rng, n)
            g0 = compose(compose(inverse(h), Permutation(tuple([*range(2, n + 1), 1]))), h)
            self._agree(list(g0.images), list(random_permutation(rng, n).images))

    @pytest.mark.parametrize("n", [6, 7, 12, 528])
    def test_cyclic_pairs_pin_the_tie_break_and_witness(self, n):
        # every root ties: the first root wins, and a pair is isomorphic to
        # itself by the identity
        c = Permutation(tuple(list(range(2, n + 1)) + [1]))
        for k in (0, 1, 5):
            pair = Constellation(c, power(c, k))
            g0, g1 = list(pair.g0.images), list(pair.g1.images)
            got = _component_canonical(g0, g1)
            if n < 100:
                assert got == naive_component_canonical(g0, g1)
            assert got[1][0] == 1
            assert isomorphic(pair, pair) == (True, identity(n))

    def test_witness_equals_the_all_roots_one(self, d0):
        rng = random.Random(3136)
        c = d0.cover(Triple(2, 7, 11))
        other = _relabeled(c, random_permutation(rng, c.degree))
        assert isomorphic(c, other) == (True, _all_roots_witness(c, other))


def _relabeled(c: Constellation, h: Permutation) -> Constellation:
    """c with its points relabeled by h, the pair h^-1 g h."""
    return Constellation(compose(compose(inverse(h), c.g0), h),
                         compose(compose(inverse(h), c.g1), h))


def _all_roots_witness(c: Constellation, other: Constellation) -> Permutation:
    """The isomorphism that sends each point of c to the point of other
    with the same label in the all-roots canonical relabeling."""
    _, order = naive_component_canonical(list(c.g0.images), list(c.g1.images))
    _, other_order = naive_component_canonical(list(other.g0.images), list(other.g1.images))
    image = dict(zip(order, other_order))
    return Permutation(tuple(image[x] for x in range(1, c.degree + 1)))


def _tracked_pair(rng: random.Random, m: int, switched: int) -> tuple[list[int], list[int]]:
    """A random pair of degree m doubled with labels 2d - 1 + s, s = 0, 1,
    as monodromy.Fiber labels the sheets of a curve fiber: (d, s) ->
    (g d, s), except at ``switched`` darts, each of g0 or g1, where (d, s)
    -> (g d, s + 1)."""
    g0, g1 = (list(random_permutation(rng, m).images) for _ in range(2))
    g0, g1 = ([2 * v - 1 + s for v in g for s in (0, 1)] for g in (g0, g1))
    for _ in range(switched):
        g = rng.choice((g0, g1))
        d = 2 * rng.randrange(m)
        g[d], g[d + 1] = g[d + 1], g[d]
    return g0, g1


class TestAdjacentSheetsAgainstAllRoots:
    """The search over the odd roots of pairs that commute with 2i + 1 <->
    2i + 2 returns the key and BFS order of the all-roots one, and the
    controls where the swap commutes with one generator only have winners
    at even roots, which that search would miss."""

    _agree = staticmethod(TestSheetPairsAgainstAllRoots._agree)

    def test_random_tracked_pairs(self):
        rng = random.Random(3231)
        connected = 0
        for _ in range(1500):
            m = rng.randint(1, 10)
            g0, g1 = _tracked_pair(rng, m, rng.randint(0, 3))
            assert _pair_swap_commutes(g0) and _pair_swap_commutes(g1)
            self._agree(g0, g1)
            connected += Constellation(Permutation(tuple(g0)), Permutation(tuple(g1))).transitive
        assert connected > 300

    def test_full_chain_commutes_with_the_adjacent_swap(self, full_pair):
        g0, g1 = list(full_pair.g0.images), list(full_pair.g1.images)
        assert _pair_swap_commutes(g0) and _pair_swap_commutes(g1)
        assert not (_sheet_swap_commutes(g0, 264) and _sheet_swap_commutes(g1, 264))

    @pytest.mark.parametrize("broken", [0, 1])
    def test_swap_commutes_with_one_generator_only(self, broken):
        rng = random.Random(3232 + broken)
        even = 0
        for _ in range(400):
            m = rng.randint(2, 10)
            pair = list(_tracked_pair(rng, m, rng.randint(1, 3)))
            pair[broken] = list(random_permutation(rng, 2 * m).images)
            g0, g1 = pair
            c = Constellation(Permutation(tuple(g0)), Permutation(tuple(g1)))
            if not c.transitive or _pair_swap_commutes(pair[broken]):
                continue
            assert _pair_swap_commutes(pair[1 - broken])
            self._agree(g0, g1)
            even += _winner(g0, g1) % 2 == 0
        assert even > 20

    def test_odd_degree(self):
        # a tracked pair with one more point, fixed by g0 and swapped into
        # the last pair by g1: no swap of labels commutes, and every root
        # is searched
        rng = random.Random(3234)
        for _ in range(300):
            m = rng.randint(1, 8)
            g0, g1 = _tracked_pair(rng, m, rng.randint(0, 3))
            n = 2 * m + 1
            g0.append(n)
            g1.append(n)
            g1[n - 1], g1[n - 2] = g1[n - 2], g1[n - 1]
            self._agree(g0, g1)

    @pytest.mark.parametrize("m", [1, 3, 6, 264])
    def test_cyclic_pairs_where_every_root_ties(self, m):
        # g0 steps each sheet on by one pair and g1 swaps the sheets: the
        # group is abelian and transitive, so every root ties and root 1 wins
        n = 2 * m
        g0 = [(p + 2) % n + 1 for p in range(n)]
        g1 = [p + 2 if p % 2 == 0 else p for p in range(n)]
        assert _pair_swap_commutes(g0) and _pair_swap_commutes(g1)
        got = _component_canonical(g0, g1)
        if m < 100:
            assert got == naive_component_canonical(g0, g1)
        assert got[1][0] == 1


class TestCanonicalMemory:
    def test_cyclic_pair_of_degree_528(self):
        # every root ties, and the search holds one relabeling at a time
        c = Permutation(tuple(list(range(2, 529)) + [1]))
        pair = Constellation(c, power(c, 5))
        tracemalloc.start()
        try:
            canonical_key(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestIsomorphism:
    def test_self_isomorphic_with_identity_witness(self):
        c = Constellation(PSI_G0, PSI_G1)
        ok, witness = isomorphic(c, c)
        assert ok
        assert witness is not None

    def test_witness_law(self):
        c = Constellation(PSI_G0, PSI_G1)
        rng = random.Random(12)
        h = random_permutation(rng, 22)
        other = Constellation(
            compose(compose(inverse(h), c.g0), h),
            compose(compose(inverse(h), c.g1), h),
        )
        ok, witness = isomorphic(c, other)
        assert ok
        for x in range(1, 23):
            assert witness(c.g0(x)) == other.g0(witness(x))
            assert witness(c.g1(x)) == other.g1(witness(x))

    def test_non_isomorphic_pair(self):
        c1 = Constellation(parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3))
        c2 = Constellation(parse_cycles("(1,2,3)", 3), parse_cycles("(1,3)", 3))
        # same passports can still be isomorphic; build a real mismatch
        d1 = Constellation(parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4))
        d2 = Constellation(parse_cycles("(1,2)(3,4)", 4), parse_cycles("(2,3)", 4))
        ok, witness = isomorphic(d1, d2)
        assert not ok
        assert witness is None
        # and passports differing is detected quickly
        assert cycle_type(c1.g0) == cycle_type(c2.g0)
        assert isomorphic(c1, c2)[0]

    def test_relabeled_covers_of_d0(self, d0):
        # 40 relabeled covers, 8 from each A5 orbit: each is isomorphic to
        # its cover by a witness that obeys the law, the all-roots one on
        # the first of each orbit, and no cover of another orbit is
        rng = random.Random(3137)
        covers = [[d0.cover(t) for t in sorted(orb, key=Triple.as_tuple)[:8]]
                  for orb in a5_orbit_partition()]
        for k, orbit_covers in enumerate(covers):
            stranger = covers[k - 1][0]
            for i, c in enumerate(orbit_covers):
                other = _relabeled(c, random_permutation(rng, c.degree))
                ok, witness = isomorphic(c, other)
                assert ok
                for x in range(1, c.degree + 1):
                    assert witness(c.g0(x)) == other.g0(witness(x))
                    assert witness(c.g1(x)) == other.g1(witness(x))
                if i == 0:
                    assert witness == _all_roots_witness(c, other)
                assert isomorphic(stranger, other) == (False, None)

    def test_psi_witness_equals_the_all_roots_one(self, published):
        rng = random.Random(3138)
        for _ in range(20):
            other = _relabeled(published, random_permutation(rng, 22))
            assert isomorphic(published, other) == (True, _all_roots_witness(published, other))

    def test_disconnected_pair_raises(self, published):
        # a dessin is connected: a disconnected pair is refused, on either
        # side, unless the degrees differ
        disconnected = Constellation(parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4))
        connected = Constellation(parse_cycles("(1,2,3,4)", 4), identity(4))
        for pair in ((disconnected, disconnected), (disconnected, connected),
                     (connected, disconnected)):
            with pytest.raises(NotConnectedError):
                isomorphic(*pair)
        assert isomorphic(disconnected, published) == (False, None)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_conjugates_always_isomorphic(self, seed):
        rng = random.Random(seed)
        g0 = random_permutation(rng, 8)
        g1 = random_permutation(rng, 8)
        c = Constellation(g0, g1)
        assume(c.transitive)
        h = random_permutation(rng, 8)
        other = Constellation(
            compose(compose(inverse(h), g0), h),
            compose(compose(inverse(h), g1), h),
        )
        assert isomorphic(c, other)[0]


@st.composite
def _connected_constellations(draw):
    """A connected constellation of degree 1..12 from two drawn images."""
    n = draw(st.integers(min_value=1, max_value=12))
    g0, g1 = (Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for _ in range(2))
    c = Constellation(g0, g1)
    assume(c.transitive)
    return c


class TestDoubled:
    """dessin.doubled puts a white vertex on each edge of a dessin."""

    @settings(max_examples=300, deadline=None)
    @given(_connected_constellations(), st.randoms(use_true_random=False))
    def test_white_vertex_on_each_edge(self, c, rng):
        n = c.degree
        d = doubled(c, range(1, n + 1), range(n + 1, 2 * n + 1))
        before, after = passport(c), passport(d)
        assert after.black.parts == tuple(sorted(before.black.parts + before.white.parts, reverse=True))
        assert after.white.parts == (2,) * n
        assert after.faces.parts == tuple(2 * k for k in before.faces.parts)
        assert genus(d) == genus(c)
        assert invariants(d).bouquets == after.black.parts
        labels = list(range(1, 2 * n + 1))
        rng.shuffle(labels)
        assert isomorphic(doubled(c, labels[:n], labels[n:]), d)[0]

    def test_published_psi_is_doubled_b101(self):
        # the tree of b(10,1): ten edges at 0, one of them on through the
        # white vertex at 10/11 to 1; b(1,1) after it is the published psi
        tree = Constellation(parse_cycles("(1,2,3,4,5,6,7,8,9,10)", 11), parse_cycles("(10,11)", 11))
        assert isomorphic(doubled(tree, range(1, 12), range(12, 23)), Constellation(PSI_G0, PSI_G1))[0]


class TestJson:
    def test_keys_and_values(self):
        c = Constellation(PSI_G0, PSI_G1)
        data = dessin_json(c)
        assert set(data) == {
            "degree", "genus", "passport", "clean", "bouquets", "canonical_hash",
        }
        assert data["degree"] == 22
        assert data["genus"] == 0
        assert data["clean"] is True
        assert data["bouquets"] == [[10, 1], [2, 1], [1, 10]]
        assert data["passport"]["white"] == [2] * 11

    def test_non_clean_has_null_bouquets(self):
        c = Constellation(parse_cycles("(1,2,3)", 3), parse_cycles("(1,2,3)", 3))
        data = dessin_json(c)
        assert data["bouquets"] is None

    def test_equals_the_separate_invariants(self):
        rng = random.Random(515)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(1, 12)
            white = random_permutation(rng, n)
            if rng.random() < 0.5 and n % 2 == 0:
                # a fixed-point-free involution: a clean constellation
                points = list(range(1, n + 1))
                rng.shuffle(points)
                white = parse_cycles("".join(f"({x},{y})" for x, y in zip(points[::2], points[1::2])), n)
            c = Constellation(random_permutation(rng, n), white)
            if not c.transitive:
                with pytest.raises(NotConnectedError):
                    dessin_json(c)
                seen["disconnected"] += 1
                continue
            clean = set(cycle_type(c.g1).parts) == {2}
            bouquets = None
            if clean:
                profile = cycle_type(c.g0).parts
                bouquets = [[k, profile.count(k)] for k in sorted(set(profile), reverse=True)]
            assert dessin_json(c) == {
                "degree": n,
                "genus": genus(c),
                "passport": passport(c).to_json_dict(),
                "clean": clean,
                "bouquets": bouquets,
                "canonical_hash": canonical_hash(c),
            }
            seen["clean" if clean else "not clean"] += 1
        assert seen["clean"] and seen["not clean"] and seen["disconnected"]

    def test_ginf_closes_triple(self):
        c = Constellation(PSI_G0, PSI_G1)
        assert compose(compose(c.g0, c.g1), g_infinity(c)) == identity(22)
