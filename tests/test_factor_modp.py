"""Degree patterns of x^12 - 12x^11 + 11^12 over GF(p).

Every pattern the package reports is re-derived here by the deliberately
naive oracle in naive_factor.py, plus an exhaustive GF(p) root count for
the linear factors.  The witness primes below were found by running the
oracle first and are frozen as expected values.
"""

import pytest

from naive_factor import count_gfp_roots, is_squarefree, naive_degree_pattern
from dessins.polynomials import (
    EvidenceIncompleteError,
    factor_degrees_mod_p,
    s12_evidence,
    scaled_integer_model,
)

F_COEFFS = list(scaled_integer_model())

SMALL_PATTERNS = {
    7: (1, 3, 8),
    13: (1, 5, 6),
    17: (1, 1, 3, 7),
    19: (12,),
    23: (4, 8),
    29: (5, 7),
    31: (1, 1, 10),
    41: (2, 3, 7),
    47: (1, 11),
}

# the primes where x^12 - 12x^11 + 11^12 has a repeated factor
NOT_SQUAREFREE = {2, 3, 5, 11}


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, p))]


def _pattern(p):
    """The package's pattern at p, which is None exactly at the primes where
    the reduction is not squarefree."""
    got = factor_degrees_mod_p(F_COEFFS, p)
    assert (got is None) == (p in NOT_SQUAREFREE)
    return got


class TestFactorDegrees:
    @pytest.mark.parametrize("p", _primes_below(140))
    def test_agrees_with_naive_oracle(self, p):
        got = _pattern(p)
        expected = naive_degree_pattern(F_COEFFS, p)
        if expected is None:
            assert got is None
        else:
            assert (got.prime, got.degrees) == (p, expected)

    @pytest.mark.parametrize("p", _primes_below(140))
    def test_linear_count_matches_exhaustive_scan(self, p):
        got = _pattern(p)
        if got is not None:
            assert got.degrees.count(1) == count_gfp_roots(F_COEFFS, p)

    @pytest.mark.parametrize("p,expected", sorted(SMALL_PATTERNS.items()))
    def test_frozen_patterns(self, p, expected):
        assert _pattern(p).degrees == expected

    def test_degrees_ascend(self):
        for p in _primes_below(100):
            if p not in NOT_SQUAREFREE:
                d = _pattern(p).degrees
                assert list(d) == sorted(d)

    @pytest.mark.parametrize("p", _primes_below(300))
    def test_squarefree_patterns_partition_twelve(self, p):
        got = _pattern(p)
        if got is not None:
            assert sum(got.degrees) == 12

    def test_p2_is_squared(self):
        # x^12 + 1 = (x^3 + 1)^4 over GF(2)
        assert factor_degrees_mod_p(F_COEFFS, 2) is None

    def test_p11_collapses(self):
        # the constant term vanishes mod 11: x^11 (x - 1)
        assert factor_degrees_mod_p(F_COEFFS, 11) is None

    def test_not_squarefree_below_2000(self):
        # the scan of s12_evidence skips these primes and no others
        primes = _primes_below(2000)
        assert [p for p in primes if not is_squarefree([c % p for c in F_COEFFS], p)] == sorted(NOT_SQUAREFREE)
        assert [p for p in primes if factor_degrees_mod_p(F_COEFFS, p) is None] == sorted(NOT_SQUAREFREE)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            factor_degrees_mod_p(F_COEFFS, 15)


class TestEvidence:
    def test_certificate_is_the_frozen_one(self):
        cert = s12_evidence(2000)
        assert cert.witness_transitive.prime == 19
        assert tuple(cert.witness_transitive.degrees) == (12,)
        assert cert.witness_11cycle.prime == 47
        assert tuple(cert.witness_11cycle.degrees) == (1, 11)
        assert cert.witness_transposition.prime == 41
        assert tuple(cert.witness_transposition.degrees) == (2, 3, 7)
        assert cert.primes_scanned == 15

    def test_witnesses_confirmed_by_oracle(self):
        cert = s12_evidence(2000)
        for witness in (
            cert.witness_transitive,
            cert.witness_11cycle,
            cert.witness_transposition,
        ):
            assert naive_degree_pattern(F_COEFFS, witness.prime) == witness.degrees

    def test_transposition_pattern_shape(self):
        # one part equal to 2, every other part odd: an odd power of the
        # Frobenius element is then a genuine transposition
        degrees = s12_evidence(2000).witness_transposition.degrees
        assert degrees.count(2) == 1
        assert all(d % 2 == 1 for d in degrees if d != 2)

    def test_incomplete_below_first_witness(self):
        with pytest.raises(EvidenceIncompleteError) as err:
            s12_evidence(max_prime=2)
        assert err.value.max_prime == 2
        assert len(err.value.missing) == 3

    def test_partial_scan_missing_names(self):
        # primes up to 20 give {12} at 19 but neither remaining witness
        with pytest.raises(EvidenceIncompleteError) as err:
            s12_evidence(max_prime=20)
        assert "transitive" not in err.value.missing
        assert "11cycle" in err.value.missing
        assert "transposition" in err.value.missing

    def test_negative_bound_names_max_prime(self):
        with pytest.raises(ValueError, match="max_prime"):
            s12_evidence(max_prime=-5)

    def test_huge_bound_stops_at_the_certificate(self):
        # the primes are tested as the scan reaches them: nothing is sized
        # by the bound, and the scan still stops at 47
        assert s12_evidence(max_prime=10**12) == s12_evidence()

    def test_json_shape(self):
        data = s12_evidence(2000).to_json_dict()
        assert set(data) == {
            "witness_transitive",
            "witness_11cycle",
            "witness_transposition",
            "primes_scanned",
        }
