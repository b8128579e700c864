"""Complex polynomials, a simultaneous root finder, and mod-p degree patterns.

Coefficients are stored ascending, so ``coeffs[k]`` multiplies ``x**k``.
The root finder is an Aberth-style simultaneous iteration started on a
circle of radius ``1 + max|c_i / c_lead|`` (the Cauchy bound), rotated by
the fixed angle ANGULAR_OFFSET so that no starting point sits on a
coordinate axis or aligns with a symmetric root configuration.
``shifted_roots`` solves poly - v for many values v in one iteration over
a (K, n) array of approximations, each row leaving it at the iteration
where it would stop alone, so its roots equal those of ``roots`` bit for
bit; ``roots`` is its one-row case.  The iteration is the module's only
use of numpy, which it imports when it runs.

The mod-p half of the module computes the multiset of irreducible factor
degrees of a monic integer polynomial over GF(p) where its reduction is
squarefree, the only primes where the degrees are the cycle type of a
Frobenius element; elsewhere it gives no pattern.  Three of those degree
patterns certify that a Galois group on 12 points contains a 12-cycle, an
11-cycle and a transposition, and together with transitivity that forces
the full symmetric group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Sequence

import cmath

ANGULAR_OFFSET = 0.4  # radians; fixed rotation of the starting circle

ITERATION_TOL = 1e-12
RESIDUAL_TOL = 1e-10
CLUSTER_TOL = 1e-8
MAX_ITERATIONS = 1000


class RootFindingError(RuntimeError):
    """Base class for numerical root-finding failures."""


class NonConvergedError(RootFindingError):
    pass


class ClusteredRootsError(RootFindingError):
    pass


class EvidenceIncompleteError(RuntimeError):
    """Witness scan exhausted its prime budget; carries the missing classes."""

    def __init__(self, missing: Sequence[str], max_prime: int):
        self.missing = tuple(missing)
        self.max_prime = max_prime
        super().__init__(f"no witness below {max_prime} for: {', '.join(missing)}")


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial with ascending complex coefficients and nonzero lead."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("zero polynomial")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deflate(self, root: complex) -> "ComplexPoly":
        """Synthetic division by (x - root); the remainder is discarded."""
        out = [0j] * self.degree
        acc = 0j
        for k in range(self.degree, 0, -1):
            acc = acc * root + self.coeffs[k]
            out[k - 1] = acc
        return ComplexPoly(tuple(out))


def roots(poly: ComplexPoly) -> tuple[complex, ...]:
    """All complex roots, sorted by (re, im), from the start circle rotated
    by ANGULAR_OFFSET.

    Raises NonConvergedError if a residual stays above
    ``RESIDUAL_TOL * max(1, max|c|)``, and ClusteredRootsError if two
    approximations end up closer than 1e-8 or the iteration stalls with
    every residual within tolerance, as it does at a multiple root, where
    rounding keeps the approximations jittering (multiple roots are out of
    scope for the simultaneous iteration).
    """
    return _aberth(poly, (poly.coeffs[0],))[0]


def shifted_roots(poly: ComplexPoly, values: Sequence[complex]) -> list[tuple[complex, ...]]:
    """The roots of poly - v for each v in ``values``, each as ``roots``
    gives them, bit for bit, from one simultaneous iteration over all rows.

    Raises what ``roots`` raises on the first row, in the order of
    ``values``, on which it would raise.
    """
    c0 = poly.coeffs[0]
    heads = tuple(c0 - complex(v) for v in values)
    return _aberth(poly, heads)


def _aberth(poly: ComplexPoly, heads: Sequence[complex]) -> list[tuple[complex, ...]]:
    """The roots of each polynomial that is ``poly`` with its constant
    coefficient replaced by one of ``heads``, from the start circle rotated
    by ANGULAR_OFFSET, read when the iteration starts.

    The rows are iterated as one (K, n) array, and a row leaves it at the
    iteration where it would stop alone: its arithmetic is elementwise or
    along its own row, so each row computes what a one-row call computes.
    The monic coefficients are divided in Python complex arithmetic and
    their moduli taken by numpy's scalar abs, as a one-row call does: numpy
    arrays round both differently.

    Horner's rule starts from the lead term and adds only the nonzero
    coefficients, the constant column last.  At a finite iterate, dense
    Horner, from zero and adding every coefficient, gives the same bits
    but for the signs of zeros: an added zero can only change the sign of
    a zero, and the sign of a zero never changes a nonzero sum, product or
    quotient, nor whether a value is finite.  At a non-finite iterate both
    are non-finite, and its correction w is 0 either way.  The iterates
    have no -0 part (the start circle has none, and z - w gives -0 only
    from -0), so z - w, and with it every root, is the same bit for bit.
    """
    import numpy as np

    n = poly.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    lead = poly.coeffs[-1]
    if n == 1 or not heads:
        return [(-h / lead,) for h in heads]

    tail = [c / lead for c in poly.coeffs[1:]]
    monic = np.array([[h / lead] + tail for h in heads], dtype=complex)
    radius = np.array([1.0 + max(abs(c) for c in row[:-1]) for row in monic])
    z = radius[:, None] * np.exp(1j * (2 * np.pi * np.arange(n) / n + ANGULAR_OFFSET))

    diagonal = np.arange(n)
    active = np.arange(len(heads))
    converged = np.zeros(len(heads), dtype=bool)
    # Far iterates overflow Horner and the residual to inf or nan, and a
    # subnormal lead overflows the monic coefficients; the residual,
    # convergence and separation checks below decide on them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        deriv = (np.arange(1, n + 1) * monic[0, 1:]).tolist()
        for _ in range(MAX_ITERATIONS):
            za = z[active]
            # the (K, n, n) array first: a degree too large for it fails fast
            diff = za[:, :, None] - za[:, None, :]
            diff[:, diagonal, diagonal] = np.inf
            repulse = (1.0 / diff).sum(axis=2)
            pv = np.empty_like(za)
            pv.fill(tail[-1])
            for c in reversed(tail[:-1]):
                pv *= za
                if c:
                    pv += c
            pv *= za
            pv += monic[active, :1]
            dv = np.empty_like(za)
            dv.fill(deriv[-1])
            for c in reversed(deriv[:-1]):
                dv *= za
                if c:
                    dv += c
            newton = np.where(dv != 0, pv / dv, 0.25 + 0.25j)
            w = newton / (1.0 - newton * repulse)
            w = np.where(np.isfinite(w), w, 0.0)
            za = za - w
            z[active] = za
            done = (np.abs(w) <= ITERATION_TOL * np.maximum(1.0, np.abs(za))).all(axis=1)
            converged[active[done]] = True
            active = active[~done]
            if not active.size:
                break

        # Horner on poly - v, skipping zero coefficients: an added zero could
        # only flip the sign of a zero, so this is dense Horner bit for bit
        acc = np.full(z.shape, lead, dtype=complex)
        for c in reversed(poly.coeffs[1:-1]):
            acc *= z
            if c:
                acc += c
        acc *= z
        acc += np.array(heads, dtype=complex)[:, None]
        residuals = np.abs(acc / lead)
        scale = [max(1.0, max(abs(c) for c in row)) for row in monic]
        diff = np.abs(z[:, :, None] - z[:, None, :])
        diff[:, diagonal, diagonal] = np.inf
        separation = diff.min(axis=(1, 2))
    out = []
    for k, row in enumerate(z):
        if not np.all(residuals[k] <= RESIDUAL_TOL * scale[k]):  # NaN fails too
            if not converged[k]:
                raise NonConvergedError(f"no convergence in {MAX_ITERATIONS} iterations")
            raise NonConvergedError(f"residual {residuals[k].max():.3e} above tolerance")
        if not converged[k]:
            raise ClusteredRootsError(
                f"iteration stalled at a root cluster, separation {separation[k]:.3e}")
        if separation[k] < CLUSTER_TOL:
            raise ClusteredRootsError(f"root separation {separation[k]:.3e}")
        out.append(tuple(sorted((complex(v) for v in row), key=lambda v: (v.real, v.imag))))
    return out


# ---------------------------------------------------------------------------
# the degree-12 polynomial behind the curve family


def f_polynomial() -> ComplexPoly:
    """x^12 - (12/11) x^11 + 1, the polynomial named ``f`` in map expressions."""
    return ComplexPoly((1.0,) + (0.0,) * 10 + (-12.0 / 11.0, 1.0))


def scaled_integer_model() -> tuple[int, ...]:
    """Ascending coefficients of x^12 - 12 x^11 + 11^12, the monic model
    whose roots are 11 times the roots of ``f_polynomial()``."""
    return (11**12,) + (0,) * 10 + (-12, 1)


@dataclass(frozen=True)
class LabeledRoot:
    label: int
    value: complex
    residual: float

    @property
    def argument(self) -> float:
        """Argument in [0, 2*pi)."""
        a = cmath.phase(self.value)
        return a + 2 * cmath.pi if a < 0 else a


@dataclass(frozen=True)
class LabeledRoots:
    """The 12 roots of ``f``, labeled 1..12 in order of ascending argument."""

    roots: tuple[LabeledRoot, ...]

    def __post_init__(self) -> None:
        if len(self.roots) != 12:
            raise ValueError("expected exactly 12 roots")
        if [r.label for r in self.roots] != list(range(1, 13)):
            raise ValueError("labels must be 1..12 in order")
        args = [r.argument for r in self.roots]
        if any(b <= a for a, b in zip(args, args[1:])):
            raise ValueError("arguments must be strictly increasing")
        if any(r.residual >= RESIDUAL_TOL for r in self.roots):
            raise ValueError("residual above tolerance")
        values = [r.value for r in self.roots]
        sep = min(
            abs(u - v) for i, u in enumerate(values) for v in values[i + 1:]
        )
        if sep <= 1e-6:
            raise ValueError(f"pairwise separation {sep:.3e} too small")

    def __getitem__(self, label: int) -> complex:
        """Root value by 1-based label."""
        if not 1 <= label <= 12:
            raise KeyError(f"root labels run 1..12, got {label}")
        return self.roots[label - 1].value

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(r.value for r in self.roots)

    def to_json_list(self) -> list[dict]:
        return [
            {"label": r.label, "re": r.value.real, "im": r.value.imag,
             "residual": r.residual}
            for r in self.roots
        ]


@cache
def roots_of_f() -> LabeledRoots:
    """Labeled roots of ``f``; label 1 has the least argument.  Solved once
    per process and cached."""
    poly = f_polynomial()
    values = sorted(roots(poly), key=lambda v: cmath.phase(v) % (2 * cmath.pi))
    return LabeledRoots(tuple(
        LabeledRoot(label=i, value=v, residual=abs(poly(v)))
        for i, v in enumerate(values, 1)
    ))


# ---------------------------------------------------------------------------
# factor degree patterns over GF(p)


@dataclass(frozen=True)
class DegreePattern:
    """Irreducible-factor degrees of a monic polynomial whose reduction mod
    p is squarefree: the cycle type of a Frobenius element at p."""

    prime: int
    degrees: tuple[int, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def _gfp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _gfp_trim(out)


def _gfp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b over GF(p), by long division."""
    a = _gfp_trim([c % p for c in a])
    b = _gfp_trim([c % p for c in b])
    inv = pow(b[-1], p - 2, p)
    quot = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = a[-1] * inv % p
        shift = len(a) - len(b)
        quot[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        _gfp_trim(a)
    return _gfp_trim(quot), a


def _gfp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _gfp_trim([c % p for c in a])
    b = _gfp_trim([c % p for c in b])
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _gfp_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    acc = [1]
    base = _gfp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            acc = _gfp_divmod(_gfp_mul(acc, base, p), mod, p)[1]
        base = _gfp_divmod(_gfp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return acc


def factor_degrees_mod_p(coeffs: Sequence[int], p: int) -> DegreePattern | None:
    """Distinct-degree factorization pattern of a monic integer polynomial,
    or None when its reduction mod p is not squarefree, where distinct-degree
    factorization is not defined.

    ``coeffs`` ascend and the leading coefficient must be 1.  The returned
    degrees are sorted ascending and sum to the degree.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    F = _gfp_trim([c % p for c in coeffs])
    n = len(F) - 1
    deriv = _gfp_trim([(k * c) % p for k, c in enumerate(F)][1:])
    g = _gfp_gcd(F, deriv, p) if deriv else F
    if len(g) != 1:
        return None

    degrees: list[int] = []
    work = F
    h = [0, 1]  # x
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            degrees.append(len(work) - 1)
            break
        h = _gfp_pow_mod(h, p, work, p)
        probe = h + [0] * (2 - len(h))  # h - x
        probe[1] = (probe[1] - 1) % p
        shared = _gfp_gcd(probe, work, p)
        if len(shared) > 1:
            degrees.extend([d] * ((len(shared) - 1) // d))
            work = _gfp_divmod(work, shared, p)[0]
            h = _gfp_divmod(h, work, p)[1] if len(work) > 1 else [0]
    if sum(degrees) != n:
        raise AssertionError("degree pattern does not sum to the degree")
    return DegreePattern(prime=p, degrees=tuple(sorted(degrees)))


@dataclass(frozen=True)
class EvidenceCertificate:
    """Three degree patterns that jointly force the full symmetric group S12.

    A transitive group on 12 points containing an 11-cycle is 2-transitive,
    and a 2-transitive group containing a transposition is the symmetric
    group; pattern {12} supplies transitivity, pattern {1, 11} the 11-cycle,
    and a pattern with exactly one even part equal to 2 supplies an odd
    power that is a transposition.
    """

    witness_transitive: DegreePattern
    witness_11cycle: DegreePattern
    witness_transposition: DegreePattern
    primes_scanned: int

    def to_json_dict(self) -> dict:
        """Each witness as its prime and pattern, in field order."""
        witnesses = {
            name: {"prime": w.prime, "pattern": list(w.degrees)}
            for name, w in vars(self).items() if isinstance(w, DegreePattern)
        }
        return {**witnesses, "primes_scanned": self.primes_scanned}


# Each witness class to the test of a degree pattern, in the field order of
# EvidenceCertificate.
_WITNESS_CLASSES = {
    "transitive": lambda degrees: degrees == (12,),
    "11cycle": lambda degrees: degrees == (1, 11),
    "transposition": lambda degrees: [d for d in degrees if d % 2 == 0] == [2],
}


def s12_evidence(max_prime: int = 2000) -> EvidenceCertificate:
    """Scan primes ascending for the three S12 witnesses of the monic model.

    Stops at the first prime completing the certificate, so the primes are
    tested one by one as the scan reaches them, however large ``max_prime``
    is.  Raises ValueError for a negative ``max_prime``, and
    EvidenceIncompleteError listing the witness classes still missing when
    the scan passes ``max_prime``.
    """
    if max_prime < 0:
        raise ValueError(f"max_prime must be nonnegative, got {max_prime}")
    coeffs = scaled_integer_model()
    found: dict[str, DegreePattern] = {}
    scanned = 0
    for p in filter(_is_prime, range(2, max_prime + 1)):
        scanned += 1
        pattern = factor_degrees_mod_p(coeffs, p)
        if pattern is None:
            continue
        for name, witnesses in _WITNESS_CLASSES.items():
            if name not in found and witnesses(pattern.degrees):
                found[name] = pattern
        if len(found) == len(_WITNESS_CLASSES):
            return EvidenceCertificate(*(found[name] for name in _WITNESS_CLASSES), scanned)
    raise EvidenceIncompleteError([name for name in _WITNESS_CLASSES if name not in found], max_prime)
