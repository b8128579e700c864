"""Composite covering-map expressions over the three-point base.

An expression is a chain of primitives written outermost first, e.g.
``b(1,1).b(10,1).f.pi(2,7,11)`` denotes the composition

    x  |->  b11( b101( f( pi(x) ) ) ).

Primitives:

    b(m,n)     the degree m+n polynomial ((m+n)^(m+n)/(m^m n^n)) x^m (1-x)^n,
               sending 0 and 1 to 0, m/(m+n) to 1 and infinity to infinity
    f          x^12 - (12/11) x^11 + 1, degree 12
    pi(i,j,k)  projection (x, y) -> x from the curve y^2 = (x-ri)(x-rj)(x-rk)
               built on roots i, j, k of f, degree 2

The grammar is ASCII and read from one table, ``_PRIMITIVES``.  ``pi`` may
only appear as the innermost element and at most once; ``f`` may appear at
most once and no ``b`` may sit inside it.  Each primitive's ramification is
one table (Ramification), which branch values and render's vertices both
read.  The finite branch values are propagated forward exactly (rational
arithmetic plus symbolic root references) wherever the chain allows it;
every chain also branches over infinity, which no list names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

from .polynomials import ComplexPoly, f_polynomial, roots_of_f
from .tracking import NotBelyiError

class MapExprError(ValueError):
    """Base class for expression construction and parse failures."""


class MapSyntaxError(MapExprError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class EmptyChainError(MapExprError):
    pass


class BadTripleError(MapExprError):
    pass


class MisplacedPrimitiveError(MapExprError):
    pass


@dataclass(frozen=True)
class RootRef:
    """Symbolic reference to root label i of ``f``; exact until evaluated."""

    label: int

    def __post_init__(self) -> None:
        if not 1 <= self.label <= 12:
            raise ValueError(f"root label {self.label} outside 1..12")

    def value(self) -> complex:
        return roots_of_f()[self.label]

    def __repr__(self) -> str:
        return f"r{self.label}"


BranchPoint = Union[Fraction, RootRef, complex]


def _power(u, k: int):
    """u^k for an integer k >= 1 by repeated squaring: on complex arrays a
    few products cost less than numpy's complex power."""
    out = None
    while True:
        if k & 1:
            out = u if out is None else out * u
        k >>= 1
        if not k:
            return out
        u = u * u


@dataclass(frozen=True)
class BelyiMN:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise MapExprError(f"b({self.m},{self.n}) needs positive exponents")

    @property
    def degree(self) -> int:
        return self.m + self.n

    @property
    def lead_constant(self) -> Fraction:
        m, n = self.m, self.n
        return Fraction((m + n) ** (m + n), m**m * n**n)

    @cached_property
    def _lead(self) -> float:
        """lead_constant as a float: integer true division is correctly
        rounded, as float(Fraction) is, without reducing the fraction."""
        m, n = self.m, self.n
        return (m + n) ** (m + n) / (m**m * n**n)

    def value_and_slope(self, u):
        """b(u) and b'(u) in product form: with core = K u^(m-1) (1-u)^(n-1),
        b = core u (1-u) and b' = core (m - (m+n) u)."""
        m, n = self.m, self.n
        w = 1 - u
        core = self._lead
        if m > 1:
            core = core * _power(u, m - 1)
        if n > 1:
            core = core * _power(w, n - 1)
        return core * u * w, core * (m - (m + n) * u)

    def ramification(self) -> Ramification:
        """0 is taken at 0 and 1 with orders m and n, and 1 doubly at the
        critical point m/(m+n); see Ramification."""
        m, n = self.m, self.n
        return {
            Fraction(0): ((Fraction(0), m), (Fraction(1), n)),
            Fraction(1): ((Fraction(m, m + n), 2),),
        }

    def text(self) -> str:
        return f"b({self.m},{self.n})"


@dataclass(frozen=True)
class FPoly:
    degree = 12

    def value_and_slope(self, u):
        """f(u) = u^10 u (u - 12/11) + 1 and f'(u) = 12 u^10 (u - 1)."""
        u10 = _power(u, 10)
        return u10 * u * (u - 12 / 11) + 1, 12 * u10 * (u - 1)

    def ramification(self) -> Ramification:
        """f' = 12 x^10 (x - 1): 1 is taken at 0 with order 11 and at 12/11,
        and 10/11 doubly at 1; 0 is taken at the twelve labeled roots, which
        render needs by label.  See Ramification."""
        return {
            Fraction(1): ((Fraction(0), 11), (Fraction(12, 11), 1)),
            Fraction(10, 11): ((Fraction(1), 2),),
            Fraction(0): tuple((RootRef(i), 1) for i in range(1, 13)),
        }

    def text(self) -> str:
        return "f"


def cubic(x, roots):
    """(x - ri)(x - rj)(x - rk) over the three ``roots``, elementwise."""
    ri, rj, rk = roots
    return (x - ri) * (x - rj) * (x - rk)


@dataclass(frozen=True)
class Proj:
    triple: tuple[int, int, int]

    def __post_init__(self) -> None:
        t = self.triple
        if len(t) != 3 or len(set(t)) != 3 or not all(1 <= i <= 12 for i in t):
            raise BadTripleError(f"pi{t} needs three distinct labels in 1..12")

    degree = 2

    def cubic_roots(self) -> tuple[complex, complex, complex]:
        return self._cubic_roots

    @cached_property
    def _cubic_roots(self) -> tuple[complex, complex, complex]:
        """Read off roots_of_f() once per projection, as fiber and render
        evaluate c point by point."""
        labeled = roots_of_f()
        return tuple(labeled[i] for i in self.triple)

    def curve_rhs(self, x):
        """c(x), the cubic on the roots of the triple, elementwise."""
        return cubic(x, self.cubic_roots())

    def ramification(self) -> Ramification:
        """Each root r of the cubic is taken doubly, at (r, 0); see
        Ramification."""
        return {RootRef(i): ((RootRef(i), 2),) for i in self.triple}

    def text(self) -> str:
        return f"pi({self.triple[0]},{self.triple[1]},{self.triple[2]})"


Primitive = Union[BelyiMN, FPoly, Proj]

# A primitive's ramification table: each finite value it ramifies over, or
# whose preimages render needs by label, to the exact preimages with their
# orders.  Any further preimages of such a value are simple.  Every
# primitive also ramifies over infinity, which no table lists.
Ramification = dict[BranchPoint, tuple[tuple[BranchPoint, int], ...]]


def critical_values(prim: Primitive) -> list[BranchPoint]:
    """The finite values ``prim`` ramifies over: the values of its table
    with a preimage of order above 1, in table order."""
    return [v for v, points in prim.ramification().items() if any(k > 1 for _, k in points)]


@dataclass(frozen=True)
class MapExpr:
    """A validated chain of primitives, outermost first."""

    chain: tuple[Primitive, ...]

    def __post_init__(self) -> None:
        if not self.chain:
            raise EmptyChainError("chain must contain at least one primitive")
        seen_f = False
        for index, prim in enumerate(self.chain):
            if isinstance(prim, Proj) and index != len(self.chain) - 1:
                raise MisplacedPrimitiveError("pi may only appear innermost")
            if isinstance(prim, FPoly):
                if seen_f:
                    raise MisplacedPrimitiveError("f may appear at most once")
                seen_f = True
            if isinstance(prim, BelyiMN) and seen_f:
                raise MisplacedPrimitiveError("b(m,n) may not appear inside f")
        if sum(isinstance(p, Proj) for p in self.chain) > 1:
            raise MisplacedPrimitiveError("pi may appear at most once")

    @property
    def has_curve(self) -> bool:
        return isinstance(self.chain[-1], Proj)

    @property
    def proj(self) -> Proj | None:
        return self.chain[-1] if self.has_curve else None

    def polynomial_part(self) -> tuple[Primitive, ...]:
        """The chain without a trailing projection, still outermost first."""
        return self.chain[:-1] if self.has_curve else self.chain

    def inner(self) -> "MapExpr | None":
        """The chain below the outermost primitive, or None for length 1."""
        if len(self.chain) == 1:
            return None
        return MapExpr(self.chain[1:])

    def __str__(self) -> str:
        return format_map_expr(self)


def degree(e: MapExpr) -> int:
    d = 1
    for prim in e.chain:
        d *= prim.degree
    return d


def format_map_expr(e: MapExpr) -> str:
    return ".".join(prim.text() for prim in e.chain)


# ---------------------------------------------------------------------------
# parsing


# The grammar: each primitive's name to its constructor and its count of
# integer arguments.
_PRIMITIVES = {
    "b": (BelyiMN, 2),
    "f": (FPoly, 0),
    "pi": (lambda i, j, k: Proj((i, j, k)), 3),
}

# An ASCII token: an integer, a name or a mark.  Whitespace, any that
# str.isspace accepts, is skipped; any other character is refused.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<space>\s+)|[(),.]|(?P<bad>.)")


def parse_map_expr(text: str) -> MapExpr:
    """Parse chain grammar ``prim ('.' prim)*`` over the primitives of
    ``_PRIMITIVES``; whitespace is ignored."""
    tokens = []  # (kind, value, position); a mark is its own kind
    for match in _TOKEN.finditer(text):
        kind, value, at = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise MapSyntaxError(f"unexpected character {value!r}", at)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise MapSyntaxError(f"integer of {len(value)} digits is too long", at) from None
        if kind != "space":
            tokens.append((kind or value, value, at))
    if not tokens:
        raise EmptyChainError("empty expression")
    tokens.append(("end", None, len(text)))
    pos = 0

    def take(kind):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise MapSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    chain = []
    while True:
        _, name, at = take("name")
        if name not in _PRIMITIVES:
            raise MapSyntaxError(f"unknown primitive {name!r}", at)
        build, arity = _PRIMITIVES[name]
        args = []
        for k in range(arity):
            take("," if k else "(")
            args.append(take("int")[1])
        if arity:
            take(")")
        chain.append(build(*args))
        if tokens[pos][0] != ".":
            break
        pos += 1
    kind, value, at = tokens[pos]
    if kind != "end":
        raise MapSyntaxError(f"trailing input {value!r}", at)
    return MapExpr(tuple(chain))


# ---------------------------------------------------------------------------
# evaluation


def as_poly(prim: Primitive) -> ComplexPoly:
    """Coefficient form of a polynomial primitive (not defined for pi)."""
    if isinstance(prim, FPoly):
        return f_polynomial()
    if isinstance(prim, BelyiMN):
        c, n = prim._lead, prim.n
        return ComplexPoly((0.0,) * prim.m + tuple(c * (-1) ** k * math.comb(n, k) for k in range(n + 1)))
    raise TypeError("pi has no single-variable coefficient form")


# ---------------------------------------------------------------------------
# branch values


def point_to_complex(v: BranchPoint) -> complex:
    if isinstance(v, RootRef):
        return v.value()
    return complex(v)


def _forward_image(prim: Primitive, v: BranchPoint) -> BranchPoint:
    if isinstance(prim, FPoly):
        return Fraction(0)  # only pi sits inside f: v is a root of f
    if isinstance(prim, BelyiMN):
        if isinstance(v, Fraction):
            return prim.lead_constant * v**prim.m * (1 - v) ** prim.n
        x = point_to_complex(v)
        return complex(prim.lead_constant) * x**prim.m * (1 - x) ** prim.n
    raise TypeError("pi is innermost and has no forward images to take")


def branch_values(e: MapExpr) -> tuple[BranchPoint, ...]:
    """The finite branch values of the composite, propagated innermost to
    outermost; every chain also branches over infinity, which is not listed.

    Every primitive contributes its critical values (critical_values), and
    all branch values of the inner part are pushed forward through the
    outer primitives.  Rational points and root references stay exact;
    only the images of pi's roots under b(m,n) are numeric.  Repeats are
    dropped by equality, keeping the first.
    """
    values: tuple[BranchPoint, ...] = ()
    for prim in reversed(e.chain):
        forwarded = [_forward_image(prim, v) for v in values]
        values = tuple(dict.fromkeys(critical_values(prim) + forwarded))
    return values


def is_belyi(e: MapExpr) -> bool:
    """True when every finite branch value equals 0 or 1 exactly: a value
    merely near them, such as b(1,11)(10/11) ~ 1e-10, is one more."""
    return all(v == 0 or v == 1 for v in branch_values(e))


def require_belyi(e: MapExpr) -> None:
    """Raises NotBelyiError unless is_belyi(e), before any tracking."""
    if not is_belyi(e):
        raise NotBelyiError(f"{format_map_expr(e)} is branched off {{0, 1, inf}}")
