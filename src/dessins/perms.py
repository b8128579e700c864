"""Permutations on points 1..n, with cycle notation and small-group utilities.

A permutation of degree n is stored as a tuple ``images`` where
``images[i-1]`` is the image of the point ``i``.  Point labels are 1-based
everywhere.  ``compose(p, q)`` multiplies left to right: the result applies
``p`` first and then ``q``, so products of loop permutations can be read in
the same order as the loops are traversed.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence


class GroupOrderOverflow(RuntimeError):
    """Raised when a generated group exceeds the enumeration cap."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}.

    >>> p = Permutation((2, 1, 3))
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} outside 1..{len(self.images)}")
        return self.images[point - 1]

    def __str__(self) -> str:
        return format_cycles(self)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored as a descending tuple.

    >>> CycleType.of(Permutation((2, 3, 1, 4))).parts
    (3, 1)
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be sorted descending")
        if any(part < 1 for part in self.parts):
            raise ValueError("parts must be positive")

    @classmethod
    def of(cls, p: Permutation) -> "CycleType":
        return cls(tuple(sorted(_cycle_lengths(p.images), reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        seen: dict[int, int] = {}
        for part in self.parts:
            seen[part] = seen.get(part, 0) + 1
        return "[" + ", ".join(
            f"{k}^{v}" if v > 1 else f"{k}" for k, v in sorted(seen.items(), reverse=True)
        ) + "]"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product "p then q": point i goes to q(p(i)).

    >>> compose(parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)).images
    (1, 3, 2)
    """
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(q.images[i - 1] for i in p.images))


def inverse(p: Permutation) -> Permutation:
    """
    >>> format_cycles(inverse(parse_cycles("(1,2,3,4,5)", 5)))
    '(1,5,4,3,2)'
    """
    out = [0] * p.degree
    for i, image in enumerate(p.images, 1):
        out[image - 1] = i
    return Permutation(tuple(out))


def power(p: Permutation, k: int) -> Permutation:
    if k < 0:
        return power(inverse(p), -k)
    result = identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def cycle_decomposition(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """All cycles, fixed points included, each starting at its least point.

    >>> cycle_decomposition(Permutation((2, 1, 3)))
    ((1, 2), (3,))
    """
    images = p.images
    seen = [False] * len(images)
    cycles = []
    for start in range(1, len(images) + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        point = images[start - 1]
        while point != start:
            cycle.append(point)
            seen[point - 1] = True
            point = images[point - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def _cycle_lengths(images: tuple[int, ...]) -> list[int]:
    """Cycle lengths in the order of the cycles' least points."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = images[point] - 1
            length += 1
        lengths.append(length)
    return lengths


def cycle_type(p: Permutation) -> CycleType:
    return CycleType.of(p)


def orbit(generators: Sequence[Permutation], point: int) -> frozenset[int]:
    """Orbit of a point under the group generated by ``generators``."""
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("degree mismatch among generators")
    if not 1 <= point <= degree:
        raise ValueError(f"point {point} outside 1..{degree}")
    tables = [g.images for g in generators]
    seen = [False] * (degree + 1)
    seen[point] = True
    queue = [point]
    # queue grows while it is walked
    for x in queue:
        for images in tables:
            y = images[x - 1]
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return frozenset(queue)


def is_transitive(generators: Sequence[Permutation]) -> bool:
    return len(orbit(generators, 1)) == generators[0].degree


def group_order(generators: Sequence[Permutation], cap: int = 10000) -> int:
    """Order of the generated group, by breadth-first closure.

    Raises GroupOrderOverflow as soon as more than ``cap`` elements appear.

    >>> group_order([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)], 10)
    6
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("degree mismatch among generators")
    start = identity(degree).images
    seen = {start}
    queue = deque([start])
    while queue:
        images = queue.popleft()
        for g in generators:
            product = tuple(g.images[i - 1] for i in images)
            if product not in seen:
                seen.add(product)
                if len(seen) > cap:
                    raise GroupOrderOverflow(f"more than {cap} elements")
                queue.append(product)
    return len(seen)


# Cycle notation as format_cycles writes it, "(1,2)(3)" with no
# whitespace; parse_cycles reads it once whitespace is stripped.
CYCLES_PATTERN = r"^(\(\d+(,\d+)*\))+$"


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like "(1,2,3)(4,5)"; whitespace is ignored.

    Fixed points may be omitted when ``degree`` is given; otherwise the
    degree is the largest point mentioned.

    >>> parse_cycles("(1, 2, 3) (4, 5)").images
    (2, 3, 1, 5, 4)
    """
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise ValueError("empty cycle text")
    if not re.match(CYCLES_PATTERN, stripped):
        raise ValueError(f"malformed cycle text: {text!r}")
    cycles = [
        [int(s) for s in body.split(",")]
        for body in re.findall(r"\(([^()]*)\)", stripped)
    ]
    points = [x for c in cycles for x in c]
    if len(set(points)) != len(points):
        raise ValueError(f"repeated point in cycle text: {text!r}")
    if any(x < 1 for x in points):
        raise ValueError("points must be positive")
    n = degree if degree is not None else max(points)
    if max(points) > n:
        raise ValueError(f"point {max(points)} exceeds degree {n}")
    return from_cycles(cycles, n)


def from_cycles(cycles: Iterable[Sequence[int]], degree: int) -> Permutation:
    """The permutation of ``degree`` points with the disjoint ``cycles``,
    lists or tuples; points in no cycle are fixed.

    >>> from_cycles([[1, 2, 3], (4, 5)], 6).images
    (2, 3, 1, 5, 4, 6)
    """
    out = list(range(1, degree + 1))
    for cycle in cycles:
        for x, image in zip(cycle, cycle[1:] + cycle[:1]):
            out[x - 1] = image
    return Permutation(tuple(out))


def format_cycles(p: Permutation) -> str:
    """Canonical cycle text, fixed points written as singletons.

    >>> format_cycles(identity(2))
    '(1)(2)'
    """
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycle_decomposition(p))
