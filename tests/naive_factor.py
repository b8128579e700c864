"""Independent mod-p degree-pattern oracle, deliberately naive.

Schoolbook polynomial arithmetic over GF(p) on plain lists and a
triangular count: N_d = deg gcd(x^(p^d) - x, F) counts roots in GF(p^d),
so the number m_d of degree-d irreducible factors satisfies
d * m_d = N_d - sum over proper divisors e of d of e * m_e.
Nothing here is shared with the package implementation; agreement between
the two is what the tests check.
"""

from __future__ import annotations


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def pmod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and trim(a):
        coef = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        trim(a)
    return a


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = trim(a[:]), trim(b[:])
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def pderiv(a: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def xpow_pk(k: int, mod: list[int], p: int) -> list[int]:
    """x^(p^k) reduced mod the given polynomial."""
    result = [0, 1]
    result = pmod(result, mod, p)
    for _ in range(k):
        acc = [1]
        base = result[:]
        e = p
        while e:
            if e & 1:
                acc = pmod(pmul(acc, base, p), mod, p)
            base = pmod(pmul(base, base, p), mod, p)
            e >>= 1
        result = acc
    return result


def is_squarefree(coeffs: list[int], p: int) -> bool:
    return len(pgcd(coeffs, pderiv(coeffs, p), p)) == 1


def naive_degree_pattern(coeffs: list[int], p: int) -> tuple[int, ...] | None:
    """Ascending degrees of the irreducible factors mod p, or None when the
    reduction is not squarefree."""
    work = trim([c % p for c in coeffs])
    if not is_squarefree(work, p):
        return None
    n = len(work) - 1
    counts: dict[int, int] = {}
    for d in range(1, n + 1):
        frob = xpow_pk(d, work, p)
        minus_x = frob[:]
        while len(minus_x) < 2:
            minus_x.append(0)
        minus_x[1] = (minus_x[1] - 1) % p
        g = pgcd(work, trim(minus_x), p)
        n_d = len(g) - 1
        lower = sum(e * counts.get(e, 0) for e in range(1, d) if d % e == 0)
        assert (n_d - lower) % d == 0
        m_d = (n_d - lower) // d
        if m_d:
            counts[d] = m_d
        if sum(e * m for e, m in counts.items()) == n:
            break
    degrees = []
    for d in sorted(counts):
        degrees.extend([d] * counts[d])
    return tuple(degrees)


def count_gfp_roots(coeffs: list[int], p: int) -> int:
    """Exhaustive root count over GF(p); cross-checks the linear factors."""
    f = trim([c % p for c in coeffs])
    return sum(
        1 for x in range(p)
        if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0
    )
