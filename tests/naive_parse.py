"""The chain parser as it was before the grammar moved to one table, kept
verbatim as an oracle: on printable ASCII, ``maps.parse_map_expr`` must
return the same ``MapExpr`` or raise the same exception class with the same
message and position.  This one tokenizes with ``str.isdigit`` and
``str.isalpha``, so off ASCII it reads what the package refuses.
"""

from __future__ import annotations

from dessins.maps import (
    BelyiMN,
    EmptyChainError,
    FPoly,
    MapExpr,
    MapSyntaxError,
    Primitive,
    Proj,
)


def parse_map_expr(text: str) -> MapExpr:
    """Parse chain grammar ``prim ('.' prim)*``; whitespace is ignored."""
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "(),.":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise MapSyntaxError(f"unexpected character {ch!r}", i)
    if not tokens:
        raise EmptyChainError("empty expression")

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None, len(text))

    def take(kind):
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise MapSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def parse_prim() -> Primitive:
        tok = take("name")
        if tok[1] == "b":
            take("(")
            m = take("int")[1]
            take(",")
            n = take("int")[1]
            take(")")
            return BelyiMN(m, n)
        if tok[1] == "f":
            return FPoly()
        if tok[1] == "pi":
            take("(")
            i1 = take("int")[1]
            take(",")
            i2 = take("int")[1]
            take(",")
            i3 = take("int")[1]
            take(")")
            return Proj((i1, i2, i3))
        raise MapSyntaxError(f"unknown primitive {tok[1]!r}", tok[2])

    chain = [parse_prim()]
    while peek()[0] == ".":
        take(".")
        chain.append(parse_prim())
    if pos != len(tokens):
        tok = peek()
        raise MapSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return MapExpr(tuple(chain))
