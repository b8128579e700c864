#!/usr/bin/env python3
"""Exact check of every triple of b(1,1).b(10,1).f.pi(i,j,k) against a table.

For each of the 220 triples the committed table ``check_triples.json``
holds the sha256 of format_cycles(g0) and of format_cycles(g1) from
monodromy(full_chain(t)), the sha256 of the stdout of
``dessins dessin --triple i,j,k``, and the sha256 of the stdout of
``dessins render --map <full chain> --out -``.  The script recomputes all
four and exits 1 on any mismatch, so a change to the continuation or the
drawing that moves a single label or output byte on any triple is caught.  The pair is tracked
on the full chain, while ``dessin`` tracks nothing: it reads its dessin
off the double cover of the planar dessin of b(1,1).b(10,1).f, built
exactly from the plane tree of f.  The table was written when ``dessin``
tracked the full chain, so it holds the exact cover to that.  The script
also checks each tracked pair against the exact cover directly: the
canonical_hash of the tracked pair must equal the one ``dessin`` prints.

    PYTHONPATH=src python3 scripts/check_triples.py            # check
    PYTHONPATH=src python3 scripts/check_triples.py --write    # rebuild

``--write`` replaces the table with the output of the current code; use it
only when the output is meant to change, and record why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from dessins import cli
from dessins.dessin import canonical_hash
from dessins.galois import Triple, all_triples, full_chain
from dessins.maps import format_map_expr
from dessins.monodromy import monodromy
from dessins.perms import format_cycles

TABLE = Path(__file__).with_name("check_triples.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(t: Triple) -> str:
    return ",".join(str(v) for v in t.as_tuple())


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def row(t: Triple) -> tuple[dict, bool]:
    """The four hashes of one triple, and whether the canonical_hash of the
    tracked pair equals the one ``dessin`` prints."""
    e = full_chain(t)
    pair = monodromy(e)
    dessin_stdout = _stdout(["dessin", "--triple", _key(t)])
    hashes = {
        "g0": _sha256(format_cycles(pair.g0)),
        "g1": _sha256(format_cycles(pair.g1)),
        "dessin_stdout": _sha256(dessin_stdout),
        "render_svg": _sha256(_stdout(["render", "--map", format_map_expr(e), "--out", "-"])),
    }
    return hashes, canonical_hash(pair) == json.loads(dessin_stdout)["canonical_hash"]


def _write(table: dict) -> None:
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rebuild the table from the current code")
    args = parser.parse_args()
    expected = {} if args.write else json.loads(TABLE.read_text(encoding="utf-8"))

    start = time.perf_counter()
    got, mismatches = {}, 0
    for t in all_triples():
        key = _key(t)
        got[key], exact = row(t)
        if not exact:
            mismatches += 1
            print(f"MISMATCH {key}: canonical_hash of the tracked pair and of dessin differ")
        if not args.write and got[key] != expected.get(key):
            mismatches += 1
            print(f"MISMATCH {key}: {got[key]} != {expected.get(key)}")
    seconds = time.perf_counter() - start

    if args.write:
        _write(got)
        print(f"wrote {len(got)} triples to {TABLE.name} in {seconds:.1f} s")
        return 1 if mismatches else 0
    print(f"{len(got)} triples, {mismatches} mismatches, {seconds:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
