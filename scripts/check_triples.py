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
canonical_hash of the tracked pair must equal the one ``dessin`` prints,
and where it does not, the run fails, with ``--write`` too.

    PYTHONPATH=src python3 scripts/check_triples.py            # check
    PYTHONPATH=src python3 scripts/check_triples.py --write    # rebuild

``--write`` replaces the table with the output of the current code; use it
only when the output is meant to change, and record why.  The check and
the rewrite are ``committed_table.run``'s.
"""

import json
import sys
from pathlib import Path

from committed_table import cli_stdout, run, sha256
from dessins.dessin import canonical_hash
from dessins.galois import all_triples, full_chain
from dessins.maps import format_map_expr
from dessins.monodromy import monodromy
from dessins.perms import format_cycles

TABLE = Path(__file__).with_name("check_triples.json")


def survey():
    """(key, entry, problem) for every triple, in table order: the four
    hashes, and a problem where the canonical_hash of the tracked pair
    differs from the one ``dessin`` prints."""
    for t in all_triples():
        key = ",".join(str(v) for v in t.as_tuple())
        e = full_chain(t)
        pair = monodromy(e)
        dessin_stdout = cli_stdout(["dessin", "--triple", key])
        entry = {
            "g0": sha256(format_cycles(pair.g0)),
            "g1": sha256(format_cycles(pair.g1)),
            "dessin_stdout": sha256(dessin_stdout),
            "render_svg": sha256(cli_stdout(["render", "--map", format_map_expr(e), "--out", "-"])),
        }
        exact = canonical_hash(pair) == json.loads(dessin_stdout)["canonical_hash"]
        yield key, entry, None if exact else "canonical_hash of the tracked pair and of dessin differ"


if __name__ == "__main__":
    sys.exit(run(TABLE, survey))
