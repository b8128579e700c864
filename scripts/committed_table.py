"""Check a survey against a committed table, or rebuild the table from it.

``check_chains.py``, ``check_triples.py`` and ``check_work.py`` each
compute one entry per key, and ``run`` does the rest.  A table is a JSON
object written one ``"key": entry`` line per entry, in survey order.  In
check mode ``run`` prints MISMATCH for an entry that differs from the
table's or that the table lacks, and MISSING for a key that only the table
holds.  With ``--write`` it replaces the table with the survey's entries;
use that only when the output is meant to change, and record why.  Either
way it prints PROBLEM for what the survey itself finds wrong with an entry,
such as two of its own results that disagree, and it exits 1 on any of
these lines.
"""

import argparse
import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from dessins import cli


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(argv: list[str]) -> str:
    """The stdout of ``dessins <argv>``; a nonzero exit raises, with its
    code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run(table: Path, survey) -> int:
    """Check ``survey()`` against ``table``, or rebuild ``table`` from it
    with ``--write``, and return the exit code.  ``survey()`` yields (key,
    entry, problem) in table order, ``problem`` being None or what is
    wrong with the entry."""
    parser = argparse.ArgumentParser(description=f"Check {table.name} against the current code.")
    parser.add_argument("--write", action="store_true",
                        help="rebuild the table from the current code")
    args = parser.parse_args()
    expected = {} if args.write else json.loads(table.read_text(encoding="utf-8"))

    start = time.perf_counter()
    got, mismatches, problems = {}, 0, 0
    for key, entry, problem in survey():
        got[key] = entry
        if problem is not None:
            problems += 1
            print(f"PROBLEM {key}: {problem}")
        if not args.write and entry != expected.get(key):
            mismatches += 1
            print(f"MISMATCH {key}: {entry} != {expected.get(key)}")
    missing = sorted(set(expected) - set(got))
    for key in missing:
        print(f"MISSING {key}")
    seconds = time.perf_counter() - start

    if args.write:
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in got.items()]
        table.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(got)} entries to {table.name}, {problems} problems, {seconds:.1f} s")
    else:
        print(f"{len(got)} entries, {mismatches + len(missing)} mismatches, {problems} problems, "
              f"{seconds:.1f} s")
    return 1 if mismatches or missing or problems else 0
