"""The committed tables' runner (scripts/committed_table.py) on temporary
tables, and the work table (scripts/check_work.py) run in full."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dessins

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

_spec = importlib.util.spec_from_file_location("committed_table", SCRIPTS / "committed_table.py")
committed_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(committed_table)

ENTRIES = {"b(1,1)": {"g0": "ab", "runs": [[14, 0], [7, 1]]}, "2,7,11": "cd"}


def surveying(entries: dict, problems: dict | None = None):
    """A survey of ``entries``, with ``problems`` reported by key."""
    def survey():
        for key, entry in entries.items():
            yield key, entry, (problems or {}).get(key)

    return survey


def run(monkeypatch, table: Path, survey, *args: str) -> int:
    monkeypatch.setattr(sys, "argv", ["check_table.py", *args])
    return committed_table.run(table, survey)


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(ENTRIES), encoding="utf-8")
    return path


class TestRun:
    def test_identical_survey_passes(self, monkeypatch, capsys, table):
        assert run(monkeypatch, table, surveying(ENTRIES)) == 0
        assert capsys.readouterr().out.startswith("2 entries, 0 mismatches, 0 problems, ")

    @pytest.mark.parametrize("changed", [{"2,7,11": "ce"}, {"2,7,12": "cd"}], ids=["entry", "new_key"])
    def test_changed_entry_is_a_mismatch(self, monkeypatch, capsys, table, changed):
        entries = {"b(1,1)": ENTRIES["b(1,1)"], **changed}
        assert run(monkeypatch, table, surveying(entries)) == 1
        (key, entry), = changed.items()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"MISMATCH {key}: {entry} != {ENTRIES.get(key)}"
        assert lines[-1].startswith("2 entries, ")

    def test_key_only_in_the_table_is_missing(self, monkeypatch, capsys, table):
        assert run(monkeypatch, table, surveying({"2,7,11": "cd"})) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "MISSING b(1,1)"
        assert lines[-1].startswith("1 entries, 1 mismatches, 0 problems, ")

    @pytest.mark.parametrize("args", [(), ("--write",)], ids=["check", "write"])
    def test_problem_fails_the_run(self, monkeypatch, capsys, table, args):
        survey = surveying(ENTRIES, {"2,7,11": "the two hashes differ"})
        assert run(monkeypatch, table, survey, *args) == 1
        assert capsys.readouterr().out.startswith("PROBLEM 2,7,11: the two hashes differ\n")
        assert json.loads(table.read_text(encoding="utf-8")) == ENTRIES

    def test_write_one_line_per_entry(self, monkeypatch, tmp_path):
        table = tmp_path / "new.json"
        assert run(monkeypatch, table, surveying(ENTRIES), "--write") == 0
        assert table.read_bytes() == (b'{\n  "b(1,1)": {"g0": "ab", "runs": [[14, 0], [7, 1]]},\n'
                                      b'  "2,7,11": "cd"\n}\n')

    @pytest.mark.parametrize("name", ["check_chains", "check_triples", "check_work"])
    def test_write_keeps_the_committed_tables(self, monkeypatch, tmp_path, name):
        committed = (SCRIPTS / f"{name}.json").read_bytes()
        table = tmp_path / f"{name}.json"
        assert run(monkeypatch, table, surveying(json.loads(committed)), "--write") == 0
        assert table.read_bytes() == committed


def test_work_counts_match_the_table():
    # the script imports the package this test imports, ahead of PYTHONPATH,
    # so under scripts/mutants.py it counts the mutated copy
    src = str(Path(dessins.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / "check_work.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
