import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from dessins import cli, polynomials
from dessins.schemas import (
    DESSIN_SCHEMA,
    ERROR_SCHEMA,
    EVIDENCE_SCHEMA,
    MONODROMY_SCHEMA,
    ORBIT_SCHEMA,
    RENDER_SCHEMA,
    ROOTS_SCHEMA,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestRoots:
    def test_schema_and_content(self, capsys):
        data = run_json(capsys, "roots")
        jsonschema.validate(data, ROOTS_SCHEMA)
        assert len(data) == 12
        assert [row["label"] for row in data] == list(range(1, 13))
        assert all(row["residual"] < 1e-10 for row in data)

    def test_seed_offset_invariance(self, capsys, monkeypatch):
        # the printed roots are those of start circles turned by other offsets
        base = run_json(capsys, "roots")
        p = polynomials.f_polynomial()
        for offset in (0.37, 1.3):
            monkeypatch.setattr(polynomials, "ANGULAR_OFFSET", offset)
            moved = polynomials.roots(p)
            for row in base:
                z = complex(row["re"], row["im"])
                assert min(abs(z - w) for w in moved) < 1e-9

    def test_seed_offset_does_not_leak(self, capsys, monkeypatch):
        # a solve from another start circle leaves the cached roots alone
        cached = polynomials.roots_of_f()
        p = polynomials.f_polynomial()
        with monkeypatch.context() as m:
            m.setattr(polynomials, "ANGULAR_OFFSET", 0.37)
            polynomials.roots(p)
        run_json(capsys, "roots")
        assert polynomials.roots_of_f() is cached

    @pytest.mark.parametrize("argv", [["roots"], ["dessin", "--triple", "2,7,11"]], ids=["roots", "dessin"])
    def test_no_seed_offset(self, argv):
        # the root finder's start circle is fixed (polynomials.ANGULAR_OFFSET)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed-offset", "0.37"])
        assert exc.value.code == 2


class TestMonodromy:
    def test_b11_example(self, capsys):
        data = run_json(capsys, "monodromy", "--map", "b(1,1)")
        jsonschema.validate(data, MONODROMY_SCHEMA)
        assert data["degree"] == 2
        assert data["g0"] == "(1)(2)"
        assert data["g1"] == "(1,2)"
        assert data["ginf"] == "(1,2)"
        assert data["stability"] is None

    def test_stability_flag(self, capsys):
        data = run_json(
            capsys, "monodromy", "--map", "b(1,1).b(10,1)", "--check-stability"
        )
        assert data["stability"] is True

    @pytest.mark.parametrize("command", [
        ["monodromy", "--map", "b(600,600)"],
        ["render", "--map", "b(600,600)", "--out", "-"],
    ], ids=["monodromy", "render"])
    def test_overflow_is_numeric_failure(self, capsys, command):
        # b(600,600)'s leading coefficient is too large for a float
        code, out, err = run(capsys, *command)
        assert code == 3
        assert out == ""
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "OverflowError"

    def test_refused_allocation_is_numeric_failure(self, capsys, monkeypatch):
        # an absurd exponent asks the root finder for more memory than there
        # is; the refusal is simulated, nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(polynomials, "_aberth", refuse)
        code, out, err = run(capsys, "monodromy", "--map", "b(100000,1)")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "MemoryError"

    def test_unreachable_newton_tol_refused(self, capsys, tmp_path):
        # no Newton correction meets 1e-30, so no step is ever accepted
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"newton_tol": 1e-30}')
        code, out, err = run(capsys, "monodromy", "--map", "b(1,1).b(10,1)",
                             "--config", str(cfg_file))
        assert (code, out) == (3, "")
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "StepUnderflowError"

    @pytest.mark.parametrize("chain", ["b(25,25)", "b(15,28)"])
    def test_stalled_root_finder_writes_one_error_line(self, chain):
        # the fiber's iteration overflows; no floating-point warning joins
        # the JSON error on stderr
        proc = run_fresh(
            "import sys\n"
            "from dessins.cli import main\n"
            f"sys.exit(main(['monodromy', '--map', {chain!r}]))\n")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.count("\n") == 1
        jsonschema.validate(json.loads(proc.stderr), ERROR_SCHEMA)

    def test_stalled_root_finder_raises_under_error_filter(self):
        from dessins import monodromy, parse_map_expr

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(polynomials.NonConvergedError):
                monodromy(parse_map_expr("b(25,25)"))

    def test_config_echo_round_trip(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        from dessins.monodromy import TrackingConfig

        custom = TrackingConfig(newton_tol=1e-11)
        cfg_file.write_text(json.dumps(custom.to_json_dict()))
        data = run_json(
            capsys, "monodromy", "--map", "b(1,1)", "--config", str(cfg_file)
        )
        assert data["config_echo"]["newton_tol"] == pytest.approx(1e-11)

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"newton_tol": 1e-12, "wat": 3}')
        code, out, err = run(capsys, "monodromy", "--map", "b(1,1)",
                             "--config", str(cfg_file))
        assert code == 2
        jsonschema.validate(json.loads(err), ERROR_SCHEMA)

    @pytest.mark.parametrize("bad", [
        {"match_tol": "x"},
        {"initial_step": 0},
        {"initial_step": -0.01},
        {"min_step": 0.5},
        {"separation_factor": 1},
        {"separation_factor": 0.5},
    ], ids=["string", "zero_step", "negative_step", "min_above_initial",
            "separation_one", "separation_below_one"])
    def test_config_bad_value(self, capsys, tmp_path, bad):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(bad))
        code, out, err = run(capsys, "monodromy", "--map", "b(1,1)",
                             "--config", str(cfg_file))
        assert code == 2
        assert out == ""
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "ValueError"
        assert next(iter(bad)) in body["message"]

    @pytest.mark.parametrize("text", ["null", "3", "[]", '[["initial_step", 0.5]]'],
                             ids=["null", "number", "empty_list", "pairs"])
    @pytest.mark.parametrize("command", [
        ["monodromy", "--map", "b(1,1)"],
        ["render", "--map", "b(1,1)", "--out", "-"],
    ], ids=["monodromy", "render"])
    def test_config_not_an_object(self, capsys, tmp_path, command, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        code, out, err = run(capsys, *command, "--config", str(cfg_file))
        assert (code, out) == (2, "")
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "ValueError"
        assert "JSON object" in body["message"]

    def test_diverging_newton_leaves_stderr_empty(self, capsys, tmp_path):
        # in steps of a third of a loop Newton overflows on refused steps
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 0.33}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "monodromy", "--map", "b(10,1).f.pi(2,7,11)",
                                 "--config", str(cfg_file))
        assert (code, err, caught) == (0, "", [])
        coarse = json.loads(out)
        default = run_json(capsys, "monodromy", "--map", "b(10,1).f.pi(2,7,11)")
        assert (coarse["g0"], coarse["g1"]) == (default["g0"], default["g1"])

    def test_one_step_loop_gives_default_pair(self, capsys, tmp_path):
        # the first step is capped at the antipode, so a loop of one
        # nominal step takes the steps of a loop of two
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 1}')
        coarse = run_json(capsys, "monodromy", "--map", "b(2,3).b(3,2)", "--config", str(cfg_file),
                          "--check-stability")
        default = run_json(capsys, "monodromy", "--map", "b(2,3).b(3,2)")
        assert (coarse["g0"], coarse["g1"]) == (default["g0"], default["g1"])
        assert coarse["stability"] is True

    def test_two_step_loop_gives_default_pair(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 0.5}')
        coarse = run_json(capsys, "monodromy", "--map", "b(2,3).b(3,2)", "--config", str(cfg_file))
        default = run_json(capsys, "monodromy", "--map", "b(2,3).b(3,2)")
        assert (coarse["g0"], coarse["g1"]) == (default["g0"], default["g1"])

    def test_config_missing_file(self, capsys):
        code, _, err = run(capsys, "monodromy", "--map", "b(1,1)",
                           "--config", "/nonexistent/cfg.json")
        assert code == 2
        assert json.loads(err)["exit_code"] == 2

    def test_bad_map_is_parse_error(self, capsys):
        code, out, err = run(capsys, "monodromy", "--map", "b(1,x)")
        assert code == 2
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert out == ""

    def test_off_ascii_map_is_syntax_error(self, capsys):
        # int() would refuse the superscript digit with a bare ValueError
        code, out, err = run(capsys, "monodromy", "--map", "b(\u00b2,1)")
        assert (code, out) == (2, "")
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "MapSyntaxError"
        assert body["message"] == "unexpected character '\u00b2' (at position 2)"

    def test_overlong_integer_is_syntax_error(self, capsys):
        # int() would refuse the 4301 digits with a bare ValueError
        code, out, err = run(capsys, "monodromy", "--map", "b(" + "1" * 4301 + ",1)")
        assert (code, out) == (2, "")
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "MapSyntaxError"
        assert body["message"] == "integer of 4301 digits is too long (at position 2)"

    def test_non_belyi_map(self, capsys):
        # b(1,11).f has a branch value b(1,11)(10/11) ~ 1e-10 besides 0 and 1
        for chain in ("f", "b(1,11).f"):
            code, out, err = run(capsys, "monodromy", "--map", chain)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "NotBelyiError"


class TestDessin:
    def test_published_triple(self, capsys):
        data = run_json(capsys, "dessin", "--triple", "2,7,11")
        jsonschema.validate(data, DESSIN_SCHEMA)
        assert data["triple"] == [2, 7, 11]
        assert data["map"] == "b(1,1).b(10,1).f.pi(2,7,11)"
        assert data["degree"] == 528
        assert data["genus"] == 1
        assert data["clean"] is True
        assert data["passport"]["faces"] == [528]
        assert data["passport"]["white"] == [2] * 264

    def test_published_triple_hash_pinned(self, capsys):
        # measured before the canonical form abandoned losing roots early
        data = run_json(capsys, "dessin", "--triple", "2,7,11")
        assert data["canonical_hash"] == (
            "f38a8e85fbc94c7e1b957bc326844b03173010dc870d429e97e0a3fe5c3def89"
        )

    def test_bad_triple(self, capsys):
        code, _, err = run(capsys, "dessin", "--triple", "2,2,7")
        assert code == 2
        jsonschema.validate(json.loads(err), ERROR_SCHEMA)

    def test_malformed_triple(self, capsys):
        code, _, err = run(capsys, "dessin", "--triple", "2,7")
        assert code == 2


class TestOrbit:
    def test_ab_orbit(self, capsys):
        data = run_json(capsys, "orbit", "--triple", "2,7,11",
                        "--subgroup", "ab")
        jsonschema.validate(data, ORBIT_SCHEMA)
        assert data["subgroup"] == "ab"
        assert data["orbit"] == [[1, 4, 5], [2, 7, 11]]
        assert data["genus"] == [1, 1]
        assert data["shared_passport"] is True

    def test_empty_word_is_the_identity(self, capsys):
        data = run_json(capsys, "orbit", "--triple", "2,7,11", "--subgroup", "")
        jsonschema.validate(data, ORBIT_SCHEMA)
        assert data["subgroup"] == "1"
        assert data["orbit"] == [[2, 7, 11]]

    def test_workers_option_removed(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["orbit", "--triple", "2,7,11", "--subgroup", "a", "--workers", "2"])
        assert exc.value.code == 2

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "orbit", "--triple", "2,7,11",
                           "--subgroup", "xq")
        assert code == 2
        assert json.loads(err)["error"] == "BadWordError"


class TestConfigOnlyWhereTracked:
    @pytest.mark.parametrize("argv", [
        ["dessin", "--triple", "2,7,11"],
        ["orbit", "--triple", "2,7,11", "--subgroup", "a"],
        ["roots"],
        ["evidence"],
    ], ids=["dessin", "orbit", "roots", "evidence"])
    def test_config_rejected(self, argv, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 0.25}')
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(cfg_file)])
        assert exc.value.code == 2


class TestEvidence:
    def test_default_scan(self, capsys):
        data = run_json(capsys, "evidence")
        jsonschema.validate(data, EVIDENCE_SCHEMA)
        assert data["witness_transitive"]["prime"] == 19
        assert data["witness_11cycle"]["prime"] == 47
        assert data["witness_transposition"]["prime"] == 41
        assert data["primes_scanned"] == 15

    def test_small_bound_incomplete(self, capsys):
        code, out, err = run(capsys, "evidence", "--max-prime", "2")
        assert code == 4
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "EvidenceIncompleteError"
        assert out == ""


    def test_negative_bound_is_parse_error(self, capsys):
        code, out, err = run(capsys, "evidence", "--max-prime", "-5")
        assert code == 2
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "ValueError"
        assert "max_prime" in body["message"]
        assert out == ""


class TestRender:
    def test_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "b11.svg"
        data = run_json(capsys, "render", "--map", "b(1,1)",
                        "--out", str(out_path))
        jsonschema.validate(data, RENDER_SCHEMA)
        assert data["arcs"] == 2
        assert data["black_dots"] == 2
        assert data["white_dots"] == 1
        text = out_path.read_text()
        assert text.startswith("<svg")

    def test_to_stdout(self, capsys):
        code, out, err = run(capsys, "render", "--map", "b(1,1)", "--out", "-")
        assert code == 0
        assert out.startswith("<svg")

    def test_unwritable_out(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "--map", "b(1,1)",
                             "--out", str(tmp_path / "missing" / "x.svg"))
        assert code == 2
        body = json.loads(err)
        jsonschema.validate(body, ERROR_SCHEMA)
        assert body["error"] == "FileNotFoundError"
        assert out == ""

    def test_bad_samples(self):
        # the ladder is fixed (render.RUNGS): --samples is refused, even at 48
        for samples in ("3", "48"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["render", "--map", "b(1,1)", "--out", "-", "--samples", samples])
            assert exc.value.code == 2

    def test_config_keys_render_does_not_read(self, capsys, tmp_path):
        # a rung is one nominal step, render matches no ends, and newton_tol
        # is raised to at least 1e-7
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 0.33, "separation_factor": 1e12, "newton_tol": 1e-9}')
        code, out, err = run(capsys, "render", "--map", "b(1,1).b(10,1)", "--out", "-",
                             "--config", str(cfg_file))
        assert (code, err) == (0, "")
        _, default, _ = run(capsys, "render", "--map", "b(1,1).b(10,1)", "--out", "-")
        assert out == default

    def test_unreachable_newton_tol_clamped(self, capsys, tmp_path):
        # render raises newton_tol to 1e-7, so 1e-30 draws the default bytes
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"newton_tol": 1e-30}')
        code, out, err = run(capsys, "render", "--map", "b(1,1).b(10,1)", "--out", "-",
                             "--config", str(cfg_file))
        assert (code, err) == (0, "")
        _, default, _ = run(capsys, "render", "--map", "b(1,1).b(10,1)", "--out", "-")
        assert out == default

    def test_match_tol_reaches_the_fiber(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"match_tol": 10}')
        code, out, err = run(capsys, "render", "--map", "b(1,1).b(10,1)", "--out", "-",
                             "--config", str(cfg_file))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "CollisionError"

    def test_non_belyi_map(self, capsys):
        code, out, err = run(capsys, "render", "--map", "b(1,1).b(2,1).f", "--out", "-")
        assert code == 2
        assert json.loads(err)["error"] == "NotBelyiError"
        assert out == ""


class TestOutputDiscipline:
    def test_compact_by_default(self, capsys):
        _, out, _ = run(capsys, "monodromy", "--map", "b(1,1)")
        assert "\n" not in out.strip()
        assert ": " not in out

    def test_pretty_flag(self, capsys):
        _, out, _ = run(capsys, "monodromy", "--map", "b(1,1)", "--json-pretty")
        assert out.count("\n") > 3
        assert json.loads(out)["degree"] == 2

    def test_floats_capped_at_15_digits(self, capsys):
        _, out, _ = run(capsys, "roots")
        for row in json.loads(out):
            for key in ("re", "im"):
                text = json.dumps(row[key])
                digits = sum(c.isdigit() for c in text.split("e")[0])
                assert digits <= 16  # 15 significant plus a possible leading 0

    def test_round_floats_walker(self):
        nested = {"a": [1.23456789012345678, True, {"b": (0.1,)}], "c": "s"}
        trimmed = cli.round_floats(nested)
        assert trimmed["a"][1] is True
        assert trimmed["c"] == "s"
        assert isinstance(trimmed["a"][2]["b"], list)
        assert trimmed["a"][0] == float(f"{1.23456789012345678:.15g}")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from
    this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


class TestExactCommandsLoadNoNumpy:
    @pytest.mark.parametrize("argv", [
        ["dessin", "--triple", "2,7,11"],
        ["orbit", "--triple", "2,7,11", "--subgroup", "a"],
        ["evidence"],
    ])
    def test_fresh_interpreter(self, argv):
        proc = run_fresh(
            "import sys\n"
            "from dessins.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_numeric_command_loads_numpy(self):
        proc = run_fresh(
            "import sys\n"
            "from dessins.cli import main\n"
            "assert main(['monodromy', '--map', 'b(1,2)']) == 0\n"
            "assert 'numpy' in sys.modules\n")
        assert proc.returncode == 0, proc.stderr

    def test_monodromy_loads_no_numpy_ma(self):
        # the end match decides bijectivity without np.unique, whose
        # import of numpy.ma would cost the first call in a process
        proc = run_fresh(
            "import sys\n"
            "from dessins.maps import parse_map_expr\n"
            "from dessins.monodromy import monodromy\n"
            "monodromy(parse_map_expr('b(2,3)'))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'\n")
        assert proc.returncode == 0, proc.stderr


class TestMonodromyNameInEveryImportOrder:
    """dessins.monodromy names both a submodule and its function; the
    package attribute stays the function whichever is imported first."""

    @pytest.mark.parametrize("first", [
        "import dessins.monodromy",
        "import dessins.render",
        "from dessins import render_graph",
        "from dessins import cli; cli.main(['monodromy', '--map', 'b(1,2)'])",
        "import dessins",
    ])
    def test_function_after(self, first):
        proc = run_fresh(
            f"{first}\n"
            "import sys, types\n"
            "import dessins\n"
            "from dessins import monodromy\n"
            "assert isinstance(monodromy, types.FunctionType), monodromy\n"
            "assert monodromy is sys.modules['dessins.monodromy'].monodromy\n"
            "assert all(hasattr(dessins, name) for name in dessins.__all__)\n")
        assert proc.returncode == 0, proc.stderr


class TestRepeatedCalls:
    """One process, many cli.main calls, as a script or a benchmark makes
    them: the parser is built once, and nothing of a call reaches the next."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        run_json(capsys, "dessin", "--triple", "2,7,11")
        monkeypatch.setattr(cli, "cmd_dessin", lambda args: {"rebound": args.triple})
        assert run_json(capsys, "dessin", "--triple", "2,7,11") == {"rebound": "2,7,11"}

    def test_failed_parse_leaves_next_call_unchanged(self, capsys):
        argv = ("orbit", "--triple", "2,7,11", "--subgroup", "a", "--json-pretty")
        code, before, _ = run(capsys, *argv)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["orbit", "--triple", "2,7,11", "--subgroup", "a", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, after, _ = run(capsys, *argv)
        assert code == 0
        assert after == before
