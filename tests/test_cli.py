import json
import warnings

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

    def test_seed_offset_invariance(self, capsys):
        base = run_json(capsys, "roots")
        moved = run_json(capsys, "roots", "--seed-offset", "0.37")
        for r1, r2 in zip(base, moved):
            assert r1["re"] == pytest.approx(r2["re"], abs=1e-9)
            assert r1["im"] == pytest.approx(r2["im"], abs=1e-9)

    def test_seed_offset_does_not_leak(self, capsys):
        run_json(capsys, "roots", "--seed-offset", "0.37")
        assert polynomials.roots_of_f() is polynomials.roots_of_f(polynomials.ANGULAR_OFFSET)

    def test_seed_offset_only_on_roots(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dessin", "--triple", "2,7,11", "--seed-offset", "0.3"])
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
    ], ids=["string", "zero_step", "negative_step", "min_above_initial"])
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

    def test_diverging_newton_leaves_stderr_empty(self, capsys, tmp_path):
        # in steps of a quarter loop Newton overflows on refused steps
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"initial_step": 0.25}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "monodromy", "--map", "b(10,1).f.pi(2,7,11)",
                                 "--config", str(cfg_file))
        assert (code, err, caught) == (0, "", [])
        coarse = json.loads(out)
        default = run_json(capsys, "monodromy", "--map", "b(10,1).f.pi(2,7,11)")
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

    def test_non_belyi_map(self, capsys):
        code, _, err = run(capsys, "monodromy", "--map", "f")
        assert code == 2
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
                        "--subgroup", "ab", "--workers", "1")
        jsonschema.validate(data, ORBIT_SCHEMA)
        assert data["subgroup"] == "ab"
        assert data["orbit"] == [[1, 4, 5], [2, 7, 11]]
        assert data["genus"] == [1, 1]
        assert data["shared_passport"] is True

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "orbit", "--triple", "2,7,11",
                           "--subgroup", "xq")
        assert code == 2
        assert json.loads(err)["error"] == "BadWordError"


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

    def test_bad_samples(self, capsys):
        code, _, err = run(capsys, "render", "--map", "b(1,1)",
                           "--out", "-", "--samples", "3")
        assert code == 2

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
