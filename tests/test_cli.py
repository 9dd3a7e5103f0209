import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate as schema_validate

import mwss.cli
from mwss import GenSpec, Graph, GraphParseError, parse_graph, serialize_graph
from mwss.cli import build_parser, run

from helpers import MALFORMED_GRAPHS

DATA = Path(__file__).parent / "data"
SCHEMAS = Path(__file__).parent.parent / "src" / "mwss" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def write(tmp_path, text):
    path = tmp_path / "graph.mwss"
    path.write_text(text)
    return str(path)


P7_TEXT = "p mwss 7 6\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 7))


class TestParse:
    def test_two_node_weighted(self):
        g = parse_graph("p mwss 2 1\nn 1 5\nn 2 3\ne 1 2\n")
        assert g.n == 2 and g.m == 1 and g.weights == (5, 3)

    def test_single_isolated_node(self):
        g = parse_graph("p mwss 1 0\n")
        assert g.n == 1 and g.weights == (1,)

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("p mwss 2 1\ne 1 1\n")
        assert err.value.line_no == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("p mwss 2 2\ne 1 2\ne 2 1\n")

    def test_duplicate_edge_in_same_orientation_named(self):
        with pytest.raises(GraphParseError, match=r"duplicate edge \(1, 2\)"):
            parse_graph("p mwss 3 3\ne 1 2\ne 2 3\ne 1 2\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("p mwss 2 1\ne 1 3\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("p mwss 2 2\ne 1 2\n")

    @pytest.mark.parametrize("text, message, line_no", MALFORMED_GRAPHS)
    def test_malformed_file_names_its_line(self, text, message, line_no):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line_no == line_no
        assert str(err.value) == (message if line_no is None else f"line {line_no}: {message}")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("c hi\n\np mwss 2 1\nc mid\ne 1 2\n")
        assert g.m == 1

    def test_comment_is_a_first_token_c(self):
        g = parse_graph("c\np mwss 2 1\n  c\tindented\nc count 5\ne 1 2\n")
        assert g.m == 1
        assert parse_graph(serialize_graph(g, ["", "count 5"])) == g

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if data.draw(st.booleans())]
        weights = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        g = Graph(n, edges, weights)
        assert parse_graph(serialize_graph(g)) == g


class TestSolveCommand:
    def test_p7_plain(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, P7_TEXT)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "value 4"

    def test_json_schema(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, P7_TEXT), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        schema_validate(payload, load_schema("solution.schema.json"))
        assert payload["value"] == 4
        assert payload["route"] == "strip_pipeline"

    def test_oracle_check_on_golden(self, capsys):
        code = run(["solve", str(DATA / "golden_strip_seed1.mwss"), "--oracle-check", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_checked"] and payload["oracle_value"] == payload["value"]

    def test_oracle_check_text_mode_says_agreed(self, tmp_path, capsys):
        assert run(["solve", write(tmp_path, P7_TEXT), "--oracle-check"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "value 4\nset 1 3 5 7\noracle agreed\n"
        assert captured.err == ""

    def test_oracle_check_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        # a solver answer one below the optimum, whatever solve returns
        real = mwss.cli.solve
        monkeypatch.setattr(
            mwss.cli, "solve", lambda g, **kw: dataclasses.replace(real(g, **kw), value=3)
        )
        assert run(["solve", write(tmp_path, P7_TEXT), "--oracle-check"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oracle mismatch: solver=3 oracle=4\n"

    def test_oracle_check_skipped_above_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MWSS_ORACLE_LIMIT", "6")
        path = write(tmp_path, P7_TEXT)
        assert run(["solve", path, "--oracle-check"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "value 4\nset 1 3 5 7\n"
        assert captured.err == "oracle check skipped: n=7 exceeds limit 6\n"
        assert run(["solve", path, "--oracle-check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 4 and "oracle_checked" not in payload

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(P7_TEXT))
        assert run(["solve", "-"]) == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, "p mwss 2 1\ne 1 1\n")])
        assert code == 2

    @pytest.mark.parametrize("text, message, line_no", MALFORMED_GRAPHS)
    def test_malformed_file_exit_2_with_line(self, tmp_path, capsys, text, message, line_no):
        code = run(["solve", write(tmp_path, text)])
        captured = capsys.readouterr()
        where = "" if line_no is None else f"line {line_no}: "
        assert code == 2 and captured.out == ""
        assert captured.err == f"parse error: {where}{message}\n"

    def test_missing_file_exit_2(self, capsys):
        assert run(["solve", "/nonexistent/file.mwss"]) == 2

    def test_usage_error_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2


class TestSolveErrors:
    def test_violation_witness_in_file_ids(self, tmp_path, capsys):
        # node 1 is isolated, so the claw centred on node 4 is found in a
        # renumbered component
        text = (
            "p mwss 7 5\nn 1 3\nn 2 3\nn 4 5\nn 7 4\n"
            "e 2 3\ne 2 4\ne 4 5\ne 4 6\ne 6 7\n"
        )
        assert run(["solve", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.endswith("; witness=(4, 2, 5, 6)\n")


class TestCheckCommand:
    def test_net_file_reports_witness(self, tmp_path, capsys):
        net = "p mwss 6 6\ne 1 2\ne 1 3\ne 2 3\ne 1 4\ne 2 5\ne 3 6\n"
        code = run(["check", write(tmp_path, net), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["net"] == [1, 2, 3, 4, 5, 6]
        assert payload["claw"] is None

    def test_clean_graph_exit_0(self, tmp_path, capsys):
        assert run(["check", write(tmp_path, P7_TEXT)]) == 0


class TestDecomposeCommand:
    def test_p7_decomposition_schema(self, tmp_path, capsys):
        code = run(["decompose", write(tmp_path, P7_TEXT), "--trace"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        schema_validate(payload, load_schema("decomposition.schema.json"))
        assert payload["core"] == [2, 3]
        assert payload["removal_clique"] == [4]
        assert payload["strips"] == [[[2, 3], [1]], [[5], [6], [7]]]

    def test_alpha_le_3_reported(self, tmp_path, capsys):
        tri = "p mwss 3 3\ne 1 2\ne 1 3\ne 2 3\n"
        code = run(["decompose", write(tmp_path, tri)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {"n": 3, "alpha_ge_4": False}

    def test_violation_witness_printed_1_based(self, tmp_path, capsys):
        # the star K1,4 on nodes 1..5, centre 1
        star = "p mwss 5 4\ne 1 2\ne 1 3\ne 1 4\ne 1 5\n"
        assert run(["decompose", write(tmp_path, star)]) == 1
        assert capsys.readouterr().err.endswith("; witness=(1, 2, 3, 4)\n")

    def test_disconnected_rejected(self, tmp_path, capsys):
        two = "p mwss 4 2\ne 1 2\ne 3 4\n"
        assert run(["decompose", write(tmp_path, two)]) == 1


class TestOtherCommands:
    def test_canonicalize_json(self, tmp_path, capsys):
        code = run(["canonicalize", write(tmp_path, P7_TEXT), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["stable_set"] == [1, 3, 5, 7]

    def test_gen_writes_parseable_graph(self, tmp_path, capsys):
        out = tmp_path / "gen.mwss"
        argv = ["gen", "--seed", "4", "--nodes", "18", "--mode", "strip"]
        code = run(argv + ["-o", str(out)])
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 18
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text()  # the file holds stdout's bytes

    def test_gen_requires_seed(self, capsys):
        assert run(["gen", "--nodes", "10"]) == 2

    def test_gen_bad_spec_is_an_input_error(self, capsys):
        bounds = ["--clique-min", "5", "--clique-max", "2"]
        weights = ["--weights", "random", "--weight-lo", "50", "--weight-hi", "10"]
        for spec, field in ((bounds, "clique_min"), (weights, "weight_lo")):
            assert run(["gen", "--seed", "1", "--nodes", "20", *spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("input error:")
            assert field in captured.err
        # nested mode reads no clique bounds
        assert run(["gen", "--seed", "1", "--mode", "nested", "--nodes", "9", *bounds]) == 0

    def test_oracle_command(self, tmp_path, capsys):
        code = run(["oracle", write(tmp_path, P7_TEXT)])
        out = capsys.readouterr().out
        assert code == 0 and out.splitlines()[0] == "value 4"

    def test_oracle_respects_env_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MWSS_ORACLE_LIMIT", "3")
        code = run(["oracle", write(tmp_path, P7_TEXT)])
        assert code == 1

    @pytest.mark.parametrize("raw", ["abc", "", "  "], ids=["abc", "empty", "blank"])
    @pytest.mark.parametrize("argv", [["oracle"], ["solve", "--oracle-check"]], ids=["oracle", "solve"])
    def test_non_integer_oracle_limit_is_a_usage_error(self, tmp_path, capsys, monkeypatch, raw, argv):
        monkeypatch.setenv("MWSS_ORACLE_LIMIT", raw)
        code = run([argv[0], write(tmp_path, P7_TEXT), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"usage error: MWSS_ORACLE_LIMIT must be an integer, got {raw!r}\n"

    def test_gen_nested_cliques(self, tmp_path, capsys):
        out = tmp_path / "nested.mwss"
        argv = ["gen", "--seed", "7", "--mode", "nested", "--nodes", "30", "--weights", "random"]
        assert run([*argv, "-o", str(out)]) == 0
        g = parse_graph(out.read_text())
        k = 10
        assert g.n == 3 * k and g.m == 3 * k * (k - 1) // 2 + k * (k + 1)
        assert run(["solve", str(out), "--json", "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["route"] == "alpha3_fallback" and payload["trace"]["components"] == 1
        assert run(["gen", "--seed", "7", "--mode", "nested", "--nodes", "31"]) == 2
        assert "multiple of 3" in capsys.readouterr().err

    def test_bench_tiny(self, capsys):
        code = run(["bench", "--sizes", "1000", "--repeats", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["rows"][0]["n"] == 1000
        assert payload["rows"][0]["median_build_seconds"] > 0
        assert "peak_mb" not in payload["rows"][0]
        # --memory adds one traced solve per size
        code = run(["bench", "--sizes", "1000", "--repeats", "1", "--json", "--memory"])
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert code == 0 and row["n"] == 1000
        assert 0 < row["peak_mb"] < 50
        assert run(["bench", "--sizes", "200", "--repeats", "1", "--memory"]) == 0
        header, line = capsys.readouterr().out.splitlines()
        assert header.split()[-1] == "peak_mb" and float(line.split()[-1]) > 0

    def test_bench_nested_rung(self, capsys):
        code = run(["bench", "--sizes", "100,nested:60,nested:90", "--repeats", "1", "--json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0
        assert [(r["family"], r["n"]) for r in rows] == [("strip", 100), ("nested", 60), ("nested", 90)]
        # each family's ratio is to its own previous rung
        assert rows[1]["ratio_to_previous"] is None and rows[2]["ratio_to_previous"] > 0
        assert rows[1]["m"] == 3 * 20 * 19 // 2 + 20 * 21

    def test_bench_default_ladder_has_nested_rungs(self):
        args = build_parser().parse_args(["bench"])
        assert args.sizes == [("strip", 1000), ("strip", 4000), ("strip", 16000),
                              ("strip", 64000), ("nested", 300), ("nested", 600)]

    @pytest.mark.parametrize("flag", ["--clique-min", "--clique-max", "--density"])
    def test_bench_takes_no_shape_flags(self, capsys, flag):
        # every strip rung has the one shape of the committed ladders
        assert run(["bench", "--sizes", "100", "--repeats", "1", flag, "5"]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_rejects_repeats_below_one(self, capsys, repeats):
        assert run(["bench", "--sizes", "100", "--repeats", repeats]) == 2
        assert "--repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["x", "1000,x", "0", "-5", "nested:100", "ring:300", "nested:x"])
    def test_bench_rejects_bad_sizes(self, capsys, sizes):
        assert run(["bench", "--sizes", sizes, "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert "--sizes" in captured.err and captured.out == ""


class TestDeterminism:
    def test_solve_json_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            assert run(["solve", str(DATA / "golden_strip_seed1.mwss"), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_gen_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            assert run(["gen", "--seed", "11", "--nodes", "20", "--weights", "ties"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "5", "--nodes", "40", "--clique-min", "3", "--clique-max", "5",
             "--density", "0.7", "--weights", "random", "--weight-lo", "10", "--weight-hi", "5000"],
            ["--seed", "3", "--mode", "rejection", "--nodes", "12", "--weights", "random",
             "--weight-lo", "-4", "--weight-hi", "9"],
            ["--seed", "1", "--mode", "nested", "--nodes", "6", "--weights", "random",
             "--weight-hi", "1000000"],
            ["--seed", "2", "--mode", "nested", "--nodes", "9", "--weights", "ties"],
        ],
        ids=["strip", "rejection", "nested", "nested-ties"],
    )
    def test_gen_spec_header_reproduces_file(self, capsys, argv):
        # the fields a header leaves out must be ones its mode never reads,
        # so they are refilled with values other than the defaults
        assert run(["gen", *argv]) == 0
        text = capsys.readouterr().out
        header = next(line for line in text.splitlines() if line.startswith("c spec "))
        fields = dict(item.split("=", 1) for item in header.split()[2:])
        lo, hi = fields.pop("cliques", "1..9").split("..")
        spec = GenSpec(
            seed=int(fields.pop("seed")),
            mode=fields.pop("mode"),
            nodes=int(fields.pop("nodes")),
            clique_min=int(lo),
            clique_max=int(hi),
            density=float(fields.pop("density", "0.95")),
            weights=fields.pop("weights"),
            weight_lo=int(fields.pop("weight_lo")),
            weight_hi=int(fields.pop("weight_hi")),
        )
        assert fields == {}
        again = [f"--{f.name.replace('_', '-')}={getattr(spec, f.name)}" for f in dataclasses.fields(spec)]
        assert run(["gen", *again]) == 0
        assert capsys.readouterr().out == text


class TestGoldenBytes:
    """The golden instance's CLI output, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["solve", "--json"], "golden_strip_seed1.solve.json"),
            (["decompose", "--trace"], "golden_strip_seed1.decompose_trace.json"),
            (["canonicalize", "--json"], "golden_strip_seed1.canonicalize.json"),
        ],
    )
    def test_output_matches_pinned_bytes(self, capsys, argv, expected):
        graph = str(DATA / "golden_strip_seed1.mwss")
        assert run([argv[0], graph, *argv[1:]]) == 0
        assert capsys.readouterr().out.encode() == (DATA / expected).read_bytes()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code = run(["selftest", "--instances", "16", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS selftest" in out
        assert "ok strips-partition\n" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_selftest_rejects_instances_below_one(self, capsys, instances):
        assert run(["selftest", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "--instances" in captured.err and captured.out == ""
