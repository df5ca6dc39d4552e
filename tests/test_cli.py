import json
import subprocess
import sys
import tracemalloc

import pytest

import pvckit.cli
from helpers import long_augmenting_path
from pvckit import SolveReport, Variant, WpvcInstance, make_solution, parse_wpvc, write_wpvc
from pvckit.cli import main
from pvckit.generators import MAX_BOUNDED_DEGREE_PAIRS

PATH3 = "p wpvc 3 2 1 2\ne 0 1\ne 1 2\n"
PATH3_L3 = "p wpvc 3 2 1 3\ne 0 1\ne 1 2\n"
MCQ_PAIR = "p mcq 2 1 2\nc 0 1\nc 1 2\ne 0 1\n"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_yes_exit_zero_with_witness(self, tmp_path, capsys):
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, _ = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 0
        assert "verdict=yes" in out and "witness=1" in out

    def test_no_exit_one(self, tmp_path, capsys):
        f = tmp_path / "path3L3.wpvc"
        f.write_text(PATH3_L3)
        code, out, _ = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 1 and "verdict=no" in out

    def test_malformed_header_exit_two(self, tmp_path, capsys):
        f = tmp_path / "bad.wpvc"
        f.write_text("p wpvc oops\n")
        code, _, err = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 2 and "parse error" in err

    def test_variant_mismatch_exit_two(self, tmp_path, capsys):
        f = tmp_path / "weighted.wpvc"
        f.write_text("p wpvc 2 1 2 1\nv 0 2\ne 0 1\n")
        code, _, err = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 2 and "variant error" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--alg", "epvcbd", "--variant", "pvc"],
        ["oracle", "--variant", "pvc"],
        ["solve", "--alg", "bounded-degree", "--degree-bound", "3"],
    ], ids=["solve-variant", "oracle-variant", "solve-degree-bound"])
    def test_flags_that_declare_the_input_class_are_refused(self, tmp_path, capsys, argv):
        # The variant and the degree bound are read from the file, so
        # argparse knows neither flag.
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        with pytest.raises(SystemExit) as info:
            main([*argv, str(f)])
        out = capsys.readouterr()
        assert info.value.code == 2 and out.out == ""
        assert "unrecognized arguments: %s" % argv[-2] in out.err
        assert "internal error" not in out.err

    def test_not_bipartite_exit_two(self, tmp_path, capsys):
        f = tmp_path / "tri.wpvc"
        f.write_text("p wpvc 3 3 1 1\ne 0 1\ne 1 2\ne 0 2\n")
        code, _, err = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 2 and "not bipartite" in err

    def test_json_like_dump(self, tmp_path, capsys):
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, _ = run_cli(
            ["solve", "--alg", "by-L", "--json-like", str(f)], capsys)
        data = json.loads(out)
        assert code == 0 and data["verdict"] == "yes" and data["witness"] == [1]

    def test_verify_flag(self, tmp_path, capsys):
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, _ = run_cli(
            ["solve", "--alg", "bounded-degree", "--verify", str(f)], capsys)
        assert code == 0 and "verify=ok" in out

    def test_bounded_degree_zero_cost_vertex_on_zero_profit_edge(self, tmp_path, capsys):
        f = tmp_path / "zero.wpvc"
        f.write_text("p wpvc 3 2 1 1\nv 0 0\ne 0 1 0\ne 1 2 3\n")
        code, out, err = run_cli(
            ["solve", "--alg", "bounded-degree", "--verify", str(f)], capsys)
        assert (code, err) == (0, "")
        assert "witness=1" in out and "verify=ok" in out

    def test_pvcbm_needs_k3(self, tmp_path, capsys):
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, _, err = run_cli(["solve", "--alg", "pvcbm", str(f)], capsys)
        assert code == 2 and "k3" in err
        code, out, _ = run_cli(
            ["solve", "--alg", "pvcbm", "--k3", "1", str(f)], capsys)
        assert code == 0 and "matching=" in out

    @pytest.mark.parametrize("alg", ["epvcbd", "bounded-degree", "by-L", "fractional"])
    @pytest.mark.parametrize("flag", ["--k1", "--k2", "--k3"])
    def test_k_flags_without_pvcbm_exit_two(self, tmp_path, capsys, alg, flag):
        # The header budget is 1, so a silently ignored --k1 0 would say yes.
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, err = run_cli(["solve", "--alg", alg, flag, "0", str(f)], capsys)
        assert code == 2 and out == ""
        assert err == ("error: %s applies only to --alg pvcbm; the instance header"
                       " gives the budget and target\n" % flag)

    def test_internal_error_exit_two(self, tmp_path, capsys, monkeypatch):
        def crash(inst):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(pvckit.cli, "solve_epvcbd", crash)
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, err = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 2 and "verdict" not in out
        assert "internal error: RecursionError: maximum recursion depth" in err

    def test_deep_path_yes_exit_zero(self, tmp_path, capsys):
        # a 2000-vertex unit path: the search goes about 1100 levels deep
        f = tmp_path / "path2000.wpvc"
        f.write_text("p wpvc 2000 1999 1100 1999\n"
                     + "".join("e %d %d\n" % (i, i + 1) for i in range(1999)))
        code, out, _ = run_cli(["solve", "--alg", "epvcbd", str(f)], capsys)
        assert code == 0 and "verdict=yes" in out

    def test_header_past_the_vertex_cap_exits_2_without_building(self, tmp_path, capsys):
        # 21 bytes that would ask for a million vertices, about 110 MiB.
        f = tmp_path / "huge.wpvc"
        f.write_text("p wpvc 1000000 0 0 0\n")
        tracemalloc.start()
        try:
            code, out, err = run_cli(["solve", "--alg", "by-L", str(f)], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and err.startswith("parse error:") and "vertices" in err
        assert peak < 2**20

    def test_pvcbm_long_augmenting_path_exit_zero(self, tmp_path, capsys):
        # Hopcroft-Karp needs one augmenting path 1500 left vertices deep.
        g = long_augmenting_path(1500)
        f = tmp_path / "path1500.wpvc"
        f.write_text(write_wpvc(WpvcInstance(g, 1500, g.m, Variant.PVC)))
        code, out, _ = run_cli(["solve", "--alg", "pvcbm", "--k3", "1500", str(f)], capsys)
        assert code == 0 and "verdict=yes" in out

    def test_fractional_alg(self, tmp_path, capsys):
        f = tmp_path / "frac.wpvc"
        f.write_text("p wpvc 2 1 1 2\nv 0 2\nv 1 2\ne 0 1 4\n")
        code, out, _ = run_cli(["solve", "--alg", "fractional", str(f)], capsys)
        assert code == 0 and "fractional=0 extent=1/2" in out

    @pytest.mark.parametrize("vertices, matching", [
        pytest.param({0, 1, 2}, {0, 2}, id="above-k1-vertices"),
        pytest.param({0, 4}, {0, 3}, id="below-k2-covered"),
        pytest.param({1, 2}, {0, 3}, id="matched-edge-uncovered"),
        pytest.param({1, 2}, {0, 1}, id="matched-edges-share-a-vertex"),
        pytest.param({1, 2}, {0}, id="below-k3-matched"),
    ])
    def test_pvcbm_verify_rejects_bad_witness(self, tmp_path, capsys, monkeypatch,
                                              vertices, matching):
        def bad(g, k1, k2, k3):
            return SolveReport(True, make_solution(g, vertices), 0, 0, 0.0,
                               matching_edge_ids=frozenset(matching))

        monkeypatch.setattr(pvckit.cli, "solve_pvcbm", bad)
        f = tmp_path / "path5.wpvc"
        f.write_text("p wpvc 5 4 2 3\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        code, out, err = run_cli(
            ["solve", "--alg", "pvcbm", "--k3", "2", "--verify", str(f)], capsys)
        assert code == 2 and "verify=ok" not in out
        assert "witness failed re-verification" in err

    def test_pvcbm_verify_checks_witness_above_oracle_cap(self, tmp_path, capsys):
        f = tmp_path / "path30.wpvc"
        f.write_text("p wpvc 30 29 15 29\n"
                     + "".join("e %d %d\n" % (i, i + 1) for i in range(29)))
        code, out, _ = run_cli(
            ["solve", "--alg", "pvcbm", "--k3", "10", "--verify", str(f)], capsys)
        assert code == 0 and "verdict=yes" in out and "verify=ok" in out


class TestOracleCmd:
    def test_auto_detects_wpvc(self, tmp_path, capsys):
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        code, out, _ = run_cli(["oracle", str(f)], capsys)
        assert code == 0 and "witness=1" in out

    def test_auto_detects_mcq(self, tmp_path, capsys):
        f = tmp_path / "pair.mcq"
        f.write_text(MCQ_PAIR)
        code, out, _ = run_cli(["oracle", str(f)], capsys)
        assert code == 0 and "clique=0 1" in out

    def test_pvcbm_kind(self, tmp_path, capsys):
        f = tmp_path / "c4.wpvc"
        f.write_text("p wpvc 4 4 2 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
        code, out, _ = run_cli(["oracle", "--kind", "pvcbm", "--k3", "2", str(f)],
                               capsys)
        assert code == 0 and "matching=" in out

    @pytest.mark.parametrize("command", [["oracle", "--kind"], ["solve", "--alg"]])
    def test_pvcbm_on_weights_is_variant_error(self, tmp_path, capsys, command):
        # Vertex 0 costs 5 and edge (0, 1) has profit 3: witness {0, 2} would
        # cost 6 and cover profit 6, not the 2 and 4 of a unit instance.
        f = tmp_path / "weighted.wpvc"
        f.write_text("p wpvc 4 4 2 4\nv 0 5\ne 0 1 3\ne 1 2\ne 2 3\ne 0 3\n")
        code, out, err = run_cli(command + ["pvcbm", "--k3", "2", str(f)], capsys)
        assert code == 2 and out == "" and err.startswith("variant error:")

    @pytest.mark.parametrize("kind, text", [
        pytest.param(kind, text, id=kind) for kind, text in
        [("auto", PATH3), ("wpvc", PATH3), ("fractional", PATH3), ("mcq", MCQ_PAIR)]])
    @pytest.mark.parametrize("flag", ["--k1", "--k2", "--k3"])
    def test_k_flags_without_pvcbm_exit_two(self, tmp_path, capsys, kind, text, flag):
        f = tmp_path / "instance.txt"
        f.write_text(text)
        code, out, err = run_cli(["oracle", "--kind", kind, flag, "0", str(f)], capsys)
        assert code == 2 and out == ""
        assert err == ("error: %s applies only to --kind pvcbm; the instance header"
                       " gives the budget and target\n" % flag)

    def test_fractional_kind_keeps_expensive_edges(self, tmp_path, capsys):
        f = tmp_path / "frac.wpvc"
        f.write_text("p wpvc 2 1 1 2\nv 0 2\nv 1 2\ne 0 1 4\n")
        code, out, _ = run_cli(["oracle", "--kind", "fractional", str(f)], capsys)
        assert code == 0 and "fractional=0 extent=1/2" in out

    def test_bad_witness_is_internal_error_under_optimize(self, tmp_path):
        # The enumerator is made to claim every edge for the empty set, so the
        # oracle reports it as a yes; the witness check must still catch it
        # when `python -O` strips assert statements.
        f = tmp_path / "path3.wpvc"
        f.write_text(PATH3)
        script = ("import sys, pvckit.cli, pvckit.oracle as o\n"
                  "if not sys.flags.optimize: sys.exit(3)\n"
                  "o._covers = lambda g, cands, costs, budget: iter([((), (1 << g.m) - 1)])\n"
                  "sys.exit(pvckit.cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script, "oracle", str(f)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "internal error: AssertionError: cost=0 profit=0\n"

    def test_cap_refusal_is_exit_two(self, tmp_path, capsys):
        f = tmp_path / "big.wpvc"
        lines = ["p wpvc 25 0 1 0"]
        f.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["oracle", "--cap", "10", str(f)], capsys)
        assert code == 2 and "oracle refused" in err


class TestReduceCmd:
    def test_reduce_writes_loadable_instance_with_provenance(self, tmp_path, capsys):
        src = tmp_path / "pair.mcq"
        src.write_text(MCQ_PAIR)
        dst = tmp_path / "out.wpvc"
        code, _, _ = run_cli(["reduce", str(src), "--out", str(dst)], capsys)
        assert code == 0
        text = dst.read_text()
        assert "# src v0 -> u0,v0" in text
        inst = parse_wpvc(text)
        assert inst.budget == 30 and inst.target == 870

    def test_pendantize_flag(self, tmp_path, capsys):
        src = tmp_path / "pair.mcq"
        src.write_text(MCQ_PAIR)
        dst = tmp_path / "out.wpvc"
        code, _, _ = run_cli(["reduce", "--pendantize", str(src), "--out", str(dst)],
                             capsys)
        assert code == 0
        inst = parse_wpvc(dst.read_text())
        assert inst.graph.n == 874 and inst.graph.m == 870


class TestGenCmd:
    def test_gen_is_byte_identical_across_runs(self, tmp_path, capsys):
        a = tmp_path / "a.wpvc"
        b = tmp_path / "b.wpvc"
        args = ["gen", "bipartite-random", "--n", "8", "--m", "12", "--seed", "7"]
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert parse_wpvc(a.read_text()).graph.m == 12

    def test_gen_bounded_degree_respects_bound(self, tmp_path, capsys):
        f = tmp_path / "bd.wpvc"
        code, _, _ = run_cli(
            ["gen", "bounded-degree", "--n", "9", "--m", "12", "--degree-bound", "3",
             "--seed", "3", "--out", str(f)], capsys)
        assert code == 0
        assert parse_wpvc(f.read_text()).graph.max_degree() <= 3

    def test_gen_infeasible_params_error(self, capsys):
        code, _, err = run_cli(
            ["gen", "bounded-degree", "--n", "3", "--m", "9", "--degree-bound", "1",
             "--seed", "0"], capsys)
        assert code == 2 and "error" in err

    def test_gen_bounded_degree_past_the_pair_cap_exits_2_without_building(self, capsys):
        # n = 1001 has 500,500 vertex pairs, just past the cap; listing them
        # would peak at about 45 MiB.
        assert 1000 * 999 // 2 <= MAX_BOUNDED_DEGREE_PAIRS < 1001 * 1000 // 2
        tracemalloc.start()
        try:
            code, out, err = run_cli(["gen", "bounded-degree", "--n", "1001", "--m", "10",
                                      "--seed", "0"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and err.startswith("error:") and "cap" in err
        assert peak < 2**20

    @pytest.mark.parametrize("flag", ["--cost-max", "--profit-max"])
    def test_gen_weight_cap_below_one_is_input_error(self, capsys, flag):
        code, out, err = run_cli(["gen", "bipartite-random", "--seed", "0", flag, "0"],
                                 capsys)
        assert (code, out) == (2, "") and err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--budget", "--target"])
    def test_gen_writes_no_instance_that_solve_rejects(self, tmp_path, capsys, flag):
        f = tmp_path / "neg.wpvc"
        code, _, err = run_cli(["gen", "bipartite-random", "--seed", "0", flag, "-3",
                                "--out", str(f)], capsys)
        assert code == 2 and err.startswith("error:") and not f.exists()

    @pytest.mark.parametrize("prob", ["2", "-0.5", "nan"])
    def test_gen_edge_probability_outside_unit_interval(self, capsys, prob):
        code, out, err = run_cli(["gen", "mcq-planted", "--seed", "0", "--edge-prob", prob],
                                 capsys)
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_gen_mcq_planted_solves_yes(self, tmp_path, capsys):
        f = tmp_path / "planted.mcq"
        code, _, _ = run_cli(
            ["gen", "mcq-planted", "--k", "3", "--class-size", "2", "--seed", "11",
             "--out", str(f)], capsys)
        assert code == 0
        code, out, _ = run_cli(["oracle", str(f)], capsys)
        assert code == 0 and "verdict=yes" in out


class TestBenchCmd:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(["bench"], capsys)
        assert code == 0
        assert "VIOLATION" not in out and "epvcbd" in out

    def test_empty_suite_is_fine(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"runs": []}))
        code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
        assert code == 0

    def test_custom_config(self, tmp_path, capsys):
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps(
            {"runs": [{"alg": "by-L", "grid": [2, 3], "seeds": [0]}]}))
        code, out, _ = run_cli(["bench", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.count("by-L") == 2 and "epvcbd" not in out

    def test_profit_target_zero_is_within_its_depth_bound(self, tmp_path, capsys):
        # At target 0 the search stops at the root, depth 0.
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"runs": [{"alg": "by-L", "grid": [0], "seeds": [0]}]}))
        code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split()
        assert row[0] == "by-L" and row[5] == "0" and row[-1] == "ok"

    @pytest.mark.parametrize("alg, value, bound", [
        ("by-L", 500, "500^2000"), ("epvcbd", 1300, "2600^1300"),
        ("bounded-degree", 100000, "400000^100000")])
    def test_large_node_bound_prints_as_a_power(self, tmp_path, capsys, alg, value, bound):
        # Expanded, each bound has more digits than int-to-str conversion allows.
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"runs": [{"alg": alg, "grid": [value], "seeds": [0]}]}))
        code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split()
        assert row[0] == alg and row[9] == bound and row[-1] == "ok"

    @pytest.mark.parametrize("config", [
        {"runs": [{"alg": "by-L", "seeds": [0]}]},
        [{"alg": "by-L", "grid": [2], "seeds": [0]}],
        {"runs": [{"alg": "by-L", "grid": [2], "seeds": ["0"]}]},
        {"runs": {"alg": "by-L"}},
        {"runs": [{"alg": "bounded-degree", "grid": [2], "seeds": [0],
                   "degree_bound": -1}]},
        # A degree-0 graph has no edges, so no grid case can be drawn.
        {"runs": [{"alg": "bounded-degree", "grid": [2], "seeds": [0],
                   "degree_bound": 0}]},
    ], ids=["no-grid", "top-level-list", "string-seed", "runs-not-a-list",
            "negative-degree-bound", "zero-degree-bound"])
    def test_malformed_config_is_input_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["bench", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "") and err.startswith("error:")


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "pvckit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout


FRAC_HALF = "p wpvc 2 1 1 2\nv 0 2\nv 1 2\ne 0 1 4\n"
C4 = "p wpvc 4 4 2 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
MCQ_NO_CLIQUE = "p mcq 2 0 2\nc 0 1\nc 1 2\n"


def _text_fields(out):
    return dict(line.partition("=")[::2] for line in out.splitlines())


def _json_as_text(data):
    # How each JSON value reads in the key=value form; null fields are omitted there.
    def text(value):
        if isinstance(value, list):
            return " ".join("%d-%d" % tuple(x) if isinstance(x, list) else str(x)
                            for x in value)
        if isinstance(value, dict):
            return "%s extent=%s" % (value["vertex"], value["extent"])
        return str(value)

    return {key: text(value) for key, value in data.items() if value is not None}


class TestReportParity:
    """Text and ``--json-like`` reports carry the same fields and values."""

    @staticmethod
    def both_forms(tmp_path, capsys, args, text):
        f = tmp_path / "instance.txt"
        f.write_text(text)
        code, out, err = run_cli(args + [str(f)], capsys)
        json_code, json_out, _ = run_cli(args + ["--json-like", str(f)], capsys)
        assert code == json_code and code in (0, 1), err
        fields = _text_fields(out)
        data = _json_as_text(json.loads(json_out))
        # Timing differs between the two runs, so only its presence is compared.
        assert ("wall_ms" in fields) == (data.pop("wall_ms", None) is not None)
        fields.pop("wall_ms", None)
        return fields, data

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("alg, extra, text", [
        pytest.param("epvcbd", [], PATH3, id="epvcbd-yes"),
        pytest.param("epvcbd", [], PATH3_L3, id="epvcbd-no"),
        pytest.param("bounded-degree", [], PATH3, id="bounded-degree"),
        pytest.param("by-L", [], PATH3, id="by-L"),
        pytest.param("fractional", [], FRAC_HALF, id="fractional"),
        pytest.param("pvcbm", ["--k3", "1"], PATH3, id="pvcbm"),
    ])
    def test_solve(self, tmp_path, capsys, alg, extra, text, verify):
        args = ["solve", "--alg", alg] + extra + (["--verify"] if verify else [])
        fields, data = self.both_forms(tmp_path, capsys, args, text)
        assert fields == data
        assert ("verify" in fields) == verify

    @pytest.mark.parametrize("kind, extra, text", [
        pytest.param("auto", [], PATH3, id="auto"),
        pytest.param("wpvc", [], PATH3_L3, id="wpvc-no"),
        pytest.param("fractional", [], FRAC_HALF, id="fractional"),
        pytest.param("pvcbm", ["--k3", "2"], C4, id="pvcbm"),
        pytest.param("mcq", [], MCQ_PAIR, id="mcq-yes"),
        pytest.param("mcq", [], MCQ_NO_CLIQUE, id="mcq-no"),
    ])
    def test_oracle(self, tmp_path, capsys, kind, extra, text):
        fields, data = self.both_forms(tmp_path, capsys, ["oracle", "--kind", kind] + extra,
                                       text)
        assert fields == data
