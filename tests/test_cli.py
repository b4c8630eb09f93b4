"""End-to-end tests of the command-line front end, run in-process through
``slabel.cli.main``: generation, solving, bounding, checking, benchmarking,
their JSON and CSV shapes, and the documented exit codes."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slabel import exact, lagrangian, special_graphs
from slabel.cli import main
from slabel.core import Labeling, sl_value
from slabel.dual_ascent import dual_ascent_extended
from slabel.heuristics import greedy_label
from slabel.instances import (
    KINDS,
    InstanceSpec,
    gen_gnm,
    read_instance,
    read_labeling,
    write_instance,
)

REPO = Path(__file__).resolve().parent.parent

SOLVE_KEYS = {
    "instance", "nodes", "edges", "method", "primal_value", "dual_bound",
    "gap_percent", "proven", "time_ms", "labeling",
}
SEARCH_KEYS = {"explored", "pruned", "dominated", "level_pruned", "degree_pruned",
               "state_dominated", "stale", "bound_calls", "dives", "dives_improved",
               "open_bound"}
BOUND_KEYS = {"instance", "nodes", "edges", "method", "lower_bound", "time_ms"}
LAGRANGIAN_KEYS = {"iterations", "incumbent", "stop_reason", "level_floor", "phase_ms"}
BENCH_HEADER = [
    "name", "nodes", "edges", "method", "lb", "ub", "gap_percent", "time_ms", "status",
]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def gen(capsys, path, *params):
    code, _, _ = run(capsys, "gen", *params, "-o", path)
    assert code == 0
    return path


@pytest.fixture
def gnm_file(tmp_path, capsys):
    return gen(capsys, tmp_path / "gnm.sl", "--kind", "gnm", "--nodes", 9,
               "--edges", 16, "--seed", 3)


@pytest.fixture
def non_ascii_file(tmp_path):
    path = tmp_path / "accent.sl"
    path.write_bytes("c café\np sl 2 1\ne 1 2\n".encode("utf-8"))
    return path


# One gen call per generator kind, and the spec it must reproduce.
GEN_CASES = {
    "path": (("--nodes", 9), InstanceSpec("path", {"n": 9})),
    "cycle": (("--nodes", 8), InstanceSpec("cycle", {"n": 8})),
    "nary": (("--arity", 3, "--depth", 2), InstanceSpec("nary", {"arity": 3, "depth": 2})),
    "grid": (("--rows", 3, "--cols", 4), InstanceSpec("grid", {"rows": 3, "cols": 4})),
    "gnm": (("--nodes", 20, "--edges", 35, "--seed", 5),
            InstanceSpec("gnm", {"n": 20, "m": 35}, seed=5)),
    "tree": (("--nodes", 17, "--seed", 6), InstanceSpec("tree", {"n": 17}, seed=6)),
    "caterpillar": (("--backbone", 7, "--p1", 0.5, "--seed", 7),
                    InstanceSpec("caterpillar", {"backbone": 7, "p1": 0.5}, seed=7)),
    "lobster": (("--backbone", 7, "--p1", 0.5, "--p2", 0.5, "--seed", 8),
                InstanceSpec("lobster", {"backbone": 7, "p1": 0.5, "p2": 0.5}, seed=8)),
    "bipartite": (("--n1", 6, "--n2", 5, "--prob", 0.4, "--seed", 9),
                  InstanceSpec("bipartite", {"n1": 6, "n2": 5, "p": 0.4}, seed=9)),
}


class TestGen:
    @pytest.mark.parametrize("kind", KINDS)
    def test_writes_the_generated_instance(self, tmp_path, capsys, kind):
        options, spec = GEN_CASES[kind]
        path = tmp_path / "inst.sl"
        code, out, err = run(capsys, "gen", "--kind", kind, *options, "-o", path)
        assert code == 0 and err == ""
        g = spec.generate()
        assert path.read_text(encoding="ascii") == write_instance(g)
        assert out == f"{g.n} nodes, {g.m} edges -> {path}\n"

    def test_seed_defaults_to_zero(self, tmp_path, capsys):
        path = gen(capsys, tmp_path / "inst.sl", "--kind", "tree", "--nodes", 12)
        expected = InstanceSpec("tree", {"n": 12}, seed=0).generate()
        assert path.read_text(encoding="ascii") == write_instance(expected)

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--kind", "gnm", "--nodes", 5), "--kind gnm requires --edges"),
            (("--kind", "bipartite", "--n1", 2, "--n2", 2),
             "--kind bipartite requires --prob"),
            (("--kind", "path", "--nodes", 5, "--prob", 0.5),
             "--prob does not apply to --kind path"),
            (("--kind", "grid", "--rows", 2, "--cols", 2, "--seed", 1),
             "--seed does not apply to --kind grid"),
        ],
    )
    def test_parameter_usage_errors(self, tmp_path, capsys, options, message):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *map(str, options), "-o", str(tmp_path / "x.sl")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--kind", "caterpillar", "--backbone", 3, "--p1", 1.5),
             "probability p1 must lie in [0, 1], got 1.5"),
            (("--kind", "caterpillar", "--backbone", 0, "--p1", 1.5),
             "expected backbone must be >= 1, got 0"),
            (("--kind", "lobster", "--backbone", 3, "--p1", 0.5, "--p2", 2),
             "probabilities must lie in [0, 1], got 0.5, 2.0"),
            (("--kind", "gnm", "--nodes", 5, "--edges", -3),
             "edge count must be >= 0, got -3"),
        ],
    )
    def test_generator_errors(self, tmp_path, capsys, options, message):
        code, _, err = run(capsys, "gen", *options, "-o", tmp_path / "x.sl")
        assert code == 2
        assert err == f"error: {message}\n"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "method, params, reported",
        [
            ("auto", ("--kind", "gnm", "--nodes", 9, "--edges", 16, "--seed", 3), "bnb"),
            ("auto", ("--kind", "cycle", "--nodes", 9), "special:cycle"),
            ("greedy", ("--kind", "tree", "--nodes", 12, "--seed", 1), "greedy"),
            ("bnb", ("--kind", "gnm", "--nodes", 9, "--edges", 16, "--seed", 3), "bnb"),
            ("special", ("--kind", "path", "--nodes", 10), "special:path"),
            ("special", ("--kind", "nary", "--arity", 2, "--depth", 3), "special:nary"),
            ("oracle", ("--kind", "grid", "--rows", 3, "--cols", 3), "oracle"),
        ],
    )
    def test_gen_solve_check(self, tmp_path, capsys, method, params, reported):
        inst = gen(capsys, tmp_path / "inst.sl", *params)
        out_lab = tmp_path / "inst.lab"
        code, out, _ = run(capsys, "solve", inst, "--method", method, "--json",
                           "--labeling-out", out_lab)
        assert code == 0
        report = json.loads(out)
        assert report["method"] == reported
        g = read_instance(inst.read_text(encoding="ascii"))
        phi = read_labeling(out_lab.read_text(encoding="ascii"), g.n)
        assert list(phi.labels) == report["labeling"]
        assert sl_value(g, phi) == report["primal_value"]
        if report["dual_bound"] is not None:
            assert report["dual_bound"] <= report["primal_value"]
        code, out, _ = run(capsys, "check", inst, out_lab)
        assert code == 0
        assert out.strip() == f"valid, value {report['primal_value']}"

    @pytest.mark.parametrize("method", ["special", "auto"])
    @pytest.mark.parametrize("kind", ["path", "cycle"])
    def test_special_detects_once(self, tmp_path, capsys, method, kind):
        # Counted by code object, so a call through any imported name counts.
        inst = gen(capsys, tmp_path / "inst.sl", "--kind", kind, "--nodes", 11)
        detect = special_graphs.detect_structure.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is detect:
                calls.append(event)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code, out, _ = run(capsys, "solve", inst, "--method", method, "--json")
        finally:
            sys.setprofile(previous)
        assert code == 0
        assert json.loads(out)["method"] == f"special:{kind}"
        assert len(calls) == 1

    def test_methods_agree_on_optimum(self, gnm_file, capsys):
        values = {}
        for method in ("bnb", "oracle"):
            code, out, _ = run(capsys, "solve", gnm_file, "--method", method, "--json")
            assert code == 0
            report = json.loads(out)
            assert report["proven"]
            values[method] = report["primal_value"]
        assert values["bnb"] == values["oracle"]

    def test_plain_text_report(self, gnm_file, capsys):
        code, out, _ = run(capsys, "solve", gnm_file, "--method", "greedy")
        assert code == 0
        keys = [line.split(":", 1)[0] for line in out.splitlines()]
        assert keys == ["instance", "nodes", "edges", "method", "primal_value",
                        "dual_bound", "gap_percent", "proven", "time_ms"]


class TestJsonKeys:
    @pytest.mark.parametrize("method", ["auto", "greedy", "lagrangian", "bnb", "oracle"])
    def test_solve_keys(self, gnm_file, capsys, method):
        code, out, _ = run(capsys, "solve", gnm_file, "--method", method, "--json")
        assert code == 0
        report = json.loads(out)
        if method in ("auto", "bnb"):  # auto falls back to B&B on this graph
            assert set(report) == SOLVE_KEYS | {"search"}
            search = report["search"]
            assert set(search) == SEARCH_KEYS
            assert search["bound_calls"] >= 1
            assert search["open_bound"] is None
        elif method == "lagrangian":  # solve reports what bound reports
            assert set(report) == SOLVE_KEYS | LAGRANGIAN_KEYS
            assert report["incumbent"] == report["primal_value"]
        else:
            assert set(report) == SOLVE_KEYS

    def test_bnb_proves_complete_graph_through_domination(self, tmp_path, capsys,
                                                          monkeypatch):
        # Every node of K12 is a twin of every other; a B&B without
        # neighbourhood domination needs about 24.7 million expansions.
        # The coverage table alone proves K12 at the root, so the rule is
        # run without it.
        inst = tmp_path / "k12.sl"
        inst.write_text(write_instance(gen_gnm(12, 66, 1)), encoding="ascii")
        code, out, _ = run(capsys, "solve", inst, "--method", "bnb", "--json")
        report = json.loads(out)
        assert code == 0 and report["proven"] and report["search"]["explored"] == 0
        monkeypatch.setattr(exact, "coverage_table", lambda g, deadline: [0] * g.n)
        code, out, _ = run(capsys, "solve", inst, "--method", "bnb", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["proven"] and report["primal_value"] == report["dual_bound"] == 286
        assert report["time_ms"] < 1000
        assert report["search"]["explored"] == 9 and report["search"]["dominated"] > 0

    def test_oracle_stops_at_time_limit(self, tmp_path, capsys):
        # The program has 2**20 states; the clock stops it after 4095.
        g = gen_gnm(20, 45, 3)
        inst = tmp_path / "gnm20.sl"
        inst.write_text(write_instance(g), encoding="ascii")
        started = time.perf_counter()
        code, out, _ = run(capsys, "solve", inst, "--method", "oracle", "--time-limit", 0,
                           "--json")
        assert code == 0 and time.perf_counter() - started < 1.0
        report = json.loads(out)
        assert not report["proven"] and report["dual_bound"] is None
        assert report["primal_value"] == sl_value(g, Labeling(tuple(report["labeling"])))

    @pytest.mark.parametrize("nodes, edges, seed, optimum", [(6, 9, 2, 16), (12, 66, 1, 286)])
    def test_oracle_reports_a_finished_search_as_proven(self, tmp_path, capsys,
                                                        nodes, edges, seed, optimum):
        # With at most 12 nodes the program has fewer than 4096 states, so
        # it finishes before its first clock read, however short the limit.
        inst = gen(capsys, tmp_path / "g.sl", "--kind", "gnm", "--nodes", nodes,
                   "--edges", edges, "--seed", seed)
        code, out, _ = run(capsys, "solve", inst, "--method", "oracle", "--time-limit", 0,
                           "--json")
        assert code == 0
        report = json.loads(out)
        assert report["proven"] and report["primal_value"] == report["dual_bound"] == optimum
        assert report["time_ms"] < 100

    def test_search_open_bound_under_time_limit(self, tmp_path, capsys):
        inst = tmp_path / "hard.sl"
        inst.write_text(write_instance(gen_gnm(24, 60, 11)), encoding="ascii")
        code, out, _ = run(capsys, "solve", inst, "--method", "bnb", "--time-limit", 0,
                           "--json")
        assert code == 0
        report = json.loads(out)
        assert not report["proven"]
        assert report["dual_bound"] == min(report["search"]["open_bound"],
                                           report["primal_value"])

    @pytest.mark.parametrize(
        "method, extra",
        [
            ("dual-simple", set()),
            ("dual-extended", {"net_changes", "alpha_values"}),
            ("lagrangian", LAGRANGIAN_KEYS),
        ],
    )
    def test_bound_keys(self, gnm_file, capsys, method, extra):
        code, out, _ = run(capsys, "bound", gnm_file, "--method", method, "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == BOUND_KEYS | extra
        assert report["method"] == method

    def test_bound_lagrangian_phase_times(self, gnm_file, capsys):
        _, out, _ = run(capsys, "bound", gnm_file, "--method", "lagrangian", "--json")
        report = json.loads(out)
        phases = report["phase_ms"]
        assert set(phases) == set(lagrangian.PHASES)
        assert min(phases.values()) >= 0
        assert sum(phases.values()) <= report["time_ms"]

    def test_greedy_has_no_dual_bound(self, gnm_file, capsys):
        _, out, _ = run(capsys, "solve", gnm_file, "--method", "greedy", "--json")
        report = json.loads(out)
        assert report["dual_bound"] is None and report["gap_percent"] is None
        assert report["proven"] is False

    def test_greedy_under_time_limit_returns_greedy_value(self, tmp_path, capsys):
        # Local search lowers greedy's value on this tree; with no time
        # left it runs no sweep.
        inst = gen(capsys, tmp_path / "tree.sl", "--kind", "tree", "--nodes", 1000,
                   "--seed", 1)
        code, out, _ = run(capsys, "solve", inst, "--method", "greedy", "--time-limit", 0,
                           "--json")
        assert code == 0
        report = json.loads(out)
        g = read_instance(inst.read_text(encoding="ascii"))
        assert report["primal_value"] == greedy_label(g)[1]
        assert report["primal_value"] == sl_value(g, Labeling(labels=tuple(report["labeling"])))
        assert report["time_ms"] < 1000

    def test_dual_extended_under_time_limit_takes_no_step(self, gnm_file, capsys):
        code, out, _ = run(capsys, "bound", gnm_file, "--method", "dual-extended",
                           "--time-limit", 0, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["net_changes"] == report["alpha_values"] == []
        assert report["lower_bound"] == report["edges"]  # every edge costs at least 1

    def test_dual_extended_reports_the_kernel_trace(self, gnm_file, capsys):
        code, out, _ = run(capsys, "bound", gnm_file, "--method", "dual-extended", "--json")
        assert code == 0
        report = json.loads(out)
        g = read_instance(gnm_file.read_text(encoding="ascii"))
        _, z, trace = dual_ascent_extended(g)
        assert trace  # at least one step, so the lists below are not trivially equal
        assert report["alpha_values"] == [alpha for alpha, _ in trace]
        assert report["net_changes"] == [net for _, net in trace]
        assert report["lower_bound"] == z == report["edges"] + sum(report["net_changes"])

    def test_solve_lagrangian_bracket_under_time_limit(self, gnm_file, capsys):
        code, out, _ = run(capsys, "solve", gnm_file, "--method", "lagrangian",
                           "--time-limit", 0, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["dual_bound"] <= report["primal_value"]

    def test_bound_lagrangian_bracket_under_time_limit(self, gnm_file, capsys):
        code, out, _ = run(capsys, "bound", gnm_file, "--method", "lagrangian",
                           "--time-limit", 0, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["stop_reason"] == "time" and report["iterations"] == 0
        assert report["lower_bound"] <= report["incumbent"]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_missing_instance(self, tmp_path, capsys, command):
        code, _, err = run(capsys, command, tmp_path / "absent.sl")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_malformed_instance(self, tmp_path, capsys, command):
        path = tmp_path / "bad.sl"
        path.write_text("p sl 3 1\ne 1 1\n", encoding="ascii")
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert "self-loop" in err

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_duplicate_edge_names_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "dup.sl"
        path.write_text("p sl 3 2\ne 1 2\ne 1 2\n", encoding="ascii")
        code, _, err = run(capsys, command, path)
        assert code == 2
        assert err == "error: line 3: duplicate edge in 'e 1 2'\n"

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_non_ascii_instance(self, non_ascii_file, capsys, command):
        code, _, err = run(capsys, command, non_ascii_file)
        assert code == 2
        assert err.startswith("error:")

    def test_non_ascii_instance_in_check(self, non_ascii_file, tmp_path, capsys):
        lab = tmp_path / "two.lab"
        lab.write_text("1 1\n2 2\n", encoding="ascii")
        code, _, err = run(capsys, "check", non_ascii_file, lab)
        assert code == 2
        assert err.startswith("error:")

    def test_special_on_general_graph(self, gnm_file, capsys):
        code, _, err = run(capsys, "solve", gnm_file, "--method", "special")
        assert code == 2
        assert "not a path, cycle or perfect n-ary tree" in err

    def test_gen_missing_parameter(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "gnm", "--nodes", "5", "-o", str(tmp_path / "x.sl")])
        assert exc.value.code == 2

    def test_gen_invalid_parameter(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "gnm", "--nodes", 3, "--edges", 9,
                           "-o", tmp_path / "x.sl")
        assert code == 2
        assert err.startswith("error:")

    def test_oracle_size_refusal(self, tmp_path, capsys):
        inst = gen(capsys, tmp_path / "big.sl", "--kind", "path", "--nodes", 21)
        code, _, err = run(capsys, "solve", inst, "--method", "oracle")
        assert code == 3
        assert "oracle limit" in err

    def test_invalid_labeling(self, gnm_file, tmp_path, capsys):
        lab = tmp_path / "dup.lab"
        lab.write_text("".join(f"{v} 1\n" for v in range(1, 10)), encoding="ascii")
        code, out, _ = run(capsys, "check", gnm_file, lab)
        assert code == 4
        assert out.startswith("invalid:")

    def test_label_out_of_range_names_its_line_and_node(self, tmp_path, capsys):
        inst = tmp_path / "p3.sl"
        inst.write_text("p sl 3 2\ne 1 2\ne 2 3\n", encoding="ascii")
        lab = tmp_path / "big.lab"
        lab.write_text("1 1\n2 2\n3 5\n", encoding="ascii")
        code, out, _ = run(capsys, "check", inst, lab)
        assert code == 4
        assert out == "invalid: line 3: label 5 of node 3 outside 1..3\n"

    def test_missing_labeling(self, gnm_file, tmp_path, capsys):
        code, out, _ = run(capsys, "check", gnm_file, tmp_path / "absent.lab")
        assert code == 4
        assert out.startswith("invalid:")

    def test_non_ascii_labeling(self, gnm_file, tmp_path, capsys):
        lab = tmp_path / "accent.lab"
        text = "c é\n" + "".join(f"{v} {v}\n" for v in range(1, 10))
        lab.write_bytes(text.encode("utf-8"))
        code, out, _ = run(capsys, "check", gnm_file, lab)
        assert code == 4
        assert out.startswith("invalid:")

    def test_bench_missing_suite(self, tmp_path, capsys):
        code, _, _ = run(capsys, "bench", "--suite", tmp_path / "none",
                         "--out", tmp_path / "out.csv")
        assert code == 2

    def test_bench_empty_suite(self, tmp_path, capsys):
        suite = tmp_path / "empty"
        suite.mkdir()
        code, _, _ = run(capsys, "bench", "--suite", suite, "--out", tmp_path / "out.csv")
        assert code == 2

    def test_bench_unknown_method(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.sl").write_text(write_instance(gen_gnm(5, 6, 1)), encoding="ascii")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.csv"),
                  "--methods", "greedy,nope"])
        assert exc.value.code == 2

    def test_bench_no_method(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "a.sl").write_text(write_instance(gen_gnm(5, 6, 1)), encoding="ascii")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", str(suite), "--out", str(tmp_path / "o.csv"),
                  "--methods", ","])
        assert exc.value.code == 2
        assert not (tmp_path / "o.csv").exists()

    def test_gen_into_missing_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "path", "--nodes", 5,
                           "-o", tmp_path / "none" / "p.sl")
        assert code == 2
        assert err.startswith("error:")

    def test_labeling_out_into_missing_directory(self, gnm_file, tmp_path, capsys):
        code, out, err = run(capsys, "solve", gnm_file, "--method", "greedy",
                             "--labeling-out", tmp_path / "none" / "x.lab")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_bench_out_into_missing_directory(self, gnm_file, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--suite", tmp_path, "--methods", "greedy",
                           "--out", tmp_path / "none" / "out.csv")
        assert code == 2
        assert err.startswith("error:")

    def test_bench_non_ascii_file_name_writes_no_csv(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "café.sl").write_text(write_instance(gen_gnm(5, 6, 1)), encoding="ascii")
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "bench", "--suite", suite, "--methods", "greedy",
                           "--out", out)
        assert code == 2
        assert err.startswith("error:") and "non-ASCII" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "-inf", "soon"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_bad_time_limit(self, gnm_file, tmp_path, capsys, command, value):
        # Each solver would read NaN its own way: B&B and the assignment
        # solver as no limit, local search as no time for a sweep.
        argv = {"solve": ["solve", str(gnm_file)],
                "bench": ["bench", "--suite", str(gnm_file.parent),
                          "--out", str(tmp_path / "o.csv")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--time-limit={value}"])
        assert exc.value.code == 2
        assert "nonnegative number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_bound_time_limit(self, gnm_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["bound", str(gnm_file), "--method", "lagrangian", f"--time-limit={value}"])
        assert exc.value.code == 2
        assert "nonnegative number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_infinite_time_limit(self, gnm_file, tmp_path, capsys, command):
        argv = {"solve": ["solve", gnm_file, "--method", "lagrangian"],
                "bench": ["bench", "--suite", gnm_file.parent, "--out", tmp_path / "o.csv",
                          "--methods", "lagrangian"]}[command]
        code, _, _ = run(capsys, *argv, "--time-limit", "inf")
        assert code == 0


def read_csv(path):
    with open(path, newline="", encoding="ascii") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


class TestBench:
    @pytest.fixture
    def suite(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "b-small.sl").write_text(write_instance(gen_gnm(7, 10, 2)), encoding="ascii")
        (suite / "a-hard.sl").write_text(write_instance(gen_gnm(12, 30, 5)), encoding="ascii")
        (suite / "c-bad.sl").write_text("p sl 2 1\n", encoding="ascii")
        (suite / "d-accent.sl").write_bytes("c é\np sl 2 1\ne 1 2\n".encode("utf-8"))
        return suite

    def test_rows_and_statuses(self, suite, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, stdout, err = run(capsys, "bench", "--suite", suite, "--out", out,
                                "--methods", "greedy,dual-extended,bnb")
        assert code == 0
        assert stdout.strip() == f"12 rows -> {out}"
        header, rows = read_csv(out)
        assert header == BENCH_HEADER
        assert [(r["name"], r["method"]) for r in rows] == [
            (name, method)
            for name in ("a-hard", "b-small", "c-bad", "d-accent")
            for method in ("greedy", "dual-extended", "bnb")
        ]
        by_key = {(r["name"], r["method"]): r for r in rows}
        small = by_key[("b-small", "bnb")]
        assert small["status"] == "ok" and small["lb"] == small["ub"]
        assert small["gap_percent"] == "0.0000"
        assert by_key[("b-small", "greedy")]["lb"] == ""
        assert by_key[("b-small", "dual-extended")]["ub"] == ""
        for name in ("c-bad", "d-accent"):
            for method in ("greedy", "dual-extended", "bnb"):
                row = by_key[(name, method)]
                assert row["status"] == "error"
                assert row["nodes"] == row["lb"] == row["ub"] == ""
                assert f"error: {name}.sl {method}: " in err

    def test_timeouts(self, suite, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "bench", "--suite", suite, "--out", out,
                         "--methods", "bnb,lagrangian", "--time-limit", 0)
        assert code == 0
        _, rows = read_csv(out)
        by_key = {(r["name"], r["method"]): r for r in rows}
        for method in ("bnb", "lagrangian"):
            row = by_key[("a-hard", method)]
            assert row["status"] == "timeout"
            assert int(row["lb"]) <= int(row["ub"])

    def test_greedy_and_dual_extended_timeouts(self, suite, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "bench", "--suite", suite, "--out", out,
                         "--methods", "greedy,dual-extended", "--time-limit", 0)
        assert code == 0
        _, rows = read_csv(out)
        by_key = {(r["name"], r["method"]): r for r in rows}
        g = gen_gnm(12, 30, 5)  # a-hard
        greedy_row, dual_row = by_key[("a-hard", "greedy")], by_key[("a-hard", "dual-extended")]
        assert greedy_row["status"] == dual_row["status"] == "timeout"
        assert int(greedy_row["ub"]) == greedy_label(g)[1]
        assert int(dual_row["lb"]) == g.m


def test_benchmark_self_test():
    """The benchmark harness reads CLI output and library names; its
    self-test fails if any of them goes missing."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--self-test"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_benchmark_finds_every_layer():
    """A traced run reports a probe whose library name is gone under
    ``absent_layers`` and only zeroes its metric, so the self-test alone
    does not notice it."""
    script = (
        "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
        "_, report = run.measure('prove-small', 0, 0.0, True, smoke=True); "
        "print(json.dumps(report['absent_layers']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == []
