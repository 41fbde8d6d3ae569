import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from graphs import complete, cycle, petersen
import oddwalk
from oddwalk import cli
from oddwalk.borsuk import sample_approximation
from oddwalk.cli import FAILURE, INTERNAL_ERROR, USAGE_ERROR, parse_epsilon, run_cli
from oddwalk.closure import ClosurePartition, GraphHom, parse_hom
from oddwalk.errors import InputError
from oddwalk.graph import Graph, parse_graph, serialize_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def strip_timing(report):
    out = json.loads(json.dumps(report))
    out.pop("timing", None)
    return out


def test_parse_epsilon_forms():
    assert parse_epsilon("0.5") == 0.5
    assert parse_epsilon("pi") == math.pi
    assert parse_epsilon("pi/5") == math.pi / 5
    assert parse_epsilon("pi/(2r+1)", r=2) == math.pi / 5
    with pytest.raises(InputError):
        parse_epsilon("pi/(2r+1)")
    with pytest.raises(InputError):
        parse_epsilon("elephant")
    for bad in ("pi/0", "pi/0.0", "pi/x"):
        with pytest.raises(InputError):
            parse_epsilon(bad)


def test_odd_girth_command(tmp_path, capsys):
    path = write_graph(tmp_path, "petersen.el", petersen())
    code, report = run_cli(["odd-girth", "--graph", path])
    assert code == 0
    assert report["results"]["odd_girth"] == 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["odd_girth"] == 5


def test_usage_error_exit_codes(tmp_path):
    code, _ = run_cli(["odd-girth", "--graph", str(tmp_path / "missing.el")])
    assert code == 2
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    bad = tmp_path / "bad.el"
    bad.write_text("0 0\n")
    code, _ = run_cli(["odd-girth", "--graph", str(bad)])
    assert code == 2
    # malformed option values are usage errors, not internal ones
    gp = write_graph(tmp_path, "c7.el", cycle(7))
    dhom = ["experiment-dhom", "--n", "2", "--r", "2", "--fold-budget", "0"]
    for argv in (
        ["gen-borsuk", "--n", "2", "--epsilon", "pi/0", "--N", "10"],
        ["fold", "--graph", gp, "--forbid", "5,x"],
        dhom + ["--N-list", "10,x", "--seeds", "1"],
        dhom + ["--N-list", "10", "--seeds", "1,x"],
        ["fold", "--graph", gp, "--forbid", "5", "--beam", "0"],
        ["fold", "--graph", gp, "--forbid", "5", "--beam", "-1"],
        # the default fold budget runs the fold, which checks the beam
        ["experiment-dhom", "--n", "2", "--r", "2", "--N-list", "10", "--seeds", "1", "--beam", "0"],
    ):
        code, report = run_cli(argv)
        assert (code, report["kind"]) == (USAGE_ERROR, "InputError"), argv


def test_gen_borsuk_refuses_sphere_dimension_below_one(tmp_path):
    # a sphere of dimension -1 has no coordinates to draw, so a sampler that
    # redraws zero-norm points never returns: run the command in its own
    # process under a timeout, so that a hang fails the test
    src = os.path.dirname(os.path.dirname(oddwalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for n in ("-1", "0"):
        out = tmp_path / f"n{n}.json"
        argv = ["gen-borsuk", "--n", n, "--r", "2", "--N", "3", "--json", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "oddwalk", *argv], env=env, capture_output=True, timeout=60
        )
        assert done.returncode == USAGE_ERROR, n
        report = json.loads(out.read_text())
        assert report == {"error": "sphere dimension must be at least 1", "kind": "InputError"}
    with pytest.raises(InputError, match="sphere dimension"):
        sample_approximation(-1, math.pi / 5, 3, 1)


def test_internal_error_gets_its_own_exit_code_and_report(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_odd_girth", broken)
    path = write_graph(tmp_path, "c5.el", cycle(5))
    code, report = run_cli(["odd-girth", "--graph", path])
    assert code == INTERNAL_ERROR
    assert INTERNAL_ERROR not in (0, FAILURE, USAGE_ERROR)
    assert report == {"error": "KeyError: 'missing'", "kind": "InternalError"}
    assert "internal error: KeyError" in capsys.readouterr().err


def test_failure_report_goes_where_the_report_would(tmp_path, capsys):
    gp = write_graph(tmp_path, "c5.el", cycle(5))
    argv = ["fold", "--graph", gp, "--forbid", "5"]
    out = tmp_path / "report.json"
    code, report = run_cli(argv + ["--json", str(out)])
    assert code == USAGE_ERROR
    assert report == {"error": "input already contains a 5-cycle", "kind": "InputError"}
    assert json.loads(out.read_text()) == report
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: input already contains a 5-cycle" in captured.err
    # without --json it goes to stdout
    assert run_cli(argv)[0] == USAGE_ERROR
    assert json.loads(capsys.readouterr().out) == report
    # a report that cannot be written leaves the exit code as it is
    assert run_cli(argv + ["--json", str(tmp_path / "missing" / "r.json")])[0] == USAGE_ERROR
    assert "cannot write the failure report" in capsys.readouterr().err


def test_gen_borsuk_deterministic_files(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.el"), str(tmp_path / "b.el")
    argv = ["gen-borsuk", "--n", "2", "--r", "2", "--N", "60", "--seed", "7"]
    code1, rep1 = run_cli(argv + ["--out", out1])
    code2, rep2 = run_cli(argv + ["--out", out2])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert open(out1).read() == open(out2).read()
    assert strip_timing(rep1) == strip_timing(rep2)
    g = parse_graph(open(out1).read())
    assert g.n == 120


def test_gen_borsuk_symmetry_above_half_pi(capsys):
    # above pi/2 a row holds pairs 2t, 2t + 1, which mirror onto themselves
    code, report = run_cli(["gen-borsuk", "--n", "2", "--epsilon", "2.0", "--N", "150", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    assert report["verification"]["antipodal_edge_symmetry"] is True


def test_gen_borsuk_symmetry_check_on_a_large_sparse_sample(monkeypatch, capsys):
    # 10,000 vertices with about one neighbour each: the mirror test runs
    # on the CSR arrays, not on n * n / 8 bytes of bit rows
    from oddwalk.borsuk import sample_approximation

    g = sample_approximation(2, 0.02, 5_000, 1)
    n = g.graph.n
    monkeypatch.setattr(cli, "sample_approximation", lambda *args: g)
    tracemalloc.start()
    try:
        code, report = run_cli(["gen-borsuk", "--n", "2", "--epsilon", "0.02", "--N", "5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and report["results"]["edges"] > n // 4
    assert report["verification"]["antipodal_edge_symmetry"] is True
    assert peak < n * n / 8 / 10, peak


def test_homotopy_command_with_witness(tmp_path, capsys):
    from graphs import example7

    path = write_graph(tmp_path, "ex.el", example7())
    moves = str(tmp_path / "moves.log")
    code, report = run_cli(
        ["homotopy", "--graph", path, "--p", "0,1,2,0", "--q", "0,5,6,0", "--out", moves]
    )
    capsys.readouterr()
    assert code == 0
    assert report["results"]["status"] == "HOMOTOPIC"
    assert report["verification"]["witness_replays"]
    assert open(moves).read().strip()


def test_simply_connected_command(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.el", complete(4))
    code, report = run_cli(["simply-connected", "--graph", path])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["status"] == "SIMPLY_CONNECTED"


def test_h1_command_c6_components(tmp_path, capsys):
    path = write_graph(tmp_path, "c6.el", cycle(6))
    code, report = run_cli(["h1", "--graph", path])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["components"] == 2
    assert report["results"]["h1"] == ["Z", "Z"]


def test_hom_exists_command(tmp_path, capsys):
    gp = write_graph(tmp_path, "c7.el", cycle(7))
    hp = write_graph(tmp_path, "c5.el", cycle(5))
    out = str(tmp_path / "phi.map")
    code, report = run_cli(["hom-exists", "--g", gp, "--h", hp, "--out", out])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["status"] == "FOUND"
    parse_hom(open(out).read(), cycle(7), cycle(5))  # raises on a non-homomorphism


def test_color_pipeline_command(tmp_path, capsys):
    k4 = complete(4)
    gp = write_graph(tmp_path, "g.el", k4)
    hp = write_graph(tmp_path, "h.el", k4)
    hom = tmp_path / "phi.map"
    hom.write_text("".join(f"{v} -> {v}\n" for v in range(4)))
    out = str(tmp_path / "coloring.txt")
    trace = str(tmp_path / "trace.json")
    code, report = run_cli(
        [
            "color-pipeline",
            "--g", gp, "--h", hp, "--hom", str(hom),
            "--cycle", "0,1,2,0", "--r", "2", "--assert-sc",
            "--out", out, "--trace", trace,
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert report["verification"]["proper"]
    assert report["results"]["palette_size"] < 32
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 4
    doc = json.loads(open(trace).read())
    assert doc["branch"] == report["results"]["branch"]


def test_color_pipeline_failure_exit_code(tmp_path, capsys):
    c5 = cycle(5)
    gp = write_graph(tmp_path, "g.el", c5)
    hom = tmp_path / "phi.map"
    hom.write_text("".join(f"{v} -> {v}\n" for v in range(5)))
    code, report = run_cli(
        [
            "color-pipeline",
            "--g", gp, "--h", gp, "--hom", str(hom),
            "--cycle", "0,1,2,3,4,0", "--r", "2", "--assert-sc",
        ]
    )
    capsys.readouterr()
    assert code == 1
    assert "5-cycle" in report["error"]


def test_fold_command(tmp_path, capsys):
    g = cycle(5)
    gp = write_graph(tmp_path, "c5.el", g)
    out = str(tmp_path / "fold.json")
    code, report = run_cli(["fold", "--graph", gp, "--forbid", "7", "--out", out])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["final_vertices"] == 3
    # replay the written merges: the composed vertex map must send every
    # edge of the input to an edge of the written quotient
    doc = json.loads(open(out).read())
    mapping = list(range(g.n))
    for kept, merged in doc["merges"]:
        mapping = [kept if x == merged else x for x in mapping]
        mapping = [x - 1 if x > merged else x for x in mapping]
    quotient = Graph(doc["final_vertices"], [tuple(e) for e in doc["final_edges"]])
    GraphHom(g, quotient, tuple(mapping))  # raises on a non-homomorphism


def test_fold_command_on_the_committed_7_cycle(capsys):
    # the input and the answer of the CI smoke test
    path = os.path.join(os.path.dirname(__file__), "data", "c7.el")
    code, report = run_cli(["fold", "--graph", path, "--forbid", "5", "--seed", "3"])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["final_vertices"] == 3


def test_experiment_dhom_deterministic(capsys):
    argv = [
        "experiment-dhom", "--n", "2", "--r", "2",
        "--N-list", "40,80", "--seeds", "1,2",
        "--fold-budget", "20000",
    ]
    code1, rep1 = run_cli(argv)
    code2, rep2 = run_cli(argv)
    capsys.readouterr()
    assert code1 == code2 == 0
    assert strip_timing(rep1) == strip_timing(rep2)
    assert json.dumps(strip_timing(rep1), sort_keys=True) == json.dumps(
        strip_timing(rep2), sort_keys=True
    )
    runs = rep1["results"]["runs"]
    assert len(runs) == 4
    assert all(r["short_odd_cycle_free"] for r in runs)


def test_experiment_dhom_degenerate_single_pair(capsys):
    code, report = run_cli(
        ["experiment-dhom", "--n", "2", "--r", "2", "--N-list", "1", "--seeds", "5"]
    )
    capsys.readouterr()
    assert code == 0
    run = report["results"]["runs"][0]
    assert run["vertices"] == 2
    assert run["min_degree_ratio"] == 0.0


def test_closure_ncomplex_invariants_commands(tmp_path, capsys):
    gp = write_graph(tmp_path, "k4.el", complete(4))
    code, report = run_cli(["closure", "--graph", gp])
    assert code == 0 and report["results"]["classes"] == 1
    code, report = run_cli(["ncomplex", "--graph", gp])
    assert code == 0 and report["results"]["maximal_faces"] == 4
    code, report = run_cli(["invariants", "--graph", gp, "--walk", "0,1,2,0"])
    capsys.readouterr()
    assert code == 0
    assert report["results"]["odd_classes"] == [0]


def test_closure_command_lists_class_edges_only_for_a_dump(tmp_path, monkeypatch):
    # C5 plus a disjoint square: five one-edge classes, then the square's
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8), (8, 5)])
    gp = write_graph(tmp_path, "g.el", g)
    listed = []
    edge_lists = ClosurePartition._edge_lists
    monkeypatch.setattr(
        ClosurePartition, "_edge_lists", lambda part: listed.append(part) or edge_lists(part)
    )
    code, report = run_cli(["closure", "--graph", gp, "--json", str(tmp_path / "a.json")])
    assert code == 0 and report["results"]["class_sizes"] == [4, 1, 1, 1, 1, 1]
    assert not listed  # the sizes come from the labels
    dump = tmp_path / "dump.txt"
    code, _ = run_cli(
        ["closure", "--graph", gp, "--out", str(dump), "--json", str(tmp_path / "b.json")]
    )
    assert code == 0 and len(listed) == 1
    assert dump.read_text().splitlines()[-1] == "class 5: 5-6 5-8 6-7 7-8"


def test_invariants_command_with_hom_file(tmp_path, capsys):
    gp = write_graph(tmp_path, "c10.el", cycle(10))
    hp = write_graph(tmp_path, "c5.el", cycle(5))
    hom = tmp_path / "wrap.map"
    hom.write_text("".join(f"{v} -> {v % 5}\n" for v in range(10)))
    code, report = run_cli(
        [
            "invariants", "--graph", gp, "--target", hp, "--hom", str(hom),
            "--walk", ",".join(map(str, list(range(10)) + [0])),
        ]
    )
    capsys.readouterr()
    assert code == 0
    # the wrap-around map leaves ten singleton classes, each hit once
    assert report["results"]["classes"] == 10
    assert report["results"]["odd_classes"] == list(range(10))
