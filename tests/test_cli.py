"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from perrin_cordial import (
    FamilySpec,
    Infeasible,
    construct,
    export_dot,
    feasible_even_counts,
    generate,
    write_graph,
    write_labeling,
)
from perrin_cordial.cli import main


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "perrin_cordial", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_seq_tsv():
    r = run_cli("seq", "--upto", "6", "--parity")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "0\t0\teven"
    assert lines[1] == "1\t3\todd"
    assert lines[6] == "6\t5\todd"


def test_seq_without_parity_column():
    r = run_cli("seq", "--upto", "2")
    assert r.stdout.strip().split("\n") == ["0\t0", "1\t3", "2\t0"]


def test_seq_rejects_negative_upto():
    r = run_cli("seq", "--upto", "-3")
    assert r.returncode == 2
    assert r.stdout == "" and "--upto" in r.stderr


def test_seq_rejects_upto_past_the_bound():
    # one past the documented bound: rejected up front, though its terms would print
    r = run_cli("seq", "--upto", "10001")
    assert r.returncode == 2
    assert r.stdout == "" and "10000" in r.stderr


def test_gen_label_verify_chain(tmp_path):
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    assert run_cli("gen", "path", "10", "--out", str(g)).returncode == 0
    assert run_cli("label", "path", "10", "--json", str(f)).returncode == 0
    r = run_cli("verify", "--graph", str(g), "--labeling", str(f))
    assert r.returncode == 0
    assert "cordial=true" in r.stdout


def test_gen_writes_schema(tmp_path):
    out = tmp_path / "w.json"
    run_cli("gen", "wheel", "5", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["vertex_count"] == 6
    assert "roles" not in doc
    assert doc["family"] == {"name": "wheel", "params": [5]}


def test_label_infeasible_exit_code():
    r = run_cli("label", "cycle", "6")
    assert r.returncode == 1
    assert "infeasible" in r.stderr


def test_verify_not_cordial_exit_code(tmp_path):
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    run_cli("gen", "path", "5", "--out", str(g))
    # valid labeling, imbalance +2: evens on 0..3, odd on 4
    f.write_text(
        json.dumps(
            {
                "domain_max": 5,
                "assignment": [
                    {"vertex": 0, "index": 0},
                    {"vertex": 1, "index": 2},
                    {"vertex": 2, "index": 3},
                    {"vertex": 3, "index": 5},
                    {"vertex": 4, "index": 1},
                ],
            }
        )
    )
    r = run_cli("verify", "--graph", str(g), "--labeling", str(f))
    assert r.returncode == 1
    assert "cordial=false" in r.stdout


def test_verify_invalid_exit_code(tmp_path):
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    run_cli("gen", "path", "2", "--out", str(g))
    f.write_text(
        json.dumps(
            {
                "domain_max": 2,
                "assignment": [
                    {"vertex": 0, "index": 1},
                    {"vertex": 1, "index": 1},
                ],
            }
        )
    )
    r = run_cli("verify", "--graph", str(g), "--labeling", str(f))
    assert r.returncode == 2


def test_decide_exit_codes(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "cycle", "8", "--out", str(g))
    assert run_cli("decide", "--graph", str(g)).returncode == 0
    run_cli("gen", "cycle", "6", "--out", str(g))
    assert run_cli("decide", "--graph", str(g)).returncode == 1
    run_cli("gen", "complete", "30", "--out", str(g))
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 2
    assert "capped at 24" in r.stderr


@pytest.mark.parametrize("max_n", ["60", "-1"])
def test_decide_max_n_outside_its_range_is_an_input_error(tmp_path, max_n):
    # checked before the graph is read: K_40 at --max-n 60 would search about 2.4e11 sets
    g = tmp_path / "g.json"
    g.write_text(write_graph(generate(FamilySpec("complete", (40,)))))
    r = run_cli("decide", "--graph", str(g), "--max-n", max_n)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: --max-n: must be between 0 and 28, got {max_n}\n"


def test_decide_proves_k25_to_k28_at_the_max_n_ceiling(tmp_path, capsys):
    # K_n is the slowest graph on n vertices; the class scan agrees
    for n in range(25, 29):
        g = tmp_path / f"k{n}.json"
        g.write_text(write_graph(generate(FamilySpec("complete", (n,)))))
        assert main(["decide", "--graph", str(g), "--max-n", "28"]) == 1
        k1, k2 = feasible_even_counts(n)
        out = capsys.readouterr().out
        assert out.startswith(f"infeasible\tsearched={comb(n, k1) + comb(n, k2)}\t"), out
        assert isinstance(construct(FamilySpec("complete", (n,))), Infeasible)


def test_decide_rejects_more_edges_than_a_simple_graph_has(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertex_count": 3, "edges": [[0, 1], [1, 2], [0, 2], [2, 1]]}))
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: edges: 4 listed, but a simple graph on 3 vertices has at most 3\n"


def test_decide_has_no_parallel_flag(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "cycle", "8", "--out", str(g))
    r = run_cli("decide", "--graph", str(g), "--parallel")
    assert r.returncode == 2
    assert "--parallel" in r.stderr


def test_decide_parity_certificate_needs_no_cap(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen", "cycle", "30", "--out", str(g))
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 1
    assert r.stdout.startswith("infeasible\tsearched=0\t")
    assert "parity" in r.stdout


def test_decide_witness_output(tmp_path):
    g = tmp_path / "g.json"
    w = tmp_path / "w.json"
    run_cli("gen", "friendship", "3", "--out", str(g))
    r = run_cli("decide", "--graph", str(g), "--witness", "--out", str(w))
    assert r.returncode == 0
    doc = json.loads(w.read_text())
    assert doc["domain_max"] == 7
    rv = run_cli("verify", "--graph", str(g), "--labeling", str(w))
    assert rv.returncode == 0


def test_decide_out_without_witness_is_an_input_error(tmp_path):
    g = tmp_path / "g.json"
    w = tmp_path / "w.json"
    run_cli("gen", "friendship", "3", "--out", str(g))
    r = run_cli("decide", "--graph", str(g), "--out", str(w))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: --out: ") and "--witness" in r.stderr
    assert not w.exists()


def test_export_dot_byte_stable(tmp_path):
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    run_cli("gen", "triangular_snake", "4", "--out", str(g))
    run_cli("label", "triangular_snake", "4", "--json", str(f))
    a = run_cli("export-dot", "--graph", str(g), "--labeling", str(f))
    b = run_cli("export-dot", "--graph", str(g), "--labeling", str(f))
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("graph {")


def test_export_dot_rejects_an_invalid_labeling(tmp_path):
    # P_0 twice: the check runs once, in the CLI, before any line is written
    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    out = tmp_path / "x.dot"
    g.write_text(write_graph(generate(FamilySpec("path", (3,)))))
    f.write_text('{"domain_max": 3, "assignment": [{"vertex": 0, "index": 0}, '
                 '{"vertex": 1, "index": 0}, {"vertex": 2, "index": 1}]}')
    r = run_cli("export-dot", "--graph", str(g), "--labeling", str(f), "--out", str(out))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "invalid: labeling is not valid for this graph\n"
    assert not out.exists()


def test_label_dot_output(tmp_path):
    # label --dot writes its lines as they are made; the file is export_dot's
    # text, for a class-scan and a block-walk construction
    dot = tmp_path / "x.dot"
    for family, params in (("star", (5,)), ("wheel", (9,))):
        r = run_cli("label", family, *map(str, params), "--dot", str(dot))
        assert r.returncode == 0
        spec = FamilySpec(family, params)
        assert dot.read_bytes() == export_dot(generate(spec), construct(spec).labeling).encode()


def test_sweep_csv(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("sweep", "cycle", "--range", "3:12", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("family,params,paper_verdict")
    assert len(lines) == 11
    assert "cycle,6,false,false,parity,true," in lines


def test_sweep_markdown_and_witness_dir(tmp_path):
    out = tmp_path / "rows.md"
    wdir = tmp_path / "wit"
    r = run_cli(
        "sweep", "star", "--range", "24:26", "--format", "md",
        "--out", str(out), "--witness-dir", str(wdir),
    )
    assert r.returncode == 0
    text = out.read_text()
    assert "| star | 25 | false | true | analytic | false |" in text
    assert (wdir / "star_25.json").exists()


def test_sweep_two_parameter_range(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("sweep", "bistar", "--range", "1:2", "1:2", "--out", str(out))
    assert r.returncode == 0
    assert len(out.read_text().strip().split("\n")) == 5


@pytest.mark.parametrize("token", ["5:3", "5", "a:7", "3:", "1:2:3"])
def test_sweep_rejects_a_malformed_range(token):
    r = run_cli("sweep", "cycle", "--range", token)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: --range: expected LO:HI with integers LO <= HI, got {token!r}\n"


@pytest.mark.parametrize(
    "family,spans", [("cycle", ["3:100003"]), ("bistar", ["1:100000", "1:100000"])]
)
def test_sweep_rejects_a_range_past_the_bound(family, spans):
    # rejected before the grid is listed: 100,000 points is the bound
    r = run_cli("sweep", family, "--range", *spans)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: --range: covers more than 100000 grid points\n"


def test_sweep_all_rejects_a_range(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("sweep", "all", "--range", "1:3", "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: --range: ") and "single family" in r.stderr
    assert not out.exists()


def test_sweep_range_without_spans_is_an_input_error(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("sweep", "cycle", "--range", "--out", str(out))
    assert r.returncode == 2
    assert "argument --range: expected at least one argument" in r.stderr
    assert not out.exists()


def test_sweep_has_no_max_n_flag():
    r = run_cli("sweep", "cycle", "--max-n", "6")
    assert r.returncode == 2
    assert "--max-n" in r.stderr


def test_sweep_unknown_family_is_an_input_error():
    r = run_cli("sweep", "torus")
    assert r.returncode == 2
    assert r.stderr == "error: unknown family 'torus'\n"


def test_sweep_bad_grid_point_is_an_input_error():
    r = run_cli("sweep", "bistar", "--range", "1:2")
    assert r.returncode == 2
    assert r.stderr.startswith("error: bistar takes 2 parameter(s)")


def test_a_family_graph_past_the_edge_bound_is_an_input_error():
    # the count comes from the parameters, so nothing is allocated first; label
    # streams its edges, but the bound still holds before its walk starts
    for command in ("gen", "label"):
        t = time.perf_counter()
        r = run_cli(command, "path", "100000000")
        assert time.perf_counter() - t < 10
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: path(100000000,) has 99,999,999 edges, over the 5,000,000 limit\n"


def test_a_class_scan_that_builds_no_graph_has_no_edge_bound():
    # K_1000000 has about 5e11 edges, but its scan proves it infeasible unbuilt
    r = run_cli("label", "complete", "1000000")
    assert r.returncode == 1
    assert r.stderr.startswith("infeasible: complete(1000000): none of 2 even-count vectors")


def test_a_class_family_past_the_edge_bound_exits_by_its_verdict():
    # infeasible: proven at any size (exit 1); feasible: the gate refuses the hit (exit 2)
    r = run_cli("label", "complete", "3163")
    assert r.returncode == 1
    assert r.stderr.startswith("infeasible: complete(3163): none of 2 even-count vectors")
    r = run_cli("label", "complete_bipartite", "3000", "3000")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: complete_bipartite(3000, 3000) has 9,000,000 edges, over the 5,000,000 limit\n"


def test_bad_parameters_exit_code():
    assert run_cli("gen", "cycle", "2").returncode == 2
    assert run_cli("gen", "nonsense", "3").returncode == 2


def test_malformed_file_exit_code(tmp_path):
    g = tmp_path / "bad.json"
    g.write_text("{not json")
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 2
    assert "error:" in r.stderr


@pytest.mark.parametrize("params", ["5", "null", "true"])
def test_family_params_that_are_not_a_list_are_an_input_error(tmp_path, params):
    g = tmp_path / "g.json"
    g.write_text('{"vertex_count": 2, "edges": [[0, 1]], "family": {"name": "path", "params": %s}}' % params)
    for args in (("decide", "--graph", str(g)), ("verify", "--graph", str(g), "--labeling", str(g))):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert r.stdout == ""
        assert r.stderr.startswith("error: family.params: expected a list of integers"), r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["seq", "--upto", "3", "--out", "{bad}"],
        ["gen", "path", "3", "--out", "{bad}"],
        ["label", "path", "5", "--json", "{bad}"],
        ["label", "path", "5", "--dot", "{bad}"],
        ["decide", "--graph", "{graph}", "--witness", "--out", "{bad}"],
        ["export-dot", "--graph", "{graph}", "--labeling", "{labeling}", "--out", "{bad}"],
        ["sweep", "cycle", "--range", "3:5", "--out", "{bad}"],
        ["sweep", "cycle", "--range", "3:5", "--witness-dir", "{bad}"],
    ],
    ids=lambda args: f"{args[0]} {args[-2]}",
)
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, args):
    # exit 1 means infeasible or not cordial, so a failed write must not end there
    spec = FamilySpec("path", (5,))
    graph, labeling = tmp_path / "g.json", tmp_path / "f.json"
    graph.write_text(write_graph(generate(spec)))
    labeling.write_text(write_labeling(construct(spec).labeling))
    (tmp_path / "file").write_text("")
    bad = tmp_path / "file" / "out"
    code = main([a.format(bad=bad, graph=graph, labeling=labeling) for a in args])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write: ")


def test_family_alias():
    r = run_cli("label", "ts", "4")
    assert r.returncode == 0


def test_decide_rejects_a_huge_vertex_count(tmp_path):
    # far past the bound, so the check must come before any per-vertex allocation
    g = tmp_path / "g.json"
    g.write_text('{"vertex_count": 1000000000000, "edges": []}')
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "vertex_count" in r.stderr and "10000000" in r.stderr
