"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path


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
    assert doc["roles"]["0"] == "hub"
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


def test_label_dot_output(tmp_path):
    dot = tmp_path / "x.dot"
    r = run_cli("label", "star", "5", "--dot", str(dot))
    assert r.returncode == 0
    assert dot.read_text().startswith("graph {")


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


def test_bad_parameters_exit_code():
    assert run_cli("gen", "cycle", "2").returncode == 2
    assert run_cli("gen", "nonsense", "3").returncode == 2


def test_malformed_file_exit_code(tmp_path):
    g = tmp_path / "bad.json"
    g.write_text("{not json")
    r = run_cli("decide", "--graph", str(g))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_family_alias():
    r = run_cli("label", "ts", "4")
    assert r.returncode == 0
