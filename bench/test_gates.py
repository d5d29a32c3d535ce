"""Self-tests of the benchmark's gates: bad output must count as failed.

    python3 -m pytest bench/test_gates.py

They use the program in this checkout for real outputs, then corrupt
them; they do not time anything.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import subprocess
from pathlib import Path

import checks
import cli_cold
import metrics
import worker
import workloads

pc = worker.import_program()


def judge_for(workload: str) -> worker.Judge:
    return worker.Judge(workload, worker.load_reference(workload)["items"])


def item(workload: str, key: str) -> workloads.Item:
    pool = {
        "claims_sweep": workloads.claims_grid,
        "construct_grid": workloads.constructor_grid,
        "decide_files": workloads.decide_pool,
    }[workload]()
    return next(i for i in pool if i.key == key)


def corrupt(labeling):
    """Swap the indices of two vertices of different parity: still valid, no longer cordial."""
    a = dict(labeling.assignment)
    par = checks.index_parities(labeling.domain_max)
    u = next(v for v in a if par[a[v]] == 0)
    w = next(v for v in a if par[a[v]] == 1 and v > u)
    a[u], a[w] = a[w], a[u]
    return dataclasses.replace(labeling, assignment=a)


def test_real_outputs_pass():
    for workload, key in (
        ("claims_sweep", "cycle:22"),
        ("claims_sweep", "complete:51"),
        ("construct_grid", "jellyfish:0x39"),
        ("construct_grid", "complete_bipartite:40x7"),
        ("decide_files", "gnp:3"),
        ("decide_files", "planted:17:0"),
    ):
        it = item(workload, key)
        assert judge_for(workload).judge(it, worker.call(pc, workload, it))[0] is None, key


def test_corrupted_witness_fails():
    it = item("construct_grid", "wheel:20")
    got = worker.call(pc, "construct_grid", it)
    bad = dataclasses.replace(got, labeling=corrupt(got.labeling))
    assert "not cordial" in judge_for("construct_grid").judge(it, bad)[0]

    it = item("claims_sweep", "path:12")
    row = worker.call(pc, "claims_sweep", it)
    a = dict(row.witness.assignment)
    a[0] = row.witness.domain_max + 1
    bad = dataclasses.replace(row, witness=dataclasses.replace(row.witness, assignment=a))
    assert "outside" in judge_for("claims_sweep").judge(it, bad)[0]

    it = item("decide_files", "gnp:5")
    feasible, text = worker.call(pc, "decide_files", it)
    doc = json.loads(text)
    doc["assignment"][1]["index"] = doc["assignment"][0]["index"]
    assert "twice" in judge_for("decide_files").judge(it, (feasible, json.dumps(doc)))[0]


def test_flipped_verdict_fails():
    it = item("construct_grid", "path:9")
    assert judge_for("construct_grid").judge(it, pc.Infeasible("flipped"))[0] is not None

    it = item("decide_files", "planted:20:3")
    assert judge_for("decide_files").judge(it, (True, None))[0] is not None

    it = item("claims_sweep", "complete:36")
    row = worker.call(pc, "claims_sweep", it)
    flipped = dataclasses.replace(row, tool_verdict=False, witness=None, agree=False)
    assert judge_for("claims_sweep").judge(it, flipped)[0] is not None


def test_infeasible_verdict_is_checked_without_the_reference():
    # a reference that agrees with a wrong "infeasible" still fails on brute force
    it = item("construct_grid", "bistar:3x4")
    judge = worker.Judge("construct_grid", {it.key: [False, None]})
    assert "brute force" in judge.judge(it, pc.Infeasible("wrong"))[0]


def test_claims_summary_is_gated():
    rows = [worker.call(pc, "claims_sweep", i) for i in workloads.claims_grid()[:40]]
    counts = worker.claims_counts(rows)
    assert counts["claims.rows"] == 40
    assert counts["claims.rows"] != worker.load_reference("claims_sweep")["summary"]["claims.rows"]


def test_exception_counts_as_failed():
    it = item("construct_grid", "path:9")
    assert "raised" in judge_for("construct_grid").judge(it, ValueError("boom"))[0]


def _cli(case, wdir: Path, argv):
    return subprocess.run(
        [worker.sys.executable, "-m", "perrin_cordial", *argv], cwd=wdir,
        env=cli_cold.child_env(worker.ROOT), capture_output=True, text=True,
    )


def test_cli_exit_code_and_files_are_checked(tmp_path):
    case = workloads.cli_pool()[0]
    for step, argv in cli_cold.steps(case):
        proc = _cli(case, tmp_path, argv)
        assert cli_cold.check_step(step, case, proc, tmp_path, {})[0] is None, step
    wrong = subprocess.CompletedProcess(proc.args, 1, proc.stdout, "")
    assert "exit code 1" in cli_cold.check_step("export-dot", case, wrong, tmp_path, {})[0]
    (tmp_path / "w.json").write_text(json.dumps({"domain_max": 0, "assignment": []}))
    ok = subprocess.CompletedProcess(proc.args, 0, "feasible\n", "")
    assert cli_cold.check_step("decide", case, ok, tmp_path, {})[0] is not None


def test_brute_force_matches_plain_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < rng.random()]
        plain = any(
            abs(len(edges) - 2 * sum((u in s) != (v in s) for u, v in edges)) <= 1
            for k in checks.admissible_even_sizes(n)
            for s in map(set, itertools.combinations(range(n), k))
        )
        assert checks.brute_force_feasible(n, edges) == plain, (n, edges)


def test_planted_graphs_carry_the_certificate():
    for it in workloads.decide_pool():
        if it.planted:
            assert checks.parity_certificate(*it.edges()), it.key


def test_seed_fixes_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.items_for(w, 3), workloads.items_for(w, 3)
        assert [(i.key, i.text) for i in a] == [(i.key, i.text) for i in b]
    assert [i.key for i in workloads.items_for("decide_files", 3)] != [
        i.key for i in workloads.items_for("decide_files", 4)
    ]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [worker.sys.executable, "bench/run.py", "--workload", "decide_files", "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=worker.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    got = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(got) == [name for name, *_ in metrics.PER_LAYER]
    items = len(workloads.items_for("decide_files", 5))
    assert got["oracle.exhaustive.calls"] == got["graph_io.read_graph.calls"] == items


def test_malformed_output_counts_as_failed():
    it = item("decide_files", "gnp:5")
    bad = json.dumps({"domain_max": it.edges()[0], "assignment": [{"vertex": "0", "index": 1}]})
    assert "malformed" in judge_for("decide_files").judge(it, (True, bad))[0]
    assert judge_for("construct_grid").judge(item("construct_grid", "path:9"), object())[0] is not None
