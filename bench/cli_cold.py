"""The cli_cold workload: a fixed sequence of fresh `python -m perrin_cordial` processes.

Each case (a small feasible family graph drawn by the seed) runs the
seven subcommands in order, passing files between them as a user would.
run.py calls run_pass() itself, so only one CLI process is alive at a
time next to it.  Every process's exit code and output files are checked
here against checks.py.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

STEP_TIMEOUT_S = 30.0


def _seq_upto(case: workloads.Item) -> int:
    return 20 + 3 * sum(case.params)


def steps(case: workloads.Item) -> list[tuple[str, list[str]]]:
    fam, params = case.family, [str(p) for p in case.params]
    return [
        ("seq", ["seq", "--upto", str(_seq_upto(case)), "--parity"]),
        ("gen", ["gen", fam, *params, "--out", "g.json"]),
        ("label", ["label", fam, *params, "--json", "f.json", "--dot", "f.dot"]),
        ("verify", ["verify", "--graph", "g.json", "--labeling", "f.json"]),
        ("decide", ["decide", "--graph", "g.json", "--witness", "--out", "w.json"]),
        ("sweep", ["sweep", fam, "--range", *workloads.CLI_SWEEP_RANGE[fam], "--out", "s.csv"]),
        ("export-dot", ["export-dot", "--graph", "g.json", "--labeling", "f.json", "--out", "e.dot"]),
    ]


def _labeling(case, path: Path) -> tuple[str | None, list[int] | None]:
    """(failure, indices by vertex) of a labeling file for the case's graph."""
    n, edges = case.edges()
    doc = json.loads(path.read_text())
    pairs = [(e["vertex"], e["index"]) for e in doc["assignment"]]
    err = checks.labeling_error(n, edges, doc["domain_max"], pairs)
    return err, [i for _, i in sorted(pairs)]


def _tally_line(case, indices) -> str:
    e0, e1 = checks.edge_tally(*case.edges(), indices)
    return f"e0={e0}\te1={e1}\tepsilon={e0 - e1}"


def _sweep_grid(case) -> list[tuple[int, ...]]:
    bounds = (t.partition(":") for t in workloads.CLI_SWEEP_RANGE[case.family])
    spans = [range(int(lo), int(hi) + 1) for lo, _, hi in bounds]
    if len(spans) == 1:
        return [(n,) for n in spans[0]]
    return sorted((m, n) for m in spans[0] for n in spans[1])


def check_step(step: str, case: workloads.Item, proc, wdir: Path, proofs: dict) -> tuple[str | None, str | None]:
    """(failure or None, witness digest or None) of one finished process."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}", None
    n, edges = case.edges()
    out = proc.stdout
    if step == "seq":
        values = checks.sequence_values(_seq_upto(case))
        want = [f"{i}\t{v}\t{'odd' if v % 2 else 'even'}" for i, v in enumerate(values)]
        return (None if out.splitlines() == want else "sequence table differs"), None
    if step == "gen":
        doc = json.loads((wdir / "g.json").read_text())
        got = sorted(tuple(sorted(e)) for e in doc["edges"])
        fam = doc.get("family") or {}
        same = doc["vertex_count"] == n and got == sorted(edges)
        same = same and fam.get("name") == case.family and tuple(fam.get("params", ())) == case.params
        return (None if same else "generated graph differs"), None
    if step in ("label", "decide"):
        path = wdir / ("f.json" if step == "label" else "w.json")
        err, indices = _labeling(case, path)
        if err is None and step == "label":
            if not (wdir / "f.dot").is_file():
                err = "label wrote no DOT file"
            elif out.splitlines()[0] != "feasible\t" + _tally_line(case, indices):
                err = f"label printed {out.splitlines()[0]!r}"
        if err is None and step == "decide" and not out.startswith("feasible"):
            err = f"decide printed {out!r}"
        return err, hashlib.sha1(path.read_bytes()).hexdigest()[:12]
    if step == "verify":
        _, indices = _labeling(case, wdir / "f.json")
        want = _tally_line(case, indices) + "\tcordial=true"
        return (None if out.strip() == want else f"verify printed {out.strip()!r}"), None
    if step == "sweep":
        rows = list(csv.DictReader((wdir / "s.csv").read_text().splitlines()))
        grid = _sweep_grid(case)
        if len(rows) != len(grid):
            return f"sweep wrote {len(rows)} rows for {len(grid)} grid points", None
        for row, params in zip(rows, grid):
            key = workloads.family_key(case.family, params)
            if key not in proofs:
                proofs[key] = checks.brute_force_feasible(*checks.family_graph(case.family, params))
            if row["tool_verdict"] != ("true" if proofs[key] else "false"):
                return f"sweep row {key} says {row['tool_verdict']}", None
        return None, None
    # export-dot: one line per vertex and per edge, coloured by parity
    _, indices = _labeling(case, wdir / "f.json")
    par = checks.index_parities(n)
    color = ["red" if par[i] == 0 else "black" for i in indices]
    want = [f'  {v} [label="P_{indices[v]}" color={color[v]} fontcolor={color[v]}];' for v in range(n)]
    want += [f"  {u} -- {v} [color={'red' if color[u] == color[v] else 'black'}];" for u, v in sorted(edges)]
    lines = (wdir / "e.dot").read_text().splitlines()
    return (None if lines[2:-1] == want else "DOT rendering differs"), None


def import_ms(stderr: str) -> float:
    """Cumulative import time of perrin_cordial and its CLI, from -X importtime."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = line.split("|")
            if name[1:2] != " " and name.strip() in ("perrin_cordial", "perrin_cordial.cli"):
                total_us += int(cumulative)
    return total_us / 1000


def run_pass(cases, workdir: Path, env: dict, traced: bool, deadline: float, proofs: dict) -> dict:
    """One pass over every case, then the checks; returns a worker-style pass record."""
    lats, failed, digests, step_ms, imports, done = [], {}, {}, {}, [], []
    t_pass = time.perf_counter()
    for ci, case in enumerate(cases):
        wdir = workdir / str(ci)
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        for step, argv in steps(case):
            cmd = [sys.executable, *(["-X", "importtime"] if traced else []), "-m", "perrin_cordial", *argv]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=wdir, env=env, capture_output=True, text=True,
                    stdin=subprocess.DEVNULL, timeout=max(0.1, min(STEP_TIMEOUT_S, deadline - t0)),
                )
            except subprocess.TimeoutExpired:
                proc = None
            lats.append(time.perf_counter() - t0)
            step_ms.setdefault(step, []).append(lats[-1] * 1000)
            done.append((step, case, proc, wdir))
    wall = time.perf_counter() - t_pass
    for step, case, proc, wdir in done:
        key = f"{case.key}/{step}"
        if proc is None:
            failed[key] = "timed out"
            continue
        try:
            reason, dig = check_step(step, case, proc, wdir, proofs)
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            reason, dig = f"unreadable output: {exc!r}", None
        if reason is not None:
            failed[key] = reason
        if dig is not None:
            digests[key] = dig
        if traced:
            imports.append(import_ms(proc.stderr))
    record = {"wall_s": wall, "lat": lats, "failed": failed, "digests": digests, "step_ms": step_ms}
    if traced:
        record["import_ms"] = imports
    return record


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env
