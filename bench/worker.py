"""One in-process workload, run in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE [--setup-only]

It times the import of perrin_cordial plus one untimed warm-up item
(set-up), then runs whole passes over the seed's items until the time is
spent, and appends one JSON object per line to FILE: the set-up record,
one record per pass (latency of every item, failed items, per-layer
totals when traced) and a closing record.  Every output is checked by
code in checks.py after the pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

import checks
import schedule
import metrics
import workloads
from spans import Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_reference(workload: str) -> dict:
    """{"items": {key: [verdict, ..., witness digest]}, "summary": {count: value}}."""
    return json.loads((BENCH / "reference.json").read_text())[workload]


def digest(data: str) -> str:
    return hashlib.sha1(data.encode()).hexdigest()[:12]


def labeling_bytes(f) -> str:
    """Canonical bytes of a labeling object: domain_max, then indices by vertex."""
    return json.dumps([f.domain_max, [f.assignment[v] for v in sorted(f.assignment)]])


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    pc = importlib.import_module("perrin_cordial")
    if not Path(pc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perrin_cordial was imported from {pc.__file__}, not from the checkout")
    return pc


def call(pc, workload: str, item: workloads.Item):
    """One item through the program's public API; looks names up on each call."""
    if workload == "claims_sweep":
        (row,) = pc.sweep(pc.claim_for(item.family), [item.params])
        return row
    if workload == "construct_grid":
        return pc.construct(pc.FamilySpec(item.family, item.params))
    g = pc.read_graph(item.text)
    verdict = pc.decide_exhaustive(g, pc.SearchConfig(want_witness=True))
    return verdict.feasible, pc.write_labeling(verdict.witness) if verdict.feasible else None


def warm_up(pc, workload: str) -> None:
    if workload == "cli_cold":
        cli = importlib.import_module("perrin_cordial.cli")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["seq", "--upto", "10", "--parity"])
    elif workload == "decide_files":
        call(pc, workload, workloads.gnp_graph(0))
    else:
        call(pc, workload, workloads.WARM_UP[workload])


class Judge:
    """Checks outputs against the benchmark's own checks and the reference.

    A (item, output digest) pair is judged once per run; the same output
    bytes on a later pass get the same verdict.
    """

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.memo: dict[tuple, str | None] = {}

    def normalize(self, out) -> tuple:
        """(tool verdict, domain_max, (vertex, index) pairs, witness digest, paper verdict, agree)."""
        if self.workload == "claims_sweep":
            f = out.witness
            pairs = sorted(f.assignment.items()) if f is not None else None
            dig = digest(labeling_bytes(f)) if f is not None else None
            return out.tool_verdict, f and f.domain_max, pairs, dig, out.paper_verdict, out.agree
        if self.workload == "construct_grid":
            f = getattr(out, "labeling", None)
            if f is None:
                return False, None, None, None, None, None
            return True, f.domain_max, sorted(f.assignment.items()), digest(labeling_bytes(f)), None, None
        feasible, text = out
        if text is None:
            return feasible, None, None, None, None, None
        doc = json.loads(text)
        pairs = [(e["vertex"], e["index"]) for e in doc["assignment"]]
        return feasible, doc["domain_max"], pairs, digest(text), None, None

    def judge(self, item: workloads.Item, out) -> tuple[str | None, str | None]:
        """(failure reason or None, witness digest or None) for one output."""
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}", None
        try:
            tool, domain_max, pairs, dig, paper, agree = self.normalize(out)
            memo_key = (item.key, tool, dig, paper, agree)
            if memo_key not in self.memo:
                self.memo[memo_key] = self._judge(item, tool, domain_max, pairs, paper, agree)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}", None
        return self.memo[memo_key], dig

    def _judge(self, item, tool, domain_max, pairs, paper, agree) -> str | None:
        ref = self.reference.get(item.key)
        if ref is None:
            return "input missing from reference.json"
        if tool is not ref[0]:
            return f"verdict {tool} differs from reference {ref[0]}"
        if self.workload == "claims_sweep":
            if paper is not ref[1]:
                return f"paper verdict {paper} differs from reference {ref[1]}"
            if agree is not (None if paper is None else paper == tool):
                return f"agree={agree} is inconsistent with the verdicts"
        n, edges = item.edges()
        if tool:
            if pairs is None:
                return "feasible without a witness"
            return checks.labeling_error(n, edges, domain_max, pairs)
        if checks.parity_certificate(n, edges):
            return None
        if item.planted:
            return "planted graph lacks its certificate"
        if checks.brute_force_feasible(n, edges):
            return "infeasible verdict, but brute force finds a cordial pattern"
        return None


def claims_counts(rows) -> dict[str, int]:
    """Summary counts of sweep rows; anything that is not a row is left out."""
    fields = ("tool_verdict", "paper_verdict", "agree", "decider")
    ok = [r for r in rows if all(hasattr(r, f) for f in fields)]
    counts = {
        "claims.rows": len(ok),
        "claims.disagreements": sum(1 for r in ok if r.agree is False),
        "claims.undecided": sum(1 for r in ok if r.tool_verdict is None),
        "claims.silent": sum(1 for r in ok if r.paper_verdict is None),
    }
    for d in metrics.DECIDERS:
        counts[f"claims.rows.{d}"] = sum(1 for r in ok if r.decider == d)
    counts["claims.rows.other"] = sum(1 for r in ok if r.decider not in metrics.DECIDERS)
    return counts


def run_pass(pc, workload, items, tracer):
    outs, lats = [], []
    clock = time.perf_counter
    gc.collect()
    t_pass = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = call(pc, workload, item)
        except Exception as exc:  # a failing item is counted and the run goes on
            out = exc
        lats.append(clock() - t0)
        outs.append(out)
    return clock() - t_pass, lats, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.out, "a", buffering=1) as out:
        measure(args, lambda record: out.write(json.dumps(record) + "\n"))
    return 0


def measure(args, emit) -> None:
    t_in = time.perf_counter()
    items = [] if args.setup_only else workloads.items_for(args.workload, args.seed)
    reference = {"items": {}} if args.setup_only else load_reference(args.workload)
    input_s = time.perf_counter() - t_in

    t0 = time.perf_counter()
    pc = import_program()
    warm_up(pc, args.workload)
    emit({"setup_s": time.perf_counter() - t0, "input_s": input_s})
    if args.setup_only:
        return

    judge = Judge(args.workload, reference["items"])
    baseline_changed = None
    tracer = Tracer()
    for phase, budget in schedule.phases(args.seconds, args.trace):
        walls = []
        end = time.perf_counter() + budget
        if phase == "traced":
            tracer.install()
        while schedule.more_passes(walls, phase, end):
            first_span = len(tracer.spans)
            schedule.pin(len(walls))
            wall, lats, outs = run_pass(pc, args.workload, items, tracer if phase == "traced" else None)
            walls.append(wall)
            failed, digests = {}, []
            for item, o in zip(items, outs):
                reason, dig = judge.judge(item, o)
                digests.append(dig)
                if reason is not None:
                    failed[item.key] = reason
            record = {"phase": phase, "wall_s": wall, "lat": lats, "failed": failed}
            if args.workload == "claims_sweep":
                counts = claims_counts(outs)
                for name, want in reference["summary"].items():
                    if counts[name] != want:
                        failed[f"summary:{name}"] = f"{counts[name]} rows, reference has {want}"
                record["counts"] = counts
            if phase == "traced":
                spans = tracer.spans[first_span:]
                layers = metrics.layer_metrics(layer_totals(spans, first_span))
                layers["trace.spans"] = len(spans)
                record["layers"] = layers
            if baseline_changed is None:
                record["digests"] = {item.key: d for item, d in zip(items, digests)}
                baseline_changed = sum(
                    1 for item, d in zip(items, digests) if d != reference["items"].get(item.key, [None])[-1]
                )
            emit(record)
        if phase == "traced":
            tracer.uninstall()
    spans_file = None
    if args.trace:
        spans_file = str(Path(args.out).with_name("spans.jsonl.gz"))
        tracer.write(spans_file)
    emit({"done": True, "witness_changed": baseline_changed, "spans_file": spans_file})


if __name__ == "__main__":
    sys.exit(main())
