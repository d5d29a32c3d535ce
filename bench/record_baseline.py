"""Rewrite reference.json from the program in this checkout.

    python3 bench/record_baseline.py

For every input any seed can draw it records the verdict, the paper's
verdict (claims rows) and a digest of the witness bytes.  Each verdict is
first confirmed by the benchmark's own checks (witness tally, parity
certificate, brute force); nothing is written if one fails.  The digests
are the baseline that <workload>.witness_changed counts against, so
rewrite the file only when witness bytes change on purpose.
"""

from __future__ import annotations

import json
import sys
import time

import cli_cold
import worker
import workloads

SUMMARY = ("claims.rows", "claims.undecided", "claims.disagreements", "claims.silent")


def in_process(pc, workload: str, items) -> dict:
    outs = [worker.call(pc, workload, item) for item in items]
    judge = worker.Judge(workload, {})
    for item, out in zip(items, outs):
        tool, _, _, dig, paper, _ = judge.normalize(out)
        judge.reference[item.key] = [tool, paper, dig] if workload == "claims_sweep" else [tool, dig]
    bad = {item.key: judge.judge(item, out)[0] for item, out in zip(items, outs)}
    bad = {k: v for k, v in bad.items() if v is not None}
    if bad:
        raise SystemExit(f"{workload}: {len(bad)} outputs fail the checks, e.g. {next(iter(bad.items()))}")
    section = {"items": judge.reference}
    if workload == "claims_sweep":
        counts = worker.claims_counts(outs)
        section["summary"] = {name: counts[name] for name in SUMMARY}
    return section


def main() -> int:
    pc = worker.import_program()
    ref = {
        "claims_sweep": in_process(pc, "claims_sweep", workloads.claims_grid()),
        "construct_grid": in_process(pc, "construct_grid", workloads.constructor_grid()),
        "decide_files": in_process(pc, "decide_files", workloads.decide_pool()),
    }
    workdir = worker.ROOT / ".bench_out" / "baseline"
    rec = cli_cold.run_pass(
        workloads.cli_pool(), workdir, cli_cold.child_env(worker.ROOT), False, time.perf_counter() + 600, {}
    )
    if rec["failed"]:
        raise SystemExit(f"cli_cold: {len(rec['failed'])} steps fail the checks, e.g. {next(iter(rec['failed'].items()))}")
    ref["cli_cold"] = {"items": rec["digests"]}

    parts = []
    for workload, section in ref.items():
        items = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(section["items"].items()))
        summary = f'"summary": {json.dumps(section["summary"])}, ' if "summary" in section else ""
        parts.append(f'{json.dumps(workload)}: {{{summary}"items": {{\n{items}\n}}}}')
    (worker.BENCH / "reference.json").write_text("{\n" + ",\n".join(parts) + "\n}\n")
    for workload, section in ref.items():
        print(workload, len(section["items"]), section.get("summary", ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
