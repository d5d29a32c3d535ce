"""Benchmark of perrin_cordial, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing beyond the standard
library and the package's sources under src/.  Workloads: claims_sweep,
construct_grid, decide_files, cli_cold (see workloads.py for why each
exists).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The line
before it holds the context (machine, calibration, tail percentile, ...).
Everything the run writes goes under .bench_out/ in the checkout,
including a full report and, for traced runs, the spans.

The in-process workloads run in one fresh interpreter (worker.py), after
which set-up is probed in six more; cli_cold starts its CLI processes
from here.  Only one of those children is alive at a time, and each is
bounded by the run's wall-clock limit: an item that hangs is killed and
counted as failed instead of stalling the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_cold
import schedule
import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, to show machine-speed drift."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def read_records(path: Path) -> list[dict]:
    """The worker's JSON lines; a last line cut short by a kill is dropped."""
    records = []
    for line in path.read_text().splitlines() if path.exists() else ():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break
    return records


def run_worker(args, out: Path, deadline: float, setup_only: bool = False) -> tuple[list[dict], bool]:
    """Run worker.py to completion or until the deadline; (records, timed_out)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return read_records(out), True
    if code != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {code}")
    return read_records(out), False


def run_cli(args, outdir: Path, deadline: float) -> list[dict]:
    """cli_cold's passes, in the same record form worker.py writes."""
    cases = workloads.items_for("cli_cold", args.seed)
    env = cli_cold.child_env(ROOT)
    proofs: dict = {}
    records = []
    for phase, budget in schedule.phases(args.seconds, args.trace):
        walls = []
        end = time.perf_counter() + budget
        while schedule.more_passes(walls, phase, end):
            schedule.pin(len(walls))
            rec = cli_cold.run_pass(cases, outdir / "cli", env, phase == "traced", deadline, proofs)
            schedule.unpin()
            rec["phase"] = phase
            records.append(rec)
            walls.append(rec["wall_s"])
            if time.perf_counter() >= deadline:
                return records
    return records


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def blocks(passes: list[dict]) -> list[list[dict]]:
    """Consecutive passes in blocks of one pass per CPU of the rotation."""
    groups = [passes[i : i + schedule.BLOCK] for i in range(0, len(passes), schedule.BLOCK)]
    if len(groups) > 1 and len(groups[-1]) < schedule.BLOCK:
        groups.pop()
    return groups


def block_median(groups: list[list[dict]], value) -> float:
    """Median over blocks of the block's mean: each block weighs every CPU equally."""
    return statistics.median(statistics.mean(value(p) for p in group) for group in groups)


def pass_wall(p: dict) -> float:
    return p["wall_s"]


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's block-median latency (items keep their order in every pass)."""
    groups = blocks(passes)
    return [block_median(groups, lambda p: p["lat"][i]) for i in range(len(passes[0]["lat"]))]


def cli_witness_changed(cases, records: list[dict], reference: dict) -> int:
    """Labeling files of the first pass whose bytes differ from the baseline."""
    got = records[0]["digests"] if records else {}
    keys = [f"{case.key}/{step}" for case in cases for step in ("label", "decide")]
    return sum(1 for k in keys if got.get(k) != reference.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "perrin_cordial" / "__init__.py").is_file():
        print(f"error: no perrin_cordial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    context.update(machine(), cpu_rotation=schedule.ROTATION)
    context["calibration_before_s"] = calibrate()

    setups: list[float] = []
    lost = 0  # items of a pass cut off by the wall-clock limit
    if args.workload == "cli_cold":
        # a CLI step that runs into the limit is killed and recorded as failed
        records = run_cli(args, outdir, deadline)
        timed_out = time.perf_counter() >= deadline
    else:
        records, timed_out = run_worker(args, outdir / "worker.jsonl", deadline)
        if timed_out:
            lost = len(workloads.items_for(args.workload, args.seed))
        setups += [r["setup_s"] for r in records if "setup_s" in r]
        context["input_s"] = next((r["input_s"] for r in records if "input_s" in r), None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    context["calibration_after_s"] = calibrate()
    if not args.trace:
        while len(setups) < SETUP_SAMPLES and not timed_out:
            probe = outdir / f"setup{len(setups)}.jsonl"
            schedule.pin(len(setups))
            got, timed_out = run_worker(args, probe, deadline, setup_only=True)
            schedule.unpin()
            setups += [r["setup_s"] for r in got if "setup_s" in r]

    plain = [r for r in records if r.get("phase") == "plain"]
    traced = [r for r in records if r.get("phase") == "traced"]
    passes = plain + traced
    attempted = sum(len(p["lat"]) for p in passes)
    failures = {k: v for p in passes for k, v in p["failed"].items()}
    failed = sum(len(p["failed"]) for p in passes)
    if timed_out:
        attempted += lost
        failed += lost
        failures["run"] = f"wall-clock limit of {RUN_LIMIT_S:.0f} s reached"
    attempted = max(attempted, 1)
    elapsed = time.perf_counter() - start

    if not args.trace:
        meds = item_latencies(plain) if plain else [elapsed]
        tail_value, tail_pct = tail(meds)
        context.update(tail_percentile=tail_pct, tail_items=len(meds), tail_beyond=TAIL_BEYOND, passes=len(plain))
        context["blocks"] = len(blocks(plain))
        values = {
            "wall_s": block_median(blocks(plain), pass_wall) if plain else elapsed,
            "item_p50_ms": statistics.median(meds) * 1000,
            "item_tail_ms": tail_value * 1000,
            "setup_s": statistics.median(setups) if setups else elapsed,
            "peak_rss_mb": peak_rss_mb,
        }
        names = [m[0] for m in metrics.END_TO_END]
    else:
        values = {name: 0 for name, *_ in metrics.PER_LAYER}
        layer_runs = [p["layers"] for p in traced if "layers" in p]
        for name in layer_runs[0] if layer_runs else ():
            values[name] = statistics.median(r[name] for r in layer_runs)
        count_runs = [p["counts"] for p in traced if "counts" in p]
        for name in count_runs[0] if count_runs else ():
            if name in values:
                values[name] = statistics.median(r[name] for r in count_runs)
        reference = json.loads((BENCH / "reference.json").read_text())[args.workload]["items"]
        if args.workload == "cli_cold":
            for step in metrics.CLI_STEPS:
                samples = [ms for p in plain for ms in p["step_ms"].get(step, [])]
                values[f"cli.{step}.ms"] = statistics.median(samples) if samples else 0
            imports = [ms for p in traced for ms in p["import_ms"]]
            values["cli.import_ms"] = statistics.median(imports) if imports else 0
            values["cli_cold.witness_changed"] = cli_witness_changed(workloads.items_for("cli_cold", args.seed), plain, reference)
        else:
            done = next((r for r in records if r.get("done")), {})
            values[f"{args.workload}.witness_changed"] = done.get("witness_changed") or 0
            context["spans_file"] = done.get("spans_file")
        if plain and traced:
            values["trace.overhead_s"] = block_median(blocks(traced), pass_wall) - block_median(
                blocks(plain), pass_wall
            )
        values["failed_ratio"] = failed / attempted
        names = [m[0] for m in metrics.PER_LAYER]

    context.update(setup_samples=setups, failures=dict(list(failures.items())[:20]), elapsed_s=elapsed)
    result = {
        "correct": failed == 0 and not timed_out,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
    }
    (outdir / "report.json").write_text(json.dumps({"context": context, "result": result}, indent=1))
    for key, reason in list(failures.items())[:5]:
        print(f"failed {key}: {reason}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
