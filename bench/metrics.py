"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; a self-test keeps the two in step.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median it may worsen by)
# Run-to-run spreads (IQR / median over ten seeds, 30 s runs on a 2-vCPU
# VM) reached 0.15 for the timings and 0.22 for set-up, so every timing
# gets the widest bound; memory repeats to within 1 %.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "wheel",
    "bistar",
    "triangular_snake",
    "friendship",
    "jellyfish",
)
DECIDERS = ("analytic", "exhaustive", "constructor", "none")
CLI_STEPS = ("seq", "gen", "label", "verify", "decide", "sweep", "export-dot")

# name, unit, better
PER_LAYER = (
    ("oracle.exhaustive.calls", "count", "lower"),
    ("oracle.exhaustive.leaves", "count", "lower"),
    ("oracle.exhaustive.self_s", "s", "lower"),
    ("oracle.exhaustive.leaves_per_s", "1/s", "higher"),
    ("oracle.analytic.calls", "count", "lower"),
    ("oracle.analytic.candidates", "count", "lower"),
    ("oracle.analytic.self_s", "s", "lower"),
    ("graphs.generate.calls", "count", "lower"),
    ("graphs.generate.edges", "count", "lower"),
    ("graphs.generate.self_s", "s", "lower"),
    ("graphs.generate.edges_per_s", "1/s", "higher"),
    ("graphs.graph.calls", "count", "lower"),
    ("graphs.graph.self_s", "s", "lower"),
    ("labeling.tally.calls", "count", "lower"),
    ("labeling.tally.edges", "count", "lower"),
    ("labeling.tally.self_s", "s", "lower"),
    ("labeling.realize.calls", "count", "lower"),
    ("labeling.realize.self_s", "s", "lower"),
    ("construct.calls", "count", "lower"),
    ("construct.candidates", "count", "lower"),
    ("construct.hit_ratio", "ratio", "higher"),
    ("construct.self_s", "s", "lower"),
    *((f"construct.{f}.self_s", "s", "lower") for f in FAMILIES),
    ("perrin.calls", "count", "lower"),
    ("perrin.self_s", "s", "lower"),
    ("graph_io.read_graph.calls", "count", "lower"),
    ("graph_io.read_graph.bytes", "count", "lower"),
    ("graph_io.read_graph.self_s", "s", "lower"),
    ("graph_io.write_labeling.bytes", "count", "lower"),
    ("graph_io.write_labeling.self_s", "s", "lower"),
    ("claims.rows", "count", "higher"),
    *((f"claims.rows.{d}", "count", "lower") for d in DECIDERS),
    ("claims.rows.other", "count", "lower"),
    ("claims.disagreements", "count", "lower"),
    ("claims.self_s", "s", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *((f"cli.{step}.ms", "ms", "lower") for step in CLI_STEPS),
    ("claims_sweep.witness_changed", "count", "lower"),
    ("construct_grid.witness_changed", "count", "lower"),
    ("decide_files.witness_changed", "count", "lower"),
    ("cli_cold.witness_changed", "count", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def layer_metrics(totals: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from spans.layer_totals()."""

    def get(name):
        return totals.get(name, [0, 0, 0.0])

    def rate(units, seconds):
        return units / seconds if seconds > 0 else 0.0

    ex, an, gen = get("oracle.exhaustive"), get("oracle.analytic"), get("graphs.generate")
    tal, rea, per = get("labeling.tally"), get("labeling.realize"), get("perrin")
    rd, wr, gr = get("graph_io.read_graph"), get("graph_io.write_labeling"), get("graphs.graph")
    cons = [get(f"construct.{f}") for f in FAMILIES]
    hits = sum(c[1] for c in cons)
    candidates = get("construct.candidates")[0]
    out = {
        "oracle.exhaustive.calls": ex[0],
        "oracle.exhaustive.leaves": ex[1],
        "oracle.exhaustive.self_s": ex[2],
        "oracle.exhaustive.leaves_per_s": rate(ex[1], ex[2]),
        "oracle.analytic.calls": an[0],
        "oracle.analytic.candidates": an[1],
        "oracle.analytic.self_s": an[2],
        "graphs.generate.calls": gen[0],
        "graphs.generate.edges": gen[1],
        "graphs.generate.self_s": gen[2],
        "graphs.generate.edges_per_s": rate(gen[1], gen[2]),
        "graphs.graph.calls": gr[0],
        "graphs.graph.self_s": gr[2],
        "labeling.tally.calls": tal[0],
        "labeling.tally.edges": tal[1],
        "labeling.tally.self_s": tal[2],
        "labeling.realize.calls": rea[0],
        "labeling.realize.self_s": rea[2],
        "construct.calls": sum(c[0] for c in cons),
        "construct.candidates": candidates,
        "construct.hit_ratio": hits / candidates if candidates else 0.0,
        "construct.self_s": sum(c[2] for c in cons),
        "perrin.calls": per[0],
        "perrin.self_s": per[2],
        "graph_io.read_graph.calls": rd[0],
        "graph_io.read_graph.bytes": rd[1],
        "graph_io.read_graph.self_s": rd[2],
        "graph_io.write_labeling.bytes": wr[1],
        "graph_io.write_labeling.self_s": wr[2],
        "claims.self_s": get("claims")[2],
    }
    for f, c in zip(FAMILIES, cons):
        out[f"construct.{f}.self_s"] = c[2]
    return out
