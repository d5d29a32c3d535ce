"""What a fresh interpreter loads: the lazy package namespace and each subcommand's modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perrin_cordial import FamilySpec, construct, generate, write_graph, write_labeling

SRC = str(Path(__file__).resolve().parent.parent / "src")

PUBLIC_NAMES = [
    "CONSTRUCTORS", "Claim", "ClaimCheckRow", "Constructed", "EdgeTally", "FAMILY_NAMES",
    "FamilyParameterError", "FamilySpec", "FormatError", "Graph", "GraphTooLargeError",
    "Infeasible", "InvalidLabelingError", "LabelSupplyError", "Parity", "ParityPattern",
    "PatternLengthError", "PerrinLabeling", "SchemeExhaustedError", "SearchConfig", "Verdict",
    "builtin_claims", "claim_for", "claims", "construct", "decide_exhaustive", "decide_parity",
    "default_grid", "even_count", "even_indices", "export_dot", "feasible_even_counts",
    "generate", "graph_io", "graphs", "is_cordial", "is_valid", "labeling", "odd_indices",
    "oracle", "perrin", "perrin_parity", "perrin_value", "read_graph", "read_labeling",
    "realize", "rows_to_csv", "rows_to_markdown", "sweep", "sweep_all", "tally", "to_parity",
    "write_graph", "write_labeling",
]


def fresh(code: str, *argv: str):
    """The JSON a new interpreter prints after running code with argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_public_names_load_on_first_use():
    got = fresh(
        """
import json, sys, types
import perrin_cordial
loaded = sorted(m for m in sys.modules if m.startswith("perrin_cordial."))
star = {}
exec("from perrin_cordial import *", star)
del star["__builtins__"]
print(json.dumps({
    "loaded": loaded,
    "all": perrin_cordial.__all__,
    "star": sorted(star),
    "dir": [n for n in dir(perrin_cordial) if not n.startswith("_")],
    "modules": sorted(n for n, v in star.items() if isinstance(v, types.ModuleType)),
    "nope": hasattr(perrin_cordial, "nope"),
}))
"""
    )
    assert got["loaded"] == []
    assert got["all"] == got["star"] == got["dir"] == PUBLIC_NAMES
    assert got["modules"] == ["claims", "graph_io", "graphs", "labeling", "oracle", "perrin"]
    assert got["nope"] is False


@pytest.mark.parametrize("first", ["perrin_cordial", "perrin_cordial.claims", "perrin_cordial.construct"])
def test_construct_is_the_function_whichever_module_loads_first(first):
    # loading a submodule binds it on the package, here over the function's name
    got = fresh(
        f"""
import importlib, json, types
import {first}
import perrin_cordial
module = importlib.import_module("perrin_cordial.construct")
print(json.dumps([isinstance(module, types.ModuleType), perrin_cordial.construct is module.construct]))
"""
    )
    assert got == [True, True]


# the package modules a fresh process holds after each subcommand: a module
# loaded where nothing of it runs slows every cold command
SUBCOMMAND_MODULES = {
    "seq": "perrin",
    "gen": "graph_io graphs labeling perrin",
    "label": "construct graph_io graphs labeling perrin",
    "verify": "graph_io graphs labeling perrin",
    "decide": "graph_io graphs labeling oracle perrin",
    "sweep": "claims construct graph_io graphs labeling perrin",
    "export-dot": "graph_io graphs labeling perrin",
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command):
    spec = FamilySpec("path", (5,))
    graph, labeling = tmp_path / "g.json", tmp_path / "f.json"
    graph.write_text(write_graph(generate(spec)))
    labeling.write_text(write_labeling(construct(spec).labeling))
    argv = {
        "seq": ["--upto", "5"],
        "gen": ["path", "5"],
        "label": ["path", "5", "--json", str(tmp_path / "out.json"), "--dot", str(tmp_path / "out.dot")],
        "verify": ["--graph", str(graph), "--labeling", str(labeling)],
        "decide": ["--graph", str(graph), "--witness"],
        "sweep": ["cycle", "--range", "3:6", "--witness-dir", str(tmp_path / "wit")],
        "export-dot": ["--graph", str(graph), "--labeling", str(labeling)],
    }[command]
    got = fresh(
        """
import contextlib, io, json, sys
from perrin_cordial.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("perrin_cordial."))]))
""",
        command,
        *argv,
    )
    assert got == [0, sorted(f"perrin_cordial.{m}" for m in ["cli", *SUBCOMMAND_MODULES[command].split()])]
