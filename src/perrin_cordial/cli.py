"""Command line interface.

Subcommands: seq, gen, label, verify, decide, sweep, export-dot.
Exit codes: 0 success / feasible / cordial, 1 infeasible / not cordial,
2 input or capability error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from pathlib import Path

from . import claims as claims_mod
from .construct import Infeasible, construct
from .graph_io import FormatError, export_dot, read_graph, read_labeling, write_graph, write_labeling
from .graphs import FamilyParameterError, FamilySpec, generate
from .labeling import is_cordial, is_valid, tally, to_parity
from .oracle import GraphTooLargeError, SearchConfig, decide_exhaustive, decide_parity
from .perrin import Parity, perrin_parity, perrin_value

_FAMILY_ALIASES = {
    "ts": "triangular_snake",
    "triangular-snake": "triangular_snake",
    "complete-bipartite": "complete_bipartite",
    "kmn": "complete_bipartite",
}


def _family_name(raw: str) -> str:
    return _FAMILY_ALIASES.get(raw, raw)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(path, f"cannot read: {exc}")


def cmd_seq(args) -> int:
    lines = []
    for i in range(args.upto + 1):
        cols = [str(i), str(perrin_value(i))]
        if args.parity:
            cols.append("even" if perrin_parity(i) is Parity.EVEN else "odd")
        lines.append("\t".join(cols))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    spec = FamilySpec(_family_name(args.family), tuple(args.params))
    _emit(write_graph(generate(spec)), args.out)
    return 0


def cmd_label(args) -> int:
    spec = FamilySpec(_family_name(args.family), tuple(args.params))
    got = construct(spec)
    if isinstance(got, Infeasible):
        print(f"infeasible: {got.reason}", file=sys.stderr)
        return 1
    t = got.tally
    print(f"feasible\te0={t.e0}\te1={t.e1}\tepsilon={t.epsilon}")
    if args.json:
        Path(args.json).write_text(write_labeling(got.labeling))
    if args.dot:
        Path(args.dot).write_text(export_dot(generate(spec), got.labeling))
    return 0


def cmd_verify(args) -> int:
    g = read_graph(_read(args.graph))
    f = read_labeling(_read(args.labeling))
    if not is_valid(g, f):
        print("invalid: labeling is not an injective map onto {0..|V|} minus one index", file=sys.stderr)
        return 2
    t = tally(g, to_parity(f))
    cordial = is_cordial(t)
    print(f"e0={t.e0}\te1={t.e1}\tepsilon={t.epsilon}\tcordial={'true' if cordial else 'false'}")
    return 0 if cordial else 1


def cmd_decide(args) -> int:
    g = read_graph(_read(args.graph))
    cfg = SearchConfig(max_vertices=args.max_n, want_witness=args.witness)
    verdict = decide_parity(g) or decide_exhaustive(g, cfg)
    if verdict.feasible:
        print(f"feasible\tsearched={verdict.searched}")
        if args.witness and verdict.witness is not None:
            _emit(write_labeling(verdict.witness), args.out)
        return 0
    print(f"infeasible\tsearched={verdict.searched}\t{verdict.reason}")
    return 1


def cmd_sweep(args) -> int:
    if args.family == "all":
        rows = claims_mod.sweep_all()
    else:
        family = _family_name(args.family)
        try:
            claim = claims_mod.claim_for(family)
        except KeyError:
            raise FamilyParameterError(f"unknown family {family!r}") from None
        grid = None
        if args.range:
            spans = []
            for token in args.range:
                lo, _, hi = token.partition(":")
                spans.append(range(int(lo), int(hi) + 1))
            if len(spans) > 2:
                raise FormatError("--range", "expected one or two LO:HI spans")
            grid = list(itertools.product(*spans))
        rows = claims_mod.sweep(claim, grid)
    if args.witness_dir:
        wdir = Path(args.witness_dir)
        wdir.mkdir(parents=True, exist_ok=True)
        out_rows = []
        for r in rows:
            if r.witness is not None:
                name = f"{r.family}_{claims_mod.format_params(r.params)}.json"
                (wdir / name).write_text(write_labeling(r.witness))
                r = dataclasses.replace(r, witness_file=str(wdir / name))
            out_rows.append(r)
        rows = out_rows
    render = claims_mod.rows_to_markdown if args.format == "md" else claims_mod.rows_to_csv
    _emit(render(rows), args.out)
    return 0


def cmd_export_dot(args) -> int:
    g = read_graph(_read(args.graph))
    f = read_labeling(_read(args.labeling))
    if not is_valid(g, f):
        print("invalid: labeling is not valid for this graph", file=sys.stderr)
        return 2
    _emit(export_dot(g, f), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perrin-cordial",
        description="Construct, verify and survey Perrin cordial graph labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print sequence indices and values as TSV")
    p.add_argument("--upto", type=int, required=True, metavar="N")
    p.add_argument("--parity", action="store_true", help="add a parity column")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("gen", help="generate a family graph as JSON")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="construct a cordial labeling for a family graph")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--json", metavar="FILE", help="write the labeling as JSON")
    p.add_argument("--dot", metavar="FILE", help="write a colored DOT rendering")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("verify", help="check a labeling file against a graph file")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--labeling", required=True, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decide", help="decide feasibility: parity certificate, then exhaustive search")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--max-n", type=int, default=24, metavar="K")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out", metavar="FILE", help="where to write the witness labeling")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("sweep", help="check built-in claims over a parameter grid")
    p.add_argument("family", help="family name, or 'all' for every built-in claim")
    p.add_argument("--range", nargs="*", metavar="LO:HI", help="one span per parameter")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--witness-dir", metavar="DIR")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-dot", help="render a labeled graph as colored DOT")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--labeling", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FamilyParameterError, GraphTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
