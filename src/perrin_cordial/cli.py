"""Command line interface.

Subcommands: seq, gen, label, verify, decide, sweep, export-dot.
Exit codes: 0 success / feasible / cordial, 1 infeasible / not cordial,
2 input or capability error.

Each subcommand imports the modules it runs inside its cmd_ function, on
purpose: a command runs in a fresh process, where every module it loads
(and, without cached bytecode, compiles) adds to its time.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Iterable
from pathlib import Path

_FAMILY_ALIASES = {
    "ts": "triangular_snake",
    "triangular-snake": "triangular_snake",
    "complete-bipartite": "complete_bipartite",
    "kmn": "complete_bipartite",
}


def _family_name(raw: str) -> str:
    return _FAMILY_ALIASES.get(raw, raw)


@contextlib.contextmanager
def _reported(path, verb: str):
    """An OSError on path as an input error (exit 2), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"{path}: cannot {verb}: {exc}") from None


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each of its pieces as it comes, to the file out or to stdout."""
    with _reported(out or "stdout", "write"):
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
            stream.writelines([text] if isinstance(text, str) else text)


def _read(path: str) -> str:
    with _reported(path, "read"):
        return Path(path).read_text()


# the last row's term has 1,222 digits; past index 35,200 a term exceeds
# Python's 4,300-digit limit on int-to-str conversion
_SEQ_UPTO_MAX = 10_000


def cmd_seq(args) -> int:
    from .perrin import Parity, perrin_parity, perrin_value
    if not 0 <= args.upto <= _SEQ_UPTO_MAX:
        raise ValueError(f"--upto must be between 0 and {_SEQ_UPTO_MAX}, got {args.upto}")
    lines = []
    for i in range(args.upto + 1):
        cols = [str(i), str(perrin_value(i))]
        if args.parity:
            cols.append("even" if perrin_parity(i) is Parity.EVEN else "odd")
        lines.append("\t".join(cols))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    from .graph_io import graph_chunks
    from .graphs import FamilySpec, _edge_stream
    spec = FamilySpec(_family_name(args.family), tuple(args.params))
    n, _, edges = _edge_stream(spec)
    _emit(graph_chunks(n, edges, spec), args.out)
    return 0


def cmd_label(args) -> int:
    from .construct import Infeasible, construct
    from .graph_io import dot_lines, write_labeling
    from .graphs import FamilySpec, _edge_stream
    spec = FamilySpec(_family_name(args.family), tuple(args.params))
    got = construct(spec)
    if isinstance(got, Infeasible):
        print(f"infeasible: {got.reason}", file=sys.stderr)
        return 1
    t = got.tally
    print(f"feasible\te0={t.e0}\te1={t.e1}\tepsilon={t.epsilon}")
    if args.json:
        _emit(write_labeling(got.labeling), args.json)
    if args.dot:
        n, _, edges = _edge_stream(spec)
        _emit(dot_lines(n, edges, got.labeling), args.dot)
    return 0


def cmd_verify(args) -> int:
    from .graph_io import read_graph, read_labeling
    from .labeling import is_cordial, is_valid, tally, to_parity
    g = read_graph(_read(args.graph))
    f = read_labeling(_read(args.labeling))
    if not is_valid(g, f):
        print("invalid: labeling is not an injective map onto {0..|V|} minus one index", file=sys.stderr)
        return 2
    t = tally(g, to_parity(f))
    cordial = is_cordial(t)
    print(f"e0={t.e0}\te1={t.e1}\tepsilon={t.epsilon}\tcordial={'true' if cordial else 'false'}")
    return 0 if cordial else 1


# K_n, the slowest graph on n vertices to prove infeasible: K_28 (67,863,915 sets)
# takes 0.5-0.9 s in-process, K_27 0.4-0.5 s (2-vCPU Xeon, Python 3.11.7)
_MAX_N_MAX = 28


def cmd_decide(args) -> int:
    from .graph_io import FormatError, read_graph, write_labeling
    from .oracle import SearchConfig, decide_exhaustive, decide_parity
    if not 0 <= args.max_n <= _MAX_N_MAX:
        raise FormatError("--max-n", f"must be between 0 and {_MAX_N_MAX}, got {args.max_n}")
    if args.out and not args.witness:
        raise FormatError("--out", "writes the witness labeling, so it needs --witness")
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


# 88 times the 1,129 rows of `sweep all`; the grid is listed before any point runs
_SWEEP_POINTS_MAX = 100_000


def _span(token: str) -> range:
    """The values of a LO:HI token, integers with LO <= HI."""
    from .graph_io import FormatError
    lo, _, hi = token.partition(":")
    try:
        span = range(int(lo), int(hi) + 1)
    except ValueError:
        span = range(0)
    if not span:
        raise FormatError("--range", f"expected LO:HI with integers LO <= HI, got {token!r}")
    return span


def cmd_sweep(args) -> int:
    import dataclasses
    import itertools
    import math

    from .claims import claim_for, format_params, rows_to_csv, rows_to_markdown, sweep, sweep_all
    from .graph_io import FormatError, write_labeling
    from .graphs import FamilyParameterError
    if args.family == "all":
        if args.range is not None:
            raise FormatError("--range", "applies to a single family, not to 'all'")
        rows = sweep_all()
    else:
        family = _family_name(args.family)
        try:
            claim = claim_for(family)
        except KeyError:
            raise FamilyParameterError(f"unknown family {family!r}") from None
        grid = None
        if args.range:
            if len(args.range) > 2:
                raise FormatError("--range", "expected one or two LO:HI spans")
            spans = [_span(token) for token in args.range]
            if math.prod(span.stop - span.start for span in spans) > _SWEEP_POINTS_MAX:
                raise FormatError("--range", f"covers more than {_SWEEP_POINTS_MAX} grid points")
            grid = list(itertools.product(*spans))
        rows = sweep(claim, grid)
    if args.witness_dir:
        wdir = Path(args.witness_dir)
        with _reported(wdir, "write"):
            wdir.mkdir(parents=True, exist_ok=True)
        out_rows = []
        for r in rows:
            if r.witness is not None:
                path = str(wdir / f"{r.family}_{format_params(r.params)}.json")
                _emit(write_labeling(r.witness), path)
                r = dataclasses.replace(r, witness_file=path)
            out_rows.append(r)
        rows = out_rows
    render = rows_to_markdown if args.format == "md" else rows_to_csv
    _emit(render(rows), args.out)
    return 0


def cmd_export_dot(args) -> int:
    from .graph_io import dot_lines, read_graph, read_labeling
    from .labeling import is_valid
    g = read_graph(_read(args.graph))
    f = read_labeling(_read(args.labeling))
    if not is_valid(g, f):
        print("invalid: labeling is not valid for this graph", file=sys.stderr)
        return 2
    _emit(dot_lines(g.vertex_count, g.edges, f), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perrin-cordial",
        description="Construct, verify and survey Perrin cordial graph labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print sequence indices and values as TSV")
    p.add_argument(
        "--upto", type=int, required=True, metavar="N", help=f"last index, 0..{_SEQ_UPTO_MAX}"
    )
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
    p.add_argument("--max-n", type=int, default=24, metavar="K", help=f"vertex cap, 0..{_MAX_N_MAX}")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out", metavar="FILE", help="where to write the witness labeling")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("sweep", help="check built-in claims over a parameter grid")
    p.add_argument("family", help="family name, or 'all' for every built-in claim")
    p.add_argument("--range", nargs="+", metavar="LO:HI", help="one span per parameter")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
