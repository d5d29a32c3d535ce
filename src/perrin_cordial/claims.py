"""Published feasibility claims as data, and the sweep that checks them.

Each supported family carries one claim: the characterization of which
parameters admit a cordial labeling.  Claims are data, not assertions;
the sweep records computed agreement per grid point and never raises on a
disagreement.  Two of the claimed statements are mutually inconsistent
(the star list versus the odd-by-odd bipartite bounds at 25 leaves), so
the machine verdict is reported alongside, not forced to match.

Claim verdicts are three-valued: True / False where the claim
characterizes, None where it only states a sufficient condition (the
odd-by-odd bipartite table) and is silent otherwise.  Tool verdicts come
from the family's constructor at any size: a tally-verified labeling (the
row's witness) or a proof (the class-count scan or degree-parity certificate).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .construct import Infeasible, construct
from .graphs import FamilySpec
from .labeling import PerrinLabeling
from .oracle import SearchConfig

KN_CLAIMED = frozenset({1, 2, 3, 4, 6, 36, 49, 62, 64, 66, 79, 81, 83})
BISTAR_CLAIMED_EXTRA = frozenset({28, 29, 30, 32, 36})
STAR_CLAIMED = frozenset(range(1, 33)) - {25}

# bound on m+n for odd m, odd n, keyed by (m+n) mod 7; sufficient only
ODD_ODD_BOUNDS = {0: 28, 1: 22, 2: 30, 3: 38, 4: 32, 5: 40, 6: 34}

# families whose constructor is the class-count scan
ANALYTIC_FAMILIES = frozenset({"complete", "complete_bipartite", "star", "bistar", "jellyfish"})


@dataclass(frozen=True)
class Claim:
    family: str
    source: str
    predicate: Callable[[tuple[int, ...]], Optional[bool]]

    def paper_verdict(self, params: tuple[int, ...]) -> Optional[bool]:
        return self.predicate(params)


@dataclass(frozen=True)
class ClaimCheckRow:
    family: str
    params: tuple[int, ...]
    paper_verdict: Optional[bool]
    tool_verdict: bool
    decider: str
    agree: Optional[bool]
    witness: PerrinLabeling | None = None
    witness_file: str = ""


def _bipartite_claim(params: tuple[int, ...]) -> Optional[bool]:
    m, n = params
    if m % 2 == 0 and n % 2 == 0:
        return True
    if m % 2 != n % 2:
        e, o = (m, n) if m % 2 == 0 else (n, m)
        return e <= 6 * o + 26 and e != 6 * o + 22
    t = m + n
    return True if t <= ODD_ODD_BOUNDS[t % 7] else None


def builtin_claims() -> list[Claim]:
    """The ten built-in claims, one per family."""
    return [
        Claim("path", "claimed: every path is cordial", lambda p: True),
        Claim(
            "cycle",
            "claimed: cordial exactly when n is not 2 (mod 4)",
            lambda p: p[0] % 4 != 2,
        ),
        Claim(
            "complete",
            "claimed: cordial exactly for n in {1,2,3,4,6,36,49,62,64,66,79,81,83}",
            lambda p: p[0] in KN_CLAIMED,
        ),
        Claim(
            "complete_bipartite",
            "claimed: cordial when a side is even with even side <= 6*odd+26 and "
            "!= 6*odd+22 (exact there); for odd-by-odd, cordial when m+n is within "
            "the mod-7 bound table (sufficient only)",
            _bipartite_claim,
        ),
        Claim(
            "star",
            "claimed: cordial exactly for leaf counts 1..32 except 25",
            lambda p: p[0] in STAR_CLAIMED,
        ),
        Claim("wheel", "claimed: every wheel is cordial", lambda p: True),
        Claim(
            "bistar",
            "claimed: cordial exactly when 1 < m+n <= 26 or m+n in {28,29,30,32,36}",
            lambda p: p[0] + p[1] <= 26 or p[0] + p[1] in BISTAR_CLAIMED_EXTRA,
        ),
        Claim(
            "triangular_snake",
            "claimed: cordial exactly when n is not 2 (mod 4)",
            lambda p: p[0] % 4 != 2,
        ),
        Claim(
            "friendship",
            "claimed: cordial exactly when n is not 2 (mod 4)",
            lambda p: p[0] % 4 != 2,
        ),
        Claim("jellyfish", "claimed: every jellyfish graph is cordial", lambda p: True),
    ]


_CLAIMS = {c.family: c for c in builtin_claims()}


def claim_for(family: str) -> Claim:
    if family not in _CLAIMS:
        raise KeyError(f"no built-in claim for family {family!r}")
    return _CLAIMS[family]


def default_grid(family: str) -> list[tuple[int, ...]]:
    """Desk-scale grid per family; outside ANALYTIC_FAMILIES each graph has at most 24 vertices."""
    if family == "path":
        return [(n,) for n in range(1, 21)]
    if family == "cycle":
        return [(n,) for n in range(3, 23)]
    if family == "complete":
        return [(n,) for n in range(1, 101)]
    if family == "complete_bipartite":
        return [(m, n) for n in range(1, 44) for m in range(1, n + 1) if m + n <= 44]
    if family == "star":
        return [(n,) for n in range(1, 41)]
    if family == "wheel":
        return [(n,) for n in range(3, 20)]
    if family == "bistar":
        return [(m, n) for n in range(1, 40) for m in range(1, n + 1) if m + n <= 40]
    if family in ("triangular_snake", "friendship"):
        return [(n,) for n in range(1, 11)]
    if family == "jellyfish":
        return [(m1, m2) for m2 in range(0, 7) for m1 in range(0, m2 + 1)]
    raise KeyError(f"no default grid for family {family!r}")


def _tool_verdict(spec: FamilySpec, want_witness: bool) -> tuple[bool, str, PerrinLabeling | None]:
    """(verdict, decider, witness) from the family's constructor, at any size.

    The decider is "analytic" for the class-scan families; elsewhere it is
    "constructor" on a labeling and "parity" on Infeasible, its only source there.
    """
    got = construct(spec)
    analytic = spec.name in ANALYTIC_FAMILIES
    if isinstance(got, Infeasible):
        return False, "analytic" if analytic else "parity", None
    return True, "analytic" if analytic else "constructor", got.labeling if want_witness else None


def sweep(
    claim: Claim,
    grid: Iterable[tuple[int, ...]] | None = None,
    cfg: SearchConfig = SearchConfig(),
) -> list[ClaimCheckRow]:
    """One ClaimCheckRow per grid point, in sorted parameter order.

    Each point is validated as a FamilySpec first; of cfg only want_witness is read.
    """
    points = sorted(grid if grid is not None else default_grid(claim.family))
    rows = []
    for params in points:
        spec = FamilySpec(claim.family, params)
        paper = claim.paper_verdict(spec.params)
        tool, decider, witness = _tool_verdict(spec, cfg.want_witness)
        rows.append(
            ClaimCheckRow(
                family=claim.family,
                params=spec.params,
                paper_verdict=paper,
                tool_verdict=tool,
                decider=decider,
                agree=None if paper is None else paper == tool,
                witness=witness,
            )
        )
    return rows


def sweep_all(cfg: SearchConfig = SearchConfig()) -> list[ClaimCheckRow]:
    """Every built-in claim over its default grid; of cfg only want_witness is read."""
    return [row for claim in builtin_claims() for row in sweep(claim, None, cfg)]


CSV_COLUMNS = ("family", "params", "paper_verdict", "tool_verdict", "decider", "agree", "witness_file")


def _cell(value: Optional[bool], unknown: str) -> str:
    if value is None:
        return unknown
    return "true" if value else "false"


def format_params(params: tuple[int, ...]) -> str:
    return "x".join(str(p) for p in params)


def _row_cells(r: ClaimCheckRow) -> list[str]:
    return [
        r.family,
        format_params(r.params),
        _cell(r.paper_verdict, "unknown"),
        _cell(r.tool_verdict, ""),
        r.decider,
        _cell(r.agree, ""),
        r.witness_file,
    ]


def rows_to_csv(rows: list[ClaimCheckRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_cells(r) for r in rows)
    return buf.getvalue()


def rows_to_markdown(rows: list[ClaimCheckRow]) -> str:
    lines = ["| " + " | ".join(CSV_COLUMNS) + " |", "|" + "---|" * len(CSV_COLUMNS)]
    lines += ["| " + " | ".join(_row_cells(r)) + " |" for r in rows]
    return "\n".join(lines) + "\n"
