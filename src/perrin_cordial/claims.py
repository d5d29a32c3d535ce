"""Published feasibility claims as data, and the sweep that checks them.

Each supported family carries one claim: the characterization of which
parameters admit a cordial labeling.  Claims are data, not assertions;
the sweep records computed agreement per grid point and never raises on a
disagreement.  Two of the claimed statements are mutually inconsistent
(the star list versus the odd-by-odd bipartite bounds at 25 leaves), so
the machine verdict is reported alongside, not forced to match.

Claim verdicts are three-valued: True / False where the claim
characterizes, None where it only states a sufficient condition (the
odd-by-odd bipartite table) and is silent otherwise.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .construct import CONSTRUCTORS, Constructed
from .graphs import FamilySpec, generate
from .labeling import PerrinLabeling
from .oracle import SearchConfig, decide_exhaustive, decide_parity

KN_CLAIMED = frozenset({1, 2, 3, 4, 6, 36, 49, 62, 64, 66, 79, 81, 83})
BISTAR_CLAIMED_EXTRA = frozenset({28, 29, 30, 32, 36})
STAR_CLAIMED = frozenset(range(1, 33)) - {25}

# bound on m+n for odd m, odd n, keyed by (m+n) mod 7; sufficient only
ODD_ODD_BOUNDS = {0: 28, 1: 22, 2: 30, 3: 38, 4: 32, 5: 40, 6: 34}

# families whose constructor scans every split of every admissible even
# count, so its Infeasible is a proof
ANALYTIC_FAMILIES = frozenset({"complete", "complete_bipartite", "star", "bistar"})


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
    tool_verdict: Optional[bool]
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


def claim_for(family: str) -> Claim:
    for c in builtin_claims():
        if c.family == family:
            return c
    raise KeyError(f"no built-in claim for family {family!r}")


def default_grid(family: str) -> list[tuple[int, ...]]:
    """Desk-scale grid per family, sized so no row is left undecided."""
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


def _tool_verdict(
    family: str, params: tuple[int, ...], cfg: SearchConfig
) -> tuple[Optional[bool], str, PerrinLabeling | None]:
    """(verdict, decider, witness) from the strongest applicable decider.

    The decider is one of "analytic", "parity", "exhaustive",
    "constructor" or "none".  An analytic family's constructor decides at
    any size, and so does the degree-parity certificate.  Any other
    successful constructor run proves feasibility (it is verifier gated),
    but its failure proves nothing, so rows beyond the exhaustive cap in a
    non-analytic family come back undecided unless construction succeeds.
    """
    if family in ANALYTIC_FAMILIES:
        got = CONSTRUCTORS[family](*params)
        if isinstance(got, Constructed):
            return True, "analytic", got.labeling if cfg.want_witness else None
        return False, "analytic", None
    g = generate(FamilySpec(family, params))
    if decide_parity(g) is not None:
        return False, "parity", None
    if g.vertex_count <= cfg.max_vertices:
        v = decide_exhaustive(g, cfg)
        return v.feasible, "exhaustive", v.witness
    got = CONSTRUCTORS[family](*params)
    if isinstance(got, Constructed):
        return True, "constructor", got.labeling if cfg.want_witness else None
    return None, "none", None


def sweep(
    claim: Claim,
    grid: Iterable[tuple[int, ...]] | None = None,
    cfg: SearchConfig = SearchConfig(),
) -> list[ClaimCheckRow]:
    """One ClaimCheckRow per grid point, in sorted parameter order."""
    points = sorted(grid if grid is not None else default_grid(claim.family))
    rows = []
    for params in points:
        paper = claim.paper_verdict(params)
        tool, decider, witness = _tool_verdict(claim.family, params, cfg)
        agree = None if (paper is None or tool is None) else paper == tool
        rows.append(
            ClaimCheckRow(
                family=claim.family,
                params=params,
                paper_verdict=paper,
                tool_verdict=tool,
                decider=decider,
                agree=agree,
                witness=witness,
            )
        )
    return rows


def sweep_all(cfg: SearchConfig = SearchConfig()) -> list[ClaimCheckRow]:
    rows = []
    for claim in builtin_claims():
        rows.extend(sweep(claim, None, cfg))
    return rows


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
        _cell(r.tool_verdict, "undecided"),
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
