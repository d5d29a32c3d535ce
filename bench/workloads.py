"""The four workloads: their seeded inputs and how one item calls the program.

An item is one user-visible unit of work.  Items run closed-loop, one at a
time, in a single process.  The seed fixes the inputs: it orders the
fixed grids and draws the graph files and CLI cases from fixed pools, so a
baseline digest exists for every input any seed can produce.

Why these four: claims_sweep is the paper-reproduction job and is
dominated by exhaustive proofs; construct_grid never calls the oracle and
sits on generate/tally/realize; decide_files is the only arbitrary-input
workload (parsing and early-exit search at the median, full proofs in the
tail); cli_cold is the only place process start-up and the CLI layer show.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import checks

WORKLOADS = ("claims_sweep", "construct_grid", "decide_files", "cli_cold")

GNP_POOL = 1000
GNP_PER_RUN = 400
# planted infeasible graphs per vertex count.  The tail item (ten slower
# items beyond it) falls in the middle of the n = 16 group, so it is not
# the noisiest order statistic of a small group.
PLANTED_PER_RUN = {20: 1, 19: 1, 18: 1, 17: 1, 16: 14}
PLANTED_POOL = 24
CLI_CASES_PER_RUN = 4


@dataclass
class Item:
    key: str
    family: str = ""
    params: tuple[int, ...] = ()
    text: str = ""
    planted: bool = False
    graph: tuple[int, list] | None = field(default=None, repr=False)

    def edges(self) -> tuple[int, list]:
        """(vertex_count, edges) as the benchmark itself builds them.

        Family graphs are rebuilt on each call rather than kept, so the
        benchmark's own memory does not swamp the program's peak RSS.
        """
        return self.graph or checks.family_graph(self.family, self.params)


def family_key(family: str, params: tuple[int, ...]) -> str:
    return family + ":" + "x".join(map(str, params))


def _family_item(family: str, params: tuple[int, ...]) -> Item:
    return Item(family_key(family, params), family, tuple(params))


# fixed, cheap items run once before timing as part of set-up
WARM_UP = {
    "claims_sweep": Item("warm-up", "wheel", (5,)),
    "construct_grid": Item("warm-up", "jellyfish", (3, 4)),
}


def claims_grid() -> list[Item]:
    """Every built-in claim over the seed's default grid (1,129 rows)."""
    grid = [("path", (n,)) for n in range(1, 21)]
    grid += [("cycle", (n,)) for n in range(3, 23)]
    grid += [("complete", (n,)) for n in range(1, 101)]
    grid += [
        ("complete_bipartite", (m, n)) for n in range(1, 44) for m in range(1, n + 1) if m + n <= 44
    ]
    grid += [("star", (n,)) for n in range(1, 41)]
    grid += [("wheel", (n,)) for n in range(3, 20)]
    grid += [("bistar", (m, n)) for n in range(1, 40) for m in range(1, n + 1) if m + n <= 40]
    grid += [("triangular_snake", (n,)) for n in range(1, 11)]
    grid += [("friendship", (n,)) for n in range(1, 11)]
    grid += [("jellyfish", (a, b)) for b in range(0, 7) for a in range(0, b + 1)]
    return [_family_item(f, p) for f, p in grid]


KN_CLAIMED = (1, 2, 3, 4, 6, 36, 49, 62, 64, 66, 79, 81, 83)


def constructor_grid() -> list[Item]:
    """The acceptance constructor grid (5,395 constructions)."""
    grid = [("path", (n,)) for n in range(1, 201)]
    grid += [("cycle", (n,)) for n in range(3, 201) if n % 4 != 2]
    grid += [("wheel", (n,)) for n in range(3, 201)]
    for n in range(1, 101):
        if n % 4 != 2:
            grid += [("triangular_snake", (n,)), ("friendship", (n,))]
    for total in list(range(2, 27)) + [28, 29, 30, 32, 36]:
        grid += [("bistar", (m, total - m)) for m in range(1, total)]
    grid += [("jellyfish", (a, b)) for a in range(51) for b in range(51)]
    grid += [("complete", (n,)) for n in KN_CLAIMED]
    for n in range(1, 120, 2):
        for m in range(2, 121 - n, 2):
            if m <= 6 * n + 26 and m != 6 * n + 22:
                grid.append(("complete_bipartite", (m, n)))
    return [_family_item(f, p) for f, p in grid]


def _graph_item(key: str, n: int, edges: list, rng: random.Random, planted: bool) -> Item:
    # a user's file: edges in any order and orientation, no family field
    rng.shuffle(edges)
    listed = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in edges]
    text = json.dumps({"vertex_count": n, "edges": listed})
    return Item(key, text=text, planted=planted, graph=(n, sorted(edges)))


def gnp_graph(u: int) -> Item:
    """Pool graph u: G(n, p) with n in 8..22 and p in 0.1..0.9."""
    rng = random.Random(f"gnp-{u}")
    n = rng.randint(8, 22)
    p = rng.uniform(0.1, 0.9)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return _graph_item(f"gnp:{u}", n, edges, rng, planted=False)


def planted_graph(n: int, u: int) -> Item:
    """Edge-disjoint random cycles on n vertices with |E| = 2 (mod 4): infeasible."""
    rng = random.Random(f"planted-{n}-{u}")
    edges: set = set()
    while not (len(edges) >= n and len(edges) % 4 == 2):
        if len(edges) > 3 * n:
            edges = set()
        ring = rng.sample(range(n), rng.randint(3, n))
        cyc = {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
        if cyc.isdisjoint(edges):
            edges |= cyc
    return _graph_item(f"planted:{n}:{u}", n, sorted(edges), rng, planted=True)


def decide_pool() -> list[Item]:
    """Every graph file any seed can draw."""
    pool = [gnp_graph(u) for u in range(GNP_POOL)]
    pool += [planted_graph(n, u) for n in PLANTED_PER_RUN for u in range(PLANTED_POOL)]
    return pool


def decide_files(seed: int) -> list[Item]:
    rng = random.Random(f"decide_files-{seed}")
    items = [gnp_graph(u) for u in rng.sample(range(GNP_POOL), GNP_PER_RUN)]
    for n, count in PLANTED_PER_RUN.items():
        items += [planted_graph(n, u) for u in rng.sample(range(PLANTED_POOL), count)]
    rng.shuffle(items)
    return items


# CLI cases: small feasible family graphs, so every subcommand exits 0
CLI_POOL = (
    [("path", (n,)) for n in range(5, 17)]
    + [("cycle", (n,)) for n in range(3, 20) if n % 4 != 2]
    + [("wheel", (n,)) for n in range(4, 15)]
    + [("jellyfish", (a, b)) for a in range(4) for b in range(a, 4)]
    + [("bistar", (m, n)) for m in range(1, 5) for n in range(m, 6)]
)
CLI_SWEEP_RANGE = {
    "path": ["1:12"],
    "cycle": ["3:12"],
    "wheel": ["3:12"],
    "jellyfish": ["0:3", "0:3"],
    "bistar": ["1:3", "1:3"],
}


def cli_pool() -> list[Item]:
    return [_family_item(f, p) for f, p in CLI_POOL]


def cli_cases(seed: int) -> list[Item]:
    rng = random.Random(f"cli_cold-{seed}")
    return [cli_pool()[i] for i in rng.sample(range(len(CLI_POOL)), CLI_CASES_PER_RUN)]


def items_for(workload: str, seed: int) -> list[Item]:
    """The items one pass of a workload runs, in the seed's order."""
    if workload == "decide_files":
        return decide_files(seed)
    if workload == "cli_cold":
        return cli_cases(seed)
    items = claims_grid() if workload == "claims_sweep" else constructor_grid()
    random.Random(f"{workload}-{seed}").shuffle(items)
    return items
