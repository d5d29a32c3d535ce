"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4's jellyfish grid includes ten degenerate shapes (one
pendant group empty, the other in {39,45,46,47,49}) that are provably not
cordial; the test re-proves that infeasibility independently and requires
the constructor to report it, while the literal always-constructible
reading is kept visible as a strict expected failure below.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from perrin_cordial import (
    Constructed,
    FamilySpec,
    Graph,
    Infeasible,
    Parity,
    builtin_claims,
    construct,
    decide_exhaustive,
    default_grid,
    even_count,
    generate,
    is_cordial,
    is_valid,
    perrin_parity,
    perrin_value,
    rows_to_csv,
    sweep,
    sweep_all,
    tally,
    to_parity,
    write_labeling,
)
from perrin_cordial.claims import KN_CLAIMED

from oracles import even_count_scan

E, O = Parity.EVEN, Parity.ODD


def _pass(k, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {k} {name}: PASS{suffix}")


def test_c01_sequence_fidelity():
    t0 = time.perf_counter()
    assert tuple(perrin_value(i) for i in range(7)) == (0, 3, 0, 2, 3, 2, 5)
    dt = time.perf_counter() - t0
    assert dt < 0.1
    _pass(1, "sequence fidelity", f"{dt * 1000:.1f} ms")


def test_c02_even_count_formula():
    t0 = time.perf_counter()
    for n in range(10_001):
        assert even_count(n) == even_count_scan(n), n
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s, bound is 1s"
    _pass(2, "even-count formula to 10^4", f"{dt:.2f} s")


def test_c03_parity_periodicity():
    for i in range(1, 1001):
        assert perrin_parity(i) is perrin_parity(i + 7), i
    _pass(3, "parity period 7 on 1..10^3")


def _gate(spec):
    got = construct(spec)
    assert isinstance(got, Constructed), (spec, got)
    g = generate(spec)
    assert is_valid(g, got.labeling), spec
    t = tally(g, to_parity(got.labeling))
    assert t == got.tally and is_cordial(t), (spec, t)


# shapes in the stated jellyfish grid that admit no cordial labeling
JELLY_INFEASIBLE = {(0, 39), (0, 45), (0, 46), (0, 47), (0, 49)}
JELLY_INFEASIBLE |= {(b, a) for a, b in JELLY_INFEASIBLE}


def _jellyfish_infeasible_by_recount(m1, m2):
    """Independent proof: tally every pattern shape over the real edges.

    Pendants within a group have identical neighborhoods, so a pattern is
    determined up to tally by the four internal parities and the even
    counts (k1, k2) per group; sweeping those with the availability
    budget covers every realizable labeling.
    """
    g = generate(FamilySpec("jellyfish", (m1, m2)))
    ec = even_count(g.vertex_count)
    for sizes in (ec - 1, ec):
        for combo in itertools.product((E, O), repeat=4):
            internal_evens = sum(1 for p in combo if p is E)
            ktot = sizes - internal_evens
            for k2 in range(max(0, ktot - m1), min(m2, ktot) + 1):
                k1 = ktot - k2
                pattern = list(combo)
                pattern += [E] * k1 + [O] * (m1 - k1)
                pattern += [E] * k2 + [O] * (m2 - k2)
                e1 = sum(1 for u, v in g.edges if pattern[u] is not pattern[v])
                if abs(g.edge_count - 2 * e1) <= 1:
                    return False
    return True


def c04_grid():
    """The c04 constructor grid, in the order the test walks it."""
    specs = [FamilySpec("path", (n,)) for n in range(1, 201)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 201) if n % 4 != 2]
    specs += [FamilySpec("wheel", (n,)) for n in range(3, 201)]
    for n in range(1, 101):
        if n % 4 != 2:
            specs += [FamilySpec("triangular_snake", (n,)), FamilySpec("friendship", (n,))]
    for total in list(range(2, 27)) + [28, 29, 30, 32, 36]:
        specs += [FamilySpec("bistar", (m, total - m)) for m in range(1, total)]
    specs += [FamilySpec("jellyfish", (m1, m2)) for m1 in range(0, 51) for m2 in range(0, 51)]
    specs += [FamilySpec("complete", (n,)) for n in sorted(KN_CLAIMED)]
    for n in range(1, 120, 2):
        for m in range(2, 121 - n, 2):
            if m > 6 * n + 26 or m == 6 * n + 22:
                continue
            specs.append(FamilySpec("complete_bipartite", (m, n)))
    return specs


def test_c04_constructor_soundness_grid():
    t0 = time.perf_counter()
    pairs = 0
    for spec in c04_grid():
        if spec.name == "jellyfish" and spec.params in JELLY_INFEASIBLE:
            assert isinstance(construct(spec), Infeasible), spec.params
            assert _jellyfish_infeasible_by_recount(*spec.params), spec.params
        else:
            _gate(spec)
        pairs += spec.name == "complete_bipartite"
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"grid took {dt:.1f}s, bound is 60s"
    _pass(
        4,
        "constructor soundness grid",
        f"{dt:.1f} s; K_mn pairs: {pairs}; note: 10 degenerate jellyfish "
        "shapes in the stated grid are provably infeasible and reported so",
    )


# SHA-256 of _result_dump(); a change that alters any witness, tally, verdict
# or reason on purpose updates it and says so
RESULT_DIGEST = "36efa62f298cf1550ed57ee797210f24f80008c4f4c536513d231c97530f1551"


def _result_dump() -> bytes:
    """Every c04 construction, the default sweep with its witnesses, and
    decide_exhaustive on 200 seeded random graphs with at most 14 vertices."""
    out = []
    for spec in c04_grid():
        got = construct(spec)
        if isinstance(got, Infeasible):
            out.append(f"{spec} infeasible: {got.reason}\n")
        else:
            out.append(f"{spec} {got.tally.e0} {got.tally.e1}\n{write_labeling(got.labeling)}")
    rows = sweep_all()
    out.append(rows_to_csv(rows))
    out += [write_labeling(r.witness) for r in rows if r.witness is not None]
    rnd = random.Random(14)
    for _ in range(200):
        n, density = rnd.randint(1, 14), rnd.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
        v = decide_exhaustive(Graph(n, tuple(edges)))
        witness = write_labeling(v.witness) if v.witness else ""
        out.append(f"{n} {edges} {v.feasible} {v.searched} {v.reason}\n{witness}")
    return "".join(out).encode()


def test_results_match_the_recorded_digest():
    assert hashlib.sha256(_result_dump()).hexdigest() == RESULT_DIGEST


@pytest.mark.xfail(
    strict=True,
    reason="stated grid point jellyfish(0,39) admits no cordial labeling: "
    "the complete pattern-space enumeration (validated against brute force "
    "for every m1+m2 <= 14) finds no balanced even-set, so the universal "
    "jellyfish claim fails at degenerate shapes with one empty pendant group",
)
def test_c04_literal_jellyfish_grid_point():
    assert isinstance(construct(FamilySpec("jellyfish", (0, 39))), Constructed)


def test_c05_proven_infeasibility():
    cases = [
        ("cycle", 6),
        ("cycle", 10),
        ("cycle", 14),
        ("triangular_snake", 2),
        ("triangular_snake", 6),
        ("friendship", 2),
        ("friendship", 6),
    ]
    worst = 0.0
    for family, n in cases:
        g = generate(FamilySpec(family, (n,)))
        t0 = time.perf_counter()
        verdict = decide_exhaustive(g)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert not verdict.feasible, (family, n)
        assert dt < 5.0, (family, n, dt)
    _pass(5, "mod-4 infeasibility via exhaustive search", f"worst case {worst:.2f} s")


def test_c06_oracle_analytic_agreement():
    for n in range(1, 14):
        g = generate(FamilySpec("complete", (n,)))
        assert decide_exhaustive(g).feasible == isinstance(
            construct(FamilySpec("complete", (n,))), Constructed
        ), n
    for m in range(1, 13):
        for n in range(1, 14 - m):
            g = generate(FamilySpec("complete_bipartite", (m, n)))
            assert decide_exhaustive(g).feasible == isinstance(
                construct(FamilySpec("complete_bipartite", (m, n))), Constructed
            ), (m, n)
    for m in range(1, 11):
        for n in range(1, 12 - m):
            g = generate(FamilySpec("bistar", (m, n)))
            assert decide_exhaustive(g).feasible == isinstance(
                construct(FamilySpec("bistar", (m, n))), Constructed
            ), (m, n)
    _pass(6, "oracle vs analytic agreement")


def test_c07_complete_graph_anchors_and_list_report(tmp_path):
    got = construct(FamilySpec("complete", (49,)))
    assert isinstance(got, Constructed)
    assert (got.tally.e0, got.tally.e1) == (588, 588)
    for n in (36, 62, 64):
        assert isinstance(construct(FamilySpec("complete", (n,))), Constructed), n
    for n in (5, 7):
        assert isinstance(construct(FamilySpec("complete", (n,))), Infeasible), n

    claim = next(c for c in builtin_claims() if c.family == "complete")
    rows = sweep(claim, [(n,) for n in range(1, 101)])
    report = tmp_path / "complete_list_report.csv"
    report.write_text(rows_to_csv(rows))
    mismatches = [r for r in rows if r.agree is False]
    for r in rows:
        assert r.agree is (r.paper_verdict == r.tool_verdict)
    flagged = {r.params[0] for r in mismatches}
    tool_list = {r.params[0] for r in rows if r.tool_verdict}
    assert flagged == tool_list.symmetric_difference(KN_CLAIMED)
    _pass(
        7,
        "complete-graph anchors and list report",
        f"report {report.name}; flagged mismatches at n = {sorted(flagged)}",
    )


def test_c08_bipartite_product_identity():
    for m in range(1, 13):
        for n in range(1, 13):
            g = generate(FamilySpec("complete_bipartite", (m, n)))
            for p1 in range(m + 1):
                for p2 in range(n + 1):
                    pattern = (E,) * p1 + (O,) * (m - p1) + (E,) * p2 + (O,) * (n - p2)
                    t = tally(g, pattern)
                    assert t.epsilon == (m - 2 * p1) * (n - 2 * p2), (m, n, p1, p2)
    _pass(8, "product identity over all m, n <= 12")


def test_c09_triangle_and_cycle_parity():
    g3 = generate(FamilySpec("cycle", (3,)))
    seen = set()
    for pattern in itertools.product((E, O), repeat=3):
        seen.add(tally(g3, pattern).e1)
    assert seen == {0, 2}
    for n in range(3, 13):
        g = generate(FamilySpec("cycle", (n,)))
        for pattern in itertools.product((E, O), repeat=n):
            assert tally(g, pattern).e1 % 2 == 0, (n, pattern)
    _pass(9, "triangle parity and even cycle parity")


def test_c10_claims_sweep(tmp_path):
    all_rows = []
    for claim in builtin_claims():
        grid = default_grid(claim.family)
        rows = sweep(claim, grid)
        assert len(rows) == len(grid)
        all_rows.extend(rows)
    out = tmp_path / "claims_sweep.csv"
    out.write_text(rows_to_csv(all_rows))
    assert len(out.read_text().strip().split("\n")) == len(all_rows) + 1

    verified = 0
    for r in all_rows:
        if r.tool_verdict is True and r.witness is not None:
            g = generate(FamilySpec(r.family, r.params))
            assert is_valid(g, r.witness), (r.family, r.params)
            assert is_cordial(tally(g, to_parity(r.witness))), (r.family, r.params)
            verified += 1

    star25 = [r for r in all_rows if r.family == "star" and r.params == (25,)]
    assert len(star25) == 1 and star25[0].agree is False

    bistar_rows = {
        r.params: r for r in all_rows if r.family == "bistar" and sum(r.params) in (27, 40)
    }
    assert bistar_rows, "bistar rows with sums 27 and 40 must be present"
    assert {sum(p) for p in bistar_rows} == {27, 40}
    for r in bistar_rows.values():
        assert r.agree is False  # tool proves cordial beyond the claimed bound
    _pass(
        10,
        "claims sweep",
        f"{len(all_rows)} rows, {verified} witnesses re-verified, "
        f"report {out.name}",
    )


def test_c11_cli_round_trip(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "perrin_cordial", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    g = tmp_path / "g.json"
    f = tmp_path / "f.json"
    assert run("gen", "path", "10", "--out", str(g)).returncode == 0
    assert run("label", "path", "10", "--json", str(f)).returncode == 0
    assert run("verify", "--graph", str(g), "--labeling", str(f)).returncode == 0
    first = run("export-dot", "--graph", str(g), "--labeling", str(f))
    second = run("export-dot", "--graph", str(g), "--labeling", str(f))
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    _pass(11, "CLI round trip and byte-stable DOT")
