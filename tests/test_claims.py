"""Built-in claims, the sweep, and report rendering."""

import pytest

from perrin_cordial import (
    FAMILY_NAMES,
    FamilySpec,
    SearchConfig,
    builtin_claims,
    claim_for,
    construct,
    decide_exhaustive,
    default_grid,
    generate,
    is_cordial,
    is_valid,
    rows_to_csv,
    rows_to_markdown,
    sweep,
    sweep_all,
    tally,
    to_parity,
)
from perrin_cordial.claims import CSV_COLUMNS, KN_CLAIMED
from perrin_cordial.construct import CLASS_FAMILIES


def test_exactly_ten_claims_one_per_family():
    claims = builtin_claims()
    assert len(claims) == 10
    assert len({c.family for c in claims}) == 10


def test_cycle_claim_examples():
    claim = claim_for("cycle")
    assert claim.predicate((10,)) is False
    assert claim.predicate((9,)) is True


def test_complete_claim_examples():
    claim = claim_for("complete")
    assert claim.predicate((36,)) is True
    assert claim.predicate((51,)) is False
    assert KN_CLAIMED == {1, 2, 3, 4, 6, 36, 49, 62, 64, 66, 79, 81, 83}


def test_bistar_claim_examples():
    claim = claim_for("bistar")
    assert claim.predicate((10, 9)) is True  # sum 19
    assert claim.predicate((13, 14)) is False  # sum 27
    assert claim.predicate((15, 15)) is True  # sum 30
    assert claim.predicate((20, 20)) is False  # sum 40


def test_star_claim_examples():
    claim = claim_for("star")
    assert claim.predicate((25,)) is False
    assert claim.predicate((32,)) is True
    assert claim.predicate((33,)) is False


def test_bipartite_composite_claim():
    claim = claim_for("complete_bipartite")
    assert claim.predicate((4, 4)) is True  # both even
    assert claim.predicate((28, 1)) is False  # even side = 6*odd + 22
    assert claim.predicate((32, 1)) is True  # even side = 6*odd + 26
    assert claim.predicate((34, 1)) is False  # beyond the bound
    assert claim.predicate((13, 15)) is True  # odd-odd, sum 28 <= 28
    assert claim.predicate((21, 21)) is None  # odd-odd beyond table: silent


def test_sweep_cycles_all_agree():
    rows = sweep(claim_for("cycle"), [(n,) for n in range(3, 21)])
    assert len(rows) == 18
    assert all(r.agree is True for r in rows)
    infeasible = {r.params[0] for r in rows if r.tool_verdict is False}
    assert infeasible == {6, 10, 14, 18}
    # the degree-parity certificate proves the n = 2 (mod 4) rows
    assert {r.params[0] for r in rows if r.decider == "parity"} == {6, 10, 14, 18}
    constructed = {r.params[0] for r in rows if r.decider == "constructor"}
    assert constructed == set(range(3, 21)) - {6, 10, 14, 18}


def test_sweep_complete_flags_the_gap():
    rows = sweep(claim_for("complete"), [(n,) for n in range(1, 101)])
    assert len(rows) == 100
    assert all(r.decider == "analytic" for r in rows)
    disagreements = {r.params[0] for r in rows if r.agree is False}
    assert disagreements == {51}  # cordial but missing from the claimed list


def test_sweep_star_row_25():
    rows = sweep(claim_for("star"), [(25,)])
    (row,) = rows
    assert row.paper_verdict is False
    assert row.tool_verdict is True
    assert row.agree is False


def test_sweep_bistar_default_grid_covers_27_and_40():
    rows = sweep(claim_for("bistar"))
    by_sum = {}
    for r in rows:
        by_sum.setdefault(sum(r.params), []).append(r)
    assert (13, 14) in {r.params for r in by_sum[27]}
    assert (20, 20) in {r.params for r in by_sum[40]}
    for r in by_sum[27] + by_sum[40]:
        assert r.paper_verdict is False
        assert r.tool_verdict is True
        assert r.agree is False


def test_sweep_rows_sorted_and_deterministic():
    claim = claim_for("wheel")
    a = sweep(claim)
    b = sweep(claim)
    assert a == b
    assert [r.params for r in a] == sorted(r.params for r in a)


def test_sweep_witnesses_verify():
    rows = sweep(claim_for("jellyfish"))
    assert rows
    for r in rows:
        assert r.tool_verdict is True
        g = generate(FamilySpec(r.family, r.params))
        assert is_valid(g, r.witness)
        assert is_cordial(tally(g, to_parity(r.witness)))


@pytest.mark.parametrize("family", ["bistar", "complete_bipartite"])
def test_sweep_analytic_rows_carry_verified_witnesses(family):
    rows = [r for r in sweep(claim_for(family)) if r.decider == "analytic"]
    assert rows
    for r in rows:
        if not r.tool_verdict:
            assert r.witness is None
            continue
        g = generate(FamilySpec(r.family, r.params))
        assert is_valid(g, r.witness)
        assert is_cordial(tally(g, to_parity(r.witness)))


@pytest.mark.parametrize(
    "family,params",
    [("complete", (6,)), ("complete_bipartite", (2, 2)), ("star", (3,)), ("bistar", (6, 6))],
)
def test_sweep_analytic_rows_are_feasible(family, params):
    (row,) = sweep(claim_for(family), [params])
    assert row.decider == "analytic"
    assert row.tool_verdict is True


def test_sweep_large_path_row_is_a_constructor_row():
    (row,) = sweep(claim_for("path"), [(30,)])
    assert row.decider == "constructor"
    assert row.tool_verdict is True


def test_sweep_odd_odd_rows_outside_table_are_unknown_not_false():
    rows = sweep(claim_for("complete_bipartite"), [(21, 21)])
    (row,) = rows
    assert row.paper_verdict is None
    assert row.agree is None
    assert row.tool_verdict is False  # needs 21 even labels, supply is 19


def test_sweep_decides_every_row_at_any_size():
    rows = sweep(claim_for("wheel"), [(9,)])
    (row,) = rows
    assert row.decider == "constructor"
    assert row.tool_verdict is True
    # the degree-parity certificate needs no cap
    (row,) = sweep(claim_for("cycle"), [(10,)])
    assert row.decider == "parity"
    assert row.tool_verdict is False
    assert row.agree is True
    # the jellyfish class-count scan proves infeasibility at any size
    rows = sweep(claim_for("jellyfish"), [(0, 39)])
    (row,) = rows
    assert row.decider == "analytic"
    assert row.tool_verdict is False
    assert row.agree is False


def test_csv_rendering():
    rows = sweep(claim_for("cycle"), [(6,), (7,)])
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "cycle,6,false,false,parity,true,"
    assert lines[2] == "cycle,7,true,true,constructor,true,"


def test_markdown_rendering():
    rows = sweep(claim_for("cycle"), [(6,)])
    text = rows_to_markdown(rows)
    assert text.startswith("| family | params |")
    assert "| cycle | 6 | false | false | parity | true |" in text


def test_sweep_all_has_one_row_per_grid_point():
    total = sum(len(default_grid(c.family)) for c in builtin_claims())
    rows = sweep_all()
    assert len(rows) == total


def test_sweep_all_parity_rows_are_the_mod4_rows():
    rows = sweep_all()
    parity = {(r.family, r.params) for r in rows if r.decider == "parity"}
    assert parity == {
        *(("cycle", (n,)) for n in (6, 10, 14, 18, 22)),
        *(("triangular_snake", (n,)) for n in (2, 6, 10)),
        *(("friendship", (n,)) for n in (2, 6, 10)),
    }
    assert all(r.tool_verdict is False and r.agree is True for r in rows if r.decider == "parity")


@pytest.mark.parametrize(
    "family", ["path", "cycle", "wheel", "triangular_snake", "friendship", "jellyfish"]
)
def test_sweep_verdicts_match_exhaustive_reference(family):
    rows = sweep(claim_for(family))
    assert len(rows) == len(default_grid(family))
    for r in rows:
        g = generate(FamilySpec(r.family, r.params))
        assert r.tool_verdict is decide_exhaustive(g, SearchConfig(want_witness=False)).feasible, r


def test_sweep_all_witnesses_are_constructor_labelings():
    rows = [r for r in sweep_all() if r.tool_verdict]
    assert len(rows) == 988
    for r in rows:
        assert r.witness == construct(FamilySpec(r.family, r.params)).labeling, r


def test_default_grids_within_decider_capability():
    cfg = SearchConfig()
    for claim in builtin_claims():
        for params in default_grid(claim.family):
            # class scans need no search; jellyfish's grid stays within the cap anyway
            if claim.family in CLASS_FAMILIES - {"jellyfish"}:
                continue
            g = generate(FamilySpec(claim.family, params))
            assert g.vertex_count <= cfg.max_vertices, (claim.family, params)


def test_unknown_family_claim():
    with pytest.raises(KeyError):
        claim_for("torus")
    with pytest.raises(KeyError):
        default_grid("torus")


def test_one_stored_claim_per_family_in_family_order():
    claims = builtin_claims()
    assert [c.family for c in claims] == list(FAMILY_NAMES)
    assert all(claim_for(c.family) is c for c in claims)
    # each call returns a new list and a new grid
    claims.clear()
    default_grid("cycle").clear()
    assert len(builtin_claims()) == 10 and len(default_grid("cycle")) == 20
