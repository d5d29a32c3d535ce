"""Family generators: sizes, connectivity, and the validated rebuild of their output."""

from itertools import product

import pytest

from oracles import is_connected
from perrin_cordial import (
    FAMILY_NAMES,
    FamilyParameterError,
    FamilySpec,
    FormatError,
    Graph,
    generate,
    read_graph,
)
from perrin_cordial.graphs import _EDGES_MAX, _FAMILIES, _edge_stream, _pieces

SIZE_CASES = [
    # (family, params, vertices, edges)
    ("path", (1,), 1, 0),
    ("path", (7,), 7, 6),
    ("cycle", (3,), 3, 3),
    ("cycle", (12,), 12, 12),
    ("complete", (1,), 1, 0),
    ("complete", (6,), 6, 15),
    ("complete_bipartite", (4, 3), 7, 12),
    ("complete_bipartite", (1, 9), 10, 9),
    ("star", (9,), 10, 9),
    ("wheel", (3,), 4, 6),
    ("wheel", (13,), 14, 26),
    ("bistar", (6, 6), 14, 13),
    ("bistar", (1, 1), 4, 3),
    ("triangular_snake", (1,), 3, 3),
    ("triangular_snake", (4,), 9, 12),
    ("friendship", (4,), 9, 12),
    ("friendship", (7,), 15, 21),
    ("jellyfish", (0, 0), 4, 5),
    ("jellyfish", (7, 7), 18, 19),
]


@pytest.mark.parametrize("family,params,nv,ne", SIZE_CASES)
def test_sizes_match_closed_forms(family, params, nv, ne):
    g = generate(FamilySpec(family, params))
    assert g.vertex_count == nv
    assert g.edge_count == ne


@pytest.mark.parametrize("family,params,nv,ne", SIZE_CASES)
def test_generated_graphs_are_connected(family, params, nv, ne):
    assert is_connected(generate(FamilySpec(family, params)))


def test_size_closed_forms_over_grid():
    for n in range(1, 15):
        assert generate(FamilySpec("path", (n,))).edge_count == n - 1
        assert generate(FamilySpec("complete", (n,))).edge_count == n * (n - 1) // 2
        assert generate(FamilySpec("star", (n,))).edge_count == n
        assert generate(FamilySpec("triangular_snake", (n,))).edge_count == 3 * n
        assert generate(FamilySpec("friendship", (n,))).edge_count == 3 * n
    for n in range(3, 15):
        assert generate(FamilySpec("cycle", (n,))).edge_count == n
        assert generate(FamilySpec("wheel", (n,))).edge_count == 2 * n
    for m in range(1, 7):
        for n in range(1, 7):
            assert generate(FamilySpec("complete_bipartite", (m, n))).edge_count == m * n
            assert generate(FamilySpec("bistar", (m, n))).edge_count == m + n + 1
            assert generate(FamilySpec("jellyfish", (m, n))).edge_count == m + n + 5
    # the pieces' size sum, which generate checks against its bound before building
    for family in FAMILY_NAMES:
        names, lo = _FAMILIES[family]
        for params in product(range(lo, lo + 8), repeat=len(names.split())):
            spec = FamilySpec(family, params)
            assert _pieces(spec)[1] == generate(spec).edge_count


@pytest.mark.parametrize(
    "family,params",
    [("path", (_EDGES_MAX + 2,)), ("complete", (3163,)), ("complete_bipartite", (3000, 3000))],
)
def test_generate_rejects_a_graph_past_the_edge_bound(family, params):
    with pytest.raises(FamilyParameterError) as err:
        generate(FamilySpec(family, params))
    assert f"{_EDGES_MAX:,}" in str(err.value)


def test_jellyfish_topology():
    g = generate(FamilySpec("jellyfish", (7, 7)))
    internal = [e for e in g.edges if e[0] < 4 and e[1] < 4]
    assert internal == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert sum(1 for u, v in g.edges if u == 2 and v >= 4) == 7
    assert sum(1 for u, v in g.edges if u == 3 and v >= 4) == 7


def _triangles(g: Graph):
    edges = set(g.edges)
    for u, v in g.edges:
        for w in range(g.vertex_count):
            if w in (u, v):
                continue
            a = (min(u, w), max(u, w))
            b = (min(v, w), max(v, w))
            if a in edges and b in edges:
                yield (u, v, w)


@pytest.mark.parametrize("family", ["friendship", "triangular_snake"])
@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_blade_families_cover_edges_with_triangles(family, n):
    g = generate(FamilySpec(family, (n,)))
    on_triangle = set()
    for u, v, w in _triangles(g):
        on_triangle.add((u, v))
    assert on_triangle == set(g.edges)


@pytest.mark.parametrize(
    "family,params",
    [
        ("path", (0,)),
        ("cycle", (2,)),
        ("wheel", (2,)),
        ("complete", (0,)),
        ("complete_bipartite", (0, 3)),
        ("star", (0,)),
        ("bistar", (1, 0)),
        ("triangular_snake", (0,)),
        ("friendship", (0,)),
        ("jellyfish", (-1, 2)),
    ],
)
def test_parameter_bounds_rejected(family, params):
    with pytest.raises(FamilyParameterError):
        FamilySpec(family, params)


@pytest.mark.parametrize(
    "family,arity,bound",
    [
        ("path", 1, "n >= 1"),
        ("cycle", 1, "n >= 3"),
        ("complete", 1, "n >= 1"),
        ("complete_bipartite", 2, "m >= 1 and n >= 1"),
        ("star", 1, "n >= 1"),
        ("wheel", 1, "n >= 3"),
        ("bistar", 2, "m >= 1 and n >= 1"),
        ("triangular_snake", 1, "n >= 1"),
        ("friendship", 1, "n >= 1"),
        ("jellyfish", 2, "m1 >= 0 and m2 >= 0"),
    ],
)
def test_arity_and_bound_messages(family, arity, bound):
    wrong = (5,) * (3 - arity)
    with pytest.raises(FamilyParameterError) as err:
        FamilySpec(family, wrong)
    assert str(err.value) == f"{family} takes {arity} parameter(s), got {len(wrong)}"
    low = (-1,) + (0,) * (arity - 1)
    with pytest.raises(FamilyParameterError) as err:
        FamilySpec(family, low)
    assert str(err.value) == f"{family}{low} violates bound {bound}"


def test_unknown_family_and_arity_rejected():
    with pytest.raises(FamilyParameterError):
        FamilySpec("torus", (3,))
    with pytest.raises(FamilyParameterError):
        FamilySpec("path", (3, 4))


@pytest.mark.parametrize(
    "family,params,bad",
    [
        ("path", (2.7,), "2.7"),
        ("path", (3.0,), "3.0"),
        ("cycle", ("3",), "'3'"),
        ("star", (True,), "True"),
        ("complete_bipartite", (2, 1.5), "1.5"),
        ("jellyfish", (False, 3), "False"),
    ],
)
def test_non_integer_parameters_rejected(family, params, bad):
    # a float, string or bool is never truncated to an int size
    with pytest.raises(FamilyParameterError) as err:
        FamilySpec(family, params)
    assert family in str(err.value) and bad in str(err.value)


def test_graph_rejects_loops_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):  # a family field earns no trust
        Graph(3, ((0, 1), (1, 0)), family=FamilySpec("path", (3,)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))


def test_edges_normalized_and_deterministic():
    g = Graph(4, ((2, 1), (0, 3), (1, 0)))
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert generate(FamilySpec("wheel", (6,))) == generate(FamilySpec("wheel", (6,)))


# every family at small sizes, plus a few large ones
TRUSTED_GRID = (
    [("path", (n,)) for n in (1, 2, 3, 7, 5000)]
    + [("cycle", (n,)) for n in (3, 4, 5, 22, 1001)]
    + [("complete", (n,)) for n in (1, 2, 3, 9, 60)]
    + [("complete_bipartite", mn) for mn in ((1, 1), (2, 1), (3, 4), (5, 2), (40, 41))]
    + [("star", (n,)) for n in (1, 2, 9, 500)]
    + [("wheel", (n,)) for n in (3, 4, 5, 13, 1000)]
    + [("bistar", mn) for mn in ((1, 1), (2, 3), (6, 1), (300, 200))]
    + [("triangular_snake", (n,)) for n in (1, 2, 3, 4, 1000)]
    + [("friendship", (n,)) for n in (1, 2, 7, 1000)]
    + [("jellyfish", mn) for mn in ((0, 0), (0, 3), (2, 0), (7, 7), (50, 50))]
)


@pytest.mark.parametrize("family,params", TRUSTED_GRID)
def test_generated_edges_survive_the_validating_constructor(family, params):
    # generate stores its edges unchecked; this is the check it skips
    spec = FamilySpec(family, params)
    g = generate(spec)
    assert g == Graph(g.vertex_count, g.edges, family=spec)
    assert list(g.edges) == sorted(set(g.edges))
    assert all(0 <= u < v < g.vertex_count for u, v in g.edges)


@pytest.mark.parametrize("family,params", TRUSTED_GRID)
def test_generate_stores_the_edge_stream(family, params):
    # construct, gen and label --dot read the stream; generate stores it
    spec = FamilySpec(family, params)
    n, m, edges = _edge_stream(spec)
    streamed = list(edges)
    g = generate(spec)
    assert (n, m) == (g.vertex_count, g.edge_count) == (g.vertex_count, len(streamed))
    assert tuple(streamed) == g.edges == Graph(n, streamed).edges


def _expand(piece):
    # each kind as its definition reads: pairs of A, A x B, a_i to lane i in turn
    kind, a, b = piece
    if kind == "clique":
        return [(u, v) for i, u in enumerate(a) for v in a[i + 1 :]]
    if kind == "join":
        return [(u, v) for u in a for v in b]
    return [(u, lane[i]) for i, u in enumerate(a) for lane in b]


@pytest.mark.parametrize("family,params", TRUSTED_GRID)
def test_pieces_expand_to_the_generated_edges(family, params):
    spec = FamilySpec(family, params)
    n, m, pieces = _pieces(spec)
    g = generate(spec)
    for kind, a, b in pieces:
        assert kind in ("clique", "join", "zip"), spec
        if kind == "zip":
            assert all(len(lane) == len(a) for lane in b), spec
    expanded = [e for piece in pieces for e in _expand(piece)]
    assert expanded == sorted(set(expanded)) and all(0 <= u < v < n for u, v in expanded), spec
    assert (n, m) == (g.vertex_count, len(expanded))
    assert tuple(expanded) == g.edges == tuple(_edge_stream(spec)[2])


def nested_loop_edges(family, params):
    """(|V|, sorted edges) of a family graph, pair by pair from the numbering in
    graphs.py's docstring; it reads nothing from the package."""
    edges = []
    if family in ("path", "cycle"):
        (n,) = params
        count = n
        edges += [(i, i + 1) for i in range(n - 1)]
        if family == "cycle":
            edges.append((0, n - 1))
    elif family == "complete":
        (n,) = params
        count = n
        edges += [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "complete_bipartite":
        m, n = params
        count = m + n
        edges += [(a, m + b) for a in range(m) for b in range(n)]
    elif family == "star":
        (n,) = params
        count = n + 1
        edges += [(0, i) for i in range(1, n + 1)]
    elif family == "wheel":
        (n,) = params
        count = n + 1
        edges += [(0, i) for i in range(1, n + 1)]
        edges += [(i, i + 1) for i in range(1, n)] + [(1, n)]
    elif family == "bistar":
        m, n = params
        count = m + n + 2
        edges.append((0, 1))
        edges += [(0, 2 + i) for i in range(m)] + [(1, m + 2 + i) for i in range(n)]
    elif family == "triangular_snake":
        (n,) = params
        count = 2 * n + 1
        for i in range(1, n + 1):
            edges += [(i - 1, i), (i - 1, n + i), (i, n + i)]
    elif family == "friendship":
        (n,) = params
        count = 2 * n + 1
        for i in range(1, n + 1):
            edges += [(0, 2 * i - 1), (0, 2 * i), (2 * i - 1, 2 * i)]
    else:  # jellyfish
        m1, m2 = params
        count = m1 + m2 + 4
        edges += [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        edges += [(2, 4 + i) for i in range(m1)] + [(3, m1 + 4 + i) for i in range(m2)]
    assert len(set(edges)) == len(edges) and all(0 <= u < v < count for u, v in edges), (family, params)
    return count, sorted(edges)


def test_dense_families_list_edges_as_the_nested_loops_do():
    # every family, in the order labelings depend on (u ascending, then v ascending), as
    # generate stores it and its pieces list it: over TRUSTED_GRID, every shape with all
    # parameters <= 6 (jellyfish(0, 0), (0, m) and (m, 0) among them) and the dense families to 40
    region = list(TRUSTED_GRID)
    for family in FAMILY_NAMES:
        names, lo = _FAMILIES[family]
        region += [(family, p) for p in product(range(lo, 7), repeat=len(names.split()))]
    region += [("complete", (n,)) for n in range(7, 41)] + [("star", (n,)) for n in range(7, 41)]
    region += [("complete_bipartite", mn) for mn in product(range(1, 41), repeat=2) if max(mn) > 6]
    for family, params in region:
        spec = FamilySpec(family, params)
        count, edges = nested_loop_edges(family, params)
        n, m, pieces = _pieces(spec)
        assert (n, m) == (count, len(edges)), spec
        assert [e for piece in pieces for e in _expand(piece)] == edges, spec
        g = generate(spec)
        assert (g.vertex_count, list(g.edges)) == (count, edges), spec


# roles is a key the format no longer defines: the edge fault is what fails
@pytest.mark.parametrize(
    "edges,roles",
    [
        ("[[0, 1], [1, 0]]", '{"0": "path"}'),
        ("[[0, 1], [1, 3]]", '{"0": "wizard"}'),
    ],
)
def test_read_graph_with_a_family_is_still_validated(edges, roles):
    text = (
        f'{{"vertex_count": 3, "edges": {edges}, "roles": {roles}, '
        '"family": {"name": "path", "params": [3]}}'
    )
    with pytest.raises(FormatError):
        read_graph(text)


def test_family_is_keyword_only():
    # keyword-only, so an old positional roles tuple cannot land in family
    with pytest.raises(TypeError):
        Graph(2, ((0, 1),), ("path", "path"))
