"""JSON round trips, format diagnostics, and DOT export."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perrin_cordial import (
    FAMILY_NAMES,
    FamilySpec,
    FormatError,
    Graph,
    PerrinLabeling,
    construct,
    Constructed,
    export_dot,
    generate,
    is_valid,
    read_graph,
    read_labeling,
    write_graph,
    write_labeling,
)

from perrin_cordial import graph_io
from perrin_cordial.graph_io import dot_lines, graph_chunks, labeling_chunks
from perrin_cordial.graphs import _edge_stream
from strategies import graph_json
from test_graphs import TRUSTED_GRID

ALL_SPECS = [
    FamilySpec("path", (6,)),
    FamilySpec("cycle", (5,)),
    FamilySpec("complete", (4,)),
    FamilySpec("complete_bipartite", (3, 4)),
    FamilySpec("star", (5,)),
    FamilySpec("wheel", (6,)),
    FamilySpec("bistar", (2, 3)),
    FamilySpec("triangular_snake", (3,)),
    FamilySpec("friendship", (3,)),
    FamilySpec("jellyfish", (2, 1)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_graph_round_trip(spec):
    g = generate(spec)
    assert read_graph(write_graph(g)) == g


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_labeling_round_trip(spec):
    got = construct(spec)
    assert isinstance(got, Constructed)
    f = got.labeling
    back = read_labeling(write_labeling(f))
    assert back == f


def _json_text(f):
    doc = {
        "domain_max": f.domain_max,
        "assignment": [{"vertex": v, "index": f.assignment[v]} for v in sorted(f.assignment)],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "f",
    [
        PerrinLabeling(assignment={}, domain_max=0),
        PerrinLabeling(assignment={}, domain_max=7),
        PerrinLabeling(assignment={0: 0}, domain_max=1),
        PerrinLabeling(assignment={0: 1}, domain_max=1),
    ],
)
def test_labeling_bytes_match_json_dumps_small(f):
    assert write_labeling(f) == _json_text(f)


@given(st.dictionaries(st.integers(0, 10**6), st.integers(-5, 10**6), max_size=40), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_labeling_bytes_match_json_dumps(assignment, domain_max):
    f = PerrinLabeling(assignment=assignment, domain_max=domain_max)
    assert write_labeling(f) == _json_text(f)


def test_labeling_bytes_match_json_dumps_on_a_constructed_path():
    f = construct(FamilySpec("path", (1000,))).labeling
    assert write_labeling(f) == _json_text(f)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("chunk", [3, graph_io._CHUNK])
def test_a_constructed_labeling_writes_as_its_assignment(family, chunk, monkeypatch):
    # the writers read a constructed labeling's pattern; fed the same entries
    # as a dict they write the same bytes, also where a chunk ends inside the labeling
    monkeypatch.setattr(graph_io, "_CHUNK", chunk)
    written = 0
    for name, params in TRUSTED_GRID:
        spec = FamilySpec(name, params)
        got = construct(spec) if name == family else None
        if not isinstance(got, Constructed):
            continue
        # plain's entries come from a second construction, so f's assignment stays unbuilt
        f = got.labeling
        plain = PerrinLabeling(dict(construct(spec).labeling.assignment), f.domain_max)
        text = write_labeling(plain)
        assert write_labeling(f) == "".join(labeling_chunks(f)) == text == _json_text(plain), spec
        dots = []
        for labeling in (f, plain):
            n, _, edges = _edge_stream(spec)
            dots.append("".join(dot_lines(n, edges, labeling)))
        assert dots[0] == dots[1], spec
        assert "assignment" not in vars(f), spec
        written += 1
    assert written


def test_label_json_of_a_long_path_holds_no_assignment():
    # path(200001): the labeling is its pattern, and the text goes out a chunk at a time
    tracemalloc.start()
    try:
        f = construct(FamilySpec("path", (200_001,))).labeling
        size = sum(map(len, labeling_chunks(f)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "assignment" not in vars(f)
    # the assignment dict alone takes about 28 MB
    assert peak < 2_000_000, peak
    assert size == len(write_labeling(PerrinLabeling(dict(f.assignment), f.domain_max)))


def test_reading_a_long_paths_assignment_holds_4_bytes_a_vertex():
    # path(200001): the first read keeps one 4-byte index per vertex, built a chunk at a time
    f = construct(FamilySpec("path", (200_001,))).labeling
    tracemalloc.start()
    try:
        assignment = f.assignment
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dict of the same entries would take about 20 MB
    assert held < 2_000_000 and peak < 2_000_000, (held, peak)
    assert vars(f)["assignment"] is assignment and len(assignment) == 200_001


def test_graph_json_shape():
    g = generate(FamilySpec("path", (2,)))
    text = write_graph(g)
    assert '"vertex_count": 2' in text
    assert "[\n      0,\n      1\n    ]" in text or "[0, 1]" in text
    assert '"family"' in text and '"path"' in text
    assert read_graph(text) == g


def test_edge_out_of_range_diagnostic():
    with pytest.raises(FormatError) as err:
        read_graph('{"vertex_count": 3, "edges": [[0, 5]]}')
    assert "edges[0]" in str(err.value)


@given(graph_json())
@settings(max_examples=300, deadline=None)
def test_read_graph_equals_graph_of_the_same_content(case):
    text, (n, edges, family) = case
    assert read_graph(text) == Graph(n, edges, family=family)


@pytest.mark.parametrize(
    "g",
    [
        generate(FamilySpec("complete_bipartite", (300, 301))),
        generate(FamilySpec("star", (4096,))),
        generate(FamilySpec("star", (4097,))),
        generate(FamilySpec("path", (1,))),
        Graph(4, [(2, 3), (0, 1)]),
    ],
    ids=["many-chunks", "one-full-chunk", "one-past-a-chunk", "no-edges", "family-less"],
)
def test_graph_chunks_are_the_bytes_of_json_dumps(g):
    doc = {"vertex_count": g.vertex_count, "edges": g.edges}
    if g.family is not None:
        doc["family"] = {"name": g.family.name, "params": g.family.params}
    chunks = list(graph_chunks(g.vertex_count, g.edges, g.family))
    assert "".join(chunks) == write_graph(g) == json.dumps(doc) + "\n"
    # gen passes the family's edge stream: an iterator gives the same pieces
    assert list(graph_chunks(g.vertex_count, iter(g.edges), g.family)) == chunks
    # gen writes these one by one, so none holds more than a few thousand edges
    assert max(map(len, chunks)) < 100_000


def test_write_graph_is_one_compact_line():
    g = generate(FamilySpec("complete_bipartite", (300, 301)))
    text = write_graph(g)
    assert text.endswith("\n") and text.count("\n") == 1
    assert read_graph(text) == g


# the format defines no roles key: an old-style vertex map, aliased vertex
# keys and values that are no map at all are each ignored
@pytest.mark.parametrize(
    "roles",
    [
        {"0": "path", "1": "path", "2": "path"},
        {"0": "captain", "00": "apex", " 1": "hub", "+2": "rim"},
        None,
        5,
    ],
    ids=["old-map", "aliased-keys", "null", "number"],
)
def test_roles_key_is_ignored(roles):
    doc = {"vertex_count": 3, "edges": [[0, 1], [1, 2]], "family": {"name": "path", "params": [3]}}
    plain = read_graph(json.dumps(doc))
    assert read_graph(json.dumps({**doc, "roles": roles})) == plain


def test_read_graph_allocates_nothing_per_vertex():
    text = '{"vertex_count": 10000000, "edges": []}'
    tracemalloc.start()
    try:
        g = read_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count == 10_000_000
    assert peak < 1_000_000


# one fault per file: (vertex_count, edges, ignored roles key, field, message)
GRAPH_FAULTS = [
    (3, [[0, 1], 5], None, "edges[1]", "expected a [u, v] pair, got 5"),
    (3, [[0]], None, "edges[0]", "expected a [u, v] pair, got [0]"),
    (3, [[0, 1, 2]], None, "edges[0]", "expected a [u, v] pair, got [0, 1, 2]"),
    (3, [[True, 1]], None, "edges[0][0]", "expected an integer, got True"),
    (3, [[0, False]], None, "edges[0][1]", "expected an integer, got False"),
    (3, [[0, 1.0]], None, "edges[0][1]", "expected an integer, got 1.0"),
    (3, [["0", 1]], None, "edges[0][0]", "expected an integer, got '0'"),
    (3, [[0, 3]], None, "edges[0]", "edge [0, 3] out of range 0..2"),
    (3, [[-1, 2]], None, "edges[0]", "edge [-1, 2] out of range 0..2"),
    (3, [[0, 1], [2, 2]], None, "edges[1]", "self-loop at vertex 2"),
    (3, [[0, 1], [1, 2], [1, 0]], None, "edges[2]", "duplicate of edges[0], edge (0, 1)"),
    (3, [[0, 1], [1, 3]], {"1": "captain"}, "edges[1]", "edge [1, 3] out of range 0..2"),
    (3, [[0, 1], [1, 2], [0, 2], [2, 0]], None, "edges", "4 listed, but a simple graph on 3 vertices has at most 3"),
    (2, [[0, 1], [1, 0]], None, "edges", "2 listed, but a simple graph on 2 vertices has at most 1"),
    (3, [[0.5, 2]], None, "edges[0][0]", "expected an integer, got 0.5"),
    (3, [[True, 2]], None, "edges[0][0]", "expected an integer, got True"),
    (2.5, [[0, 1]], None, "vertex_count", "expected an integer, got 2.5"),
    (10_000_001, [], None, "vertex_count", "must be between 0 and 10000000, got 10000001"),
]


@pytest.mark.parametrize("n,edges,roles,field,message", GRAPH_FAULTS)
def test_graph_fault_table(n, edges, roles, field, message):
    doc = {"vertex_count": n, "edges": edges}
    if roles is not None:
        doc["roles"] = roles
    with pytest.raises(FormatError) as err:
        read_graph(json.dumps(doc))
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"


@pytest.mark.parametrize("n,edges,roles,field,message", GRAPH_FAULTS)
def test_graph_constructor_fault_table(n, edges, roles, field, message):
    # Graph(...) runs read_graph's checker: the same field and the same text
    with pytest.raises(FormatError) as err:
        Graph(n, edges)
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"


@pytest.mark.parametrize(
    "edge,shown", [((0.5, 2), "0.5"), ((True, 2), "True"), ((0, 2.0), "2.0")]
)
def test_graph_constructor_checks_tuple_pairs(edge, shown):
    k = 0 if type(edge[0]) is not int else 1
    with pytest.raises(FormatError) as err:
        Graph(3, (edge,))
    assert str(err.value) == f"edges[0][{k}]: expected an integer, got {shown}"


@pytest.mark.parametrize("family", ["path", {"name": "path", "params": [2]}, ("path", (2,))])
def test_graph_family_must_be_a_family_spec(family):
    # a name was stored and broke write_graph; a dict made the graph unhashable
    with pytest.raises(FormatError) as err:
        Graph(2, ((0, 1),), family=family)
    assert err.value.field == "family"
    assert str(err.value) == f"family: expected a FamilySpec or None, got {family!r}"


def test_first_faulty_edge_in_list_order_is_reported():
    # the duplicate at edges[1] comes before the out-of-range edges[2]
    with pytest.raises(FormatError) as err:
        read_graph('{"vertex_count": 3, "edges": [[0, 1], [1, 0], [0, 7]]}')
    assert str(err.value) == "edges[1]: duplicate of edges[0], edge (0, 1)"


@pytest.mark.parametrize(
    "entry,field,shown",
    [
        ('{"vertex": true, "index": 0}', "assignment[0].vertex", "True"),
        ('{"vertex": 0, "index": 1.5}', "assignment[0].index", "1.5"),
        ('{"vertex": "0", "index": "1"}', "assignment[0].vertex", "'0'"),
    ],
)
def test_labeling_entry_must_hold_integers(entry, field, shown):
    with pytest.raises(FormatError) as err:
        read_labeling('{"domain_max": 2, "assignment": [%s]}' % entry)
    assert str(err.value) == f"{field}: expected an integer, got {shown}"


def test_malformed_json_diagnostic():
    with pytest.raises(FormatError) as err:
        read_graph('{"vertex_count": 3,')
    assert "line 1" in str(err.value)


def test_missing_fields_and_types():
    with pytest.raises(FormatError):
        read_graph('{"edges": []}')
    with pytest.raises(FormatError):
        read_graph('{"vertex_count": "three"}')
    with pytest.raises(FormatError):
        read_labeling('{"assignment": []}')
    with pytest.raises(FormatError):
        read_labeling('{"domain_max": 2, "assignment": [{"vertex": 0}]}')


def test_duplicate_index_parses_but_fails_validation():
    text = (
        '{"domain_max": 2, "assignment": '
        '[{"vertex": 0, "index": 1}, {"vertex": 1, "index": 1}]}'
    )
    f = read_labeling(text)  # parse/validate separation
    g = generate(FamilySpec("path", (2,)))
    assert not is_valid(g, f)


@pytest.mark.parametrize("params,shown", [("5", "5"), ("null", "None"), ("true", "True")])
def test_family_params_must_be_a_list(params, shown):
    text = '{"vertex_count": 2, "edges": [[0, 1]], "family": {"name": "path", "params": %s}}'
    with pytest.raises(FormatError) as err:
        read_graph(text % params)
    assert str(err.value) == f"family.params: expected a list of integers, got {shown}"


def test_dot_path2():
    g = generate(FamilySpec("path", (2,)))
    f = PerrinLabeling({0: 0, 1: 1}, 2)
    dot = export_dot(g, f)
    vertex_lines = [ln for ln in dot.splitlines() if "label=" in ln]
    assert sum(" color=red" in ln for ln in vertex_lines) == 1
    assert sum(" color=black" in ln for ln in vertex_lines) == 1
    assert "0 -- 1 [color=black];" in dot
    assert 'label="P_0"' in dot and 'label="P_1"' in dot


def test_dot_monochromatic_triangle():
    g = generate(FamilySpec("cycle", (3,)))
    f = PerrinLabeling({0: 0, 1: 2, 2: 3}, 3)
    # P_0, P_2 and P_3 are all even, so every vertex and edge is red
    assert export_dot(g, f) == (
        "graph {\n"
        "  node [shape=circle];\n"
        '  0 [label="P_0" color=red fontcolor=red];\n'
        '  1 [label="P_2" color=red fontcolor=red];\n'
        '  2 [label="P_3" color=red fontcolor=red];\n'
        "  0 -- 1 [color=red];\n"
        "  0 -- 2 [color=red];\n"
        "  1 -- 2 [color=red];\n"
        "}\n"
    )


def test_dot_snake_figure_edge_colors():
    # the drawn instance has exactly six even (red) edges
    g = generate(FamilySpec("triangular_snake", (4,)))
    fig = PerrinLabeling({0: 1, 1: 4, 2: 6, 3: 3, 4: 9, 5: 0, 6: 2, 7: 7, 8: 5}, 9)
    dot = export_dot(g, fig)
    edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
    assert sum("color=red" in ln for ln in edge_lines) == 6
    assert sum("color=black" in ln for ln in edge_lines) == 6


def test_dot_byte_stable():
    spec = FamilySpec("wheel", (7,))
    g = generate(spec)
    got = construct(spec)
    assert export_dot(g, got.labeling) == export_dot(g, got.labeling)


def test_dot_rejects_invalid_labeling():
    g = generate(FamilySpec("path", (3,)))
    with pytest.raises(ValueError):
        export_dot(g, PerrinLabeling({0: 0, 1: 0, 2: 1}, 3))
