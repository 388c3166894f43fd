from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeconn import (
    Graph,
    GraphFormatError,
    TerminalSet,
    complete_graph,
    components,
    cycle_graph,
    export_dot,
    parse_graph,
    parse_terminals,
    path_graph,
    serialize_graph,
)


def test_parse_path_on_three_vertices():
    g = parse_graph('{"order":3, "edges":[[0,1],[1,2]]}')
    assert g.order == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph('{"order":2, "edges":[[0,0]]}')


def test_parse_k4():
    g = parse_graph('{"order":4, "edges":[[0,1],[1,2],[2,3],[3,0],[0,2],[1,3]]}')
    assert g.edge_count == 6
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph('{"order":3, "edges":[[0,1],[1,0]]}')


def test_parse_rejects_out_of_range_endpoint():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph('{"order":2, "edges":[[0,5]]}')


def test_parse_rejects_bad_json():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        parse_graph("{nope")


def test_parse_rejects_unknown_fields():
    with pytest.raises(GraphFormatError, match="unknown"):
        parse_graph('{"order":1, "edges":[], "extra":1}')


def test_labels_must_be_unique():
    with pytest.raises(GraphFormatError, match="duplicate label"):
        Graph(2, (), ("a", "a"))


@pytest.mark.parametrize(
    "edges, message",
    [
        ("[[0,1],[2]]", "edge 1: expected a pair, got [2]"),
        ("[[0,1],[1,2],[true,2]]", "edge 2: vertex id must be an integer, got True"),
        ('[[0,"1"]]', "edge 0: vertex id must be an integer, got '1'"),
        ("[[0,1],[2,2]]", "edge 1: self-loop (2,2)"),
        ("[[0,3]]", "edge 0: endpoint out of range for order 3: (0,3)"),
        ("[[0,1],[1,2],[2,1]]", "edge 2: duplicate edge (1, 2)"),
    ],
)
def test_edge_error_messages_are_exact(edges, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph('{"order":3, "edges":' + edges + "}")
    assert str(exc.value) == message


def test_edges_are_canonicalized():
    g = Graph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


@st.composite
def graphs(draw):
    order = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    labels = None
    if draw(st.booleans()):
        labels = tuple(f"v{i}" for i in range(order))
    return Graph(order, tuple(edges), labels)


@given(graphs())
def test_serialize_round_trip(g: Graph):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs())
def test_components_partition(g: Graph):
    comps = components(g)
    everything = [v for comp in comps for v in comp]
    assert sorted(everything) == list(range(g.order))
    assert len(set(everything)) == len(everything)
    for comp in comps:
        assert comp == sorted(comp)


def test_components_examples():
    assert components(path_graph(3)) == [[0, 1, 2]]
    assert components(Graph(3, ())) == [[0], [1], [2]]
    assert components(Graph(4, ((0, 1), (2, 3)))) == [[0, 1], [2, 3]]


def test_dot_is_deterministic_and_marks_terminals():
    g = path_graph(3)
    s = TerminalSet((0, 2))
    out1 = export_dot(g, s)
    out2 = export_dot(g, s)
    assert out1 == out2
    assert out1.count("style=filled") == 2
    assert "0 -- 1;" in out1


def test_dot_single_node():
    out = export_dot(Graph(1, ()))
    assert out == "graph {\n  0;\n}\n"


def test_dot_k4_edge_order():
    out = export_dot(complete_graph(4))
    lines = [ln.strip() for ln in out.splitlines() if "--" in ln]
    assert lines == [
        "0 -- 1;",
        "0 -- 2;",
        "0 -- 3;",
        "1 -- 2;",
        "1 -- 3;",
        "2 -- 3;",
    ]


def test_dot_rejects_invalid_terminal():
    with pytest.raises(ValueError):
        export_dot(path_graph(2), TerminalSet((0, 5)))


def test_terminal_set_normalizes_and_validates():
    s = TerminalSet((2, 0))
    assert s.members == (0, 2)
    with pytest.raises(ValueError):
        TerminalSet((1,))
    with pytest.raises(ValueError):
        TerminalSet((1, 1))
    assert parse_terminals("3,1").members == (1, 3)
    with pytest.raises(GraphFormatError):
        parse_terminals("1,x")


@pytest.mark.parametrize("text", ["0,1_0", "\u0661,2", "+1,2", " 1,2", "1,2\n", "-1,2", "1,,2", ""])
def test_parse_terminals_takes_only_ascii_decimals(text):
    """int() would read "0,1_0" as {0, 10} and the Arabic-Indic digit one as 1."""
    with pytest.raises(GraphFormatError, match="invalid terminal list"):
        parse_terminals(text)


def test_relabel_permutes_edges_and_labels():
    g = Graph(3, ((0, 1), (1, 2)), ("a", "b", "c"))
    h = g.relabel((2, 1, 0))
    assert h.edges == ((0, 1), (1, 2))
    assert h.labels == ("c", "b", "a")


def test_cycle_graph_requires_three():
    with pytest.raises(ValueError):
        cycle_graph(2)
