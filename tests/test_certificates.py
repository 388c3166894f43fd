from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import (
    Graph,
    GraphFormatError,
    ReducedInstance,
    TerminalSet,
    Tree,
    TreeCertificate,
    certificate_to_obj,
    complete_graph,
    cycle_graph,
    enumerate_steiner_trees,
    kappa_set_exact,
    menger_pair,
    parse_certificate,
    path_graph,
    serialize_certificate,
    verify_certificate,
)
from treeconn.generators import random_graph


def tree(vertices, edges) -> Tree:
    return Tree(tuple(vertices), tuple(tuple(e) for e in edges))


def test_k4_two_spanning_trees_valid():
    cert = TreeCertificate(
        (
            tree(range(4), [(0, 1), (1, 2), (2, 3)]),
            tree(range(4), [(0, 2), (0, 3), (1, 3)]),
        )
    )
    report = verify_certificate(complete_graph(4), (0, 1, 2, 3), cert)
    assert report.valid
    assert report.violations == ()


def test_path_single_tree_valid():
    cert = TreeCertificate((tree(range(3), [(0, 1), (1, 2)]),))
    assert verify_certificate(path_graph(3), (0, 1, 2), cert).valid


def test_duplicate_tree_reports_edge_reuse():
    arc1 = tree((0, 1, 2), [(0, 1), (1, 2)])
    arc2 = tree((0, 2, 3), [(2, 3), (0, 3)])
    cert = TreeCertificate((arc1, arc2, arc1))
    report = verify_certificate(cycle_graph(4), (0, 2), cert)
    assert not report.valid
    assert any("share edge" in v for v in report.violations)


def test_missing_terminal_detected():
    cert = TreeCertificate((tree((0, 1), [(0, 1)]),))
    report = verify_certificate(path_graph(3), (0, 2), cert)
    assert not report.valid
    assert any("missing terminals [2]" in v for v in report.violations)


def test_shared_internal_vertex_detected():
    # edge-disjoint trees that both touch non-terminal 1
    g = complete_graph(4)
    cert = TreeCertificate(
        (
            tree((0, 1, 2), [(0, 1), (1, 2)]),
            tree((0, 1, 2, 3), [(0, 3), (2, 3), (1, 3)]),
        )
    )
    report = verify_certificate(g, (0, 2), cert)
    assert not report.valid
    assert any("share non-terminal vertex 1" in v for v in report.violations)


def test_cycle_and_disconnection_detected():
    g = complete_graph(4)
    cyclic = tree(range(4), [(0, 1), (1, 2), (0, 2)])
    report = verify_certificate(g, (0, 3), TreeCertificate((cyclic,)))
    assert not report.valid
    assert any("cycle" in v for v in report.violations)
    bad_count = tree(range(3), [(0, 1)])
    report = verify_certificate(g, (0, 2), TreeCertificate((bad_count,)))
    assert not report.valid
    assert any("not a tree" in v for v in report.violations)


def test_edge_outside_graph_detected():
    report = verify_certificate(
        path_graph(3), (0, 2), TreeCertificate((tree((0, 2), [(0, 2)]),))
    )
    assert not report.valid
    assert any("not in the graph" in v for v in report.violations)


def test_vertex_outside_graph_detected():
    report = verify_certificate(path_graph(2), (0, 1), TreeCertificate((tree((0, 1, 5), []),)))
    assert report.violations == ("tree 0: vertex 5 out of range",)


@pytest.mark.parametrize(
    "text, message",
    [('{"trees": [5]}', "tree 0: expected an object"),
     ('{"trees": [{"vertices": 5, "edges": []}]}', "tree 0: 'vertices' and 'edges' must be lists")],
)
def test_certificate_reader_rejects_malformed_trees(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_certificate(text)
    assert str(err.value) == message


def test_empty_certificate_is_valid():
    assert verify_certificate(path_graph(3), (0, 2), TreeCertificate(())).valid


def test_tree_constructor_rejects_malformed():
    with pytest.raises(ValueError):
        tree((0, 1), [(0, 0)])
    with pytest.raises(ValueError):
        tree((0, 1), [(0, 2)])
    with pytest.raises(ValueError):
        tree((0, 0, 1), [(0, 1)])


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ((0.5, 1), (), "invalid tree vertex id 0.5"),
        ((True, 2), (), "invalid tree vertex id True"),
        (("a", "b"), (), "invalid tree vertex id 'a'"),
        ((0, 1.0), ((0, 1),), "invalid tree vertex id 1.0"),
        ((-1, 0), (), "invalid tree vertex id -1"),
        ((0, 1), ((0, 2),), r"tree edge \(0,2\) has endpoint outside vertex set"),
        ((0, 1), ((0, -1),), r"tree edge \(0,-1\) has endpoint outside vertex set"),
        ((), (), "tree must have at least one vertex"),
    ],
    ids=["float", "bool", "str", "float-with-edge", "negative", "edge-above", "edge-negative",
         "empty"],
)
def test_tree_constructor_rejects_bad_vertex_ids(vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        Tree(vertices, edges)


@st.composite
def steiner_instances(draw):
    order = draw(st.integers(min_value=2, max_value=10))
    p = draw(st.floats(min_value=0.2, max_value=0.8))
    graph = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), order, p)
    size = draw(st.integers(min_value=2, max_value=min(5, order)))
    terminals = draw(
        st.lists(st.integers(0, order - 1), min_size=size, max_size=size, unique=True)
    )
    return graph, terminals


@settings(max_examples=60, deadline=None)
@given(steiner_instances())
def test_trees_built_from_masks_are_canonical(instance):
    # steiner.tree_from_masks skips Tree's validation; each tree it builds
    # must equal the validated one and survive a certificate round trip
    graph, terminals = instance
    trees = enumerate_steiner_trees(graph, terminals, limit=300).trees
    trees += kappa_set_exact(graph, terminals, budget=3000).certificate.trees
    for t in trees:
        assert t == Tree(t.vertices, t.edges)
    cert = TreeCertificate(trees)
    text = serialize_certificate(cert)
    assert text == json.dumps(certificate_to_obj(cert), sort_keys=True, separators=(",", ":"))
    assert parse_certificate(text) == cert


class _Id(int):
    """A vertex id whose repr and str are not its decimal."""

    def __repr__(self) -> str:
        return f"_Id({int(self)})"

    __str__ = __repr__


def test_certificate_json_round_trip():
    cert = TreeCertificate(
        (
            tree(range(4), [(0, 1), (1, 2), (2, 3)]),
            tree(range(4), [(0, 2), (0, 3), (1, 3)]),
            # int-subclass ids are written as the JSON encoder writes them
            Tree((_Id(4), _Id(0)), ((_Id(4), _Id(0)),)),
        )
    )
    text = serialize_certificate(cert)
    assert text == json.dumps(certificate_to_obj(cert), sort_keys=True, separators=(",", ":"))
    assert text.endswith('{"edges":[[0,4]],"vertices":[0,4]}]}')
    assert parse_certificate(text) == cert
    assert serialize_certificate(parse_certificate(text)) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TerminalSet(5), "terminal ids: expected an iterable, got 5"),
        (lambda: TerminalSet((1, "a")), "invalid terminal id 'a'"),
        (lambda: kappa_set_exact(path_graph(3), (0, "a")), "invalid terminal id 'a'"),
        (lambda: Tree(5, ()), "tree vertex ids: expected an iterable, got 5"),
        (lambda: Tree((0, 1), 5), "tree edges: expected an iterable, got 5"),
        (lambda: TreeCertificate(5), "trees: expected an iterable, got 5"),
        (lambda: TreeCertificate((5,)), "tree 0: expected a Tree, got 5"),
        (lambda: Graph(3, 5), "edges: expected an iterable, got 5"),
        (lambda: Graph(2, (), 5), "labels: expected an iterable, got 5"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 1.5, ("a", "b")),
         "threshold must be an int >= 1, got 1.5"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), True, ("a", "b")),
         "threshold must be an int >= 1, got True"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 0, ("a", "b")),
         "threshold must be an int >= 1, got 0"),
        (lambda: ReducedInstance(path_graph(3), TerminalSet((0, 1)), 1, ("a", "b")),
         "roles must cover every vertex exactly once"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 1, ("a", "b", "c")),
         "roles must cover every vertex exactly once"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 1, 5),
         "roles: expected an iterable, got 5"),
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 1, (5, None)),
         "roles must map vertex ids to strings"),
        # a mapping from vertex ids is read as its keys, which are not strings
        (lambda: ReducedInstance(path_graph(2), TerminalSet((0, 1)), 1, {0: "a", 1: "b"}),
         "roles must map vertex ids to strings"),
        (lambda: ReducedInstance(path_graph(2), (0, 5), 1, ("a", "b")),
         "terminal 5 out of range for order 2"),
        (lambda: menger_pair(path_graph(3), 0, "a"), "invalid terminal id 'a'"),
        (lambda: menger_pair(path_graph(3), 0, 1.0), "invalid terminal id 1.0"),
        (lambda: menger_pair(path_graph(3), 0, True), "invalid terminal id True"),
        (lambda: menger_pair(path_graph(3), 0, 7), "terminal 7 out of range for order 3"),
    ],
    ids=["terminals-int", "terminals-str", "solver-terminals-str", "tree-vertices-int",
         "tree-edges-int", "certificate-int", "certificate-member-int", "graph-edges-int",
         "graph-labels-int", "reduced-threshold-float", "reduced-threshold-bool",
         "reduced-threshold-zero", "reduced-roles-missing", "reduced-roles-extra",
         "reduced-roles-int", "reduced-roles-non-str", "reduced-roles-mapping",
         "reduced-terminals-tuple-out-of-range", "menger-str", "menger-float",
         "menger-bool", "menger-out-of-range"],
)
def test_vertex_sequences_and_certificates_reject_malformed_input(build, message):
    # each member's type is checked before the ids are sorted, and a
    # certificate holds only Trees, so verification never meets a bare int
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
