from __future__ import annotations

import itertools
import random

import pytest

from treeconn import (
    GraphFormatError,
    Matching,
    ThreeDMInstance,
    Tree,
    TreeCertificate,
    decide_kappa_at_least,
    matching_is_perfect,
    matching_to_trees,
    parse_3dm,
    reduce_3dm,
    serialize_3dm,
    solve_3dm_brute,
    trees_to_matching,
    verify_certificate,
)
from treeconn.generators import random_3dm
from treeconn.reductions import parse_reduced, serialize_reduced


def test_instance_validation():
    with pytest.raises(ValueError, match="distinct"):
        ThreeDMInstance(2, ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        ThreeDMInstance(1, ((0, 1, 0),))
    with pytest.raises(ValueError, match="at least n"):
        ThreeDMInstance(2, ((0, 0, 0),))


@pytest.mark.parametrize(
    "triples, message",
    [
        ((5,), "triple 0: expected an iterable, got 5"),
        (((0, 0, 0), None), "triple 1: expected an iterable, got None"),
        (None, "triples: expected an iterable, got None"),
        (7, "triples: expected an iterable, got 7"),
    ],
)
def test_instance_rejects_non_iterable_triples(triples, message):
    with pytest.raises(ValueError) as err:
        ThreeDMInstance(1, triples)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 1, "triples": 5}', "triples: expected an iterable, got 5"),
        ('{"n": 1, "triples": [[0, 0]]}', "triple 0: expected 3 coordinates, got (0, 0)"),
    ],
)
def test_parse_3dm_rejects_malformed_triples(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_3dm(text)
    assert str(err.value) == f"invalid 3-DM instance: {message}"


@pytest.mark.parametrize(
    "chosen, message",
    [
        (frozenset({True}), "triple index must be an int, got True"),
        (frozenset({0.0}), "triple index must be an int, got 0.0"),
        (("1",), "triple index must be an int, got '1'"),
        (([0],), "triple index must be an int, got [0]"),
        (None, "chosen: expected an iterable, got None"),
    ],
)
def test_matching_rejects_non_int_indices(chosen, message):
    with pytest.raises(ValueError) as err:
        Matching(chosen)
    assert str(err.value) == message


@pytest.mark.parametrize("index", [1, 5, -1])
def test_matching_is_perfect_rejects_out_of_range_indices(index):
    inst = ThreeDMInstance(1, ((0, 0, 0),))
    assert not matching_is_perfect(inst, Matching(frozenset({index})))
    with pytest.raises(ValueError, match="matching"):
        matching_to_trees(inst, Matching(frozenset({index})))


def test_matching_is_perfect_does_not_wrap_negative_indices():
    # -1 and -2 would index the two real triples, which match perfectly
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1)))
    assert matching_is_perfect(inst, Matching(frozenset({0, 1})))
    assert not matching_is_perfect(inst, Matching(frozenset({-1, -2})))
    assert not matching_is_perfect(inst, Matching(frozenset({0, -1})))


def test_single_triple_construction():
    inst = ThreeDMInstance(1, ((0, 0, 0),))
    red = reduce_3dm(inst)
    assert red.graph.order == 8
    assert red.graph.edge_count == 7
    assert red.threshold == 1
    assert red.terminals.members == (0, 1, 2, 3)
    assert red.roles[0] == "hub-u"
    assert red.roles[7] == "triple(0)"
    # hub pendants plus the triple's membership edges
    assert red.graph.edges == (
        (0, 4), (1, 5), (2, 6), (3, 7), (4, 7), (5, 7), (6, 7)
    )


def test_size_formula_and_block_layout():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    red = reduce_3dm(inst)
    n, m = 2, 3
    assert red.graph.order == 4 + 2 * n + 2 * m == 14
    assert red.threshold == 3
    roles = red.roles
    assert roles[4] == "element-u(0)" and roles[5] == "element-u(1)"
    assert roles[6] == "element-v(0)" and roles[8] == "element-w(0)"
    assert roles[10] == "triple(0)" and roles[12] == "triple(2)"
    assert roles[13] == "slack(0)"
    # slack vertex sees all triple vertices and the three element hubs
    assert red.graph.has_edge(13, 10) and red.graph.has_edge(13, 12)
    assert red.graph.has_edge(0, 13) and red.graph.has_edge(2, 13)
    assert not red.graph.has_edge(3, 13)


def test_positive_instance_decides_yes():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    red = reduce_3dm(inst)
    result = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
    assert result.outcome == "certificate"
    matching = trees_to_matching(inst, result.certificate)
    assert matching_is_perfect(inst, matching)


def test_negative_instance_decides_no():
    inst = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    red = reduce_3dm(inst)
    assert red.graph.order == 12
    result = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
    assert result.outcome == "refuted"
    assert solve_3dm_brute(inst) is None


def test_matching_to_trees_single():
    inst = ThreeDMInstance(1, ((0, 0, 0),))
    cert = matching_to_trees(inst, Matching(frozenset({0})))
    assert len(cert) == 1
    assert len(cert.trees[0].edges) == 7
    red = reduce_3dm(inst)
    assert verify_certificate(red.graph, red.terminals, cert).valid


def test_matching_to_trees_with_slack():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    cert = matching_to_trees(inst, Matching(frozenset({0, 1})))
    assert len(cert) == 3
    red = reduce_3dm(inst)
    assert verify_certificate(red.graph, red.terminals, cert).valid
    # the unmatched triple rides the first slack vertex
    slack_tree = cert.trees[2]
    assert 13 in slack_tree.vertices
    assert len(slack_tree.edges) == 5


def test_matching_to_trees_rejects_overlap():
    inst = ThreeDMInstance(2, ((0, 0, 0), (0, 1, 1)))
    with pytest.raises(ValueError, match="matching"):
        matching_to_trees(inst, Matching(frozenset({0, 1})))


def test_round_trip_matching():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    m = Matching(frozenset({0, 1}))
    assert trees_to_matching(inst, matching_to_trees(inst, m)) == m


def test_trees_to_matching_rejects_wrong_size():
    inst = ThreeDMInstance(1, ((0, 0, 0),))
    cert = matching_to_trees(inst, Matching(frozenset({0})))
    bigger = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="expected 2"):
        trees_to_matching(bigger, cert)


def test_oracle_examples():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    assert sorted(solve_3dm_brute(inst).chosen) == [0, 1]
    assert solve_3dm_brute(ThreeDMInstance(1, ((0, 0, 0),))).chosen == frozenset({0})
    with pytest.raises(ValueError, match="caps"):
        solve_3dm_brute(ThreeDMInstance(7, tuple((i, i, i) for i in range(7))))


def test_instance_json_round_trip():
    inst = ThreeDMInstance(2, ((0, 1, 0), (1, 0, 1)))
    assert parse_3dm(serialize_3dm(inst)) == inst
    # sizes and indices must be integers, or the reduction fails later
    for bad in (
        '{"n": 1.5, "triples": [[0, 0, 0], [1, 1, 1]]}',
        '{"n": true, "triples": [[0, 0, 0]]}',
    ):
        with pytest.raises(GraphFormatError, match="ground set size"):
            parse_3dm(bad)
    with pytest.raises(GraphFormatError, match="index 0.5"):
        parse_3dm('{"n": 1, "triples": [[0.5, 0, 0]]}')


def test_reduced_serialization_is_deterministic():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    a = serialize_reduced(reduce_3dm(inst))
    b = serialize_reduced(reduce_3dm(inst))
    assert a == b
    assert serialize_reduced(parse_reduced(a)) == a


@pytest.mark.parametrize("seed", range(8))
def test_random_equivalence_small(seed):
    rng = random.Random(987 + seed)
    inst = random_3dm(rng, 2, rng.randint(2, 4))
    red = reduce_3dm(inst)
    assert red.graph.order == 4 + 2 * inst.n + 2 * inst.m
    oracle = solve_3dm_brute(inst)
    decision = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
    assert (decision.outcome == "certificate") == (oracle is not None)
    if oracle is not None:
        cert = matching_to_trees(inst, oracle)
        assert verify_certificate(red.graph, red.terminals, cert).valid
        back = trees_to_matching(inst, decision.certificate)
        assert matching_is_perfect(inst, back)


def test_exhaustive_tiny_equivalence():
    space = list(itertools.product(range(2), repeat=3))
    for chosen in itertools.combinations(space, 3):
        inst = ThreeDMInstance(2, chosen)
        red = reduce_3dm(inst)
        oracle = solve_3dm_brute(inst)
        decision = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
        assert (decision.outcome == "certificate") == (oracle is not None), chosen


def test_trees_to_matching_rejects_an_invalid_tree():
    inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
    cert = matching_to_trees(inst, Matching(frozenset({0, 1})))
    # the hubs hub-u and hub-v are not adjacent
    broken = TreeCertificate(cert.trees[:2] + (Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))),))
    with pytest.raises(ValueError, match=r"invalid certificate: tree 2: edge \(0, 1\) not in"):
        trees_to_matching(inst, broken)
