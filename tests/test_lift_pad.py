from __future__ import annotations

import random

import pytest

from treeconn import (
    Graph,
    brute_force_kappa,
    complete_graph,
    cycle_graph,
    decide_kappa_at_least,
    lift_terminals,
    pad_tree_count,
    path_graph,
)
from treeconn.generators import random_connected_graph, random_terminals


def test_lift_k4_positive():
    g = complete_graph(4)
    red = lift_terminals(g, (0, 1, 2, 3), 5, 2)
    assert red.graph.order == 7  # one hub, two midpoints
    assert red.terminals.members == (0, 1, 2, 3, 4)
    assert red.threshold == 2
    assert red.roles[4] == "lift-hub(0)"
    assert red.roles[5] == "lift-mid(0,0)" and red.roles[6] == "lift-mid(0,1)"
    # paths of length two from the hub to the least terminal
    assert red.graph.has_edge(4, 5) and red.graph.has_edge(5, 0)
    assert decide_kappa_at_least(red.graph, red.terminals, 2).outcome == "certificate"


def test_lift_c4_negative():
    g = cycle_graph(4)
    assert brute_force_kappa(g, (0, 1, 2, 3)) == 1
    red = lift_terminals(g, (0, 1, 2, 3), 5, 2)
    assert decide_kappa_at_least(red.graph, red.terminals, 2).outcome == "refuted"


def test_lift_validation():
    with pytest.raises(ValueError) as err:
        lift_terminals(complete_graph(4), (0, 1, 2, 3), 4, 2)
    assert str(err.value) == "k1 must be an int >= 5, got 4"
    with pytest.raises(ValueError) as err:
        lift_terminals(complete_graph(4), (0, 1, 2, 3), 5, 0)
    assert str(err.value) == "k2 must be an int >= 1, got 0"


def test_lift_multiple_hubs_layout():
    g = complete_graph(4)
    red = lift_terminals(g, (0, 1, 2, 3), 6, 3)
    assert red.graph.order == 4 + 2 + 6
    assert red.roles[4] == "lift-hub(0)" and red.roles[5] == "lift-hub(1)"
    assert red.roles[6] == "lift-mid(0,0)" and red.roles[9] == "lift-mid(1,0)"
    assert red.terminals.members == (0, 1, 2, 3, 4, 5)


def test_pad_cycle_positive():
    g = cycle_graph(4)
    red = pad_tree_count(g, (0, 2), 3)
    assert red.graph.order == 5
    assert red.terminals.members == (0, 2)
    assert red.roles[4] == "pad(0)"
    assert red.graph.has_edge(4, 0) and red.graph.has_edge(4, 2)
    assert not red.graph.has_edge(4, 1)
    assert decide_kappa_at_least(red.graph, red.terminals, 3).outcome == "certificate"


def test_pad_path_negative():
    g = path_graph(4)
    assert brute_force_kappa(g, (0, 3)) == 1
    red = pad_tree_count(g, (0, 3), 3)
    assert decide_kappa_at_least(red.graph, red.terminals, 3).outcome == "refuted"


def test_pad_validation():
    with pytest.raises(ValueError) as err:
        pad_tree_count(cycle_graph(4), (0, 2), 2)
    assert str(err.value) == "k must be an int >= 3, got 2"


@pytest.mark.parametrize(
    "reduce, ks, message",
    [
        (lift_terminals, (3, True), "k2 must be an int >= 1, got True"),
        (lift_terminals, (3.0, 2), "k1 must be an int >= 3, got 3.0"),
        (lift_terminals, ("3", 2), "k1 must be an int >= 3, got '3'"),
        (pad_tree_count, (3.0,), "k must be an int >= 3, got 3.0"),
        (pad_tree_count, (True,), "k must be an int >= 3, got True"),
    ],
    # short ids, so that a re-worded message does not rename a row
    ids=["lift-k2-bool", "lift-k1-float", "lift-k1-str", "pad-k-float", "pad-k-bool"],
)
def test_lift_and_pad_reject_non_int_values(reduce, ks, message):
    with pytest.raises(ValueError) as err:
        reduce(cycle_graph(4), (0, 2), *ks)
    assert str(err.value) == message


@pytest.mark.parametrize("seed", range(12))
def test_lift_equivalence_random(seed):
    rng = random.Random(90000 + seed)
    g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
    s = random_terminals(rng, g, min(4, g.order))
    k1 = rng.choice([5, 6])
    k2 = rng.choice([1, 2, 3])
    base = decide_kappa_at_least(g, s, k2).outcome
    red = lift_terminals(g, s, k1, k2)
    assert decide_kappa_at_least(red.graph, red.terminals, red.threshold).outcome == base


@pytest.mark.parametrize("seed", range(12))
def test_pad_equivalence_random(seed):
    rng = random.Random(91000 + seed)
    g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
    s = random_terminals(rng, g, rng.randint(2, 4))
    k = rng.choice([3, 4])
    base = decide_kappa_at_least(g, s, 2).outcome == "certificate"
    red = pad_tree_count(g, s, k)
    padded = (
        decide_kappa_at_least(red.graph, red.terminals, red.threshold).outcome
        == "certificate"
    )
    assert base == padded


def test_lift_and_pad_keep_labels_and_leave_new_vertices_unlabelled():
    g = Graph(4, cycle_graph(4).edges, ("a", None, "c", "d"))
    lifted = lift_terminals(g, (0, 2), 3, 2)
    assert lifted.graph.labels == ("a", None, "c", "d", None, None, None)
    assert lifted.graph.edges == tuple(sorted(g.edges + ((0, 5), (0, 6), (4, 5), (4, 6))))
    assert [lifted.roles[v] for v in range(4)] == [f"original({v})" for v in range(4)]
    padded = pad_tree_count(g, (0, 2), 4)
    assert padded.graph.labels == ("a", None, "c", "d", None, None)
    assert padded.graph.edges == tuple(sorted(g.edges + ((0, 4), (2, 4), (0, 5), (2, 5))))
    assert [padded.roles[v] for v in range(4, 6)] == ["pad(0)", "pad(1)"]
    # an unlabelled graph stays unlabelled
    assert pad_tree_count(cycle_graph(4), (0, 2), 3).graph.labels is None
