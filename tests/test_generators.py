from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import Graph, components, serialize_graph
from treeconn.generators import (
    random_3dm,
    random_cnf,
    random_connected_graph,
    random_graph,
    random_terminals,
)


def _message(make) -> str:
    with pytest.raises(ValueError) as err:
        make(random.Random(0))
    return str(err.value)


def test_same_seed_same_bytes():
    a = serialize_graph(random_graph(random.Random(1), 8, 0.4))
    b = serialize_graph(random_graph(random.Random(1), 8, 0.4))
    assert a == b


def test_connected_generator_connects():
    for seed in range(10):
        g = random_connected_graph(random.Random(seed), 7, 0.4)
        assert len(components(g)) == 1


def test_connected_generator_gives_up():
    with pytest.raises(ValueError, match="no connected graph"):
        random_connected_graph(random.Random(0), 5, 0.0, max_tries=20)


def test_3dm_generator_bounds():
    inst = random_3dm(random.Random(3), 2, 5)
    assert inst.n == 2 and inst.m == 5
    assert len(set(inst.triples)) == 5
    assert _message(lambda rng: random_3dm(rng, 2, 9)) == "m must be an int in [2, 8], got 9"
    assert _message(lambda rng: random_3dm(rng, 3, 2)) == "m must be an int in [3, 27], got 2"


def test_cnf_generator_clause_shape():
    phi = random_cnf(random.Random(4), 4, 6)
    assert phi.num_vars == 4 and phi.num_clauses == 6
    for clause in phi.clauses:
        assert len(clause) == 3
        assert len({abs(l) for l in clause}) == 3
    short = random_cnf(random.Random(4), 2, 3)
    assert all(len(c) == 2 for c in short.clauses)


def test_terminal_sampler():
    g = random_graph(random.Random(5), 6, 0.5)
    s = random_terminals(random.Random(5), g, 3)
    assert len(s) == 3
    with pytest.raises(ValueError):
        random_terminals(random.Random(5), g, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda rng: random_graph(rng, 2.0, 0.5), "order must be an int >= 1, got 2.0"),
        (lambda rng: random_graph(rng, "3", 0.5), "order must be an int >= 1, got '3'"),
        (lambda rng: random_graph(rng, True, 0.5), "order must be an int >= 1, got True"),
        (lambda rng: random_connected_graph(rng, 2.0, 0.5), "order must be an int >= 1, got 2.0"),
        (
            lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=2.0),
            "max_tries must be an int >= 1, got 2.0",
        ),
        (
            lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=True),
            "max_tries must be an int >= 1, got True",
        ),
        (
            lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=0),
            "max_tries must be an int >= 1, got 0",
        ),
        (
            lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=-5),
            "max_tries must be an int >= 1, got -5",
        ),
        (
            lambda rng: random_terminals(rng, random_graph(rng, 4, 0.5), 2.5),
            "size must be an int in [2, 4], got 2.5",
        ),
        (
            lambda rng: random_terminals(rng, random_graph(rng, 4, 0.5), True),
            "size must be an int in [2, 4], got True",
        ),
        (lambda rng: random_3dm(rng, 2.0, 4), "n must be an int >= 1, got 2.0"),
        (lambda rng: random_3dm(rng, True, 4), "n must be an int >= 1, got True"),
        (lambda rng: random_3dm(rng, 2, 4.0), "m must be an int in [2, 8], got 4.0"),
        (lambda rng: random_3dm(rng, 2, "4"), "m must be an int in [2, 8], got '4'"),
        (lambda rng: random_cnf(rng, 3.0, 2), "num_vars must be an int >= 1, got 3.0"),
        (lambda rng: random_cnf(rng, True, 2), "num_vars must be an int >= 1, got True"),
        (lambda rng: random_cnf(rng, 3, True), "num_clauses must be an int >= 0, got True"),
        (lambda rng: random_cnf(rng, 3, 2.0), "num_clauses must be an int >= 0, got 2.0"),
        (lambda rng: random_cnf(rng, 3, -2), "num_clauses must be an int >= 0, got -2"),
    ],
    # each row is named after its argument, "order0", "order1", ...
    ids=lambda v: v.split()[0] if isinstance(v, str) else None,
)
def test_generator_counts_must_be_ints(make, message):
    assert _message(make) == message


@pytest.mark.parametrize("edge_prob", ["0.5", True, 1.5, -0.1, float("nan"), None])
def test_edge_prob_must_be_a_number_in_the_unit_interval(edge_prob):
    message = _message(lambda rng: random_graph(rng, 3, edge_prob))
    assert message == f"edge_prob must be a number in [0, 1], got {edge_prob!r}"


def test_edge_prob_may_be_an_int():
    assert random_graph(random.Random(0), 3, 1).edges == ((0, 1), (0, 2), (1, 2))


def _reference_random_graph(rng: random.Random, order: int, edge_prob: float) -> Graph:
    # the nested-loop generator, through the validating constructor
    edges = []
    for u in range(order):
        for v in range(u + 1, order):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return Graph(order, tuple(edges))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=14),
    st.sampled_from([0.0, 0.1, 0.4, 0.8, 1.0]),
)
def test_random_graph_matches_the_validated_reference(seed, order, edge_prob):
    # random_graph builds its Graph unvalidated; it must equal the validated
    # one in every way a caller sees, and leave the rng in the same state
    rng, ref_rng = random.Random(seed), random.Random(seed)
    g = random_graph(rng, order, edge_prob)
    ref = _reference_random_graph(ref_rng, order, edge_prob)
    assert g == ref and hash(g) == hash(ref)
    assert g.labels is None
    assert serialize_graph(g) == serialize_graph(ref)
    assert rng.getstate() == ref_rng.getstate()
