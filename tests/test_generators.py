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
    with pytest.raises(ValueError, match="distinct triples"):
        random_3dm(random.Random(0), 2, 9)
    with pytest.raises(ValueError, match="m >= n"):
        random_3dm(random.Random(0), 3, 2)


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
    "make, name",
    [
        (lambda rng: random_graph(rng, 2.0, 0.5), "order"),
        (lambda rng: random_graph(rng, "3", 0.5), "order"),
        (lambda rng: random_graph(rng, True, 0.5), "order"),
        (lambda rng: random_connected_graph(rng, 2.0, 0.5), "order"),
        (lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=2.0), "max_tries"),
        (lambda rng: random_connected_graph(rng, 3, 0.5, max_tries=True), "max_tries"),
        (lambda rng: random_terminals(rng, random_graph(rng, 4, 0.5), 2.5), "size"),
        (lambda rng: random_terminals(rng, random_graph(rng, 4, 0.5), True), "size"),
        (lambda rng: random_3dm(rng, 2.0, 4), "n"),
        (lambda rng: random_3dm(rng, True, 4), "n"),
        (lambda rng: random_3dm(rng, 2, 4.0), "m"),
        (lambda rng: random_3dm(rng, 2, "4"), "m"),
        (lambda rng: random_cnf(rng, 3.0, 2), "num_vars"),
        (lambda rng: random_cnf(rng, True, 2), "num_vars"),
        (lambda rng: random_cnf(rng, 3, True), "num_clauses"),
        (lambda rng: random_cnf(rng, 3, 2.0), "num_clauses"),
    ],
)
def test_generator_counts_must_be_ints(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        make(random.Random(0))


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
