"""Seeded random instance generators.

All randomness flows through an explicit random.Random, so a seed fully
determines every generated instance, byte for byte.
"""

from __future__ import annotations

import random

from .graph import Graph, TerminalSet, components
from .reductions import CnfFormula, ThreeDMInstance


def random_graph(rng: random.Random, order: int, edge_prob: float) -> Graph:
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must be in [0,1]")
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < edge_prob
    ]
    return Graph(order, tuple(edges))


def random_connected_graph(
    rng: random.Random, order: int, edge_prob: float, max_tries: int = 10000
) -> Graph:
    """Sample until connected; probability retries, never edge patching."""
    for _ in range(max_tries):
        graph = random_graph(rng, order, edge_prob)
        if len(components(graph)) == 1:
            return graph
    raise ValueError(
        f"no connected graph of order {order} at p={edge_prob} in {max_tries} tries"
    )


def random_terminals(rng: random.Random, graph: Graph, size: int) -> TerminalSet:
    if not 2 <= size <= graph.order:
        raise ValueError(f"terminal count must be in [2, {graph.order}]")
    return TerminalSet(tuple(rng.sample(range(graph.order), size)))


def random_3dm(rng: random.Random, n: int, m: int) -> ThreeDMInstance:
    if n < 1:
        raise ValueError("n must be >= 1")
    if m > n**3:
        raise ValueError(f"only {n**3} distinct triples exist, cannot draw {m}")
    if m < n:
        raise ValueError(f"need m >= n = {n} triples for a usable instance")
    codes = rng.sample(range(n**3), m)
    triples = tuple((c // (n * n), c // n % n, c % n) for c in codes)
    return ThreeDMInstance(n, triples)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    size = min(3, num_vars)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))
