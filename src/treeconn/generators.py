"""Seeded random instance generators.

All randomness flows through an explicit random.Random, so a seed fully
determines every generated instance, byte for byte, and the rng state
after it.  `random_graph` draws one `rng.random()` per pair of
`itertools.combinations(range(order), 2)`, in that order, and builds its
graph through the trusted `Graph._from_canonical`; every other `Graph` is
validated.  A count or size that is not an `int`, or is a `bool`, raises a
`ValueError` that names the argument.
"""

from __future__ import annotations

import itertools
import random

from .graph import Graph, TerminalSet, _is_int, components
from .reductions import CnfFormula, ThreeDMInstance


def _int(value: object, name: str) -> int:
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def random_graph(rng: random.Random, order: int, edge_prob: float) -> Graph:
    """G(order, edge_prob): each pair `(u, v)`, `u < v`, is an edge when its
    `rng.random()` draw is below `edge_prob`.

    The pairs are drawn in `itertools.combinations(range(order), 2)` order,
    one draw each, so the output and the rng state after it are fixed by
    the seed byte for byte.  Those pairs are canonical already, so the
    graph is built by the trusted `Graph._from_canonical`, unvalidated.
    """
    if _int(order, "order") < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must be in [0,1]")
    draw = rng.random
    pairs = itertools.combinations(range(order), 2)
    return Graph._from_canonical(order, tuple([e for e in pairs if draw() < edge_prob]))


def random_connected_graph(
    rng: random.Random, order: int, edge_prob: float, max_tries: int = 10000
) -> Graph:
    """Sample until connected; probability retries, never edge patching."""
    for _ in range(_int(max_tries, "max_tries")):
        graph = random_graph(rng, order, edge_prob)
        if len(components(graph)) == 1:
            return graph
    raise ValueError(
        f"no connected graph of order {order} at p={edge_prob} in {max_tries} tries"
    )


def random_terminals(rng: random.Random, graph: Graph, size: int) -> TerminalSet:
    if not 2 <= _int(size, "size") <= graph.order:
        raise ValueError(f"terminal count must be in [2, {graph.order}]")
    return TerminalSet(tuple(rng.sample(range(graph.order), size)))


def random_3dm(rng: random.Random, n: int, m: int) -> ThreeDMInstance:
    if _int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if _int(m, "m") > n**3:
        raise ValueError(f"only {n**3} distinct triples exist, cannot draw {m}")
    if m < n:
        raise ValueError(f"need m >= n = {n} triples for a usable instance")
    codes = rng.sample(range(n**3), m)
    triples = tuple((c // (n * n), c // n % n, c % n) for c in codes)
    return ThreeDMInstance(n, triples)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    if _int(num_vars, "num_vars") < 1:
        raise ValueError("num_vars must be >= 1")
    size = min(3, num_vars)
    clauses = []
    for _ in range(_int(num_clauses, "num_clauses")):
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))
