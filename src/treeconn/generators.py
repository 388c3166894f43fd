"""Seeded random instance generators.

All randomness flows through an explicit random.Random, so a seed fully
determines every generated instance, byte for byte, and the rng state
after it.  `random_graph` draws one `rng.random()` per pair of
`itertools.combinations(range(order), 2)`, in that order, and builds its
graph unchecked, through `graph._unchecked`; every other `Graph` is
validated.  Counts and sizes are checked by `graph._int_arg`, like every
integer argument of the library, so a bad one raises `ValueError("{name}
must be an int{bound}, got {value!r}")`; `edge_prob` must be an `int` or
`float` (not a `bool`) in [0, 1].
"""

from __future__ import annotations

import itertools
import random

from .graph import Graph, TerminalSet, _int_arg, _is_int, _unchecked, components
from .reductions import CnfFormula, ThreeDMInstance


def random_graph(rng: random.Random, order: int, edge_prob: float) -> Graph:
    """G(order, edge_prob): each pair `(u, v)`, `u < v`, is an edge when its
    `rng.random()` draw is below `edge_prob`.

    The pairs are drawn in `itertools.combinations(range(order), 2)` order,
    one draw each, so the output and the rng state after it are fixed by
    the seed byte for byte.  Those pairs are canonical already, so the
    graph is built unchecked, by `graph._unchecked`.
    """
    _int_arg(order, "order", 1)
    if not ((_is_int(edge_prob) or isinstance(edge_prob, float)) and 0.0 <= edge_prob <= 1.0):
        raise ValueError(f"edge_prob must be a number in [0, 1], got {edge_prob!r}")
    draw = rng.random
    pairs = itertools.combinations(range(order), 2)
    # order is checked above; `combinations` yields unique sorted pairs u < v < order
    edges = tuple([e for e in pairs if draw() < edge_prob])
    return _unchecked(Graph, order=order, edges=edges, labels=None)


def random_connected_graph(
    rng: random.Random, order: int, edge_prob: float, max_tries: int = 10000
) -> Graph:
    """Sample until connected; probability retries, never edge patching."""
    for _ in range(_int_arg(max_tries, "max_tries", 1)):
        graph = random_graph(rng, order, edge_prob)
        if len(components(graph)) == 1:
            return graph
    raise ValueError(
        f"no connected graph of order {order} at p={edge_prob} in {max_tries} tries"
    )


def random_terminals(rng: random.Random, graph: Graph, size: int) -> TerminalSet:
    _int_arg(size, "size", 2, graph.order)
    return TerminalSet(tuple(rng.sample(range(graph.order), size)))


def random_3dm(rng: random.Random, n: int, m: int) -> ThreeDMInstance:
    _int_arg(m, "m", _int_arg(n, "n", 1), n**3)
    codes = rng.sample(range(n**3), m)
    triples = tuple((c // (n * n), c // n % n, c % n) for c in codes)
    return ThreeDMInstance(n, triples)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    size = min(3, _int_arg(num_vars, "num_vars", 1))
    clauses = []
    for _ in range(_int_arg(num_clauses, "num_clauses", 0)):
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))
