"""The solver's bitmask flow bound against a plain residual-network max flow.

`menger_pair` is the only independent oracle the other tests have for
|S| = 2, and it shares `_flow_at_least` with the solver's pruning bound, so
a flow bug could make both wrong in the same way.  The reference below
builds the vertex-split network explicitly as adjacency lists and augments
by breadth-first search; it shares no code with the solver's routine.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import Graph
from treeconn.solver import _flow_at_least
from treeconn.steiner import GraphBits

_INF = 1 << 30


def reference_flow(
    bits: GraphBits,
    smask: int,
    avail_v: int,
    avail_e: int,
    src: int,
    dst: int,
    target: int | None,
) -> int:
    """Unit-capacity max flow from src_out to dst_in on the split network."""
    # node 2v = v_in, 2v+1 = v_out; an arc is [head, residual, reverse index]
    graph: dict[int, list[list[int]]] = {}

    def add(u: int, v: int, cap: int) -> None:
        graph.setdefault(u, []).append([v, cap, len(graph.setdefault(v, []))])
        graph[v].append([u, 0, len(graph[u]) - 1])

    for v in range(bits.order):
        if avail_v >> v & 1:
            add(2 * v, 2 * v + 1, _INF if smask >> v & 1 else 1)
    for e in range(len(bits.edges)):
        if avail_e >> e & 1:
            u, v = bits.edges[e]
            add(2 * u + 1, 2 * v, 1)
            add(2 * v + 1, 2 * u, 1)

    source, sink = 2 * src + 1, 2 * dst
    flow = 0
    while target is None or flow < target:
        parent: dict[int, tuple[int, int]] = {source: (-1, -1)}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for idx, arc in enumerate(graph.get(u, ())):
                if arc[1] > 0 and arc[0] not in parent:
                    parent[arc[0]] = (u, idx)
                    queue.append(arc[0])
        if sink not in parent:
            break
        node = sink
        while node != source:
            prev, idx = parent[node]
            arc = graph[prev][idx]
            arc[1] -= 1
            graph[node][arc[2]][1] += 1
            node = prev
        flow += 1
    return flow


@st.composite
def flow_calls(draw):
    order = draw(st.integers(min_value=2, max_value=12))
    pairs = list(itertools.combinations(range(order), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * order))
    bits = GraphBits(Graph(order, tuple(edges)))
    all_v = (1 << order) - 1
    smask = draw(st.integers(min_value=0, max_value=all_v))
    avail_v = draw(st.just(all_v) | st.integers(min_value=0, max_value=all_v))
    avail_e = draw(st.just(bits.all_e) | st.integers(min_value=0, max_value=bits.all_e))
    # an unavailable vertex is one without available edges
    for v in range(order):
        if not avail_v >> v & 1:
            avail_e &= ~bits.einc[v]
    src, dst = draw(
        st.lists(st.integers(min_value=0, max_value=order - 1), min_size=2, max_size=2, unique=True)
    )
    target = draw(st.none() | st.integers(min_value=1, max_value=4))
    return bits, smask, avail_e, src, dst, target


@settings(max_examples=400, deadline=None)
@given(flow_calls())
def test_flow_matches_reference(call):
    bits, smask, avail_e, src, dst, target = call
    all_v = (1 << bits.order) - 1
    assert _flow_at_least(*call) == reference_flow(bits, smask, all_v, avail_e, src, dst, target)


# two routes through one terminal: terminals have no vertex capacity
_BOWTIE = GraphBits(Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))))


def test_bowtie_values():
    assert _flow_at_least(_BOWTIE, 0b00101, _BOWTIE.all_e, 0, 4, None) == 2
    assert _flow_at_least(_BOWTIE, 0b10001, _BOWTIE.all_e, 0, 4, None) == 1



# the shortest route 0-1-2-3-4 blocks both longer detours, so the second
# route must walk it backwards from 3 to 1, undoing it: this needs the
# residual arcs over edge flow and over a vertex's through-flow
_TRAP_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4),
    (0, 5), (5, 6), (6, 7), (3, 7),
    (1, 8), (8, 9), (9, 10), (4, 10),
)
_TRAP = GraphBits(Graph(11, _TRAP_EDGES))


def test_trap_needs_cancellation():
    assert _flow_at_least(_TRAP, 0b10001, _TRAP.all_e, 0, 4, None) == 2
    assert reference_flow(_TRAP, 0b10001, (1 << 11) - 1, _TRAP.all_e, 0, 4, None) == 2
