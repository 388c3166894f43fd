"""The solver's bitmask flow bound against a plain residual-network max flow.

`menger_pair` is the only independent oracle the other tests have for
|S| = 2, and it shares `_flow_at_least` with the solver's pruning bound, so
a flow bug could make both wrong in the same way.  The reference below
builds the vertex-split network explicitly as adjacency lists and augments
by breadth-first search; it shares no code with the solver's routine.
The flows `_bound` runs start from the routes of one breadth-first search;
they must reach the same values as flows started from nothing.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import Graph, solver
from treeconn.solver import _bound, _flow_at_least, _Terminals
from treeconn.steiner import GraphBits, _bfs_parents

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


# ---------------------------------------------------------------------------
# Flows seeded from one breadth-first search, and the bound built on them
# ---------------------------------------------------------------------------


@st.composite
def terminal_calls(draw):
    """A random graph, an available edge mask and a terminal set."""
    order = draw(st.integers(min_value=2, max_value=10))
    pairs = list(itertools.combinations(range(order), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * order))
    bits = GraphBits(Graph(order, tuple(edges)))
    avail_e = draw(st.just(bits.all_e) | st.integers(min_value=0, max_value=bits.all_e))
    vertex = st.integers(min_value=0, max_value=order - 1)
    members = draw(st.lists(vertex, min_size=2, max_size=order, unique=True))
    return bits, avail_e, _Terminals(bits, tuple(sorted(members)))


@settings(max_examples=300, deadline=None)
@given(terminal_calls(), st.integers(min_value=0, max_value=3), st.none() | st.integers(1, 4))
def test_seeded_flows_match_the_unseeded_ones(call, pick, target):
    bits, avail_e, ts = call
    src = ts.members[pick % len(ts.members)]
    up = _bfs_parents(bits, ts.smask, avail_e, src)
    all_v = (1 << bits.order) - 1
    sinks = [t for t in ts.members if t != src]
    flows = [reference_flow(bits, ts.smask, all_v, avail_e, src, t, target) for t in sinks]
    if up is None:
        # S is split: some terminal has no route from src at all
        assert 0 in flows
        return
    for t, want in zip(sinks, flows):
        assert _flow_at_least(bits, ts.smask, avail_e, src, t, target, up) == want
        assert _flow_at_least(bits, ts.smask, avail_e, src, t, target) == want


def star_bound(bits, ts, avail_e, cap, need):
    """`_bound` as a star of unseeded flows, each to exhaustion, from the
    terminal of least available degree: 0 when one is 0 (S is split),
    else cap lowered by each in turn until it falls below `need`."""
    if cap < need:
        return cap
    degrees = [(bits.einc[s] & avail_e).bit_count() for s in ts.members]
    src = ts.members[degrees.index(min(degrees))]
    flows = [_flow_at_least(bits, ts.smask, avail_e, src, t, None) for t in ts.members if t != src]
    if 0 in flows:
        return 0
    for flow in flows:
        if cap < need:
            break
        cap = min(cap, flow)
    return cap


@settings(max_examples=300, deadline=None)
@given(terminal_calls(), st.integers(min_value=0, max_value=5), st.integers(1, 5))
def test_bound_matches_a_star_of_unseeded_flows(call, cap, need):
    bits, avail_e, ts = call
    assert _bound(bits, ts, avail_e, cap, need) == star_bound(bits, ts, avail_e, cap, need)


def test_bound_of_a_split_terminal_set_is_zero():
    # 0-1-2 and 3-4 are apart: no route reaches terminal 4 from 0
    bits = GraphBits(Graph(5, ((0, 1), (1, 2), (3, 4))))
    ts = _Terminals(bits, (0, 2, 4))
    assert _bound(bits, ts, bits.all_e, 3, 1) == 0 == star_bound(bits, ts, bits.all_e, 3, 1)


def test_bound_runs_no_search_when_cap_is_below_need(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched although cap < need")

    monkeypatch.setattr(solver, "_bfs_parents", no_search)
    monkeypatch.setattr(solver, "_flow_at_least", no_search)
    ts = _Terminals(_BOWTIE, (0, 2, 4))
    assert _bound(_BOWTIE, ts, _BOWTIE.all_e, 1, 2) == 1
    assert _bound(_BOWTIE, ts, _BOWTIE.all_e, 0, 1) == 0


def test_a_seeded_route_saturates_its_non_terminals():
    # the first route is 0-1-2; the detour 0-3-1-4-2 needs vertex 1 again
    bits = GraphBits(Graph(5, ((0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4))))
    up = _bfs_parents(bits, 0b101, bits.all_e, 0)
    assert _flow_at_least(bits, 0b101, bits.all_e, 0, 2, None, up) == 1
    assert _flow_at_least(bits, 0b111, bits.all_e, 0, 2, None, up) == 2
