from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import (
    Graph,
    TerminalSet,
    brute_force_kappa,
    components,
    complete_graph,
    cycle_graph,
    decide_kappa_at_least,
    kappa_k_graph,
    kappa_set_exact,
    menger_pair,
    path_graph,
    reduce_3dm,
    reduce_3sat,
    solver,
    verify_certificate,
)
from treeconn.certificates import TreeCertificate
from treeconn.generators import (
    random_3dm,
    random_cnf,
    random_connected_graph,
    random_graph,
    random_terminals,
)
from treeconn.solver import (
    KappaKResult,
    _Budget,
    _bound,
    _climb,
    _connectors,
    _greedy_packing,
    _remainder,
    _Terminals,
)
from treeconn.steiner import (
    GraphBits,
    extract_steiner_tree,
    iter_bits,
    iter_minimal_trees,
    mask_of,
    tree_from_masks,
)


def test_path_pair():
    result = kappa_set_exact(path_graph(3), (0, 2))
    assert result.value == 1
    assert result.status == "exact"


def test_k4_all_vertices():
    result = kappa_set_exact(complete_graph(4), (0, 1, 2, 3))
    assert result.value == 2
    assert verify_certificate(complete_graph(4), (0, 1, 2, 3), result.certificate).valid
    assert len(result.certificate) == 2


def test_c4_three_terminals():
    assert kappa_set_exact(cycle_graph(4), (0, 1, 2)).value == 1


def test_disconnected_terminals_give_zero():
    g = Graph(4, ((0, 1), (2, 3)))
    result = kappa_set_exact(g, (0, 2))
    assert result.value == 0
    assert result.status == "exact"
    assert len(result.certificate) == 0


def test_isolated_terminal_gives_zero():
    g = Graph(3, ((0, 1),))
    assert kappa_set_exact(g, (0, 2)).value == 0


def test_decide_examples():
    k4 = complete_graph(4)
    yes = decide_kappa_at_least(k4, (0, 1, 2, 3), 2)
    assert yes.outcome == "certificate"
    assert len(yes.certificate) == 2
    assert verify_certificate(k4, (0, 1, 2, 3), yes.certificate).valid
    no = decide_kappa_at_least(k4, (0, 1, 2, 3), 3)
    assert no.outcome == "refuted"
    arcs = decide_kappa_at_least(cycle_graph(4), (0, 2), 2)
    assert arcs.outcome == "certificate"


def test_decide_k_one_is_connectivity():
    assert decide_kappa_at_least(path_graph(4), (0, 3), 1).outcome == "certificate"
    assert decide_kappa_at_least(Graph(3, ()), (0, 2), 1).outcome == "refuted"
    with pytest.raises(ValueError):
        decide_kappa_at_least(path_graph(3), (0, 2), 0)


def test_budget_exhaustion_reports_unknown():
    g = complete_graph(6)
    result = decide_kappa_at_least(g, (0, 1, 2, 3), 3, budget=5)
    assert result.outcome == "unknown"
    assert result.certificate is None
    # the node that overdraws the budget is counted, then the search stops
    assert result.expansions == 6
    solve = kappa_set_exact(g, (0, 1, 2), budget=5)
    assert solve.status == "lower-bound"
    assert solve.expansions == 6
    assert solve.value >= 1
    assert len(solve.certificate) == solve.value
    assert verify_certificate(g, (0, 1, 2), solve.certificate).valid
    with pytest.raises(ValueError):
        kappa_set_exact(g, (0, 1), budget=0)


def test_a_search_leaves_no_garbage_cycle():
    # the level search's closures must not keep themselves alive: with the
    # cyclic collector off, a call that searches leaves nothing for it
    gc.collect()
    gc.disable()
    try:
        result = kappa_set_exact(complete_graph(7), (0, 1, 2, 3))
        assert (result.value, result.expansions) == (5, 122)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "call",
    [
        lambda g: decide_kappa_at_least(g, (0, 1), True),
        lambda g: decide_kappa_at_least(g, (0, 1), 2.0),
        lambda g: decide_kappa_at_least(g, (0, 1), 2, budget=True),
        lambda g: kappa_set_exact(g, (0, 1), budget=2.5),
        lambda g: kappa_set_exact(g, (0, 1), budget="100"),
        lambda g: kappa_k_graph(g, True),
        lambda g: kappa_k_graph(g, 3.0),
        lambda g: kappa_k_graph(g, 2, budget=1e6),
    ],
    ids=[
        "decide-k-bool", "decide-k-float", "decide-budget-bool", "kappa-budget-float",
        "kappa-budget-str", "kappa_k-k-bool", "kappa_k-k-float", "kappa_k-budget-float",
    ],
)
def test_integer_arguments_reject_bool_and_float(call):
    with pytest.raises(ValueError, match="must be"):
        call(complete_graph(4))


def test_menger_examples(petersen):
    k5 = complete_graph(5)
    for u, v in itertools.combinations(range(5), 2):
        assert menger_pair(k5, u, v) == 4
    for u, v in itertools.combinations(range(10), 2):
        assert menger_pair(petersen, u, v) == 3
    assert menger_pair(path_graph(3), 0, 2) == 1
    with pytest.raises(ValueError):
        menger_pair(k5, 1, 1)


def test_kappa_k_examples():
    value, subset = kappa_k_graph(cycle_graph(5), 2).value, None
    assert value == 2
    r = kappa_k_graph(complete_graph(4), 4)
    assert r.value == 2 and r.subset.members == (0, 1, 2, 3)
    r = kappa_k_graph(path_graph(3), 3)
    assert r.value == 1
    r = kappa_k_graph(path_graph(4), 2)
    assert r.value == 1 and r.status == "exact"
    with pytest.raises(ValueError):
        kappa_k_graph(path_graph(3), 5)


def test_kappa_k_budget_flag():
    # in K6 with k = 4 each greedy packing (3 trees) stays below the upper
    # bound (5), so every subset needs a search
    k6 = complete_graph(6)
    r = kappa_k_graph(k6, 4, budget=3)
    assert r.status == "upper-bound"
    assert r.value is None and r.subset is None
    assert r.expansions == 4
    # out of budget after resolving some subsets: the best of those is an
    # upper bound, attained by its subset
    r = kappa_k_graph(k6, 4, budget=100)
    assert r.status == "upper-bound" and r.expansions == 101
    assert r.value >= kappa_k_graph(k6, 4).value
    assert kappa_set_exact(k6, r.subset).value == r.value


def reference_kappa_k(graph: Graph, k: int, budget: int | None = None) -> KappaKResult:
    """`kappa_k_graph` without the connector screen: `_climb` on every
    subset."""
    counter = _Budget(budget)
    bits = GraphBits(graph)
    best = argmin = None
    status = "exact"
    for combo in itertools.combinations(range(graph.order), k):
        value, _, exact = _climb(bits, _Terminals(bits, combo), 1, best, counter)
        if not exact:
            status = "upper-bound"
            break
        if best is None or value < best:
            best, argmin = value, combo
        if best == 0:
            break
    subset = TerminalSet(argmin) if argmin is not None else None
    return KappaKResult(best, subset, status, counter.used)


# Graphs on which the connectivity term of the packing search's prune vetoes
# partial trees: what they would leave splits S.  A prune that missed such a
# veto would still answer right (the next slot finds no tree), so only the
# expansion counts show it.
_SPLIT_BY_PRUNE = {
    "order9-kappa": Graph(9, (
        (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 4), (1, 6), (1, 7), (2, 3), (2, 4),
        (2, 5), (2, 6), (2, 8), (3, 5), (3, 6), (3, 8), (4, 6), (4, 7), (4, 8), (5, 7),
        (5, 8),
    )),
    "order9": Graph(9, (
        (0, 1), (0, 3), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 8), (2, 5), (2, 6),
        (2, 7), (3, 4), (3, 6), (3, 7), (4, 5), (4, 7), (4, 8), (5, 6), (6, 7),
    )),
    "order8": Graph(8, (
        (0, 1), (0, 2), (0, 4), (0, 7), (1, 2), (1, 4), (1, 6), (2, 6), (3, 4), (3, 5),
        (3, 7), (6, 7),
    )),
    "order7": Graph(7, (
        (0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (4, 6),
        (5, 6),
    )),
}


def test_connectivity_prune_expansions_are_pinned():
    r = kappa_set_exact(_SPLIT_BY_PRUNE["order9-kappa"], (1, 3, 4, 7))
    assert (r.value, r.status, r.expansions) == (3, "exact", 37)
    # the greedy packs all three trees of (0, 2, 6, 7) in "order9", so only
    # `decide`, which has no greedy packing to fall back on, searches there
    d = decide_kappa_at_least(_SPLIT_BY_PRUNE["order9"], (0, 2, 6, 7), 3)
    assert (d.outcome, d.expansions) == ("certificate", 224)
    d = decide_kappa_at_least(_SPLIT_BY_PRUNE["order8"], (0, 2, 3, 4), 2)
    assert (d.outcome, d.expansions) == ("certificate", 13)
    # the connector screen and the greedy packings in `_climb` settle most
    # subsets; without the connectivity veto the subsets they leave cost 35
    # expansions.  The reference has no screen, so it searches subsets the
    # screen settles, at 50 expansions without the veto
    kk = kappa_k_graph(_SPLIT_BY_PRUNE["order7"], 3)
    assert (kk.value, kk.subset.members, kk.expansions) == (2, (0, 1, 4), 23)
    ref = reference_kappa_k(_SPLIT_BY_PRUNE["order7"], 3)
    assert (ref.value, ref.subset.members, ref.expansions) == (2, (0, 1, 4), 38)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=8),
    st.sampled_from([0.3, 0.5, 0.7, 0.9]),
)
def test_kappa_k_screen_matches_reference(seed, order, p):
    """The screen skips only subsets that cannot lower the minimum, so the
    answer is the reference's and no subset costs more expansions."""
    rng = random.Random(seed)
    g = random_graph(rng, order, p)
    k = rng.randint(2, min(5, order))
    r = kappa_k_graph(g, k)
    ref = reference_kappa_k(g, k)
    assert (r.value, r.subset, r.status) == (ref.value, ref.subset, ref.status)
    assert r.expansions <= ref.expansions
    # every subset costs at most what the reference spends on it, so a
    # budget the reference finishes in suffices
    if ref.expansions:
        assert kappa_k_graph(g, k, budget=ref.expansions) == r



def reference_star_count(bits: GraphBits, ts: _Terminals, need: int) -> int:
    """The screen `_connectors` replaced: the non-terminals next to all of
    S, plus one tree when they fall one short of `need`, on the edges
    inside S, or anywhere when there is no such non-terminal."""
    common = ~ts.smask
    for s in ts.members:
        common &= bits.nbrs[s]
    count = common.bit_count()
    if count + 1 == need:
        avail_e = ts.inner_e if count else bits.all_e
        if extract_steiner_tree(bits, ts.smask, avail_e, ts.roots[0]) is not None:
            count += 1
    return count


def _connector_count(g: Graph, s: tuple[int, ...], need: int) -> int:
    """How many trees `_connectors` finds, after checking that they are a
    packing: trees on S, edge-disjoint and meeting only in S."""
    bits = GraphBits(g)
    trees = _connectors(bits, s, need)
    cert = TreeCertificate(tuple(tree_from_masks(bits, te, tv) for te, tv in trees))
    report = verify_certificate(g, s, cert)
    assert report.valid, report.violations
    return len(cert)


@pytest.mark.parametrize("n, value, expansions", [(6, 4, 49), (7, 5, 123), (8, 6, 293)])
def test_star_count_settles_every_later_subset_of_a_complete_graph(
    monkeypatch, n, value, expansions
):
    """kappa_3(K_n) = n - ceil(3/2) (Chartrand, Okamoto and Zhang, Networks
    2010).  The first subset sets the best value n - 2; every later one has
    n - 3 stars and a triangle inside S, so the connector screen settles it
    and the only greedy packings are the first subset's in `_climb`, one
    from each terminal."""
    calls = []

    def greedy(*args):
        calls.append(args)
        return _greedy_packing(*args)

    monkeypatch.setattr(solver, "_greedy_packing", greedy)
    r = kappa_k_graph(complete_graph(n), 3)
    assert (r.value, r.subset.members, r.status) == (value, (0, 1, 2), "exact")
    assert r.expansions == expansions
    assert [args[2] for args in calls] == [0, 1, 2]
    assert _connector_count(complete_graph(n), (1, 2, 3), value) == value


def test_connectors_spend_the_inner_edges_jointly():
    # 3 and 4 reach all of S = {0, 1, 2}, 5 misses 2, and the edges inside
    # S are the path 0-1-2: they form a tree inside S, or 1-2 completes 5,
    # not both, so there are three trees at most, counted once the stars
    # fall short of need
    g = Graph(6, (
        (0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5),
    ))
    assert [_connector_count(g, (0, 1, 2), need) for need in range(5)] == [2, 2, 2, 3, 3]
    assert brute_force_kappa(g, (0, 1, 2)) == 3
    # with 0-2 too the edges inside S are a triangle: two of them form the
    # tree inside S and the third completes 5
    g2 = Graph(6, (*g.edges, (0, 2)))
    assert _connector_count(g2, (0, 1, 2), 4) == 4 == brute_force_kappa(g2, (0, 1, 2))
    # without 1-2 the edges inside S neither connect S nor reach 2
    g = Graph(6, tuple(e for e in g.edges if e != (1, 2)))
    assert _connector_count(g, (0, 1, 2), 3) == 2
    # `treeconn gen graph --connected --seed 1`, S = {1, 5, 7}: the edge 5-7
    # completes 3 (which misses 7) or 4 (which misses 5); given to 4, it
    # leaves 3 to pair with 6, so two trees settle S for kappa_3 = 2
    g = Graph(8, (
        (0, 1), (0, 4), (1, 3), (1, 4), (2, 3), (2, 6), (3, 5), (3, 6), (4, 6), (4, 7),
        (5, 7), (6, 7),
    ))
    assert _connector_count(g, (1, 5, 7), 2) == 2 == kappa_set_exact(g, (1, 5, 7)).value


def test_connectors_match_pairs_with_the_fewest_partners_first():
    # S = {0, 1}: 2 and 4 reach 0, 3 and 5 reach 1, and the pairs are the
    # edges 2-3, 2-5 and 3-4.  4 and 5 have one partner each, so 4-3 is
    # matched first and 2-5 after it; 2-3 first would leave one pair
    g = Graph(6, ((0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4)))
    assert _connector_count(g, (0, 1), 3) == 2 == menger_pair(g, 0, 1)
    bits = GraphBits(g)
    assert [tv for _, tv in _connectors(bits, (0, 1), 3)] == [
        mask_of((0, 1, 3, 4)), mask_of((0, 1, 2, 5))
    ]
    # S = {0, 1, 2}: 3 and 4 are not adjacent but share the terminal 1
    g = Graph(5, ((0, 3), (1, 3), (1, 4), (2, 4)))
    assert _connector_count(g, (0, 1, 2), 2) == 1
    # on the cycle 0-1-...-7 with S = {0, 2, 4, 6}, 1 and 5 (or 3 and 7)
    # reach all of S together, but they are not adjacent and share no
    # terminal, so no pair forms
    assert _connector_count(cycle_graph(8), (0, 2, 4, 6), 2) == 0


def test_star_count_takes_any_tree_when_there_is_no_star():
    # on the path 0-1-2-3-4, S = {0, 1, 4} has no connector: 2 and 3 reach
    # only 1 and 4, and the one edge inside S, 0-1, leaves 4 apart; so the
    # one tree that need 1 asks for may run anywhere.  kappa_3 of the path
    # is 1, so only the first subset is searched, at one expansion
    g = path_graph(5)
    assert [_connector_count(g, (0, 1, 4), need) for need in range(3)] == [0, 1, 0]
    split = Graph(5, ((0, 1), (1, 2), (3, 4)))
    assert _connector_count(split, (0, 1, 4), 1) == 0
    r = kappa_k_graph(g, 3)
    assert (r.value, r.subset.members, r.status, r.expansions) == (1, (0, 1, 2), "exact", 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=9),
    st.sampled_from([0.3, 0.5, 0.7, 0.9]),
)
def test_connectors_never_exceed_kappa(seed, order, p):
    """At every `need` the screen's trees verify as a packing, so their
    number is at most kappa(S); and it is at least the star count that
    screened the subsets before."""
    rng = random.Random(seed)
    g = random_graph(rng, order, p)
    s = random_terminals(rng, g, rng.randint(2, min(5, order))).members
    bits = GraphBits(g)
    ts = _Terminals(bits, s)
    value = kappa_set_exact(g, s).value
    for need in range(order + 2):
        count = _connector_count(g, s, need)
        assert reference_star_count(bits, ts, need) <= count <= value


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=9),
    st.sampled_from([0.2, 0.4, 0.6]),
)
def test_terminals_match_their_definitions(seed, order, p):
    """`_Terminals` finds each fact of S once, for every routine that reads
    it; each must be what its name says, read off the edge list."""
    rng = random.Random(seed)
    g = random_graph(rng, order, p)
    s = random_terminals(rng, g, rng.randint(2, min(5, order))).members
    bits = GraphBits(g)
    ts = _Terminals(bits, s)
    inside = [(u in s) + (v in s) for u, v in g.edges]
    assert (ts.members, ts.smask) == (s, mask_of(s))
    assert ts.at_s == mask_of(e for e, ends in enumerate(inside) if ends)
    assert ts.inner_e == mask_of(e for e, ends in enumerate(inside) if ends == 2)
    near = {w for edge in g.edges if {*edge} & {*s} for w in edge} - {*s}
    assert ts.near == sorted(near)
    assert ts.roots == sorted(s, key=lambda v: (g.degree(v), v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_kappa_k_is_min_over_subsets(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(4, 6), 0.6)
    k = rng.randint(2, 4)
    r = kappa_k_graph(g, k)
    values = [kappa_set_exact(g, s).value for s in itertools.combinations(range(g.order), k)]
    assert r.status == "exact"
    assert r.value == min(values)
    assert kappa_set_exact(g, r.subset).value == r.value


def test_brute_force_examples():
    assert brute_force_kappa(complete_graph(4), (0, 1, 2, 3)) == 2
    assert brute_force_kappa(cycle_graph(4), (0, 1, 2)) == 1
    assert brute_force_kappa(Graph(4, ((0, 1), (2, 3))), (0, 3)) == 0
    with pytest.raises(ValueError):
        brute_force_kappa(complete_graph(10), (0, 1))


def test_k6_spanning_tree_packing():
    # 15 edges, 5 per spanning tree
    assert kappa_set_exact(complete_graph(6), tuple(range(6))).value == 3


def test_climb_refutes_a_level_between_greedy_and_bound():
    # the bounds leave levels 2..4 open: the cap 4 fails, 2 packs, 3 is
    # refuted and ends the climb
    g = Graph(9, (
        (0, 3), (0, 4), (0, 6), (0, 8), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3),
        (2, 4), (2, 7), (3, 7), (4, 5), (4, 6), (4, 7), (6, 8), (7, 8),
    ))
    s = (0, 1, 2, 3, 7)
    bits = GraphBits(g)
    ts = _Terminals(bits, s)
    # each terminal has 4 edges, and 17 edges hold 4 trees of 4 edges
    assert _cheap_cap(bits, ts) == 4
    assert _bound(bits, ts, bits.all_e, 4, 1) == 4
    assert len(_greedy_packing(bits, ts, 0, 4)) == 1
    result = kappa_set_exact(g, s)
    assert (result.value, result.status) == (2, "exact")
    assert brute_force_kappa(g, s) == 2
    assert decide_kappa_at_least(g, s, 3).outcome == "refuted"


def _cheap_cap(bits: GraphBits, ts: _Terminals) -> int:
    """The cheap terms of U on the whole graph, by which `_climb` caps the
    levels before `_bound` runs its flows: the anchor's degree, the least
    of S, and |E| // (|S| - 1)."""
    return min(bits.einc[ts.roots[0]].bit_count(), len(bits.edges) // (len(ts.members) - 1))


def _settled_without_search(g: Graph, s: tuple[int, ...], value: int) -> None:
    r = kappa_set_exact(g, s)
    assert (r.value, r.status, r.expansions) == (value, "exact", 0)
    assert brute_force_kappa(g, s) == value
    assert verify_certificate(g, s, r.certificate).valid


def test_climb_packs_greedily_from_every_terminal():
    # the anchor 1 (least degree) packs one greedy tree, the flow bound is
    # 2, and the greedy packing from 0 fills it
    g = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)))
    s = (0, 1, 3)
    bits = GraphBits(g)
    ts = _Terminals(bits, s)
    assert [len(_greedy_packing(bits, ts, root, 2)) for root in (1, 0)] == [1, 2]
    _settled_without_search(g, s, 2)


def test_climb_stops_when_the_greedy_packing_reaches_the_flow_bound():
    # the cheap terms cap at 2, one greedy tree is all there is, and the
    # flows, run only after the greedy packings, cap at 1.  `_bound`
    # applies no cheap term itself: when `need` is above its cap it runs
    # no flow and returns the cap it was given
    g = Graph(5, ((0, 1), (0, 3), (2, 3), (2, 4)))
    s = (0, 2, 3)
    bits = GraphBits(g)
    ts = _Terminals(bits, s)
    assert _cheap_cap(bits, ts) == 2
    assert _bound(bits, ts, bits.all_e, g.edge_count, g.edge_count + 1) == g.edge_count
    assert _bound(bits, ts, bits.all_e, 2, 1) == 1
    assert len(_greedy_packing(bits, ts, 0, 2)) == 1
    _settled_without_search(g, s, 1)


def reference_greedy_packing(
    bits: GraphBits, ts: _Terminals, anchor: int, cap: int
) -> list[tuple[int, int]]:
    """`_greedy_packing` with only its last step: each tree is the
    breadth-first tree on all the edges the earlier ones left."""
    packing = []
    avail_e = bits.all_e
    while len(packing) < cap:
        tree = extract_steiner_tree(bits, ts.smask, avail_e, anchor)
        if tree is None:
            break
        packing.append(tree)
        avail_e = _remainder(bits, ts.smask, avail_e, *tree)
    return packing


def _edge_mask(g: Graph, *pairs: tuple[int, int]) -> int:
    return mask_of(g.edges.index(pair) for pair in pairs)


def test_greedy_takes_a_tree_inside_s_first():
    # the breadth-first tree from 1 is 1-0-3 plus 1-2, and its non-terminal
    # 0 takes the star that a second tree needs
    g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
    bits = GraphBits(g)
    ts = _Terminals(bits, (1, 2, 3))
    inside = (_edge_mask(g, (1, 2), (2, 3)), ts.smask)
    star = (_edge_mask(g, (0, 1), (0, 2), (0, 3)), 0b1111)
    assert _greedy_packing(bits, ts, 1, 3) == [inside, star]
    assert reference_greedy_packing(bits, ts, 1, 3) == [
        (_edge_mask(g, (0, 1), (0, 3), (1, 2)), 0b1111)
    ]


def test_greedy_then_takes_one_non_terminal_of_least_degree():
    # no edge lies inside S; 3, 4 and 5 each reach all of S, 3 has two more
    # edges and 4 comes before 5 by id, while the breadth-first tree from 0
    # runs through 3
    g = Graph(8, (
        (0, 3), (1, 3), (2, 3), (3, 6), (3, 7), (0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5),
    ))
    bits = GraphBits(g)
    ts = _Terminals(bits, (0, 1, 2))
    through = {v: (_edge_mask(g, (0, v), (1, v), (2, v)), ts.smask | 1 << v) for v in (3, 4, 5)}
    assert _greedy_packing(bits, ts, 0, 3) == [through[4], through[5], through[3]]
    assert reference_greedy_packing(bits, ts, 0, 1) == [through[3]]


def test_greedy_falls_back_to_the_breadth_first_tree(monkeypatch):
    # the edge 0-1 inside S and the two edges of 3 leave 2 apart, so the
    # tree takes the path 0-5-4-2 through two non-terminals
    g = Graph(6, ((0, 1), (0, 3), (1, 3), (0, 5), (4, 5), (2, 4)))
    bits = GraphBits(g)
    ts = _Terminals(bits, (0, 1, 2))
    masks = []

    def extract(bits, smask, avail_e, root):
        masks.append(avail_e)
        return extract_steiner_tree(bits, smask, avail_e, root)

    monkeypatch.setattr(solver, "extract_steiner_tree", extract)
    packing = _greedy_packing(bits, ts, 0, 2)
    assert packing == [(_edge_mask(g, (0, 1), (0, 5), (4, 5), (2, 4)), ts.smask | mask_of((4, 5)))]
    # one inner edge is too few for step 1; 3 with its two edges into S is
    # tried and fails; then the breadth-first tree.  For the second tree
    # only the breadth-first step has edges enough, and S is split there
    assert masks == [
        _edge_mask(g, (0, 1), (0, 3), (1, 3)), bits.all_e, _edge_mask(g, (0, 3), (1, 3))
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=9),
    st.sampled_from([0.3, 0.5, 0.7, 0.9]),
)
def test_greedy_rule_changes_no_answer(seed, order, p):
    """The greedy packing only settles levels it fills, so with the
    breadth-first greedy in its place every entry point answers alike.
    A budget bounds the dense order-9 cases; where either side runs out,
    the answers are not compared."""
    rng = random.Random(seed)
    g = random_graph(rng, order, p)
    k = rng.randint(2, min(5, order))
    s = random_terminals(rng, g, k)
    budget = 20_000
    value = kappa_set_exact(g, s, budget).value
    levels = (max(value, 1), value + 1)

    def answers():
        r = kappa_set_exact(g, s, budget)
        decided = [decide_kappa_at_least(g, s, lvl, budget).outcome for lvl in levels]
        kk = kappa_k_graph(g, k, budget)
        return [(r.value, r.status), decided, (kk.value, kk.subset, kk.status)]

    thrifty = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_greedy_packing", reference_greedy_packing)
        breadth_first = answers()
    for ours, ref in zip(thrifty, breadth_first):
        if not {"lower-bound", "unknown", "upper-bound"} & {*ours, *ref}:
            assert ours == ref


def test_certificates_always_verify():
    rng = random.Random(4242)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        size = rng.randint(2, min(4, g.order))
        s = random_terminals(rng, g, size)
        result = kappa_set_exact(g, s)
        report = verify_certificate(g, s, result.certificate)
        assert report.valid, report.violations
        assert len(result.certificate) == result.value


def test_solver_is_deterministic():
    rng = random.Random(7)
    g = random_connected_graph(rng, 7, 0.5)
    # budget 5 runs out in kappa and kappa_k, after the greedy packing in kappa
    for budget in (None, 5):
        for call in (
            lambda: kappa_set_exact(g, (0, 1, 2), budget),
            lambda: decide_kappa_at_least(g, (0, 1, 2), 2, budget),
            lambda: kappa_k_graph(g, 3, budget),
        ):
            first = json.dumps(call().to_obj(), sort_keys=True)
            for _ in range(3):
                assert json.dumps(call().to_obj(), sort_keys=True) == first


def _pinned_instances():
    """The benchmark's instance shapes, for the three entry points: 300
    `kappa` instances, 40 `kappa_k` graphs and 60 gadgets to decide."""
    rng = random.Random(26)
    kappa = []
    for i in range(300):
        g = random_connected_graph(rng, 10, 0.4)
        kappa.append((g, random_terminals(rng, g, (2, 3, 4)[i % 3])))
    kappa_k = [random_connected_graph(rng, 7, 0.8) for _ in range(40)]
    decide = []
    for i in range(60):
        kind, a, b = [("3sat", 3, 4), ("3dm", 3, 5), ("3sat", 4, 4), ("3dm", 2, 4)][i % 4]
        if kind == "3sat":
            red = reduce_3sat(random_cnf(rng, a, b))
        else:
            red = reduce_3dm(random_3dm(rng, a, b))
        decide.append((red.graph, red.terminals, red.threshold))
    return kappa, kappa_k, decide


@functools.cache
def _pinned_outputs() -> tuple[dict, ...]:
    kappa, kappa_k, decide = _pinned_instances()
    results = [kappa_set_exact(g, s) for g, s in kappa]
    results += [kappa_k_graph(g, 3) for g in kappa_k]
    results += [decide_kappa_at_least(g, s, k) for g, s, k in decide]
    return tuple(result.to_obj() for result in results)


def test_solver_outputs_are_pinned():
    """Every answer of the three entry points, byte for byte: value,
    status, subset, outcome and certificate.  A change to the search or
    its bounds may move the work, pinned below, but not these."""
    digest = hashlib.sha256()
    for obj in _pinned_outputs():
        answer = {key: value for key, value in obj.items() if key != "expansions"}
        digest.update((json.dumps(answer, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "8890e16fc2f5ae89c1ff1798a34f92e8af368efeea3c4a5c63d63a1292380f62"
    )


def test_solver_work_is_pinned():
    """The expansion count of every call in `test_solver_outputs_are_pinned`:
    a change that cuts or adds search nodes shows here."""
    expansions = [obj["expansions"] for obj in _pinned_outputs()]
    digest = hashlib.sha256(json.dumps(expansions).encode())
    assert (sum(expansions), digest.hexdigest()) == (
        35101, "a2c824267bdfd235d71e06b031fa11da05998905f7c7c2b1bfe0b07dd0dac1fd"
    )


def test_kappa_k_climb_calls_are_pinned(monkeypatch):
    """How many subsets of the 40 pinned `kappa_k` graphs the connector
    screen leaves to `_climb`, out of 40 * 35 = 1,400."""
    calls = []

    def climb(*args):
        calls.append(args[1].members)
        return _climb(*args)

    monkeypatch.setattr(solver, "_climb", climb)
    for g in _pinned_instances()[1]:
        kappa_k_graph(g, 3)
    assert len(calls) == 61


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bounds_are_admissible(seed):
    # the benchmark checks no upper bound for |S| >= 3: a bound that is too
    # tight would close levels with wrong answers, and only this test sees it
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 8), 0.45)
    s = random_terminals(rng, g, rng.randint(2, min(4, g.order)))
    bits = GraphBits(g)
    ts = _Terminals(bits, s.members)
    value = brute_force_kappa(g, s)
    upper = _bound(bits, ts, bits.all_e, _cheap_cap(bits, ts), 1)
    assert value <= upper
    if len(s) == 2:
        assert upper == menger_pair(g, *s.members)
    for root in s:
        greedy = _greedy_packing(bits, ts, root, g.order)
        cert = TreeCertificate(tuple(tree_from_masks(bits, te, tv) for te, tv in greedy))
        assert verify_certificate(g, s, cert).valid
        assert len(greedy) <= value
    over = decide_kappa_at_least(g, s, upper + 1)
    assert over.outcome == "refuted" and over.expansions == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_remainder_keeps_no_edge_of_a_dropped_internal(seed):
    """What trees leave is one edge mask: a non-terminal of a packed tree
    keeps no available edge, so it counts as gone without a vertex mask."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.7]))
    s = random_terminals(rng, g, rng.randint(2, min(4, g.order)))
    bits = GraphBits(g)
    smask = mask_of(s.members)
    avail_e = mask_of(e for e in range(g.edge_count) if rng.random() < 0.9)
    dropped = 0
    for _ in range(3):
        trees = list(itertools.islice(
            iter_minimal_trees(bits, smask, avail_e, rng.choice(s.members)), 30
        ))
        if not trees:
            break
        tree_e, tree_v = rng.choice(trees)
        left = _remainder(bits, smask, avail_e, tree_e, tree_v)
        assert not left & ~avail_e and not left & tree_e
        dropped |= tree_v & ~smask
        for v in iter_bits(dropped):
            assert not bits.einc[v] & left
        avail_e = left


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=7))
def test_oracle_equivalence(seed, order):
    rng = random.Random(seed)
    g = random_graph(rng, order, 0.55)
    s = random_terminals(rng, g, rng.randint(2, min(4, order)))
    value = brute_force_kappa(g, s)
    assert kappa_set_exact(g, s).value == value
    if value >= 1:
        yes = decide_kappa_at_least(g, s, value)
        assert yes.outcome == "certificate"
        assert verify_certificate(g, s, yes.certificate).valid
    assert decide_kappa_at_least(g, s, value + 1).outcome == "refuted"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_whitney_equivalence(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(3, 8), 0.5)
    u, v = sorted(rng.sample(range(g.order), 2))
    assert kappa_set_exact(g, (u, v)).value == menger_pair(g, u, v)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_degree_bound_and_connectivity_floor(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 7), 0.5)
    s = random_terminals(rng, g, rng.randint(2, min(4, g.order)))
    value = kappa_set_exact(g, s).value
    assert value <= min(g.degree(v) for v in s)
    reachable = any(set(s.members) <= set(comp) for comp in components(g))
    assert (value >= 1) == reachable


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_edge_addition_monotonicity(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(4, 7), 0.4)
    s = random_terminals(rng, g, rng.randint(2, 4))
    missing = [
        (u, v)
        for u in range(g.order)
        for v in range(u + 1, g.order)
        if not g.has_edge(u, v)
    ]
    before = kappa_set_exact(g, s).value
    if not missing:
        return
    extra = rng.choice(missing)
    bigger = Graph(g.order, g.edges + (extra,))
    assert kappa_set_exact(bigger, s).value >= before


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 7), 0.5)
    s = random_terminals(rng, g, rng.randint(2, min(3, g.order)))
    perm = list(range(g.order))
    rng.shuffle(perm)
    h = g.relabel(perm)
    hs = tuple(sorted(perm[v] for v in s))
    assert kappa_set_exact(g, s).value == kappa_set_exact(h, hs).value
