from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import (
    Graph,
    brute_force_kappa,
    components,
    complete_graph,
    cycle_graph,
    decide_kappa_at_least,
    kappa_k_graph,
    kappa_set_exact,
    menger_pair,
    path_graph,
    verify_certificate,
)
from treeconn.certificates import TreeCertificate
from treeconn.generators import random_connected_graph, random_graph, random_terminals
from treeconn.solver import _bound, _greedy_packing
from treeconn.steiner import GraphBits, mask_of, tree_from_masks


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
    # in K6 with k = 4 the greedy packing (3 trees) stays below the upper
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


# Graphs on which the connectivity term of the packing search's prune vetoes
# partial trees: what they would leave splits S.  A prune that missed such a
# veto would still answer right (the next slot finds no tree), so only the
# expansion counts show it.
_SPLIT_BY_PRUNE = {
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
    g = _SPLIT_BY_PRUNE["order9"]
    r = kappa_set_exact(g, (0, 2, 6, 7))
    assert (r.value, r.status, r.expansions) == (3, "exact", 224)
    d = decide_kappa_at_least(g, (0, 2, 6, 7), 3)
    assert (d.outcome, d.expansions) == ("certificate", 224)
    d = decide_kappa_at_least(_SPLIT_BY_PRUNE["order8"], (0, 2, 3, 4), 2)
    assert (d.outcome, d.expansions) == ("certificate", 13)
    kk = kappa_k_graph(_SPLIT_BY_PRUNE["order7"], 3)
    assert (kk.value, kk.subset.members, kk.expansions) == (2, (0, 1, 4), 85)


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
    # the bounds leave levels 3..5 open: the cap 5 fails, 3 packs, 4 is
    # refuted and ends the climb
    g = Graph(8, (
        (0, 1), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 7), (2, 3), (2, 5),
        (2, 6), (3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
    ))
    s = (0, 4, 5, 7)
    bits = GraphBits(g)
    smask = mask_of(s)
    assert _bound(bits, smask, s, bits.all_v, bits.all_e, g.edge_count, 1) == 5
    assert len(_greedy_packing(bits, smask, 0, 5)) == 2
    result = kappa_set_exact(g, s)
    assert (result.value, result.status) == (3, "exact")
    assert brute_force_kappa(g, s) == 3
    assert decide_kappa_at_least(g, s, 4).outcome == "refuted"


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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bounds_are_admissible(seed):
    # the benchmark checks no upper bound for |S| >= 3: a bound that is too
    # tight would close levels with wrong answers, and only this test sees it
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(3, 8), 0.45)
    s = random_terminals(rng, g, rng.randint(2, min(4, g.order)))
    bits = GraphBits(g)
    smask = mask_of(s.members)
    value = brute_force_kappa(g, s)
    upper = _bound(bits, smask, s.members, bits.all_v, bits.all_e, g.edge_count, 1)
    assert value <= upper
    if len(s) == 2:
        assert upper == menger_pair(g, *s.members)
    for root in s:
        greedy = _greedy_packing(bits, smask, root, g.order)
        cert = TreeCertificate(tuple(tree_from_masks(bits, te, tv) for te, tv in greedy))
        assert verify_certificate(g, s, cert).valid
        assert len(greedy) <= value
    over = decide_kappa_at_least(g, s, upper + 1)
    assert over.outcome == "refuted" and over.expansions == 0


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
