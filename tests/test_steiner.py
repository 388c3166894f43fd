from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import (
    Tree,
    classify_topology,
    complete_graph,
    count_topologies,
    cycle_graph,
    enumerate_steiner_trees,
    path_graph,
    random_connected_graph,
    random_terminals,
)
from treeconn import steiner
from treeconn.certificates import _is_tree
from treeconn.generators import random_graph
from treeconn.solver import _minimal_trees_by_subsets
from treeconn.steiner import (
    GraphBits,
    _reduced_code,
    extract_steiner_tree,
    iter_bits,
    iter_minimal_trees,
    mask_of,
)


def reaches(bits: GraphBits, comp: int, target: int, avail_v: int, avail_e: int) -> bool:
    """True iff every vertex of `target` is in `comp` or reachable from it
    along edges of avail_e through vertices of avail_v."""
    einc = bits.einc
    evmask = bits.evmask
    frontier = comp
    while target & ~comp:
        if not frontier:
            return False
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            ee = einc[low.bit_length() - 1] & avail_e
            while ee:
                elow = ee & -ee
                ee ^= elow
                nxt |= evmask[elow.bit_length() - 1]
        frontier = nxt & avail_v & ~comp
        comp |= frontier
    return True


def _nonterminal_degree_ok(bits: GraphBits, tree_e: int, tree_v: int, smask: int) -> bool:
    """Every non-terminal tree vertex must have tree-degree >= 2 (leaves in S)."""
    work = tree_v & ~smask
    einc = bits.einc
    while work:
        low = work & -work
        work ^= low
        if (einc[low.bit_length() - 1] & tree_e).bit_count() < 2:
            return False
    return True


def _growth_feasible(
    bits: GraphBits, smask: int, avail_v: int, usable_e: int, tree_e: int, tree_v: int
) -> bool:
    """Can the partial tree still reach every terminal and fix its bad leaves?"""
    einc = bits.einc
    # every current non-terminal leaf needs a spare edge to grow through
    work = tree_v & ~smask
    while work:
        low = work & -work
        work ^= low
        v = low.bit_length() - 1
        inc = einc[v]
        if (inc & tree_e).bit_count() == 1 and not inc & usable_e & ~tree_e:
            return False
    # remaining terminals must be reachable from the tree
    return reaches(bits, tree_v, smask, avail_v, usable_e)


def reference_minimal_trees(
    bits: GraphBits,
    smask: int,
    avail_v: int,
    avail_e: int,
    root: int,
    tick: Callable[[], None] | None = None,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, int]]:
    """The enumerator as a recursion: include the lowest frontier edge, then
    exclude it.  `iter_minimal_trees` walks the same search nodes with an
    explicit stack; the solver's work counts depend on their order.  If S
    is split at the root, no node is searched."""
    rootbit = 1 << root
    if not rootbit & avail_v or not reaches(bits, rootbit, smask, avail_v, avail_e):
        return
    einc = bits.einc
    evmask = bits.evmask

    def rec(tree_e: int, tree_v: int, excl: int, frontier: int) -> Iterator[tuple[int, int]]:
        if tick is not None:
            tick()
        if not smask & ~tree_v and _nonterminal_degree_ok(bits, tree_e, tree_v, smask):
            yield (tree_e, tree_v)
            return
        cand = -1
        work = frontier & ~excl
        while work:
            low = work & -work
            e = low.bit_length() - 1
            if not evmask[e] & ~tree_v:
                frontier ^= low
                work ^= low
                continue
            cand = e
            break
        if cand < 0:
            return
        bit = 1 << cand
        wmask = evmask[cand] & ~tree_v
        w = wmask.bit_length() - 1
        grown_e = tree_e | bit
        grown_v = tree_v | wmask
        ok = True
        if not wmask & smask and not einc[w] & avail_e & ~excl & ~grown_e:
            ok = False
        if ok and prune is not None and prune(grown_e, grown_v):
            ok = False
        if ok:
            yield from rec(
                grown_e, grown_v, excl, (frontier | (einc[w] & avail_e)) & ~grown_e
            )
        excl2 = excl | bit
        if _growth_feasible(bits, smask, avail_v, avail_e & ~excl2, tree_e, tree_v):
            yield from rec(tree_e, tree_v, excl2, frontier & ~bit)

    yield from rec(0, rootbit, 0, einc[root] & avail_e)


def reference_extract_steiner_tree(
    bits: GraphBits, smask: int, avail_v: int, avail_e: int, root: int
) -> tuple[int, int] | None:
    """The extractor as a whole breadth-first spanning tree, then repeated
    removal of non-terminal leaves.  `extract_steiner_tree` stops the
    search once every terminal is reached and keeps only the paths back
    to the root; for a terminal root the two must agree."""
    rootbit = 1 << root
    if not rootbit & avail_v or smask & ~avail_v:
        return None
    visited = rootbit
    queue = [root]
    tree_edges: list[int] = []
    einc = bits.einc
    while queue:
        nxt: list[int] = []
        for v in queue:
            ee = einc[v] & avail_e
            while ee:
                low = ee & -ee
                ee ^= low
                e = low.bit_length() - 1
                a, b = bits.edges[e]
                w = b if a == v else a
                wbit = 1 << w
                if not wbit & avail_v or wbit & visited:
                    continue
                visited |= wbit
                tree_edges.append(e)
                nxt.append(w)
        queue = nxt
    if smask & ~visited:
        return None
    tree_e = 0
    for e in tree_edges:
        tree_e |= 1 << e
    tree_v = visited
    # prune hanging non-terminal branches
    changed = True
    while changed:
        changed = False
        work = tree_v & ~smask
        while work:
            low = work & -work
            work ^= low
            v = low.bit_length() - 1
            inc = einc[v] & tree_e
            if inc.bit_count() <= 1:
                tree_v ^= low
                tree_e &= ~inc
                changed = True
    return (tree_e, tree_v)


def test_path_has_single_tree():
    result = enumerate_steiner_trees(path_graph(3), (0, 2), 10)
    assert not result.truncated
    assert len(result.trees) == 1
    assert result.trees[0].edges == ((0, 1), (1, 2))


def test_triangle_pair_has_two_trees():
    result = enumerate_steiner_trees(complete_graph(3), (0, 1), 10)
    assert [t.edges for t in result.trees] == [((0, 1),), ((0, 2), (1, 2))]


def test_cycle_pair_has_two_arcs():
    result = enumerate_steiner_trees(cycle_graph(4), (0, 2), 10)
    assert len(result.trees) == 2
    assert not result.truncated


def test_limit_truncates_with_flag():
    result = enumerate_steiner_trees(complete_graph(5), (0, 1), 2)
    assert result.truncated
    assert len(result.trees) == 2
    with pytest.raises(ValueError):
        enumerate_steiner_trees(path_graph(3), (0, 2), 0)


@pytest.mark.parametrize("limit", [True, 2.0, "2"])
def test_limit_must_be_an_int(limit):
    with pytest.raises(ValueError, match="limit must be"):
        enumerate_steiner_trees(complete_graph(4), (0, 1), limit)


def test_enumeration_is_deterministic():
    g = complete_graph(5)
    a = enumerate_steiner_trees(g, (0, 1, 2), 10000)
    b = enumerate_steiner_trees(g, (0, 1, 2), 10000)
    assert a == b


def test_trees_are_minimal_and_leaf_clean():
    g = complete_graph(5)
    result = enumerate_steiner_trees(g, (0, 1, 4), 10000)
    for tree in result.trees:
        degree = {v: 0 for v in tree.vertices}
        for u, v in tree.edges:
            degree[u] += 1
            degree[v] += 1
        assert len(tree.edges) == len(tree.vertices) - 1
        for v, d in degree.items():
            if v not in (0, 1, 4):
                assert d >= 2, (tree, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=7))
def test_growth_enumeration_matches_subset_enumeration(seed, order):
    """Two independent enumerators must agree on the full candidate set."""
    rng = random.Random(seed)
    g = random_graph(rng, order, 0.5)
    terminals = tuple(sorted(rng.sample(range(order), rng.randint(2, 3))))
    result = enumerate_steiner_trees(g, terminals, 100000)
    assert not result.truncated
    bits = GraphBits(g)
    expected = _minimal_trees_by_subsets(bits, mask_of(terminals))
    got = {t.edges for t in result.trees}
    exp = {
        tuple(g.edges[e] for e in range(len(g.edges)) if te >> e & 1)
        for te, tv in expected
    }
    assert got == exp


class _Stop(Exception):
    pass


def _events(enumerate_trees, args, veto, stop_after):
    """Every tick, prune call and tree in the order they happen."""
    events: list = []
    ticks = itertools.count(1)

    def tick() -> None:
        events.append("tick")
        if stop_after is not None and next(ticks) > stop_after:
            raise _Stop

    def prune(tree_e: int, tree_v: int) -> bool:
        events.append(("prune", tree_e, tree_v))
        return hash((veto, tree_e, tree_v)) % 4 == 0

    try:
        for tree in enumerate_trees(*args, tick, prune):
            events.append(("tree",) + tree)
    except _Stop:
        events.append("stopped")
    return events


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=9),
    st.one_of(st.none(), st.integers(min_value=0, max_value=300)),
)
def test_enumeration_order_matches_reference(seed, order, stop_after):
    """Same trees in the same order, same ticks, same prune calls."""
    rng = random.Random(seed)
    g = random_graph(rng, order, rng.choice([0.3, 0.45, 0.6]))
    terminals = rng.sample(range(order), rng.randint(2, min(4, order)))
    bits = GraphBits(g)
    smask = mask_of(terminals)
    # an unavailable vertex is one whose edges are all gone
    gone = mask_of(v for v in range(order) if rng.random() < 0.15) & ~smask
    if rng.random() < 0.3:
        # a terminal other than the root loses its edges: S is split
        gone |= 1 << rng.choice(terminals[1:])
    avail_e = bits.all_e & ~mask_of(e for e in range(len(g.edges)) if rng.random() < 0.15)
    for v in iter_bits(gone):
        avail_e &= ~bits.einc[v]
    root = terminals[0]
    got = (bits, smask, avail_e, root)
    expected = (bits, smask, (1 << order) - 1, avail_e, root)
    assert list(iter_minimal_trees(*got)) == list(reference_minimal_trees(*expected))
    veto = rng.randrange(1 << 30)
    assert _events(iter_minimal_trees, got, veto, stop_after) == _events(
        reference_minimal_trees, expected, veto, stop_after
    )


def test_enumerator_extractions_are_pinned(monkeypatch):
    """One whole-graph search per enumeration, before the root node: each
    exclude branch then tests only the edge it removes.  With S split at
    the root the enumeration stops there, with no tree and no tick."""
    searches = []

    def counted(*args):
        searches.append(args)
        return extract_steiner_tree(*args)

    monkeypatch.setattr(steiner, "extract_steiner_tree", counted)
    for n, terminals, trees in ((5, (0, 1, 2), 41), (6, (0, 1, 2, 3), 440)):
        searches.clear()
        assert len(enumerate_steiner_trees(complete_graph(n), terminals, 10**5).trees) == trees
        assert len(searches) == 1
    bits = GraphBits(complete_graph(5))
    avail_e = bits.all_e & ~bits.einc[1]
    searches.clear()
    ticks = []
    found = list(iter_minimal_trees(bits, mask_of((0, 1, 2)), avail_e, 0, lambda: ticks.append(1)))
    assert (found, ticks, len(searches)) == ([], [], 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_extract_matches_reference(seed):
    """The same tree, or None, as the whole search tree trimmed of its
    non-terminal leaves, under random vertex and edge availability; an
    unavailable vertex is one whose edges are all gone."""
    rng = random.Random(seed)
    order = rng.randint(2, 14)
    g = random_graph(rng, order, rng.uniform(0.2, 0.8))
    terminals = rng.sample(range(order), rng.randint(2, min(6, order)))
    bits = GraphBits(g)
    smask = mask_of(terminals)
    for _ in range(20):
        # a terminal may be unavailable too
        keep_v, keep_e = rng.choice([0.7, 0.9, 1.0]), rng.choice([0.6, 0.8, 1.0])
        avail_e = mask_of(e for e in range(len(g.edges)) if rng.random() < keep_e)
        for v in range(order):
            if rng.random() >= keep_v:
                avail_e &= ~bits.einc[v]
        root = rng.choice(terminals)
        assert extract_steiner_tree(
            bits, smask, avail_e, root
        ) == reference_extract_steiner_tree(bits, smask, (1 << order) - 1, avail_e, root)


def _suppressed(adj: dict[int, list[int]], terminal_ids: frozenset[int]) -> dict[int, list[int]]:
    adj = {v: sorted(nb) for v, nb in adj.items()}
    for v in sorted(adj):
        if v not in terminal_ids and len(adj[v]) == 2:
            a, b = adj.pop(v)
            adj[a].remove(v)
            adj[b].remove(v)
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _centre_count(adj: dict[int, list[int]]) -> int:
    """1 or 2: the parity of the tree's diameter, found by two sweeps."""

    def farthest(start: int) -> tuple[int, int]:
        depth = {start: 0}
        queue = [start]
        for v in queue:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        return queue[-1], depth[queue[-1]]

    end, _ = farthest(next(iter(adj)))
    return 1 + farthest(end)[1] % 2


def reference_reduced_code(adj: dict[int, list[int]], terminal_ids: frozenset[int]) -> str:
    """The topology code as a recursion: the least string over every root.
    `_reduced_code` roots only at the centres, so some strings differ, but
    two trees must get equal codes under one exactly when they do under
    the other."""
    adj = _suppressed(adj, terminal_ids)

    def rooted(v: int, parent: int | None) -> str:
        label = "T" if v in terminal_ids else "*"
        kids = sorted(rooted(w, v) for w in adj[v] if w != parent)
        return label + "(" + ",".join(kids) + ")"

    return min(rooted(v, None) for v in sorted(adj))


def reference_centre_code(tree: Tree, terminals) -> str:
    """`classify_topology` in two passes: the union-find tree check, then
    a breadth-first search from each centre of the reduced tree to write
    it.  The library checks the tree on the code's own adjacency and
    writes each vertex as it is peeled; codes and error messages must be
    byte-identical."""
    sset = frozenset(terminals)
    vset = tree.vertex_set
    if sset - vset:
        raise ValueError(f"tree does not contain terminals {sorted(sset - vset)}")
    problem = _is_tree(tree)
    if problem is not None:
        raise ValueError(f"not a tree ({problem})")
    adj = _adjacency(tree.edges)
    for v in list(adj):
        if v not in sset and len(adj[v]) == 2:
            a, b = adj.pop(v)
            adj[a].remove(v)
            adj[b].remove(v)
            adj[a].append(b)
            adj[b].append(a)
    degree = {v: len(nb) for v, nb in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    stray = [v for v in layer if v not in sset]
    if stray:
        raise ValueError(f"non-terminal leaf {min(stray)}")
    left = len(adj)
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled
    codes = []
    for root in layer:
        order = [root]
        parent = {root: None}
        for v in order:
            for w in adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        kids: dict[int, list[str]] = {v: [] for v in order}
        for v in reversed(order):
            below = kids[v]
            below.sort()
            code = ("T(" if v in sset else "*(") + ",".join(below) + ")"
            if v != root:
                kids[parent[v]].append(code)
        codes.append(code)
    return min(codes)


def _classified(classify, tree: Tree, terminals) -> str:
    """The code, or the ValueError message marked as such."""
    try:
        return classify(tree, terminals)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _edge_sets(draw) -> tuple[Tree, tuple[int, ...]]:
    """An arbitrary edge set over at most 8 vertices: often a tree (a
    random parent per vertex), sometimes with one edge dropped or one
    added, and terminals that usually lie in it."""
    vertices = sorted(draw(st.lists(st.integers(0, 9), min_size=2, max_size=8, unique=True)))
    edges = {(vertices[draw(st.integers(0, i - 1))], vertices[i]) for i in range(1, len(vertices))}
    change = draw(st.sampled_from(["tree", "drop", "add", "any"]))
    pairs = list(itertools.combinations(vertices, 2))
    if change == "drop":
        edges.discard(draw(st.sampled_from(sorted(edges))))
    elif change == "add":
        edges.add(draw(st.sampled_from(pairs)))
    elif change == "any":
        edges = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(vertices) + 1)))
    pool = vertices if draw(st.booleans()) else list(range(10))
    terminals = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique=True))
    return Tree(tuple(vertices), tuple(sorted(edges))), tuple(terminals)


@settings(max_examples=400, deadline=None)
@given(_edge_sets())
def test_classify_matches_two_pass_reference(case):
    tree, terminals = case
    assert _classified(
        lambda t, s: classify_topology(t, s).code, tree, terminals
    ) == _classified(reference_centre_code, tree, terminals)


def test_k6_four_terminal_codes_are_pinned():
    S = (0, 1, 2, 3)
    trees = enumerate_steiner_trees(complete_graph(6), S, 20000).trees
    codes = [classify_topology(t, S).code for t in trees]
    assert codes == [reference_centre_code(t, S) for t in trees]
    counts = {code: codes.count(code) for code in set(codes)}
    assert counts == {
        "T(T(),T(T()))": 228,
        "*(T(),T(),T(T()))": 120,
        "T(T(),T(),T())": 76,
        "*(T(),T(),T(),T())": 10,
        "*(*(T(),T()),T(),T())": 6,
    }


def test_topology_codes_are_pinned_on_a_seeded_corpus():
    """Every tree the enumerator gives on seeded order-8 graphs (p = 0.35,
    |S| cycling 4 and 5, as in the benchmark's topology-enum mix): the
    codes, one a line, hash to a fixed digest, and the unchecked path that
    `count_topologies` takes gives the checked path's code."""
    rng = random.Random(611)
    digest = hashlib.sha256()
    count = 0
    for i in range(100):
        graph = random_connected_graph(rng, 8, 0.35)
        terminals = random_terminals(rng, graph, (4, 5)[i % 2])
        sset = frozenset(terminals.members)
        for tree in enumerate_steiner_trees(graph, terminals, 20000).trees:
            code = classify_topology(tree, terminals).code
            assert _reduced_code(tree.edges, sset) == code
            digest.update(code.encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (
        8393,
        "7eb20d86eb0b6bf6c05f5a3b04fc251822e3168a830db25beeb9069d612b1337",
    )


def _subdivided(tree: Tree, edge: tuple[int, int], times: int) -> Tree:
    """`tree` with `edge` replaced by a path through `times` new vertices."""
    u, v = edge
    fresh = list(range(max(tree.vertices) + 1, max(tree.vertices) + 1 + times))
    chain = [u, *fresh, v]
    edges = [e for e in tree.edges if e != edge] + list(zip(chain, chain[1:]))
    return Tree(tree.vertices + tuple(fresh), tuple(edges))


def _assert_same_code(plain: Tree, longer: Tree, terminals) -> None:
    code = classify_topology(plain, terminals).code
    assert classify_topology(longer, terminals).code == code
    assert reference_centre_code(longer, terminals) == code
    assert _reduced_code(longer.edges, frozenset(terminals)) == code


def test_chain_between_two_centres_is_walked():
    # two anonymous centres 4 and 5, the edge between them subdivided
    # four times: the centres are found and written through the chain
    S = (0, 1, 2, 3)
    plain = Tree((0, 1, 2, 3, 4, 5), ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)))
    _assert_same_code(plain, _subdivided(plain, (4, 5), 4), S)
    assert classify_topology(plain, S).code == "*(*(T(),T()),T(),T())"
    # a terminal and an anonymous centre, the arm between them subdivided
    S = (0, 1, 2, 3, 5)
    plain = Tree((0, 1, 2, 3, 4, 5), ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)))
    _assert_same_code(plain, _subdivided(plain, (4, 5), 3), S)


def test_chain_at_a_leaf_is_walked():
    # a star whose arm to leaf 2 runs through three degree-2 non-terminals,
    # and a terminal path whose end leaf hangs on a chain of two
    star = Tree((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3)))
    _assert_same_code(star, _subdivided(star, (2, 3), 3), (0, 1, 2))
    path = Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    _assert_same_code(path, _subdivided(path, (2, 3), 2), (0, 1, 2, 3))


def test_long_subdivided_terminal_path_needs_no_recursion():
    # 1,200 terminals (the even ids) with a degree-2 non-terminal between
    # each pair: 1,200 levels in the reduced tree, past the default
    # recursion limit, so a recursive writer would fail
    order = 2 * 1200 - 1
    tree = Tree(tuple(range(order)), tuple((v, v + 1) for v in range(order - 1)))
    terminals = tuple(range(0, order, 2))
    code = classify_topology(tree, terminals).code
    assert code == reference_centre_code(tree, terminals)
    assert code == _reduced_code(tree.edges, frozenset(terminals))
    assert code.count("T") == 1200 and code.startswith("T(T(T(")
    plain = Tree(tuple(range(1200)), tuple((v, v + 1) for v in range(1199)))
    assert code == classify_topology(plain, tuple(range(1200))).code


def _adjacency(edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _random_steiner_tree(rng: random.Random) -> tuple[list[tuple[int, int]], frozenset[int]]:
    """A random labelled tree of order 2-14 whose leaves are all terminals,
    with some interior terminals and randomly numbered vertices."""
    order = rng.randint(2, 14)
    labels = rng.sample(range(40), order)
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, order)]
    adj = _adjacency(edges)
    share = rng.choice([0.0, 0.2, 0.5])
    terminals = frozenset(v for v, nb in adj.items() if len(nb) == 1 or rng.random() < share)
    return edges, terminals


def _relabelled(rng: random.Random, edges, terminals):
    vertices = sorted({v for e in edges for v in e})
    perm = dict(zip(vertices, rng.sample(range(100), len(vertices))))
    moved = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(moved)
    return moved, frozenset(perm[v] for v in terminals)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_reduced_code_partition_matches_reference(seed):
    """Equal codes exactly when the reference codes are equal, and a code
    that does not depend on how the vertices are numbered or on
    subdivided edges."""
    rng = random.Random(seed)
    new_of_ref: dict[str, str] = {}
    ref_of_new: dict[str, str] = {}
    centres = set()
    for _ in range(30):
        edges, terminals = _random_steiner_tree(rng)
        new = _reduced_code(edges, terminals)
        ref = reference_reduced_code(_adjacency(edges), terminals)
        tree = Tree(tuple({v for e in edges for v in e}), tuple(edges))
        assert classify_topology(tree, terminals).code == reference_centre_code(tree, terminals) == new
        assert new_of_ref.setdefault(ref, new) == new
        assert ref_of_new.setdefault(new, ref) == ref
        moved, moved_terminals = _relabelled(rng, edges, terminals)
        assert _reduced_code(moved, moved_terminals) == new
        # a subdivided edge reduces away
        u, v = edge = rng.choice(edges)
        longer = [e for e in edges if e != edge] + [(u, 100), (100, v)]
        assert _reduced_code(longer, terminals) == new
        centres.add(_centre_count(_suppressed(_adjacency(edges), terminals)))
    assert centres == {1, 2}


def test_reduced_code_even_path_and_star():
    # an even path of terminals has two centres, written the same way
    path = [(v, v + 1) for v in range(5)]
    assert _reduced_code(path, frozenset(range(6))) == "T(T(T()),T(T(T())))"
    star = [(4, 0), (4, 1), (4, 2), (4, 3)]
    code = "*(T(),T(),T(),T())"
    assert _reduced_code(star, frozenset(range(4))) == code
    assert reference_reduced_code(_adjacency(star), frozenset(range(4))) == code
    # two unlike centres, * and T: the code must not depend on which is
    # found first
    terminals = frozenset({1, 2, 3, 4})
    for tree in ([(0, 2), (0, 3), (0, 1), (1, 4)], [(1, 4), (0, 1), (0, 2), (0, 3)]):
        assert _reduced_code(tree, terminals) == "*(T(),T(),T(T()))"


def test_classify_path_of_four_terminals():
    t = Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    code = classify_topology(t, (0, 1, 2, 3)).code
    assert code == classify_topology(
        Tree((0, 1, 2, 3), ((0, 2), (2, 1), (1, 3))), (0, 1, 2, 3)
    ).code  # terminal order within the path does not matter


def test_classify_star_three_leaves():
    star = Tree((0, 1, 2, 3), ((3, 0), (3, 1), (3, 2)))
    code = classify_topology(star, (0, 1, 2)).code
    path = Tree((0, 1, 2), ((0, 1), (1, 2)))
    assert code != classify_topology(path, (0, 1, 2)).code


def test_classify_star_four_leaves_distinct_from_three():
    star4 = Tree((0, 1, 2, 3, 4), ((4, 0), (4, 1), (4, 2), (4, 3)))
    star3 = Tree((0, 1, 2, 3), ((3, 0), (3, 1), (3, 2)))
    assert (
        classify_topology(star4, (0, 1, 2, 3)).code
        != classify_topology(star3, (0, 1, 2)).code
    )


def test_classify_suppresses_degree_two_steiner_vertices():
    # a subdivided edge reduces to the plain edge
    direct = Tree((0, 1), ((0, 1),))
    subdivided = Tree((0, 1, 5), ((0, 5), (1, 5)))
    assert (
        classify_topology(direct, (0, 1)).code
        == classify_topology(subdivided, (0, 1)).code
    )
    # but a terminal of degree 2 is kept
    through_terminal = Tree((0, 1, 2), ((0, 2), (1, 2)))
    assert (
        classify_topology(through_terminal, (0, 1, 2)).code
        != classify_topology(direct, (0, 1)).code
    )


def test_classify_rejects_non_terminal_leaf():
    t = Tree((0, 1, 2), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="non-terminal leaf"):
        classify_topology(t, (0, 1))


@pytest.mark.parametrize(
    "tree, terminals, message",
    [
        (Tree((0, 1, 2), ((0, 1), (1, 2))), (0, 1), "non-terminal leaf 2"),
        (
            Tree((0, 1, 7, 9), ((0, 1), (1, 7), (0, 9))),
            (0, 1),
            "non-terminal leaf 7",
        ),
        (
            Tree((0, 1, 2), ((0, 1), (1, 2), (0, 2))),
            (0, 1, 2),
            "not a tree (has 3 edges on 3 vertices, not a tree)",
        ),
        (Tree((0, 1), ((0, 1),)), (0, 1, 5, 6), "tree does not contain terminals [5, 6]"),
        # five edges on six vertices with a cycle through the degree-2
        # non-terminals 2..5: suppressing them before the tree check would
        # raise KeyError
        (
            Tree((0, 1, 2, 3, 4, 5), ((0, 1), (2, 3), (3, 4), (4, 5), (2, 5))),
            (0, 1),
            "not a tree (contains a cycle through edge (4,5))",
        ),
    ],
)
def test_classify_error_messages_are_exact(tree, terminals, message):
    with pytest.raises(ValueError) as err:
        classify_topology(tree, terminals)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        reference_centre_code(tree, terminals)
    assert str(err.value) == message


def test_classify_rejects_non_tree():
    with pytest.raises(ValueError, match="not a tree"):
        classify_topology(Tree((0, 1, 2), ((0, 1), (1, 2), (0, 2))), (0, 1, 2))


def test_three_terminals_have_two_types_in_k6():
    assert count_topologies(complete_graph(6), (0, 1, 2)) == 2


def test_four_terminals_have_five_types_in_k6():
    assert count_topologies(complete_graph(6), (0, 1, 2, 3)) == 5


def test_path_endpoints_single_type():
    assert count_topologies(path_graph(4), (0, 3)) == 1


def test_topology_count_invariant_under_terminal_choice():
    g = complete_graph(6)
    for sub in itertools.combinations(range(6), 3):
        assert count_topologies(g, sub) == 2


def test_five_types_enumerated_explicitly():
    """The five 4-terminal shapes, built by hand, have five distinct codes."""
    S = (0, 1, 2, 3)
    shapes = [
        Tree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))),              # path, two inner terminals
        Tree((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3))),              # terminal-centred star
        Tree((0, 1, 2, 3, 4), ((4, 0), (4, 1), (4, 2), (0, 3))),   # anonymous centre, one arm through a terminal
        Tree((0, 1, 2, 3, 4), ((4, 0), (4, 1), (4, 2), (4, 3))),   # anonymous centre, four leaves
        Tree((0, 1, 2, 3, 4, 5), ((4, 0), (4, 1), (4, 5), (5, 2), (5, 3))),  # two anonymous centres
    ]
    codes = {classify_topology(t, S).code for t in shapes}
    assert len(codes) == 5


@pytest.mark.parametrize("seed", range(5))
def test_graph_bits_neighbour_masks_match_adjacency(seed):
    g = random_graph(random.Random(seed), 9, 0.4)
    bits = GraphBits(g)
    assert bits.nbrs == [mask_of(nb) for nb in g.adjacency()]
    assert (bits.order, bits.edges) == (g.order, g.edges)
    assert bits.einc == [
        mask_of(i for i, e in enumerate(g.edges) if v in e) for v in range(g.order)
    ]
    assert bits.evmask == [mask_of(e) for e in g.edges]
    assert bits.all_e == mask_of(range(len(g.edges)))
