"""Minimal Steiner tree enumeration and homeomorphism-type classification.

A minimal Steiner tree for a terminal set S is a subtree whose vertex set
contains S and all of whose leaves are terminals; equivalently, no proper
subtree still connects S.  Any packing of internally disjoint trees can be
pruned tree-by-tree into this form without losing cardinality, so the
solver only ever considers such trees.

Everything here works on bitmask views: vertex sets and edge-index sets
are plain ints, which keeps the inner loops allocation-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .graph import Graph, TerminalSet
from .certificates import Tree, _is_tree


class GraphBits:
    """Bitmask view of a graph for the combinatorial search routines."""

    __slots__ = ("order", "edges", "einc", "evmask", "all_v", "all_e")

    def __init__(self, graph: Graph):
        self.order = graph.order
        self.edges = graph.edges
        self.einc = [0] * graph.order
        self.evmask: list[int] = []
        for i, (u, v) in enumerate(graph.edges):
            bit = 1 << i
            self.einc[u] |= bit
            self.einc[v] |= bit
            self.evmask.append((1 << u) | (1 << v))
        self.all_v = (1 << graph.order) - 1
        self.all_e = (1 << len(graph.edges)) - 1


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids) -> int:
    out = 0
    for v in ids:
        out |= 1 << v
    return out


def iter_minimal_trees(
    bits: GraphBits,
    smask: int,
    avail_v: int,
    avail_e: int,
    root: int,
    tick: Callable[[], None] | None = None,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield every minimal Steiner tree inside the available subgraph.

    Trees come out as (edge_mask, vertex_mask) in a deterministic
    depth-first discovery order: at each step the lowest-indexed frontier
    edge is first included, then excluded, so each edge set is produced
    exactly once.  `root` must be a terminal.  Each search node carries
    the mask of its non-terminal leaves, and every one of them keeps a
    spare edge (available, not excluded, not in the tree) to grow
    through; a node is complete once it holds every terminal and has no
    such leaf.  An exclude branch must still connect S: the last Steiner
    tree that showed this is kept, and replaced only once a branch lacks
    part of it.  `prune(tree_e, tree_v)` may veto a partial tree and all
    of its extensions (used by the packing search to apply remaining-tree
    bounds).  `tick` charges one budget unit per search node.
    """
    rootbit = 1 << root
    if not rootbit & avail_v:
        return
    einc = bits.einc
    evmask = bits.evmask
    # (tree_e, tree_v, excl, frontier, leaves, check): a search node; `check`
    # marks an exclude branch, tested when popped against the witness, which
    # may hold tree vertices outside avail_v (an available edge can lead there)
    stack = [(0, rootbit, 0, einc[root] & avail_e, 0, False)]
    wit_e, wit_v = -1, 0
    while stack:
        tree_e, tree_v, excl, frontier, leaves, check = stack.pop()
        if check and (wit_e & excl or wit_v & ~avail_v & ~tree_v):
            witness = extract_steiner_tree(bits, smask, avail_v | tree_v, avail_e & ~excl, root)
            if witness is None:
                continue
            wit_e, wit_v = witness
        if tick is not None:
            tick()
        if not leaves and not smask & ~tree_v:
            # complete: no strict supertree can be minimal, stop growing
            yield (tree_e, tree_v)
            continue
        # lowest admissible frontier edge; edges closing a cycle drop out for good
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
            continue
        bit = 1 << cand
        vbit = evmask[cand] & tree_v
        wmask = evmask[cand] & ~tree_v
        w = wmask.bit_length() - 1
        spare = einc[w] & avail_e & ~excl & ~bit  # w is outside the tree, so are its edges
        # exclude goes under include, so it is explored after include's subtree;
        # it may take neither the tree end's last spare edge nor a terminal's last
        if (spare or not wmask & smask) and (
            not leaves & vbit or einc[vbit.bit_length() - 1] & avail_e & ~excl & ~bit & ~tree_e
        ):
            stack.append((tree_e, tree_v, excl | bit, frontier & ~bit, leaves, True))
        # include: the new vertex, if non-terminal, must be fixable later
        grown_e = tree_e | bit
        grown_v = tree_v | wmask
        if (spare or wmask & smask) and (prune is None or not prune(grown_e, grown_v)):
            stack.append((
                grown_e, grown_v, excl, (frontier | (einc[w] & avail_e)) & ~grown_e,
                leaves & ~vbit | wmask & ~smask, False,
            ))


def extract_steiner_tree(
    bits: GraphBits, smask: int, avail_v: int, avail_e: int, root: int
) -> tuple[int, int] | None:
    """Deterministically pick one minimal Steiner tree, or None if S is split.

    `root` must be a terminal (the solver's anchor).  The tree is the union
    of the paths back to the root from each terminal in a breadth-first
    search (lowest edge index first) that stops once all are reached.
    """
    rootbit = 1 << root
    if not rootbit & avail_v or smask & ~avail_v:
        return None
    einc = bits.einc
    evmask = bits.evmask
    up: dict[int, int] = {}
    visited = rootbit
    queue = [root]
    for v in queue:
        if not smask & ~visited:
            break
        ee = einc[v] & avail_e
        while ee:
            low = ee & -ee
            ee ^= low
            wbit = evmask[low.bit_length() - 1] & avail_v & ~visited
            if wbit:
                visited |= wbit
                w = wbit.bit_length() - 1
                up[w] = low
                queue.append(w)
    if smask & ~visited:
        return None
    tree_e, tree_v = 0, rootbit
    while smask & ~tree_v:
        vbit = 1 << ((smask & ~tree_v).bit_length() - 1)
        while not vbit & tree_v:
            tree_v |= vbit
            ebit = up[vbit.bit_length() - 1]
            tree_e |= ebit
            vbit ^= evmask[ebit.bit_length() - 1]
    return (tree_e, tree_v)


def tree_from_masks(bits: GraphBits, tree_e: int, tree_v: int) -> Tree:
    return Tree(
        tuple(iter_bits(tree_v)),
        tuple(bits.edges[e] for e in iter_bits(tree_e)),
    )


# ---------------------------------------------------------------------------
# Public enumeration and topology classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    trees: tuple[Tree, ...]
    truncated: bool


def enumerate_steiner_trees(
    graph: Graph, terminals: TerminalSet | list[int], limit: int
) -> EnumerationResult:
    """All inclusion-minimal Steiner trees, up to `limit`.

    When the full set fits in the limit it is returned sorted by
    (edge count, edge list).  Otherwise the first `limit` discoveries are
    returned (sorted the same way) with the truncation flag set.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    found = list(itertools.islice(
        iter_minimal_trees(bits, smask, bits.all_v, bits.all_e, terminals.members[0]),
        limit + 1,
    ))
    trees = sorted(
        (tree_from_masks(bits, tree_e, tree_v) for tree_e, tree_v in found[:limit]),
        key=lambda t: (len(t.edges), t.edges),
    )
    return EnumerationResult(tuple(trees), len(found) > limit)


@dataclass(frozen=True)
class ReducedTopology:
    """Canonical code of a Steiner tree with degree-2 non-terminals suppressed.

    Terminals all carry one shared marker, so trees that differ only by
    which terminal sits where get the same code; anonymous branch vertices
    are interchangeable likewise.  The code is the reduced tree written
    out from its centre (the lesser string when it has two), so a tree is
    rooted at most twice, not at every vertex, and with no recursion.
    """

    code: str


def _reduced_code(edges: Iterable[tuple[int, int]], terminal_ids: frozenset[int]) -> str:
    """Canonical string of a tree given by its edges.

    Non-terminals of degree 2 are suppressed first.  The reduced tree is
    then rooted at each of its one or two centres, found by peeling leaves
    layer by layer, and written bottom-up over a breadth-first order: a
    vertex is `T` (terminal) or `*`, followed by its children's codes,
    sorted, in parentheses.  The lesser of the one or two strings is the
    code.  Isomorphisms map centres to centres, so two trees get equal
    codes exactly when they are isomorphic with terminals onto terminals,
    the same partition as taking the least string over every root.  A
    non-terminal leaf raises ValueError naming the least one.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    # suppress non-terminal vertices of degree 2; in a tree this changes no
    # other vertex's degree, so one pass finds them all and no leaf changes
    for v in list(adj):
        if v not in terminal_ids and len(adj[v]) == 2:
            a, b = adj.pop(v)
            adj[a].remove(v)
            adj[b].remove(v)
            adj[a].append(b)
            adj[b].append(a)
    # peel leaves until one vertex or one edge is left: the centres
    degree = {v: len(nb) for v, nb in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    stray = [v for v in layer if v not in terminal_ids]
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
            code = ("T(" if v in terminal_ids else "*(") + ",".join(below) + ")"
            if v != root:
                kids[parent[v]].append(code)
        codes.append(code)
    return min(codes)


def classify_topology(tree: Tree, terminals: TerminalSet | list[int]) -> ReducedTopology:
    """Canonical homeomorphism type of a Steiner tree.

    The tree must connect the terminals and every leaf must be a terminal.
    """
    terminals = TerminalSet.of(terminals)
    sset = frozenset(terminals.members)
    vset = tree.vertex_set
    if sset - vset:
        raise ValueError(f"tree does not contain terminals {sorted(sset - vset)}")
    problem = _is_tree(tree)
    if problem is not None:
        raise ValueError(f"not a tree ({problem})")
    return ReducedTopology(_reduced_code(tree.edges, sset))


def count_topologies(graph: Graph, terminals: TerminalSet | list[int]) -> int:
    """Number of distinct reduced topologies over all minimal Steiner trees."""
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    sset = frozenset(terminals.members)
    return len({
        _reduced_code([bits.edges[e] for e in iter_bits(tree_e)], sset)
        for tree_e, _ in iter_minimal_trees(
            bits, smask, bits.all_v, bits.all_e, terminals.members[0]
        )
    })
