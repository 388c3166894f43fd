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
from typing import Callable, Collection, Iterable, Iterator

from .graph import Graph, TerminalSet, _int_arg
from .certificates import Tree, _is_tree


class GraphBits:
    """Bitmask view of a graph for the combinatorial search routines."""

    __slots__ = ("order", "edges", "einc", "nbrs", "evmask", "all_e")

    def __init__(self, graph: Graph):
        """`einc[v]`: the edges at v; `nbrs[v]`: the neighbours of v;
        `evmask[e]`: the two ends of edge e; `all_e`: every edge.  One pass
        over the edges fills all three lists."""
        order, edges = graph.order, graph.edges
        einc = [0] * order
        nbrs = [0] * order
        evmask = []
        bit = 1
        for u, v in edges:
            ubit, vbit = 1 << u, 1 << v
            einc[u] |= bit
            einc[v] |= bit
            nbrs[u] |= vbit
            nbrs[v] |= ubit
            evmask.append(ubit | vbit)
            bit <<= 1
        self.order, self.edges = order, edges
        self.einc, self.nbrs, self.evmask = einc, nbrs, evmask
        self.all_e = bit - 1


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
    avail_e: int,
    root: int,
    tick: Callable[[], None] | None = None,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield every minimal Steiner tree inside the available subgraph.

    The available subgraph is the edge set `avail_e` with the vertices it
    touches.  Trees come out as (edge_mask, vertex_mask) in a
    deterministic depth-first discovery order: at each step the
    lowest-indexed frontier edge is first included, then excluded, so each
    edge set is produced exactly once.  `root` must be a terminal.  If S
    is split at the root (one search, before the root node), nothing is
    yielded and nothing ticked.  Each search node carries the mask of its
    non-terminal leaves, and every one of them keeps a spare edge
    (available, not excluded, not in the tree) to grow through; a node is
    complete once it holds every terminal and has no such leaf.  An
    exclude branch must still connect S; since its parent does, it tests
    only the edge it removes: that edge's outer end must reach the tree
    another way, or be cut off from every terminal.  `prune(tree_e,
    tree_v)` may veto a partial tree and all of its extensions (used by
    the packing search to apply remaining-tree bounds).  `tick` charges
    one budget unit per search node.
    """
    if extract_steiner_tree(bits, smask, avail_e, root) is None:
        return
    einc = bits.einc
    evmask = bits.evmask
    # (tree_e, tree_v, excl, frontier, leaves, cut): a search node; `cut` is
    # the edge an exclude branch removes from its parent, tested when popped
    stack = [(0, 1 << root, 0, einc[root] & avail_e, 0, 0)]
    while stack:
        tree_e, tree_v, excl, frontier, leaves, cut = stack.pop()
        if cut:
            # the parent connects S, so only the cut's outer end w can be
            # cut off: search from w until an edge into the tree, or until
            # its side runs out, which then must hold no terminal
            seen = evmask[cut.bit_length() - 1] & ~tree_v
            allowed = avail_e & ~excl
            queue = [seen.bit_length() - 1]
            for x in queue:
                ee = einc[x] & allowed
                if ee & frontier:
                    break
                while ee:
                    low = ee & -ee
                    ee ^= low
                    ybit = evmask[low.bit_length() - 1] & ~seen
                    if ybit:
                        seen |= ybit
                        queue.append(ybit.bit_length() - 1)
            else:
                if seen & smask:
                    continue
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
            stack.append((tree_e, tree_v, excl | bit, frontier & ~bit, leaves, bit))
        # include: the new vertex, if non-terminal, must be fixable later
        grown_e = tree_e | bit
        grown_v = tree_v | wmask
        if (spare or wmask & smask) and (prune is None or not prune(grown_e, grown_v)):
            stack.append((
                grown_e, grown_v, excl, (frontier | (einc[w] & avail_e)) & ~grown_e,
                leaves & ~vbit | wmask & ~smask, 0,
            ))


def _bfs_parents(
    bits: GraphBits, smask: int, avail_e: int, root: int
) -> dict[int, int] | None:
    """The parent edge bit of each vertex a breadth-first search from
    `root` over the edges of `avail_e` reaches (lowest edge index first),
    stopping once every vertex of `smask` is reached; None if one never is.

    The root has no entry.  Following the parent edges from any reached
    vertex leads back to the root along a shortest path.
    """
    einc = bits.einc
    evmask = bits.evmask
    up: dict[int, int] = {}
    visited = 1 << root
    queue = [root]
    for v in queue:
        if not smask & ~visited:
            return up
        ee = einc[v] & avail_e
        while ee:
            low = ee & -ee
            ee ^= low
            wbit = evmask[low.bit_length() - 1] & ~visited
            if wbit:
                visited |= wbit
                w = wbit.bit_length() - 1
                up[w] = low
                queue.append(w)
    return None if smask & ~visited else up


def extract_steiner_tree(
    bits: GraphBits, smask: int, avail_e: int, root: int
) -> tuple[int, int] | None:
    """Deterministically pick one minimal Steiner tree, or None if S is split.

    The tree uses edges of `avail_e` only.  `root` must be a terminal (the
    solver's anchor).  The tree is the union of the paths back to the root
    from each terminal in `_bfs_parents`.
    """
    up = _bfs_parents(bits, smask, avail_e, root)
    if up is None:
        return None
    evmask = bits.evmask
    tree_e, tree_v = 0, 1 << root
    while smask & ~tree_v:
        vbit = 1 << ((smask & ~tree_v).bit_length() - 1)
        while not vbit & tree_v:
            tree_v |= vbit
            ebit = up[vbit.bit_length() - 1]
            tree_e |= ebit
            vbit ^= evmask[ebit.bit_length() - 1]
    return (tree_e, tree_v)


def tree_from_masks(bits: GraphBits, tree_e: int, tree_v: int) -> Tree:
    """The `Tree` of a mask pair: its vertex bits and the `graph.edges`
    entries of its edge bits, each lowest first."""
    vertices = []
    while tree_v:
        low = tree_v & -tree_v
        vertices.append(low.bit_length() - 1)
        tree_v ^= low
    edges = bits.edges
    picked = []
    while tree_e:
        low = tree_e & -tree_e
        picked.append(edges[low.bit_length() - 1])
        tree_e ^= low
    return Tree._from_canonical(tuple(vertices), tuple(picked))


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
    _int_arg(limit, "limit", 1)
    terminals = TerminalSet.of(terminals).validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    found = list(itertools.islice(
        iter_minimal_trees(bits, smask, bits.all_e, terminals.members[0]),
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
    out from its centre (the lesser string when it has two), in one peel
    of its leaves and with no recursion.
    """

    code: str


def _reduced_code(
    edges: Iterable[tuple[int, int]], terminal_ids: Collection[int], tree: Tree | None = None
) -> str:
    """Canonical string of a tree given by its edges.

    If `tree` is given (the edges are its edges), the adjacency is built
    on `tree.vertices` and checked: every terminal is a vertex, there is
    one edge fewer than vertices, and one sweep from the first vertex
    reaches them all; only on failure does `certificates._is_tree` run,
    to name the fault.  Leaves are then peeled layer by layer down to the
    one or two centres of the tree with its degree-2 non-terminals
    suppressed.  The suppression happens during the peel: `degree` counts
    only the other vertices, and a peeled vertex reaches its neighbour by
    walking through any chain of degree-2 non-terminals, so the adjacency
    is never rewritten.  A peeled vertex is written as `T` (terminal) or
    `*`, followed by the sorted codes of the vertices peeled into it, in
    parentheses, and its code goes to its one neighbour still present.
    One centre is written the same way; two are each written with the
    other as an extra child, and the lesser string is the code.
    Isomorphisms map centres to centres, so two trees get equal codes
    exactly when they are isomorphic with terminals onto terminals, the
    same partition as taking the least string over every root.  A
    non-terminal leaf raises ValueError naming the least one.
    """
    if tree is None:
        adj: dict[int, list[int]] = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    else:
        vertices = tree.vertices
        adj = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for t in terminal_ids:
            if t not in adj:
                missing = sorted(set(terminal_ids).difference(adj))
                raise ValueError(f"tree does not contain terminals {missing}")
        start = vertices[0]
        seen = {start}
        queue = [start]
        if len(tree.edges) == len(vertices) - 1:
            for v in queue:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        if len(queue) != len(vertices):
            raise ValueError(f"not a tree ({_is_tree(tree)})")
    # `degree` skips the non-terminals of degree 2: in a tree, suppressing
    # them changes no other vertex's degree and makes no new leaf
    degree: dict[int, int] = {}
    layer = []
    for v, nb in adj.items():
        d = len(nb)
        if d != 2 or v in terminal_ids:
            degree[v] = d
            if d < 2:
                layer.append(v)
    for v in layer:
        if v not in terminal_ids:
            raise ValueError(f"non-terminal leaf {min(set(layer).difference(terminal_ids))}")
    # peel leaves until one vertex or one edge is left: the centres; a
    # peeled vertex gets degree 0 and its code goes to its one neighbour left
    kids: dict[int, list[str]] = {}
    left = len(degree)
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            below = kids.get(v)
            if below:
                below.sort()
                code = ("T(" if v in terminal_ids else "*(") + ",".join(below) + ")"
            else:
                code = "T()"  # a leaf, so a terminal
            degree[v] = 0
            for w in adj[v]:
                u = v
                while w not in degree:  # a suppressed vertex: step along its chain
                    a, b = adj[w]
                    u, w = w, b if a == u else a
                d = degree[w]
                if d:
                    if w in kids:
                        kids[w].append(code)
                    else:
                        kids[w] = [code]
                    degree[w] = d - 1
                    if d == 2:
                        peeled.append(w)
                    break
        layer = peeled
    if len(layer) == 1:
        v = layer[0]
        below = kids[v]
        below.sort()
        return ("T(" if v in terminal_ids else "*(") + ",".join(below) + ")"
    a, b = layer
    below_a, below_b = kids.get(a, []), kids.get(b, [])
    open_a = "T(" if a in terminal_ids else "*("
    open_b = "T(" if b in terminal_ids else "*("
    below_a.sort()
    below_b.sort()
    code_a = open_a + ",".join(below_a) + ")"
    below_a.append(open_b + ",".join(below_b) + ")")
    below_b.append(code_a)
    below_a.sort()
    below_b.sort()
    return min(open_a + ",".join(below_a) + ")", open_b + ",".join(below_b) + ")")


def classify_topology(tree: Tree, terminals: TerminalSet | list[int]) -> ReducedTopology:
    """Canonical homeomorphism type of a Steiner tree.

    The tree must connect the terminals and every leaf must be a terminal.
    The result skips the dataclass constructor, as `Tree._from_canonical`
    does: the code is a `str` and there is nothing to check.
    """
    if not isinstance(terminals, TerminalSet):
        terminals = TerminalSet(terminals)
    topology = object.__new__(ReducedTopology)
    object.__setattr__(topology, "code", _reduced_code(tree.edges, terminals.members, tree))
    return topology


def count_topologies(graph: Graph, terminals: TerminalSet | list[int]) -> int:
    """Number of distinct reduced topologies over all minimal Steiner trees."""
    terminals = TerminalSet.of(terminals).validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    sset = frozenset(terminals.members)
    return len({
        _reduced_code([bits.edges[e] for e in iter_bits(tree_e)], sset)
        for tree_e, _ in iter_minimal_trees(bits, smask, bits.all_e, terminals.members[0])
    })
