"""Exact computation of the tree connectivity kappa(S).

kappa(S) is the maximum size of a family of trees in G that each contain
the terminal set S, are pairwise edge-disjoint, and pairwise intersect in
exactly S (no shared non-terminal vertices).  For |S| = 2 this is the
classical count of internally disjoint paths, which `menger_pair` computes
by maximum flow outside the search and the tests cross-check.

The three entry points ask one question: does G hold l internally
disjoint trees connecting S?  The problem is NP-hard, but exhaustive
search is needed only between two polynomial bounds, so they share one
level search that first sandwiches kappa(S).  The upper bound U, computed
by one routine for the whole graph and for every search node, is the
least of the terminal degrees, |E| // (|S| - 1) and the flow bound below
(exact for |S| = 2); the lower bound L is a greedy packing that extracts
one Steiner tree after another.  Levels above U are refuted and levels up
to L packed without search.  What is left is searched at the cap first,
then upwards from L + 1 to the first refuted level.
`decide_kappa_at_least` asks for the single level k, `kappa_set_exact`
for every level from 1, and `kappa_k_graph` for each k-subset's levels up
to the best value found so far, so after the first subset it mostly asks
whether that value still packs.

Each level packs inclusion-minimal Steiner trees one slot at a time.
Within a packing each tree owns at least one edge at every terminal, so
the trees are totally ordered by their lowest edge at a fixed anchor
terminal; each slot masks anchor edges at or below the previous tree's
minimum, which breaks permutation symmetry at no cost.  Admissible bounds
prune the search: while a tree grows, the degree and edge terms of U and
connectivity of S are checked on what it would leave (the last on a kept
witness tree while the remainder holds it); a finished tree's
remainder must also pass the flow bound (non-terminals capacity one,
terminals uncapacitated) before the next slot is searched.  The flow is
found by unit-capacity augmenting paths on the vertex-split graph, held as
edge bitmasks, so no network is built per call.  The Steiner enumerator
keeps its own stack, so tree length is not limited by the interpreter's
recursion limit.

`brute_force_kappa` is an independent oracle: it enumerates candidate
trees by Steiner-vertex subsets and packs them by plain exhaustive search,
sharing no bound or enumeration code with the main solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certificates import TreeCertificate, certificate_to_obj
from .graph import Graph, TerminalSet
from .steiner import (
    GraphBits,
    extract_steiner_tree,
    iter_bits,
    iter_minimal_trees,
    mask_of,
    tree_from_masks,
)


class BudgetExhausted(RuntimeError):
    """Internal signal: the node-expansion budget ran out mid-search."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        if limit is not None and limit <= 0:
            raise ValueError("budget must be positive")
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted


@dataclass(frozen=True)
class SolveResult:
    value: int
    status: str  # "exact" | "lower-bound"
    certificate: TreeCertificate
    expansions: int

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "expansions": self.expansions,
            "certificate": certificate_to_obj(self.certificate),
        }


@dataclass(frozen=True)
class DecideResult:
    outcome: str  # "certificate" | "refuted" | "unknown"
    certificate: TreeCertificate | None
    expansions: int

    def to_obj(self) -> dict:
        obj: dict = {"outcome": self.outcome, "expansions": self.expansions}
        if self.certificate is not None:
            obj["certificate"] = certificate_to_obj(self.certificate)
        return obj


@dataclass(frozen=True)
class KappaKResult:
    value: int | None
    subset: TerminalSet | None
    status: str  # "exact" | "upper-bound"
    expansions: int

    def to_obj(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "subset": list(self.subset.members) if self.subset is not None else None,
            "expansions": self.expansions,
        }


def _flow_at_least(
    bits: GraphBits,
    smask: int,
    avail_v: int,
    avail_e: int,
    src: int,
    dst: int,
    target: int | None,
) -> int:
    """Max number of src-dst routes that pairwise share only terminal vertices.

    Unit capacities on edges and on non-terminal vertices (vertex split),
    terminals unconstrained.  Augments until `target` is reached (or to
    exhaustion when target is None) and returns the flow value.  Each tree
    of a packing contributes one unit, so this upper-bounds the packing.

    The split network is never materialized.  Node 2v is v_in and 2v+1 is
    v_out; every edge of avail_e gives unit arcs u_out -> v_in and
    v_out -> u_in, and every vertex of avail_v an arc v_in -> v_out.  Routes
    run from src_out to dst_in.  The flow is held as edge masks: out_e[v]
    has the arcs leaving v_out that carry flow, in_e[v] those entering v_in.
    Below the sink dst_in, the through-flow of v is the size of in_e[v], so
    a non-terminal is saturated exactly when in_e[v] is non-zero.
    """
    einc = bits.einc
    evmask = bits.evmask
    out_e = [0] * bits.order
    in_e = [0] * bits.order
    # arc into each node of the breadth-first tree: the edge bit, or 0 for
    # the v_in/v_out arc of the node's own vertex
    via = [0] * (2 * bits.order)
    source, sink = 2 * src + 1, 2 * dst
    flow = 0
    while target is None or flow < target:
        seen_in = 0
        seen_out = 1 << src
        queue = [source]
        for node in queue:
            v = node >> 1
            vbit = 1 << v
            if node & 1:
                # v_out: unsaturated edge arcs, then back over v's through-flow
                ee = einc[v] & avail_e & ~out_e[v]
                while ee:
                    low = ee & -ee
                    ee ^= low
                    wbit = evmask[low.bit_length() - 1] ^ vbit
                    if not wbit & seen_in:
                        seen_in |= wbit
                        w = wbit.bit_length() - 1
                        via[2 * w] = low
                        queue.append(2 * w)
                if seen_in >> dst & 1:
                    break
                if in_e[v] and not vbit & seen_in:
                    seen_in |= vbit
                    via[node - 1] = 0
                    queue.append(node - 1)
            else:
                # v_in: through v if it has capacity left, then back along
                # the edge arcs that carry flow into v
                if (
                    vbit & avail_v
                    and not vbit & seen_out
                    and (vbit & smask or not in_e[v])
                ):
                    seen_out |= vbit
                    via[node + 1] = 0
                    queue.append(node + 1)
                ee = in_e[v]
                while ee:
                    low = ee & -ee
                    ee ^= low
                    wbit = evmask[low.bit_length() - 1] ^ vbit
                    if not wbit & seen_out:
                        seen_out |= wbit
                        w = wbit.bit_length() - 1
                        via[2 * w + 1] = low
                        queue.append(2 * w + 1)
        else:
            break
        node = sink
        while node != source:
            low = via[node]
            if not low:
                node ^= 1
                continue
            v = node >> 1
            w = (evmask[low.bit_length() - 1] ^ (1 << v)).bit_length() - 1
            if node & 1:
                # cancelled flow on the arc v_out -> w_in
                out_e[v] ^= low
                in_e[w] ^= low
                node = 2 * w
            else:
                # new flow on the arc w_out -> v_in
                out_e[w] ^= low
                in_e[v] ^= low
                node = 2 * w + 1
        flow += 1
    return flow


def _bound(
    bits: GraphBits,
    smask: int,
    terminals: tuple[int, ...],
    avail_v: int,
    avail_e: int,
    cap: int,
    need: int,
) -> int:
    """min(cap, U) for the available subgraph, or any value below `need`
    once one is found.  U is the least of the terminal degrees,
    |E| // (|S| - 1) (each tree needs |S| - 1 edges) and the flow bound:
    the fewest routes from the terminal of least degree to any other
    terminal, since each tree of a packing gives one route."""
    degrees = [(bits.einc[s] & avail_e).bit_count() for s in terminals]
    least = min(degrees)
    cap = min(cap, least, avail_e.bit_count() // (len(terminals) - 1))
    src = terminals[degrees.index(least)]
    for t in terminals:
        if t != src and cap >= need:
            cap = _flow_at_least(bits, smask, avail_v, avail_e, src, t, cap)
    return cap


def _remainder(
    bits: GraphBits, smask: int, avail_v: int, avail_e: int, tree_e: int, tree_v: int
) -> tuple[int, int]:
    """What a tree leaves to the others: the available vertices and edges
    without its edges, its non-terminals and their edges."""
    internals = tree_v & ~smask
    avail_v &= ~internals
    avail_e &= ~tree_e
    while internals:
        low = internals & -internals
        internals ^= low
        avail_e &= ~bits.einc[low.bit_length() - 1]
    return avail_v, avail_e


def _greedy_packing(
    bits: GraphBits, smask: int, anchor: int, cap: int
) -> list[tuple[int, int]]:
    """Up to `cap` trees, each extracted from what the earlier ones left."""
    packing = []
    avail_v, avail_e = bits.all_v, bits.all_e
    while len(packing) < cap:
        tree = extract_steiner_tree(bits, smask, avail_v, avail_e, anchor)
        if tree is None:
            break
        packing.append(tree)
        avail_v, avail_e = _remainder(bits, smask, avail_v, avail_e, *tree)
    return packing


def _climb(
    bits: GraphBits,
    terminals: tuple[int, ...],
    lo: int,
    hi: int | None,
    counter: _Budget,
) -> tuple[int, list[tuple[int, int]] | None, bool]:
    """min(hi, kappa(S)), searching only the levels no bound settles.

    The upper bound U of `_bound` and a greedy packing of L trees close the
    levels outside L + 1 .. U; the cap min(hi, U) is searched first, then
    the levels above max(lo - 1, L) upwards until one is refuted.  Returns
    (value, packing, exact): value is the highest level packed, or lo - 1
    when no level from lo up can be packed; packing is None when value was
    not packed.  exact is False when the budget ran out, and value is then
    a lower bound.  The bounds are not charged to the budget.
    """
    smask = mask_of(terminals)
    # U <= the least terminal degree <= |E|, so |E| leaves U uncapped
    cap = _bound(
        bits, smask, terminals, bits.all_v, bits.all_e,
        len(bits.edges) if hi is None else hi, lo,
    )
    if cap < lo:
        return lo - 1, None, True
    einc = bits.einc
    anchor = min(terminals, key=lambda s: (einc[s].bit_count(), s))
    value, packing = lo - 1, None
    if lo < cap:
        greedy = _greedy_packing(bits, smask, anchor, cap)
        if len(greedy) == cap:
            return cap, greedy, True
        if len(greedy) >= lo:
            value, packing = len(greedy), greedy
    # At most one tree of any packing contains the blocked vertex, a
    # non-terminal of maximum degree, and the order-free last slot can
    # always host that tree, so every slot before it may skip trees
    # through the blocked vertex without losing completeness.
    block = max(
        (v for v in range(bits.order) if not smask >> v & 1),
        key=lambda v: einc[v].bit_count(),
        default=None,
    )
    block_v, block_e = (0, 0) if block is None else (1 << block, einc[block])
    edges_per_tree = len(terminals) - 1
    # edges of the last Steiner tree that showed S connected in a prune's
    # remainder; a remainder drops the edges of each vertex it drops, so one
    # that keeps these edges keeps the whole tree
    wit_e = -1

    def search(
        avail_v: int, avail_e: int, need: int, min_anchor_edge: int
    ) -> list[tuple[int, int]] | None:
        """Pack `need` more trees, or None.  The caller has checked the
        bounds for this node: `_climb` at the root, the parent for every
        child."""
        counter.tick()
        if need == 1:
            # the last slot is free of both the anchor-edge ordering and the
            # blocked vertex: it hosts whatever tree the reorderings deferred
            tree = extract_steiner_tree(bits, smask, avail_v, avail_e, anchor)
            return None if tree is None else [tree]
        remaining = need - 1

        def prune(tree_e: int, tree_v: int) -> bool:
            """The cheap terms of `_bound` on what the tree would leave:
            `remaining` free edges at every terminal and in all, S connected."""
            nonlocal wit_e
            rem_v, rem_e = _remainder(bits, smask, avail_v, avail_e, tree_e, tree_v)
            for s in terminals:
                if (einc[s] & rem_e).bit_count() < remaining:
                    return True
            if rem_e.bit_count() < remaining * edges_per_tree:
                return True
            if wit_e & ~rem_e:
                witness = extract_steiner_tree(bits, smask, rem_v, rem_e, anchor)
                if witness is None:
                    return True
                wit_e = witness[0]
            return False

        # anchor edges at or below the previous tree's minimum belong to
        # earlier slots of the canonical ordering and are dead from here on
        dead_e = einc[anchor] & ((1 << (min_anchor_edge + 1)) - 1)
        for tree_e, tree_v in iter_minimal_trees(
            bits, smask, avail_v & ~block_v, avail_e & ~dead_e & ~block_e,
            anchor, counter.tick, prune,
        ):
            next_v, next_e = _remainder(bits, smask, avail_v, avail_e, tree_e, tree_v)
            # prune has checked the cheap terms on exactly this remainder, so
            # only the flow can close it; the bound runs on the true
            # availability, since the ordering mask and the blocked vertex
            # constrain this slot's tree, not later ones
            if remaining >= 2 and _bound(
                bits, smask, terminals, next_v, next_e, remaining, remaining
            ) < remaining:
                continue
            anchor_edges = tree_e & einc[anchor]
            sub = search(
                next_v, next_e, remaining, (anchor_edges & -anchor_edges).bit_length() - 1
            )
            if sub is not None:
                return [(tree_e, tree_v)] + sub
        return None

    try:
        found = search(bits.all_v, bits.all_e, cap, -1)
        if found is not None:
            return cap, found, True
        for k in range(value + 1, cap):
            found = search(bits.all_v, bits.all_e, k, -1)
            if found is None:
                break
            value, packing = k, found
    except BudgetExhausted:
        return value, packing, False
    return value, packing, True


def _to_certificate(bits: GraphBits, packing: list[tuple[int, int]]) -> TreeCertificate:
    return TreeCertificate(tuple(tree_from_masks(bits, te, tv) for te, tv in packing))


def decide_kappa_at_least(
    graph: Graph, terminals, k: int, budget: int | None = None
) -> DecideResult:
    """Find k internally disjoint trees connecting S, or prove none exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    counter = _Budget(budget)
    value, packing, exact = _climb(bits, terminals.members, k, k, counter)
    if value == k:
        return DecideResult("certificate", _to_certificate(bits, packing), counter.used)
    return DecideResult("refuted" if exact else "unknown", None, counter.used)


def kappa_set_exact(graph: Graph, terminals, budget: int | None = None) -> SolveResult:
    """Compute kappa(S) with a witnessing certificate.

    Status "exact" means no larger packing exists; on budget exhaustion the
    best certificate found so far is returned with status "lower-bound".
    """
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    counter = _Budget(budget)
    value, packing, exact = _climb(bits, terminals.members, 1, None, counter)
    status = "exact" if exact else "lower-bound"
    return SolveResult(value, status, _to_certificate(bits, packing or []), counter.used)


def kappa_k_graph(graph: Graph, k: int, budget: int | None = None) -> KappaKResult:
    """min over all k-subsets S of kappa(S), with one minimizing subset.

    Subsets are scanned in lexicographic order; later subsets only need to
    be resolved below the best value seen so far, and those whose bounds
    already pack that value cost no search.
    """
    if not 2 <= k <= graph.order:
        raise ValueError(f"k must be in [2, {graph.order}], got {k}")
    counter = _Budget(budget)
    bits = GraphBits(graph)
    best: int | None = None
    argmin: tuple[int, ...] | None = None
    status = "exact"
    for combo in itertools.combinations(range(graph.order), k):
        value, _, exact = _climb(bits, combo, 1, best, counter)
        if not exact:
            status = "upper-bound"
            break
        if best is None or value < best:
            best, argmin = value, combo
        if best == 0:
            break
    subset = TerminalSet(argmin) if argmin is not None else None
    return KappaKResult(best, subset, status, counter.used)


def menger_pair(graph: Graph, u: int, v: int) -> int:
    """Maximum number of internally disjoint u-v paths, by maximum flow."""
    if u == v:
        raise ValueError("u and v must differ")
    for x in (u, v):
        if not 0 <= x < graph.order:
            raise ValueError(f"vertex {x} out of range")
    bits = GraphBits(graph)
    return _flow_at_least(
        bits, (1 << u) | (1 << v), bits.all_v, bits.all_e, u, v, None
    )


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------


def _minimal_trees_by_subsets(bits: GraphBits, smask: int) -> list[tuple[int, int]]:
    """Every minimal Steiner tree, found by trying each Steiner-vertex subset.

    For a vertex set W of non-terminals, the qualifying trees are exactly
    the spanning trees of the subgraph induced on S union W in which every
    W-vertex is internal.
    """
    nonterms = [v for v in range(bits.order) if not (1 << v) & smask]
    out: list[tuple[int, int]] = []
    for pick in range(1 << len(nonterms)):
        wmask = 0
        for i in range(len(nonterms)):
            if pick >> i & 1:
                wmask |= 1 << nonterms[i]
        vmask = smask | wmask
        verts = list(iter_bits(vmask))
        inner = [e for e in range(len(bits.edges)) if not bits.evmask[e] & ~vmask]
        target = len(verts) - 1
        if len(inner) < target:
            continue
        index = {v: i for i, v in enumerate(verts)}

        def rec(pos: int, count: int, comp: tuple[int, ...], chosen: int) -> None:
            if count == target:
                # spanning tree iff acyclic with |V|-1 edges; enforce W internal
                if len(set(comp)) != 1:
                    return
                ok = True
                work = wmask
                while work:
                    low = work & -work
                    work ^= low
                    if (bits.einc[low.bit_length() - 1] & chosen).bit_count() < 2:
                        ok = False
                        break
                if ok:
                    out.append((chosen, vmask))
                return
            if len(inner) - pos < target - count:
                return
            for nxt in range(pos, len(inner)):
                e = inner[nxt]
                a, b = (index[x] for x in bits.edges[e])
                if comp[a] == comp[b]:
                    continue
                merged = tuple(
                    comp[a] if c == comp[b] else c for c in comp
                )
                rec(nxt + 1, count + 1, merged, chosen | (1 << e))

        rec(0, 0, tuple(range(len(verts))), 0)
    return sorted(out, key=lambda tv: (tv[0].bit_count(), tuple(iter_bits(tv[0]))))


def _max_packing(cands: list[tuple[int, int]], smask: int) -> int:
    best = 0
    n = len(cands)

    def rec(start: int, count: int, used_e: int, used_v: int, used_int: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for j in range(start, n):
            if count + (n - j) <= best:
                return
            tree_e, tree_v = cands[j]
            internals = tree_v & ~smask
            if tree_e & used_e or internals & used_v or tree_v & used_int:
                continue
            rec(j + 1, count + 1, used_e | tree_e, used_v | tree_v, used_int | internals)

    rec(0, 0, 0, 0, 0)
    return best


def brute_force_kappa(graph: Graph, terminals) -> int:
    """kappa(S) by exhaustive enumeration; ground truth for small graphs."""
    if graph.order > 9:
        raise ValueError(f"order {graph.order} exceeds brute-force cap 9")
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    cands = _minimal_trees_by_subsets(bits, smask)
    return _max_packing(cands, smask)
