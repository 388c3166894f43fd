"""Exact computation of the tree connectivity kappa(S).

kappa(S) is the maximum size of a family of trees in G that each contain
the terminal set S, are pairwise edge-disjoint, and pairwise intersect in
exactly S (no shared non-terminal vertices).  For |S| = 2 this is the
classical count of internally disjoint paths, which `menger_pair` computes
by maximum flow outside the search and the tests cross-check.

The search packs inclusion-minimal Steiner trees one slot at a time.
Within a packing each tree owns at least one edge at every terminal, so
the trees are totally ordered by their lowest edge at a fixed anchor
terminal; each slot masks anchor edges at or below the previous tree's
minimum, which breaks permutation symmetry at no cost.  Admissible bounds
prune the search: per-terminal remaining degree, a global edge budget,
connectivity of S in what would remain, and a vertex-capacitated flow
bound (non-terminals capacity one, terminals uncapacitated) that is exact
for two terminals.  The flow is found by unit-capacity augmenting paths on
the vertex-split graph, held as edge bitmasks, so no network is built per
call.

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
    spans,
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


def _packable(
    bits: GraphBits,
    smask: int,
    terminals: tuple[int, ...],
    avail_v: int,
    avail_e: int,
    need: int,
) -> bool:
    """Admissible feasibility test: could `need` more trees fit in here?"""
    min_deg = None
    anchor = terminals[0]
    for s in terminals:
        deg = (bits.einc[s] & avail_e).bit_count()
        if deg < need:
            return False
        if min_deg is None or deg < min_deg:
            min_deg, anchor = deg, s
    if avail_e.bit_count() < need * (len(terminals) - 1):
        return False
    if not spans(bits, smask, avail_v, avail_e):
        return False
    if need >= 2:
        for t in terminals:
            if t == anchor:
                continue
            if _flow_at_least(bits, smask, avail_v, avail_e, anchor, t, need) < need:
                return False
    return True


def _incident_edges(bits: GraphBits, vmask: int) -> int:
    out = 0
    while vmask:
        low = vmask & -vmask
        vmask ^= low
        out |= bits.einc[low.bit_length() - 1]
    return out


def _search_packing(
    bits: GraphBits,
    smask: int,
    terminals: tuple[int, ...],
    anchor: int,
    block_v: int,
    avail_v: int,
    avail_e: int,
    need: int,
    min_anchor_edge: int,
    budget: _Budget,
) -> list[tuple[int, int]] | None:
    budget.tick()
    if need == 1:
        # the last slot is free of both the anchor-edge ordering and the
        # blocked vertex: it hosts whatever tree the reorderings deferred
        if not _packable(bits, smask, terminals, avail_v, avail_e, 1):
            return None
        tree = extract_steiner_tree(bits, smask, avail_v, avail_e, anchor)
        return None if tree is None else [tree]
    # feasibility accounting always runs on the true availability: the
    # ordering mask and the blocked vertex constrain this slot's tree, not
    # the trees of later slots
    if not _packable(bits, smask, terminals, avail_v, avail_e, need):
        return None
    mask_e = avail_e
    if min_anchor_edge >= 0:
        # anchor edges at or below the previous tree's minimum belong to
        # earlier slots of the canonical ordering and are dead from here on
        mask_e &= ~(bits.einc[anchor] & ((1 << (min_anchor_edge + 1)) - 1))

    remaining = need - 1
    steiner_floor = len(terminals) - 1
    einc = bits.einc

    def prune(tree_e: int, tree_v: int) -> bool:
        internals = tree_v & ~smask
        rem_e = avail_e & ~tree_e & ~_incident_edges(bits, internals)
        for s in terminals:
            if (einc[s] & rem_e).bit_count() < remaining:
                return True
        if rem_e.bit_count() < remaining * steiner_floor:
            return True
        return not spans(bits, smask, avail_v & ~internals, rem_e)

    # At most one tree of any packing contains the blocked vertex, and the
    # order-free last slot can always host that tree, so every slot before
    # it may skip trees through block_v without losing completeness.
    enum_v = avail_v
    enum_e = mask_e
    if block_v >= 0:
        enum_v &= ~(1 << block_v)
        enum_e &= ~einc[block_v]
    for tree_e, tree_v in iter_minimal_trees(
        bits, smask, enum_v, enum_e, anchor, budget.tick, prune
    ):
        internals = tree_v & ~smask
        next_v = avail_v & ~internals
        next_e = avail_e & ~tree_e & ~_incident_edges(bits, internals)
        anchor_edges = tree_e & einc[anchor]
        next_min = (anchor_edges & -anchor_edges).bit_length() - 1
        sub = _search_packing(
            bits, smask, terminals, anchor, block_v, next_v, next_e,
            need - 1, next_min, budget,
        )
        if sub is not None:
            return [(tree_e, tree_v)] + sub
    return None


def _prepare(graph: Graph, terminals) -> tuple[GraphBits, TerminalSet, int, int, int]:
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    anchor = min(terminals.members, key=lambda s: ((bits.einc[s]).bit_count(), s))
    block_v = _pick_block_vertex(bits, smask)
    return bits, terminals, smask, anchor, block_v


def _pick_block_vertex(bits: GraphBits, smask: int) -> int:
    """Non-terminal of maximum degree, or -1 when every vertex is a terminal."""
    best = -1
    best_deg = -1
    for v in range(bits.order):
        if (1 << v) & smask:
            continue
        deg = bits.einc[v].bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
    return best


def _to_certificate(bits: GraphBits, packing: list[tuple[int, int]]) -> TreeCertificate:
    return TreeCertificate(tuple(tree_from_masks(bits, te, tv) for te, tv in packing))


def decide_kappa_at_least(
    graph: Graph, terminals, k: int, budget: int | None = None
) -> DecideResult:
    """Find k internally disjoint trees connecting S, or prove none exist."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bits, terminals, smask, anchor, block_v = _prepare(graph, terminals)
    counter = _Budget(budget)
    try:
        packing = _search_packing(
            bits, smask, terminals.members, anchor, block_v,
            bits.all_v, bits.all_e, k, -1, counter,
        )
    except BudgetExhausted:
        return DecideResult("unknown", None, counter.used)
    if packing is None:
        return DecideResult("refuted", None, counter.used)
    return DecideResult("certificate", _to_certificate(bits, packing), counter.used)


def kappa_set_exact(graph: Graph, terminals, budget: int | None = None) -> SolveResult:
    """Compute kappa(S) with a witnessing certificate.

    Status "exact" means no larger packing exists; on budget exhaustion the
    best certificate found so far is returned with status "lower-bound".
    """
    bits, terminals, smask, anchor, block_v = _prepare(graph, terminals)
    counter = _Budget(budget)
    value = 0
    cert = TreeCertificate(())
    status = "exact"
    k = 1
    while True:
        try:
            packing = _search_packing(
                bits, smask, terminals.members, anchor, block_v,
                bits.all_v, bits.all_e, k, -1, counter,
            )
        except BudgetExhausted:
            status = "lower-bound"
            break
        if packing is None:
            break
        value = k
        cert = _to_certificate(bits, packing)
        k += 1
    return SolveResult(value, status, cert, counter.used)


def _kappa_below(
    bits: GraphBits,
    smask: int,
    terminals: tuple[int, ...],
    anchor: int,
    block_v: int,
    cap: int | None,
    counter: _Budget,
) -> tuple[int, bool]:
    """(value, exact); exact=False means kappa >= cap and the loop stopped."""
    value = 0
    k = 1
    while cap is None or k <= cap:
        packing = _search_packing(
            bits, smask, terminals, anchor, block_v, bits.all_v, bits.all_e, k, -1, counter
        )
        if packing is None:
            return value, True
        value = k
        k += 1
    return value, False


def kappa_k_graph(graph: Graph, k: int, budget: int | None = None) -> KappaKResult:
    """min over all k-subsets S of kappa(S), with one minimizing subset.

    Subsets are scanned in lexicographic order; later subsets only need to
    be resolved below the best value seen so far.
    """
    if not 2 <= k <= graph.order:
        raise ValueError(f"k must be in [2, {graph.order}], got {k}")
    counter = _Budget(budget)
    bits = GraphBits(graph)
    best: int | None = None
    argmin: tuple[int, ...] | None = None
    status = "exact"
    for combo in itertools.combinations(range(graph.order), k):
        smask = mask_of(combo)
        anchor = min(combo, key=lambda s: ((bits.einc[s]).bit_count(), s))
        block_v = _pick_block_vertex(bits, smask)
        try:
            value, exact = _kappa_below(bits, smask, combo, anchor, block_v, best, counter)
        except BudgetExhausted:
            status = "upper-bound"
            break
        if exact and (best is None or value < best):
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
                a, b = index[bits.eu[e]], index[bits.ev[e]]
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


def brute_force_kappa(graph: Graph, terminals, order_cap: int = 9) -> int:
    """kappa(S) by exhaustive enumeration; ground truth for small graphs."""
    if graph.order > order_cap:
        raise ValueError(f"order {graph.order} exceeds brute-force cap {order_cap}")
    terminals = TerminalSet.of(terminals)
    terminals.validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    cands = _minimal_trees_by_subsets(bits, smask)
    return _max_packing(cands, smask)
