"""Exact computation of the tree connectivity kappa(S).

kappa(S) is the maximum size of a family of trees in G that each contain
the terminal set S, are pairwise edge-disjoint, and pairwise intersect in
exactly S (no shared non-terminal vertices).  For |S| = 2 this is the
classical count of internally disjoint paths, which `menger_pair` computes
by maximum flow outside the search and the tests cross-check.

The three entry points ask one question: does G hold l internally
disjoint trees connecting S?  The problem is NP-hard, but exhaustive
search is needed only between two polynomial bounds, and one level search
owns both.  The upper bound U is the least of the terminal degrees,
|E| // (|S| - 1) and the flow bound below (exact for |S| = 2); `_climb`
applies the first two, the cheap terms, at the root and its `prune` on
each remainder, and `_bound` runs only the flows.  The lower bound L is
the largest greedy packing from a terminal, extracting one Steiner tree
after another, each inside S, else through one non-terminal, else
anywhere; the flows run only on the levels those packings leave open.
Levels above U are refuted and levels up to L packed without search.
What is left is searched at the cap first, then upwards from L + 1 to the
first refuted level.  `decide_kappa_at_least` asks for the single level
k, `kappa_set_exact` for every level from 1, and `kappa_k_graph` for each
k-subset's levels up to the best value found so far, after skipping each
later subset whose connectors already reach that value: internally
disjoint trees of at most two non-terminals each, read off the neighbour
masks by `_connectors`.  What the search reads of S alone is found once
per S, in `_Terminals`, for the subsets the connectors leave open.

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
edge bitmasks, so no network is built per call; every flow, `menger_pair`'s
too, augments from the route of the extractor's breadth-first search from
its source terminal, one search for every flow of a bound.  The Steiner
enumerator keeps its own stack, so tree length is not limited by the
interpreter's recursion limit.

What the packed trees leave to the others is one edge mask.  A tree
takes its own edges and every edge of its non-terminals, and terminals
never leave, so a vertex is still available exactly when it keeps an
available edge; no vertex mask is needed.

`brute_force_kappa` is an independent oracle: it enumerates candidate
trees by Steiner-vertex subsets and packs them by plain exhaustive search,
sharing no bound or enumeration code with the main solver.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .certificates import TreeCertificate, certificate_to_obj
from .graph import Graph, TerminalSet, _int_arg
from .steiner import (
    GraphBits,
    _bfs_parents,
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
        self.limit = None if limit is None else _int_arg(limit, "budget", 1)
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


class _Terminals:
    """What the level search reads of S alone, found once per terminal set:
    `roots` (S by degree, then id; `roots[0]` is the anchor), the edges at
    S (`at_s`) and inside it (`inner_e`), and the non-terminals next to S
    (`near`, from the neighbour masks `bits.nbrs`)."""

    __slots__ = ("members", "smask", "roots", "at_s", "inner_e", "near")

    def __init__(self, bits: GraphBits, members: tuple[int, ...]):
        einc, nbrs = bits.einc, bits.nbrs
        smask = at_s = inner_e = near = 0
        for s in members:
            smask |= 1 << s
            inner_e |= einc[s] & at_s  # an edge an earlier terminal has too
            at_s |= einc[s]
            near |= nbrs[s]
        self.members, self.smask, self.at_s, self.inner_e = members, smask, at_s, inner_e
        self.roots = sorted(members, key=lambda s: (einc[s].bit_count(), s))
        self.near = list(iter_bits(near & ~smask))


def _flow_at_least(
    bits: GraphBits,
    smask: int,
    avail_e: int,
    src: int,
    dst: int,
    target: int,
    up: dict[int, int],
) -> int:
    """Max number of src-dst routes that pairwise share only terminal
    vertices, or `target` (at least 1) once that many are found.

    Unit capacities on edges and on non-terminal vertices (vertex split),
    terminals unconstrained.  Each tree of a packing contributes one unit,
    so this upper-bounds the packing.  The flow starts as the src-dst route
    of `up`, parent edges from `steiner._bfs_parents` rooted at src; a
    maximum flow does not depend on the flow it starts from.

    The split network is never materialized.  Node 2v is v_in and 2v+1 is
    v_out; every edge of avail_e gives unit arcs u_out -> v_in and
    v_out -> u_in, and every vertex an arc v_in -> v_out (a vertex with no
    edge of avail_e is never reached, so it needs no mask).  Routes
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
    v = dst
    while v != src:
        low = up[v]
        w = (evmask[low.bit_length() - 1] ^ (1 << v)).bit_length() - 1
        out_e[w] |= low
        in_e[v] |= low
        v = w
    flow = 1
    while flow < target:
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
                if not vbit & seen_out and (vbit & smask or not in_e[v]):
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


def _bound(bits: GraphBits, ts: _Terminals, avail_e: int, cap: int, need: int) -> int:
    """min(cap, the flow bound) for the available subgraph, or any value
    below `need` once one is found: the fewest routes from the terminal of
    least available degree to any other, since each tree of a packing
    gives one.  One breadth-first search from that terminal gives every
    other its first route, and each flow augments from there; when it
    misses a terminal, S is split and the bound is 0.  Nothing is searched
    when `cap` is already below `need`.
    The cheap terms of U are the callers': `_climb` caps by them at the
    root, and `prune` checks them on every remainder this runs on."""
    if cap < need:
        return cap
    degrees = [(bits.einc[s] & avail_e).bit_count() for s in ts.members]
    src = ts.members[degrees.index(min(degrees))]
    up = _bfs_parents(bits, ts.smask, avail_e, src)
    if up is None:
        return 0
    for t in ts.members:
        if t != src and cap >= need:
            cap = _flow_at_least(bits, ts.smask, avail_e, src, t, cap, up)
    return cap


def _remainder(bits: GraphBits, smask: int, avail_e: int, tree_e: int, tree_v: int) -> int:
    """What a tree leaves to the others: the available edges without its
    edges and every edge of its non-terminals, which thereby leave too."""
    internals = tree_v & ~smask
    avail_e &= ~tree_e
    while internals:
        low = internals & -internals
        internals ^= low
        avail_e &= ~bits.einc[low.bit_length() - 1]
    return avail_e


def _connectors(bits: GraphBits, members: tuple[int, ...], need: int) -> list[tuple[int, int]]:
    """Internally disjoint trees on S with at most two non-terminals each,
    found from the neighbour masks without search, as (edge mask, vertex
    mask) pairs: their number is a lower bound on kappa(S).

    A tree's non-terminals are its own, so trees through disjoint sets of
    non-terminals compete only for the edges inside S.  The trees are a
    star through each non-terminal next to all of S; pairs of the other
    non-terminals that together reach all of S and are adjacent or share
    a terminal, matched greedily (`_match`); and, from the edges inside S,
    a tree inside S or an edge that completes a non-terminal next to all
    of S but one terminal.  When G[S] has at most three edges every way
    of spending them is tried (`_completions`), else they form one tree
    inside S if they connect it.  With none of these trees and `need` 1,
    one tree anywhere is taken.  The search stops once `need` trees are
    found, though every star is counted.  Like U it costs no expansion.
    """
    einc, nbrs, evmask = bits.einc, bits.nbrs, bits.evmask
    smask = at_s = inner_e = near = 0
    common = -1
    for s in members:
        smask |= 1 << s
        inner_e |= einc[s] & at_s  # an edge an earlier terminal has too
        at_s |= einc[s]
        near |= nbrs[s]
        common &= nbrs[s]
    common &= ~smask
    trees = [(einc[v] & at_s, smask | 1 << v) for v in iter_bits(common)]
    if len(trees) >= need:
        return trees
    size = len(members)
    if inner_e.bit_count() <= 3:
        # a tree inside S is |S| - 1 of its edges that reach all of S
        insides = []
        for pick in itertools.combinations(iter_bits(inner_e), size - 1):
            ends = tree_e = 0
            for e in pick:
                ends |= evmask[e]
                tree_e |= 1 << e
            if ends == smask:
                insides.append(tree_e)
    else:
        tree = extract_steiner_tree(bits, smask, inner_e, members[0])
        insides, inner_e = ([] if tree is None else [tree[0]]), 0
    # the other non-terminals next to S, each with the terminals it reaches
    reach = {v: nbrs[v] & smask for v in iter_bits(near & ~smask & ~common)}
    partners = dict.fromkeys(reach, 0)
    for v, w in itertools.combinations(reach, 2):
        if reach[v] | reach[w] == smask and (nbrs[v] >> w & 1 or reach[v] & reach[w]):
            partners[v] |= 1 << w
            partners[w] |= 1 << v
    # the terminal missed by each non-terminal next to all of S but one
    missed = {v: smask & ~r for v, r in reach.items() if r.bit_count() == size - 1 > 1}
    everyone = mask_of(reach)
    spendings = (
        (inside, done)
        for inside in insides + [0]
        for done in _completions(evmask, missed, inner_e & ~inside)
    )
    found: tuple = (0, 0, [], [])
    for inside, done in spendings:
        pool = everyone
        for v, _ in done:
            pool ^= 1 << v
        pairs = _match(partners, pool)
        count = bool(inside) + len(done) + len(pairs)
        if count > found[0]:
            found = (count, inside, done, pairs)
            if len(trees) + count >= need:
                break
    _, inside, done, pairs = found
    if inside:
        trees.append((inside, smask))
    for v, e in done:
        trees.append(((einc[v] & at_s) | e, smask | 1 << v))
    for v, w in pairs:
        # v takes its terminals, w the rest, joined to v by their edge or,
        # when they are not adjacent, through a terminal both reach
        link = einc[v] & einc[w]
        rest = smask & ~reach[v]
        if not link:
            shared = reach[v] & reach[w]
            rest |= shared & -shared
        spokes = 0
        for t in iter_bits(rest):
            spokes |= einc[t]
        trees.append(((einc[v] & at_s) | link | (einc[w] & spokes), smask | 1 << v | 1 << w))
    if not trees and need == 1:
        tree = extract_steiner_tree(bits, smask, bits.all_e, members[0])
        if tree is not None:
            trees.append(tree)
    return trees


def _match(partners: dict[int, int], pool: int) -> list[tuple[int, int]]:
    """Disjoint pairs of partners from `pool`, greedily: the non-terminal
    with the fewest partners left first (ties by id), with its lowest."""
    pairs = []
    while True:
        left = [((partners[v] & pool).bit_count(), v) for v in iter_bits(pool) if partners[v] & pool]
        if not left:
            return pairs
        v = min(left)[1]
        mates = partners[v] & pool
        w = (mates & -mates).bit_length() - 1
        pairs.append((v, w))
        pool &= ~(1 << v | 1 << w)


def _completions(
    evmask: list[int], missed: dict[int, int], spare: int, used: int = 0
) -> Iterator[list[tuple[int, int]]]:
    """Every way to give each edge of `spare` to at most one non-terminal
    whose missed terminal it reaches, each non-terminal at most once, as
    lists of (non-terminal, edge bit); fuller ways first."""
    if not spare:
        yield []
        return
    low = spare & -spare
    ends = evmask[low.bit_length() - 1]
    for v, t in missed.items():
        if t & ends and not used >> v & 1:
            for rest in _completions(evmask, missed, spare ^ low, used | 1 << v):
                yield [(v, low), *rest]
    yield from _completions(evmask, missed, spare ^ low, used)


def _greedy_packing(bits: GraphBits, ts: _Terminals, root: int, cap: int) -> list[tuple[int, int]]:
    """Up to `cap` trees, each from what the earlier ones left.

    A non-terminal takes every edge it has from the later trees, so each
    tree is the first that exists of: a tree on the available edges inside
    S; a tree on S plus one non-terminal, least available degree first
    (then lowest id); the breadth-first tree on all available edges.  All
    three are `extract_steiner_tree` on a narrower mask, skipped when the
    mask has too few edges for a tree.
    """
    einc = bits.einc
    smask, at_s, inner_e, near = ts.smask, ts.at_s, ts.inner_e, ts.near
    size = len(ts.members)
    packing = []
    avail_e = bits.all_e
    while len(packing) < cap:
        inner = inner_e & avail_e
        tree = None
        if inner.bit_count() >= size - 1:
            tree = extract_steiner_tree(bits, smask, inner, root)
        if tree is None:
            # the non-terminals with enough spokes, as (available degree, id, spokes)
            hubs = []
            for v in near:
                spokes = einc[v] & at_s & avail_e
                if spokes.bit_count() >= 2 and (inner | spokes).bit_count() >= size:
                    hubs.append(((einc[v] & avail_e).bit_count(), v, spokes))
            hubs.sort()
            for _, _, spokes in hubs:
                tree = extract_steiner_tree(bits, smask, inner | spokes, root)
                if tree is not None:
                    break
        if tree is None:
            tree = extract_steiner_tree(bits, smask, avail_e, root)
            if tree is None:
                break
        packing.append(tree)
        avail_e = _remainder(bits, smask, avail_e, *tree)
    return packing


def _climb(
    bits: GraphBits,
    ts: _Terminals,
    lo: int,
    hi: int | None,
    counter: _Budget,
) -> tuple[int, list[tuple[int, int]] | None, bool]:
    """min(hi, kappa(S)), searching only the levels no bound settles.

    The cheap terms of U and hi cap the levels.  Below the cap a greedy
    packing runs from each terminal, least degree first; one that fills
    the cap answers, else the largest, of L trees, is the lower bound.
    Only then do the flows of `_bound` lower the cap to U.  The cap is
    searched first, then the levels above max(lo - 1, L) upwards until one
    is refuted.  Returns (value, packing, exact): value is the highest
    level packed, or lo - 1 when no level from lo up can be packed;
    packing is None when value was not packed.  exact is False when the
    budget ran out, and value is then a lower bound.  The bounds and the
    greedy packings are not charged to the budget.
    """
    smask, terminals = ts.smask, ts.members
    einc = bits.einc
    anchor = ts.roots[0]
    cap = min(einc[anchor].bit_count(), len(bits.edges) // (len(terminals) - 1))
    if hi is not None:
        cap = min(cap, hi)
    value, packing = lo - 1, None
    if lo < cap:
        for root in ts.roots:
            greedy = _greedy_packing(bits, ts, root, cap)
            if len(greedy) == cap:
                return cap, greedy, True
            if len(greedy) > value:
                value, packing = len(greedy), greedy
    cap = _bound(bits, ts, bits.all_e, cap, value + 1)
    if cap <= value:
        return value, packing, True
    # At most one tree of any packing contains the blocked vertex, a
    # non-terminal of maximum degree, and the order-free last slot can
    # always host that tree, so every slot before it may skip trees
    # through the blocked vertex without losing completeness.
    block = max(
        (v for v in range(bits.order) if not smask >> v & 1),
        key=lambda v: einc[v].bit_count(),
        default=None,
    )
    block_e = 0 if block is None else einc[block]
    edges_per_tree = len(terminals) - 1
    # edges of the last Steiner tree that showed S connected in a prune's
    # remainder; a remainder that keeps them all still connects S
    wit_e = -1

    def search(avail_e: int, need: int, min_anchor_edge: int) -> list[tuple[int, int]] | None:
        """Pack `need` more trees, or None.  The caller has checked the
        bounds for this node: `_climb` at the root, the parent for every
        child."""
        counter.tick()
        if need == 1:
            # the last slot is free of both the anchor-edge ordering and the
            # blocked vertex: it hosts whatever tree the reorderings deferred
            tree = extract_steiner_tree(bits, smask, avail_e, anchor)
            return None if tree is None else [tree]
        remaining = need - 1

        def prune(tree_e: int, tree_v: int) -> bool:
            """The cheap terms of U on what the tree would leave:
            `remaining` free edges at every terminal and in all, S connected."""
            nonlocal wit_e
            rem_e = _remainder(bits, smask, avail_e, tree_e, tree_v)
            for s in terminals:
                if (einc[s] & rem_e).bit_count() < remaining:
                    return True
            if rem_e.bit_count() < remaining * edges_per_tree:
                return True
            if wit_e & ~rem_e:
                witness = extract_steiner_tree(bits, smask, rem_e, anchor)
                if witness is None:
                    return True
                wit_e = witness[0]
            return False

        # anchor edges at or below the previous tree's minimum belong to
        # earlier slots of the canonical ordering and are dead from here on
        dead_e = einc[anchor] & ((1 << (min_anchor_edge + 1)) - 1)
        for tree_e, tree_v in iter_minimal_trees(
            bits, smask, avail_e & ~dead_e & ~block_e, anchor, counter.tick, prune
        ):
            next_e = _remainder(bits, smask, avail_e, tree_e, tree_v)
            # prune has checked the cheap terms on exactly this remainder, so
            # only the flow can close it; the bound runs on the true
            # availability, since the ordering mask and the blocked vertex
            # constrain this slot's tree, not later ones
            if remaining >= 2 and _bound(bits, ts, next_e, remaining, remaining) < remaining:
                continue
            anchor_edges = tree_e & einc[anchor]
            sub = search(next_e, remaining, (anchor_edges & -anchor_edges).bit_length() - 1)
            if sub is not None:
                return [(tree_e, tree_v)] + sub
        return None

    try:
        found = search(bits.all_e, cap, -1)
        if found is not None:
            return cap, found, True
        for k in range(value + 1, cap):
            found = search(bits.all_e, k, -1)
            if found is None:
                break
            value, packing = k, found
    except BudgetExhausted:
        return value, packing, False
    finally:
        # `search` reaches itself through its closure cell; emptying the cell
        # lets reference counting free it with all it holds, no cyclic
        # collection needed
        del search
    return value, packing, True


def _to_certificate(bits: GraphBits, packing: list[tuple[int, int]]) -> TreeCertificate:
    return TreeCertificate(tuple([tree_from_masks(bits, te, tv) for te, tv in packing]))


def decide_kappa_at_least(
    graph: Graph, terminals, k: int, budget: int | None = None
) -> DecideResult:
    """Find k internally disjoint trees connecting S, or prove none exist."""
    _int_arg(k, "k", 1)
    terminals = TerminalSet.of(terminals).validate_in(graph)
    bits = GraphBits(graph)
    counter = _Budget(budget)
    value, packing, exact = _climb(bits, _Terminals(bits, terminals.members), k, k, counter)
    if value == k:
        return DecideResult("certificate", _to_certificate(bits, packing), counter.used)
    return DecideResult("refuted" if exact else "unknown", None, counter.used)


def kappa_set_exact(graph: Graph, terminals, budget: int | None = None) -> SolveResult:
    """Compute kappa(S) with a witnessing certificate.

    Status "exact" means no larger packing exists; on budget exhaustion the
    best certificate found so far is returned with status "lower-bound".
    """
    terminals = TerminalSet.of(terminals).validate_in(graph)
    bits = GraphBits(graph)
    counter = _Budget(budget)
    value, packing, exact = _climb(bits, _Terminals(bits, terminals.members), 1, None, counter)
    status = "exact" if exact else "lower-bound"
    return SolveResult(value, status, _to_certificate(bits, packing or []), counter.used)


def kappa_k_graph(graph: Graph, k: int, budget: int | None = None) -> KappaKResult:
    """min over all k-subsets S of kappa(S), with one minimizing subset.

    Subsets are scanned in lexicographic order; later subsets only need to
    be resolved below the best value seen so far.  A later subset is
    skipped when `_connectors` finds that many trees on it; like the
    bounds, the screen is not charged to the budget, so such a subset
    costs no expansion.  The others go to `_climb` with that value as
    `hi`, where a greedy packing that reaches it also settles the subset
    for free.
    """
    _int_arg(k, "k", 2, graph.order)
    counter = _Budget(budget)
    bits = GraphBits(graph)
    best: int | None = None
    argmin: tuple[int, ...] | None = None
    status = "exact"
    for combo in itertools.combinations(range(graph.order), k):
        # `best` connectors show kappa(S) >= best, so S cannot lower the
        # minimum
        if best is not None and len(_connectors(bits, combo, best)) >= best:
            continue
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


def menger_pair(graph: Graph, u: int, v: int) -> int:
    """Maximum number of internally disjoint u-v paths: 0 if v is not
    reached, else the flow up to the edge count, which no flow exceeds."""
    TerminalSet((u, v)).validate_in(graph)
    bits = GraphBits(graph)
    smask = (1 << u) | (1 << v)
    up = _bfs_parents(bits, smask, bits.all_e, u)
    if up is None:
        return 0
    return _flow_at_least(bits, smask, bits.all_e, u, v, len(bits.edges), up)


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
    terminals = TerminalSet.of(terminals).validate_in(graph)
    bits = GraphBits(graph)
    smask = mask_of(terminals.members)
    cands = _minimal_trees_by_subsets(bits, smask)
    return _max_packing(cands, smask)
