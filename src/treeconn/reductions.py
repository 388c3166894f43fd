"""Gadget constructions turning 3-dimensional matching and 3-SAT instances
into tree connectivity decision instances, plus witness converters in both
directions and brute-force oracles for the source problems.

Every construction assigns vertex ids in a fixed documented order (hub and
apex vertices first, then the remaining blocks), so equal inputs produce
byte-identical instances.  `roles[v]` records what vertex v encodes; role
indices are 0-based, matching the stored instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .certificates import Tree, TreeCertificate, verify_certificate
from .graph import (
    Graph,
    GraphFormatError,
    TerminalSet,
    _decimal,
    _int_arg,
    _is_int,
    _iterable,
    _unchecked,
    graph_from_obj,
    graph_to_obj,
    load_json,
)


# ---------------------------------------------------------------------------
# Source-problem instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeDMInstance:
    """Ground sets U, V, W of size n and an ordered list of distinct triples.

    Indices are 0-based.  At least n triples are required: the reduction
    needs one slack vertex per unmatched triple, and with fewer than n
    triples no perfect matching can exist anyway.
    """

    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        _int_arg(self.n, "ground set size", 1)
        triples = tuple(
            _iterable(t, f"triple {pos}") for pos, t in enumerate(_iterable(self.triples, "triples"))
        )
        for pos, t in enumerate(triples):
            if len(t) != 3:
                raise ValueError(f"triple {pos}: expected 3 coordinates, got {t!r}")
            for x in t:
                if not _is_int(x) or not 0 <= x < self.n:
                    raise ValueError(f"triple {pos}: index {x!r} out of range [0,{self.n})")
        if len(set(triples)) != len(triples):
            raise ValueError("triples must be pairwise distinct")
        if len(triples) < self.n:
            raise ValueError(
                f"need at least n={self.n} triples for the construction, got {len(triples)}"
            )
        object.__setattr__(self, "triples", triples)

    @property
    def m(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class Matching:
    chosen: frozenset[int]

    def __post_init__(self) -> None:
        chosen = _iterable(self.chosen, "chosen")
        for i in chosen:
            _int_arg(i, "triple index")
        object.__setattr__(self, "chosen", frozenset(chosen))


def matching_is_perfect(inst: ThreeDMInstance, matching: Matching) -> bool:
    if len(matching.chosen) != inst.n or not all(0 <= i < inst.m for i in matching.chosen):
        return False
    for axis in range(3):
        seen = {inst.triples[i][axis] for i in matching.chosen}
        if len(seen) != inst.n:
            return False
    return True


@dataclass(frozen=True)
class CnfFormula:
    """CNF with at most three literals per clause.

    Literals are DIMACS-style signed integers: +v / -v for variable v,
    1-based; num_vars bounds the variable indices.  A clause may not
    mention one variable twice, neither repeated nor complemented.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _int_arg(self.num_vars, "num_vars", 0)
        clauses = tuple(
            _iterable(c, f"clause {pos}") for pos, c in enumerate(_iterable(self.clauses, "clauses"))
        )
        for pos, clause in enumerate(clauses):
            if len(clause) > 3:
                raise ValueError(f"clause {pos}: more than 3 literals")
            seen_vars = set()
            for lit in clause:
                if not _is_int(lit):
                    _int_arg(lit, f"clause {pos}: literal")
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {pos}: literal {lit} out of range")
                if abs(lit) in seen_vars:
                    raise ValueError(
                        f"clause {pos}: variable {abs(lit)} appears twice"
                    )
                seen_vars.add(abs(lit))
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    """Truth value per variable; values[i] is the value of variable i+1."""

    values: tuple[bool, ...]

    def __post_init__(self) -> None:
        values = _iterable(self.values, "values")
        for pos, value in enumerate(values):
            if not isinstance(value, bool):
                raise ValueError(f"value {pos}: expected a bool, got {value!r}")
        object.__setattr__(self, "values", values)


def assignment_satisfies(phi: CnfFormula, assignment: Assignment) -> bool:
    if len(assignment.values) != phi.num_vars:
        return False
    for clause in phi.clauses:
        if not any(
            assignment.values[abs(lit) - 1] == (lit > 0) for lit in clause
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Reduced instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedInstance:
    graph: Graph
    terminals: TerminalSet
    threshold: int
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        _int_arg(self.threshold, "threshold", 1)
        terminals = TerminalSet.of(self.terminals).validate_in(self.graph)
        object.__setattr__(self, "terminals", terminals)
        roles = _iterable(self.roles, "roles")
        if not all(isinstance(role, str) for role in roles):
            raise ValueError("roles must map vertex ids to strings")
        if len(roles) != self.graph.order:
            raise ValueError("roles must cover every vertex exactly once")
        object.__setattr__(self, "roles", roles)


def reduced_to_obj(inst: ReducedInstance) -> dict:
    return {
        "graph": graph_to_obj(inst.graph),
        "terminals": list(inst.terminals.members),
        "threshold": inst.threshold,
        "roles": {str(v): role for v, role in enumerate(inst.roles)},
    }


def serialize_reduced(inst: ReducedInstance) -> str:
    return json.dumps(reduced_to_obj(inst), sort_keys=True, separators=(",", ":"))


def reduced_from_obj(obj: object) -> ReducedInstance:
    if not isinstance(obj, dict):
        raise GraphFormatError("reduced instance must be a JSON object")
    missing = {"graph", "terminals", "threshold", "roles"} - set(obj)
    if missing:
        raise GraphFormatError(f"reduced instance missing fields: {sorted(missing)}")
    graph = graph_from_obj(obj["graph"])
    terminals, threshold, roles = obj["terminals"], obj["threshold"], obj["roles"]
    if not isinstance(terminals, list):
        raise GraphFormatError("'terminals' must be a list")
    if not isinstance(roles, dict):
        raise GraphFormatError("'roles' must map vertex ids to strings")
    try:
        by_id = {}
        for key, role in roles.items():
            v = _decimal(key)
            if v in by_id:
                raise ValueError(f"vertex {v} has two roles")
            by_id[v] = role
        ids = sorted(by_id)
        # the constructor names faults in field order, so the ids come last
        inst = ReducedInstance(graph, terminals, threshold, [by_id[v] for v in ids])
        if ids != list(range(graph.order)):
            raise ValueError("roles must cover every vertex exactly once")
        return inst
    except ValueError as exc:
        raise GraphFormatError(f"invalid reduced instance: {exc}") from exc


def parse_reduced(text: str) -> ReducedInstance:
    return reduced_from_obj(load_json(text))


def _tree(edges: list[tuple[int, int]]) -> Tree:
    """The tree with these edges, on exactly their endpoints."""
    return Tree({v for edge in edges for v in edge}, edges)


def _gadget(source, edges, names, members, threshold) -> ReducedInstance:
    """The reduction of `source`, built unchecked from the fields that
    `reduce_3sat` or `reduce_3dm` wrote (`names[v]` is vertex v's role and
    label), and kept on `source` outside its fields (equality, hashing and
    the writers do not see it)."""
    edges.sort()
    roles, labels = zip(*names)
    # each edge is written once as (min, max) below the order, and each vertex named once
    graph = _unchecked(Graph, order=len(names), edges=tuple(edges), labels=labels)
    # the members ascend, at least two, each below the order
    terminals = _unchecked(TerminalSet, members=members)
    # threshold >= 1, and each role is a string
    reduced = _unchecked(ReducedInstance, graph=graph, terminals=terminals,
                         threshold=threshold, roles=roles)
    object.__setattr__(source, "_reduced", reduced)
    return reduced


def _reduction(source, reduce) -> ReducedInstance:
    """The reduction kept on `source`, else `reduce(source)`."""
    return vars(source).get("_reduced") or reduce(source)


def _check_certificate(reduced: ReducedInstance, cert: TreeCertificate) -> None:
    """Raise ValueError unless `cert` is a valid packing of `reduced.threshold` trees."""
    if len(cert.trees) != reduced.threshold:
        raise ValueError(f"certificate has {len(cert.trees)} trees, expected {reduced.threshold}")
    report = verify_certificate(reduced.graph, reduced.terminals, cert)
    if not report.valid:
        raise ValueError(f"invalid certificate: {report.violations[0]}")


# ---------------------------------------------------------------------------
# 3-dimensional matching reduction
# ---------------------------------------------------------------------------


def _3dm_ids(inst: ThreeDMInstance):
    n, m = inst.n, inst.m
    hub_u, hub_v, hub_w, hub_t = 0, 1, 2, 3
    u0, v0, w0 = 4, 4 + n, 4 + 2 * n
    t0 = 4 + 3 * n
    a0 = 4 + 3 * n + m
    return hub_u, hub_v, hub_w, hub_t, u0, v0, w0, t0, a0


def reduce_3dm(inst: ThreeDMInstance) -> ReducedInstance:
    """Hub-and-slack gadget: a perfect matching exists iff the four hubs
    admit m internally disjoint trees.  The result is kept on `inst`, for
    `trees_to_matching`.

    Vertex order: hubs for U, V, W and the triple side, then the element
    blocks u_i, v_i, w_i, then one vertex per triple, then m-n slack
    vertices.  Each element hangs off its hub; every triple vertex sees
    its three elements, the triple hub, and every slack vertex; slack
    vertices see the three element hubs.  Threshold is m.
    """
    n, m = inst.n, inst.m
    hub_u, hub_v, hub_w, hub_t, u0, v0, w0, t0, a0 = _3dm_ids(inst)
    order = 4 + 3 * n + m + (m - n)
    edges: list[tuple[int, int]] = []
    names: list[tuple[str, str] | None] = [None] * order
    names[hub_u] = ("hub-u", "hub_u")
    names[hub_v] = ("hub-v", "hub_v")
    names[hub_w] = ("hub-w", "hub_w")
    names[hub_t] = ("hub-t", "hub_t")
    for i in range(n):
        edges.append((hub_u, u0 + i))
        edges.append((hub_v, v0 + i))
        edges.append((hub_w, w0 + i))
        names[u0 + i] = (f"element-u({i})", f"u{i}")
        names[v0 + i] = (f"element-v({i})", f"v{i}")
        names[w0 + i] = (f"element-w({i})", f"w{i}")
    for i in range(m):
        edges.append((hub_t, t0 + i))
        names[t0 + i] = (f"triple({i})", f"t{i}")
    for j in range(m - n):
        edges.append((hub_u, a0 + j))
        edges.append((hub_v, a0 + j))
        edges.append((hub_w, a0 + j))
        names[a0 + j] = (f"slack({j})", f"a{j}")
    for i in range(m):
        for j in range(m - n):
            edges.append((t0 + i, a0 + j))
    for i, (ui, vi, wi) in enumerate(inst.triples):
        edges.append((u0 + ui, t0 + i))
        edges.append((v0 + vi, t0 + i))
        edges.append((w0 + wi, t0 + i))
    return _gadget(inst, edges, names, (hub_u, hub_v, hub_w, hub_t), m)


def matching_to_trees(inst: ThreeDMInstance, matching: Matching) -> TreeCertificate:
    """Turn a perfect matching into an m-tree certificate for reduce_3dm.

    Matched triple i yields the 8-vertex tree through its elements;
    unmatched triples, in increasing index order, each take the next slack
    vertex.
    """
    if not matching_is_perfect(inst, matching):
        raise ValueError("matching is not a valid perfect matching of the instance")
    hub_u, hub_v, hub_w, hub_t, u0, v0, w0, t0, a0 = _3dm_ids(inst)
    trees: list[Tree] = []
    slack = 0
    for i in range(inst.m):
        ti = t0 + i
        if i in matching.chosen:
            ui, vi, wi = inst.triples[i]
            uu, vv, ww = u0 + ui, v0 + vi, w0 + wi
            edges = [(hub_u, uu), (hub_v, vv), (hub_w, ww), (hub_t, ti),
                     (ti, uu), (ti, vv), (ti, ww)]
        else:
            aj = a0 + slack
            slack += 1
            edges = [(hub_t, ti), (ti, aj), (hub_u, aj), (hub_v, aj), (hub_w, aj)]
        trees.append(_tree(edges))
    return TreeCertificate(tuple(trees))


def trees_to_matching(inst: ThreeDMInstance, cert: TreeCertificate) -> Matching:
    """Read a perfect matching back out of a valid m-tree certificate.

    The n trees that avoid every slack vertex each contain exactly one
    triple vertex; those triples form the matching.  The certificate is
    verified in full against the reduction `reduce_3dm` kept on `inst`,
    built here if `inst` was never reduced.
    """
    _check_certificate(_reduction(inst, reduce_3dm), cert)
    _, _, _, _, _, _, _, t0, a0 = _3dm_ids(inst)
    t_range = range(t0, t0 + inst.m)
    a_range = range(a0, a0 + inst.m - inst.n)
    chosen: set[int] = set()
    for tree in cert.trees:
        vset = tree.vertex_set
        if any(a in vset for a in a_range):
            continue
        triple_vertices = [v for v in t_range if v in vset]
        if len(triple_vertices) != 1:
            raise ValueError("certificate tree does not decode to a single triple")
        chosen.add(triple_vertices[0] - t0)
    matching = Matching(frozenset(chosen))
    if not matching_is_perfect(inst, matching):
        raise ValueError("certificate does not encode a perfect matching")
    return matching


def solve_3dm_brute(inst: ThreeDMInstance) -> Matching | None:
    """Exhaustive search over n-subsets of triples; oracle for small instances."""
    if inst.n > 6 or inst.m > 20:
        raise ValueError(f"instance size (n={inst.n}, m={inst.m}) exceeds caps (6, 20)")
    for combo in itertools.combinations(range(inst.m), inst.n):
        matching = Matching(frozenset(combo))
        if matching_is_perfect(inst, matching):
            return matching
    return None


def threedm_to_obj(inst: ThreeDMInstance) -> dict:
    return {"n": inst.n, "triples": [list(t) for t in inst.triples]}


def serialize_3dm(inst: ThreeDMInstance) -> str:
    return json.dumps(threedm_to_obj(inst), sort_keys=True, separators=(",", ":"))


def parse_3dm(text: str) -> ThreeDMInstance:
    obj = load_json(text)
    if not isinstance(obj, dict) or "n" not in obj or "triples" not in obj:
        raise GraphFormatError("3-DM instance needs fields 'n' and 'triples'")
    try:
        return ThreeDMInstance(obj["n"], obj["triples"])
    except ValueError as exc:
        raise GraphFormatError(f"invalid 3-DM instance: {exc}") from exc


# ---------------------------------------------------------------------------
# 3-SAT reduction
# ---------------------------------------------------------------------------


def _3sat_ids(phi: CnfFormula):
    n = phi.num_vars
    if n < 2:
        raise ValueError("construction needs at least 2 variables")
    apex = 0
    hat0 = 1
    pos0 = 1 + n
    neg0 = 1 + 2 * n
    c0 = 1 + 3 * n
    return apex, hat0, pos0, neg0, c0


def reduce_3sat(phi: CnfFormula, require_three: bool = False) -> ReducedInstance:
    """Variable-pair gadget: the formula is satisfiable iff the terminals
    admit two internally disjoint trees.

    Vertex order: apex, then per-variable selector vertices, then positive
    literal vertices, then negative ones, then one vertex per clause.
    Each selector sees exactly its two literal vertices; clause vertices
    see their literals; both literal vertices of variable 1 see every
    other literal vertex; the apex sees all literal and clause vertices.
    Terminals are the selectors plus the clause vertices; threshold is 2.

    Clauses of fewer than three literals are accepted unless
    `require_three` is set; the construction never uses the arity.  The
    result is kept on `phi`, for `trees_to_assignment`.
    """
    n, m = phi.num_vars, phi.num_clauses
    apex, hat0, pos0, neg0, c0 = _3sat_ids(phi)
    if require_three and any(len(c) != 3 for c in phi.clauses):
        raise ValueError("a clause does not have exactly 3 literals")
    order = 3 * n + m + 1
    edges: list[tuple[int, int]] = []
    names: list[tuple[str, str] | None] = [None] * order
    names[apex] = ("apex", "a")
    for i in range(n):
        edges.append((hat0 + i, pos0 + i))
        edges.append((hat0 + i, neg0 + i))
        names[hat0 + i] = (f"var-hat({i})", f"hx{i}")
        names[pos0 + i] = (f"var-pos({i})", f"x{i}")
        names[neg0 + i] = (f"var-neg({i})", f"nx{i}")
    for j, clause in enumerate(phi.clauses):
        names[c0 + j] = (f"clause({j})", f"c{j}")
        for lit in clause:
            var = abs(lit) - 1
            edges.append(((pos0 if lit > 0 else neg0) + var, c0 + j))
    for i in range(1, n):
        edges.append((pos0, pos0 + i))
        edges.append((pos0, neg0 + i))
        edges.append((pos0 + i, neg0))
        edges.append((neg0, neg0 + i))
    for i in range(n):
        edges.append((apex, pos0 + i))
        edges.append((apex, neg0 + i))
    for j in range(m):
        edges.append((apex, c0 + j))
    members = tuple(range(hat0, hat0 + n)) + tuple(range(c0, c0 + m))
    return _gadget(phi, edges, names, members, 2)


def assignment_to_trees(phi: CnfFormula, assignment: Assignment) -> TreeCertificate:
    """Turn a satisfying assignment into the canonical 2-tree certificate.

    The first tree picks, per variable, the literal vertex agreeing with
    the assignment, spines them through variable 1, and attaches every
    clause to its lowest-indexed true literal.  The second tree stars the
    apex over all clauses and the complementary literal vertices.
    """
    apex, hat0, pos0, neg0, c0 = _3sat_ids(phi)
    if not assignment_satisfies(phi, assignment):
        raise ValueError("assignment does not satisfy the formula")
    n = phi.num_vars

    def agree(i: int) -> int:
        return (pos0 if assignment.values[i] else neg0) + i

    def disagree(i: int) -> int:
        return (neg0 if assignment.values[i] else pos0) + i

    t1_edges: list[tuple[int, int]] = []
    for j, clause in enumerate(phi.clauses):
        var = min(abs(lit) - 1 for lit in clause if assignment.values[abs(lit) - 1] == (lit > 0))
        t1_edges.append((agree(var), c0 + j))
    for i in range(1, n):
        t1_edges.append((agree(0), agree(i)))
    for i in range(n):
        t1_edges.append((hat0 + i, agree(i)))

    t2_edges: list[tuple[int, int]] = [(apex, c0 + j) for j in range(phi.num_clauses)]
    for i in range(n):
        t2_edges.append((apex, disagree(i)))
        t2_edges.append((hat0 + i, disagree(i)))
    return TreeCertificate((_tree(t1_edges), _tree(t2_edges)))


def trees_to_assignment(phi: CnfFormula, cert: TreeCertificate) -> Assignment:
    """Read a satisfying assignment out of a valid 2-tree certificate.

    At most one tree contains the apex; in a tree avoiding it, every
    variable selector keeps exactly one of its two literal vertices, and
    those memberships are the assignment.  The certificate is verified in
    full against the reduction `reduce_3sat` kept on `phi`, built here if
    `phi` was never reduced.
    """
    _check_certificate(_reduction(phi, reduce_3sat), cert)
    apex, hat0, pos0, neg0, c0 = _3sat_ids(phi)
    tree = next((t for t in cert.trees if apex not in t.vertex_set), None)
    if tree is None:
        raise ValueError("both trees contain the apex; certificate cannot be valid")
    values = []
    vset = tree.vertex_set
    for i in range(phi.num_vars):
        has_pos = pos0 + i in vset
        has_neg = neg0 + i in vset
        if has_pos == has_neg:
            raise ValueError(f"tree does not select one literal for variable {i + 1}")
        values.append(has_pos)
    assignment = Assignment(tuple(values))
    if not assignment_satisfies(phi, assignment):
        raise ValueError("decoded assignment does not satisfy the formula")
    return assignment


def solve_sat_brute(phi: CnfFormula) -> Assignment | None:
    """Backtracking satisfiability witness search; False is tried before True."""
    if phi.num_vars > 20:
        raise ValueError(f"num_vars {phi.num_vars} exceeds cap 20")
    clauses = [list(c) for c in phi.clauses]
    values: list[bool] = []

    def clause_state(clause: list[int]) -> str:
        undecided = False
        for lit in clause:
            var = abs(lit) - 1
            if var >= len(values):
                undecided = True
            elif values[var] == (lit > 0):
                return "sat"
        return "open" if undecided else "false"

    def rec() -> bool:
        states = [clause_state(c) for c in clauses]
        if any(s == "false" for s in states):
            return False
        if len(values) == phi.num_vars:
            return all(s == "sat" for s in states)
        for choice in (False, True):
            values.append(choice)
            if rec():
                return True
            values.pop()
        return False

    if rec():
        return Assignment(tuple(values))
    return None


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'p cnf <vars> <clauses>', 0-terminated clauses.

    A line that starts with '%' ends the formula, as in the SATLIB
    benchmark files, which close with a '%' line and a '0' line.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise GraphFormatError(f"line {lineno}: repeated header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = _decimal(parts[2]), _decimal(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
            continue
        if num_vars is None:
            raise GraphFormatError(f"line {lineno}: clause before header")
        for token in line.split():
            try:
                lit = _decimal(token, signed=True)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad literal {token!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise GraphFormatError("missing 'p cnf' header")
    if current:
        raise GraphFormatError("last clause is not 0-terminated")
    if len(clauses) != num_clauses:
        raise GraphFormatError(
            f"header promises {num_clauses} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except ValueError as exc:
        raise GraphFormatError(f"invalid formula: {exc}") from exc


def write_dimacs(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {phi.num_clauses}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Terminal lifting and tree-count padding
# ---------------------------------------------------------------------------


def _grown(
    graph: Graph, new_roles: list[str], new_edges: list, terminals: TerminalSet, k: int
) -> ReducedInstance:
    """`graph` plus a vertex per entry of `new_roles`, in order from id
    graph.order, and `new_edges`, with threshold `k`.  Each original vertex
    keeps its edges and label and gets the role original(v)."""
    roles = [f"original({v})" for v in range(graph.order)] + new_roles
    labels = None if graph.labels is None else graph.labels + (None,) * len(new_roles)
    grown = Graph(graph.order + len(new_roles), graph.edges + tuple(new_edges), labels)
    return ReducedInstance(grown, terminals, k, roles)


def lift_terminals(
    graph: Graph, terminals, k1: int, k2: int
) -> ReducedInstance:
    """Grow the terminal set to k1 without changing whether k2 trees exist.

    Each new hub terminal is tied to the least original terminal by k2
    length-two paths through fresh midpoints, so any packing of k2 trees
    extends across the hubs and conversely restricts back.
    """
    terminals = TerminalSet.of(terminals).validate_in(graph)
    _int_arg(k1, "k1", len(terminals) + 1)
    _int_arg(k2, "k2", 1)
    hubs = k1 - len(terminals)
    anchor = terminals.members[0]
    hub0 = graph.order
    mid0 = graph.order + hubs
    roles = [f"lift-hub({i})" for i in range(hubs)]
    edges: list[tuple[int, int]] = []
    for i in range(hubs):
        for j in range(k2):
            mid = mid0 + i * k2 + j
            roles.append(f"lift-mid({i},{j})")
            edges.append((hub0 + i, mid))
            edges.append((mid, anchor))
    new_terms = TerminalSet(terminals.members + tuple(range(hub0, hub0 + hubs)))
    return _grown(graph, roles, edges, new_terms, k2)


def pad_tree_count(graph: Graph, terminals, k: int) -> ReducedInstance:
    """Raise the decision threshold from 2 to k by adding k-2 universal pads.

    Each pad vertex is joined to every terminal, so it carries one extra
    star tree; with only k-2 pads, any k-packing keeps two pad-free trees,
    which are trees of the original graph.
    """
    terminals = TerminalSet.of(terminals).validate_in(graph)
    _int_arg(k, "k", 3)
    roles = [f"pad({i})" for i in range(k - 2)]
    edges = [(graph.order + i, s) for i in range(k - 2) for s in terminals.members]
    return _grown(graph, roles, edges, terminals, k)
