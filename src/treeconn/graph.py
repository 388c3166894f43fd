"""Immutable simple undirected graphs with dense integer vertex ids.

Vertex ids run 0..order-1.  Edges are normalized to (min, max) pairs and
stored sorted lexicographically, so equal graphs serialize to identical
bytes.  Graphs and terminal sets never mutate after construction and are
safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphFormatError(ValueError):
    """A serialized graph or instance payload is malformed."""


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_arg(value: object, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value`, if it is an int (not a bool) in bounds; else a ValueError
    `{name} must be an int{bound}, got {value!r}`, where `bound` is empty,
    ` >= {low}` or ` in [{low}, {high}]`."""
    if _is_int(value) and (low is None or low <= value) and (high is None or value <= high):
        return value
    bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    raise ValueError(f"{name} must be an int{bound}, got {value!r}")


def _decimal(token: str, signed: bool = False) -> int:
    """int(token), but of ASCII digits only (after one '-' if `signed`)."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _iterable(items: object, what: str) -> tuple:
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{what}: expected an iterable, got {items!r}") from None


def _vertex_ids(items: object, what: str) -> tuple[int, ...]:
    """`items` sorted, after checking that each is a non-negative int."""
    ids = _iterable(items, f"{what} ids")
    for v in ids:
        if type(v) is not int and not _is_int(v) or v < 0:
            raise ValueError(f"invalid {what} id {v!r}")
    return tuple(sorted(ids))


def _canonical_edges(
    order: int, edges: Iterable[Sequence[int]], members: set[int] | None = None
) -> tuple[tuple[int, int], ...]:
    """Sorted (min, max) pairs; endpoints lie in `members` if given, else below `order`.

    Every parsed graph and every validated Tree passes through here, so an
    accepted edge costs one unpack, the type and range tests and one
    append; repeats are looked for once, over all the pairs.  On a fault
    `_edge_error` names the first in edge order, as a check of each edge
    in turn, repeats included, would.
    """
    out: list[tuple[int, int]] = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise _edge_error(out, f"expected a pair, got {edge!r}") from None
        if type(u) is not int or type(v) is not int:
            for end in (u, v):
                if not _is_int(end):
                    raise _edge_error(out, f"vertex id must be an integer, got {end!r}")
        if u == v:
            raise _edge_error(out, f"self-loop ({u},{v})")
        if members is None:
            if not (0 <= u < order and 0 <= v < order):
                raise _edge_error(out, f"endpoint out of range for order {order}: ({u},{v})")
        elif u not in members or v not in members:
            raise _edge_error(out, f"tree edge ({u},{v}) has endpoint outside vertex set", False)
        out.append((u, v) if u < v else (v, u))
    if len(set(out)) < len(out):
        raise _edge_error(out, "")
    out.sort()
    return tuple(out)


def _edge_error(
    keys: list[tuple[int, int]], problem: str, numbered: bool = True
) -> GraphFormatError:
    """The error for the first faulty edge: a repeat among the accepted
    `keys`, else `problem` at the edge after them (prefixed `edge N: `
    when `numbered`)."""
    seen: set[tuple[int, int]] = set()
    for pos, key in enumerate(keys):
        if key in seen:
            return GraphFormatError(f"edge {pos}: duplicate edge {key}")
        seen.add(key)
    return GraphFormatError(f"edge {len(keys)}: {problem}" if numbered else problem)


def _unchecked(cls, **fields):
    """A `cls` with exactly these fields, made without `__post_init__`.

    Nothing is checked, so each call states beside it why its fields have
    the form the validating constructor would give them; nothing parsed
    from outside the program may come through here.  Setting each field
    on its own keeps the compact attribute storage of a constructed object.
    """
    obj = object.__new__(cls)
    for name in fields:
        object.__setattr__(obj, name, fields[name])
    return obj


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    order: int
    edges: tuple[tuple[int, int], ...] = ()
    labels: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.order):
            raise GraphFormatError(f"order must be an integer, got {self.order!r}")
        if self.order < 0:
            raise GraphFormatError(f"order must be non-negative, got {self.order}")
        edges = _canonical_edges(self.order, _iterable(self.edges, "edges"))
        object.__setattr__(self, "edges", edges)
        if self.labels is not None:
            labels = _iterable(self.labels, "labels")
            if len(labels) != self.order:
                raise GraphFormatError(
                    f"labels: expected {self.order} entries, got {len(labels)}"
                )
            named = [x for x in labels if x is not None]
            for x in named:
                if not isinstance(x, str):
                    raise GraphFormatError(f"labels: expected string or null, got {x!r}")
            if len(set(named)) != len(named):
                raise GraphFormatError("labels: duplicate label")
            object.__setattr__(self, "labels", labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in frozenset(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.order:
            raise ValueError(f"vertex {v} out of range")
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nb)) for nb in adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a vertex-id permutation; perm[v] is the new id of v."""
        if sorted(perm) != list(range(self.order)):
            raise ValueError("perm must be a permutation of 0..order-1")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        labels = None
        if self.labels is not None:
            relab: list[str | None] = [None] * self.order
            for v, lab in enumerate(self.labels):
                relab[perm[v]] = lab
            labels = tuple(relab)
        return Graph(self.order, tuple(edges), labels)


@dataclass(frozen=True)
class TerminalSet:
    """The set S of vertices the packed trees must connect."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = _vertex_ids(self.members, "terminal")
        if len(members) < 2:
            raise ValueError(f"terminal set needs at least 2 members, got {members!r}")
        if len(set(members)) != len(members):
            raise ValueError(f"terminal set has repeated members: {members!r}")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, ids: "TerminalSet | Iterable[int]") -> "TerminalSet":
        return ids if isinstance(ids, TerminalSet) else cls(ids)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def validate_in(self, graph: Graph) -> "TerminalSet":
        if self.members[-1] >= graph.order:
            raise ValueError(
                f"terminal {self.members[-1]} out of range for order {graph.order}"
            )
        return self


def parse_terminals(text: str) -> TerminalSet:
    """Parse a comma-separated terminal list, e.g. "0,2,5"."""
    try:
        ids = tuple(map(_decimal, text.split(",")))
    except ValueError:
        raise GraphFormatError(f"invalid terminal list {text!r}") from None
    return TerminalSet(ids)


def graph_to_obj(graph: Graph) -> dict:
    obj: dict = {"order": graph.order, "edges": [list(e) for e in graph.edges]}
    if graph.labels is not None:
        obj["labels"] = list(graph.labels)
    return obj


def graph_from_obj(obj: object) -> Graph:
    if not isinstance(obj, dict):
        raise GraphFormatError(f"expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {"order", "edges", "labels"}
    if unknown:
        raise GraphFormatError(f"unknown graph fields: {sorted(unknown)}")
    if "order" not in obj:
        raise GraphFormatError("missing field 'order'")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("'edges' must be a list")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise GraphFormatError("'labels' must be a list")
        labels = tuple(labels)
    return Graph(obj["order"], edges, labels)


def load_json(text: str) -> object:
    """json.loads, with every way the text can fail raised as GraphFormatError."""
    # ValueError covers integers past the interpreter's digit limit and
    # RecursionError arrays or objects nested too deep for the decoder
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc


def parse_graph(text: str) -> Graph:
    """Parse the JSON instance format {"order":n, "labels":[..]?, "edges":[[u,v],..]}."""
    return graph_from_obj(load_json(text))


def serialize_graph(graph: Graph) -> str:
    """Canonical JSON writer; parse_graph(serialize_graph(G)) == G.

    Writes exactly the bytes of `json.dumps(graph_to_obj(graph),
    sort_keys=True, separators=(",", ":"))`, without building the dict:
    the keys in sorted order, ids as plain decimals (`%d`, like the JSON
    encoder, also for int subclasses), labels through `json.dumps`.  The
    result is joined, not %-formatted, as in
    `certificates.serialize_certificate`: a %-formatted str keeps the
    block its writer over-allocated for as long as a caller keeps the text.
    """
    edges = ",".join(["[%d,%d]" % edge for edge in graph.edges])
    labels = ""
    if graph.labels is not None:
        labels = ',"labels":' + json.dumps(list(graph.labels), separators=(",", ":"))
    return "".join(['{"edges":[', edges, "]", labels, ',"order":', "%d" % graph.order, "}"])


def components(graph: Graph) -> list[list[int]]:
    """Connected components as disjoint sorted lists, ordered by least member."""
    adj: list[list[int]] = [[] for _ in range(graph.order)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * graph.order
    out: list[list[int]] = []
    for start in range(graph.order):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # breadth first: the loop reaches what it appends
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        out.append(comp)
    return out


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: Graph, terminals: TerminalSet | None = None) -> str:
    """Deterministic DOT rendering; terminal vertices are drawn filled."""
    term: frozenset[int] = frozenset()
    if terminals is not None:
        term = frozenset(TerminalSet.of(terminals).validate_in(graph).members)
    lines = ["graph {"]
    for v in range(graph.order):
        attrs = []
        if graph.labels is not None and graph.labels[v] is not None:
            attrs.append(f"label={_dot_quote(graph.labels[v])}")
        if v in term:
            attrs.append("style=filled")
        if attrs:
            lines.append(f"  {v} [{', '.join(attrs)}];")
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def complete_graph(order: int) -> Graph:
    return Graph(order, tuple((u, v) for u in range(order) for v in range(u + 1, order)))


def path_graph(order: int) -> Graph:
    return Graph(order, tuple((v, v + 1) for v in range(order - 1)))


def cycle_graph(order: int) -> Graph:
    if order < 3:
        raise ValueError("cycle needs order >= 3")
    return Graph(order, tuple((v, (v + 1) % order) for v in range(order)))
