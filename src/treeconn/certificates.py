"""Tree certificates witnessing kappa(S) >= l.

A certificate is a family of trees, each spanning the terminal set S,
pairwise edge-disjoint, and pairwise sharing no vertex outside S.  The
verifier re-checks every condition from scratch, so any search output can
be validated independently of how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Graph,
    GraphFormatError,
    TerminalSet,
    _canonical_edges,
    _iterable,
    _vertex_ids,
    load_json,
)


@dataclass(frozen=True)
class Tree:
    """One tree of a certificate: explicit vertex set plus edge set."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        vertices = _vertex_ids(self.vertices, "tree vertex")
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ValueError(f"tree has repeated vertices: {vertices!r}")
        if not vertices:
            raise ValueError("tree must have at least one vertex")
        edges = _canonical_edges(vertices[-1] + 1, _iterable(self.edges, "tree edges"), vset)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _from_canonical(
        cls, vertices: tuple[int, ...], edges: tuple[tuple[int, int], ...]
    ) -> "Tree":
        """A tree from fields already in the form `__post_init__` gives them.

        Nothing is checked.  The caller guarantees: `vertices` ascending,
        unique and non-negative; `edges` canonical `(min, max)` pairs,
        sorted and unique; every endpoint one of `vertices`.
        `steiner.tree_from_masks` is the only caller: every mask pair from
        the enumerator, the extractor and the greedy packing lists its
        vertex bits in ascending order and its edge bits as `graph.edges`
        entries in index order, and `Graph` keeps those canonical and
        sorted.  `tests/test_certificates.py` pins this against the
        validated constructor.
        """
        tree = object.__new__(cls)
        object.__setattr__(tree, "vertices", vertices)
        object.__setattr__(tree, "edges", edges)
        return tree

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


@dataclass(frozen=True)
class TreeCertificate:
    trees: tuple[Tree, ...]

    def __post_init__(self) -> None:
        trees = _iterable(self.trees, "trees")
        for pos, tree in enumerate(trees):
            if not isinstance(tree, Tree):
                raise ValueError(f"tree {pos}: expected a Tree, got {tree!r}")
        object.__setattr__(self, "trees", trees)

    def __len__(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violations: tuple[str, ...]


def _is_tree(tree: Tree) -> str | None:
    """Return a violation message if the edge set is not a tree on the vertices."""
    nv = len(tree.vertices)
    if len(tree.edges) != nv - 1:
        return f"has {len(tree.edges)} edges on {nv} vertices, not a tree"
    parent = {v: v for v in tree.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"contains a cycle through edge ({u},{v})"
        parent[ru] = rv
    # no connectivity pass: an acyclic graph with nv - 1 edges is one component
    return None


def verify_certificate(
    graph: Graph, terminals: TerminalSet | Iterable[int], cert: TreeCertificate
) -> VerifyReport:
    """Check every certificate condition; failures are report content, not errors."""
    sset = set(TerminalSet.of(terminals).validate_in(graph).members)
    graph_edges = frozenset(graph.edges)
    violations: list[str] = []

    for i, tree in enumerate(cert.trees):
        if tree.vertices[-1] >= graph.order:
            violations.append(f"tree {i}: vertex {tree.vertices[-1]} out of range")
            continue
        bad = [e for e in tree.edges if e not in graph_edges]
        if bad:
            violations.append(f"tree {i}: edge {bad[0]} not in the graph")
        problem = _is_tree(tree)
        if problem is not None:
            violations.append(f"tree {i}: {problem}")
        missing = sset - tree.vertex_set
        if missing:
            violations.append(f"tree {i}: missing terminals {sorted(missing)}")

    for i in range(len(cert.trees)):
        for j in range(i + 1, len(cert.trees)):
            ti, tj = cert.trees[i], cert.trees[j]
            shared_edges = set(ti.edges) & set(tj.edges)
            if shared_edges:
                violations.append(
                    f"trees {i},{j}: share edge {min(shared_edges)}"
                )
            extra = (ti.vertex_set & tj.vertex_set) - sset
            if extra:
                violations.append(
                    f"trees {i},{j}: share non-terminal vertex {min(extra)}"
                )

    return VerifyReport(valid=not violations, violations=tuple(violations))


def certificate_to_obj(cert: TreeCertificate) -> dict:
    return {
        "trees": [
            {"vertices": list(t.vertices), "edges": [list(e) for e in t.edges]}
            for t in cert.trees
        ]
    }


def certificate_from_obj(obj: object) -> TreeCertificate:
    if not isinstance(obj, dict) or not isinstance(obj.get("trees"), list):
        raise GraphFormatError("certificate must be an object with a 'trees' list")
    trees = []
    for pos, raw in enumerate(obj["trees"]):
        where = f"tree {pos}"
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: expected an object")
        vertices = raw.get("vertices", [])
        edges = raw.get("edges", [])
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise GraphFormatError(f"{where}: 'vertices' and 'edges' must be lists")
        try:
            trees.append(Tree(tuple(vertices), tuple(edges)))
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
    return TreeCertificate(tuple(trees))


def serialize_certificate(cert: TreeCertificate) -> str:
    """Canonical JSON writer; parse_certificate(serialize_certificate(c)) == c.

    Writes exactly the bytes of `json.dumps(certificate_to_obj(cert),
    sort_keys=True, separators=(",", ":"))`, without building the dict:
    the keys in sorted order, ids as plain decimals (`%d`, like the JSON
    encoder, also for int subclasses).  The result is joined, not
    %-formatted: a %-formatted str keeps the block its writer
    over-allocated, up to a third more than its size, for as long as a
    caller keeps the certificate text.
    """
    trees = []
    for tree in cert.trees:
        edges = ",".join(["[%d,%d]" % edge for edge in tree.edges])
        vertices = ",".join(["%d"] * len(tree.vertices)) % tree.vertices
        trees.append('{"edges":[%s],"vertices":[%s]}' % (edges, vertices))
    return "".join(['{"trees":[', ",".join(trees), "]}"])


def parse_certificate(text: str) -> TreeCertificate:
    return certificate_from_obj(load_json(text))
