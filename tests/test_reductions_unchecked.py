"""The gadget reductions build their graph, terminal set and instance
unchecked (`reductions._gadget`, through `graph._unchecked`) and keep each
reduction on the source instance it came from, for the decoders.  Every
reduced instance holds its roles as one string per vertex, in a tuple.

Each built instance must equal what the validating constructors make of
the same fields, in every way a caller sees, and a decoder must answer the
same whether the source was reduced first, was not, or is an equal but
distinct object.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from treeconn import (
    CnfFormula,
    Graph,
    ThreeDMInstance,
    Tree,
    TreeCertificate,
    assignment_to_trees,
    complete_graph,
    lift_terminals,
    matching_to_trees,
    pad_tree_count,
    path_graph,
    reduce_3dm,
    reduce_3sat,
    solve_3dm_brute,
    solve_sat_brute,
    trees_to_assignment,
    trees_to_matching,
)
from treeconn.generators import random_3dm
from treeconn.reductions import ReducedInstance, parse_reduced, serialize_reduced


def _random_formula(rng: random.Random) -> CnfFormula:
    """Clauses of 1-3 literals over distinct variables; empty clauses never."""
    num_vars = rng.randint(2, 5)
    clauses = []
    for _ in range(rng.randint(0, 7)):
        size = rng.randint(1, min(3, num_vars))
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v * rng.choice((1, -1)) for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


def _assert_matches_validated(reduced: ReducedInstance) -> None:
    graph = reduced.graph
    validated_graph = Graph(graph.order, graph.edges, graph.labels)
    validated = ReducedInstance(
        validated_graph, reduced.terminals.members, reduced.threshold, list(reduced.roles)
    )
    for name in ("order", "edges", "labels"):
        assert getattr(graph, name) == getattr(validated_graph, name), name
        assert type(getattr(graph, name)) is type(getattr(validated_graph, name)), name
    assert graph == validated_graph and hash(graph) == hash(validated_graph)
    assert reduced.terminals == validated.terminals
    assert type(reduced.terminals.members) is tuple
    assert reduced.threshold == validated.threshold
    assert type(reduced.roles) is tuple and reduced.roles == validated.roles
    assert reduced == validated and hash(reduced) == hash(validated)
    text = serialize_reduced(reduced)
    assert text == serialize_reduced(validated)
    assert parse_reduced(text) == reduced


def _outcome(decode, source, cert):
    try:
        return "ok", decode(source, cert)
    except ValueError as exc:
        return "error", str(exc)


def _decoded_three_ways(make, reduce, decode, cert):
    """The decoder's answer on a source reduced first, one never reduced,
    and an equal but distinct copy of a reduced one: all must agree."""
    reduced_first = make()
    reduce(reduced_first)
    outcomes = [
        _outcome(decode, reduced_first, cert),
        _outcome(decode, make(), cert),
        _outcome(decode, dataclasses.replace(reduced_first), cert),
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


@pytest.mark.parametrize("seed", range(60))
def test_reduce_3sat_matches_the_validating_constructors(seed):
    phi = _random_formula(random.Random(seed))
    _assert_matches_validated(reduce_3sat(phi))
    if all(len(c) == 3 for c in phi.clauses):
        assert reduce_3sat(phi, require_three=True) == reduce_3sat(phi)
    else:
        with pytest.raises(ValueError, match="a clause does not have exactly 3 literals"):
            reduce_3sat(phi, require_three=True)


@pytest.mark.parametrize("seed", range(40))
def test_reduce_3dm_matches_the_validating_constructors(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    _assert_matches_validated(reduce_3dm(random_3dm(rng, n, rng.randint(n, min(n**3, 7)))))


@pytest.mark.parametrize("seed", range(30))
def test_trees_to_assignment_is_the_same_however_the_source_was_reduced(seed):
    phi = _random_formula(random.Random(seed))

    def make():
        return CnfFormula(phi.num_vars, phi.clauses)

    witness = solve_sat_brute(phi)
    if witness is None:
        # an edge of the apex is in the graph, but misses every terminal
        apex_edge = Tree((0, 1 + phi.num_vars), ((0, 1 + phi.num_vars),))
        certs = [TreeCertificate((apex_edge, apex_edge))]
    else:
        cert = assignment_to_trees(phi, witness)
        certs = [cert, TreeCertificate(cert.trees[:1]), TreeCertificate(cert.trees[:1] * 2)]
    outcomes = [_decoded_three_ways(make, reduce_3sat, trees_to_assignment, c) for c in certs]
    if witness is not None:
        assert outcomes[0] == ("ok", witness)
        assert outcomes[1] == ("error", "certificate has 1 trees, expected 2")
    assert outcomes[-1][0] == "error" and outcomes[-1][1].startswith("invalid certificate: ")


@pytest.mark.parametrize("seed", range(30))
def test_trees_to_matching_is_the_same_however_the_source_was_reduced(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    triples = random_3dm(rng, n, rng.randint(n, min(n**3, 6))).triples

    def make():
        return ThreeDMInstance(n, triples)

    inst = make()
    witness = solve_3dm_brute(inst)
    # an edge of hub-u, in the graph but missing the other hubs
    hub_edge = Tree((0, 4), ((0, 4),))
    certs = [TreeCertificate((hub_edge,) * inst.m), TreeCertificate((hub_edge,) * (inst.m + 1))]
    if witness is not None:
        cert = matching_to_trees(inst, witness)
        certs = [cert, TreeCertificate(cert.trees[1:])] + certs
    outcomes = [_decoded_three_ways(make, reduce_3dm, trees_to_matching, c) for c in certs]
    if witness is not None:
        assert outcomes[0] == ("ok", witness)
        assert outcomes[1] == ("error", f"certificate has {inst.m - 1} trees, expected {inst.m}")
    assert outcomes[-2][0] == "error" and outcomes[-2][1].startswith("invalid certificate: ")
    assert outcomes[-1] == ("error", f"certificate has {inst.m + 1} trees, expected {inst.m}")


def test_a_kept_reduction_stays_out_of_the_source_fields():
    for make, reduce in (
        (lambda: CnfFormula(3, ((1, -2, 3), (2, 3))), reduce_3sat),
        (lambda: ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0))), reduce_3dm),
    ):
        source, fresh = make(), make()
        reduce(source)
        assert source == fresh and hash(source) == hash(fresh) and repr(source) == repr(fresh)
        assert dataclasses.asdict(source) == dataclasses.asdict(fresh)
        # and a reduced source still pickles and deep-copies, its reduction
        # with it, and is replaced by a source that reduces alike
        for copied in (pickle.loads(pickle.dumps(source)), copy.deepcopy(source)):
            assert copied == fresh and vars(copied)["_reduced"] == reduce(fresh)
        assert reduce(dataclasses.replace(source)) == reduce(fresh)
        # each call builds its own reduction, equal to the last
        assert reduce(source) is not reduce(source) and reduce(source) == reduce(fresh)


# ---------------------------------------------------------------------------
# Roles: a tuple with one string per vertex, however the instance was made
# ---------------------------------------------------------------------------

_PHI = CnfFormula(3, ((1, -2, 3), (2, 3)))
_TRIPLES = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: reduce_3sat(_PHI),
        lambda: reduce_3dm(_TRIPLES),
        lambda: lift_terminals(complete_graph(4), (0, 1, 2), 5, 2),
        lambda: pad_tree_count(complete_graph(4), (0, 1), 4),
        lambda: parse_reduced(serialize_reduced(reduce_3sat(_PHI))),
        lambda: ReducedInstance(path_graph(3), (0, 2), 1, ["end", "middle", "end"]),
    ],
    ids=["reduce_3sat", "reduce_3dm", "lift_terminals", "pad_tree_count", "parse_reduced",
         "constructor"],
)
def test_roles_are_a_tuple_of_strings_indexed_by_vertex(build):
    inst = build()
    roles = inst.roles
    assert type(roles) is tuple and len(roles) == inst.graph.order
    assert all(type(role) is str for role in roles)
    # the dataclass's own copying gives an equal instance, roles and all
    assert "__reduce__" not in vars(ReducedInstance)
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), dataclasses.replace(inst)):
        assert copied == inst and hash(copied) == hash(inst) and copied.roles == roles
        assert type(copied.roles) is tuple
    graph, terminals, threshold = inst.graph, inst.terminals, inst.threshold
    for wrong in (roles[:-1], roles + ("extra",), (None,) + roles[1:], roles[:-1] + (7,)):
        with pytest.raises(ValueError):
            ReducedInstance(graph, terminals, threshold, wrong)

