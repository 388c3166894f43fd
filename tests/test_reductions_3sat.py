from __future__ import annotations

import itertools
import random

import pytest

from treeconn import (
    Assignment,
    CnfFormula,
    GraphFormatError,
    assignment_satisfies,
    assignment_to_trees,
    decide_kappa_at_least,
    parse_dimacs,
    reduce_3sat,
    solve_sat_brute,
    trees_to_assignment,
    verify_certificate,
    write_dimacs,
)
from treeconn.generators import random_cnf


def full_sign_formula() -> CnfFormula:
    """All eight sign patterns over three variables: classically unsatisfiable."""
    clauses = tuple(
        tuple((v + 1) if s else -(v + 1) for v, s in enumerate(signs))
        for signs in itertools.product([0, 1], repeat=3)
    )
    return CnfFormula(3, clauses)


def test_formula_validation():
    with pytest.raises(ValueError, match="twice"):
        CnfFormula(2, ((1, -1),))
    with pytest.raises(ValueError, match="twice"):
        CnfFormula(2, ((1, 1),))
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(2, ((1, 3),))
    with pytest.raises(ValueError, match="3 literals"):
        CnfFormula(4, ((1, 2, 3, 4),))


def test_construction_shape():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, 3)))
    red = reduce_3sat(phi)
    n, m = 3, 2
    assert red.graph.order == 3 * n + m + 1 == 12
    assert red.threshold == 2
    assert red.roles[0] == "apex"
    assert red.roles[1] == "var-hat(0)"
    assert red.roles[4] == "var-pos(0)"
    assert red.roles[7] == "var-neg(0)"
    assert red.roles[10] == "clause(0)"
    # selectors see exactly their two literal vertices
    assert red.graph.neighbors(1) == (4, 7)
    # terminals are the selectors plus the clause vertices
    assert red.terminals.members == (1, 2, 3, 10, 11)
    # clause 1 = (-1, -2, 3) touches the two negative literals and x3
    assert red.graph.has_edge(7, 11) and red.graph.has_edge(8, 11)
    assert red.graph.has_edge(6, 11) and not red.graph.has_edge(4, 11)
    # variable-1 literals see every other literal vertex
    for lit in (5, 6, 8, 9):
        assert red.graph.has_edge(4, lit) and red.graph.has_edge(7, lit)
    assert not red.graph.has_edge(4, 7)
    # the apex sees all literal and clause vertices but no selector
    for v in (4, 5, 6, 7, 8, 9, 10, 11):
        assert red.graph.has_edge(0, v)
    assert not red.graph.has_edge(0, 1)


def test_construction_requires_two_variables():
    with pytest.raises(ValueError, match="2 variables"):
        reduce_3sat(CnfFormula(1, ((1,),)))


def test_strict_three_flag():
    phi = CnfFormula(3, ((1, 2),))
    reduce_3sat(phi)  # short clauses fine by default
    with pytest.raises(ValueError, match="exactly 3"):
        reduce_3sat(phi, require_three=True)


def test_satisfiable_formula_decides_yes():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, 3)))
    red = reduce_3sat(phi)
    result = decide_kappa_at_least(red.graph, red.terminals, 2)
    assert result.outcome == "certificate"
    a = trees_to_assignment(phi, result.certificate)
    assert assignment_satisfies(phi, a)


def test_unsatisfiable_formula_decides_no():
    phi = full_sign_formula()
    assert solve_sat_brute(phi) is None
    red = reduce_3sat(phi)
    assert red.graph.order == 18
    result = decide_kappa_at_least(red.graph, red.terminals, 2)
    assert result.outcome == "refuted"


def test_assignment_to_trees_examples():
    phi = CnfFormula(3, ((1, 2, 3), (-1, -2, 3)))
    t = Assignment((False, False, True))
    cert = assignment_to_trees(phi, t)
    red = reduce_3sat(phi)
    assert verify_certificate(red.graph, red.terminals, cert).valid
    assert len(cert) == 2
    # short clause: attaches to the lowest-indexed true literal, here x1
    phi2 = CnfFormula(2, ((1, 2),))
    cert2 = assignment_to_trees(phi2, Assignment((True, False)))
    red2 = reduce_3sat(phi2)
    assert verify_certificate(red2.graph, red2.terminals, cert2).valid
    # clause(0) has id 1 + 3*2 = 7; var-pos(0) has id 1 + 2 = 3
    assert (3, 7) in cert2.trees[0].edges


def test_assignment_to_trees_rejects_falsifying():
    phi = CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError, match="does not satisfy"):
        assignment_to_trees(phi, Assignment((False, False)))


def test_round_trip_assignment_satisfies():
    phi = CnfFormula(3, ((1, -2, 3), (-1, 2, 3), (2, -3)))
    t = solve_sat_brute(phi)
    back = trees_to_assignment(phi, assignment_to_trees(phi, t))
    assert assignment_satisfies(phi, back)


def test_solver_certificate_decodes_for_random_formulas():
    for seed in range(10):
        rng = random.Random(13 + seed)
        phi = random_cnf(rng, rng.randint(2, 4), rng.randint(1, 5))
        red = reduce_3sat(phi)
        oracle = solve_sat_brute(phi)
        decision = decide_kappa_at_least(red.graph, red.terminals, 2)
        assert (decision.outcome == "certificate") == (oracle is not None)
        if oracle is not None:
            cert = assignment_to_trees(phi, oracle)
            assert verify_certificate(red.graph, red.terminals, cert).valid
            a = trees_to_assignment(phi, decision.certificate)
            assert assignment_satisfies(phi, a)


def test_oracle_examples():
    assert solve_sat_brute(CnfFormula(3, ((1, 2, 3),))) is not None
    assert solve_sat_brute(full_sign_formula()) is None
    empty = solve_sat_brute(CnfFormula(3, ()))
    assert empty == Assignment((False, False, False))
    with pytest.raises(ValueError, match="cap"):
        solve_sat_brute(CnfFormula(21, ()))


def test_oracle_is_deterministic_least_assignment():
    phi = CnfFormula(2, ((1, 2),))
    assert solve_sat_brute(phi) == Assignment((False, True))


def test_parse_dimacs_basics():
    phi = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert phi.num_vars == 3
    assert phi.clauses == ((1, 2, 3),)
    phi = parse_dimacs("c comment\np cnf 1 0\n")
    assert phi.num_vars == 1 and phi.clauses == ()


def test_parse_dimacs_rejects_complementary_pair():
    with pytest.raises(GraphFormatError, match="twice"):
        parse_dimacs("p cnf 2 1\n1 -1 0\n")


def test_parse_dimacs_errors():
    with pytest.raises(GraphFormatError, match="header"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(GraphFormatError, match="promises"):
        parse_dimacs("p cnf 2 2\n1 2 0\n")
    with pytest.raises(GraphFormatError, match="0-terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_dimacs("p cnf 2 1\n1 3 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 3_0 1\n1 2 3 0\n", "malformed header"),
        ("p cnf -3 1\n1 2 3 0\n", "malformed header"),
        ("p cnf \u0663 1\n1 2 3 0\n", "malformed header"),
        ("p cnf 30 1\n1_0 2 3 0\n", "bad literal '1_0'"),
        ("p cnf 3 1\n+1 2 3 0\n", "bad literal"),
        ("p cnf 3 1\n--1 2 3 0\n", "bad literal"),
        ("p cnf 3 1\n- 2 3 0\n", "bad literal"),
        ("p cnf 3 1\n1 \u0662 3 0\n", "bad literal"),
    ],
)
def test_parse_dimacs_takes_only_ascii_decimals(text, message):
    """int() would read '3_0' as 30 and '1_0' as the literal 10."""
    with pytest.raises(GraphFormatError, match=message):
        parse_dimacs(text)
    assert parse_dimacs("p cnf 3 1\n-1 2 -3 0\n").clauses == ((-1, 2, -3),)


def test_dimacs_round_trip():
    phi = CnfFormula(4, ((1, -2, 4), (-3,), (2, 3)))
    assert parse_dimacs(write_dimacs(phi)) == phi


def test_empty_clause_makes_reduction_negative():
    phi = parse_dimacs("p cnf 2 1\n0\n")
    assert phi.clauses == ((),)
    assert solve_sat_brute(phi) is None
    red = reduce_3sat(phi)
    decision = decide_kappa_at_least(red.graph, red.terminals, 2)
    assert decision.outcome == "refuted"
