"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  All
checks are exact: agreement counts must be total and tolerances are zero.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from treeconn import (
    Graph,
    brute_force_kappa,
    complete_graph,
    components,
    count_topologies,
    decide_kappa_at_least,
    kappa_set_exact,
    lift_terminals,
    matching_is_perfect,
    matching_to_trees,
    assignment_satisfies,
    assignment_to_trees,
    menger_pair,
    pad_tree_count,
    reduce_3dm,
    reduce_3sat,
    serialize_certificate,
    solve_3dm_brute,
    solve_sat_brute,
    trees_to_assignment,
    trees_to_matching,
    verify_certificate,
)
from treeconn.generators import (
    random_3dm,
    random_cnf,
    random_connected_graph,
    random_terminals,
)
from treeconn.reductions import CnfFormula, ThreeDMInstance


def _report(name: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    detail = "" if not violations else f" ({len(violations)} violations, first: {violations[0]})"
    print(f"{status} {name}{detail}")
    assert not violations, violations[:5]


def _connected_graphs_up_to(max_order: int):
    for order in range(2, max_order + 1):
        pairs = list(itertools.combinations(range(order), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            edges = tuple(p for p, take in zip(pairs, picks) if take)
            g = Graph(order, edges)
            if len(components(g)) == 1:
                yield g


def test_criterion_1_whitney_menger_equivalence():
    violations = []
    checked = 0
    for i in range(200):
        rng = random.Random(31337 + i)
        g = random_connected_graph(rng, rng.randint(4, 10), 0.45)
        if i < 20:
            pairs = list(itertools.combinations(range(g.order), 2))
        else:
            pairs = [tuple(sorted(rng.sample(range(g.order), 2)))]
        for u, v in pairs:
            flow = menger_pair(g, u, v)
            solved = kappa_set_exact(g, (u, v))
            checked += 1
            if solved.value != flow or solved.status != "exact":
                violations.append((i, u, v, flow, solved.value))
    _report(f"criterion 1: Whitney equivalence on {checked} pairs", violations)


def test_criterion_2_oracle_equivalence():
    violations = []
    checked = 0
    for g in _connected_graphs_up_to(5):
        for size in range(2, min(4, g.order) + 1):
            for sub in itertools.combinations(range(g.order), size):
                checked += 1
                if kappa_set_exact(g, sub).value != brute_force_kappa(g, sub):
                    violations.append((g.edges, sub))
    for i in range(100):
        rng = random.Random(777 + i)
        g = random_connected_graph(rng, rng.randint(6, 7), 0.5)
        s = random_terminals(rng, g, rng.randint(2, 4))
        checked += 1
        if kappa_set_exact(g, s).value != brute_force_kappa(g, s):
            violations.append((g.edges, s.members))
    _report(f"criterion 2: oracle equivalence on {checked} instances", violations)


@pytest.fixture(scope="module")
def threedm_cases():
    cases = []
    space = list(itertools.product(range(2), repeat=3))
    for m in range(2, 6):
        for chosen in itertools.combinations(space, m):
            cases.append(ThreeDMInstance(2, chosen))
    for i in range(100):
        rng = random.Random(1000003 + i)
        cases.append(random_3dm(rng, 3, rng.randint(3, 6)))
    results = []
    for inst in cases:
        oracle = solve_3dm_brute(inst)
        red = reduce_3dm(inst)
        decision = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
        results.append((inst, red, oracle, decision))
    return results


@pytest.fixture(scope="module")
def sat_cases():
    formulas = [
        CnfFormula(
            3,
            tuple(
                tuple((v + 1) if s else -(v + 1) for v, s in enumerate(signs))
                for signs in itertools.product((0, 1), repeat=3)
            ),
        )
    ]
    for i in range(200):
        rng = random.Random(2000003 + i)
        formulas.append(random_cnf(rng, rng.randint(2, 4), rng.randint(1, 6)))
    results = []
    for phi in formulas:
        oracle = solve_sat_brute(phi)
        red = reduce_3sat(phi)
        decision = decide_kappa_at_least(red.graph, red.terminals, red.threshold)
        results.append((phi, red, oracle, decision))
    return results


def test_criterion_3_matching_round_trip(threedm_cases):
    violations = []
    unknowns = sum(1 for *_, d in threedm_cases if d.outcome == "unknown")
    for inst, red, oracle, decision in threedm_cases:
        want = "certificate" if oracle is not None else "refuted"
        if decision.outcome != want:
            violations.append((inst.triples, decision.outcome, want))
    if unknowns:
        violations.append(f"{unknowns} unknown outcomes")
    _report(
        f"criterion 3: 3-DM round trip on {len(threedm_cases)} instances", violations
    )


def test_criterion_4_satisfiability_round_trip(sat_cases):
    violations = []
    for phi, red, oracle, decision in sat_cases:
        want = "certificate" if oracle is not None else "refuted"
        if decision.outcome != want:
            violations.append((phi.clauses, decision.outcome, want))
    _report(f"criterion 4: 3-SAT round trip on {len(sat_cases)} formulas", violations)


def test_criterion_5_witness_soundness(threedm_cases, sat_cases):
    violations = []
    checked = 0
    for inst, red, oracle, decision in threedm_cases:
        if oracle is None:
            continue
        checked += 1
        cert = matching_to_trees(inst, oracle)
        if not verify_certificate(red.graph, red.terminals, cert).valid:
            violations.append(("3dm forward", inst.triples))
        if decision.certificate is None or not matching_is_perfect(
            inst, trees_to_matching(inst, decision.certificate)
        ):
            violations.append(("3dm backward", inst.triples))
    for phi, red, oracle, decision in sat_cases:
        if oracle is None:
            continue
        checked += 1
        cert = assignment_to_trees(phi, oracle)
        if not verify_certificate(red.graph, red.terminals, cert).valid:
            violations.append(("sat forward", phi.clauses))
        if decision.certificate is None or not assignment_satisfies(
            phi, trees_to_assignment(phi, decision.certificate)
        ):
            violations.append(("sat backward", phi.clauses))
    _report(
        f"criterion 5: witness soundness on {checked} positive instances", violations
    )


def test_gadget_certificates_are_pinned():
    # every certificate that matching_to_trees and assignment_to_trees write
    # for these instances, byte for byte, each decoding back to its witness
    digest = hashlib.sha256()
    count = 0
    for seed in range(300):
        n, m = [(1, 1), (2, 4), (3, 5), (4, 6)][seed % 4]
        inst = random_3dm(random.Random(seed), n, m)
        matching = solve_3dm_brute(inst)
        if matching is not None:
            cert = matching_to_trees(inst, matching)
            assert trees_to_matching(inst, cert) == matching
            digest.update((serialize_certificate(cert) + "\n").encode())
            count += 1
    for seed in range(300):
        phi = random_cnf(random.Random(seed), 2 + seed % 5, seed % 9)
        assignment = solve_sat_brute(phi)
        if assignment is not None:
            cert = assignment_to_trees(phi, assignment)
            assert trees_to_assignment(phi, cert) == assignment
            digest.update((serialize_certificate(cert) + "\n").encode())
            count += 1
    assert count == 435
    assert digest.hexdigest() == (
        "749a5a06a4ef6e32ba96fa79e3bbdc29387a83fcea7ac9ed6cd123d071dab3a8"
    )


def test_criterion_6_lifting_equivalence():
    violations = []
    for i in range(100):
        rng = random.Random(555000 + i)
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        s = random_terminals(rng, g, 4)
        k1 = rng.choice([5, 6])
        k2 = rng.choice([2, 3])
        base = decide_kappa_at_least(g, s, k2).outcome
        red = lift_terminals(g, s, k1, k2)
        lifted = decide_kappa_at_least(red.graph, red.terminals, red.threshold).outcome
        if base != lifted:
            violations.append((i, k1, k2, base, lifted))
    _report("criterion 6: lifting equivalence on 100 instances", violations)


def test_criterion_7_padding_equivalence():
    violations = []
    for i in range(100):
        rng = random.Random(666000 + i)
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        s = random_terminals(rng, g, rng.randint(2, 4))
        k = rng.choice([3, 4])
        base = decide_kappa_at_least(g, s, 2).outcome == "certificate"
        red = pad_tree_count(g, s, k)
        padded = (
            decide_kappa_at_least(red.graph, red.terminals, red.threshold).outcome
            == "certificate"
        )
        if base != padded:
            violations.append((i, k, base, padded))
    _report("criterion 7: padding equivalence on 100 instances", violations)


def test_criterion_8_tree_type_taxonomy():
    violations = []
    k6 = complete_graph(6)
    three = count_topologies(k6, (0, 1, 2))
    four = count_topologies(k6, (0, 1, 2, 3))
    if three != 2:
        violations.append(f"|S|=3 gave {three} types, expected 2")
    if four != 5:
        violations.append(f"|S|=4 gave {four} types, expected 5")
    _report("criterion 8: tree-type taxonomy on K6", violations)


def test_criterion_9_structural_invariants(threedm_cases, sat_cases):
    violations = []
    # size formulas on every generated reduction
    for inst, red, *_ in threedm_cases:
        if red.graph.order != 4 + 2 * inst.n + 2 * inst.m:
            violations.append(("3dm size", inst.triples))
    for phi, red, *_ in sat_cases:
        if red.graph.order != 3 * phi.num_vars + phi.num_clauses + 1:
            violations.append(("sat size", phi.clauses))
    # degree bound, monotonicity, relabeling invariance on seeded graphs
    for i in range(60):
        rng = random.Random(888000 + i)
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        s = random_terminals(rng, g, rng.randint(2, 4))
        value = kappa_set_exact(g, s).value
        if value > min(g.degree(v) for v in s):
            violations.append(("degree bound", i))
        missing = [
            (u, v)
            for u in range(g.order)
            for v in range(u + 1, g.order)
            if not g.has_edge(u, v)
        ]
        if missing:
            bigger = Graph(g.order, g.edges + (rng.choice(missing),))
            if kappa_set_exact(bigger, s).value < value:
                violations.append(("monotonicity", i))
        perm = list(range(g.order))
        rng.shuffle(perm)
        relabeled = kappa_set_exact(
            g.relabel(perm), tuple(sorted(perm[v] for v in s))
        ).value
        if relabeled != value:
            violations.append(("relabeling", i))
    _report("criterion 9: structural invariants", violations)
