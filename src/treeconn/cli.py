"""Command-line front end.

Exit codes: 0 = decided/exact, 2 = budget exhausted (or unknowns present),
1 = usage, validation, or verification failure, or an input too large to
solve (recursion depth or memory).  The KAPPA_BUDGET environment variable
supplies a default node-expansion budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .certificates import (
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .graph import (
    Graph,
    GraphFormatError,
    TerminalSet,
    _decimal,
    export_dot,
    parse_graph,
    parse_terminals,
    serialize_graph,
)
from .generators import (
    random_3dm,
    random_cnf,
    random_connected_graph,
    random_graph,
)
from .reductions import (
    ReducedInstance,
    lift_terminals,
    pad_tree_count,
    parse_3dm,
    parse_dimacs,
    reduce_3dm,
    reduce_3sat,
    serialize_3dm,
    serialize_reduced,
    solve_3dm_brute,
    solve_sat_brute,
    write_dimacs,
)
from .solver import (
    decide_kappa_at_least,
    kappa_k_graph,
    kappa_set_exact,
)
from .steiner import classify_topology, enumerate_steiner_trees

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


def _default_budget() -> int | None:
    raw = os.environ.get("KAPPA_BUDGET")
    if raw is None:
        return None
    try:
        return _decimal(raw, signed=True)
    except ValueError:
        raise GraphFormatError(f"KAPPA_BUDGET must be an integer, got {raw!r}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _load_instance(args) -> tuple[Graph, TerminalSet]:
    return _load_graph(args.graph), parse_terminals(args.terminals)


def _emit(args, obj: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _write_out(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)


def _maybe_dot(args, graph: Graph, terminals: TerminalSet | None) -> None:
    if args.dot:
        Path(args.dot).write_text(export_dot(graph, terminals))


def _reduced_summary(args, inst: ReducedInstance) -> None:
    obj = {
        "vertices": inst.graph.order,
        "edges": inst.graph.edge_count,
        "threshold": inst.threshold,
        "terminals": list(inst.terminals.members),
    }
    _emit(
        args,
        obj,
        [
            f"vertices={inst.graph.order} edges={inst.graph.edge_count} "
            f"threshold={inst.threshold}"
        ],
    )
    _write_out(args, serialize_reduced(inst) + "\n")
    _maybe_dot(args, inst.graph, inst.terminals)


def cmd_kappa(args) -> int:
    graph, terminals = _load_instance(args)
    result = kappa_set_exact(graph, terminals, args.budget)
    lines = [
        f"kappa = {result.value} ({result.status})",
        f"expansions = {result.expansions}",
    ]
    if args.out:
        lines.append(f"certificate = {args.out}")
    _emit(args, result.to_obj(), lines)
    _write_out(args, serialize_certificate(result.certificate) + "\n")
    return EXIT_OK if result.status == "exact" else EXIT_BUDGET


def cmd_kappa_k(args) -> int:
    graph = _load_graph(args.graph)
    result = kappa_k_graph(graph, args.k, args.budget)
    value = "unknown" if result.value is None else result.value
    lines = [f"kappa_{args.k} = {value} ({result.status})"]
    if result.subset is not None:
        lines.append("subset = " + ",".join(str(v) for v in result.subset.members))
    _emit(args, result.to_obj(), lines)
    return EXIT_OK if result.status == "exact" else EXIT_BUDGET


def cmd_decide(args) -> int:
    graph, terminals = _load_instance(args)
    result = decide_kappa_at_least(graph, terminals, args.k, args.budget)
    lines = [f"decision: {result.outcome}", f"expansions = {result.expansions}"]
    if result.certificate is not None and args.out:
        lines.append(f"certificate = {args.out}")
    _emit(args, result.to_obj(), lines)
    if result.certificate is not None:
        _write_out(args, serialize_certificate(result.certificate) + "\n")
    return EXIT_BUDGET if result.outcome == "unknown" else EXIT_OK


def cmd_verify(args) -> int:
    graph, terminals = _load_instance(args)
    cert = parse_certificate(Path(args.cert).read_text())
    report = verify_certificate(graph, terminals, cert)
    obj = {"valid": report.valid, "violations": list(report.violations)}
    lines = ["valid" if report.valid else "invalid"]
    lines.extend(f"  {v}" for v in report.violations)
    _emit(args, obj, lines)
    return EXIT_OK if report.valid else EXIT_ERROR


def cmd_reduce(args) -> int:
    if args.problem == "3dm":
        inst = parse_3dm(Path(args.infile).read_text())
        reduced = reduce_3dm(inst)
    else:
        phi = parse_dimacs(Path(args.infile).read_text())
        reduced = reduce_3sat(phi, require_three=args.strict3)
    _reduced_summary(args, reduced)
    return EXIT_OK


def cmd_lift(args) -> int:
    graph, terminals = _load_instance(args)
    reduced = lift_terminals(graph, terminals, args.k1, args.k2)
    _reduced_summary(args, reduced)
    return EXIT_OK


def cmd_pad(args) -> int:
    graph, terminals = _load_instance(args)
    reduced = pad_tree_count(graph, terminals, args.k)
    _reduced_summary(args, reduced)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.problem == "3dm":
        inst = parse_3dm(Path(args.infile).read_text())
        matching = solve_3dm_brute(inst)
        if matching is None:
            _emit(args, {"matching": None}, ["no perfect matching"])
        else:
            chosen = sorted(matching.chosen)
            _emit(
                args,
                {"matching": chosen},
                ["matching: " + ",".join(str(i) for i in chosen)],
            )
    else:
        phi = parse_dimacs(Path(args.infile).read_text())
        assignment = solve_sat_brute(phi)
        if assignment is None:
            _emit(args, {"assignment": None}, ["unsatisfiable"])
        else:
            vals = [int(v) for v in assignment.values]
            _emit(
                args,
                {"assignment": vals},
                ["satisfiable: " + " ".join(str(v) for v in vals)],
            )
    return EXIT_OK


def cmd_classify(args) -> int:
    graph, terminals = _load_instance(args)
    result = enumerate_steiner_trees(graph, terminals, args.limit)
    counts: dict[str, int] = {}
    for tree in result.trees:
        code = classify_topology(tree, terminals).code
        counts[code] = counts.get(code, 0) + 1
    obj = {
        "classes": counts,
        "distinct": len(counts),
        "trees": len(result.trees),
        "truncated": result.truncated,
    }
    lines = [
        f"{len(result.trees)} minimal Steiner trees"
        + (" (truncated)" if result.truncated else ""),
        f"{len(counts)} topology classes:",
    ]
    lines.extend(f"  {count} x {code}" for code, count in sorted(counts.items()))
    _emit(args, obj, lines)
    return EXIT_OK


def _roundtrip_case(
    seed: int, generate, brute, reduce, budget: int | None
) -> tuple[str, str]:
    instance = generate(random.Random(seed))
    witness = brute(instance)
    reduced = reduce(instance)
    decision = decide_kappa_at_least(
        reduced.graph, reduced.terminals, reduced.threshold, budget
    )
    oracle = "yes" if witness is not None else "no"
    solver = {"certificate": "yes", "refuted": "no", "unknown": "unknown"}[
        decision.outcome
    ]
    return oracle, solver


def cmd_roundtrip(args) -> int:
    if args.count < 1:
        raise GraphFormatError("roundtrip needs --count >= 1")
    if args.problem == "3dm":
        problem = (lambda rng: random_3dm(rng, args.n, args.m), solve_3dm_brute, reduce_3dm)
    else:
        problem = (
            lambda rng: random_cnf(rng, args.vars, args.clauses),
            solve_sat_brute,
            reduce_3sat,
        )
    cases = []
    for i in range(args.count):
        seed = args.seed * 1_000_003 + i
        oracle, solver = _roundtrip_case(seed, *problem, args.budget)
        cases.append({"seed": seed, "oracle": oracle, "solver": solver})
    agree = sum(1 for c in cases if c["oracle"] == c["solver"])
    unknown = sum(1 for c in cases if c["solver"] == "unknown")
    disagree = len(cases) - agree - unknown
    obj = {"agree": agree, "disagree": disagree, "unknown": unknown, "cases": cases}
    _emit(
        args,
        obj,
        [f"agree={agree} disagree={disagree} unknown={unknown} of {len(cases)}"],
    )
    if disagree:
        return EXIT_ERROR
    return EXIT_BUDGET if unknown else EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "graph":
        if args.connected:
            graph = random_connected_graph(rng, args.order, args.prob)
        else:
            graph = random_graph(rng, args.order, args.prob)
        text = serialize_graph(graph) + "\n"
        _maybe_dot(args, graph, None)
    elif args.kind == "3dm":
        text = serialize_3dm(random_3dm(rng, args.n, args.m)) + "\n"
    else:
        text = write_dimacs(random_cnf(rng, args.vars, args.clauses))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node-expansion cap (default: KAPPA_BUDGET env var, else unlimited)",
    )


def _add_instance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True)
    parser.add_argument("--terminals", required=True, help="comma-separated vertex ids")


def _add_common(parser: argparse.ArgumentParser, out_help: str) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--out", help=out_help)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code for an exhausted budget
    here; report usage errors with exit 1 instead (subparsers inherit it)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeconn",
        description="Exact tree connectivity: solve, certify, and reduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="compute kappa(S) exactly")
    _add_instance(p)
    _add_budget(p)
    _add_common(p, "write the witnessing certificate JSON here")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("kappa-k", help="min of kappa(S) over all k-subsets")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_budget(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_kappa_k)

    p = sub.add_parser("decide", help="decide kappa(S) >= k")
    _add_instance(p)
    p.add_argument("--k", type=int, required=True)
    _add_budget(p)
    _add_common(p, "write the certificate JSON here when found")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="verify a tree certificate")
    _add_instance(p)
    p.add_argument("--cert", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="build a decision instance from 3dm/3sat")
    p.add_argument("problem", choices=["3dm", "3sat"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--strict3", action="store_true", help="require exactly 3 literals per clause")
    p.add_argument("--dot", help="also write a DOT rendering here")
    _add_common(p, "write the reduced instance JSON here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lift", help="grow the terminal set to k1, threshold k2")
    _add_instance(p)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--dot")
    _add_common(p, "write the reduced instance JSON here")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("pad", help="raise the threshold from 2 to k with pad vertices")
    _add_instance(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dot")
    _add_common(p, "write the reduced instance JSON here")
    p.set_defaults(func=cmd_pad)

    p = sub.add_parser("oracle", help="brute-force the source problem")
    p.add_argument("problem", choices=["3dm", "sat"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("roundtrip", help="oracle vs solver agreement harness")
    p.add_argument("problem", choices=["3dm", "3sat"])
    p.add_argument("--n", type=int, default=2, help="3dm ground-set size")
    p.add_argument("--m", type=int, default=4, help="3dm triple count")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--clauses", type=int, default=4)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_budget(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("gen", help="seeded random instance generators")
    p.add_argument("kind", choices=["graph", "3dm", "cnf"])
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--prob", type=float, default=0.4)
    p.add_argument(
        "--connected", action="store_true", help="resample graphs until connected"
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--clauses", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("classify", help="topology classes of minimal Steiner trees")
    _add_instance(p)
    p.add_argument("--limit", type=int, default=100000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # RecursionError: no routine recurses on the input's size any more (the
    # enumerator keeps its own stack and the topology code is built bottom-up),
    # so this is a last guard that turns a deep recursion into exit 1.
    # OverflowError: a size past sys.maxsize, where a list of that size is made
    try:
        if hasattr(args, "budget") and args.budget is None:
            args.budget = _default_budget()
        return args.func(args)
    except (GraphFormatError, ValueError, OSError, RecursionError, MemoryError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
