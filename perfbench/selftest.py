#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Shrinks every workload to a few requests and checks that:

- both trace modes print exactly the metrics BENCHMARK.json names, each
  with its unit, and one result object with the contracted keys;
- two runs of one seed count the same work, and a stored count that
  differs fails the run;
- a corrupted certificate, and a decision that contradicts the oracle,
  fail the correctness gate;
- without the library next to it the command exits nonzero and prints
  no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SEED = 7


def tiny(workload):
    return dataclasses.replace(workload, size=30)


def expect_gate_failure(workload, wrap, state_dir, what):
    try:
        bench.run_benchmark(workload, SEED, 0.1, 0, wrap=wrap, state_dir=state_dir)
    except bench.GateError as exc:
        print(f"ok   {what} fails the gate: {exc}")
        return
    raise AssertionError(f"{what} passed the gate")


def check_metrics(spec, result, lines, trace):
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= bench.MIN_REQUESTS
    assert isinstance(result["failed"], int) and result["failed"] == 0
    got = result["metrics"]
    assert set(got) == set(expected), set(got) ^ set(expected)
    for name, unit in expected.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
    bench.COUNT_BATCH = 10
    bench.MIN_REQUESTS = 20
    workloads = {name: tiny(w) for name, w in bench.WORKLOADS.items()}

    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state"
        for name, workload in workloads.items():
            counts = []
            for trace in (0, 1):
                result, lines = bench.run_benchmark(workload, SEED, 0.1, trace, state_dir=state)
                check_metrics(spec, result, lines, trace)
                counts.append([line for line in lines if line.startswith("work counts")])
            assert counts[0] == counts[1] and len(counts[0]) == 1, counts
            print(f"ok   {name}: every metric printed with its unit; counts repeat")

        stale = next(state.glob("kappa-random-*.json"))
        stored = json.loads(stale.read_text())
        stored["solver.expansions"] += 1
        stale.write_text(json.dumps(stored))
        expect_gate_failure(workloads["kappa-random"], None, state, "a changed work count")

        def corrupt_certificate(lib):
            def kappa_set_exact(graph, terminals, budget=None):
                result = lib.kappa_set_exact(graph, terminals, budget)
                first = result.certificate.trees[0]
                broken = lib.Tree(first.vertices, first.edges[:-1])
                cert = lib.TreeCertificate((broken,) + result.certificate.trees[1:])
                return dataclasses.replace(result, certificate=cert)

            return types.SimpleNamespace(**{**vars(lib), "kappa_set_exact": kappa_set_exact})

        def refute_everything(lib):
            def decide_kappa_at_least(graph, terminals, k, budget=None):
                result = lib.decide_kappa_at_least(graph, terminals, k, budget)
                return dataclasses.replace(result, outcome="refuted", certificate=None)

            return types.SimpleNamespace(
                **{**vars(lib), "decide_kappa_at_least": decide_kappa_at_least}
            )

        fresh = Path(tmp) / "fresh"
        expect_gate_failure(
            workloads["kappa-random"], corrupt_certificate, fresh, "a corrupted certificate"
        )
        expect_gate_failure(
            workloads["gadget-roundtrip"], refute_everything, fresh, "a wrong decision"
        )

        bare = Path(tmp) / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "kappa-random",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok   without the library: exit {proc.returncode}, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
