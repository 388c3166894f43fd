#!/usr/bin/env python3
"""Closed-loop benchmark of the treeconn library.

One client in one process sends requests from a fixed list made from
--seed, each only after the previous one has finished, for --seconds
seconds.  Each request does in-process what the matching CLI subcommand
does: it parses serialized input, calls the library and serializes the
result.  Every answer is checked against independent oracles after the
timed window; a wrong or nondeterministic answer exits with status 1 and
prints no result.

    python3 perfbench/run.py --workload kappa-random --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, from a
run that records a span around every library call.  The lines before it
list every measured value with its unit and the exact work counts.
perfbench/README.md describes the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# exact work counts of earlier runs, keyed by workload, seed, parameters and
# library source
STATE_DIR = ROOT / "perfbench" / ".state"

SETUP_REPS = 5
# the first COUNT_BATCH requests of the list are the warm-up; the exact work
# counts that must repeat between runs of one seed are taken over them
COUNT_BATCH = 100
# at least this many timed requests, so that ten samples lie beyond p90
MIN_REQUESTS = 100


class GateError(Exception):
    """A wrong or nondeterministic answer."""


# ---------------------------------------------------------------------------
# Machine-speed calibration
#
# On a shared host the speed of one core drifts by a fifth or more over
# minutes, which moves every raw timing by as much from run to run.  A fixed
# reference computation, sharing no code with the library, is timed every
# PROBE_EVERY_S between requests.  Each timed duration is scaled by
# REF_NOMINAL_S / (median of the reference times around it), i.e. reported
# as if the machine ran the reference in REF_NOMINAL_S.  The raw timings
# are printed as well.
# ---------------------------------------------------------------------------

REF_NOMINAL_S = 0.0003  # about the reference's time on an idle 2.0 GHz Xeon VM core
PROBE_EVERY_S = 0.025

_REF_ADJ = tuple(
    ((1 << ((v + 1) % 16)) | (1 << ((v + 15) % 16)) | (1 << ((v * 5 + 3) % 16))) & ~(1 << v)
    for v in range(16)
)


def reference_op() -> int:
    """Bitmask breadth-first searches and dict updates, like the library's
    inner loops but independent of it."""
    acc = 0
    for _ in range(3):
        for start in range(16):
            seen = frontier = 1 << start
            while frontier:
                nxt = 0
                work = frontier
                while work:
                    low = work & -work
                    work ^= low
                    nxt |= _REF_ADJ[low.bit_length() - 1]
                frontier = nxt & ~seen
                seen |= frontier
            acc += seen.bit_count()
        table: dict[int, int] = {}
        for i in range(300):
            key = (i * 7919) % 211
            table[key] = table.get(key, 0) + i
        acc += sum(sorted(table.values())[:10])
    return acc


class SpeedProbe:
    """Times reference_op at most every PROBE_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []  # per request: probe samples taken before it ended
        self.spent = 0.0
        self.next_at = 0.0

    def sample(self) -> None:
        start = perf_counter()
        reference_op()
        stop = perf_counter()
        self.samples.append(stop - start)
        self.spent += stop - start
        self.next_at = stop + PROBE_EVERY_S

    def scale_at(self, mark: int, reach: int = 4) -> float:
        """Factor turning a raw duration that ended after `mark` samples into
        a calibrated one, from the 2 * reach samples around it."""
        near = self.samples[max(0, mark - reach) : mark + reach]
        return REF_NOMINAL_S / statistics.median(near)


# ---------------------------------------------------------------------------
# Workloads: generate (setup), encode (setup), serve (timed), check (gate)
# ---------------------------------------------------------------------------


def _gen_graph_terminals(lib, rng, p, i):
    graph = lib.random_connected_graph(rng, p["order"], p["prob"])
    return graph, lib.random_terminals(rng, graph, p["terminals"][i % len(p["terminals"])])


def _encode_graph_terminals(lib, inst):
    graph, terminals = inst
    return lib.serialize_graph(graph), ",".join(map(str, terminals.members))


def _serve_kappa_random(lib, call, p, item):
    graph = call(lib.parse_graph, item[0])
    terminals = call(lib.parse_terminals, item[1])
    result = call(lib.kappa_set_exact, graph, terminals, p["budget"])
    cert = call(lib.serialize_certificate, result.certificate)
    exact = result.status == "exact"
    return {
        "out": json.dumps(
            {"value": result.value, "status": result.status, "expansions": result.expansions},
            sort_keys=True,
        ),
        "cert": cert,
        "failed": not exact,
        "outcome": "exact" if exact else "unknown",
        "expansions": result.expansions,
        "bytes": len(cert),
    }


def _check_kappa_random(lib, p, item, rec, idx):
    if rec["failed"]:
        return
    graph = lib.parse_graph(item[0])
    terminals = lib.parse_terminals(item[1])
    value = json.loads(rec["out"])["value"]
    _check_certificate(lib, graph, terminals, rec["cert"], value)
    members = terminals.members
    if len(members) == 2:
        flow = lib.menger_pair(graph, *members)
        if flow != value:
            raise GateError(f"kappa {value} != menger_pair {flow} for S={members}")


def _check_certificate(lib, graph, terminals, cert_text, size):
    cert = lib.parse_certificate(cert_text)
    report = lib.verify_certificate(graph, terminals, cert)
    if not report.valid:
        raise GateError(f"certificate rejected: {report.violations[0]}")
    if len(cert) != size:
        raise GateError(f"certificate has {len(cert)} trees, answer claims {size}")


def _gen_gadget(lib, rng, p, i):
    kind, a, b = p["mix"][i % len(p["mix"])]
    if kind == "3sat":
        return kind, lib.random_cnf(rng, a, b)
    return kind, lib.random_3dm(rng, a, b)


def _encode_gadget(lib, inst):
    kind, source = inst
    return kind, lib.write_dimacs(source) if kind == "3sat" else lib.serialize_3dm(source)


def _serve_gadget(lib, call, p, item):
    kind, text = item
    if kind == "3sat":
        source = call(lib.parse_dimacs, text)
        reduced = call(lib.reduce_3sat, source)
    else:
        source = call(lib.parse_3dm, text)
        reduced = call(lib.reduce_3dm, source)
    result = call(
        lib.decide_kappa_at_least, reduced.graph, reduced.terminals, reduced.threshold, p["budget"]
    )
    summary = {"outcome": result.outcome, "expansions": result.expansions}
    cert = ""
    if result.certificate is not None:
        cert = call(lib.serialize_certificate, result.certificate)
        if kind == "3sat":
            assignment = call(lib.trees_to_assignment, source, result.certificate)
            summary["witness"] = [int(v) for v in assignment.values]
        else:
            matching = call(lib.trees_to_matching, source, result.certificate)
            summary["witness"] = sorted(matching.chosen)
    return {
        "out": json.dumps(summary, sort_keys=True),
        "cert": cert,
        "failed": result.outcome == "unknown",
        "outcome": result.outcome,
        "expansions": result.expansions,
        "bytes": len(cert),
    }


def _check_gadget(lib, p, item, rec, idx):
    if rec["failed"]:
        return
    kind, text = item
    summary = json.loads(rec["out"])
    if kind == "3sat":
        source = lib.parse_dimacs(text)
        reduced = lib.reduce_3sat(source)
        yes = lib.solve_sat_brute(source) is not None
    else:
        source = lib.parse_3dm(text)
        reduced = lib.reduce_3dm(source)
        yes = lib.solve_3dm_brute(source) is not None
    if (rec["outcome"] == "certificate") != yes:
        raise GateError(f"{kind}: solver says {rec['outcome']}, oracle says {'yes' if yes else 'no'}")
    if not yes:
        return
    _check_certificate(lib, reduced.graph, reduced.terminals, rec["cert"], reduced.threshold)
    witness = summary["witness"]
    if kind == "3sat":
        ok = lib.assignment_satisfies(source, lib.Assignment(tuple(bool(v) for v in witness)))
    else:
        ok = lib.matching_is_perfect(source, lib.Matching(frozenset(witness)))
    if not ok:
        raise GateError(f"{kind}: decoded witness {witness} does not solve the instance")


def _serve_topology(lib, call, p, item):
    graph = call(lib.parse_graph, item[0])
    terminals = call(lib.parse_terminals, item[1])
    result = call(lib.enumerate_steiner_trees, graph, terminals, p["limit"])
    counts: dict[str, int] = {}
    for tree in result.trees:
        code = call(lib.classify_topology, tree, terminals).code
        counts[code] = counts.get(code, 0) + 1
    return {
        "out": json.dumps(
            {
                "classes": counts,
                "distinct": len(counts),
                "trees": len(result.trees),
                "truncated": result.truncated,
            },
            sort_keys=True,
        ),
        "failed": result.truncated,
        "trees": len(result.trees),
        "classes": len(counts),
        "truncated": int(result.truncated),
    }


def _check_topology(lib, p, item, rec, idx):
    summary = json.loads(rec["out"])
    if sum(summary["classes"].values()) != summary["trees"]:
        raise GateError("topology class sizes do not add up to the tree count")
    if rec["failed"] or idx % 16:
        return
    expected = lib.count_topologies(lib.parse_graph(item[0]), lib.parse_terminals(item[1]))
    if summary["distinct"] != expected:
        raise GateError(f"{summary['distinct']} topology classes, count_topologies says {expected}")


def _gen_kappa_k(lib, rng, p, i):
    return lib.random_connected_graph(rng, p["order"], p["prob"])


def _encode_kappa_k(lib, graph):
    return (lib.serialize_graph(graph),)


def _serve_kappa_k(lib, call, p, item):
    graph = call(lib.parse_graph, item[0])
    result = call(lib.kappa_k_graph, graph, p["k"], p["budget"])
    subset = list(result.subset.members) if result.subset is not None else None
    exact = result.status == "exact"
    return {
        "out": json.dumps(
            {
                "value": result.value,
                "status": result.status,
                "subset": subset,
                "expansions": result.expansions,
            },
            sort_keys=True,
        ),
        "failed": not exact,
        "outcome": "exact" if exact else "unknown",
        "expansions": result.expansions,
    }


def _check_kappa_k(lib, p, item, rec, idx):
    if rec["failed"]:
        return
    summary = json.loads(rec["out"])
    graph = lib.parse_graph(item[0])
    subset, value = summary["subset"], summary["value"]
    if len(subset) != p["k"]:
        raise GateError(f"minimizing subset {subset} does not have {p['k']} members")
    at_subset = lib.kappa_set_exact(graph, subset)
    if at_subset.value != value:
        raise GateError(f"kappa_k {value} but kappa{tuple(subset)} = {at_subset.value}")
    _check_certificate(
        lib, graph, subset, lib.serialize_certificate(at_subset.certificate), value
    )
    if idx % 25 == 0:
        scan = min(
            lib.kappa_set_exact(graph, combo).value
            for combo in itertools.combinations(range(graph.order), p["k"])
        )
        if scan != value:
            raise GateError(f"kappa_k {value} but the minimum over all subsets is {scan}")


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    size: int  # requests in the list; the timed loop cycles through it
    generate: Callable
    encode: Callable
    serve: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kappa-random",
            {"order": 10, "prob": 0.4, "terminals": [2, 3, 4], "budget": 1_000_000},
            10_000,
            _gen_graph_terminals,
            _encode_graph_terminals,
            _serve_kappa_random,
            _check_kappa_random,
        ),
        Workload(
            "gadget-roundtrip",
            {
                "mix": [["3sat", 3, 4], ["3dm", 3, 5], ["3sat", 4, 4], ["3dm", 2, 4]],
                "budget": 1_000_000,
            },
            6_000,
            _gen_gadget,
            _encode_gadget,
            _serve_gadget,
            _check_gadget,
        ),
        Workload(
            "topology-enum",
            {"order": 8, "prob": 0.35, "terminals": [4, 5], "limit": 20_000},
            4_000,
            _gen_graph_terminals,
            _encode_graph_terminals,
            _serve_topology,
            _check_topology,
        ),
        Workload(
            "kappa-k-scan",
            {"order": 7, "prob": 0.8, "k": 3, "budget": 10_000_000},
            1_000,
            _gen_kappa_k,
            _encode_kappa_k,
            _serve_kappa_k,
            _check_kappa_k,
        ),
    )
}


# ---------------------------------------------------------------------------
# Set-up, tracing and the closed loop
# ---------------------------------------------------------------------------


def _import_library():
    for name in [m for m in sys.modules if m == "treeconn" or m.startswith("treeconn.")]:
        del sys.modules[name]
    lib = importlib.import_module("treeconn")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"treeconn imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload: Workload, seed: int):
    """Import, generate and serialize the request list SETUP_REPS times.

    Returns the library, the serialized requests, the median set-up time
    raw and calibrated, and the median raw time spent in the generators.
    Each repetition is calibrated by the ten probe samples before and the
    ten after it.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    probe = SpeedProbe()
    for _ in range(10):
        probe.sample()
    totals, gens, scales, first = [], [], [], None
    for rep in range(SETUP_REPS):
        gc.collect()  # each repetition starts from the same collector state
        start = perf_counter()
        lib = _import_library()
        rng = random.Random(f"{workload.name}:{seed}")
        gen_start = perf_counter()
        instances = [workload.generate(lib, rng, workload.params, i) for i in range(workload.size)]
        gens.append(perf_counter() - gen_start)
        items = [workload.encode(lib, inst) for inst in instances]
        totals.append(perf_counter() - start)
        first = first or items
        if items != first:
            raise GateError("the same seed generated different requests")
        del instances
        for _ in range(10):
            probe.sample()
        scales.append(probe.scale_at(10 * (rep + 1), reach=10))
    setup_s = statistics.median(totals)
    setup_cal = statistics.median(t * f for t, f in zip(totals, scales))
    return lib, items, setup_s, setup_cal, statistics.median(gens)


def _direct(fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory: (span id, parent id, request id, name, start, end).

    A request span has parent -1; each library call made while serving it
    is a child span named "<module>.<function>".
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = -1
        self.parent = -1

    def begin(self, request_id: int) -> None:
        self.request = request_id
        self.parent = len(self.spans)
        self.spans.append(None)  # filled in by end()

    def end(self, start: float, stop: float) -> None:
        self.spans[self.parent] = (self.parent, -1, self.request, "request", start, stop)

    def call(self, fn, *args):
        start = perf_counter()
        out = fn(*args)
        stop = perf_counter()
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__
        self.spans.append((len(self.spans), self.parent, self.request, name, start, stop))
        return out

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Busy time per span name and self time per layer.

        Library calls are leaves, so a layer's self time is its spans'
        total; "harness" is request time not covered by any child span.
        """
        by_name: dict[str, float] = {}
        self_time: dict[str, float] = {"harness": 0.0}
        for _, parent, _, name, start, stop in self.spans:
            took = stop - start
            if parent < 0:
                self_time["harness"] += took
                continue
            by_name[name] = by_name.get(name, 0.0) + took
            layer = name.partition(".")[0]
            self_time[layer] = self_time.get(layer, 0.0) + took
            self_time["harness"] -= took
        return by_name, self_time


def serve_requests(
    workload, lib, items, indices, call, tracer=None, deadline=None, probe=None
):
    """Serve items[i] for i in indices, each after the previous one returned.

    With a deadline, stop after the first request that ends past it, once
    MIN_REQUESTS have been served.  The probe, if any, is sampled between
    requests.  Returns (index, record) pairs and latencies in seconds.
    """
    served, latencies = [], []
    serve, params = workload.serve, workload.params
    for i in indices:
        if tracer is not None:
            tracer.begin(i)
        start = perf_counter()
        rec = serve(lib, call, params, items[i])
        stop = perf_counter()
        if tracer is not None:
            tracer.end(start, stop)
        served.append((i, rec))
        latencies.append(stop - start)
        if deadline is not None and stop >= deadline and len(latencies) >= MIN_REQUESTS:
            break
        if probe is not None:
            probe.marks.append(len(probe.samples))
            if stop >= probe.next_at:
                probe.sample()
    return served, latencies


# ---------------------------------------------------------------------------
# Gate, work counts and the run
# ---------------------------------------------------------------------------


def gate(workload, lib, items, served):
    """Check every distinct answer; a repeated request must answer identically."""
    first: dict[int, dict] = {}
    for i, rec in served:
        seen = first.setdefault(i, rec)
        if seen is not rec and seen != rec:
            raise GateError(f"request {i} answered differently on a repeat")
    for i, rec in first.items():
        workload.check(lib, workload.params, items[i], rec, i)


def work_counts(records) -> dict[str, int]:
    counts = {
        "solver.expansions": 0,
        "solver.outcome.exact": 0,
        "solver.outcome.certificate": 0,
        "solver.outcome.refuted": 0,
        "solver.outcome.unknown": 0,
        "steiner.trees": 0,
        "steiner.truncated": 0,
        "steiner.classes": 0,
        "certificates.bytes": 0,
    }
    for rec in records:
        counts["solver.expansions"] += rec.get("expansions", 0)
        if "outcome" in rec:
            counts["solver.outcome." + rec["outcome"]] += 1
        counts["steiner.trees"] += rec.get("trees", 0)
        counts["steiner.truncated"] += rec.get("truncated", 0)
        counts["steiner.classes"] += rec.get("classes", 0)
        counts["certificates.bytes"] += rec.get("bytes", 0)
    return counts


def _digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(workload, seed, counts, state_dir=STATE_DIR):
    """Fail when an earlier run of the same seed, parameters and library
    source counted other work."""
    key = hashlib.sha256(
        json.dumps([workload.params, workload.size, COUNT_BATCH], sort_keys=True).encode()
    )
    for path in sorted(SRC.rglob("*.py")):
        key.update(path.read_bytes())
    key = key.hexdigest()[:12]
    path = state_dir / f"{workload.name}-{seed}-{key}.json"
    if path.exists():
        try:
            earlier = json.loads(path.read_text())
        except json.JSONDecodeError:
            earlier = None
        if earlier is not None and earlier != counts:
            raise GateError(f"work counts differ from an earlier run of seed {seed}: {earlier} vs {counts}")
    state_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_benchmark(workload, seed, seconds, trace, wrap=None, state_dir=STATE_DIR):
    """Run one workload; returns (result object, detail lines).

    `wrap(lib)` may replace the library namespace the requests call; the
    self-test uses it to inject wrong answers.
    """
    lib, items, setup_s, setup_cal, gen_s = setup(workload, seed)
    # the request list is the client's, not the library's: keep it out of
    # the collector's scans, which would otherwise grow with the list
    gc.collect()
    gc.freeze()
    if wrap is not None:
        lib = wrap(lib)
    warm = range(min(COUNT_BATCH, len(items)))

    warm_start = perf_counter()
    warmed, _ = serve_requests(workload, lib, items, warm, _direct)
    warm_s = perf_counter() - warm_start
    warm_records = [rec for _, rec in warmed]

    # the timed window: one client cycling through the list after the warm-up
    tracer = Tracer() if trace else None
    call = tracer.call if trace else _direct
    cycle = (i % len(items) for i in itertools.count(len(warm)))
    probe = SpeedProbe()
    begin = perf_counter()
    window, latencies = serve_requests(
        workload, lib, items, cycle, call, tracer, deadline=begin + seconds, probe=probe
    )
    busy = perf_counter() - begin - probe.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answered = warmed + window
    if trace:
        # the warm-up requests again, traced, to price the tracing itself
        retracer = Tracer()
        retrace_start = perf_counter()
        again, _ = serve_requests(workload, lib, items, warm, retracer.call, retracer)
        overhead = (perf_counter() - retrace_start - warm_s) / warm_s
        answered += again

    check_start = perf_counter()
    gate(workload, lib, items, answered)
    counts = work_counts(warm_records)
    compare_with_earlier_runs(workload, seed, counts, state_dir)
    check_s = perf_counter() - check_start

    attempted = len(window)
    failed = sum(1 for _, rec in window if rec["failed"])
    lat_ms = [took * 1000 for took in latencies]
    cal_ms = [ms * probe.scale_at(mark) for ms, mark in zip(lat_ms, probe.marks)]
    raw = {
        "throughput_rps": attempted / busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": _quantile(lat_ms, 90),
    }
    metrics = {
        "throughput_rps": (attempted / sum(cal_ms) * 1000, "1/s"),
        "latency_p50_ms": (statistics.median(cal_ms), "ms"),
        "latency_p90_ms": (_quantile(cal_ms, 90), "ms"),
        "answered_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_cal, "s"),
    }
    details = {
        **{f"raw.{name}": (value, metrics[name][1]) for name, value in raw.items()},
        "raw.setup_s": (setup_s, "s"),
        "raw.latency_p99_ms": (_quantile(lat_ms, 99), "ms"),
        "speed.reference_ms": (statistics.median(probe.samples) * 1000, "ms"),
        "speed.probes": (len(probe.samples), "count"),
        "failed_share": (failed / attempted, "share"),
        "requests": (attempted, "count"),
        "distinct_requests": (len({i for i, _ in window}), "count"),
        "window_busy_s": (busy, "s"),
        "warmup_s": (warm_s, "s"),
    }
    if trace:
        by_name, self_time = tracer.layer_times()

        def busy_in(prefix):
            return sum(t for n, t in by_name.items() if n.startswith(prefix))

        window_counts = work_counts(rec for _, rec in window)
        solver_s = busy_in("solver.")
        solver_calls = sum(
            window_counts["solver.outcome." + o] for o in ("exact", "certificate", "refuted", "unknown")
        )
        enumerate_s = busy_in("steiner.enumerate_steiner_trees")
        metrics = {name: (value, "count") for name, value in counts.items()}
        metrics["certificates.bytes"] = (counts["certificates.bytes"], "B")
        metrics["generators.gen_s"] = (gen_s, "s")
        metrics["check_s"] = (check_s, "s")
        metrics["trace_overhead_share"] = (overhead, "share")
        details.update(
            {
                "solver.busy_s": (solver_s, "s"),
                "solver.expansions_per_s": (
                    window_counts["solver.expansions"] / solver_s if solver_s else 0.0,
                    "1/s",
                ),
                "solver.decided_share": (
                    1 - window_counts["solver.outcome.unknown"] / solver_calls if solver_calls else 0.0,
                    "share",
                ),
                "steiner.enumerate_s": (enumerate_s, "s"),
                "steiner.trees_per_s": (
                    window_counts["steiner.trees"] / enumerate_s if enumerate_s else 0.0,
                    "1/s",
                ),
                "steiner.classify_s": (busy_in("steiner.classify_topology"), "s"),
                "reductions.parse_s": (busy_in("reductions.parse_"), "s"),
                "reductions.reduce_s": (busy_in("reductions.reduce_"), "s"),
                "reductions.decode_s": (busy_in("reductions.trees_to_"), "s"),
                "graph.parse_s": (busy_in("graph.parse_"), "s"),
                "certificates.serialize_s": (busy_in("certificates.serialize_"), "s"),
                "spans": (len(tracer.spans), "count"),
            }
        )
        for layer, took in sorted(self_time.items()):
            details[f"self_s.{layer}"] = (took, "s")
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in {**metrics, **details}.items()]
    lines.append(
        "work counts over the warm-up requests "
        + json.dumps(
            {"workload": workload.name, "seed": seed, "requests": len(warm), **counts,
             "digest": _digest(warm_records)},
            sort_keys=True,
        )
    )
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, lines = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except GateError as exc:
        print(f"perfbench: incorrect answer: {exc}", file=sys.stderr)
        return 1
    except ImportError as exc:
        print(f"perfbench: cannot import treeconn from {SRC}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
