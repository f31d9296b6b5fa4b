"""Resident-service benchmarks: publish/match latency at 1M subscriptions.

The headline cell loads one million keyword subscriptions into the
resident broker (``REPRO_BENCH_SERVE_SUBS`` overrides the population for
quick CI smoke runs), forces the subscription-trie build, then measures
steady-state publish latency and throughput in-process — the socket cell
measures the protocol overhead separately at small scale so the two
costs stay attributable. Point-query latency is measured against an
:class:`IncrementalIndex` over a synthetic Zipf collection.

Emits ``benchmarks/results/BENCH_serve.json`` with the loose latency
gates asserted at the end (generous: single-core pure Python).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.index.storage import IncrementalIndex
from repro.serve import JoinServer, ServeClient
from repro.serve.state import LatencyRecorder, ServeState

from conftest import synthetic_dataset

#: Resident subscription population of the headline cell.
NUM_SUBS = int(os.environ.get("REPRO_BENCH_SERVE_SUBS", "1000000"))
#: Keyword vocabulary the subscriptions draw from.
VOCAB = 50_000
#: Measured operations per latency cell (after warmup).
MEASURED = 300
WARMUP = 20

QUERY_PARAMS = dict(
    cardinality=20_000, avg_set_size=8, num_elements=1_000, z=0.6, seed=7
)

#: Loose wall-clock gates (milliseconds). Single-core pure Python; the
#: point is regression detection, not absolute speed.
GATES_MS = {
    "publish_p99_ms": 1_000.0,
    "query_p99_ms": 1_000.0,
    "socket_rtt_p99_ms": 250.0,
}

_results = {}


def _keywords(rng, k):
    # Mild skew: half the draws land in a hot head, half anywhere, so
    # publishes cross real sharing in the trie without matching everything.
    return [
        f"k{rng.randint(0, 199)}" if rng.random() < 0.5
        else f"k{rng.randint(0, VOCAB - 1)}"
        for _ in range(k)
    ]


def _measure(fn, n=MEASURED, warmup=WARMUP):
    rec = LatencyRecorder(capacity=n)
    for _ in range(warmup):
        fn()
    started = time.perf_counter()
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        rec.record(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    summary = rec.summary()
    summary["ops_per_second"] = n / wall if wall else 0.0
    return summary


def test_publish_at_scale(benchmark):
    """The headline cell: publish latency with NUM_SUBS resident subs."""
    rng = random.Random(42)
    state = ServeState()

    def job():
        build_start = time.perf_counter()
        for _ in range(NUM_SUBS):
            state.broker.subscribe(frozenset(_keywords(rng, rng.randint(1, 4))))
        subscribe_seconds = time.perf_counter() - build_start
        # The subscription trie is built by the subscribes above; this
        # times the first publish (reported as ``tree_build_seconds``).
        tree_start = time.perf_counter()
        state.handle("publish", {"keywords": _keywords(rng, 12)}, None)
        tree_seconds = time.perf_counter() - tree_start

        matched = [0]

        def one_publish():
            out = state.handle(
                "publish", {"keywords": _keywords(rng, 12)}, None
            )
            matched[0] += out["count"]

        summary = _measure(one_publish)
        _results["publish"] = {
            "subscriptions": NUM_SUBS,
            "vocab": VOCAB,
            "subscribe_seconds": round(subscribe_seconds, 3),
            "tree_build_seconds": round(tree_seconds, 3),
            "trie_nodes": state.broker.trie.tree.num_nodes,
            "measured_publishes": MEASURED,
            "total_matched": matched[0],
            "publish_p50_ms": round(summary["p50_ms"], 4),
            "publish_p99_ms": round(summary["p99_ms"], 4),
            "publish_mean_ms": round(summary["mean_ms"], 4),
            "publishes_per_second": round(summary["ops_per_second"], 1),
        }

    benchmark.pedantic(job, rounds=1, iterations=1)
    assert _results["publish"]["total_matched"] >= 0


def test_point_query_latency(benchmark):
    """Superset point queries against the incremental index."""
    data = synthetic_dataset(**QUERY_PARAMS)
    rng = random.Random(3)

    def job():
        index = IncrementalIndex(data)
        probes = [list(data.records[rng.randrange(len(data))])
                  for _ in range(MEASURED + WARMUP)]
        hits = [0]
        cursor = iter(probes)

        def one_query():
            hits[0] += len(index.supersets_of(next(cursor)))

        summary = _measure(one_query)
        _results["query"] = {
            "resident_records": len(index),
            "measured_queries": MEASURED,
            "total_matches": hits[0],
            "query_p50_ms": round(summary["p50_ms"], 4),
            "query_p99_ms": round(summary["p99_ms"], 4),
            "queries_per_second": round(summary["ops_per_second"], 1),
        }

    benchmark.pedantic(job, rounds=1, iterations=1)
    # Every probed record contains itself.
    assert _results["query"]["total_matches"] >= MEASURED


def test_socket_roundtrip(benchmark, tmp_path):
    """Protocol + event-loop overhead: query round trips over the socket."""
    data = synthetic_dataset(**QUERY_PARAMS)
    state = ServeState(data.sample(0.1, seed=0))
    path = str(tmp_path / "bench.sock")
    server = JoinServer(state, socket_path=path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    rng = random.Random(9)

    def job():
        with ServeClient(socket_path=path) as client:
            def one_rtt():
                client.query(list(data.records[rng.randrange(len(data))]))

            summary = _measure(one_rtt, n=MEASURED)
            _results["socket"] = {
                "resident_records": len(state.index),
                "measured_roundtrips": MEASURED,
                "socket_rtt_p50_ms": round(summary["p50_ms"], 4),
                "socket_rtt_p99_ms": round(summary["p99_ms"], 4),
                "roundtrips_per_second": round(summary["ops_per_second"], 1),
            }
            client.shutdown()

    benchmark.pedantic(job, rounds=1, iterations=1)
    thread.join(timeout=10)
    server.close()
    assert _results["socket"]["roundtrips_per_second"] > 0


def test_serve_report(benchmark):
    """Assert the loose gates and write BENCH_serve.json."""
    for cell in ("publish", "query", "socket"):
        if cell not in _results:
            pytest.skip("cells did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    observed = {
        "publish_p99_ms": _results["publish"]["publish_p99_ms"],
        "query_p99_ms": _results["query"]["query_p99_ms"],
        "socket_rtt_p99_ms": _results["socket"]["socket_rtt_p99_ms"],
    }
    out_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_serve.json")
    report = {
        "figure": "serve_resident",
        "subscriptions": NUM_SUBS,
        "gates_ms": GATES_MS,
        "observed_ms": observed,
        "cells": _results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for name, ceiling in GATES_MS.items():
        assert observed[name] < ceiling, (name, observed[name], ceiling)
