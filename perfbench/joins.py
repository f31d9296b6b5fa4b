"""The batch path: self joins of the workload collection and their checks."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import set_containment_join
from repro.core.framework import framework_join
from repro.core.order import build_order
from repro.core.parallel import parallel_join
from repro.core.partition import lcjoin
from repro.core.results import PairListSink
from repro.core.stats import JoinStats
from repro.data.collection import SetCollection
from repro.index.inverted import InvertedIndex
from repro.index.prefix_tree import PrefixTree
from repro.index.storage import HybridInvertedIndex
from repro.memory.meter import measure_peak
from repro.obs.registry import MetricsRegistry, use_registry

from hostref import pin
from spans import SpanRecorder

__all__ = [
    "JOIN_CONFIGS",
    "PairSummary",
    "summarise_pairs",
    "brute_force_failures",
    "timed_join",
    "peak_mb",
    "kernel_shape",
    "traced_layers",
]

#: End-to-end join metric -> ``set_containment_join`` keyword arguments.
JOIN_CONFIGS: Dict[str, Dict[str, Any]] = {
    "join_s": {},
    "join_hybrid_s": {"backend": "hybrid"},
    "framework_hybrid_s": {"method": "framework", "backend": "hybrid"},
    "join_workers2_s": {"workers": 2},
}

#: R records checked by brute force against S in every run.
BRUTE_FORCE_SAMPLE = 40


@dataclass
class PairSummary:
    count: int
    digest: str
    #: Sorted sids paired with each sampled rid.
    sampled: Dict[int, List[int]]


def summarise_pairs(pairs: Sequence[Tuple[int, int]], sample: Sequence[int]) -> PairSummary:
    """Count, SHA-256 of the sorted pairs, and the pairs of sampled rids."""
    flat = np.fromiter(
        itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
    )
    rids, sids = flat[0::2], flat[1::2]
    keys = np.sort((rids << 32) | sids)
    digest = hashlib.sha256(keys.tobytes()).hexdigest()
    wanted = np.isin(rids, np.asarray(sample, dtype=np.int64))
    sampled: Dict[int, List[int]] = {rid: [] for rid in sample}
    for rid, sid in zip(rids[wanted].tolist(), sids[wanted].tolist()):
        sampled[rid].append(sid)
    return PairSummary(len(pairs), digest, {r: sorted(s) for r, s in sampled.items()})


def brute_force_sample(collection: SetCollection, seed: int) -> List[int]:
    rng = random.Random(f"brute-force:{seed}")
    return sorted(rng.sample(range(len(collection)), min(BRUTE_FORCE_SAMPLE, len(collection))))


def brute_force_failures(collection: SetCollection, summary: PairSummary) -> int:
    """Sampled rids whose pairs differ from a scan of every S set."""
    supersets = [frozenset(rec) for rec in collection.records]
    failures = 0
    for rid, got in summary.sampled.items():
        r_set = frozenset(collection[rid])
        expected = [sid for sid, s_set in enumerate(supersets) if r_set <= s_set]
        if expected != got:
            failures += 1
    return failures


def timed_join(collection: SetCollection, kwargs: Dict[str, Any]) -> Tuple[float, List[Tuple[int, int]]]:
    """Raw seconds of one ``set_containment_join`` self join, and its pairs."""
    gc.collect()
    start = time.perf_counter()
    pairs = set_containment_join(collection, collection, **kwargs)
    return time.perf_counter() - start, pairs


def peak_mb(collection: SetCollection) -> float:
    """Traced peak of the default join, in MB (an untimed pass)."""
    gc.collect()
    __, peak = measure_peak(lambda: set_containment_join(collection, collection))
    return peak / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _kernel_routing(registry: MetricsRegistry) -> Dict[str, float]:
    """How the batched kernel routed its probes, from its counters."""
    probes = registry.value("kernel.probes")
    bitmap = registry.value("kernel.bitmap_probes")
    return {
        "probes": probes,
        "dense_lists": registry.value("index.hybrid_dense_lists"),
        "bitmap_share": _ratio(bitmap, probes),
        "bitmap_fallback_ratio": _ratio(registry.value("kernel.bitmap_fallbacks"), bitmap),
        "gallop_fallback_ratio": _ratio(
            registry.value("kernel.gallop_fallbacks"), registry.value("kernel.gallop_probes")
        ),
    }


def kernel_shape(collection: SetCollection) -> Dict[str, float]:
    """Probe routing of the batched hybrid kernel (an untimed pass)."""
    registry = MetricsRegistry()
    set_containment_join(
        collection, collection, method="framework", backend="hybrid",
        collect="count", metrics=registry,
    )
    return _kernel_routing(registry)


def traced_layers(
    collection: SetCollection,
    join_path: str,
    load: Callable[[str], SetCollection],
    rec: SpanRecorder,
    summarise: Callable[[Sequence[Tuple[int, int]]], PairSummary],
    cpus: Sequence[int],
) -> Tuple[Dict[str, float], List[PairSummary], Dict[str, float]]:
    """Call each batch layer's public functions under spans.

    The parallel join runs on every CPU in ``cpus``. Returns ``(raw
    per-layer values, summaries of every pair list produced, raw untraced
    reference times)``. Times are raw seconds; the caller normalises them.
    """
    out: Dict[str, float] = {}
    summaries: List[PairSummary] = []
    gc.collect()
    with rec.span("data.io.load"):
        load(join_path)
    out["data.io.load_s"] = rec.spans[-1].duration

    # Untraced reference for the overhead: the same default join as join_s.
    untraced, pairs = timed_join(collection, {})
    summaries.append(summarise(pairs))
    del pairs

    gc.collect()
    stats = JoinStats()
    sink = PairListSink()
    # The index layer counts its own local builds; the join counts the
    # partitions it processed locally.
    registry = MetricsRegistry()
    with use_registry(registry), rec.span("join", request=0) as root:
        universe = collection.max_element() + 1
        with rec.span("core.order.build"):
            order = build_order(collection, universe=universe)
        with rec.span("index.inverted.build"):
            index = InvertedIndex.build(collection)
        with rec.span("index.prefix_tree.build"):
            tree = PrefixTree.build(collection, order)
        with rec.span("core.partition.lcjoin"):
            lcjoin(collection, collection, sink, order=order, index=index, tree=tree, stats=stats)
    summaries.append(summarise(sink.pairs))
    del sink
    out["core.order.build_s"] = rec.total("core.order.build")
    out["index.inverted.build_s"] = rec.total("index.inverted.build")
    out["index.prefix_tree.build_s"] = rec.total("index.prefix_tree.build")
    out["index.prefix_tree.nodes"] = tree.num_nodes
    out["core.partition.lcjoin_s"] = rec.total("core.partition.lcjoin")
    out["index.inverted.local_builds"] = registry.value("index.local_builds")
    out["core.partition.partitions_local"] = stats.partitions_local
    out["core.partition.partitions_global"] = stats.partitions_global
    out["core.tree_join.binary_searches"] = stats.binary_searches
    out["core.tree_join.rounds"] = stats.rounds
    out["core.tree_join.entries_touched"] = stats.entries_touched
    out["trace.join_overhead"] = root.duration / untraced - 1.0

    gc.collect()
    sink = PairListSink()
    tree = PrefixTree.build(collection, order)
    with rec.span("core.partition.lcjoin_hybrid"):
        lcjoin(collection, collection, sink, order=order, index=index, tree=tree, backend="hybrid")
    out["core.partition.lcjoin_hybrid_s"] = rec.total("core.partition.lcjoin_hybrid")
    summaries.append(summarise(sink.pairs))
    del sink, tree

    gc.collect()
    with rec.span("index.storage.hybrid_build"):
        hybrid = HybridInvertedIndex.build(collection)
    out["index.storage.hybrid_build_s"] = rec.total("index.storage.hybrid_build")
    out["index.storage.dense_lists"] = hybrid.num_dense
    out["index.storage.hybrid_mb"] = hybrid.nbytes() / 1e6

    gc.collect()
    registry = MetricsRegistry()
    sink = PairListSink()
    with use_registry(registry), rec.span("core.framework.probe_hybrid"):
        framework_join(collection, collection, sink, index=hybrid, backend="hybrid")
    out["core.framework.probe_hybrid_s"] = rec.total("core.framework.probe_hybrid")
    routing = _kernel_routing(registry)
    for key in ("probes", "bitmap_share", "bitmap_fallback_ratio", "gallop_fallback_ratio"):
        out[f"index.kernels.{key}"] = routing[key]
    summaries.append(summarise(sink.pairs))
    del sink, hybrid

    gc.collect()
    with rec.span("core.results.count"):
        count = set_containment_join(collection, collection, collect="count")
    gc.collect()
    with rec.span("core.results.pairs"):
        pairs = set_containment_join(collection, collection)
    out["core.results.sink_s"] = rec.total("core.results.pairs") - rec.total("core.results.count")
    out["core.results.pairs"] = count
    summaries.append(summarise(pairs))
    del pairs

    gc.collect()
    with pin(set(cpus)), rec.span("core.parallel.join"):
        pairs, report = parallel_join(collection, collection, workers=2, return_report=True)
    out["core.parallel.join_s"] = rec.total("core.parallel.join")
    out["core.parallel.speedup"] = untraced / out["core.parallel.join_s"]
    out["core.supervisor.attempts"] = report.total_attempts
    out["core.supervisor.retries"] = report.total_retries
    out["core.supervisor.fallbacks"] = report.fallbacks
    summaries.append(summarise(pairs))
    del pairs
    return out, summaries, {"join_s": untraced}
