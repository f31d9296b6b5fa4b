"""Tests for the data partitioning methods (paper §V)."""

from __future__ import annotations

import pytest

from repro import JoinStats
from repro.core.api import set_containment_join
from repro.core.order import build_order
from repro.core.partition import all_partition_join, lcjoin, partition_sizes
from repro.core.results import PairListSink
from repro.core.verify import ground_truth
from repro.data.collection import SetCollection
from repro.data.synthetic import generate_zipf
from repro.index.prefix_tree import PrefixTree
from repro.obs.registry import MetricsRegistry, use_registry

from conftest import ARRAY_LAYOUTS, random_instance


@pytest.mark.parametrize("join", [all_partition_join, lcjoin])
class TestPartitionJoins:
    def test_matches_ground_truth(self, join):
        for seed in range(40):
            r, s = random_instance(seed)
            sink = PairListSink()
            join(r, s, sink)
            assert sink.sorted_pairs() == sorted(ground_truth(r, s))

    def test_self_join(self, join, small_zipf):
        sink = PairListSink()
        join(small_zipf, small_zipf, sink)
        pairs = set(sink.pairs)
        assert len(pairs) == len(sink.pairs)  # no duplicates
        # Reflexive pairs are always present in a self join.
        assert all((i, i) in pairs for i in range(len(small_zipf)))

    def test_empty_sides(self, join):
        empty = SetCollection([], validate=False)
        data = SetCollection([[1]])
        for r, s in [(empty, data), (data, empty)]:
            sink = PairListSink()
            join(r, s, sink)
            assert sink.pairs == []

    def test_no_early_termination_variant(self, join):
        r, s = random_instance(7)
        sink = PairListSink()
        join(r, s, sink, early_termination=False)
        assert sink.sorted_pairs() == sorted(ground_truth(r, s))


class TestPartitionSizes:
    def test_counts_sets_per_anchor(self):
        r = SetCollection([[0, 1], [0, 2], [1, 2], [1]])
        s = SetCollection([[0, 1, 2]])
        order = build_order(s, kind="element_id")
        tree = PrefixTree.build(r, order)
        sizes = {anchor: n for n, anchor, __ in partition_sizes(tree)}
        assert sizes == {0: 2, 1: 2}

    def test_duplicate_sets_counted_individually(self):
        r = SetCollection([[3, 4]] * 5)
        s = SetCollection([[3, 4]])
        order = build_order(s, universe=5)
        tree = PrefixTree.build(r, order)
        (count, __, __), = partition_sizes(tree)
        assert count == 5


class TestAdaptiveSwitch:
    def test_patience_controls_switch(self, small_zipf):
        """With infinite patience LCJoin degenerates to all-global; results
        must be identical either way."""
        eager, lazy = JoinStats(), JoinStats()
        s1, s2 = PairListSink(), PairListSink()
        lcjoin(small_zipf, small_zipf, s1, patience=1, stats=eager)
        lcjoin(small_zipf, small_zipf, s2, patience=10**9, stats=lazy)
        assert s1.sorted_pairs() == s2.sorted_pairs()
        assert lazy.partitions_local == 0
        assert eager.partitions_local >= lazy.partitions_local

    def test_stats_partition_counters(self, small_zipf):
        stats = JoinStats()
        lcjoin(small_zipf, small_zipf, PairListSink(), stats=stats)
        order = build_order(small_zipf)
        tree = PrefixTree.build(small_zipf, order)
        total = len(partition_sizes(tree))
        assert stats.partitions_global + stats.partitions_local == total

    def test_all_partition_marks_all_local(self, small_zipf):
        stats = JoinStats()
        all_partition_join(small_zipf, small_zipf, PairListSink(), stats=stats)
        assert stats.partitions_global == 0
        assert stats.partitions_local > 0

    def test_local_index_build_cost_metered(self, small_zipf):
        stats = JoinStats()
        all_partition_join(small_zipf, small_zipf, PairListSink(), stats=stats)
        # Global index (once) plus one local index per partition.
        assert stats.index_build_tokens > small_zipf.total_tokens()


def test_partition_join_reduces_probes(small_zipf):
    """§V-A's purpose: local indexes shorten the lists and save probes."""
    from repro.core.tree_join import tree_join

    unpartitioned, partitioned = JoinStats(), JoinStats()
    tree_join(small_zipf, small_zipf, PairListSink(),
              early_termination=True, stats=unpartitioned)
    all_partition_join(small_zipf, small_zipf, PairListSink(), stats=partitioned)
    assert partitioned.binary_searches < unpartitioned.binary_searches


def test_lcjoin_on_skewed_data_matches_naive():
    data = generate_zipf(cardinality=300, avg_set_size=6, num_elements=40,
                         z=0.9, seed=17)
    sink = PairListSink()
    lcjoin(data, data, sink)
    assert sink.sorted_pairs() == sorted(ground_truth(data, data))


@pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
@pytest.mark.parametrize("join", [all_partition_join, lcjoin])
class TestPartitionBackends:
    """Partitioned methods accept the array backend and return the python
    backend's pairs (they bind python lists on every backend)."""

    def test_matches_python_backend(self, join, backend):
        for seed in range(12):
            r, s = random_instance(seed)
            base, packed = PairListSink(), PairListSink()
            join(r, s, base)
            join(r, s, packed, backend=backend)
            assert packed.sorted_pairs() == base.sorted_pairs()

    def test_self_join_skewed(self, join, backend):
        data = generate_zipf(
            cardinality=300, avg_set_size=6, num_elements=60, z=0.8, seed=3
        )
        base, packed = PairListSink(), PairListSink()
        join(data, data, base)
        join(data, data, packed, backend=backend)
        assert packed.sorted_pairs() == base.sorted_pairs()

    def test_pack_spans_recorded(self, join, backend):
        """No ``index.csr_pack`` span: the array backend records exactly the
        python backend's spans, since no array index is packed."""
        r, s = random_instance(4)
        spans = {}
        for name in ("python", backend):
            registry = MetricsRegistry()
            with use_registry(registry):
                join(r, s, PairListSink(), backend=name)
            spans[name] = {node.name for __, node in registry.span_root.walk()}
        assert "index.csr_pack" not in spans[backend]
        assert spans[backend] == spans["python"]


@pytest.mark.parametrize("method", ["tree", "tree_et", "all_partition", "lcjoin"])
def test_tree_methods_bind_python_lists(method):
    """On ``backend="hybrid"`` a tree method packs no array index and does
    the python backend's work: same pairs, rounds and binary searches."""
    data = generate_zipf(
        cardinality=300, avg_set_size=6, num_elements=60, z=0.8, seed=3
    )
    runs = {}
    for backend in ("python", "hybrid"):
        registry, stats = MetricsRegistry(), JoinStats()
        pairs = set_containment_join(
            data, data, method=method, backend=backend, stats=stats,
            metrics=registry,
        )
        runs[backend] = (sorted(pairs), stats.rounds, stats.binary_searches)
    names = {node.name for __, node in registry.span_root.walk()}
    assert "index.csr_pack" not in names
    assert "index.csr_builds" not in registry.counters
    assert "index.hybrid_dense_lists" not in registry.counters
    assert runs["hybrid"] == runs["python"]
