"""Python-vs-array backend equivalence, and unit tests for the batched kernels.

The array backend (``hybrid``) must be a pure *layout* change: same pair
set for every method that supports it, on every workload shape —
Zipf-skewed synthetics, degenerate inputs (empty sides, singleton lists),
and records containing elements ``S`` has never seen. The grid runs it on
two layouts (``ARRAY_LAYOUTS``): with no bitmap rows (``csr``) and with the
default ones (``hybrid``). Its density threshold is also swept through both
degenerate corners (all lists dense, all lists sparse).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import set_containment_join
from repro.core.framework import framework_join
from repro.core.results import PairListSink
from repro.core.verify import ground_truth
from repro.data.collection import SetCollection
from repro.data.synthetic import generate_zipf
from repro.errors import InvalidParameterError
from repro.index.inverted import InvertedIndex
from repro.index.kernels import (
    batch_first_geq,
    batch_gap_lookup,
    cross_cut_collection_hybrid,
    gallop_first_geq,
    _bitmap_gap_inbounds,
)
from repro.index.search import first_geq, probe
from repro.index.storage import HybridInvertedIndex

from conftest import ARRAY_LAYOUTS, random_instance

BACKEND_METHODS = (
    "framework", "framework_et", "tree", "tree_et", "all_partition", "lcjoin"
)


def both_backends(r, s, method, backend):
    py = sorted(set_containment_join(r, s, method=method, backend="python"))
    arr = sorted(set_containment_join(r, s, method=method, backend=backend))
    return py, arr


class TestZipfEquivalence:
    """Property-style sweep: skewed synthetic workloads, every backend."""

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0])
    def test_self_join(self, method, z, backend):
        data = generate_zipf(
            cardinality=120, avg_set_size=4, num_elements=60, z=z, seed=11
        )
        py, arr = both_backends(data, data, method, backend)
        assert py == arr
        assert py == sorted(ground_truth(data, data))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_rs_join(self, method, backend):
        r = generate_zipf(
            cardinality=90, avg_set_size=3, num_elements=45, z=0.7, seed=2
        )
        s = generate_zipf(
            cardinality=110, avg_set_size=5, num_elements=45, z=0.7, seed=3
        )
        py, arr = both_backends(r, s, method, backend)
        assert py == arr
        assert py == sorted(ground_truth(r, s))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, method, seed, backend):
        r, s = random_instance(seed)
        py, arr = both_backends(r, s, method, backend)
        assert py == arr


class TestEdgeCases:
    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_empty_r(self, method, backend):
        r = SetCollection([], validate=False)
        s = SetCollection([[1, 2], [3]])
        assert set_containment_join(r, s, method=method, backend=backend) == []

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_empty_s(self, method, backend):
        r = SetCollection([[1, 2], [3]])
        s = SetCollection([], validate=False)
        assert set_containment_join(r, s, method=method, backend=backend) == []

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_singleton_lists(self, method, backend):
        # Every S element occurs exactly once: all inverted lists are
        # singletons, the short-circuit for one-element R records included.
        r = SetCollection([[0], [1], [0, 1], [2]])
        s = SetCollection([[0, 1], [2, 3]])
        py, arr = both_backends(r, s, method, backend)
        assert py == arr == sorted(ground_truth(r, s))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    @pytest.mark.parametrize("method", BACKEND_METHODS)
    def test_element_absent_from_s(self, method, backend):
        # Element 99 never occurs in S (beyond its max element) and element
        # 4 is within range but unused; both record shapes must be skipped.
        r = SetCollection([[0, 99], [4], [0, 1]])
        s = SetCollection([[0, 1, 2], [0, 1], [2, 3, 5]])
        py, arr = both_backends(r, s, method, backend)
        assert py == arr == sorted(ground_truth(r, s))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    def test_duplicate_records(self, backend):
        r = SetCollection([[0, 1], [0, 1], [0, 1]])
        s = SetCollection([[0, 1, 2], [0, 1]])
        py, arr = both_backends(r, s, "framework", backend)
        assert py == arr == sorted(ground_truth(r, s))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    def test_singleton_universe(self, backend):
        # |S| = 1: bitmap rows are one word with one low bit; every probe
        # either hits sid 0 or exhausts immediately.
        r = SetCollection([[0], [0, 1], [2]])
        s = SetCollection([[0, 1, 2]])
        py, arr = both_backends(r, s, "framework", backend)
        assert py == arr == sorted(ground_truth(r, s))

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    def test_unsupported_method_raises(self, backend):
        r, s = random_instance(0)
        for method in ("pretti", "shj", "naive"):
            with pytest.raises(InvalidParameterError):
                set_containment_join(r, s, method=method, backend=backend)

    def test_unknown_backend_raises(self):
        r, s = random_instance(0)
        with pytest.raises(InvalidParameterError):
            set_containment_join(r, s, method="framework", backend="gpu")

    def test_partitioned_methods_reject_array_prebuilt_index(self):
        # The partitioned methods need the python index API (anchor lists,
        # build_local); an array index as the prebuilt global index is a
        # parameter error, not a silent wrong answer.
        from repro.core.partition import lcjoin

        r, s = random_instance(3)
        with pytest.raises(InvalidParameterError):
            lcjoin(r, s, PairListSink(), index=HybridInvertedIndex.build(s))


class TestCSRIndexStructure:
    """The CSR arrays every array index carries, bitmap rows or not."""

    def test_matches_python_index(self):
        data = generate_zipf(
            cardinality=80, avg_set_size=4, num_elements=40, z=0.8, seed=5
        )
        py = InvertedIndex.build(data)
        idx = HybridInvertedIndex.build(data)
        assert idx.inf_sid == py.inf_sid
        assert list(idx.universe) == list(py.universe)
        assert idx.size_in_entries() == py.size_in_entries()
        assert idx.construction_cost == py.construction_cost
        for e in range(idx.num_slots + 5):
            assert idx.get_list(e).tolist() == list(py[e])
            assert idx.list_length(e) == py.list_length(e)

    def test_from_index_roundtrip(self):
        data = generate_zipf(
            cardinality=60, avg_set_size=3, num_elements=30, z=0.4, seed=9
        )
        py = InvertedIndex.build(data)
        idx = HybridInvertedIndex.from_index(py)
        built = HybridInvertedIndex.build(data)
        assert idx.offsets.tolist() == built.offsets.tolist()
        assert idx.values.tolist() == built.values.tolist()
        assert idx.keyed.tolist() == built.keyed.tolist()

    def test_record_probe_skips_absent(self):
        s = SetCollection([[0, 2], [2, 3]])
        idx = HybridInvertedIndex.build(s)
        assert idx.record_probe(()) is None
        assert idx.record_probe((0, 99)) is None  # beyond S's element domain
        assert idx.record_probe((1,)) is None  # in-range but empty list
        bases, starts, ends = idx.record_probe((0, 2))
        assert starts.tolist() == idx.offsets[[0, 2]].tolist()
        assert ends.tolist() == idx.offsets[[1, 3]].tolist()

    def test_pickle_roundtrip(self):
        # Pickling is how a worker node receives the index when it is not
        # inherited through fork.
        import pickle

        data = generate_zipf(
            cardinality=50, avg_set_size=4, num_elements=25, z=0.6, seed=4
        )
        idx = HybridInvertedIndex.build(data)
        clone = pickle.loads(pickle.dumps(idx))
        assert clone.offsets.tolist() == idx.offsets.tolist()
        assert clone.values.tolist() == idx.values.tolist()
        assert clone.keyed.tolist() == idx.keyed.tolist()
        assert clone.inf_sid == idx.inf_sid
        assert clone.universe == idx.universe


class TestHybridIndexStructure:
    def _skewed(self):
        return generate_zipf(
            cardinality=150, avg_set_size=5, num_elements=40, z=1.0, seed=17
        )

    def test_keeps_full_csr_arrays(self):
        # Bitmap rows are added on top: the CSR arrays hold every list
        # whether or not any row is packed.
        data = self._skewed()
        plain = HybridInvertedIndex.build(data, max_dense=0)
        hyb = HybridInvertedIndex.build(data)
        assert plain.num_dense == 0 < hyb.num_dense
        assert hyb.offsets.tolist() == plain.offsets.tolist()
        assert hyb.values.tolist() == plain.values.tolist()
        assert hyb.keyed.tolist() == plain.keyed.tolist()
        assert hyb.inf_sid == plain.inf_sid

    def test_automatic_threshold_marks_dense_lists(self):
        from repro.core.estimate import element_frequency_profile

        data = self._skewed()
        hyb = HybridInvertedIndex.build(data)
        counts = np.diff(hyb.offsets)
        profile = element_frequency_profile(
            counts[counts > 0].tolist(), num_sets=hyb.inf_sid
        )
        expected = np.flatnonzero(counts >= profile.suggested_threshold)
        assert hyb.dense_ids.tolist() == expected.tolist()
        assert hyb.num_dense == len(expected) > 0

    def test_bitmap_rows_reconstruct_lists(self):
        from repro.core.selfcheck import check_array_layout

        data = self._skewed()
        hyb = HybridInvertedIndex.build(data)
        check_array_layout(hyb)
        words = hyb.bitmap_words
        for row, element in enumerate(hyb.dense_ids.tolist()):
            bits = np.unpackbits(
                hyb.bitmap[row * words:(row + 1) * words]
                .astype("<u8").view(np.uint8),
                bitorder="little",
            )
            assert np.flatnonzero(bits).tolist() == hyb.get_list(element).tolist()

    @pytest.mark.parametrize("threshold", [1, 10 ** 9])
    def test_degenerate_thresholds_join_identically(self, threshold):
        # threshold=1: every nonempty list gets a bitmap row (all-dense);
        # huge threshold: none does (all-sparse, pure gallop path).
        data = self._skewed()
        expected = sorted(set_containment_join(data, data, method="framework"))
        hyb = HybridInvertedIndex.build(data, dense_threshold=threshold)
        if threshold == 1:
            assert hyb.num_dense == int(np.count_nonzero(np.diff(hyb.offsets)))
        else:
            assert hyb.num_dense == 0
        sink = PairListSink()
        framework_join(data, data, sink, index=hyb, backend="hybrid")
        assert sorted(sink.pairs) == expected

    def test_dense_cap_takes_longest_lists(self):
        # Moderate skew: enough distinct elements that the cap actually
        # drops some (z=1 collapses this generator to ~3 elements).
        data = generate_zipf(
            cardinality=150, avg_set_size=5, num_elements=40, z=0.5, seed=17
        )
        hyb = HybridInvertedIndex.build(data, dense_threshold=1, max_dense=3)
        assert hyb.num_dense == 3
        counts = np.diff(hyb.offsets)
        kept = counts[hyb.dense_ids]
        dropped = np.delete(counts, hyb.dense_ids)
        assert kept.min() >= dropped.max()

    def test_hybrid_pickle_roundtrip(self):
        import pickle

        from repro.core.selfcheck import check_array_layout

        hyb = HybridInvertedIndex.build(self._skewed())
        clone = pickle.loads(pickle.dumps(hyb))
        check_array_layout(clone)
        assert np.array_equal(clone.bitmap, hyb.bitmap)
        assert np.array_equal(clone.dense_ids, hyb.dense_ids)

    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    def test_layout_parameter_sets_bitmap_rows(self, request, backend):
        # The ``csr`` id the equivalence grid runs must really pack no
        # bitmap rows, through both builders; ``hybrid`` must pack some.
        data = self._skewed()
        built = HybridInvertedIndex.build(data)
        repacked = HybridInvertedIndex.from_index(InvertedIndex.build(data))
        assert backend == "hybrid"
        if request.node.callspec.id == "csr":
            assert built.num_dense == repacked.num_dense == 0
        else:
            assert built.num_dense == repacked.num_dense > 0

    def test_nbytes_counts_bitmap(self):
        hyb = HybridInvertedIndex.build(self._skewed())
        plain = HybridInvertedIndex.build(self._skewed(), max_dense=0)
        assert hyb.nbytes() == (
            plain.nbytes() + hyb.bitmap.nbytes + hyb.dense_ids.nbytes
        )


class TestBatchKernels:
    """The batched primitives agree with their scalar counterparts."""

    def _fixture(self):
        s = SetCollection(
            [[0, 1, 4], [1, 2], [0, 4, 5], [1, 4], [2, 5], [0, 1, 2, 4]]
        )
        return InvertedIndex.build(s), HybridInvertedIndex.build(s)

    def test_batch_first_geq_matches_first_geq(self):
        py, idx = self._fixture()
        record = (0, 1, 2, 4, 5)
        bases, starts, ends = idx.record_probe(record)
        for target in range(idx.inf_sid):
            pos = batch_first_geq(idx.keyed, bases, target)
            assert pos.tolist() == [
                int(starts[i]) + first_geq(list(py[e]), target)
                for i, e in enumerate(record)
            ]

    def test_batch_gap_lookup_matches_probe(self):
        py, idx = self._fixture()
        record = (0, 1, 2, 4, 5)
        bases, __, ends = idx.record_probe(record)
        inf = idx.inf_sid
        for target in range(inf):
            pos = batch_first_geq(idx.keyed, bases, target)
            hit, gap = batch_gap_lookup(idx.keyed, bases, ends, pos, target, inf)
            for i, e in enumerate(record):
                sid, scalar_gap, __pos = probe(list(py[e]), target, inf)
                assert bool(hit[i]) == (sid == target)
                assert int(gap[i]) == scalar_gap

    def test_hybrid_kernel_on_empty_universe(self):
        r = SetCollection([[0]])
        hyb = HybridInvertedIndex.build(SetCollection([], validate=False))
        sink = PairListSink()
        cross_cut_collection_hybrid(r, hyb, sink)
        assert sink.pairs == []

    def test_collection_kernel_on_empty_universe(self):
        # The same with no bitmap rows: the kernel's CSR-only layout.
        r = SetCollection([[0]])
        idx = HybridInvertedIndex.build(
            SetCollection([], validate=False), max_dense=0
        )
        sink = PairListSink()
        cross_cut_collection_hybrid(r, idx, sink)
        assert sink.pairs == []

    def test_collection_kernel_emits_int_pairs(self):
        # No bitmap rows: every probe goes through the CSR arrays.
        r = SetCollection([[0], [0, 1]])
        s = SetCollection([[0, 1]])
        idx = HybridInvertedIndex.build(s, max_dense=0)
        sink = PairListSink()
        cross_cut_collection_hybrid(r, idx, sink)
        for rid, sid in sink.pairs:
            assert type(rid) is int and type(sid) is int

    def test_hybrid_kernel_emits_int_pairs(self):
        r = SetCollection([[0], [0, 1]])
        s = SetCollection([[0, 1]])
        hyb = HybridInvertedIndex.build(s, dense_threshold=1)
        sink = PairListSink()
        cross_cut_collection_hybrid(r, hyb, sink)
        for rid, sid in sink.pairs:
            assert type(rid) is int and type(sid) is int


class TestBitmapKernels:
    """The bitmap probe the kernel runs agrees with a scalar scan."""

    def _hybrid(self, sets):
        s = SetCollection(sets)
        return InvertedIndex.build(s), HybridInvertedIndex.build(
            s, dense_threshold=1
        )

    @staticmethod
    def _window_gap(lst, target, inf, words):
        """What ``_bitmap_gap_inbounds`` must answer, by scalar scan.

        The exact gap when it is a set bit in the target's word or the
        next one; ``inf_sid`` when the target's word is the row's last and
        has no set bit above the target; ``-1`` (left to the CSR fallback)
        otherwise, even when the row is in fact exhausted.
        """
        nxt = next((sid for sid in lst if sid > target), inf)
        w0 = target >> 6
        if w0 + 1 >= words or nxt < min((w0 + 2) * 64, inf):
            return nxt
        return -1

    def test_bitmap_gap_inbounds_matches_scan(self):
        # 300 sets span five words. Element 0 is in every set, 1 in every
        # other one, 2 only in sets 0 and 299 (a 299-sid hole: -1 window
        # escapes), 3 only in set 5 (exhausted early), and 4 in sets whose
        # ids are multiples of 7.
        n = 300
        sets = []
        for sid in range(n):
            rec = [0]
            if sid % 2 == 0:
                rec.append(1)
            if sid in (0, n - 1):
                rec.append(2)
            if sid == 5:
                rec.append(3)
            if sid % 7 == 0:
                rec.append(4)
            sets.append(rec)
        py, hyb = self._hybrid(sets)
        inf = hyb.inf_sid
        words = hyb.bitmap_words
        assert hyb.num_dense == 5 and words == 5
        targets = np.tile(np.arange(inf, dtype=np.int64), hyb.num_dense)
        rows = np.repeat(np.arange(hyb.num_dense, dtype=np.int64), inf)
        hit, gap = _bitmap_gap_inbounds(
            hyb.bitmap, words, rows * words, targets, inf
        )
        outcomes = set()
        for i in range(targets.shape[0]):
            element = int(hyb.dense_ids[rows[i]])
            lst = list(py[element])
            t = int(targets[i])
            assert bool(hit[i]) == (t in lst), (element, t)
            expected = self._window_gap(lst, t, inf, words)
            assert int(gap[i]) == expected, (element, t)
            outcomes.add("escape" if expected == -1 else
                         "past_last" if expected == inf else "sid")
        assert outcomes == {"escape", "past_last", "sid"}

    def test_bitmap_unresolved_only_past_window(self):
        # A row whose next set bit is > 128 positions away forces the
        # two-word window to come up empty: the miss must still be exact
        # (hit False) and the gap flagged -1 for the CSR fallback.
        sets = [[0] if i == 0 else [0, 1] for i in range(200)]
        sets[199] = [0, 1, 2]
        py, hyb = self._hybrid(sets)
        inf = hyb.inf_sid
        row = int(hyb.dense_map[2])
        assert row >= 0
        hit, gap = _bitmap_gap_inbounds(
            hyb.bitmap, hyb.bitmap_words,
            np.array([row * hyb.bitmap_words], dtype=np.int64),
            np.array([1], dtype=np.int64), inf,
        )
        assert not bool(hit[0])
        assert int(gap[0]) == -1  # 199 is >2 words past target 1

    def test_gallop_matches_searchsorted(self):
        rng = np.random.default_rng(5)
        keyed = np.sort(rng.integers(0, 10_000, size=2_000)).astype(np.int64)
        n = 300
        lo = np.sort(rng.integers(0, keyed.shape[0], size=n)).astype(np.int64)
        hi = np.minimum(
            lo + rng.integers(0, 400, size=n), keyed.shape[0]
        ).astype(np.int64)
        # Respect the precondition: every entry below lo must be < key, so
        # derive keys at/above keyed[lo].
        base = np.where(lo < keyed.shape[0], keyed[np.minimum(lo, keyed.shape[0] - 1)], 0)
        keys = base + rng.integers(0, 50, size=n)
        pos = gallop_first_geq(keyed, lo, hi, keys)
        for i in range(n):
            expected = int(np.searchsorted(keyed[lo[i]:hi[i]], keys[i])) + int(lo[i])
            if pos[i] != -1:
                assert int(pos[i]) == expected, i
            else:
                # Unresolved is only legal when the answer lies beyond the
                # gallop window from the cursor.
                assert expected - int(lo[i]) > 64

    def test_gallop_consumed_ranges(self):
        keyed = np.array([1, 3, 5], dtype=np.int64)
        lo = np.array([3, 0], dtype=np.int64)
        hi = np.array([3, 3], dtype=np.int64)
        keys = np.array([7, 9], dtype=np.int64)
        pos = gallop_first_geq(keyed, lo, hi, keys)
        assert pos.tolist() == [3, 3]


class TestStragglerFallback:
    def test_hybrid_long_tail_switches_to_scalar_loop(self, monkeypatch):
        import repro.index.kernels as kernels

        monkeypatch.setattr(kernels, "_STRAGGLER_SUPERSTEPS", 1)
        data = generate_zipf(
            cardinality=100, avg_set_size=4, num_elements=30, z=0.9, seed=13
        )
        hyb = HybridInvertedIndex.build(data)
        sink = PairListSink()
        cross_cut_collection_hybrid(data, hyb, sink)
        assert sorted(sink.pairs) == sorted(ground_truth(data, data))


    def test_long_tail_switches_to_scalar_loop(self, monkeypatch):
        # The same straggler hand-off with no bitmap rows: every probe of
        # the superstep and of the scalar tail reads the CSR arrays.
        import repro.index.kernels as kernels

        monkeypatch.setattr(kernels, "_STRAGGLER_SUPERSTEPS", 1)
        data = generate_zipf(
            cardinality=100, avg_set_size=4, num_elements=30, z=0.9, seed=13
        )
        idx = HybridInvertedIndex.build(data, max_dense=0)
        sink = PairListSink()
        cross_cut_collection_hybrid(data, idx, sink)
        assert sorted(sink.pairs) == sorted(ground_truth(data, data))


class TestStatsParity:
    @pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
    def test_framework_counters_match(self, backend):
        """The batch kernels meter the same probes/rounds as the scalar loop
        (single-element records excepted — they short-circuit, so compare on
        a workload without them)."""
        from repro.core.stats import JoinStats

        rng_data = generate_zipf(
            cardinality=80, avg_set_size=5, num_elements=40, z=0.5, seed=21
        )
        data = SetCollection(
            [rec for rec in rng_data if len(rec) >= 2], validate=False
        )
        py_stats, arr_stats = JoinStats(), JoinStats()
        set_containment_join(
            data, data, method="framework", stats=py_stats, collect="count"
        )
        set_containment_join(
            data, data, method="framework", backend=backend,
            stats=arr_stats, collect="count",
        )
        assert py_stats.binary_searches == arr_stats.binary_searches
        assert py_stats.rounds == arr_stats.rounds
        assert py_stats.results == arr_stats.results
