"""Tests for the multiprocess join driver."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.api import set_containment_join
from repro.core.parallel import parallel_join, split_collection
from repro.core.verify import ground_truth
from repro.data.collection import SetCollection
from repro.errors import DegradedExecutionWarning, InvalidParameterError
from repro.index.inverted import InvertedIndex
from repro.index.storage import HybridInvertedIndex

from conftest import ARRAY_LAYOUTS, random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="poisoned-classmethod inheritance requires fork start method",
)


class TestSplitCollection:
    def test_more_chunks_than_records(self):
        c = SetCollection([[1], [2]])
        assert len(split_collection(c, 10, strategy="round_robin")) == 2

    def test_empty(self):
        empty = SetCollection([], validate=False)
        assert split_collection(empty, 4, strategy="round_robin") == []

    def test_invalid_chunks(self):
        with pytest.raises(InvalidParameterError):
            split_collection(SetCollection([[1]]), 0, strategy="round_robin")

    def test_round_robin_covers_everything(self):
        c = SetCollection([[i] for i in range(11)])
        chunks = split_collection(c, 3, strategy="round_robin")
        seen = {}
        for rids, piece in chunks:
            assert len(rids) == len(piece)
            for rid, record in zip(rids, piece.records):
                seen[rid] = record
        assert seen == {i: c.records[i] for i in range(11)}

    def test_round_robin_deals_modulo(self):
        c = SetCollection([[i] for i in range(7)])
        chunks = split_collection(c, 3, strategy="round_robin")
        assert [rids for rids, __ in chunks] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_round_robin_balances_sorted_sizes(self):
        # Records sorted by size: contiguous chunking puts all the large
        # sets in the last chunk; round-robin keeps postings balanced.
        c = SetCollection([list(range(n + 1)) for n in range(12)])
        def spread(pieces):
            loads = [sum(len(rec) for rec in piece) for piece in pieces]
            return max(loads) - min(loads)

        rr = spread(
            piece.records
            for __, piece in split_collection(c, 4, strategy="round_robin")
        )
        contiguous = spread(c.records[lo: lo + 3] for lo in range(0, 12, 3))
        assert rr < contiguous  # 9 vs 27 on this workload
        assert rr <= 3 * (4 - 1)  # bounded by chunks × max size step

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            split_collection(SetCollection([[1]]), 2, strategy="hash")


class TestParallelJoin:
    def test_single_worker_matches_ground_truth(self):
        r, s = random_instance(3)
        got = sorted(parallel_join(r, s, workers=1))
        assert got == sorted(ground_truth(r, s))

    def test_two_workers_match_ground_truth(self):
        r, s = random_instance(4)
        got = sorted(parallel_join(r, s, workers=2))
        assert got == sorted(ground_truth(r, s))

    def test_rid_remapping(self):
        r = SetCollection([[0], [1], [0, 1]])
        s = SetCollection([[0, 1]])
        got = sorted(parallel_join(r, s, workers=3))
        assert got == [(0, 0), (1, 0), (2, 0)]

    @pytest.mark.parametrize("strategy", ["anchor", "round_robin"])
    def test_strategies_equivalent(self, strategy):
        r, s = random_instance(5)
        got = sorted(parallel_join(r, s, workers=3, strategy=strategy))
        assert got == sorted(ground_truth(r, s))

    def test_any_method(self):
        r, s = random_instance(6)
        expected = sorted(ground_truth(r, s))
        for method in ("framework_et", "pretti", "ttjoin"):
            assert sorted(parallel_join(r, s, method=method, workers=2)) == expected

    def test_empty_r(self):
        s = SetCollection([[1]])
        assert parallel_join(SetCollection([], validate=False), s) == []

    def test_invalid_workers(self):
        r, s = random_instance(1)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=0)

    def test_kwargs_forwarded(self):
        r, s = random_instance(8)
        got = sorted(parallel_join(r, s, method="ttjoin", workers=2, k=1))
        assert got == sorted(ground_truth(r, s))


class TestParallelArrayBackend:
    @pytest.mark.parametrize("method", ["framework", "framework_et", "tree", "tree_et"])
    def test_matches_ground_truth(self, method):
        r, s = random_instance(9)
        got = sorted(
            parallel_join(r, s, method=method, workers=2, backend="hybrid")
        )
        assert got == sorted(ground_truth(r, s))

    def test_backend_validation(self):
        r, s = random_instance(2)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=1, backend="gpu")
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, method="pretti", workers=1, backend="hybrid")


class TestSharedIndexBuildOnce:
    """``parallel_join`` must build the superset-side index once in the
    parent — never once per worker."""

    def test_in_process_builds_exactly_once(self, monkeypatch):
        r, s = random_instance(7)
        calls = []
        real_build = HybridInvertedIndex.build.__func__

        def counting_build(cls, collection, **kw):
            calls.append(len(collection))
            return real_build(cls, collection, **kw)

        monkeypatch.setattr(
            HybridInvertedIndex, "build", classmethod(counting_build)
        )
        got = sorted(
            parallel_join(r, s, method="framework", workers=1, backend="hybrid")
        )
        assert got == sorted(ground_truth(r, s))
        assert calls == [len(s)]

    def test_python_backend_builds_exactly_once(self, monkeypatch):
        r, s = random_instance(7)
        calls = []
        real_build = InvertedIndex.build.__func__

        def counting_build(cls, collection, **kw):
            calls.append(len(collection))
            return real_build(cls, collection, **kw)

        monkeypatch.setattr(InvertedIndex, "build", classmethod(counting_build))
        got = sorted(
            parallel_join(r, s, method="framework", workers=1)
        )
        assert got == sorted(ground_truth(r, s))
        assert calls == [len(s)]

    @fork_only
    @pytest.mark.parametrize(
        "backend", ["python", *ARRAY_LAYOUTS], indirect=True
    )
    def test_workers_never_build(self, monkeypatch, backend):
        # Prebuild the index, then poison both build classmethods. Forked
        # workers inherit the poisoned classes, so a clean run proves no
        # per-worker (re)build of the shared S-side index happened anywhere:
        # every backend's nodes join against the one parent-built index.
        # The REPRO_CHECK sanitizer deliberately rebuilds an index for
        # its cross-backend spot check; pin it off so the poisoned
        # classmethods only see the production join path.
        monkeypatch.setenv("REPRO_CHECK", "0")
        r, s = random_instance(10)
        expected = sorted(ground_truth(r, s))
        builders = {"python": InvertedIndex, "hybrid": HybridInvertedIndex}
        prebuilt = builders[backend].build(s)

        def boom(cls, *a, **kw):
            raise AssertionError("index rebuilt inside a worker")

        monkeypatch.setattr(InvertedIndex, "build", classmethod(boom))
        monkeypatch.setattr(HybridInvertedIndex, "build", classmethod(boom))
        got, report = parallel_join(
            r, s, method="framework", workers=2,
            backend=backend, index=prebuilt, return_report=True,
        )
        assert sorted(got) == expected
        modes = [a.mode for c in report.chunks for a in c.attempts]
        assert modes and set(modes) == {"pickle"}

    def test_prebuilt_index_through_api(self):
        # set_containment_join accepts a prebuilt python index= on both
        # backends; the flat methods upgrade it to the array index and also
        # take an array index as-is. The tree methods bind python lists on
        # every backend, so they refuse an array index: serially, and in
        # a parallel run before any node starts.
        r, s = random_instance(11)
        expected = sorted(ground_truth(r, s))
        py_index = InvertedIndex.build(s)
        array_index = HybridInvertedIndex.build(s)
        for method in ("framework", "framework_et", "tree", "tree_et"):
            assert sorted(
                set_containment_join(r, s, method=method, index=py_index)
            ) == expected
            assert sorted(
                set_containment_join(
                    r, s, method=method, index=py_index, backend="hybrid"
                )
            ) == expected
            if method.startswith("framework"):
                assert sorted(
                    set_containment_join(
                        r, s, method=method, index=array_index, backend="hybrid"
                    )
                ) == expected
                continue
            for workers in (None, 2):
                with pytest.raises(InvalidParameterError, match="InvertedIndex"):
                    set_containment_join(
                        r, s, method=method, index=array_index,
                        backend="hybrid", workers=workers,
                    )
            assert multiprocessing.active_children() == []


class TestWorkerErrors:
    def test_worker_exception_propagates(self):
        r, s = random_instance(5)
        # A deterministic worker error survives the retries, is reproduced
        # by the in-process fallback (announced via the degradation
        # warning), and propagates as the original exception type.
        with pytest.warns(DegradedExecutionWarning):
            with pytest.raises((TypeError, InvalidParameterError)):
                parallel_join(
                    r, s, method="framework", workers=2, backend="hybrid",
                    retries=0, no_such_keyword_argument=True,
                )
        # The failed run leaves nothing behind that a second join against
        # the same data could trip over.
        got = sorted(
            parallel_join(r, s, method="framework", workers=2, backend="hybrid")
        )
        assert got == sorted(ground_truth(r, s))
