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
from repro.index.storage import CSRInvertedIndex

from conftest import random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="poisoned-classmethod inheritance requires fork start method",
)


class TestSplitCollection:
    def test_covers_everything_in_order(self):
        c = SetCollection([[i] for i in range(10)])
        chunks = split_collection(c, 3)
        rebuilt = []
        for offset, piece in chunks:
            assert offset == len(rebuilt)
            rebuilt.extend(piece.records)
        assert rebuilt == c.records

    def test_more_chunks_than_records(self):
        c = SetCollection([[1], [2]])
        assert len(split_collection(c, 10)) == 2

    def test_empty(self):
        assert split_collection(SetCollection([], validate=False), 4) == []

    def test_invalid_chunks(self):
        with pytest.raises(InvalidParameterError):
            split_collection(SetCollection([[1]]), 0)

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
        def spread(chunks):
            loads = [
                sum(len(rec) for rec in piece.records) for __, piece in chunks
            ]
            return max(loads) - min(loads)

        rr = spread(split_collection(c, 4, strategy="round_robin"))
        contiguous = spread(split_collection(c, 4, strategy="contiguous"))
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

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin"])
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


class TestParallelCSR:
    @pytest.mark.parametrize("method", ["framework", "framework_et", "tree", "tree_et"])
    def test_matches_ground_truth(self, method):
        r, s = random_instance(9)
        got = sorted(
            parallel_join(r, s, method=method, workers=2, backend="csr")
        )
        assert got == sorted(ground_truth(r, s))

    def test_backend_validation(self):
        r, s = random_instance(2)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=1, backend="gpu")
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, method="pretti", workers=1, backend="csr")


class TestSharedIndexBuildOnce:
    """``parallel_join`` must build the superset-side index once in the
    parent — never once per worker."""

    def test_in_process_builds_exactly_once(self, monkeypatch):
        r, s = random_instance(7)
        calls = []
        real_build = CSRInvertedIndex.build.__func__

        def counting_build(cls, collection, **kw):
            calls.append(len(collection))
            return real_build(cls, collection, **kw)

        monkeypatch.setattr(
            CSRInvertedIndex, "build", classmethod(counting_build)
        )
        got = sorted(
            parallel_join(r, s, method="framework", workers=1, backend="csr")
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
    @pytest.mark.parametrize("backend", ["python", "csr"])
    def test_workers_never_build(self, monkeypatch, backend):
        # Prebuild the index, then poison both build classmethods. Forked
        # workers inherit the poisoned classes, so a clean run proves no
        # per-worker (re)build of the shared S-side index happened anywhere.
        # The REPRO_CHECK sanitizer deliberately rebuilds an index for
        # its cross-backend spot check; pin it off so the poisoned
        # classmethods only see the production join path.
        monkeypatch.setenv("REPRO_CHECK", "0")
        r, s = random_instance(10)
        expected = sorted(ground_truth(r, s))
        prebuilt = (
            CSRInvertedIndex.build(s)
            if backend == "csr"
            else InvertedIndex.build(s)
        )

        def boom(cls, *a, **kw):
            raise AssertionError("index rebuilt inside a worker")

        monkeypatch.setattr(InvertedIndex, "build", classmethod(boom))
        monkeypatch.setattr(CSRInvertedIndex, "build", classmethod(boom))
        got = sorted(
            parallel_join(
                r, s, method="framework", workers=2,
                backend=backend, index=prebuilt,
            )
        )
        assert got == expected

    def test_prebuilt_index_through_api(self):
        # Satellite check: set_containment_join accepts a prebuilt index=,
        # on both backends, and a python-side index upgrades to CSR.
        r, s = random_instance(11)
        expected = sorted(ground_truth(r, s))
        py_index = InvertedIndex.build(s)
        csr_index = CSRInvertedIndex.build(s)
        for method in ("framework", "framework_et", "tree", "tree_et"):
            assert sorted(
                set_containment_join(r, s, method=method, index=py_index)
            ) == expected
            assert sorted(
                set_containment_join(
                    r, s, method=method, index=csr_index, backend="csr"
                )
            ) == expected
            assert sorted(
                set_containment_join(
                    r, s, method=method, index=py_index, backend="csr"
                )
            ) == expected


class TestPayloadFallbackPaths:
    """The shm -> fork -> pickle payload ladder in ``parallel_join``.

    When ``to_shared_memory`` fails (no usable /dev/shm), the CSR index
    must ride fork-inherited copy-on-write pages; when fork is unavailable
    too, it is pickled into the jobs. Both paths must produce the exact
    pair set and leave no parent-side residue.
    """

    @fork_only
    def test_shm_failure_uses_fork_inherited_buffer(self, monkeypatch):
        import repro.core.parallel as parallel_mod

        r, s = random_instance(12)
        expected = sorted(ground_truth(r, s))

        def no_shm(self):
            raise OSError("injected: /dev/shm unavailable")

        monkeypatch.setattr(CSRInvertedIndex, "to_shared_memory", no_shm)

        stashed = []
        real_setitem = dict.__setitem__

        class SpyDict(dict):
            def __setitem__(self, key, value):
                stashed.append(key)
                real_setitem(self, key, value)

        spy = SpyDict()
        monkeypatch.setattr(parallel_mod, "_FORK_SHARED", spy)
        got = sorted(
            parallel_join(r, s, method="framework", workers=2, backend="csr")
        )
        assert got == expected
        assert stashed, "fork payload path never engaged"
        assert spy == {}, "_FORK_SHARED not cleaned up after the join"

    def test_shm_and_fork_failure_pickles_index(self, monkeypatch):
        import repro.core.parallel as parallel_mod

        r, s = random_instance(13)
        expected = sorted(ground_truth(r, s))

        def no_shm(self):
            raise OSError("injected: /dev/shm unavailable")

        monkeypatch.setattr(CSRInvertedIndex, "to_shared_memory", no_shm)
        # Pretend fork is unavailable; only the start-method *probe* is
        # patched, the workers themselves still launch via the platform
        # default context.
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: "spawn"
        )
        stashed = []

        class SpyDict(dict):
            def __setitem__(self, key, value):
                stashed.append(key)
                dict.__setitem__(self, key, value)

        monkeypatch.setattr(parallel_mod, "_FORK_SHARED", SpyDict())
        got, report = parallel_join(
            r, s, method="framework", workers=2, backend="csr",
            return_report=True,
        )
        assert sorted(got) == expected
        assert not stashed, "fork path used despite spawn start method"
        assert all(
            a.mode == "pickle" for c in report.chunks for a in c.attempts
        )

    def test_resolve_index_fork_tag(self):
        import repro.core.parallel as parallel_mod
        from repro.core.parallel import _resolve_index

        s = SetCollection([(0, 1), (1, 2)])
        index = CSRInvertedIndex.build(s)
        token = id(index)
        parallel_mod._FORK_SHARED[token] = index
        try:
            assert _resolve_index(("fork", token)) is index
        finally:
            del parallel_mod._FORK_SHARED[token]

    def test_resolve_index_pickle_and_direct_tags(self):
        from repro.core.parallel import _resolve_index

        s = SetCollection([(0, 1), (1, 2)])
        index = CSRInvertedIndex.build(s)
        assert _resolve_index(("pickle", index)) is index
        assert _resolve_index(("direct", index)) is index
        assert _resolve_index(None) is None

    def test_resolve_index_unknown_tag(self):
        from repro.core.parallel import _resolve_index

        with pytest.raises(InvalidParameterError):
            _resolve_index(("carrier-pigeon", None))


class TestWorkerShmCleanup:
    """Shared-memory attachments must be released on every worker exit path."""

    def test_join_chunk_closes_attachment_on_success(self, monkeypatch):
        from repro.core.parallel import _join_chunk

        r, s = random_instance(3)
        handle = CSRInvertedIndex.build(s).to_shared_memory()
        captured = []
        orig = CSRInvertedIndex.from_shared_memory.__func__

        def wrapped(cls, h):
            inst = orig(cls, h)
            captured.append(inst)
            return inst

        monkeypatch.setattr(
            CSRInvertedIndex, "from_shared_memory", classmethod(wrapped)
        )
        try:
            args = (0, r, s, "framework", "csr", ("shm", handle), {}, {})
            rids, sids, __ = _join_chunk(args)
            pairs = zip(rids.tolist(), sids.tolist())
            assert sorted(pairs) == sorted(ground_truth(r, s))
        finally:
            handle.cleanup()
        assert captured, "worker never attached the shared index"
        assert captured[0]._shms is None, "attachment not closed after join"

    def test_join_chunk_closes_attachment_on_error(self, monkeypatch):
        from repro.core.parallel import _join_chunk

        r, s = random_instance(4)
        handle = CSRInvertedIndex.build(s).to_shared_memory()
        captured = []
        orig = CSRInvertedIndex.from_shared_memory.__func__

        def wrapped(cls, h):
            inst = orig(cls, h)
            captured.append(inst)
            return inst

        monkeypatch.setattr(
            CSRInvertedIndex, "from_shared_memory", classmethod(wrapped)
        )
        try:
            args = (
                0, r, s, "framework", "csr", ("shm", handle), {},
                {"no_such_keyword_argument": True},
            )
            with pytest.raises(TypeError):
                _join_chunk(args)
        finally:
            handle.cleanup()
        assert captured, "worker never attached the shared index"
        assert captured[0]._shms is None, "attachment leaked on the error path"

    def test_close_is_idempotent_and_noop_for_owned_arrays(self):
        s = SetCollection([(0, 1), (1, 2)])
        index = CSRInvertedIndex.build(s)
        values_before = index.values
        index.close()  # built (non-attached) index: nothing to release
        index.close()
        assert index.values is values_before

    def test_attached_close_drops_views(self):
        s = SetCollection([(0, 1), (1, 2), (0, 2)])
        handle = CSRInvertedIndex.build(s).to_shared_memory()
        try:
            attached = CSRInvertedIndex.from_shared_memory(handle)
            assert attached.values.shape[0] > 0
            attached.close()
            attached.close()  # idempotent
            assert attached.values.shape[0] == 0
        finally:
            handle.cleanup()

    def test_worker_exception_propagates_and_cleans_up(self):
        r, s = random_instance(5)
        # A deterministic worker error survives the retries, is reproduced
        # by the in-process fallback (announced via the degradation
        # warning), and propagates as the original exception type.
        with pytest.warns(DegradedExecutionWarning):
            with pytest.raises((TypeError, InvalidParameterError)):
                parallel_join(
                    r, s, method="framework", workers=2, backend="csr",
                    retries=0, no_such_keyword_argument=True,
                )
        # The creator-side handle is reclaimed in parallel_join's finally;
        # a second join against the same data must start from scratch and
        # succeed, which it cannot if segments or names leaked.
        got = sorted(
            parallel_join(r, s, method="framework", workers=2, backend="csr")
        )
        assert got == sorted(ground_truth(r, s))
