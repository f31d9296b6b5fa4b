"""Tests for the binary persistence layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import set_containment_join
from repro.data.collection import SetCollection
from repro.errors import DatasetError
from repro.index.inverted import InvertedIndex
from repro.index.storage import (
    load_collection_binary,
    load_index,
    save_collection_binary,
    save_index,
)

records = st.lists(
    st.lists(st.integers(0, 50), min_size=1, max_size=8), min_size=1, max_size=20
)


class TestCollectionRoundtrip:
    def test_roundtrip(self, tmp_path):
        original = SetCollection([[1, 5, 9], [0], [3, 4]])
        path = str(tmp_path / "c.bin")
        save_collection_binary(original, path)
        assert load_collection_binary(path) == original

    def test_empty_collection(self, tmp_path):
        original = SetCollection([], validate=False)
        path = str(tmp_path / "e.bin")
        save_collection_binary(original, path)
        assert len(load_collection_binary(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetError, match="magic"):
            load_collection_binary(str(path))

    def test_truncated(self, tmp_path):
        good = tmp_path / "good.bin"
        save_collection_binary(SetCollection([[1, 2, 3]] * 5), str(good))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(DatasetError, match="truncated"):
            load_collection_binary(str(bad))

    @settings(max_examples=25, deadline=None)
    @given(records)
    def test_roundtrip_property(self, recs):
        import os
        import tempfile

        original = SetCollection(recs)
        fd, path = tempfile.mkstemp(suffix=".bin")
        os.close(fd)
        try:
            save_collection_binary(original, path)
            assert load_collection_binary(path) == original
        finally:
            os.unlink(path)


class TestIndexRoundtrip:
    def _roundtrip(self, index, tmp_path):
        path = str(tmp_path / "i.bin")
        save_index(index, path)
        return load_index(path)

    def test_global_index(self, tmp_path):
        data = SetCollection([[0, 2], [1, 2], [0, 1, 2]])
        index = InvertedIndex.build(data)
        loaded = self._roundtrip(index, tmp_path)
        assert loaded.inf_sid == index.inf_sid
        assert list(loaded.universe) == list(index.universe)
        assert isinstance(loaded.universe, range)  # range form preserved
        assert {e: list(v) for e, v in loaded.lists.items()} == {
            e: list(v) for e, v in index.lists.items()
        }

    def test_local_index(self, tmp_path):
        data = SetCollection([[0, 2], [1, 2], [0, 1, 2]])
        index = InvertedIndex.build(data)
        local = index.build_local(index[0], data)
        loaded = self._roundtrip(local, tmp_path)
        assert list(loaded.universe) == [0, 2]
        assert loaded.inf_sid == index.inf_sid

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        with pytest.raises(DatasetError, match="magic"):
            load_index(str(path))

    def test_loaded_index_joins_identically(self, tmp_path):
        from repro.core.framework import framework_join
        from repro.core.results import PairListSink

        s = SetCollection([[0, 1], [1, 2], [0, 1, 2]])
        r = SetCollection([[1], [0, 1]])
        index = InvertedIndex.build(s)
        loaded = self._roundtrip(index, tmp_path)
        a, b = PairListSink(), PairListSink()
        framework_join(r, s, a, index=index)
        framework_join(r, s, b, index=loaded)
        assert a.sorted_pairs() == b.sorted_pairs()


def test_end_to_end_persistence_workflow(tmp_path):
    """Save data + index, reload in a 'new process', join."""
    data = SetCollection([[0, 1, 2], [1, 2], [2]])
    cpath = str(tmp_path / "data.bin")
    ipath = str(tmp_path / "index.bin")
    save_collection_binary(data, cpath)
    save_index(InvertedIndex.build(data), ipath)

    reloaded = load_collection_binary(cpath)
    index = load_index(ipath)
    pairs = set_containment_join(
        reloaded, reloaded, method="framework", index=index
    )
    assert sorted(pairs) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
