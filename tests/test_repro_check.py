"""Tests for the ``REPRO_CHECK=1`` debug-sanitizer mode.

Covers the three sanitizer layers: the sorted-list invariant on the
Python-backend index, the CSR and bitmap layout invariants on the array
index, and
the cross-backend pair-set spot check wired into
:func:`repro.core.api.set_containment_join`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import set_containment_join
from repro.core.selfcheck import (
    check_array_layout,
    check_sorted_lists,
    crosscheck_backends,
    repro_check_enabled,
)
from repro.data.collection import SetCollection
from repro.errors import InvariantViolation, ReproError
from repro.index.inverted import InvertedIndex
from repro.index.storage import HybridInvertedIndex

from conftest import ARRAY_LAYOUTS


@pytest.fixture
def collections():
    r = SetCollection([(0, 1), (2, 3), (1,)])
    s = SetCollection([(0, 1, 2), (1, 4), (2, 3, 5), (0, 1)])
    return r, s


def test_repro_check_enabled_reads_env_dynamically(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    assert not repro_check_enabled()
    monkeypatch.setenv("REPRO_CHECK", "0")
    assert not repro_check_enabled()
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert repro_check_enabled()


def test_invariant_violation_is_repro_and_assertion_error():
    # Callers catching either the library's error hierarchy or plain
    # assertion failures must see sanitizer trips.
    assert issubclass(InvariantViolation, ReproError)
    assert issubclass(InvariantViolation, AssertionError)


# -- check_sorted_lists ----------------------------------------------------


def test_sorted_lists_pass(collections):
    __, s = collections
    check_sorted_lists(InvertedIndex.build(s))


def test_unsorted_list_raises(collections):
    __, s = collections
    index = InvertedIndex.build(s)
    element = next(iter(index.lists))
    index.lists[element] = [2, 1]  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="not strictly ascending"):
        check_sorted_lists(index)


def test_duplicate_id_raises(collections):
    __, s = collections
    index = InvertedIndex.build(s)
    element = next(iter(index.lists))
    index.lists[element] = [1, 1]  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="not strictly ascending"):
        check_sorted_lists(index)


def test_id_beyond_inf_sid_raises(collections):
    __, s = collections
    index = InvertedIndex.build(s)
    element = next(iter(index.lists))
    index.lists[element] = [index.inf_sid]  # lint: frozen-mutation-ok (fixture)
    with pytest.raises(InvariantViolation, match="inf_sid"):
        check_sorted_lists(index)


def test_build_runs_check_under_repro_check(collections, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    __, s = collections
    index = InvertedIndex.build(s)  # must not raise on a clean build
    assert len(index.lists) > 0


def test_append_set_incremental_check(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    s = SetCollection([(0, 1)])
    index = InvertedIndex.build(s)
    index.append_set((0, 2))  # clean growth passes
    assert list(index[0]) == [0, 1]


# -- check_array_layout: the CSR arrays -------------------------------------


def test_csr_layout_pass(collections):
    __, s = collections
    check_array_layout(HybridInvertedIndex.build(s))


def test_corrupted_keyed_raises(collections):
    __, s = collections
    index = HybridInvertedIndex.build(s)
    keyed = index.keyed.copy()
    keyed[0], keyed[-1] = keyed[-1], keyed[0]
    index.keyed = keyed  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="not globally sorted"):
        check_array_layout(index)


def test_corrupted_offsets_raise(collections):
    __, s = collections
    index = HybridInvertedIndex.build(s)
    offsets = index.offsets.copy()
    offsets[0] = 1
    index.offsets = offsets  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="start at 0"):
        check_array_layout(index)


def test_truncated_values_raise(collections):
    __, s = collections
    index = HybridInvertedIndex.build(s)
    index.values = index.values[:-1]  # lint: frozen-mutation-ok (fixture)
    with pytest.raises(InvariantViolation):
        check_array_layout(index)


def test_nonmonotone_offsets_raise(collections):
    __, s = collections
    index = HybridInvertedIndex.build(s)
    offsets = index.offsets.copy()
    if offsets.shape[0] > 2:
        offsets[1] = offsets[-1]
        offsets[-2] = 0
    index.offsets = offsets  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation):
        check_array_layout(index)


def test_csr_build_checked_under_repro_check(collections, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    __, s = collections
    # The resident server's layout: CSR arrays only, no bitmap rows.
    index = HybridInvertedIndex.build(s, max_dense=0)  # must not raise
    assert index.values.shape[0] == s.total_tokens()


# -- check_array_layout: the bitmap rows ------------------------------------


def _dense_fixture():
    # Element 0 occurs in every set, so the automatic threshold marks it
    # dense; the tail elements stay sparse.
    return SetCollection([[0, i % 5 + 1] for i in range(64)])


def test_hybrid_layout_pass():
    index = HybridInvertedIndex.build(_dense_fixture())
    assert index.num_dense > 0
    check_array_layout(index)


def test_hybrid_layout_pass_degenerate_thresholds():
    data = _dense_fixture()
    check_array_layout(HybridInvertedIndex.build(data, dense_threshold=1))
    for all_sparse in (
        HybridInvertedIndex.build(data, dense_threshold=10 ** 9),
        HybridInvertedIndex.build(data, max_dense=0),
    ):
        assert all_sparse.num_dense == 0
        check_array_layout(all_sparse)


def test_corrupted_bitmap_raises():
    index = HybridInvertedIndex.build(_dense_fixture())
    bitmap = index.bitmap.copy()
    bitmap[0] ^= np.uint64(1 << 63)
    index.bitmap = bitmap  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="reconstruct"):
        check_array_layout(index)


def test_corrupted_dense_map_raises():
    index = HybridInvertedIndex.build(_dense_fixture())
    dense_map = index.dense_map.copy()
    dense_map[-1] = 0
    index.dense_map = dense_map  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation, match="dense_map"):
        check_array_layout(index)


def test_truncated_bitmap_raises():
    index = HybridInvertedIndex.build(_dense_fixture())
    index.bitmap = index.bitmap[:-1]  # lint: frozen-mutation-ok (fixture)
    with pytest.raises(InvariantViolation, match="bitmap length"):
        check_array_layout(index)


def test_unsorted_dense_ids_raise():
    index = HybridInvertedIndex.build(_dense_fixture())
    if index.dense_ids.shape[0] < 2:
        ids = np.array([1, 0], dtype=np.int64)
    else:
        ids = index.dense_ids[::-1].copy()
    index.dense_ids = ids  # lint: frozen-mutation-ok (test fixture)
    with pytest.raises(InvariantViolation):
        check_array_layout(index)


def test_hybrid_build_checked_under_repro_check(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    index = HybridInvertedIndex.build(_dense_fixture())  # must not raise
    assert index.num_dense > 0


# -- crosscheck_backends ---------------------------------------------------


def test_crosscheck_accepts_correct_pairs(collections):
    r, s = collections
    pairs = set_containment_join(r, s, method="lcjoin")
    crosscheck_backends(r, s, pairs, "lcjoin")


def test_crosscheck_rejects_missing_pair(collections):
    r, s = collections
    pairs = set_containment_join(r, s, method="lcjoin")
    assert pairs, "fixture must produce at least one pair"
    with pytest.raises(InvariantViolation, match="diverges"):
        crosscheck_backends(r, s, pairs[:-1], "lcjoin")


def test_crosscheck_rejects_extra_pair(collections):
    r, s = collections
    pairs = set_containment_join(r, s, method="lcjoin")
    with pytest.raises(InvariantViolation, match="diverges"):
        crosscheck_backends(r, s, pairs + [(10_000, 10_000)], "lcjoin")


def test_crosscheck_skips_large_instances(collections, monkeypatch):
    import repro.core.selfcheck as selfcheck

    r, s = collections
    monkeypatch.setattr(selfcheck, "_CROSSCHECK_CELLS", 1)
    # Over budget: even a wrong pair set is waved through (sampled check).
    crosscheck_backends(r, s, [(10_000, 10_000)], "lcjoin")


# -- end-to-end: the api wires the sanitizer in ----------------------------


@pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
def test_array_join_crosschecked_end_to_end(collections, monkeypatch, backend):
    monkeypatch.setenv("REPRO_CHECK", "1")
    r, s = collections
    pairs = set_containment_join(r, s, method="framework", backend=backend)
    expected = set_containment_join(r, s, method="framework", backend="python")
    assert sorted(pairs) == sorted(expected)


@pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
def test_sanitizer_off_by_default(collections, monkeypatch, backend):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    r, s = collections
    pairs = set_containment_join(r, s, method="framework", backend=backend)
    expected = set_containment_join(r, s, method="framework", backend="python")
    assert sorted(pairs) == sorted(expected)


@pytest.mark.parametrize("backend", ARRAY_LAYOUTS, indirect=True)
@pytest.mark.parametrize("method", ["framework", "tree", "lcjoin"])
def test_sanitized_joins_match_bruteforce(method, monkeypatch, backend):
    monkeypatch.setenv("REPRO_CHECK", "1")
    rng = np.random.default_rng(7)
    records = [
        tuple(sorted(set(rng.integers(0, 12, size=rng.integers(1, 5)).tolist())))
        for __ in range(25)
    ]
    collection = SetCollection(records)
    got = set(set_containment_join(collection, collection, method=method,
                                   backend=backend))
    expected = {
        (rid, sid)
        for rid, rec in enumerate(records)
        for sid, sup in enumerate(records)
        if set(rec) <= set(sup)
    }
    assert got == expected
