"""Equivalence grid for incremental index/trie maintenance.

The contract under test: an :class:`IncrementalIndex` (and the matching
:class:`IncrementalPrefixTree`) must answer every query identically to a
from-scratch structure built over its current live records, for **any**
interleaving of appends, deletes, and compactions — and a reader pinned
to an old epoch's snapshot must keep seeing exactly the state it pinned,
across compactions happening under it.
"""

from __future__ import annotations

import random

import pytest

from repro.data.collection import SetCollection
from repro.errors import InvalidParameterError
from repro.index.prefix_tree import IncrementalPrefixTree
from repro.index.storage import HybridInvertedIndex, IncrementalIndex


def brute_supersets(live, record):
    want = set(record)
    return sorted(sid for sid, rec in live.items() if want <= set(rec))


def brute_subsets(live, elements):
    have = set(elements)
    return sorted(sid for sid, rec in live.items() if set(rec) <= have)


def random_record(rng, universe=30, max_len=6):
    return sorted(rng.sample(range(universe), rng.randint(1, max_len)))


class TestIncrementalIndexGrid:
    def test_appends_match_scratch_build(self):
        rng = random.Random(1)
        records = [random_record(rng) for _ in range(40)]
        inc = IncrementalIndex(auto_compact=False)
        for rec in records:
            inc.append(rec)
        live = dict(enumerate(records))
        for _ in range(30):
            probe = random_record(rng)
            assert inc.supersets_of(probe) == brute_supersets(live, probe)

    def test_interleaving_grid(self):
        # Every schedule in the grid: (delete position) x (compact point).
        base = [[1, 2, 3], [2, 3], [1, 4], [2, 3, 4], [5]]
        extra = [[1, 2], [3, 4, 5]]
        for delete_sid in range(len(base)):
            for compact_at in ("never", "after_delete", "after_appends"):
                inc = IncrementalIndex(
                    SetCollection(base), auto_compact=False
                )
                live = dict(enumerate(s for s in map(sorted, base)))
                assert inc.delete(delete_sid)
                del live[delete_sid]
                if compact_at == "after_delete":
                    inc.compact()
                for rec in extra:
                    sid = inc.append(rec)
                    live[sid] = sorted(rec)
                if compact_at == "after_appends":
                    inc.compact()
                for probe in ([1, 2], [2, 3], [5], [1, 2, 3, 4, 5], [9]):
                    assert inc.supersets_of(probe) == brute_supersets(
                        live, probe
                    ), (delete_sid, compact_at, probe)

    def test_randomized_against_bruteforce(self):
        rng = random.Random(11)
        inc = IncrementalIndex(compact_ratio=0.3,
                               delta_ratio=0.2)
        live = {}
        for step in range(250):
            op = rng.random()
            if op < 0.5 or not live:
                rec = random_record(rng)
                sid = inc.append(rec)
                live[sid] = rec
            elif op < 0.65:
                victim = rng.choice(list(live))
                assert inc.delete(victim)
                del live[victim]
            elif op < 0.7:
                inc.compact()
            else:
                probe = random_record(rng)
                assert inc.supersets_of(probe) == brute_supersets(live, probe)
        # Final sweep after the churn.
        for _ in range(20):
            probe = random_record(rng)
            assert inc.supersets_of(probe) == brute_supersets(live, probe)

    def test_pinned_snapshot_survives_compaction(self):
        inc = IncrementalIndex(
            SetCollection([[1, 2], [2, 3], [1, 2, 3]]),
            auto_compact=False,
        )
        pinned = inc.snapshot()
        pinned_live = {0: [1, 2], 1: [2, 3], 2: [1, 2, 3]}
        # Mutate heavily under the pinned reader, compacting twice.
        inc.delete(1)
        inc.compact()
        inc.append([2, 4])
        inc.append([1, 2, 5])
        inc.delete(0)
        inc.compact()
        for probe in ([1, 2], [2, 3], [2], [1, 2, 3]):
            assert pinned.supersets_of(probe) == brute_supersets(
                pinned_live, probe
            )
        # A fresh snapshot sees the new world.
        now_live = {2: [1, 2, 3], 3: [2, 4], 4: [1, 2, 5]}
        fresh = inc.snapshot()
        for probe in ([1, 2], [2], [2, 4]):
            assert fresh.supersets_of(probe) == brute_supersets(
                now_live, probe
            )

    def test_snapshot_does_not_see_later_appends(self):
        inc = IncrementalIndex(auto_compact=False)
        inc.append([1, 2])
        snap = inc.snapshot()
        inc.append([1, 2, 3])
        assert snap.supersets_of([1]) == [0]
        assert inc.supersets_of([1]) == [0, 1]

    def test_delete_validation(self):
        inc = IncrementalIndex()
        sid = inc.append([1, 2])
        assert inc.delete(sid) is True
        assert inc.delete(sid) is False
        assert inc.delete(999) is False

    def test_append_validation(self):
        inc = IncrementalIndex()
        with pytest.raises(InvalidParameterError):
            inc.append([])
        with pytest.raises(InvalidParameterError):
            inc.append([-1, 2])

    def test_base_has_no_bitmap_rows(self):
        # The base's only reader is the CSR intersection, so bitmap rows
        # would be dead weight — even on data where a default build packs
        # some.
        data = SetCollection([[0, i % 5 + 1] for i in range(64)])
        assert HybridInvertedIndex.build(data).num_dense > 0
        inc = IncrementalIndex(data, auto_compact=False)
        assert inc.snapshot().base.num_dense == 0
        inc.append([0, 9])
        inc.compact()
        assert inc.snapshot().base.num_dense == 0

    def test_sids_stable_across_compaction(self):
        inc = IncrementalIndex(auto_compact=False)
        sids = [inc.append([i, i + 1]) for i in range(10)]
        assert sids == list(range(10))
        inc.delete(3)
        inc.delete(7)
        inc.compact()
        # External sids are permanent: survivors answer under their
        # original ids, and the next append continues the sequence.
        assert inc.supersets_of([5, 6]) == [5]
        assert inc.append([100]) == 10


class TestIncrementalTrieGrid:
    def test_randomized_against_bruteforce(self):
        rng = random.Random(23)
        trie = IncrementalPrefixTree(compact_ratio=0.3)
        live = {}
        for step in range(250):
            op = rng.random()
            if op < 0.5 or not live:
                rec = random_record(rng)
                rid = trie.insert(rec)
                live[rid] = rec
            elif op < 0.65:
                victim = rng.choice(list(live))
                assert trie.mark_dead(victim)
                del live[victim]
            elif op < 0.7:
                trie.compact()
            else:
                elements = random_record(rng, max_len=10)
                assert trie.subsets_of(elements) == brute_subsets(
                    live, elements
                )
        for _ in range(20):
            elements = random_record(rng, max_len=10)
            assert trie.subsets_of(elements) == brute_subsets(live, elements)

    def test_pinned_snapshot_survives_compaction(self):
        trie = IncrementalPrefixTree(auto_compact=False)
        for rec in ([1, 2], [2, 3], [1, 2, 3]):
            trie.insert(rec)
        pinned = trie.snapshot()
        pinned_live = {0: [1, 2], 1: [2, 3], 2: [1, 2, 3]}
        trie.mark_dead(1)
        trie.compact()
        trie.insert([2, 4])
        trie.mark_dead(0)
        trie.compact()
        for probe in ([1, 2, 3], [2, 3, 4], [1, 2]):
            assert pinned.subsets_of(probe) == brute_subsets(
                pinned_live, probe
            )
        now_live = {2: [1, 2, 3], 3: [2, 4]}
        fresh = trie.snapshot()
        for probe in ([1, 2, 3], [2, 4], [1, 2, 3, 4]):
            assert fresh.subsets_of(probe) == brute_subsets(now_live, probe)

    def test_snapshot_does_not_see_later_inserts(self):
        trie = IncrementalPrefixTree()
        trie.insert([1, 2])
        snap = trie.snapshot()
        trie.insert([1])
        assert snap.subsets_of([1, 2]) == [0]
        assert trie.subsets_of([1, 2]) == [0, 1]

    def test_rid_sync_contract(self):
        # The serve layer inserts with rid=sid; any drift must raise.
        trie = IncrementalPrefixTree()
        assert trie.insert([1], rid=0) == 0
        with pytest.raises(InvalidParameterError):
            trie.insert([2], rid=5)

    def test_mark_dead_validation(self):
        trie = IncrementalPrefixTree()
        rid = trie.insert([1, 2])
        assert trie.mark_dead(rid) is True
        assert trie.mark_dead(rid) is False
        assert trie.mark_dead(404) is False


class TestCrossStructureEquivalence:
    def test_index_and_trie_agree_on_equal_sets(self):
        # A record equals itself: supersets_of(r) and subsets_of(r) must
        # both contain r's sid whenever it is live, under churn.
        rng = random.Random(5)
        inc = IncrementalIndex(compact_ratio=0.4)
        trie = IncrementalPrefixTree(compact_ratio=0.4)
        live = {}
        for _ in range(120):
            if rng.random() < 0.6 or not live:
                rec = random_record(rng)
                sid = inc.append(rec)
                assert trie.insert(rec, rid=sid) == sid
                live[sid] = rec
            else:
                victim = rng.choice(list(live))
                inc.delete(victim)
                trie.mark_dead(victim)
                del live[victim]
            for sid, rec in list(live.items())[:5]:
                assert sid in inc.supersets_of(rec)
                assert sid in trie.subsets_of(rec)
