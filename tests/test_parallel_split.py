"""The anchor split and the columnar chunk results of the parallel join.

The tree methods split ``R`` on the partitions of §V: every record goes to
the chunk of its anchor (smallest element in the global order), whole
partitions at a time, so each chunk walks the same subtrees the serial join
walks. Chunks return their pairs as int64 columns together with the
counters of the attempt that settled them. The suite checks the split's
coverage, the counters against the serial join, pair sets against the
serial join for forked and in-process chunk execution, and that the run
log still reads and writes the same bytes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import set_containment_join
from repro.core.order import build_order
from repro.core.parallel import deal_anchors, parallel_join, split_collection
from repro.core.runlog import RunLog, _decode_spill, _encode_spill
from repro.core.stats import JoinStats
from repro.data.collection import SetCollection
from repro.errors import (
    DegradedExecutionWarning,
    InvalidParameterError,
    ResumeMismatchError,
)
from repro.faults import CRASH_EXIT_CODE, FaultPlan
from repro.obs.registry import MetricsRegistry

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="driver generations are forked child processes",
)

def _order(collection: SetCollection):
    return build_order(collection, universe=collection.max_element() + 1)


def many_small_partitions(seed: int = 3, blocks: int = 20, per_block: int = 12) -> SetCollection:
    """Records drawn inside disjoint element blocks: every anchor partition
    is far below the fair share of two chunks, so none is ever cut."""
    rng = random.Random(seed)
    records = []
    for i in range(blocks * per_block):
        block = i // per_block
        elements = range(10 * block, 10 * block + 10)
        records.append(rng.sample(elements, rng.randint(1, 4)))
    return SetCollection(records)


def _serial(r, s, method):
    return sorted(set_containment_join(r, s, method=method))


def _in_process(r, s, method, workers=2):
    """A ``workers`` run whose every chunk executes in this process: each
    worker attempt dies at start and the chunk falls back in-process."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedExecutionWarning)
        pairs, report = parallel_join(
            r, s, method=method, workers=workers, retries=0,
            faults=FaultPlan.parse("*:*:crash"), return_report=True,
        )
    # A single chunk runs in-process directly; more fall back one by one.
    assert all(chunk.final_mode in ("direct", "local") for chunk in report.chunks)
    return pairs


# -- the split -------------------------------------------------------------


class TestAnchorSplit:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=5), min_size=1, max_size=40),
        st.integers(1, 6),
    )
    def test_covers_every_rid_exactly_once(self, records, chunks):
        c = SetCollection(records)
        pieces = split_collection(c, chunks, strategy="anchor", order=_order(c))
        assert 1 <= len(pieces) <= chunks
        seen = []
        for rids, piece in pieces:
            assert rids, "empty chunks must be dropped"
            assert rids == sorted(rids)
            assert piece.records == [c.records[i] for i in rids]
            seen.extend(rids)
        assert sorted(seen) == list(range(len(c)))

    def test_partitions_below_fair_share_stay_whole(self):
        c = many_small_partitions()
        order = _order(c)
        pieces = deal_anchors(c.records, 2, order)
        home = {rid: k for k, rids in enumerate(pieces) for rid in rids}
        groups = {}
        for rid, record in enumerate(c.records):
            groups.setdefault(order.smallest(record), []).append(rid)
        for rids in groups.values():
            assert len({home[rid] for rid in rids}) == 1
        # Largest-first to the least-loaded chunk: off by at most one group.
        sizes = [len(rids) for rids in pieces]
        assert max(sizes) - min(sizes) <= max(len(rids) for rids in groups.values())

    def test_giant_partition_dealt_round_robin(self):
        # Element 0 is in every record: one partition holding all of R.
        c = SetCollection([[0, i] for i in range(1, 10)])
        pieces = deal_anchors(c.records, 3, _order(c))
        assert pieces == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]

    def test_fewer_anchors_than_chunks_drops_empty_chunks(self):
        # Two anchors of two records each over three chunks: both groups
        # exceed the fair share 4/3 and deal round-robin, leaving chunk 2
        # empty.
        c = SetCollection([[0, 5], [0, 6], [1, 7], [1, 8]])
        pieces = split_collection(c, 3, strategy="anchor", order=_order(c))
        assert len(pieces) == 2
        assert sorted(r for rids, __ in pieces for r in rids) == [0, 1, 2, 3]

    def test_largest_group_goes_to_least_loaded_chunk(self):
        # Groups of 3, 2, 2, 1 over two chunks (fair share 4): 3 | 2, then
        # the second 2 joins the lighter chunk, then the 1 the other.
        c = SetCollection(
            [[0, 10], [0, 11], [0, 12], [1, 13], [1, 14], [2, 15], [2, 16], [3, 17]]
        )
        order = _order(c)
        pieces = deal_anchors(c.records, 2, order)
        loads = sorted(len(rids) for rids in pieces)
        assert loads == [4, 4]

    def test_anchor_needs_an_order(self):
        with pytest.raises(InvalidParameterError, match="order"):
            split_collection(SetCollection([[1]]), 2, strategy="anchor")

    @pytest.mark.parametrize(
        "method, expected",
        [("lcjoin", "anchor"), ("all_partition", "anchor"), ("tree", "anchor"),
         ("tree_et", "anchor"), ("framework", "round_robin"), ("pretti", "round_robin")],
    )
    def test_default_strategy_recorded_in_manifest(self, tmp_path, method, expected):
        c = many_small_partitions(blocks=4, per_block=5)
        ckpt = str(tmp_path / "ck")
        pairs = parallel_join(c, c, method=method, workers=2, checkpoint_dir=ckpt)
        assert sorted(pairs) == _serial(c, c, method)
        assert RunLog.open(ckpt).manifest.strategy == expected

    def test_explicit_anchor_for_a_method_without_order(self):
        c = many_small_partitions(blocks=4, per_block=5)
        got = sorted(parallel_join(c, c, method="framework", workers=2, strategy="anchor"))
        assert got == _serial(c, c, "framework")


# -- counters --------------------------------------------------------------


class TestCounters:
    def test_all_partition_counters_equal_serial(self):
        c = many_small_partitions()
        serial = JoinStats()
        set_containment_join(c, c, method="all_partition", stats=serial)
        parallel = JoinStats()
        set_containment_join(c, c, method="all_partition", workers=2, stats=parallel)
        assert serial.rounds > 0 and serial.binary_searches > 0
        assert parallel.rounds == serial.rounds
        assert parallel.binary_searches == serial.binary_searches
        assert parallel.partitions_local == serial.partitions_local
        assert parallel.results == serial.results

    def test_round_robin_walks_more_than_anchor(self):
        c = many_small_partitions()
        __, anchor = parallel_join(
            c, c, method="all_partition", workers=2, return_report=True
        )
        __, rr = parallel_join(
            c, c, method="all_partition", workers=2, strategy="round_robin",
            return_report=True,
        )
        assert rr.stats.rounds > anchor.stats.rounds
        assert rr.stats.binary_searches > anchor.stats.binary_searches

    def test_stats_and_metrics_receive_worker_counters(self):
        c = many_small_partitions()
        stats = JoinStats()
        reg = MetricsRegistry()
        pairs = set_containment_join(c, c, workers=2, stats=stats, metrics=reg)
        assert stats.results == len(pairs)
        for name in ("rounds", "binary_searches", "tree_nodes"):
            assert getattr(stats, name) > 0, name
        assert stats.partitions_local + stats.partitions_global > 0
        assert JoinStats.from_registry(reg).as_dict() == stats.as_dict()

    def test_in_process_chunks_are_counted_once(self):
        # Fallback chunks run in this process, under the caller's registry:
        # their counters must reach stats and metrics once, not twice.
        c = many_small_partitions()
        serial = JoinStats()
        set_containment_join(c, c, method="all_partition", stats=serial)
        stats = JoinStats()
        reg = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecutionWarning)
            set_containment_join(
                c, c, method="all_partition", workers=2, retries=0,
                faults=FaultPlan.parse("*:*:crash"), stats=stats, metrics=reg,
            )
        assert stats.rounds == serial.rounds
        assert stats.binary_searches == serial.binary_searches
        assert JoinStats.from_registry(reg).as_dict() == stats.as_dict()

    def test_lost_attempts_do_not_count(self):
        c = many_small_partitions()
        clean = JoinStats()
        set_containment_join(c, c, method="all_partition", stats=clean)
        __, report = parallel_join(
            c, c, method="all_partition", workers=2,
            faults=FaultPlan.parse("*:1:crash"), return_report=True,
        )
        assert report.total_retries == 2
        assert report.stats.rounds == clean.rounds
        assert report.stats.binary_searches == clean.binary_searches

    def test_resumed_chunks_add_zero(self, tmp_path):
        c = many_small_partitions(blocks=4, per_block=5)
        ckpt = str(tmp_path / "ck")
        parallel_join(c, c, method="all_partition", workers=2, checkpoint_dir=ckpt)
        pairs, report = parallel_join(
            c, c, method="all_partition", workers=2, checkpoint_dir=ckpt,
            resume=True, return_report=True,
        )
        assert sorted(pairs) == _serial(c, c, "all_partition")
        assert report.resumed_chunks == [0, 1]
        assert report.stats.as_dict() == JoinStats().as_dict()


# -- differential ----------------------------------------------------------


_records = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=24
)


# Explicit examples: one partition holding all of R (dealt round-robin),
# one record (fewer anchors than chunks), and two records of one anchor.
@pytest.mark.parametrize("method", ["lcjoin", "all_partition", "tree_et", "framework"])
@settings(max_examples=12, deadline=None)
@given(r_records=_records, s_records=_records)
@example(r_records=[[0, i % 9 + 1] for i in range(20)], s_records=[list(range(10))])
@example(r_records=[[3, 4]], s_records=[[3, 4, 5], [4]])
@example(r_records=[[0], [0, 1]], s_records=[[0, 1], [1]])
def test_workers_match_serial(method, r_records, s_records):
    r, s = SetCollection(r_records), SetCollection(s_records)
    expected = _serial(r, s, method)
    assert sorted(parallel_join(r, s, method=method, workers=2)) == expected
    assert sorted(_in_process(r, s, method)) == expected


# -- run-log compatibility -------------------------------------------------


def _legacy_spill(chunk_id, pairs):
    """The spill bytes as the pair-list encoder wrote them."""
    body = "".join(f"{rid} {sid}\n" for rid, sid in pairs).encode("ascii")
    checksum = hashlib.sha256(body).hexdigest()
    return f"LCJRL1 {chunk_id} {len(pairs)} {checksum}\n".encode("ascii") + body


class TestRunLogCompat:
    @pytest.mark.parametrize(
        "pairs", [[], [(0, 0)], [(3, 1), (0, 2), (7, 7), (2**40, 5)]]
    )
    def test_spill_bytes_unchanged_from_columns(self, pairs):
        rids = np.array([p[0] for p in pairs], dtype=np.int64)
        sids = np.array([p[1] for p in pairs], dtype=np.int64)
        raw = _encode_spill(4, rids, sids)
        assert raw == _legacy_spill(4, pairs)
        got_rids, got_sids = _decode_spill(raw, 4)
        assert list(zip(got_rids.tolist(), got_sids.tolist())) == pairs

    def test_round_robin_manifest_resumes_with_its_split(self, tmp_path):
        c = many_small_partitions(blocks=6, per_block=6)
        expected = _serial(c, c, "lcjoin")
        ckpt = tmp_path / "ck"
        parallel_join(
            c, c, method="lcjoin", workers=3, strategy="round_robin",
            checkpoint_dir=str(ckpt),
        )
        torn = ckpt / "chunk-00001.pairs"
        torn.write_bytes(torn.read_bytes()[:-3])
        pairs, report = parallel_join(
            c, c, method="lcjoin", workers=3, checkpoint_dir=str(ckpt),
            resume=True, return_report=True,
        )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == [0, 2]
        assert report.reexecuted_chunks == [1]
        assert RunLog.open(str(ckpt)).manifest.strategy == "round_robin"

    def test_resume_after_dropped_chunks_keeps_the_split(self, tmp_path):
        # Three chunks asked for, two dealt (the third came out empty). The
        # resumed run must deal the same two chunks, not re-split into two.
        r = SetCollection([[0, 5], [0, 6], [1, 7], [1, 8]])
        s = SetCollection([[0, 1, 5, 6, 7, 8], [0, 5, 6], [1, 7, 8]])
        expected = _serial(r, s, "lcjoin")
        ckpt = tmp_path / "ck"
        parallel_join(r, s, method="lcjoin", workers=3, checkpoint_dir=str(ckpt))
        assert sorted(p.name for p in ckpt.glob("*.pairs")) == [
            "chunk-00000.pairs", "chunk-00001.pairs",
        ]
        (ckpt / "chunk-00001.pairs").unlink()
        pairs, report = parallel_join(
            r, s, method="lcjoin", workers=3, checkpoint_dir=str(ckpt),
            resume=True, return_report=True,
        )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == [0]

    def test_explicit_strategy_must_match_manifest(self, tmp_path):
        c = many_small_partitions(blocks=4, per_block=5)
        ckpt = str(tmp_path / "ck")
        parallel_join(
            c, c, method="lcjoin", workers=2, strategy="round_robin",
            checkpoint_dir=ckpt,
        )
        with pytest.raises(ResumeMismatchError, match="strategy"):
            parallel_join(
                c, c, method="lcjoin", workers=2, strategy="anchor",
                checkpoint_dir=ckpt, resume=True,
            )


def _kill_loop(target, args):
    """Run driver generations until one exits cleanly; return the kills."""
    generations = 0
    for __ in range(40):
        proc = multiprocessing.Process(target=target, args=args)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode is not None, "driver generation hung"
        if proc.exitcode == 0:
            return generations
        assert proc.exitcode == CRASH_EXIT_CODE
        generations += 1
    pytest.fail("kill/resume loop did not converge")


def _pooled_driver(ckpt):
    c = many_small_partitions()
    parallel_join(
        c, c, method="lcjoin", workers=4, checkpoint_dir=ckpt, resume=True,
        faults=FaultPlan.parse("*:*:driverkill"),
    )


def _sharded_driver(ckpt):
    c = many_small_partitions()
    parallel_join(
        c, c, method="lcjoin", shards=2, checkpoint_dir=ckpt, resume=True,
        faults=FaultPlan.parse("*:*:driverkill"),
    )


@fork_only
class TestAnchorResume:
    @pytest.mark.parametrize("driver", [_pooled_driver, _sharded_driver])
    def test_killed_driver_resume_reproduces_serial(self, tmp_path, driver):
        c = many_small_partitions()
        ckpt = str(tmp_path / "ck")
        assert _kill_loop(driver, (ckpt,)) >= 3
        assert RunLog.open(ckpt).manifest.strategy == "anchor"
        kwargs = {"shards": 2} if driver is _sharded_driver else {"workers": 4}
        pairs, report = parallel_join(
            c, c, method="lcjoin", checkpoint_dir=ckpt, resume=True,
            return_report=True, **kwargs,
        )
        assert sorted(pairs) == _serial(c, c, "lcjoin")
        assert report.resumed_chunks == list(range(len(report.chunks)))
