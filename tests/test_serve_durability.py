"""Tests for serve durability: WAL, snapshots, recovery, replication.

The in-process classes exercise the write-ahead log and the durable
state directly (explicit fault plans, no ambient environment); the
subprocess classes drive the real ``lcjoin serve --data-dir`` through
``kill -9``-grade crashes (``os._exit`` injected at the exact protocol
points) and assert the recovered server is byte-identical to a
never-crashed control.

The chaos scripts use **integer** keywords on purpose: str hashing is
process-randomised, which can change broker-trie construction order (and
therefore analytic byte counts) across processes, while the *answers*
are always sorted and identical. Integer keywords make even the
footprint numbers cross-process comparable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.data.collection import SetCollection
from repro.errors import (
    DegradedExecutionWarning,
    InvalidParameterError,
    ResumeMismatchError,
    ServeConnectionError,
    ServeError,
    ServeReadOnlyError,
    WalError,
)
from repro.faults import CRASH_EXIT_CODE, FaultPlan
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry
from repro.serve import JoinServer, ServeClient
from repro.serve.replica import Replicator
from repro.serve.wal import (
    DurableServeState,
    WAL_NAME,
    WalRecord,
    WriteAheadLog,
    decode_record,
    encode_record,
)


def _strip(stats):
    """Stats without the fields that legitimately differ across processes
    or runs (latency windows) or describe the log itself."""
    return {k: v for k, v in stats.items() if k not in ("latency", "wal")}


#: A small op script touching every logged op kind (int keywords only).
SCRIPT = [
    ("append", {"record": [1, 2, 3]}),
    ("subscribe", {"keywords": [5, 6]}),
    ("append", {"record": [2, 3]}),
    ("publish", {"keywords": [5, 6, 7]}),
    ("delete", {"sid": 1}),
    ("append", {"record": [1, 2, 3, 4]}),
]

#: Queries every comparison asserts on, superset and subset direction.
PROBES = [
    ("query", {"record": [1, 2, 3], "direction": "super"}),
    ("query", {"record": [1, 2, 3, 4, 5], "direction": "sub"}),
]


def _apply_script(state, script=SCRIPT):
    results = []
    for op, params in script:
        results.append(state.handle(op, dict(params), None))
        state.sync()
    return results


def _observe(state):
    return {
        "stats": _strip(state.handle("stats", {}, None)),
        "answers": [state.handle(op, dict(p), None) for op, p in PROBES],
    }


# -- the record codec -------------------------------------------------------


class TestWalCodec:
    def test_roundtrip(self):
        record = WalRecord(
            7, 2, "publish", {"keywords": ["spaced out", "ünïcode", 3]},
            {"matched": [1, 2], "count": 2},
        )
        assert decode_record(encode_record(record)) == record

    def test_checksum_detects_any_flip(self):
        line = bytearray(encode_record(WalRecord(1, 1, "append", {"record": [1]}, {"sid": 0})))
        line[-3] ^= 0x01
        with pytest.raises(WalError):
            decode_record(bytes(line))

    def test_bad_magic_and_header(self):
        with pytest.raises(WalError):
            decode_record(b"NOTWAL 1 1 x y\n")
        with pytest.raises(WalError):
            decode_record(b"LCJWAL1 one 1 x y\n")

    def test_from_wire_validation(self):
        good = WalRecord(3, 1, "append", {"record": [1]}, {"sid": 0})
        assert WalRecord.from_wire(good.to_wire()) == good
        for bad in (
            [],
            {"gen": 1, "op": "x"},
            {"seq": 0, "gen": 1, "op": "x"},
            {"seq": 1, "gen": 0, "op": "x"},
            {"seq": True, "gen": 1, "op": "x"},
            {"seq": 1, "gen": 1, "op": "x", "params": [1]},
        ):
            with pytest.raises(WalError):
                WalRecord.from_wire(bad)


# -- recovery ---------------------------------------------------------------


class TestRecovery:
    def test_boots_count_across_opens(self, tmp_path):
        d = str(tmp_path)
        for expected in (1, 2, 3):
            log = WriteAheadLog(d)
            assert log.boots == expected
            log.close()

    def test_log_tail_replay_restores_exact_state(self, tmp_path):
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d)
        _apply_script(state)
        before = _observe(state)
        state.wal.close()  # no shutdown checkpoint: recovery is log-only

        recovered = DurableServeState(data_dir=d)
        assert _observe(recovered) == before
        assert recovered.wal.last_seq == len(SCRIPT)
        recovered.shutdown_flush()

    def test_snapshot_plus_tail_replay(self, tmp_path):
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d, snapshot_every=4)
        _apply_script(state)  # checkpoint fires mid-script at op 4
        assert state._snapshot_seq == 4
        before = _observe(state)
        state.wal.close()

        recovered = DurableServeState(data_dir=d)
        assert recovered._snapshot_seq == 4  # loaded, then replayed 5..6
        assert _observe(recovered) == before
        recovered.shutdown_flush()

    def test_preloaded_dataset_is_pinned_in_initial_snapshot(self, tmp_path):
        d = str(tmp_path / "data")
        state = DurableServeState(
            SetCollection([[1, 2, 3], [2, 3]]), data_dir=d
        )
        before = _observe(state)
        state.wal.close()
        # Recovery takes no dataset — the snapshot alone must carry it.
        recovered = DurableServeState(data_dir=d)
        assert _observe(recovered) == before
        recovered.shutdown_flush()

    def test_dataset_refused_on_initialised_dir(self, tmp_path):
        d = str(tmp_path / "data")
        DurableServeState(SetCollection([[1]]), data_dir=d).shutdown_flush()
        with pytest.raises(InvalidParameterError, match="already holds"):
            DurableServeState(SetCollection([[2]]), data_dir=d)

    def test_config_drift_refused(self, tmp_path):
        d = str(tmp_path / "data")
        DurableServeState(
            SetCollection([[1, 2]]), data_dir=d, compact_ratio=0.5
        ).shutdown_flush()
        with pytest.raises(ResumeMismatchError, match="compact_ratio"):
            DurableServeState(data_dir=d, compact_ratio=0.25)

    @pytest.mark.parametrize("backend", ["csr", "hybrid"])
    def test_snapshot_with_retired_config_keys_recovers(self, tmp_path, backend):
        # Older servers recorded ``backend`` and ``dense_threshold`` in the
        # snapshot config. Those settings are gone; a data dir carrying
        # them must still recover, from its snapshot, to the same state.
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d, snapshot_every=4)
        _apply_script(state)
        before = _observe(state)
        snapshot = state.wal.load_snapshot()
        assert snapshot["seq"] == 4
        snapshot["config"].update(backend=backend, dense_threshold=None)
        state.wal.write_snapshot(snapshot)
        state.wal.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback to full replay
            recovered = DurableServeState(data_dir=d)
        assert recovered._snapshot_seq == 4
        assert _observe(recovered) == before
        recovered.shutdown_flush()

    @pytest.mark.parametrize("legacy_tree", ["object", "null"])
    def test_snapshot_with_legacy_broker_tree_recovers(self, tmp_path, legacy_tree):
        # Older servers stored the broker's lazily built subscription tree
        # under ``tree`` (``null`` until a publish built it) instead of the
        # trie payload. That tree only cached the live subscriptions, so
        # recovery rebuilds the trie from them; the tail past the snapshot
        # then replays a publish (its recorded match list is verified) and
        # a subscribe (its id must follow the snapshot's ``next_id``).
        script = [
            ("subscribe", {"keywords": [5, 6]}),
            ("subscribe", {"keywords": [6, 7]}),
            ("unsubscribe", {"sub_id": 0}),
            ("subscribe", {"keywords": [5, 7, 8]}),
            ("publish", {"keywords": [5, 6, 7, 8]}),
            ("subscribe", {"keywords": [5]}),
        ]
        events = [[5, 6, 7], [5, 7, 8], [6, 7], [5, 6, 7, 8, 9], [9]]
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d, snapshot_every=4)
        _apply_script(state, script)
        before = _observe(state)
        answers = [state.broker.matches(e) for e in events]
        snapshot = state.wal.load_snapshot()
        assert snapshot["seq"] == 4
        broker = snapshot["broker"]
        assert broker.pop("trie")["dead"] == []  # the cancel compacted it
        broker["subscriptions"] = [[1, [6, 7]], [2, [5, 7, 8]]]
        broker["tree"] = None
        if legacy_tree == "object":
            broker["tree"] = {
                "paths": [[[1, 2], [1]], [[0, 2, 3], [2]]],
                "members": [1, 2],
                "tombstones": 0,
            }
        state.wal.write_snapshot(snapshot)
        state.wal.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback to full replay
            recovered = DurableServeState(data_dir=d)
        assert recovered._snapshot_seq == 4
        assert _observe(recovered) == before
        assert [recovered.broker.matches(e) for e in events] == answers
        assert recovered.handle("subscribe", {"keywords": [9]}, None) == {
            "sub_id": 4
        }
        recovered.shutdown_flush()

    def test_torn_tail_truncated_at_every_byte_offset(self, tmp_path):
        # Build a clean log, then re-recover from a copy truncated at
        # EVERY byte offset of the final record: each one must recover
        # exactly the state before that record, with a warning.
        src = str(tmp_path / "src")
        state = DurableServeState(data_dir=src)
        short = SCRIPT[:3]
        _apply_script(state, short)
        state.wal.close()
        raw = (tmp_path / "src" / WAL_NAME).read_bytes()
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1

        control_dir = str(tmp_path / "control")
        control = DurableServeState(data_dir=control_dir)
        _apply_script(control, short[:-1])
        expected = _observe(control)
        control.wal.close()

        # From one byte into the record (offset last_start+1) through one
        # byte short of its newline: every cut must land on truncation.
        for offset in range(last_start + 1, len(raw)):
            d = tmp_path / f"torn-{offset}"
            d.mkdir()
            (d / WAL_NAME).write_bytes(raw[:offset])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                recovered = DurableServeState(data_dir=str(d))
            assert any(
                isinstance(w.message, DegradedExecutionWarning)
                and "torn tail" in str(w.message)
                for w in caught
            ), offset
            assert recovered.wal.last_seq == len(short) - 1, offset
            assert _observe(recovered) == expected, offset
            # The truncation is durable: a re-open sees a clean log.
            recovered.wal.close()
            clean = DurableServeState(data_dir=str(d))
            assert clean.wal.last_seq == len(short) - 1
            clean.wal.close()

    def test_corrupt_snapshot_degrades_to_full_replay(self, tmp_path):
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d)
        _apply_script(state)
        before = _observe(state)
        state.shutdown_flush()  # writes the final checkpoint

        snap = tmp_path / "data" / "snapshot.json"
        snap.write_bytes(snap.read_bytes()[:-8] + b"CORRUPT!")
        with use_registry(MetricsRegistry()) as reg:
            with pytest.warns(DegradedExecutionWarning, match="full op log"):
                recovered = DurableServeState(data_dir=d)
            assert reg.counters["wal.snapshot_fallbacks"] == 1
            assert reg.counters["wal.records_replayed"] == len(SCRIPT)
        assert _observe(recovered) == before
        recovered.shutdown_flush()

    def test_replay_divergence_refused(self, tmp_path):
        d = str(tmp_path / "data")
        state = DurableServeState(data_dir=d)
        _apply_script(state)
        state.wal.close()
        # Forge the last record: valid checksum, impossible result.
        path = tmp_path / "data" / WAL_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        last = decode_record(lines[-1])
        forged = WalRecord(
            last.seq, last.generation, last.op, last.params, {"sid": 999}
        )
        path.write_bytes(b"".join(lines[:-1]) + encode_record(forged))
        with pytest.raises(WalError, match="divergence"):
            DurableServeState(data_dir=d)


# -- append/sync failure modes ---------------------------------------------


class TestFailureModes:
    def test_diskfull_fault_degrades_to_read_only(self, tmp_path):
        d = str(tmp_path / "data")
        plan = FaultPlan.parse("serve:2:diskfull")
        state = DurableServeState(data_dir=d, plan=plan)
        state.handle("append", {"record": [1, 2]}, None)
        state.sync()
        with use_registry(MetricsRegistry()) as reg:
            with pytest.raises(WalError, match="read-only"):
                state.handle("append", {"record": [3]}, None)
            assert reg.counters["wal.append_errors"] == 1
        assert state.wal.failed
        # Later writes are refused up front; reads still work.
        with pytest.raises(WalError):
            state.handle("subscribe", {"keywords": [1]}, None)
        assert state.handle(
            "query", {"record": [1], "direction": "super"}, None
        )["matches"] == [0]
        state.sync()  # no-op, must not raise with an empty dirty list
        state.wal.close()
        # Only the acknowledged op survives the restart: the op applied
        # in memory but refused by the log is gone.
        recovered = DurableServeState(data_dir=d)
        assert recovered.wal.last_seq == 1
        assert recovered.handle(
            "query", {"record": [1], "direction": "super"}, None
        )["matches"] == [0]
        assert recovered.handle(
            "query", {"record": [3], "direction": "super"}, None
        )["matches"] == []
        recovered.shutdown_flush()

    def test_ambient_faults_env_does_not_reach_inprocess_states(
        self, tmp_path, monkeypatch
    ):
        # Only the CLI wires REPRO_FAULTS into the log; a state built
        # in-process under a chaos environment must not self-destruct.
        monkeypatch.setenv("REPRO_FAULTS", "serve:kill")
        state = DurableServeState(data_dir=str(tmp_path / "data"))
        state.handle("append", {"record": [1]}, None)
        state.sync()  # would os._exit(66) if the env leaked through
        state.shutdown_flush()


# -- the fault-stage grammar ------------------------------------------------


class TestServeFaultStage:
    def test_parse_with_and_without_seq(self):
        (rule,) = FaultPlan.parse("serve:3:kill").rules
        assert rule.stage == "serve" and rule.chunk == 3
        (rule,) = FaultPlan.parse("serve:kill=1").rules
        assert rule.chunk is None and rule.arg == 1.0
        (rule,) = FaultPlan.parse("serve:*:torn@0.5").rules
        assert rule.chunk is None and rule.prob == 0.5

    def test_describe_roundtrips(self):
        spec = "serve:3:kill;serve:*:lag=0.1;shard:0:kill=1;0:1:crash"
        assert FaultPlan.parse(spec).describe() == spec

    def test_unknown_serve_action_names_the_legal_set(self):
        with pytest.raises(InvalidParameterError, match="kill"):
            FaultPlan.parse("serve:1:explode")

    def test_unknown_stage_names_the_stage_registry(self):
        from repro.faults import FaultRule

        with pytest.raises(InvalidParameterError, match="serve"):
            FaultRule(0, None, "kill", stage="cluster")

    def test_boots_gate_applies_to_kill_and_torn(self):
        plan = FaultPlan.parse("serve:kill=1;serve:torn=1")
        assert plan.rule_for_serve(1, ("kill",), boots=1) is not None
        assert plan.rule_for_serve(1, ("kill",), boots=2) is None
        assert plan.rule_for_serve(1, ("torn",), boots=1) is not None
        assert plan.rule_for_serve(1, ("torn",), boots=2) is None
        # lag has no boots semantics: its arg is a duration.
        lag = FaultPlan.parse("serve:lag=0.5")
        assert lag.rule_for_serve(9, ("lag",), boots=5) is not None

    def test_seq_matching(self):
        plan = FaultPlan.parse("serve:4:kill")
        assert plan.rule_for_serve(4, ("kill",)) is not None
        assert plan.rule_for_serve(5, ("kill",)) is None


# -- group commit over the wire --------------------------------------------


@pytest.fixture
def served_durable(tmp_path):
    state = DurableServeState(data_dir=str(tmp_path / "data"))
    path = str(tmp_path / "lcjoin.sock")
    server = JoinServer(state, socket_path=path, max_batch=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(socket_path=path)
    try:
        yield client, state, server
    finally:
        client.close()
        server.stop()
        thread.join(timeout=5)
        server.close()
        state.wal.close()


class TestGroupCommit:
    def test_ack_implies_durable(self, served_durable, tmp_path):
        client, _state, _server = served_durable
        assert client.append([1, 2, 3]) == 0
        # The ack has arrived, so the record must already be on disk.
        raw = (tmp_path / "data" / WAL_NAME).read_bytes()
        record = decode_record(raw.splitlines(keepends=True)[0])
        assert record.op == "append" and record.seq == 1

    def test_failed_log_answers_wal_error_kind(self, served_durable):
        client, state, _server = served_durable
        state.wal.failed = True
        with pytest.raises(WalError):
            client.append([1])
        # Reads keep working on the degraded server.
        assert client.ping() == {"pong": True}

    def test_wal_stats_block(self, served_durable):
        client, _state, _server = served_durable
        client.append([4, 5])
        stats = client.stats()
        assert stats["wal"]["role"] == "primary"
        assert stats["wal"]["last_seq"] == 1
        assert stats["wal"]["generation"] == 1
        assert stats["wal"]["failed"] is False


# -- client retries ---------------------------------------------------------


class TestClientRetries:
    def _start(self, path):
        server = JoinServer(DurableServeState(data_dir=path + ".d"), socket_path=path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def test_idempotent_op_survives_a_server_restart(self, tmp_path):
        path = str(tmp_path / "s.sock")
        server, thread = self._start(path)
        client = ServeClient(
            socket_path=path, retries=40, retry_backoff=0.05
        )
        assert client.ping() == {"pong": True}
        server.stop()
        thread.join(timeout=5)
        server.close()

        # Bring a fresh server up concurrently with the client's retries.
        def respawn():
            time.sleep(0.2)
            self._respawned = self._start(path)

        spawner = threading.Thread(target=respawn)
        spawner.start()
        try:
            assert client.ping() == {"pong": True}  # reconnects under retry
        finally:
            spawner.join()
            client.close()
            server2, thread2 = self._respawned
            server2.stop()
            thread2.join(timeout=5)
            server2.close()

    def test_non_idempotent_op_fails_fast(self, tmp_path):
        path = str(tmp_path / "s.sock")
        server, thread = self._start(path)
        client = ServeClient(socket_path=path, retries=5, retry_backoff=0.01)
        assert client.ping() == {"pong": True}
        server.stop()
        thread.join(timeout=5)
        server.close()
        started = time.monotonic()
        with pytest.raises(ServeConnectionError):
            client.append([1, 2])  # one attempt, no backoff loop
        assert time.monotonic() - started < 1.0
        client.close()

    def test_zero_retries_is_the_default(self, tmp_path):
        path = str(tmp_path / "s.sock")
        server, thread = self._start(path)
        client = ServeClient(socket_path=path)
        server.stop()
        thread.join(timeout=5)
        server.close()
        with pytest.raises(ServeConnectionError):
            client.ping()
        client.close()

    def test_connect_failure_is_a_connection_error(self, tmp_path):
        with pytest.raises(ServeConnectionError):
            ServeClient(socket_path=str(tmp_path / "nothing.sock"))

    def test_retry_parameter_validation(self, tmp_path):
        with pytest.raises(ServeError):
            ServeClient(socket_path="x", retries=-1)
        with pytest.raises(ServeError):
            ServeClient(socket_path="x", retry_backoff=0.0)


# -- replication ------------------------------------------------------------


class TestReplicationFences:
    def test_append_replicated_refuses_a_gap(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        with pytest.raises(WalError, match="gap"):
            log.append_replicated(WalRecord(2, 1, "append", {}, None))
        log.close()

    def test_append_replicated_refuses_a_stale_generation(self, tmp_path):
        log = WriteAheadLog(str(tmp_path))
        log.generation = 3
        with pytest.raises(WalError, match="fence"):
            log.append_replicated(WalRecord(1, 2, "append", {}, None))
        log.close()

    def test_recovery_stops_at_a_generation_regression(self, tmp_path):
        d = str(tmp_path)
        log = WriteAheadLog(d)
        log.append("append", {"record": [1]}, {"sid": 0})
        log.sync()
        log.close()
        with open(os.path.join(d, WAL_NAME), "ab") as handle:  # test fixture, not repro code
            handle.write(
                encode_record(WalRecord(2, 0, "append", {"record": [2]}, {"sid": 1}))
            )
        with pytest.warns(DegradedExecutionWarning, match="torn tail"):
            recovered = WriteAheadLog(d)
        assert recovered.last_seq == 1
        recovered.close()


class _PrimaryHarness:
    """A live primary server plus a replica state ticked by hand."""

    def __init__(self, tmp_path):
        self.primary = DurableServeState(data_dir=str(tmp_path / "p"))
        self.server = JoinServer(self.primary, port=0)
        self.host, self.port = self.server.address
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.replica = DurableServeState(data_dir=str(tmp_path / "r"))
        self.rep = Replicator(self.replica, host=self.host, port=self.port)

    def kill_primary(self):
        self.server.stop()
        self.thread.join(timeout=5)
        self.server.close()

    def close(self):
        self.kill_primary()
        self.rep.close()
        self.primary.wal.close()
        self.replica.wal.close()


class TestReplication:
    def test_replica_applies_in_lockstep_and_refuses_writes(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            _apply_script(h.primary)
            h.rep.tick()
            assert h.replica.wal.last_seq == h.primary.wal.last_seq
            assert _observe(h.replica) == _observe(h.primary)
            with pytest.raises(ServeReadOnlyError):
                h.replica.handle("append", {"record": [9]}, None)
        finally:
            h.close()

    def test_promote_mid_stream_matches_the_dead_primary(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            _apply_script(h.primary)
            h.rep.tick()  # partial catch-up
            _apply_script(h.primary)  # more ops the replica has not seen
            expected = _observe(h.primary)
            out = h.replica.handle("promote", {}, None)  # final catch-up inside
            assert out["promoted"] and out["generation"] == 2
            assert _observe(h.replica) == expected
            # The promoted server takes writes now: the two script passes
            # appended sids 0..5, so the next one is 6.
            assert (
                h.replica.handle("append", {"record": [7, 8]}, None)["sid"] == 6
            )
        finally:
            h.close()

    def test_promoted_replica_recovers_with_its_new_generation(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            _apply_script(h.primary)
            h.rep.tick()
            h.replica.handle("promote", {}, None)
            h.replica.handle("append", {"record": [9, 10]}, None)
            h.replica.sync()
            before = _observe(h.replica)
            h.replica.wal.close()
            recovered = DurableServeState(data_dir=str(tmp_path / "r"))
            assert recovered.wal.generation == 2
            assert _observe(recovered) == before
            recovered.shutdown_flush()
        finally:
            h.close()

    def test_deposed_primary_stream_is_fenced(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            _apply_script(h.primary)
            h.rep.tick()
            # The replica secretly advances past the primary: a divergent
            # lineage (as after an un-replicated failover).
            h.replica.wal.append("append", {"record": [99]}, {"sid": 99})
            h.replica.wal.sync()
            with use_registry(MetricsRegistry()) as reg:
                with pytest.warns(DegradedExecutionWarning, match="fenced"):
                    h.rep.tick()
                assert reg.counters["replica.fenced"] == 1
            assert h.rep.following is False
        finally:
            h.close()

    def test_stale_generation_primary_is_fenced(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            h.replica.wal.generation = 5  # as if promoted long ago
            with pytest.warns(DegradedExecutionWarning, match="fenced"):
                h.rep.tick()
            assert h.rep.following is False
        finally:
            h.close()

    def test_primary_outage_is_retried_not_fatal(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            _apply_script(h.primary)
            h.kill_primary()
            with use_registry(MetricsRegistry()) as reg:
                h.rep.tick()  # connection refused: counted, still following
                assert reg.counters["replica.poll_errors"] == 1
            assert h.rep.following is True
        finally:
            h.rep.close()
            h.primary.wal.close()
            h.replica.wal.close()

    def test_lag_fault_delays_the_apply_loop(self, tmp_path):
        h = _PrimaryHarness(tmp_path)
        try:
            h.replica.wal.plan = FaultPlan.parse("serve:lag=0.3")
            h.primary.handle("append", {"record": [1]}, None)
            h.primary.sync()
            started = time.monotonic()
            h.rep.tick()
            assert time.monotonic() - started >= 0.3
            assert h.replica.wal.last_seq == 1
        finally:
            h.close()


# -- subprocess chaos -------------------------------------------------------


def _spawn_serve(sock, data_dir, *extra, faults=None, follow=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--socket", sock, "--data-dir", data_dir,
    ]
    if follow is not None:
        cmd += ["--follow", follow, "--poll-interval", "0.02"]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE, text=True)
    # Recovery may emit DegradedExecutionWarning lines (torn tail, bad
    # snapshot) before the ready line; skip those, never block on read().
    seen = []
    while len(seen) < 20:
        line = proc.stderr.readline()
        if not line:
            break  # stderr closed: the process died before listening
        seen.append(line)
        if "listening" in line:
            return proc
    raise AssertionError("server never came up:\n" + "".join(seen))


def _control_observation(tmp_path, script):
    control = DurableServeState(data_dir=str(tmp_path / "control"))
    _apply_script(control, script)
    out = _observe(control)
    control.shutdown_flush()
    return out


def _drive_with_crashes(tmp_path, sock, data_dir, script, faults):
    """Apply ``script`` against a crashing server, respawning as needed.

    Returns the final (stats, answers) observation through the client.
    Ops are resent only when the crash provably lost them — the WAL seq
    tells whether the dying server made the op durable before the ack
    was lost, which is exactly the client-side contract the log promises.
    """
    proc = _spawn_serve(sock, data_dir, faults=faults)
    procs = [proc]
    client = ServeClient(socket_path=sock)
    seq = 0
    try:
        for op, params in script:
            seq += 1
            while True:
                try:
                    client.request(op, **params)
                    break
                except (ServeConnectionError, ServeError):
                    assert procs[-1].wait(timeout=10) == CRASH_EXIT_CODE
                    client.close()
                    procs.append(_spawn_serve(sock, data_dir, faults=faults))
                    client = ServeClient(socket_path=sock)
                    if client.stats()["wal"]["last_seq"] >= seq:
                        break  # durable before the crash: must NOT resend
        stats = _strip(client.stats())
        answers = [client.request(op, **p) for op, p in PROBES]
        client.shutdown()
        assert procs[-1].wait(timeout=10) == 0
        return {"stats": stats, "answers": answers}, len(procs)
    finally:
        client.close()
        for p in procs:
            if p.poll() is None:
                p.kill()


class TestChaosSubprocess:
    def test_kill_at_every_settle_point_loses_no_acked_write(self, tmp_path):
        expected = _control_observation(tmp_path, SCRIPT)
        for k in range(1, len(SCRIPT) + 1):
            sock = str(tmp_path / f"k{k}.sock")
            data_dir = str(tmp_path / f"k{k}.data")
            observed, spawns = _drive_with_crashes(
                tmp_path, sock, data_dir, SCRIPT, faults=f"serve:{k}:kill"
            )
            assert spawns == 2, k  # exactly one injected crash
            assert observed == expected, k

    def test_torn_append_recovers_and_replays(self, tmp_path):
        expected = _control_observation(tmp_path, SCRIPT)
        sock = str(tmp_path / "torn.sock")
        data_dir = str(tmp_path / "torn.data")
        observed, spawns = _drive_with_crashes(
            tmp_path, sock, data_dir, SCRIPT, faults="serve:3:torn=1"
        )
        assert spawns == 2
        assert observed == expected
        # The torn record was truncated, so op 3 was genuinely lost and
        # resent: the final log still has exactly len(SCRIPT) records.
        raw = (tmp_path / "torn.data" / WAL_NAME).read_bytes()
        assert len(raw.splitlines()) == len(SCRIPT)

    def test_env_activated_first_boot_kill(self, tmp_path):
        # The CI chaos shape: REPRO_FAULTS=serve:kill=1 kills the first
        # boot at its first settle point; the recovered boot survives.
        sock = str(tmp_path / "env.sock")
        data_dir = str(tmp_path / "env.data")
        proc = _spawn_serve(sock, data_dir, faults="serve:kill=1")
        client = ServeClient(socket_path=sock)
        try:
            with pytest.raises((ServeConnectionError, ServeError)):
                client.append([1, 2])
            assert proc.wait(timeout=10) == CRASH_EXIT_CODE
            client.close()
            proc = _spawn_serve(sock, data_dir, faults="serve:kill=1")
            client = ServeClient(socket_path=sock)
            stats = client.stats()
            assert stats["wal"]["boots"] == 2
            assert stats["wal"]["last_seq"] == 1  # durable despite the kill
            assert client.append([3, 4]) == 1  # boot 2 lives
            client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()

    def test_failover_smoke(self, tmp_path):
        expected = _control_observation(tmp_path, SCRIPT)
        psock = str(tmp_path / "primary.sock")
        rsock = str(tmp_path / "replica.sock")
        primary = _spawn_serve(psock, str(tmp_path / "p.data"))
        replica = _spawn_serve(
            rsock, str(tmp_path / "r.data"), follow=psock
        )
        pc = ServeClient(socket_path=psock)
        rc = ServeClient(socket_path=rsock)
        try:
            for op, params in SCRIPT:
                pc.request(op, **params)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if rc.stats()["wal"]["last_seq"] == len(SCRIPT):
                    break
                time.sleep(0.05)
            assert rc.stats()["wal"]["last_seq"] == len(SCRIPT)
            primary.kill()  # SIGKILL: the real failover trigger
            primary.wait(timeout=10)
            out = rc.promote()
            assert out["promoted"] and out["generation"] == 2
            observed = {
                "stats": _strip(rc.stats()),
                "answers": [rc.request(op, **p) for op, p in PROBES],
            }
            assert observed == expected
            # The promoted server accepts writes: sids 0..2 exist, next is 3.
            assert rc.append([100, 101]) == 3
            rc.shutdown()
            assert replica.wait(timeout=10) == 0
        finally:
            pc.close()
            rc.close()
            for p in (primary, replica):
                if p.poll() is None:
                    p.kill()
