"""Tests for the resident join service (protocol, state, server, CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.data.collection import SetCollection
from repro.errors import (
    AdmissionRejectedError,
    RequestDeadlineError,
    ServeError,
    ServeProtocolError,
)
from repro.obs import MetricsRegistry
from repro.obs.registry import use_registry
from repro.serve import JoinServer, ServeClient
from repro.serve import protocol
from repro.serve.state import _SUBSCRIPTION_BYTES, LatencyRecorder, ServeState


class TestProtocol:
    def test_roundtrip(self):
        msg = {"id": 1, "op": "ping"}
        assert protocol.decode_line(
            protocol.encode_message(msg).rstrip(b"\n")
        ) == msg

    def test_bad_json_raises(self):
        with pytest.raises(ServeProtocolError):
            protocol.decode_line(b"{nope")

    def test_non_object_raises(self):
        with pytest.raises(ServeProtocolError):
            protocol.decode_line(b"[1,2,3]")

    def test_oversize_line_raises(self):
        with pytest.raises(ServeProtocolError):
            protocol.decode_line(b"x" * (protocol.MAX_LINE_BYTES + 1))

    def test_error_kind_enum_is_closed(self):
        resp = protocol.error_response(1, "made_up_kind", "boom")
        assert resp["error_kind"] == protocol.KIND_INTERNAL

    def test_deadline_parsing(self):
        assert protocol.request_deadline({}, 10.0) is None
        assert protocol.request_deadline({"deadline_ms": 500}, 10.0) == 10.5
        for bad in (-1, True, "soon"):
            with pytest.raises(ServeProtocolError):
                protocol.request_deadline({"deadline_ms": bad}, 10.0)


class TestLatencyRecorder:
    def test_quantiles_over_window(self):
        rec = LatencyRecorder(capacity=100)
        for ms in range(1, 101):
            rec.record(ms / 1000.0)
        assert rec.count == 100
        assert rec.summary()["p50_ms"] == pytest.approx(50.0, abs=2.0)
        assert rec.summary()["p99_ms"] == pytest.approx(99.0, abs=2.0)

    def test_ring_evicts_oldest(self):
        rec = LatencyRecorder(capacity=4)
        for s in (1.0, 1.0, 1.0, 1.0, 0.001, 0.001, 0.001, 0.001):
            rec.record(s)
        assert rec.quantile(0.99) == pytest.approx(0.001)

    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.quantile(0.5) == 0.0
        assert rec.summary()["mean_ms"] == 0.0


class TestServeState:
    def test_query_directions(self):
        state = ServeState(SetCollection([[1, 2, 3], [2, 3], [5]]))
        sup = state.handle("query", {"record": [2, 3], "direction": "super"}, None)
        assert sup["matches"] == [0, 1]
        sub = state.handle("query", {"record": [2, 3, 5], "direction": "sub"}, None)
        assert sub["matches"] == [1, 2]

    def test_batch_query_pins_one_epoch(self):
        state = ServeState()
        state.handle("append", {"record": [1, 2]}, None)
        result = state.handle(
            "query",
            {"records": [[1], [1, 2]], "direction": "super"},
            None,
        )
        assert result["matches"] == [[0], [0]]

    def test_append_delete_cycle(self):
        state = ServeState()
        sid = state.handle("append", {"record": [3, 1, 2, 2]}, None)["sid"]
        assert sid == 0
        assert state.handle("query", {"record": [1], "direction": "super"}, None)[
            "matches"
        ] == [0]
        assert state.handle("delete", {"sid": 0}, None)["removed"] is True
        assert state.handle("delete", {"sid": 0}, None)["removed"] is False
        assert state.handle("query", {"record": [1], "direction": "super"}, None)[
            "matches"
        ] == []

    def test_trie_mirrors_index_sids(self):
        state = ServeState(SetCollection([[1, 2], [2, 3]]))
        sid = state.handle("append", {"record": [9]}, None)["sid"]
        assert sid == 2
        assert state.trie.live_count == len(state.index)

    def test_query_validation(self):
        state = ServeState()
        with pytest.raises(ServeProtocolError):
            state.handle("query", {"direction": "sideways", "record": [1]}, None)
        with pytest.raises(ServeProtocolError):
            state.handle("query", {"direction": "super"}, None)
        with pytest.raises(ServeProtocolError):
            state.handle(
                "query",
                {"direction": "super", "record": [1], "records": [[1]]},
                None,
            )
        with pytest.raises(ServeProtocolError):
            state.handle("query", {"record": [True], "direction": "super"}, None)

    def test_admission_control_refuses_writes(self):
        state = ServeState(memory_budget=1)  # everything is over budget
        with pytest.raises(AdmissionRejectedError):
            state.handle("append", {"record": [1, 2]}, None)
        with pytest.raises(AdmissionRejectedError):
            state.handle("subscribe", {"keywords": ["a"]}, None)
        # Reads are never refused by admission control.
        assert state.handle(
            "query", {"record": [1], "direction": "super"}, None
        )["matches"] == []

    def test_publish_leaves_resident_bytes_unchanged(self):
        # The subscription trie is built by the subscribes, so the first
        # publish adds nothing to the footprint admission control saw.
        state = ServeState()
        for i in range(200):
            keywords = [f"k{i}", f"k{i + 1}", f"k{i + 2}"]
            state.handle("subscribe", {"keywords": keywords}, None)
        before = state.resident_bytes()
        state.handle("publish", {"keywords": ["k0", "k1", "k2"]}, None)
        assert state.resident_bytes() == before

    def test_subscribe_refused_once_trie_nodes_cross_budget(self):
        # The budget holds twenty registry entries; the trie nodes of each
        # disjoint three-keyword subscription cross it after four.
        budget = ServeState().resident_bytes() + 20 * _SUBSCRIPTION_BYTES
        state = ServeState(memory_budget=budget)
        admitted = 0
        with pytest.raises(AdmissionRejectedError):
            for i in range(20):
                keywords = [3 * i, 3 * i + 1, 3 * i + 2]
                state.handle("subscribe", {"keywords": keywords}, None)
                admitted += 1
        assert admitted == 4
        assert state.resident_bytes() >= budget

    def test_admission_counter(self):
        state = ServeState(memory_budget=1)
        with use_registry(MetricsRegistry()) as reg:
            with pytest.raises(AdmissionRejectedError):
                state.handle("append", {"record": [1]}, None)
            assert reg.counters["serve.admission_rejections"] == 1

    def test_deadline_refusal(self):
        state = ServeState()
        expired = time.monotonic() - 1.0
        with pytest.raises(RequestDeadlineError):
            state.handle(
                "query", {"record": [1], "direction": "super"}, expired
            )

    def test_pubsub_ops(self):
        state = ServeState()
        sub = state.handle("subscribe", {"keywords": ["a", "b"]}, None)["sub_id"]
        hit = state.handle("publish", {"keywords": ["a", "b", "c"]}, None)
        assert hit["matched"] == [sub] and hit["count"] == 1
        assert state.handle("unsubscribe", {"sub_id": sub}, None)["removed"]
        assert not state.handle("unsubscribe", {"sub_id": sub}, None)["removed"]

    def test_compact_bumps_epochs(self):
        state = ServeState(SetCollection([[1, 2]]))
        out = state.handle("compact", {}, None)
        assert out == {"index_epoch": 1, "trie_epoch": 1}

    def test_stats_shape(self):
        state = ServeState(SetCollection([[1, 2], [3]]))
        stats = state.handle("stats", {}, None)
        assert stats["live_records"] == 2
        assert "backend" not in stats
        assert set(stats["latency"]) == {"request", "publish", "query"}

    def test_metrics_op_flushes_gauges(self):
        state = ServeState()
        with use_registry(MetricsRegistry()):
            state.handle("publish", {"keywords": ["x"]}, None)
            out = state.handle("metrics", {}, None)
        assert "serve.publish_p99_ms" in out["registry"]["gauges"]
        assert out["latency"]["publish"]["count"] == 1.0

    def test_serve_counters_are_catalogued(self):
        # Every serve.* (and incremental-maintenance) name the state and
        # server emit must be in the documented catalogue — RL901 checks
        # the source statically, this pins it at runtime too.
        from repro.obs.catalogue import COUNTER_CATALOGUE

        state = ServeState(memory_budget=10**12)
        with use_registry(MetricsRegistry()) as reg:
            state.handle("append", {"record": [1, 2]}, None)
            state.handle("delete", {"sid": 0}, None)
            state.handle("subscribe", {"keywords": ["a"]}, None)
            state.handle("publish", {"keywords": ["a"]}, None)
            state.handle("query", {"record": [1], "direction": "super"}, None)
            state.handle("compact", {}, None)
            state.flush_latency_gauges(reg)
            emitted = (
                set(reg.counters) | set(reg.gauges) | set(reg.histograms)
            )
        assert emitted <= set(COUNTER_CATALOGUE), (
            emitted - set(COUNTER_CATALOGUE)
        )


@pytest.fixture
def served(tmp_path):
    """A running server on a unix socket plus a connected client."""
    state = ServeState(memory_budget=100_000_000)
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


class TestServerLifecycle:
    def test_full_session(self, served):
        client, state, _server = served
        assert client.ping() == {"pong": True}
        assert client.append([1, 2, 3]) == 0
        assert client.append([2, 3]) == 1
        sub = client.subscribe(["a", "b"])
        assert client.publish(["a", "b", "c"]) == [sub]
        assert client.query([2, 3])["matches"] == [0, 1]
        assert client.query([1, 2, 3, 4], direction="sub")["matches"] == [0, 1]
        assert client.delete(1) is True
        assert client.stats()["live_records"] == 1

    def test_batch_op(self, served):
        client, _state, _server = served
        client.append([1, 2])
        responses = client.batch(
            [
                ("ping", {}),
                ("query", {"record": [1], "direction": "super"}),
                ("nope", {}),
            ]
        )
        assert responses[0]["ok"] and responses[0]["result"] == {"pong": True}
        assert responses[1]["result"]["matches"] == [0]
        assert not responses[2]["ok"]
        assert responses[2]["error_kind"] == "unknown_op"

    def test_nested_batch_refused(self, served):
        client, _state, _server = served
        responses = client.batch([("batch", {"requests": []})])
        assert not responses[0]["ok"]
        assert responses[0]["error_kind"] == "bad_request"

    def test_pipelined_requests_answered_in_order(self, served):
        client, _state, _server = served
        # Raw pipelining: many requests written before any response read.
        payload = b"".join(
            protocol.encode_message({"id": i, "op": "ping"}) for i in range(20)
        )
        client._sock.sendall(payload)
        for i in range(20):
            line = client._rfile.readline()
            assert json.loads(line)["id"] == i

    def test_error_kinds_over_the_wire(self, served):
        client, _state, _server = served
        with pytest.raises(ServeProtocolError):
            client.request("no_such_op")
        with pytest.raises(ServeProtocolError):
            client.request("append", record="not-a-list")
        with pytest.raises(RequestDeadlineError):
            client.request("compact", deadline_ms=0)

    def test_internal_errors_do_not_kill_the_server(self, served):
        client, state, _server = served
        # Force an unexpected exception inside an op handler.
        state._ops["ping"] = lambda obj, deadline: 1 / 0
        with pytest.raises(ServeError):
            client.ping()
        # The loop survived; other ops still work on the same connection.
        assert client.append([7]) == 0

    def test_oversize_line_closes_connection(self, served):
        client, _state, server = served
        junk = b"x" * (server.max_line + 2)
        client._sock.sendall(junk)
        line = client._rfile.readline()
        resp = json.loads(line)
        assert not resp["ok"] and resp["error_kind"] == "bad_request"
        assert client._rfile.readline() == b""  # server hung up

    def test_shutdown_drains_and_exits(self, tmp_path):
        state = ServeState()
        path = str(tmp_path / "s.sock")
        server = JoinServer(state, socket_path=path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServeClient(socket_path=path) as client:
            assert client.shutdown() == {"stopping": True}
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert not os.path.exists(path)

    def test_tcp_listener(self):
        state = ServeState()
        server = JoinServer(state, port=0)
        host, port = server.address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient(host=host, port=port) as client:
                assert client.ping() == {"pong": True}
                client.shutdown()
        finally:
            thread.join(timeout=5)
            server.close()

    def test_constructor_validation(self, tmp_path):
        state = ServeState()
        with pytest.raises(ServeError):
            JoinServer(state)  # neither socket nor port
        with pytest.raises(ServeError):
            JoinServer(state, socket_path=str(tmp_path / "x.sock"), port=1)
        with pytest.raises(ServeError):
            ServeClient()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        old = JoinServer(ServeState(), socket_path=path)
        old._listener.close()  # die without unlinking: a stale socket file
        assert os.path.exists(path)
        server = JoinServer(ServeState(), socket_path=path)
        server.close()


class TestServeCLI:
    def _spawn(self, tmp_path, *extra):
        sock = str(tmp_path / "cli.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock, *extra],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        ready = proc.stderr.readline()
        assert "listening" in ready, ready
        return proc, sock

    def test_end_to_end_with_metrics(self, tmp_path):
        dataset = tmp_path / "data.txt"
        dataset.write_text("1 2 3\n2 3\n")
        metrics = tmp_path / "metrics.json"
        proc, sock = self._spawn(
            tmp_path, str(dataset), "--metrics", str(metrics),
        )
        try:
            with ServeClient(socket_path=sock) as client:
                assert client.stats()["live_records"] == 2
                assert client.query([2, 3])["matches"] == [0, 1]
                sub = client.subscribe(["x"])
                assert client.publish(["x", "y"]) == [sub]
                report = client.metrics()
                assert report["registry"]["counters"]["serve.requests"] >= 4
                client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        on_disk = json.loads(metrics.read_text())
        assert on_disk["counters"]["serve.connections"] == 1
        assert "serve.publish_p99_ms" in on_disk["gauges"]

    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        proc, sock = self._spawn(tmp_path)
        try:
            with ServeClient(socket_path=sock) as client:
                assert client.ping() == {"pong": True}
            proc.terminate()
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_requires_exactly_one_endpoint(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "exactly one of" in proc.stderr
