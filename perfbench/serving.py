"""The resident path: a ``repro serve`` process, its client loop and checks."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.collection import SetCollection
from repro.errors import ServeConnectionError, ServeError
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.state import ServeState
from repro.serve.wal import LOGGED_OPS, DurableServeState

from hostref import HostRef
from inputs import OpStream
from spans import SpanRecorder

__all__ = [
    "ServerProcess",
    "OpRecord",
    "load_subscriptions",
    "run_burst",
    "view",
    "replay_failures",
    "dir_bytes",
    "traced_serve_layers",
    "OP_CLASS",
]

#: Subscriptions per ``batch`` op during set-up.
SUBSCRIBE_BATCH = 500
#: Client ops between two host-reference samples in a burst.
REF_EVERY = 100
#: Seconds a booting or recovering server gets to answer its first ping.
BOOT_TIMEOUT = 60.0

#: Op kind -> latency class of the end-to-end metrics.
OP_CLASS = {
    "query_super": "query",
    "query_sub": "query",
    "append": "write",
    "delete": "write",
    "subscribe": "write",
    "unsubscribe": "write",
    "publish": "publish",
}

#: ``stats`` fields that must read the same before a kill and after recovery.
DURABLE_STATS = (
    "live_records", "tombstones", "delta_tokens", "index_epoch", "trie_epoch",
    "subscriptions", "published", "delivered",
)


class ServerProcess:
    """One ``python -m repro serve`` child on a unix socket."""

    def __init__(
        self, src_dir: str, socket_path: str, data_dir: str, dataset: Optional[str] = None
    ) -> None:
        self.src_dir = src_dir
        self.socket_path = socket_path
        self.data_dir = data_dir
        self.dataset = dataset
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> ServeClient:
        """Spawn the server and return a client once a ping succeeds."""
        argv = [sys.executable, "-m", "repro", "serve"]
        if self.dataset is not None:
            argv.append(self.dataset)
        argv += ["--socket", self.socket_path, "--data-dir", self.data_dir]
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_FAULTS", None)
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                client = ServeClient(socket_path=self.socket_path)
            except ServeConnectionError:
                if self.proc.poll() is not None:
                    raise ServeError(f"server exited with code {self.proc.returncode} while booting")
                if time.monotonic() > deadline:
                    raise ServeError("server did not answer within the boot timeout")
                time.sleep(0.002)
                continue
            client.ping()
            return client

    def hwm_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise ServeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        """SIGKILL the server and wait for it to end."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()


@dataclass
class OpRecord:
    kind: str
    op: str
    params: Dict[str, Any]
    #: The server's result, or None when the request failed.
    result: Optional[Any]
    seconds: float
    #: Host-speed factor of the reference samples around the op.
    scale: float = float("nan")


def load_subscriptions(client: ServeClient, keyword_lists: Sequence[List[int]]) -> int:
    """Subscribe through ``batch`` ops; returns how many replies were wrong."""
    failures = 0
    for start in range(0, len(keyword_lists), SUBSCRIBE_BATCH):
        chunk = keyword_lists[start: start + SUBSCRIBE_BATCH]
        responses = client.batch([("subscribe", {"keywords": kws}) for kws in chunk])
        for offset, response in enumerate(responses):
            ok = response.get("ok") and response["result"].get("sub_id") == start + offset
            failures += 0 if ok else 1
    return failures


def run_burst(
    client: ServeClient,
    stream: OpStream,
    ops: int,
    host: HostRef,
    log: List[OpRecord],
    rec: Optional[SpanRecorder] = None,
) -> None:
    """Closed loop: send the next op as soon as the last reply arrived.

    A reference sample is taken every :data:`REF_EVERY` ops; the ops
    between two samples are normalised by those two.
    """
    before = host.sample()
    pending: List[OpRecord] = []
    for _ in range(ops):
        kind, op, params = stream.next()
        start = time.perf_counter()
        try:
            if rec is None:
                result = client.request(op, **params)
            else:
                with rec.span("serve.request", request=len(log)):
                    result = client.request(op, **params)
        except ServeError:
            result = None
        elapsed = time.perf_counter() - start
        stream.observe(kind, params, result)
        record = OpRecord(kind, op, params, result, elapsed)
        log.append(record)
        pending.append(record)
        if len(pending) == REF_EVERY:
            before = _settle(host, before, pending)
    _settle(host, before, pending)


def _settle(host: HostRef, before: float, pending: List[OpRecord]) -> float:
    after = host.sample()
    scale = host.scale(before, after)
    for record in pending:
        record.scale = scale
    pending.clear()
    return after


def _canonical(result: Any) -> Any:
    """Wire form of a result with list-valued answers in sorted order."""
    result = json.loads(json.dumps(result))
    if isinstance(result, dict):
        for key in ("matches", "matched"):
            if isinstance(result.get(key), list):
                result[key] = sorted(result[key])
    return result


def view(client: ServeClient, probes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The durable stats fields and the probe answers of a server."""
    stats = client.stats()
    out: Dict[str, Any] = {key: stats[key] for key in DURABLE_STATS}
    out["last_seq"] = stats["wal"]["last_seq"]
    out["snapshot_seq"] = stats["wal"]["snapshot_seq"]
    out["probes"] = [_canonical(client.query(**probe)) for probe in probes]
    return out


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def replay_failures(base: SetCollection, keyword_lists, log: Sequence[OpRecord]) -> int:
    """Replies that differ from an in-process replay of the same stream.

    A request that failed on the wire counts here too.
    """
    state = ServeState(base)
    for kws in keyword_lists:
        state.handle("subscribe", {"keywords": list(kws)}, None)
    failures = 0
    for record in log:
        result = state.handle(record.op, dict(record.params), None)
        if record.result is None or _canonical(result) != _canonical(record.result):
            failures += 1
    return failures


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _codec_seconds(record: OpRecord, request_id: int) -> Tuple[float, float]:
    """(decode, encode) seconds of the server's side of one request."""
    envelope = {"id": request_id, "op": record.op, **record.params}
    line = protocol.encode_message(envelope).rstrip(b"\n")
    start = time.perf_counter()
    protocol.decode_line(line)
    decode = time.perf_counter() - start
    response = protocol.ok_response(request_id, record.result)
    start = time.perf_counter()
    protocol.encode_message(response)
    return decode, time.perf_counter() - start


def traced_serve_layers(
    base: SetCollection,
    keyword_lists,
    log: Sequence[OpRecord],
    scratch_dir: str,
    rec: SpanRecorder,
) -> Tuple[Dict[str, float], int]:
    """Per-layer serve numbers from in-process replays of the stream.

    Returns ``(raw values, replies that differ from either replay)``. Times
    are raw seconds; the caller normalises them.
    """
    out: Dict[str, float] = {}
    failures = 0

    # serve.state and pubsub.broker: the in-memory state, op by op.
    registry = MetricsRegistry()
    memory: Dict[int, float] = {}
    with use_registry(registry):
        state = ServeState(base)
        start = time.perf_counter()
        for kws in keyword_lists:
            state.handle("subscribe", {"keywords": list(kws)}, None)
        out["pubsub.broker.subscribe_s"] = time.perf_counter() - start
        for i, record in enumerate(log):
            with rec.span(f"serve.state.{record.kind}", request=i) as span:
                result = state.handle(record.op, dict(record.params), None)
            memory[i] = span.duration
            if record.result is None or _canonical(result) != _canonical(record.result):
                failures += 1
    by_kind: Dict[str, List[float]] = {}
    for i, record in enumerate(log):
        by_kind.setdefault(record.kind, []).append(memory[i])
    for kind in ("query_super", "query_sub", "append", "delete", "subscribe"):
        out[f"serve.state.{kind}_us"] = _p50(by_kind.get(kind, [])) * 1e6
    out["serve.state.publish_ms"] = _p50(by_kind.get("publish", [])) * 1e3
    publishes = [r.result["count"] for r in log if r.kind == "publish" and r.result]
    out["pubsub.broker.matches_per_publish"] = statistics.fmean(publishes) if publishes else 0.0
    out["pubsub.broker.rebuilds"] = registry.value("pubsub.rebuilds")
    out["index.storage.incremental_compactions"] = state.index.epoch
    out["index.prefix_tree.trie_compactions"] = state.trie.epoch
    with rec.span("index.storage.compact"):
        state.index.compact()
    out["index.storage.compact_s"] = rec.total("index.storage.compact")

    # serve.protocol and serve.server: codec cost and what the socket adds.
    codec: Dict[str, List[Tuple[float, float]]] = {}
    for i, record in enumerate(log):
        if record.result is not None:
            codec.setdefault(OP_CLASS[record.kind], []).append(_codec_seconds(record, i))
    for cls in ("query", "write", "publish"):
        pairs = codec.get(cls, [])
        out[f"serve.protocol.decode_us.{cls}"] = _p50([d for d, _ in pairs]) * 1e6
        out[f"serve.protocol.encode_us.{cls}"] = _p50([e for _, e in pairs]) * 1e6
    queries = [i for i, r in enumerate(log) if OP_CLASS[r.kind] == "query"]
    socket_p50 = _p50([log[i].seconds for i in queries])
    handle_p50 = _p50([memory[i] for i in queries])
    codec_p50 = out["serve.protocol.decode_us.query"] + out["serve.protocol.encode_us.query"]
    # The client pays a codec too (encode the request, decode the reply).
    out["serve.server.query_overhead_us"] = (socket_p50 - handle_p50) * 1e6 - 2 * codec_p50

    # serve.wal: the durable state, with the server's one-op group commits.
    data_dir = os.path.join(scratch_dir, "wal-replay")
    registry = MetricsRegistry()
    log_extra: List[float] = []
    syncs: List[float] = []
    snapshots: List[float] = []
    publish_bytes = 0.0
    with use_registry(registry):
        durable = DurableServeState(base, data_dir=data_dir)

        def timed_sync(request: int, logged: bool) -> None:
            written = registry.value("wal.snapshots_written")
            with rec.span("serve.wal.sync", request=request) as span:
                durable.sync()
            if registry.value("wal.snapshots_written") > written:
                snapshots.append(span.duration)
            elif logged:
                syncs.append(span.duration)

        for start in range(0, len(keyword_lists), SUBSCRIBE_BATCH):
            for kws in keyword_lists[start: start + SUBSCRIBE_BATCH]:
                durable.handle("subscribe", {"keywords": list(kws)}, None)
            timed_sync(-1, logged=True)
        setup_snapshots = registry.value("wal.snapshots_written")
        for i, record in enumerate(log):
            before = registry.value("wal.bytes_appended")
            with rec.span(f"serve.wal.{record.kind}", request=i) as span:
                result = durable.handle(record.op, dict(record.params), None)
            if record.op in LOGGED_OPS:
                log_extra.append(span.duration - memory[i])
            if record.kind == "publish":
                publish_bytes += registry.value("wal.bytes_appended") - before
            timed_sync(i, logged=record.op in LOGGED_OPS)
            if record.result is None or _canonical(result) != _canonical(record.result):
                failures += 1
        durable.wal.close()
    appended = registry.value("wal.appends")
    out["serve.wal.log_us"] = _p50(log_extra) * 1e6
    out["serve.wal.sync_ms"] = _p50(syncs) * 1e3
    out["serve.wal.fsyncs"] = registry.value("wal.fsyncs")
    out["serve.wal.bytes_per_logged_op"] = registry.value("wal.bytes_appended") / appended if appended else 0.0
    out["serve.wal.publish_bytes_share"] = (
        publish_bytes / registry.value("wal.bytes_appended") if appended else 0.0
    )
    # Snapshots of the stream only, not of the set-up subscriptions.
    out["serve.wal.snapshots"] = registry.value("wal.snapshots_written") - setup_snapshots
    out["serve.wal.snapshot_s"] = _p50(snapshots)

    registry = MetricsRegistry()
    with use_registry(registry), rec.span("serve.wal.replay"):
        recovered = DurableServeState(data_dir=data_dir)
    recovered.wal.close()
    out["serve.wal.replay_s"] = rec.total("serve.wal.replay")
    out["serve.wal.records_replayed"] = registry.value("wal.records_replayed")
    return out, failures
