"""The resident state behind ``lcjoin serve`` and its op handlers.

One :class:`ServeState` owns three structures kept in lockstep:

* an :class:`~repro.index.storage.IncrementalIndex` answering *superset*
  point queries ("which stored sets contain this record?") — the
  containment-join direction;
* an :class:`~repro.index.prefix_tree.IncrementalPrefixTree` answering
  *subset* queries ("which stored sets are contained in this event?") —
  the pubsub direction, over the same sid space (trie rids == index
  sids, asserted on every append);
* the pubsub :class:`~repro.pubsub.broker.Broker` for keyword
  subscriptions, which have their own id space and their own dictionary
  (keywords are arbitrary JSON scalars, not element ids). The broker
  keeps its subscriptions in a second ``IncrementalPrefixTree``, so
  subset queries and publishes run the same trie class and walk.

Admission control follows the parallel driver's analytic convention
(:func:`repro.memory.meter.collection_footprint`): entry counts times
per-entry byte constants, compared against the ``--memory-budget``. A
write that would land past the budget is refused with
``admission_rejected`` before it mutates anything. Both tries are built
as writes arrive, so a read never grows the footprint past what
admission saw.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from ..data.collection import SetCollection
from ..errors import (
    AdmissionRejectedError,
    InvalidParameterError,
    RequestDeadlineError,
    ServeProtocolError,
)
from ..index.prefix_tree import IncrementalPrefixTree
from ..index.storage import IncrementalIndex
from ..obs import registry as _obs
from ..obs.spans import trace_span
from ..pubsub.broker import Broker

__all__ = ["ServeState", "LatencyRecorder"]

#: Analytic per-entry byte models for the python-object structures
#: (``TreeNode`` with 13 slots + children list entry; a ``Subscription``
#: dataclass + frozenset + registry dict slot). Same convention as the
#: parallel driver's ``_PY_BYTES_PER_ENTRY``.
_TRIE_NODE_BYTES = 200
_SUBSCRIPTION_BYTES = 160

#: Ring capacity of one latency recorder; 4096 samples bound both memory
#: and the cost of the sorted-copy quantile pass.
_LATENCY_WINDOW = 4096


class LatencyRecorder:
    """A bounded ring of recent latencies with on-demand quantiles.

    The obs :class:`~repro.obs.registry.Histogram` is deliberately O(1)
    (count/total/min/max, no samples), so p50/p99 cannot come from it.
    This recorder keeps the last ``capacity`` samples and sorts a copy
    only when a quantile is asked for — queries are rare (stats op,
    shutdown report), records are per-request.
    """

    __slots__ = ("capacity", "samples", "_cursor", "count", "total")

    def __init__(self, capacity: int = _LATENCY_WINDOW) -> None:
        if capacity <= 0:
            raise InvalidParameterError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.samples: List[float] = []
        self._cursor = 0
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self.samples) < self.capacity:
            self.samples.append(seconds)
        else:
            self.samples[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self.capacity

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the retained window; 0.0 if empty."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "p50_ms": self.quantile(0.50) * 1000.0,
            "p99_ms": self.quantile(0.99) * 1000.0,
            "mean_ms": (self.total / self.count * 1000.0) if self.count else 0.0,
        }


def _int_record(value: Any, what: str) -> List[int]:
    """Validate one JSON payload as a list of non-negative ints."""
    if not isinstance(value, list):
        raise ServeProtocolError(f"{what} must be a list, got {type(value).__name__}")
    out: List[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ServeProtocolError(
                f"{what} entries must be integers, got {item!r}"
            )
        if item < 0:
            raise ServeProtocolError(f"{what} entries must be >= 0, got {item}")
        out.append(item)
    return out


def _keywords(value: Any) -> List[Any]:
    """Keywords are arbitrary JSON scalars (the broker hashes them)."""
    if not isinstance(value, list) or not all(
        isinstance(k, (str, int, float, bool)) for k in value
    ):
        raise ServeProtocolError("keywords must be a list of JSON scalars")
    return list(value)


class ServeState:
    """The resident structures plus the op dispatch table."""

    def __init__(
        self,
        s_collection: Optional[SetCollection] = None,
        *,
        compact_ratio: float = 0.5,
        delta_ratio: float = 0.25,
        memory_budget: Optional[int] = None,
    ) -> None:
        if memory_budget is not None and memory_budget <= 0:
            raise InvalidParameterError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        self.memory_budget = memory_budget
        self.index = IncrementalIndex(
            s_collection,
            compact_ratio=compact_ratio,
            delta_ratio=delta_ratio,
        )
        self.trie = IncrementalPrefixTree(compact_ratio=compact_ratio)
        if s_collection is not None:
            for sid, record in enumerate(s_collection.records):
                self.trie.insert(record, rid=sid)
        self.broker = Broker(compact_ratio=compact_ratio)
        self.latency = {
            "request": LatencyRecorder(),
            "publish": LatencyRecorder(),
            "query": LatencyRecorder(),
        }
        self._ops: Dict[str, Callable[[Dict[str, Any], Optional[float]], Any]] = {
            "ping": self._op_ping,
            "subscribe": self._op_subscribe,
            "unsubscribe": self._op_unsubscribe,
            "publish": self._op_publish,
            "append": self._op_append,
            "delete": self._op_delete,
            "query": self._op_query,
            "compact": self._op_compact,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
        }

    # -- durability hook ------------------------------------------------------

    def sync(self) -> None:
        """Make every acknowledged-but-buffered write durable.

        A no-op here: the in-memory state has no durability. The event
        loop calls this after draining a request batch and *before*
        flushing the responses, so a durable subclass
        (:class:`~repro.serve.wal.DurableServeState`) gets group-commit
        semantics — one fsync per drained batch, never an ack on the wire
        before its log record is on disk.
        """

    # -- admission control ---------------------------------------------------

    def resident_bytes(self) -> int:
        """Analytic resident footprint of all three structures."""
        return (
            self.index.nbytes()
            + self.trie.tree.num_nodes * _TRIE_NODE_BYTES
            + self.broker.trie.tree.num_nodes * _TRIE_NODE_BYTES
            + len(self.broker) * _SUBSCRIPTION_BYTES
        )

    def _admit_write(self, what: str) -> None:
        if self.memory_budget is None:
            return
        resident = self.resident_bytes()
        if resident >= self.memory_budget:
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("serve.admission_rejections")
            raise AdmissionRejectedError(
                f"{what} refused: resident footprint {resident} bytes is at "
                f"the {self.memory_budget}-byte budget; delete or compact "
                "first"
            )

    def _note_resident(self) -> None:
        reg = _obs.ACTIVE
        if reg is not None:
            reg.set_gauge("serve.resident_bytes", float(self.resident_bytes()))

    # -- dispatch -------------------------------------------------------------

    def handle(
        self, op: str, obj: Dict[str, Any], deadline: Optional[float]
    ) -> Any:
        """Run one op; raises the typed serve errors on refusal."""
        handler = self._ops.get(op)
        if handler is None:
            # The server maps this through KIND_UNKNOWN_OP before it gets
            # here for unknown names; batch/shutdown are server-level ops.
            raise ServeProtocolError(f"op {op!r} is not a state op")
        return handler(obj, deadline)

    @staticmethod
    def check_deadline(deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("serve.deadline_rejections")
            raise RequestDeadlineError("request deadline exceeded")

    # -- ops ------------------------------------------------------------------

    def _op_ping(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        return {"pong": True}

    def _op_subscribe(
        self, obj: Dict[str, Any], deadline: Optional[float]
    ) -> Any:
        self._admit_write("subscribe")
        keywords = _keywords(obj.get("keywords"))
        try:
            sub_id = self.broker.subscribe(keywords)
        except InvalidParameterError as exc:
            raise ServeProtocolError(str(exc)) from None
        self._note_resident()
        return {"sub_id": sub_id}

    def _op_unsubscribe(
        self, obj: Dict[str, Any], deadline: Optional[float]
    ) -> Any:
        sub_id = obj.get("sub_id")
        if isinstance(sub_id, bool) or not isinstance(sub_id, int):
            raise ServeProtocolError(f"sub_id must be an integer, got {sub_id!r}")
        removed = sub_id in self.broker.subscriptions
        self.broker.unsubscribe(sub_id)
        return {"removed": removed}

    def _op_publish(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        keywords = _keywords(obj.get("keywords"))
        started = time.perf_counter()
        delivery = self.broker.publish(keywords)
        elapsed = time.perf_counter() - started
        self.latency["publish"].record(elapsed)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.observe("serve.publish_seconds", elapsed)
        return {"matched": delivery.matched, "count": len(delivery)}

    def _op_append(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        self._admit_write("append")
        record = _int_record(obj.get("record"), "record")
        if not record:
            raise ServeProtocolError("record must be non-empty")
        sid = self.index.append(record)
        # Trie rids mirror index sids; insert() raises on any drift.
        self.trie.insert(record, rid=sid)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("serve.appends")
        self._note_resident()
        return {"sid": sid}

    def _op_delete(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        sid = obj.get("sid")
        if isinstance(sid, bool) or not isinstance(sid, int):
            raise ServeProtocolError(f"sid must be an integer, got {sid!r}")
        removed = self.index.delete(sid)
        self.trie.mark_dead(sid)
        reg = _obs.ACTIVE
        if reg is not None and removed:
            reg.inc("serve.deletes")
        self._note_resident()
        return {"removed": removed}

    def _op_query(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        direction = obj.get("direction", "super")
        if direction not in ("super", "sub"):
            raise ServeProtocolError(
                f"direction must be 'super' or 'sub', got {direction!r}"
            )
        if ("record" in obj) == ("records" in obj):
            raise ServeProtocolError(
                "query takes exactly one of 'record' (point) or "
                "'records' (batch)"
            )
        if "record" in obj:
            records = [_int_record(obj["record"], "record")]
        else:
            raw = obj.get("records")
            if not isinstance(raw, list):
                raise ServeProtocolError("records must be a list of lists")
            records = [_int_record(rec, "records entry") for rec in raw]
        # Both snapshots are pinned once: every record in the batch is
        # answered against the same epoch even if a compaction was queued
        # behind this request.
        index_snap = self.index.snapshot()
        trie_snap = self.trie.snapshot()
        started = time.perf_counter()
        matches: List[List[int]] = []
        reg = _obs.ACTIVE
        for record in records:
            self.check_deadline(deadline)
            if direction == "super":
                matches.append(index_snap.supersets_of(record))
            else:
                matches.append(trie_snap.subsets_of(record))
            if reg is not None:
                reg.inc("serve.queries")
        elapsed = time.perf_counter() - started
        self.latency["query"].record(elapsed)
        if reg is not None:
            reg.observe("serve.query_seconds", elapsed)
        epoch = index_snap.epoch if direction == "super" else trie_snap.epoch
        if "record" in obj:
            return {"matches": matches[0], "epoch": epoch}
        return {"matches": matches, "epoch": epoch}

    def _op_compact(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        with trace_span("serve.compact"):
            index_epoch = self.index.compact()
            trie_epoch = self.trie.compact()
        self._note_resident()
        return {"index_epoch": index_epoch, "trie_epoch": trie_epoch}

    def _op_stats(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        return {
            "live_records": len(self.index),
            "tombstones": self.index.num_tombstones,
            "delta_tokens": self.index.delta_tokens,
            "index_epoch": self.index.epoch,
            "trie_epoch": self.trie.epoch,
            "trie_nodes": self.trie.tree.num_nodes,
            "subscriptions": len(self.broker),
            "published": self.broker.published,
            "delivered": self.broker.delivered,
            "resident_bytes": self.resident_bytes(),
            "memory_budget": self.memory_budget,
            "latency": {
                name: rec.summary() for name, rec in self.latency.items()
            },
        }

    def _op_metrics(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        reg = _obs.ACTIVE
        if reg is None:
            return {"registry": None, "latency": self._op_stats(obj, deadline)["latency"]}
        from ..obs.export import registry_as_dict

        self.flush_latency_gauges(reg)
        return {
            "registry": registry_as_dict(reg),
            "latency": {
                name: rec.summary() for name, rec in self.latency.items()
            },
        }

    # -- reporting -------------------------------------------------------------

    def flush_latency_gauges(self, reg: "_obs.MetricsRegistry") -> None:
        """Publish the p50/p99 windows as gauges on ``reg``.

        Called by the metrics op and by the CLI at shutdown, so the
        ``--metrics`` export carries the percentiles the O(1) histograms
        cannot.
        """
        reg.set_gauge(
            "serve.publish_p50_ms", self.latency["publish"].quantile(0.50) * 1000.0
        )
        reg.set_gauge(
            "serve.publish_p99_ms", self.latency["publish"].quantile(0.99) * 1000.0
        )
        reg.set_gauge(
            "serve.query_p50_ms", self.latency["query"].quantile(0.50) * 1000.0
        )
        reg.set_gauge(
            "serve.query_p99_ms", self.latency["query"].quantile(0.99) * 1000.0
        )
