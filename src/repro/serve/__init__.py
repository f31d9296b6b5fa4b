"""The resident join service (``lcjoin serve``).

A long-lived, single-threaded server that keeps the hot containment
structures loaded — an :class:`~repro.index.storage.IncrementalIndex`
(frozen array base + delta + tombstones) for superset point queries, an
:class:`~repro.index.prefix_tree.IncrementalPrefixTree` for subset
queries, and the pubsub :class:`~repro.pubsub.broker.Broker`, whose
subscriptions sit in a second ``IncrementalPrefixTree`` — and answers
requests over a line-delimited JSON socket protocol with request
batching, per-request deadlines and memory-budget admission control.

With ``--data-dir`` the state becomes durable: every acknowledged write
is fsync'd into a checksummed write-ahead log before its ack leaves, and
restart recovers the exact pre-crash state from a snapshot checkpoint
plus the log tail. With ``--follow`` a second server becomes a
warm-standby replica streaming that log, promotable on primary death.

Layout:

* :mod:`~repro.serve.protocol` — framing, request/response envelopes,
  error kinds;
* :mod:`~repro.serve.state`    — the resident structures and op handlers;
* :mod:`~repro.serve.wal`      — the write-ahead op log, snapshot
  checkpoints, and the durable state subclass;
* :mod:`~repro.serve.replica`  — warm-standby replication and failover;
* :mod:`~repro.serve.server`   — the ``selectors`` event loop;
* :mod:`~repro.serve.client`   — a small blocking client (tests, CI
  smoke, scripting) with opt-in idempotent-op retries.
"""

from .client import ServeClient
from .protocol import MAX_LINE_BYTES, decode_line, encode_message
from .replica import Replicator
from .server import JoinServer
from .state import ServeState
from .wal import DurableServeState, WalRecord, WriteAheadLog

__all__ = [
    "JoinServer",
    "ServeClient",
    "ServeState",
    "DurableServeState",
    "WriteAheadLog",
    "WalRecord",
    "Replicator",
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_message",
]
