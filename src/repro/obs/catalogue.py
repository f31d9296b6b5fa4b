"""The documented span and counter catalogue.

Every ``trace_span`` name used anywhere in the library must be a dotted
lowercase **literal** drawn from :data:`SPAN_CATALOGUE` — dynamic span
names would fragment the aggregated span tree and break cross-run
comparisons, so repro-lint's RL501 check enforces both properties
statically (it parses this file with ``ast``; keep both catalogues as
pure literals).

Counters are namespaced the same way. The ``join.*`` family mirrors the
fields of :class:`repro.core.stats.JoinStats` one-to-one and is written at
exactly one place (:func:`repro.core.api.set_containment_join` flushing
the run's stats delta), so the two counter systems cannot drift; all the
other families are native to the registry and measure what ``JoinStats``
never could — kernel batch shapes, supervisor events, broker traffic.
"""

from __future__ import annotations

__all__ = ["SPAN_CATALOGUE", "COUNTER_CATALOGUE"]

#: Every legal ``trace_span`` name. Dotted lowercase, ``[a-z0-9_]``
#: segments; the first segment is the subsystem.
SPAN_CATALOGUE = frozenset(
    {
        "join.run",  # one set_containment_join invocation end to end
        "index.build",  # inverted/array index construction on S
        "index.csr_pack",  # repacking a python-backend index into the array index
        "order.build",  # global element order construction
        "tree.build",  # prefix tree construction on R
        "tree.traverse",  # Algorithm 2: repeated postorder traversals
        "probe.loop",  # the cross-cutting probe loop over R's records
        "parallel.supervise",  # the coordinator's dispatch/heartbeat/retry loop
        "checkpoint.write",  # one durable chunk spill (temp → fsync → rename)
        "checkpoint.resume",  # scanning/validating spills on a resumed run
        "serve.request",  # one request dispatched by the resident server
        "serve.compact",  # an explicit compact op on the resident structures
        "wal.replay",  # recovery replay of the op-log tail past the snapshot
        "wal.snapshot",  # one atomic snapshot checkpoint write
        "replica.poll",  # one wal_fetch poll-and-apply step of a replica
        "replica.promote",  # failover: a replica taking over as primary
    }
)

#: Every counter the instrumented paths emit, with its meaning. The
#: phase-table exporter renders counters in this order; undocumented
#: counters still render (alphabetically, after these) but adding a name
#: here is part of adding the instrumentation.
COUNTER_CATALOGUE = {
    # -- join.*: one-to-one mirrors of JoinStats (single source of truth) --
    "join.binary_searches": "probes into inverted lists (JoinStats mirror)",
    "join.entries_touched": "postings materialised or compared (JoinStats mirror)",
    "join.candidates": "pairs that reached verification (JoinStats mirror)",
    "join.results": "result pairs emitted (JoinStats mirror)",
    "join.rounds": "cross-cutting rounds run (JoinStats mirror)",
    "join.index_build_tokens": "tokens touched building indexes (JoinStats mirror)",
    "join.tree_nodes": "prefix-tree nodes built (JoinStats mirror)",
    "join.partitions_local": "partitions processed with a local index (JoinStats mirror)",
    "join.partitions_global": "partitions processed with the global index (JoinStats mirror)",
    "join.elapsed_seconds": "total join wall-clock seconds (JoinStats mirror)",
    "join.peak_memory_bytes": "peak RSS high-watermark gauge (JoinStats mirror)",
    # -- index.*: construction-side work --
    "index.builds": "global inverted-index builds",
    "index.local_builds": "local (partition) index builds",
    "index.tokens": "tokens scanned during index construction",
    "index.csr_builds": "array index builds/repacks",
    "index.csr_postings": "postings packed into CSR arrays",
    "index.hybrid_dense_lists": "inverted lists given a bitmap row",
    # -- probe.*: the python cross-cutting loop --
    "probe.records": "R records that entered the cross-cutting loop",
    "probe.records_skipped": "R records skipped (an element absent from S)",
    "probe.binary_searches": "bisect probes issued by the python loop",
    "probe.rounds": "candidate-advance rounds of the python loop",
    "probe.matches": "containments emitted by the python loop",
    "probe.early_term_breaks": "rounds cut short by early termination",
    # -- kernel.*: the batched array-index supersteps --
    "kernel.searchsorted_calls": "batched np.searchsorted calls issued",
    "kernel.probes": "individual (list, target) probes answered in batches",
    "kernel.supersteps": "whole-collection supersteps run",
    "kernel.single_element_records": "records short-circuited to their full list",
    "kernel.straggler_records": "records finished on the scalar straggler path",
    "kernel.bitmap_probes": "probes answered through bitmap rows",
    "kernel.bitmap_fallbacks": "bitmap gaps finished on the CSR arrays",
    "kernel.gallop_probes": "probes answered by the batched gallop",
    "kernel.gallop_fallbacks": "gallop probes finished by global searchsorted",
    # -- tree.*: the tree-based method --
    "tree.nodes": "prefix-tree nodes bound for traversal",
    "tree.rounds": "postorder traversal rounds",
    "tree.searches": "bisect probes issued by traversals",
    # -- supervisor.*: the fault-tolerant coordinator (workers=) --
    "supervisor.attempts": "chunk attempts dispatched (including retries)",
    "supervisor.retries": "re-dispatches after a failed attempt",
    "supervisor.ok": "attempts that returned a result",
    "supervisor.errors": "attempts that raised in the worker",
    "supervisor.crashes": "attempts whose worker died silently",
    "supervisor.timeouts": "attempts killed at the task_timeout deadline",
    "supervisor.fallbacks": "chunks degraded to in-process execution",
    "supervisor.degradations": "degradation events (in-process fallbacks, node respawns)",
    "supervisor.cancellations": "runs aborted by cooperative cancellation",
    "supervisor.deadline_aborts": "runs aborted at the overall deadline",
    "supervisor.memory_splits": "admission-control chunk-split decisions",
    "supervisor.memory_caps": "admission-control worker-cap decisions",
    # -- shard.*: the coordinator's worker nodes (every supervised run) --
    "shard.assigned": "chunk dispatches sent to worker nodes (incl. duplicates)",
    "shard.settled": "chunks settled by a node result (first settle wins)",
    "shard.speculated": "speculative duplicate dispatches issued for stragglers",
    "shard.speculation_wins": "chunks won by the speculative attempt",
    "shard.restarts": "dead node incarnations respawned",
    "shard.heartbeat_misses": "nodes declared dead for missing heartbeats",
    # -- checkpoint.*: the durable run log --
    "checkpoint.chunks_written": "chunk spills durably committed",
    "checkpoint.bytes_written": "bytes committed to chunk spills",
    "checkpoint.chunks_resumed": "verified spills loaded instead of re-run",
    "checkpoint.chunks_discarded": "torn/invalid spills discarded on resume",
    "checkpoint.write_errors": "spill writes abandoned on OSError",
    "checkpoint.aborts": "ABORTED markers written",
    # -- pubsub.*: the broker --
    "pubsub.subscribed": "subscriptions registered",
    "pubsub.unsubscribed": "subscriptions cancelled",
    "pubsub.published": "events published",
    "pubsub.delivered": "subscription matches delivered",
    "pubsub.compactions": "subscription-trie compactions",
    # -- incremental maintenance (resident index/trie) --
    "index.incremental_appends": "records appended to the delta segment",
    "index.incremental_deletes": "records tombstoned in the resident index",
    "index.incremental_compactions": "resident index base rebuilds",
    "tree.trie_compactions": "incremental prefix-trie compactions (stored sets and subscriptions)",
    # -- serve.*: the resident join service --
    "serve.connections": "client connections accepted",
    "serve.requests": "requests dispatched",
    "serve.batches": "non-empty request batches drained",
    "serve.errors": "error responses sent",
    "serve.queries": "containment point queries answered",
    "serve.appends": "append ops applied",
    "serve.deletes": "delete ops that removed a live record",
    "serve.deadline_rejections": "requests refused at their deadline",
    "serve.admission_rejections": "writes refused by the memory budget",
    "serve.request_seconds": "request service time histogram",
    "serve.publish_seconds": "publish service time histogram",
    "serve.query_seconds": "query service time histogram",
    "serve.resident_bytes": "resident footprint gauge (analytic model)",
    "serve.publish_p50_ms": "publish latency p50 gauge (ring window)",
    "serve.publish_p99_ms": "publish latency p99 gauge (ring window)",
    "serve.query_p50_ms": "query latency p50 gauge (ring window)",
    "serve.query_p99_ms": "query latency p99 gauge (ring window)",
    "serve.read_only_rejections": "writes refused by a read-only replica",
    # -- wal.*: the serve write-ahead log --
    "wal.appends": "op records appended to the write-ahead log",
    "wal.bytes_appended": "bytes appended to the write-ahead log",
    "wal.fsyncs": "group-commit fsyncs (one per drained request batch)",
    "wal.last_seq": "last appended-and-synced log sequence gauge",
    "wal.append_errors": "append/fsync failures degrading the log to read-only",
    "wal.records_replayed": "log records re-applied during recovery",
    "wal.torn_tail_truncated": "torn log tails truncated on recovery",
    "wal.snapshots_written": "snapshot checkpoints atomically written",
    "wal.snapshot_fallbacks": "unusable snapshots degraded to full-log replay",
    # -- replica.*: warm-standby replication --
    "replica.polls": "wal_fetch polls issued against the primary",
    "replica.records_applied": "streamed records applied in sid-lockstep",
    "replica.poll_errors": "polls that failed (transport or refusal)",
    "replica.fenced": "streams refused by the generation/lineage fence",
    "replica.promotions": "replicas promoted to primary",
    "replica.lag_records": "records behind the primary gauge",
}
