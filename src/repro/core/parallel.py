"""Multiprocess set containment joins with a shared superset-side index.

The containment join is embarrassingly parallel on the subset side: for any
split ``R = R₁ ∪ R₂``, ``R ⋈⊆ S = (R₁ ⋈⊆ S) ∪ (R₂ ⋈⊆ S)``. This module
splits ``R``, joins each chunk against ``S`` in a worker process with any
registered method, and remaps the chunk-local rids back to the original ids.

All workers join against the *same* ``S``, so the expensive superset-side
structures are built **once in the parent** and distributed instead of being
rebuilt per worker:

* ``backend="csr"`` / ``backend="hybrid"`` — the array index
  (:class:`~repro.index.storage.CSRInvertedIndex` or its bitmap-carrying
  :class:`~repro.index.storage.HybridInvertedIndex` subclass) is exported
  to ``multiprocessing.shared_memory``; every worker attaches the same
  physical pages (zero-copy, constant cost per worker regardless of index
  size). When shared memory is unavailable the index rides along
  fork-inherited buffers, and as a last resort it is pickled into the
  jobs. The partitioned methods build *local* indexes per partition, so
  they ship the python index whatever the backend and repack in-worker.
* ``backend="python"`` — the :class:`~repro.index.inverted.InvertedIndex`
  (and, for the tree/partition methods, the frequency
  :class:`~repro.core.order.GlobalOrder`) is built once and pickled into
  each job. Measured on the AOL surrogate at scale 0.002 (73k sets, 183k
  postings): one parent-side build 29 ms + 11 ms ``dumps``, then ~31 ms
  ``loads`` per worker — per-worker cost comparable to a rebuild in pure
  wall-clock, but the build work is paid once instead of ``workers``
  times, the ``order`` rebuild (a full frequency count) *is* eliminated
  per worker, and the pickle blob (0.6 MB here) ships over the same pipe
  the job already uses. The CSR path above removes even that copy.

Chunking follows the paper's partitioning (§V) for the four methods that
run over the global order (``tree``, ``tree_et``, ``all_partition``,
``lcjoin``): ``strategy="anchor"`` groups ``R`` by each record's anchor —
its smallest element in the global order, built once here and shipped to
every worker — and deals whole groups, largest first, to the least-loaded
chunk. A group is weighted by its R-set count ``|R_e|``: per-partition
join time tracks it (correlation 0.94 on the AOL surrogate and 0.997 on
the Zipf benchmark collection). Whole partitions keep each chunk's
rounds and searches the same as serial; a round-robin deal cuts every
partition in two and each half re-walks most of its candidates. A group larger than
the fair share ``len(R) / chunks`` is instead dealt round-robin over all
chunks, so one giant partition (about half of ``R`` on skewed data)
cannot leave one chunk with all the work. Every other method defaults to
``strategy="round_robin"``: record ``i`` goes to chunk ``i % chunks``,
which stays balanced on size-sorted inputs where contiguous equal-size
chunks (``strategy="contiguous"``) would give one worker all the big sets.

Each chunk's pairs come back as two int64 columns (global rids, sids)
plus the settling attempt's :class:`~repro.core.stats.JoinStats`. The
columns pickle in about a millisecond where a tuple list of the same
pairs takes a hundred times longer, and the parent builds the final list
once, in chunk-id order, with one ``zip`` over ``tolist()`` columns.

Since the chunks are independently re-executable, worker failures are
recoverable: dispatch runs through :class:`~repro.core.supervisor
.Supervisor`, which detects crashed and hung workers, retries chunks with
capped exponential backoff (``retries=``, ``task_timeout=``, ``backoff=``),
downgrades the payload path when shared memory misbehaves, and — after
exhausting retries — falls back to in-process execution on the python
backend. ``return_report=True`` returns the structured
:class:`~repro.core.results.JoinReport` of all that alongside the pairs;
see the "Failure model" section of ``docs/internals.md``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import heapq
import multiprocessing
import time
import uuid
import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .shard import ShardPolicy

from ..data.collection import SetCollection
from ..errors import (
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
)
from ..faults import FaultPlan
from ..index.inverted import InvertedIndex
from ..index.storage import CSRInvertedIndex, HybridInvertedIndex, SharedCSRHandle
from ..memory.meter import collection_footprint
from ..obs.registry import active_or_null
from ..obs.spans import trace_span
from .api import BACKEND_METHODS, BACKENDS, join_into
from .order import GlobalOrder, build_order
from .results import AttemptRecord, ChunkReport, JoinReport, PairListSink, pair_columns
from .runlog import (
    CancelToken,
    RunLog,
    RunManifest,
    collection_fingerprint,
    deadline_at,
    signal_cancellation,
)
from .stats import JoinStats
from .supervisor import Supervisor

__all__ = [
    "parallel_join",
    "split_collection",
    "deal_anchors",
    "build_method_index",
    "ChunkResult",
]

Pair = Tuple[int, int]

#: How the superset-side index ships to a worker: tagged payload resolved
#: by :func:`_resolve_index` — ("direct"|"pickle", index), ("shm", handle),
#: or ("fork", token).
_IndexPayload = Tuple[str, Any]

#: Methods that accept a prebuilt global ``index=`` (superset side).
_INDEX_METHODS = frozenset(
    {"framework", "framework_et", "tree", "tree_et", "all_partition", "lcjoin"}
)
#: The subset of those that probe the global index directly and therefore
#: consume an array (CSR/hybrid) ``index=`` as-is. The partitioned methods
#: need the python index API (anchor lists, ``build_local``) and repack
#: per partition, so they always ship the python index.
_ARRAY_INDEX_METHODS = frozenset({"framework", "framework_et", "tree", "tree_et"})
#: Methods that accept a prebuilt global ``order=`` as well.
_ORDER_METHODS = frozenset({"tree", "tree_et", "all_partition", "lcjoin"})

#: Fork-inherited payloads: populated in the parent immediately before the
#: workers fork, read by workers through copy-on-write memory, and dropped
#: in the parent's ``finally``. Keyed by id so nested/concurrent joins
#: cannot collide.
_FORK_SHARED: Dict[int, CSRInvertedIndex] = {}


class ChunkResult(NamedTuple):
    """One settled chunk: its pairs as int64 columns, and its counters.

    ``rids`` are global (already remapped from chunk-local ids). ``stats``
    holds the method counters of the attempt that produced the columns;
    chunks resumed from a spill carry zeros.
    """

    rids: np.ndarray
    sids: np.ndarray
    stats: JoinStats


def split_collection(
    collection: SetCollection,
    chunks: int,
    strategy: str = "contiguous",
    order: Optional[GlobalOrder] = None,
) -> List[Tuple[Union[int, List[int]], SetCollection]]:
    """Split into up to ``chunks`` pieces together with their rid mapping.

    ``strategy="contiguous"`` yields equal-size runs and an ``int`` rid
    offset per piece. ``strategy="round_robin"`` deals record ``i`` to
    piece ``i % chunks`` and yields the explicit global-rid list per piece;
    it balances per-chunk work when record sizes are sorted (e.g. after a
    frequency reorder), where contiguous runs would put all the large sets
    in one chunk. ``strategy="anchor"`` keeps the anchor partitions of the
    global ``order`` whole (see :func:`deal_anchors`) and yields ascending
    global-rid lists; it may yield fewer than ``chunks`` pieces.
    """
    if chunks < 1:
        raise InvalidParameterError(f"chunks must be >= 1, got {chunks}")
    n = len(collection)
    if n == 0:
        return []
    chunks = min(chunks, n)
    records = collection.records
    out: List[Tuple[Union[int, List[int]], SetCollection]] = []
    if strategy == "contiguous":
        size = (n + chunks - 1) // chunks
        for lo in range(0, n, size):
            piece = SetCollection(records[lo: lo + size], validate=False)
            out.append((lo, piece))
    elif strategy == "round_robin":
        for c in range(chunks):
            rids = list(range(c, n, chunks))
            piece = SetCollection(
                (records[i] for i in rids), validate=False
            )
            out.append((rids, piece))
    elif strategy == "anchor":
        if order is None:
            raise InvalidParameterError(
                "strategy='anchor' needs the global order= that defines "
                "each record's anchor"
            )
        for rids in deal_anchors(records, chunks, order):
            piece = SetCollection((records[i] for i in rids), validate=False)
            out.append((rids, piece))
    else:
        raise InvalidParameterError(
            f"unknown split strategy {strategy!r}; "
            "expected 'contiguous', 'round_robin' or 'anchor'"
        )
    return out


def deal_anchors(
    records: Sequence[Sequence[int]], chunks: int, order: GlobalOrder
) -> List[List[int]]:
    """Deal rids to at most ``chunks`` lists, whole anchor partitions at a time.

    Records are grouped by their anchor ``order.smallest(record)`` (the
    partitions of §V). A group no larger than the fair share
    ``len(records) / chunks`` goes whole, largest first, to the chunk with
    the fewest rids so far — the weight is the partition's R-set count
    ``|R_e|``. A larger group is dealt round-robin over all chunks first:
    whole, it would sit alone in one chunk and set the run's length (and
    ``lcjoin`` there would never see enough partitions to switch to local
    indexes). Empty chunks are dropped; each list is in ascending rid order.
    """
    groups: Dict[int, List[int]] = {}
    smallest = order.smallest
    for rid, record in enumerate(records):
        groups.setdefault(smallest(record), []).append(rid)
    fair = len(records) / chunks
    members: List[List[int]] = [[] for __ in range(chunks)]
    whole: List[List[int]] = []
    for rids in groups.values():
        if len(rids) > fair:
            for c in range(chunks):
                members[c].extend(rids[c::chunks])
        else:
            whole.append(rids)
    loads = [(len(rids), c) for c, rids in enumerate(members)]
    heapq.heapify(loads)
    for rids in sorted(whole, key=len, reverse=True):
        load, c = heapq.heappop(loads)
        members[c].extend(rids)
        heapq.heappush(loads, (load + len(rids), c))
    return [sorted(rids) for rids in members if rids]


def build_method_index(
    s_collection: SetCollection,
    method: str,
    backend: str,
    index: Optional[Union[InvertedIndex, CSRInvertedIndex]] = None,
) -> Optional[Union[InvertedIndex, CSRInvertedIndex]]:
    """The superset-side index this ``(method, backend)`` pair consumes.

    One decision point shared by the driver (which builds once and ships
    the result to every worker) and by shard nodes (which build their own
    copy in-process — sharded runs share no memory across nodes). The
    array-probing methods take the CSR/hybrid index directly; the
    partitioned methods need the python index API (anchor lists,
    ``build_local``) whatever the backend and repack per partition; the
    baselines build their own structures and take no index at all. A
    caller-provided ``index`` is converted when the backend needs the
    array form, and passed through otherwise.
    """
    if backend != "python" and method in _ARRAY_INDEX_METHODS:
        cls = HybridInvertedIndex if backend == "hybrid" else CSRInvertedIndex
        if index is None:
            return cls.build(s_collection)
        if isinstance(index, InvertedIndex):
            return cls.from_index(index)
        return index
    if index is None and method in _INDEX_METHODS:
        return InvertedIndex.build(s_collection)
    return index


def _resolve_index(
    payload: Optional[_IndexPayload],
) -> Optional[Union[InvertedIndex, CSRInvertedIndex]]:
    """Turn a shipped index payload back into a probe-ready index."""
    if payload is None:
        return None
    kind, value = payload
    if kind == "direct" or kind == "pickle":
        return value
    if kind == "shm":
        # Dispatch on the handle's kind tag through the class methods (not
        # attach_shared_index) so tests can monkeypatch attachment per class.
        if getattr(value, "kind", "csr") == "hybrid":
            return HybridInvertedIndex.from_shared_memory(value)
        return CSRInvertedIndex.from_shared_memory(value)
    if kind == "fork":
        return _FORK_SHARED[value]
    raise InvalidParameterError(f"unknown index payload {kind!r}")


def _join_chunk(args: Tuple[Any, ...]) -> ChunkResult:
    rid_map, r_chunk, s_collection, method, backend, payload, extra, kwargs = args
    kw = dict(kwargs)
    kw.update(extra)
    index = _resolve_index(payload)
    # Segments attached from shared memory must be detached even when the
    # join raises: an exception that leaves the attachment open pins the
    # mapping (and, pre-3.13, keeps the resource tracker believing the
    # worker still uses it) for the rest of the worker's lifetime. The
    # creator's unlink in parallel_join's ``finally`` does not release
    # *this worker's* mapping — only close() does.
    attached = payload is not None and payload[0] == "shm"
    sink = PairListSink()
    stats = JoinStats()
    try:
        if index is not None:
            kw["index"] = index
        join_into(
            r_chunk, s_collection, sink, method=method, stats=stats,
            backend=backend, **kw,
        )
    finally:
        if attached and isinstance(index, CSRInvertedIndex):
            index.close()
    local, sids = pair_columns(sink.pairs)
    if isinstance(rid_map, int):
        rids = local + rid_map
    else:
        rids = np.asarray(rid_map, dtype=np.int64)[local]
    return ChunkResult(rids, sids, stats)


# -- memory-budget admission control ---------------------------------------
#
# Analytic bytes-per-entry figures for the admission model, derived from the
# structures' actual layouts: a pure-python posting/record entry is a boxed
# int in a tuple slot (28-byte small int + 8-byte pointer, amortised over
# CPython's allocation rounding ≈ 96 bytes with the per-list overheads
# folded in); a CSR entry is one int32 value + one int64 composite key plus
# the amortised offsets row. These deliberately over-estimate — admission
# control exists to avoid the OOM killer, and the meter's analytic
# footprints (entries, not bytes) stay the ground truth for *relative*
# comparisons.
_PY_BYTES_PER_ENTRY = 96
_CSR_BYTES_PER_ENTRY = 24
#: Fixed per-chunk overhead (job tuple, pipe buffers, interpreter slack).
_CHUNK_FIXED_BYTES = 1 << 16


def _admit_memory(
    budget: int,
    r_entries: int,
    s_entries: int,
    workers: int,
    num_chunks: int,
    max_chunks: int,
    backend: str,
    allow_split: bool,
    index_shared: Optional[bool] = None,
) -> Tuple[int, int, List[str]]:
    """Fit the run under ``memory_budget`` bytes; returns the adjusted plan.

    The model: the superset-side index is a *fixed* cost paid once when it
    is shared (CSR via shm/fork) and a *per-worker* cost when it is pickled
    into each job (python backend); each concurrent worker additionally
    holds one R-chunk. Two knobs, applied in order: split R into more
    (smaller) chunks until one worker fits, then cap the number of
    concurrent workers so the sum fits. ``allow_split=False`` (resume: the
    chunk split is fixed by the manifest) only caps workers. Raises
    :class:`InvalidParameterError` when even the minimal configuration
    (one worker, single-record chunks) exceeds the budget.

    ``index_shared`` overrides the backend-derived sharing assumption:
    sharded runs pass ``False`` because every shard node builds its own
    index copy (no cross-shard shared memory), so even the array backends
    pay the index per concurrent node there.
    """
    per_entry = _PY_BYTES_PER_ENTRY
    index_bytes = s_entries * (
        _CSR_BYTES_PER_ENTRY
        if backend in ("csr", "hybrid")
        else _PY_BYTES_PER_ENTRY
    )
    shared_index = (
        backend in ("csr", "hybrid") if index_shared is None else index_shared
    )
    fixed = index_bytes if shared_index else 0
    per_worker_index = 0 if shared_index else index_bytes
    avail = budget - fixed

    def chunk_cost(chunks: int) -> int:
        return -(-r_entries // chunks) * per_entry + _CHUNK_FIXED_BYTES

    if avail < per_worker_index + chunk_cost(max_chunks):
        raise InvalidParameterError(
            f"memory_budget={budget} cannot admit this join: the "
            f"{'shared ' if shared_index else ''}index costs "
            f"{index_bytes} bytes and the smallest possible worker needs "
            f"{per_worker_index + chunk_cost(max_chunks)} more; raise the "
            "budget or shrink the inputs"
        )
    notes: List[str] = []
    metrics = active_or_null()
    if allow_split and per_worker_index + chunk_cost(num_chunks) > avail:
        max_entries = (avail - per_worker_index - _CHUNK_FIXED_BYTES) // per_entry
        new_chunks = min(max_chunks, -(-r_entries // max(1, max_entries)))
        if new_chunks > num_chunks:
            notes.append(
                f"memory budget {budget}: R split into {new_chunks} chunks "
                f"(was {num_chunks}) so one chunk fits a worker"
            )
            metrics.inc("supervisor.memory_splits")
            num_chunks = new_chunks
    allowed = int(avail // max(1, per_worker_index + chunk_cost(num_chunks)))
    if allowed < workers:
        allowed = max(1, allowed)
        notes.append(
            f"memory budget {budget}: concurrency capped at {allowed} "
            f"worker(s) (was {workers})"
        )
        metrics.inc("supervisor.memory_caps")
        workers = allowed
    return num_chunks, workers, notes


def parallel_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    method: str = "lcjoin",
    workers: Optional[int] = None,
    backend: str = "python",
    strategy: Optional[str] = None,
    index: Optional[Union[InvertedIndex, CSRInvertedIndex]] = None,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    backoff: float = 0.05,
    backoff_cap: float = 2.0,
    fallback: bool = True,
    faults: Optional[FaultPlan] = None,
    return_report: bool = False,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
    memory_budget: Optional[int] = None,
    cancel: Optional[CancelToken] = None,
    shards: Optional[int] = None,
    shard_policy: Optional["ShardPolicy"] = None,
    **kwargs: Any,
) -> Union[List[Tuple[int, int]], Tuple[List[Tuple[int, int]], JoinReport]]:
    """Join with ``workers`` processes (defaults to the CPU count).

    Returns the pair list (rids refer to ``r_collection``), or
    ``(pairs, report)`` with ``return_report=True``. With one worker (or
    one chunk) everything runs in-process, so tests and small inputs pay no
    fork cost.

    The superset-side index is built **once** here and shared with every
    worker — via shared memory for the array backends (``"csr"`` and
    ``"hybrid"``; zero-copy attach, bitmap rows included), via pickling for
    the Python backend (see the module docstring for the measured
    pickle-vs-rebuild costs). Pass a prebuilt ``index=`` to skip
    even the single parent-side build, e.g. when issuing many joins against
    the same ``S``. ``strategy`` selects the ``R`` chunking
    (:func:`split_collection`): ``"anchor"`` (whole partitions of the
    global order) for ``tree``, ``tree_et``, ``all_partition`` and
    ``lcjoin``, ``"round_robin"`` for every other method. A resumed run
    without an explicit ``strategy`` keeps the one its manifest recorded.

    Each chunk ships its pairs back as int64 columns together with the
    method counters of the attempt that settled it; the report's ``stats``
    holds their sum in chunk-id order (lost and superseded attempts never
    count, and chunks resumed from spills add zero).

    Multi-process runs are supervised: each chunk is a tracked task with up
    to ``retries`` re-dispatches (exponential ``backoff`` capped at
    ``backoff_cap``) and an optional per-attempt ``task_timeout`` that
    catches hung workers. A chunk whose retries are exhausted falls back to
    in-process python-backend execution unless ``fallback=False``, in which
    case :class:`~repro.errors.WorkerFailedError` /
    :class:`~repro.errors.JoinTimeoutError` is raised. ``faults`` (or the
    ``REPRO_FAULTS`` environment variable) injects deterministic worker
    faults for testing — see :mod:`repro.faults`.

    **Durability.** ``checkpoint_dir=`` arms the run log
    (:mod:`repro.core.runlog`): a write-ahead manifest plus one atomic,
    checksummed spill per settled chunk, so a driver crash loses at most
    the in-flight chunks. ``resume=True`` validates the manifest against
    the current datasets/parameters (refusing with
    :class:`~repro.errors.ResumeMismatchError` on mismatch), loads every
    verified spill, and dispatches only the remainder; torn spills are
    discarded and re-executed. While a checkpoint is armed SIGINT/SIGTERM
    cancel the run *cooperatively*: in-flight workers are killed, settled
    spills stay on disk, the ABORTED marker is written, and
    :class:`~repro.errors.JoinCancelledError` is raised. ``deadline=``
    bounds the run's wall clock the same way
    (:class:`~repro.errors.DeadlineExceededError`), and
    ``memory_budget=`` (bytes) admission-controls the plan — oversized
    chunks are split and concurrency capped, each decision recorded in the
    report and warned as :class:`~repro.errors.DegradedExecutionWarning`.

    **Sharding.** ``shards=N`` replaces the shared-memory worker pool with
    the scale-out coordinator (:class:`~repro.core.shard.ShardCoordinator`):
    N independent long-lived *nodes*, each building its own index copy —
    no cross-shard shared memory — with per-shard heartbeats, straggler
    speculation, and whole-shard crash recovery (``shard_policy=`` tunes
    the thresholds). ``workers`` is ignored in this mode; ``retries``,
    ``backoff``/``backoff_cap``, ``fallback``, ``faults`` and the whole
    durability contract above apply unchanged, so a killed coordinator
    resumes a sharded run exactly like a killed driver resumes a pooled
    one.
    """
    workers = workers if workers is not None else multiprocessing.cpu_count()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "python" and method not in BACKEND_METHODS:
        raise InvalidParameterError(
            f"backend={backend!r} is only supported by "
            f"{sorted(BACKEND_METHODS)}; got method={method!r}"
        )
    if deadline is not None and deadline <= 0:
        raise InvalidParameterError(f"deadline must be positive, got {deadline}")
    if memory_budget is not None and memory_budget <= 0:
        raise InvalidParameterError(
            f"memory_budget must be positive, got {memory_budget}"
        )
    if resume and checkpoint_dir is None:
        raise InvalidParameterError("resume=True requires checkpoint_dir=")
    if shards is not None and shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    if shard_policy is not None and shards is None:
        raise InvalidParameterError("shard_policy= requires shards=")
    if faults is None:
        faults = FaultPlan.from_env()

    use_shards = shards is not None
    policy: Optional["ShardPolicy"] = None
    if use_shards:
        # Lazy import: shard.py consumes this module's job machinery, so
        # the modules are mutually recursive by design (as with api.py).
        from .shard import ShardCoordinator, ShardPolicy

        policy = shard_policy if shard_policy is not None else ShardPolicy()

    n_records = len(r_collection)
    if shards is not None and policy is not None:
        # More chunks than shards keeps requeue/speculation granular: a
        # dead shard re-runs a slice of its work, not all of it.
        num_chunks = shards * policy.chunks_per_shard
    else:
        num_chunks = workers
    runlog: Optional[RunLog] = None
    completed: Dict[int, ChunkResult] = {}
    discarded: List[int] = []
    kwargs_repr = repr(sorted(kwargs.items()))
    if checkpoint_dir is not None and n_records > 0:
        r_fp = collection_fingerprint(r_collection)
        s_fp = collection_fingerprint(s_collection)
        if resume and RunLog.exists(checkpoint_dir):
            runlog = RunLog.open(checkpoint_dir, plan=faults)
            if strategy is None:
                # A defaulted split adopts the recorded one, so runs
                # written under an older default still resume.
                strategy = runlog.manifest.strategy
            runlog.manifest.validate(
                r_fp, s_fp, method, backend, strategy, kwargs_repr, n_records
            )
            # The manifest's chunk split is authoritative: spilled chunk
            # ids only name the same work under the same split. ``workers``
            # still caps concurrency below.
            num_chunks = runlog.manifest.num_chunks
            runlog.reclaim_stale_segments()
            spilled, discarded = runlog.load_columns()
            completed = {
                chunk_id: ChunkResult(rids, sids, JoinStats())
                for chunk_id, (rids, sids) in spilled.items()
            }
    if strategy is None:
        strategy = "anchor" if method in _ORDER_METHODS else "round_robin"

    admission_notes: List[str] = []
    if memory_budget is not None and n_records > 0:
        concurrency = shards if shards is not None else workers
        num_chunks, concurrency, admission_notes = _admit_memory(
            memory_budget,
            collection_footprint(r_collection),
            collection_footprint(s_collection),
            concurrency,
            num_chunks,
            max_chunks=n_records,
            backend=backend,
            allow_split=runlog is None,
            index_shared=False if use_shards else None,
        )
        if use_shards:
            shards = concurrency
        else:
            workers = concurrency
        for note in admission_notes:
            warnings.warn(note, DegradedExecutionWarning, stacklevel=2)

    # One global order serves both the anchor split and, for the methods
    # that take it, every worker's join.
    extra: Dict[str, Any] = {}
    order = kwargs.get("order")
    if order is None and n_records > 0 and (
        method in _ORDER_METHODS or strategy == "anchor"
    ):
        universe = max(
            r_collection.max_element(), s_collection.max_element()
        ) + 1
        order = build_order(s_collection, universe=universe)
        if method in _ORDER_METHODS:
            extra["order"] = order
    chunks = split_collection(
        r_collection, num_chunks, strategy=strategy, order=order
    )
    if not chunks:
        report = JoinReport(workers=workers)
        return ([], report) if return_report else []
    if runlog is None and checkpoint_dir is not None:
        manifest = RunManifest(
            run_id=uuid.uuid4().hex,
            r_fingerprint=r_fp,
            s_fingerprint=s_fp,
            method=method,
            backend=backend,
            strategy=strategy,
            kwargs_repr=kwargs_repr,
            # The count the split was asked for, not len(chunks): the
            # anchor split drops empty chunks, and splitting again with
            # fewer would deal the records differently on resume.
            num_chunks=num_chunks,
            n_records=n_records,
            created=time.time(),
        )
        runlog = RunLog.create(checkpoint_dir, manifest, plan=faults)

    if runlog is not None and len(completed) == len(chunks):
        # Every chunk already settled durably (e.g. resuming a COMPLETE
        # run): no index build, no dispatch — just merge the spills.
        report = JoinReport(
            chunks=[
                ChunkReport(
                    chunk=i,
                    size=len(piece),
                    attempts=[
                        AttemptRecord(
                            number=0, mode="checkpoint",
                            outcome="resumed", duration=0.0,
                        )
                    ],
                )
                for i, (__, piece) in enumerate(chunks)
            ],
            workers=workers,
            fault_plan=faults.describe() if faults is not None else None,
            resumed_chunks=sorted(completed),
            reexecuted_chunks=sorted(discarded),
            checkpoint_dir=checkpoint_dir,
        )
        runlog.mark_complete()
        resumed_out = _merge_chunks([completed[i] for i in range(len(chunks))], report)
        return (resumed_out, report) if return_report else resumed_out

    shared_index = (
        None
        if use_shards
        else build_method_index(s_collection, method, backend, index)
    )

    in_process = not use_shards and (len(chunks) == 1 or workers == 1)
    handle: Optional[SharedCSRHandle] = None
    fork_token: Optional[int] = None
    own_token = cancel is None
    token = cancel
    if token is None and (runlog is not None or deadline is not None):
        token = CancelToken()
    deadline_mark = deadline_at(deadline)
    with contextlib.ExitStack() as scope:
        if runlog is not None and token is not None:
            # Durable runs turn SIGINT/SIGTERM into a graceful abort:
            # settle-or-kill in-flight chunks, flush spills, write ABORTED.
            scope.enter_context(signal_cancellation(token))
        try:
            primary_mode = "none"
            payloads: Dict[str, Optional[_IndexPayload]] = {"none": None, "local": None}
            if shared_index is not None:
                payloads["pickle"] = ("pickle", shared_index)
                if in_process:
                    primary_mode = "direct"
                    payloads["direct"] = ("direct", shared_index)
                elif backend != "python" and isinstance(
                    shared_index, CSRInvertedIndex
                ):
                    try:
                        handle = shared_index.to_shared_memory()
                        primary_mode = "shm"
                        payloads["shm"] = ("shm", handle)
                    except OSError:
                        # No usable /dev/shm (containers with tiny or absent
                        # shm mounts). Fall back to fork-inherited copy-on-
                        # write pages, then to plain pickling.
                        if multiprocessing.get_start_method() == "fork":
                            fork_token = id(shared_index)
                            _FORK_SHARED[fork_token] = shared_index
                            primary_mode = "fork"
                            payloads["fork"] = ("fork", fork_token)
                        else:  # pragma: no cover - non-fork platforms only
                            primary_mode = "pickle"
                else:
                    primary_mode = "pickle"
            if runlog is not None and handle is not None:
                # Persist the segment names: a hard driver kill leaks them
                # in /dev/shm, and resume reclaims exactly this list.
                runlog.record_segments([name for name, __, __ in handle.segments])

            def make_job(chunk_id: int, mode: str) -> Tuple[Any, ...]:
                rid_map, piece = chunks[chunk_id]
                if mode == "local":
                    # Degradation terminus: in-process, pure-python backend,
                    # method builds its own chunk-scoped structures. Slowest
                    # path, fewest moving parts.
                    return (rid_map, piece, s_collection, method, "python",
                            None, extra, kwargs)
                return (rid_map, piece, s_collection, method, backend,
                        payloads[mode], extra, kwargs)

            on_result = None if runlog is None else functools.partial(_spill, runlog)
            if in_process:
                results, report = _run_in_process(
                    chunks,
                    make_job,
                    primary_mode,
                    completed=completed,
                    on_result=on_result,
                    cancel=token,
                    deadline_mark=deadline_mark,
                )
            elif shards is not None and policy is not None:
                coordinator = ShardCoordinator(
                    chunks=chunks,
                    s_collection=s_collection,
                    method=method,
                    backend=backend,
                    extra=extra,
                    kwargs=kwargs,
                    shards=shards,
                    policy=policy,
                    retries=retries,
                    backoff=backoff,
                    backoff_cap=backoff_cap,
                    fallback=fallback,
                    plan=faults,
                    make_job=make_job,
                    runner=_join_chunk,
                    on_result=on_result,
                    cancel=token,
                    deadline_mark=deadline_mark,
                    completed=completed,
                )
                by_chunk = coordinator.run()
                with trace_span("shard.merge"):
                    # Deterministic merge order — chunk id, not settle
                    # order — keeps the pair set byte-identical to serial
                    # however speculation and requeues shuffled the work.
                    results = [by_chunk[i] for i in range(len(chunks))]
                report = coordinator.report
            else:
                supervisor = Supervisor(
                    num_chunks=len(chunks),
                    make_job=make_job,
                    runner=_join_chunk,
                    primary_mode=primary_mode,
                    workers=workers,
                    retries=retries,
                    task_timeout=task_timeout,
                    backoff=backoff,
                    backoff_cap=backoff_cap,
                    fallback=fallback,
                    plan=faults,
                    chunk_sizes=[len(piece) for __, piece in chunks],
                    on_result=on_result,
                    cancel=token,
                    deadline_at=deadline_mark,
                    completed=completed,
                )
                by_chunk = supervisor.run()
                results = [by_chunk[i] for i in range(len(chunks))]
                report = supervisor.report
        except BaseException as exc:
            if runlog is not None:
                runlog.mark_aborted(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if handle is not None:
                handle.cleanup()
            if fork_token is not None:
                _FORK_SHARED.pop(fork_token, None)
            if own_token and token is not None:
                token.close()
    report.degradations.extend(admission_notes)
    if runlog is not None:
        runlog.mark_complete()
        report.checkpoint_dir = checkpoint_dir
        report.reexecuted_chunks = sorted(discarded)
        report.degradations.extend(runlog.notes)
    out = _merge_chunks(results, report)
    return (out, report) if return_report else out


def _spill(runlog: RunLog, chunk_id: int, attempt: int, result: ChunkResult) -> None:
    """The ``on_result`` hook of durable runs: spill one settled chunk."""
    runlog.record_columns(chunk_id, attempt, result.rids, result.sids)


def _merge_chunks(results: List[ChunkResult], report: JoinReport) -> List[Pair]:
    """The final pair list in chunk-id order; counters summed into ``report``.

    The collector is paused while the tuples are built: pairs of ints hold
    no cycles, and collections triggered by the allocations only re-walk
    the growing list (about a third of the merge time on the AOL
    surrogate's 0.73M pairs).
    """
    out: List[Pair] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for part in results:
            report.stats.merge(part.stats)
            out.extend(zip(part.rids.tolist(), part.sids.tolist()))
    finally:
        if was_enabled:
            gc.enable()
    return out


def _run_in_process(
    chunks: List[Tuple[Union[int, List[int]], SetCollection]],
    make_job: Any,
    primary_mode: str,
    completed: Optional[Dict[int, ChunkResult]] = None,
    on_result: Optional[Callable[[int, int, ChunkResult], None]] = None,
    cancel: Optional[CancelToken] = None,
    deadline_mark: Optional[float] = None,
) -> Tuple[List[ChunkResult], JoinReport]:
    """The no-fork fast path, reported in the same shape as supervised runs.

    Honours the same durability contract as the supervised path: resumed
    chunks are merged without re-execution, each settled chunk streams
    through ``on_result``, and cancellation/deadline are checked between
    chunks (a cooperative abort cannot interrupt a chunk mid-join without
    a worker process to kill).
    """
    completed = completed or {}
    report = JoinReport(workers=1)
    metrics = active_or_null()
    results: List[ChunkResult] = []
    start = time.perf_counter()
    for chunk_id, (__, piece) in enumerate(chunks):
        if chunk_id in completed:
            results.append(completed[chunk_id])
            report.chunks.append(
                ChunkReport(
                    chunk=chunk_id,
                    size=len(piece),
                    attempts=[
                        AttemptRecord(
                            number=0, mode="checkpoint",
                            outcome="resumed", duration=0.0,
                        )
                    ],
                )
            )
            report.resumed_chunks.append(chunk_id)
            continue
        if cancel is not None and cancel.cancelled:
            metrics.inc("supervisor.cancellations")
            raise JoinCancelledError(
                cancel.reason or "cancelled", chunk_id, len(chunks)
            )
        if deadline_mark is not None and time.monotonic() >= deadline_mark:
            metrics.inc("supervisor.deadline_aborts")
            raise DeadlineExceededError(
                "overall deadline exceeded", chunk_id, len(chunks)
            )
        t0 = time.perf_counter()
        result = _join_chunk(make_job(chunk_id, primary_mode))
        results.append(result)
        if on_result is not None:
            on_result(chunk_id, 1, result)
        report.chunks.append(
            ChunkReport(
                chunk=chunk_id,
                size=len(piece),
                attempts=[
                    AttemptRecord(
                        number=1,
                        mode=primary_mode,
                        outcome="ok",
                        duration=time.perf_counter() - t0,
                    )
                ],
            )
        )
    report.elapsed_seconds = time.perf_counter() - start
    return results, report
