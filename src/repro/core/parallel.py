"""Multiprocess set containment joins with a shared superset-side index.

The containment join is embarrassingly parallel on the subset side: for any
split ``R = R₁ ∪ R₂``, ``R ⋈⊆ S = (R₁ ⋈⊆ S) ∪ (R₂ ⋈⊆ S)``. This module
splits ``R``, joins each chunk against ``S`` in a worker process with any
registered method, and remaps the chunk-local rids back to the original ids.

All workers join against the *same* ``S``, so the superset-side index —
and, for the tree/partition methods, the frequency
:class:`~repro.core.order.GlobalOrder` — is built **once in the parent**
(:func:`build_method_index`) and travels to every worker node inside the
job factory the node receives when it starts. Under the fork start method
that is copy-on-write memory: no copy, no pickling. Elsewhere the factory
is pickled once per node, never per job. ``framework``/``framework_et``
on ``"hybrid"`` get the array index
(:class:`~repro.index.storage.HybridInvertedIndex`); the tree methods
bind python lists on every backend, so they get the python
:class:`~repro.index.inverted.InvertedIndex`.

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
runs would give one worker all the big sets.

Each chunk's pairs come back as two int64 columns (global rids, sids)
plus the settling attempt's :class:`~repro.core.stats.JoinStats`. The
columns pickle in about a millisecond where a tuple list of the same
pairs takes a hundred times longer, and the parent builds the final list
once, in chunk-id order, with one ``zip`` over ``tolist()`` columns.

Since the chunks are independently re-executable, failures are
recoverable: every multi-process run goes through one
:class:`~repro.core.supervisor.Coordinator`. Its long-lived nodes
receive S, the index, the order and the chunk list once, when they are
forked, and then one small job message per attempt. It detects crashed,
hung and wedged nodes, duplicates stragglers, respawns dead nodes within
a restart budget, retries chunks with capped exponential backoff
(``retries=``, ``task_timeout=``, ``backoff=``), and — after exhausting
retries — falls back to in-process execution on the python backend.
``return_report=True`` returns the structured
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

from ..data.collection import SetCollection
from ..errors import DegradedExecutionWarning, InvalidParameterError
from ..faults import FaultPlan
from ..index.inverted import InvertedIndex
from ..index.storage import HybridInvertedIndex
from ..memory.meter import collection_footprint
from ..obs.registry import active_or_null
from .api import ARRAY_METHODS, TREE_METHODS, check_backend, join_into
from .order import GlobalOrder, build_order
from .results import AttemptRecord, JoinReport, PairListSink, pair_columns
from .runlog import (
    CancelToken,
    RunLog,
    RunManifest,
    collection_fingerprint,
    deadline_at,
    signal_cancellation,
)
from .stats import JoinStats
from .supervisor import Coordinator, check_abort, start_report
from .tree_join import check_tree_args

__all__ = [
    "parallel_join",
    "split_collection",
    "deal_anchors",
    "build_method_index",
    "ChunkResult",
]

Pair = Tuple[int, int]


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
    strategy: str,
    order: Optional[GlobalOrder] = None,
) -> List[Tuple[List[int], SetCollection]]:
    """Split into up to ``chunks`` pieces, each with its global-rid list.

    ``strategy="round_robin"`` deals record ``i`` to piece ``i % chunks``;
    it balances per-chunk work when record sizes are sorted (e.g. after a
    frequency reorder), where contiguous runs would put all the large sets
    in one chunk. ``strategy="anchor"`` keeps the anchor partitions of the
    global ``order`` whole (see :func:`deal_anchors`) and yields ascending
    rid lists; it may yield fewer than ``chunks`` pieces.
    """
    if chunks < 1:
        raise InvalidParameterError(f"chunks must be >= 1, got {chunks}")
    n = len(collection)
    if n == 0:
        return []
    chunks = min(chunks, n)
    records = collection.records
    out: List[Tuple[List[int], SetCollection]] = []
    if strategy == "round_robin":
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
            "expected 'round_robin' or 'anchor'"
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
    index: Optional[Union[InvertedIndex, HybridInvertedIndex]] = None,
) -> Optional[Union[InvertedIndex, HybridInvertedIndex]]:
    """The superset-side index this ``(method, backend)`` pair consumes.

    The driver builds it once and ships the result to every worker node.
    ``framework``/``framework_et`` on ``"hybrid"`` take the array index;
    the tree methods take the python index on every backend; the
    baselines build their own structures and take no index at all. A
    caller-provided ``index`` is converted when the method needs the
    array form, and passed through otherwise.
    """
    if _uses_array_index(method, backend=backend):
        if index is None:
            return HybridInvertedIndex.build(s_collection)
        if isinstance(index, InvertedIndex):
            return HybridInvertedIndex.from_index(index)
        return index
    if index is None and (method in ARRAY_METHODS or method in TREE_METHODS):
        return InvertedIndex.build(s_collection)
    return index


def _uses_array_index(method: str, backend: str) -> bool:
    """Whether ``(method, backend)`` probes the array index.

    The one decision behind both :func:`build_method_index` and the
    memory-admission price of the index (:func:`_admit_memory`).
    """
    return backend != "python" and method in ARRAY_METHODS


def _join_chunk(args: Tuple[Any, ...]) -> ChunkResult:
    rid_map, r_chunk, s_collection, method, backend, index, extra, kwargs = args
    kw = dict(kwargs)
    kw.update(extra)
    if index is not None:
        kw["index"] = index
    sink = PairListSink()
    stats = JoinStats()
    join_into(
        r_chunk, s_collection, sink, method=method, stats=stats,
        backend=backend, **kw,
    )
    local, sids = pair_columns(sink.pairs)
    return ChunkResult(np.asarray(rid_map, dtype=np.int64)[local], sids, stats)


#: A split of R: each piece with its rid mapping (see split_collection).
_Chunks = List[Tuple[List[int], SetCollection]]


class _ChunkJobs(NamedTuple):
    """The job factory a node receives once, when it is forked.

    ``jobs(chunk_id)`` is the :func:`_join_chunk` tuple for one attempt
    against ``index`` (``None`` when the method builds its own structures);
    ``local=True`` is the in-process fallback (python backend, no shared
    index). Under the fork start method S, the index, the order and every
    chunk reach a node through copy-on-write memory and are never pickled.
    """

    chunks: _Chunks
    s_collection: SetCollection
    method: str
    backend: str
    index: Optional[Union[InvertedIndex, HybridInvertedIndex]]
    extra: Dict[str, Any]
    kwargs: Dict[str, Any]

    def __call__(self, chunk_id: int, local: bool = False) -> Tuple[Any, ...]:
        rid_map, piece = self.chunks[chunk_id]
        if local:
            # Degradation terminus: in-process, pure-python backend, the
            # method builds its own chunk-scoped structures. Slowest path,
            # fewest moving parts.
            return (rid_map, piece, self.s_collection, self.method, "python",
                    None, self.extra, self.kwargs)
        return (rid_map, piece, self.s_collection, self.method, self.backend,
                self.index, self.extra, self.kwargs)


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
    split: Callable[[int], _Chunks],
    r_collection: SetCollection,
    s_entries: int,
    workers: int,
    num_chunks: int,
    method: str,
    backend: str,
    allow_split: bool,
) -> Tuple[_Chunks, int, int, List[str]]:
    """Fit the run under ``memory_budget`` bytes; returns the adjusted plan.

    The model: the superset-side index is the one
    :func:`build_method_index` ships for ``(method, backend)``. The array
    index is a *fixed* cost paid once, because worker nodes inherit it
    copy-on-write and only read its buffers; the python index is a
    *per-worker* cost, because reference counts are written into every
    page a node reads, so each node soon holds its own copy. The tree
    methods take the python index on every backend, and are priced so.
    Each concurrent worker additionally holds one R-chunk, priced at the
    *largest* chunk of the split that will actually run — the anchor split
    balances record counts, not entries, so its largest chunk can cost
    more than the mean.
    Two knobs, applied in order: re-split R into more chunks until the
    largest fits one worker, then cap the number of concurrent workers so
    the sum fits. ``allow_split=False`` (resume: the chunk split is fixed
    by the manifest) only caps workers. Raises
    :class:`InvalidParameterError` when even one worker holding a single
    record exceeds the budget.

    Returns ``(chunks, num_chunks, workers, notes)``: the split, the count
    it was asked for, the admitted concurrency and one note per decision.
    """
    array_index = _uses_array_index(method, backend)
    index_bytes = s_entries * (
        _CSR_BYTES_PER_ENTRY if array_index else _PY_BYTES_PER_ENTRY
    )
    per_worker_index = 0 if array_index else index_bytes
    avail = budget - (index_bytes if array_index else 0)

    def worker_cost(entries: int) -> int:
        return per_worker_index + entries * _PY_BYTES_PER_ENTRY + _CHUNK_FIXED_BYTES

    # The most R entries one chunk may hold with its worker under budget.
    max_entries = (avail - worker_cost(0)) // _PY_BYTES_PER_ENTRY
    smallest = max(len(record) for record in r_collection.records) + 1
    if max_entries < smallest:
        raise InvalidParameterError(
            f"memory_budget={budget} cannot admit this join: the "
            f"{'shared ' if array_index else ''}index costs "
            f"{index_bytes} bytes and the smallest possible worker needs "
            f"{worker_cost(smallest)} more; raise the budget or shrink the "
            "inputs"
        )
    notes: List[str] = []
    metrics = active_or_null()
    chunks = split(num_chunks)
    largest = max(collection_footprint(piece) for __, piece in chunks)
    asked = num_chunks
    while allow_split and largest > max_entries and num_chunks < len(r_collection):
        num_chunks = min(
            len(r_collection),
            max(num_chunks + 1, -(-num_chunks * largest // max_entries)),
        )
        chunks = split(num_chunks)
        largest = max(collection_footprint(piece) for __, piece in chunks)
    if num_chunks > asked:
        notes.append(
            f"memory budget {budget}: R split into {num_chunks} chunks "
            f"(was {asked}) so one chunk fits a worker"
        )
        metrics.inc("supervisor.memory_splits")
    allowed = int(avail // worker_cost(largest))
    if allowed < workers:
        allowed = max(1, allowed)
        notes.append(
            f"memory budget {budget}: concurrency capped at {allowed} "
            f"worker(s) (was {workers})"
        )
        metrics.inc("supervisor.memory_caps")
        workers = allowed
    return chunks, num_chunks, workers, notes


def parallel_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    method: str = "lcjoin",
    workers: Optional[int] = None,
    backend: str = "python",
    strategy: Optional[str] = None,
    index: Optional[Union[InvertedIndex, HybridInvertedIndex]] = None,
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
    **kwargs: Any,
) -> Union[List[Tuple[int, int]], Tuple[List[Tuple[int, int]], JoinReport]]:
    """Join with ``workers`` processes (defaults to the CPU count).

    Returns the pair list (rids refer to ``r_collection``), or
    ``(pairs, report)`` with ``return_report=True``. With one worker (or
    one chunk) everything runs in-process, so tests and small inputs pay no
    fork cost.

    The superset-side index is built **once** here and every worker node
    joins against it: nodes inherit it at fork (under other start methods
    it is pickled once per node), bitmap rows included when
    ``framework``/``framework_et`` run on ``"hybrid"``. A tree method
    refuses a prebuilt array ``index=`` before any node starts.
    Pass a prebuilt ``index=`` to skip even the single parent-side build,
    e.g. when issuing many joins against the same ``S``. ``strategy``
    selects the ``R`` chunking (:func:`split_collection`): ``"anchor"`` (whole
    partitions of the global order) for ``tree``, ``tree_et``,
    ``all_partition`` and ``lcjoin``, ``"round_robin"`` for every other
    method. A resumed run without an explicit ``strategy`` keeps the one
    its manifest recorded.

    Each chunk ships its pairs back as int64 columns together with the
    method counters of the attempt that settled it; the report's ``stats``
    holds their sum in chunk-id order (lost and superseded attempts never
    count, and chunks resumed from spills add zero).

    Multi-process runs split ``R`` into ``workers`` chunks and are
    supervised by one :class:`~repro.core.supervisor.Coordinator` over
    ``workers`` long-lived nodes: each chunk is a tracked task with up to
    ``retries`` re-dispatches (exponential ``backoff`` capped at
    ``backoff_cap``) and an optional per-attempt ``task_timeout`` that
    catches hung attempts. Nodes that stop heartbeating are killed,
    stragglers get a speculative duplicate, and a node that dies on its
    own is respawned within a restart budget. A chunk whose retries are
    exhausted falls back to in-process python-backend execution unless
    ``fallback=False``, in which case
    :class:`~repro.errors.WorkerFailedError` /
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
    ``memory_budget=`` (bytes) admission-controls the plan — the largest
    chunk of the split is priced, oversized chunks are split and
    concurrency capped, each decision recorded in the report and warned
    as :class:`~repro.errors.DegradedExecutionWarning`.
    """
    workers = workers if workers is not None else multiprocessing.cpu_count()
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    check_backend(method, backend=backend)
    if method in TREE_METHODS:
        check_tree_args(index, backend=backend)
    if deadline is not None and deadline <= 0:
        raise InvalidParameterError(f"deadline must be positive, got {deadline}")
    if memory_budget is not None and memory_budget <= 0:
        raise InvalidParameterError(
            f"memory_budget must be positive, got {memory_budget}"
        )
    if resume and checkpoint_dir is None:
        raise InvalidParameterError("resume=True requires checkpoint_dir=")
    if faults is None:
        faults = FaultPlan.from_env()

    num_chunks = workers
    n_records = len(r_collection)
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
            # still caps how many chunks run at once.
            num_chunks = runlog.manifest.num_chunks
            spilled, discarded = runlog.load_columns()
            completed = {
                chunk_id: ChunkResult(rids, sids, JoinStats())
                for chunk_id, (rids, sids) in spilled.items()
            }
    if strategy is None:
        strategy = "anchor" if method in TREE_METHODS else "round_robin"

    # One global order serves both the anchor split and, for the methods
    # that take it, every worker's join.
    extra: Dict[str, Any] = {}
    order = kwargs.get("order")
    if order is None and n_records > 0 and (
        method in TREE_METHODS or strategy == "anchor"
    ):
        universe = max(
            r_collection.max_element(), s_collection.max_element()
        ) + 1
        order = build_order(s_collection, universe=universe)
        if method in TREE_METHODS:
            extra["order"] = order

    def split(count: int) -> _Chunks:
        return split_collection(r_collection, count, strategy=strategy, order=order)

    admission_notes: List[str] = []
    if memory_budget is not None and n_records > 0:
        chunks, num_chunks, workers, admission_notes = _admit_memory(
            memory_budget,
            split,
            r_collection,
            collection_footprint(s_collection),
            workers,
            num_chunks,
            method=method,
            backend=backend,
            allow_split=runlog is None,
        )
        for note in admission_notes:
            warnings.warn(note, DegradedExecutionWarning, stacklevel=2)
    else:
        chunks = split(num_chunks)
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

    chunk_sizes = [len(piece) for __, piece in chunks]
    if runlog is not None and len(completed) == len(chunks):
        # Every chunk already settled durably (e.g. resuming a COMPLETE
        # run): no index build, no dispatch — just merge the spills.
        by_chunk: Dict[int, ChunkResult] = completed
        report = start_report(chunk_sizes, workers, faults, completed)
    else:
        in_process = len(chunks) == 1 or workers == 1
        shared_index = build_method_index(s_collection, method, backend, index)
        if shared_index is None:
            primary_mode = "none"
        else:
            primary_mode = "direct" if in_process else "pickle"
        jobs = _ChunkJobs(
            chunks, s_collection, method, backend, shared_index, extra, kwargs
        )
        on_result = None if runlog is None else functools.partial(_spill, runlog)
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
                if in_process:
                    by_chunk, report = _run_in_process(
                        jobs,
                        primary_mode,
                        completed=completed,
                        on_result=on_result,
                        cancel=token,
                        deadline_mark=deadline_mark,
                    )
                else:
                    coordinator = Coordinator(
                        jobs,
                        _join_chunk,
                        chunk_sizes,
                        primary_mode,
                        workers,
                        retries=retries,
                        task_timeout=task_timeout,
                        backoff=backoff,
                        backoff_cap=backoff_cap,
                        fallback=fallback,
                        plan=faults,
                        on_result=on_result,
                        cancel=token,
                        deadline_mark=deadline_mark,
                        completed=completed,
                    )
                    by_chunk = coordinator.run()
                    report = coordinator.report
            except BaseException as exc:
                if runlog is not None:
                    runlog.mark_aborted(f"{type(exc).__name__}: {exc}")
                raise
            finally:
                if own_token and token is not None:
                    token.close()
    report.degradations.extend(admission_notes)
    if runlog is not None:
        runlog.mark_complete()
        report.checkpoint_dir = checkpoint_dir
        report.reexecuted_chunks = sorted(discarded)
        report.degradations.extend(runlog.notes)
    # Chunk-id order, not settle order: the pair list is byte-identical to
    # the serial join's however retries and speculation shuffled the work.
    out = _merge_chunks([by_chunk[i] for i in range(len(chunks))], report)
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
    jobs: _ChunkJobs,
    primary_mode: str,
    completed: Dict[int, ChunkResult],
    on_result: Optional[Callable[[int, int, ChunkResult], None]] = None,
    cancel: Optional[CancelToken] = None,
    deadline_mark: Optional[float] = None,
) -> Tuple[Dict[int, ChunkResult], JoinReport]:
    """The no-fork fast path, reported in the same shape as supervised runs.

    Honours the same durability contract as the supervised path: resumed
    chunks are merged without re-execution, each settled chunk streams
    through ``on_result``, and cancellation/deadline are checked between
    chunks (a cooperative abort cannot interrupt a chunk mid-join without
    a worker process to kill).
    """
    n_chunks = len(jobs.chunks)
    report = start_report(
        [len(piece) for __, piece in jobs.chunks], 1, None, completed
    )
    results = dict(completed)
    start = time.perf_counter()
    for chunk_id in range(n_chunks):
        if chunk_id in results:
            continue
        check_abort(cancel, deadline_mark, chunk_id, n_chunks)
        t0 = time.perf_counter()
        results[chunk_id] = _join_chunk(jobs(chunk_id))
        if on_result is not None:
            on_result(chunk_id, 1, results[chunk_id])
        report.chunks[chunk_id].attempts.append(
            AttemptRecord(
                number=1,
                mode=primary_mode,
                outcome="ok",
                duration=time.perf_counter() - t0,
            )
        )
    report.elapsed_seconds = time.perf_counter() - start
    return results, report
