"""Sharded scale-out execution: N independent nodes under one coordinator.

:func:`repro.core.parallel.parallel_join` with ``workers=`` runs a pool of
short-lived processes hanging off one driver, sharing the superset-side
index through shared memory. That model scales a single machine but not a
*failure domain*: every worker shares the driver's memory image, one index
build, and one /dev/shm segment. ``shards=`` replaces it with the model of
the Filter-and-Verification-Tree MapReduce line of work — chunks promoted
to jobs on **processes-as-nodes**:

* each shard node is a long-lived process that builds **its own** index
  copy (:func:`~repro.core.parallel.build_method_index`) — no cross-shard
  shared memory, so nothing a dying shard holds can corrupt a survivor;
* nodes run one chunk at a time and report over a duplex pipe; a
  background thread sends **heartbeats** every
  :attr:`ShardPolicy.heartbeat_interval` seconds (including during the
  index build), so a node that is alive-but-wedged is distinguishable
  from one that is merely slow;
* the coordinator detects a dead node three ways — pipe EOF, the process
  sentinel, or :attr:`ShardPolicy.heartbeat_miss_limit` missed heartbeats
  — **requeues** its unsettled chunk onto the survivors with the same
  capped exponential backoff the supervisor uses, and **respawns** the
  node (a fresh incarnation) while the restart budget lasts, degrading to
  fewer shards once it is spent;
* once :attr:`ShardPolicy.speculation_quorum` chunks have settled, the
  coordinator keeps a runtime quantile; a chunk in flight for more than
  ``max(speculation_min_seconds, speculation_factor × quantile)`` gets one
  **speculative** duplicate dispatch on an idle node. First settle wins;
  the loser is recorded as ``superseded`` and its late result (if it ever
  arrives) is discarded by chunk id, so the merged pair set is exactly the
  serial one no matter which twin won.

Chunks are idempotent and union-decomposable (``R ⋈⊆ S = ∪ᵢ Rᵢ ⋈⊆ S``),
which is what makes all of this safe: re-running, duplicating, or
re-homing a chunk can change *where* work happens but never *what* the
merged result is. Durability composes for free — the coordinator streams
settled chunks through the same ``on_result`` hook the supervisor uses, so
``checkpoint_dir=`` spills them through :mod:`repro.core.runlog` and a
killed coordinator resumes a sharded run exactly like a killed driver
resumes a pooled one.

Fault injection: the ``shard`` stage of :mod:`repro.faults`
(``shard:<id>:kill|hang|slow[@prob][=arg]``) fires in the node at job
pickup — ``kill`` hard-exits the process, ``hang`` silences heartbeats and
sleeps (caught by miss detection), ``slow`` sleeps while still beating
(caught by speculation). Task-stage rules (``crash``/``hang``/``raise``)
fire per chunk attempt as in pool mode.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..data.collection import SetCollection
from ..errors import (
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
    WorkerFailedError,
)
from ..faults import (
    CRASH_EXIT_CODE,
    DEFAULT_HANG_SECONDS,
    DEFAULT_SLOW_SECONDS,
    FaultPlan,
)
from ..obs.registry import active_or_null
from ..obs.spans import trace_span
from .results import AttemptRecord, ChunkReport, JoinReport, ShardReport
from .runlog import CancelToken
from .supervisor import interruptible_wait

__all__ = ["ShardCoordinator", "ShardPolicy"]

#: Grace period between SIGTERM and SIGKILL when putting a node down.
_KILL_GRACE = 1.0

#: A job tuple as consumed by ``repro.core.parallel._join_chunk``.
_Job = Tuple[Any, ...]
#: Whatever the runner returns for a chunk; carried, never inspected.
_Result = Any
_Runner = Callable[[_Job], _Result]
_JobFactory = Callable[[int, str], _Job]
_RidMap = Union[int, List[int]]


@dataclass(frozen=True)
class ShardPolicy:
    """Tunable thresholds of the coordinator's robustness machinery.

    The defaults suit real workloads (sub-second heartbeats, speculation
    only for chunks 4× slower than the pack); the chaos tests shrink them
    to keep wall-clock down. ``restart_budget=None`` allows one respawn
    per shard — enough to absorb one hard failure per node without letting
    a deterministic crasher respawn forever.
    """

    #: Seconds between a node's heartbeats (sent even during index build).
    heartbeat_interval: float = 0.2
    #: Consecutive missed intervals before a silent node is declared dead.
    heartbeat_miss_limit: int = 10
    #: Settled chunks required before the runtime quantile is trusted.
    speculation_quorum: int = 3
    #: A chunk is a straggler past ``factor × quantile`` seconds in flight.
    speculation_factor: float = 4.0
    #: ...but never before this many seconds, whatever the quantile says.
    speculation_min_seconds: float = 1.0
    #: Which runtime quantile anchors the straggler threshold.
    speculation_quantile: float = 0.75
    #: Dead-shard respawns allowed across the run (``None`` → one per shard).
    restart_budget: Optional[int] = None
    #: Fresh runs split R into ``shards × chunks_per_shard`` chunks, so a
    #: dead shard requeues a slice of its work, not all of it.
    chunks_per_shard: int = 4

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise InvalidParameterError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.heartbeat_miss_limit < 1:
            raise InvalidParameterError(
                f"heartbeat_miss_limit must be >= 1, got {self.heartbeat_miss_limit}"
            )
        if self.speculation_quorum < 1:
            raise InvalidParameterError(
                f"speculation_quorum must be >= 1, got {self.speculation_quorum}"
            )
        if self.speculation_factor <= 0 or self.speculation_min_seconds < 0:
            raise InvalidParameterError(
                "speculation_factor must be positive and "
                "speculation_min_seconds non-negative"
            )
        if not 0.0 <= self.speculation_quantile <= 1.0:
            raise InvalidParameterError(
                f"speculation_quantile must be in [0, 1], "
                f"got {self.speculation_quantile}"
            )
        if self.restart_budget is not None and self.restart_budget < 0:
            raise InvalidParameterError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.chunks_per_shard < 1:
            raise InvalidParameterError(
                f"chunks_per_shard must be >= 1, got {self.chunks_per_shard}"
            )


def _shard_main(
    conn: Connection,
    shard_id: int,
    incarnation: int,
    s_collection: SetCollection,
    method: str,
    backend: str,
    extra: Dict[str, Any],
    kwargs: Dict[str, Any],
    plan: Optional[FaultPlan],
    heartbeat_interval: float,
) -> None:
    """Shard-node entry: build an index, then serve jobs until told to stop.

    The heartbeat thread starts *before* the index build so a node working
    through a large S never looks dead to the coordinator. ``conn`` is
    duplex and shared between the job loop and the heartbeat thread, so
    every send goes through one lock.

    Orphan detection cannot rely on pipe EOF alone: under the fork start
    method every later-spawned sibling (and this process itself) inherits
    a copy of the coordinator-side pipe end, so a hard-killed coordinator
    (SIGKILL, ``driverkill``) leaves the pipe technically open and a naive
    ``recv`` blocks forever. The job loop therefore waits on the parent's
    process sentinel alongside the pipe and exits as soon as the
    coordinator is gone with nothing left buffered — an orphaned shard
    must not keep serving a dead master.
    """
    stop_beats = threading.Event()
    beats_enabled = threading.Event()
    beats_enabled.set()
    send_lock = threading.Lock()

    def _beat() -> None:
        seq = 0
        while not stop_beats.wait(heartbeat_interval):
            if not beats_enabled.is_set():
                continue
            seq += 1
            try:
                with send_lock:
                    conn.send(("hb", seq))
            except OSError:
                return

    beat_thread = threading.Thread(target=_beat, daemon=True)
    beat_thread.start()
    # Per-node index build: sharded execution shares no memory across
    # nodes, so each one pays (and owns) its own superset-side structures.
    # Import here, not at module top, purely for the runtime cycle with
    # parallel.py; the symbol lives there because the driver shares it.
    from .parallel import _join_chunk, build_method_index

    index = build_method_index(s_collection, method, backend)
    parent = multiprocessing.parent_process()
    handles: List[Any] = [conn]
    if parent is not None:
        handles.append(parent.sentinel)
    try:
        while True:
            if conn not in wait(handles):
                return  # coordinator died with nothing buffered for us
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "stop":
                return
            __, chunk_id, attempt, rid_map, piece = message
            if plan is not None:
                rule = plan.rule_for_shard(shard_id, incarnation, chunk_id)
                if rule is not None:
                    if rule.action == "kill":
                        os._exit(CRASH_EXIT_CODE)
                    elif rule.action == "hang":
                        # A wedged node: heartbeats stop too, so only the
                        # coordinator's miss detection can catch it.
                        beats_enabled.clear()
                        time.sleep(
                            rule.arg if rule.arg is not None else DEFAULT_HANG_SECONDS
                        )
                        beats_enabled.set()
                    else:  # "slow" — a straggler that still heartbeats
                        time.sleep(
                            rule.arg if rule.arg is not None else DEFAULT_SLOW_SECONDS
                        )
            try:
                if plan is not None:
                    plan.fire_worker_start(chunk_id, attempt)
                job: _Job = (
                    rid_map, piece, s_collection, method, backend,
                    ("direct", index) if index is not None else None,
                    extra, kwargs,
                )
                pairs = _join_chunk(job)
            except BaseException as exc:  # noqa: B036 - forwarded, not swallowed
                try:
                    with send_lock:
                        conn.send(
                            ("err", chunk_id, attempt, type(exc).__name__, str(exc))
                        )
                except OSError:
                    return
                continue
            try:
                with send_lock:
                    conn.send(("done", chunk_id, attempt, pairs))
            except OSError:
                return
    finally:
        stop_beats.set()


class _Assignment:
    """One dispatch of one chunk to one shard incarnation."""

    __slots__ = ("chunk_id", "attempt", "shard_id", "started", "speculative",
                 "superseded")

    def __init__(
        self,
        chunk_id: int,
        attempt: int,
        shard_id: int,
        started: float,
        speculative: bool,
    ) -> None:
        self.chunk_id = chunk_id
        self.attempt = attempt
        self.shard_id = shard_id
        self.started = started
        self.speculative = speculative
        self.superseded = False


class _ChunkState:
    """Coordinator-side lifecycle of one chunk across shards and attempts."""

    __slots__ = ("chunk_id", "attempts", "ready_at", "inflight", "speculated",
                 "last_error", "last_outcome")

    def __init__(self, chunk_id: int) -> None:
        self.chunk_id = chunk_id
        self.attempts = 0
        self.ready_at = 0.0
        self.inflight: List[_Assignment] = []
        self.speculated = False
        self.last_error = ""
        self.last_outcome = ""


class _Node:
    """Parent-side handle of one shard id across its incarnations."""

    __slots__ = ("shard_id", "process", "conn", "incarnation", "last_beat",
                 "busy", "alive", "respawn_at", "report")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process: Optional[multiprocessing.Process] = None
        self.conn: Optional[Connection] = None
        self.incarnation = 0
        self.last_beat = 0.0
        self.busy: Optional[_Assignment] = None
        self.alive = False
        self.respawn_at = 0.0
        self.report = ShardReport(shard=shard_id, incarnations=0)


class ShardCoordinator:
    """Assign chunks to shard nodes; survive stragglers and dead shards.

    The constructor mirrors :class:`~repro.core.supervisor.Supervisor`
    where the concepts coincide (``retries``/``backoff``/``fallback``/
    ``on_result``/``cancel``/``deadline_mark``/``completed``); the
    shard-specific knobs live in :class:`ShardPolicy`. ``make_job`` and
    ``runner`` are only used for the in-process ``local`` degradation
    terminus — regular dispatches ship ``(rid_map, piece)`` to a node over
    its pipe and the node builds everything else itself.
    """

    def __init__(
        self,
        chunks: List[Tuple[_RidMap, SetCollection]],
        s_collection: SetCollection,
        method: str,
        backend: str,
        extra: Dict[str, Any],
        kwargs: Dict[str, Any],
        shards: int,
        policy: ShardPolicy,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        fallback: bool = True,
        plan: Optional[FaultPlan] = None,
        make_job: Optional[_JobFactory] = None,
        runner: Optional[_Runner] = None,
        on_result: Optional[Callable[[int, int, _Result], None]] = None,
        cancel: Optional[CancelToken] = None,
        deadline_mark: Optional[float] = None,
        completed: Optional[Dict[int, _Result]] = None,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise InvalidParameterError(f"backoff must be >= 0, got {backoff}")
        self._chunks = chunks
        self._s_collection = s_collection
        self._method = method
        self._backend = backend
        self._extra = extra
        self._kwargs = kwargs
        self._shards = shards
        self._policy = policy
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._fallback = fallback
        self._plan = plan
        self._make_job = make_job
        self._runner = runner
        self._on_result = on_result
        self._cancel = cancel
        self._deadline_mark = deadline_mark
        self._metrics = active_or_null()
        self._mp = multiprocessing.get_context()
        self._nodes = [_Node(shard_id) for shard_id in range(shards)]
        self._states = [_ChunkState(i) for i in range(len(chunks))]
        self._pending: List[_ChunkState] = []
        self._results: Dict[int, _Result] = {}
        self._durations: List[float] = []
        self._restarts_used = 0
        budget = policy.restart_budget
        self._restart_budget = budget if budget is not None else shards
        self.report = JoinReport(
            chunks=[
                ChunkReport(chunk=i, size=len(piece))
                for i, (__, piece) in enumerate(chunks)
            ],
            workers=shards,
            fault_plan=plan.describe() if plan is not None else None,
        )
        for chunk_id, pairs in (completed or {}).items():
            self._results[chunk_id] = pairs
            self.report.chunks[chunk_id].attempts.append(
                AttemptRecord(
                    number=0, mode="checkpoint", outcome="resumed", duration=0.0
                )
            )
            self.report.resumed_chunks.append(chunk_id)
        self.report.resumed_chunks.sort()
        self._pending = [
            state for state in self._states if state.chunk_id not in self._results
        ]

    # -- public entry ------------------------------------------------------

    def run(self) -> Dict[int, _Result]:
        """Drive every chunk to settlement; returns results by chunk id."""
        start = time.perf_counter()
        try:
            with trace_span("shard.dispatch"):
                now = time.monotonic()
                for node in self._nodes:
                    self._spawn(node, now)
                self._loop()
        finally:
            self._shutdown()
            self.report.shards = [node.report for node in self._nodes]
            self.report.elapsed_seconds += time.perf_counter() - start
        return self._results

    # -- node lifecycle ----------------------------------------------------

    def _spawn(self, node: _Node, now: float) -> None:
        node.incarnation += 1
        node.report.incarnations += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_shard_main,
            args=(
                child_conn,
                node.shard_id,
                node.incarnation,
                self._s_collection,
                self._method,
                self._backend,
                self._extra,
                self._kwargs,
                self._plan,
                self._policy.heartbeat_interval,
            ),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end so a dead node turns
        # into EOF on our end instead of a silent stall.
        child_conn.close()
        node.process = process
        node.conn = parent_conn
        node.busy = None
        node.alive = True
        node.last_beat = now

    def _kill(self, process: multiprocessing.Process) -> None:
        process.terminate()
        process.join(_KILL_GRACE)
        if process.is_alive():  # pragma: no cover - SIGTERM normally lands
            process.kill()
            process.join(_KILL_GRACE)

    def _on_death(self, node: _Node, cause: str, now: float) -> None:
        """A node is gone: drain its pipe, requeue its work, plan a respawn."""
        if not node.alive:
            return
        # Results sent just before death are still in the pipe; settling
        # them beats re-executing their chunks.
        self._drain_node(node, now, dying=True)
        node.alive = False
        node.report.deaths += 1
        node.report.last_error = cause
        if node.process is not None:
            if node.process.is_alive():
                self._kill(node.process)
            else:
                node.process.join(_KILL_GRACE)
        if node.conn is not None:
            node.conn.close()
            node.conn = None
        assignment = node.busy
        node.busy = None
        if assignment is not None and not assignment.superseded:
            state = self._states[assignment.chunk_id]
            if assignment.chunk_id not in self._results:
                state.inflight.remove(assignment)
                self._record(
                    state, assignment, "crash", now - assignment.started, cause
                )
                self._chunk_failed(state, "crash", cause, now)
        if self._restarts_used < self._restart_budget:
            delay = min(
                self._backoff * (2 ** (node.report.deaths - 1)), self._backoff_cap
            )
            node.respawn_at = now + delay

    def _respawn_ready(self, now: float) -> None:
        for node in self._nodes:
            if (
                node.alive
                or self._restarts_used >= self._restart_budget
                or now < node.respawn_at
            ):
                continue
            self._restarts_used += 1
            self._metrics.inc("shard.restarts")
            self.report.shard_restarts += 1
            self._degrade(
                f"shard {node.shard_id} died ({node.report.last_error}); "
                f"respawned as incarnation {node.incarnation + 1} "
                f"({self._restart_budget - self._restarts_used} restart(s) left)"
            )
            self._spawn(node, now)

    def _detect_dead(self, now: float) -> None:
        window = (
            self._policy.heartbeat_interval * self._policy.heartbeat_miss_limit
        )
        for node in self._nodes:
            if not node.alive:
                continue
            if node.process is not None and not node.process.is_alive():
                self._on_death(
                    node,
                    f"shard {node.shard_id} died "
                    f"(exit code {node.process.exitcode})",
                    now,
                )
            elif now - node.last_beat > window:
                self._metrics.inc("shard.heartbeat_misses")
                node.report.heartbeat_misses += 1
                self._on_death(
                    node,
                    f"shard {node.shard_id} missed "
                    f"{self._policy.heartbeat_miss_limit} heartbeats "
                    f"(hang suspected)",
                    now,
                )

    # -- dispatch ----------------------------------------------------------

    def _idle_nodes(self) -> List[_Node]:
        return [n for n in self._nodes if n.alive and n.busy is None]

    def _dispatch(
        self, state: _ChunkState, node: _Node, now: float, speculative: bool
    ) -> None:
        state.attempts += 1
        assignment = _Assignment(
            state.chunk_id, state.attempts, node.shard_id, now, speculative
        )
        rid_map, piece = self._chunks[state.chunk_id]
        self._metrics.inc("shard.assigned")
        if speculative:
            state.speculated = True
            self._metrics.inc("shard.speculated")
            self.report.speculated_chunks.append(state.chunk_id)
        state.inflight.append(assignment)
        node.busy = assignment
        try:
            if node.conn is None:
                raise BrokenPipeError("shard connection closed")
            node.conn.send(
                ("job", state.chunk_id, state.attempts, rid_map, piece)
            )
        except (OSError, ValueError):
            # The node died between our liveness check and the send; the
            # death handler requeues this very assignment.
            self._on_death(
                node, f"shard {node.shard_id} pipe closed at dispatch", now
            )

    def _dispatch_ready(self, now: float) -> None:
        idle = self._idle_nodes()
        if not idle:
            return
        ready = [s for s in self._pending if s.ready_at <= now]
        for state, node in zip(ready, idle):
            self._pending.remove(state)
            self._dispatch(state, node, now, speculative=False)

    def _maybe_speculate(self, now: float) -> None:
        threshold = self._speculation_threshold()
        if threshold is None:
            return
        for state in self._states:
            if (
                state.speculated
                or state.chunk_id in self._results
                or len(state.inflight) != 1
                or state.inflight[0].superseded
                or now - state.inflight[0].started < threshold
            ):
                continue
            idle = self._idle_nodes()
            if not idle:
                return
            # Prefer a node other than the straggler's own (always true
            # here — the straggler's node is busy — but make it explicit).
            node = next(
                (n for n in idle if n.shard_id != state.inflight[0].shard_id),
                idle[0],
            )
            self._dispatch(state, node, now, speculative=True)

    def _speculation_threshold(self) -> Optional[float]:
        if len(self._durations) < self._policy.speculation_quorum:
            return None
        ordered = sorted(self._durations)
        rank = min(
            len(ordered) - 1,
            int(self._policy.speculation_quantile * len(ordered)),
        )
        return max(
            self._policy.speculation_min_seconds,
            self._policy.speculation_factor * ordered[rank],
        )

    # -- settlement --------------------------------------------------------

    def _record(
        self,
        state: _ChunkState,
        assignment: _Assignment,
        outcome: str,
        duration: float,
        error: Optional[str] = None,
    ) -> None:
        self.report.chunks[state.chunk_id].attempts.append(
            AttemptRecord(
                number=assignment.attempt,
                mode="shard",
                outcome=outcome,
                duration=duration,
                error=error,
                shard=assignment.shard_id,
            )
        )

    def _settle(
        self, node: _Node, assignment: _Assignment, pairs: _Result, now: float
    ) -> None:
        state = self._states[assignment.chunk_id]
        duration = now - assignment.started
        self._durations.append(duration)
        # First settle wins. Losing twins are superseded *now*, before the
        # winner's record, so the chunk trail ends on its single "ok" and
        # a late duplicate result is recognisably stale when it arrives.
        for other in state.inflight:
            if other is not assignment and not other.superseded:
                other.superseded = True
                self._record(
                    state, other, "superseded", now - other.started,
                    "lost the first-settle-wins race",
                )
        state.inflight = []
        self._record(state, assignment, "ok", duration)
        self._results[state.chunk_id] = pairs
        self._metrics.inc("shard.settled")
        node.report.settled.append(state.chunk_id)
        if assignment.speculative:
            self._metrics.inc("shard.speculation_wins")
            self.report.speculation_wins.append(state.chunk_id)
        if self._on_result is not None:
            self._on_result(state.chunk_id, assignment.attempt, pairs)

    def _chunk_failed(
        self, state: _ChunkState, outcome: str, error: str, now: float
    ) -> None:
        state.last_outcome = outcome
        state.last_error = error
        if state.inflight:
            # A twin dispatch is still running; it may yet settle the chunk.
            return
        if state.attempts <= self._retries:
            delay = min(
                self._backoff * (2 ** (state.attempts - 1)), self._backoff_cap
            )
            state.ready_at = now + delay
            self._pending.append(state)
        else:
            self._fallback_chunk(state)

    def _fallback_chunk(self, state: _ChunkState) -> None:
        if not self._fallback:
            raise WorkerFailedError(state.chunk_id, state.attempts, state.last_error)
        self._degrade(
            f"chunk {state.chunk_id}: {state.attempts} shard attempt(s) failed "
            f"({state.last_error}); falling back to in-process python execution"
        )
        self._metrics.inc("supervisor.fallbacks")
        state.attempts += 1
        started = time.monotonic()
        if self._make_job is None or self._runner is None:
            raise WorkerFailedError(
                state.chunk_id, state.attempts, state.last_error
            )  # pragma: no cover - parallel_join always wires both
        pairs = self._runner(self._make_job(state.chunk_id, "local"))
        self.report.chunks[state.chunk_id].attempts.append(
            AttemptRecord(
                number=state.attempts,
                mode="local",
                outcome="ok",
                duration=time.monotonic() - started,
            )
        )
        self._results[state.chunk_id] = pairs
        if self._on_result is not None:
            self._on_result(state.chunk_id, state.attempts, pairs)

    # -- message pump ------------------------------------------------------

    def _drain_node(self, node: _Node, now: float, dying: bool = False) -> None:
        while node.conn is not None:
            try:
                if not node.conn.poll(0):
                    return
                message = node.conn.recv()
            except (EOFError, OSError):
                if not dying:
                    self._on_death(
                        node, f"shard {node.shard_id} pipe EOF", now
                    )
                return
            kind = message[0]
            if kind == "hb":
                node.last_beat = now
                continue
            __, chunk_id, attempt, *rest = message
            assignment = node.busy
            node.busy = None
            node.last_beat = now
            if (
                assignment is None
                or assignment.chunk_id != chunk_id
                or assignment.attempt != attempt
            ):  # pragma: no cover - protocol invariant
                continue
            if assignment.superseded or chunk_id in self._results:
                # The stale twin finally reported; its result is discarded
                # (dedup by chunk id) and the node goes back to the pool.
                continue
            state = self._states[chunk_id]
            if kind == "done":
                self._settle(node, assignment, rest[0], now)
            else:  # "err"
                type_name, text = rest
                error = f"{type_name}: {text}"
                state.inflight.remove(assignment)
                self._record(
                    state, assignment, "error", now - assignment.started, error
                )
                self._chunk_failed(state, "error", error, now)

    def _drain_messages(self, now: float) -> None:
        for node in self._nodes:
            if node.alive:
                self._drain_node(node, now)

    # -- the event loop ----------------------------------------------------

    def _check_abort(self) -> None:
        if self._cancel is not None and self._cancel.cancelled:
            self._metrics.inc("supervisor.cancellations")
            raise JoinCancelledError(
                self._cancel.reason or "cancelled",
                len(self._results),
                len(self._chunks),
            )
        if (
            self._deadline_mark is not None
            and time.monotonic() >= self._deadline_mark
        ):
            self._metrics.inc("supervisor.deadline_aborts")
            raise DeadlineExceededError(
                "overall deadline exceeded", len(self._results), len(self._chunks)
            )

    def _loop(self) -> None:
        while len(self._results) < len(self._chunks):
            self._check_abort()
            now = time.monotonic()
            self._detect_dead(now)
            self._respawn_ready(now)
            self._dispatch_ready(now)
            self._maybe_speculate(now)
            if len(self._results) == len(self._chunks):
                return
            if not any(node.alive for node in self._nodes):
                if self._restarts_used >= self._restart_budget:
                    # Out of shards and out of budget: degradation terminus.
                    self._drain_remaining()
                    return
                # Dead but respawnable: wait out the respawn backoff,
                # waking early on cancel/deadline.
                next_up = min(node.respawn_at for node in self._nodes)
                interruptible_wait(
                    max(0.0, next_up - now), self._cancel, self._deadline_mark
                )
                continue
            self._wait(self._next_wakeup(now))
            self._drain_messages(time.monotonic())

    def _next_wakeup(self, now: float) -> Optional[float]:
        window = (
            self._policy.heartbeat_interval * self._policy.heartbeat_miss_limit
        )
        marks: List[float] = []
        for node in self._nodes:
            if node.alive:
                marks.append(node.last_beat + window)
            elif self._restarts_used < self._restart_budget:
                marks.append(node.respawn_at)
        threshold = self._speculation_threshold()
        if threshold is not None:
            for state in self._states:
                if (
                    not state.speculated
                    and state.chunk_id not in self._results
                    and len(state.inflight) == 1
                ):
                    marks.append(state.inflight[0].started + threshold)
        if any(node.busy is None and node.alive for node in self._nodes):
            marks.extend(s.ready_at for s in self._pending if s.ready_at > now)
        if self._deadline_mark is not None:
            marks.append(self._deadline_mark)
        if not marks:
            return None
        return max(0.0, min(marks) - now)

    def _wait(self, timeout: Optional[float]) -> None:
        handles: List[Any] = []
        for node in self._nodes:
            if node.alive and node.conn is not None:
                handles.append(node.conn)
            if node.alive and node.process is not None:
                handles.append(node.process.sentinel)
        if self._cancel is not None:
            handles.append(self._cancel)
        if handles:
            wait(handles, timeout=timeout)
        elif timeout is not None:
            interruptible_wait(timeout, self._cancel, self._deadline_mark)

    def _drain_remaining(self) -> None:
        """Every shard is gone for good: finish the leftovers in-process."""
        leftovers = [
            state
            for state in self._states
            if state.chunk_id not in self._results
        ]
        self._pending = []
        for state in leftovers:
            if not state.last_error:
                state.last_error = "no live shards remain"
            state.inflight = []
            self._fallback_chunk(state)

    def _degrade(self, note: str) -> None:
        self._metrics.inc("supervisor.degradations")
        self.report.degradations.append(note)
        warnings.warn(note, DegradedExecutionWarning, stacklevel=2)

    # -- teardown ----------------------------------------------------------

    def _shutdown(self) -> None:
        """No node, pipe, or in-flight duplicate may outlive the join."""
        for node in self._nodes:
            if node.conn is not None and node.busy is None:
                # Idle nodes get a polite stop; busy ones (stale twins,
                # injected stragglers) would not read it until their sleep
                # ends, so they are killed outright below.
                with contextlib.suppress(OSError):
                    node.conn.send(("stop",))
            if node.process is not None and node.process.is_alive():
                if node.busy is None:
                    node.process.join(_KILL_GRACE)
                if node.process.is_alive():
                    self._kill(node.process)
            if node.conn is not None:
                node.conn.close()
                node.conn = None
            node.alive = False
