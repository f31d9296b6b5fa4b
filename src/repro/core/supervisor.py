"""Supervised chunk execution on long-lived worker nodes.

:func:`repro.core.parallel.parallel_join` decomposes ``R ⋈⊆ S`` into
independent chunk joins (``∪ᵢ Rᵢ ⋈⊆ S``), which makes every chunk
*re-executable*: an attempt that crashes, hangs, or raises can simply be
run again without affecting any other chunk's result. This module is the
one coordinator that exploits that property. It follows the
processes-as-nodes model of the Filter-and-Verification-Tree MapReduce
line of work: chunks are jobs sent to long-lived *nodes*, each a process
that receives S, the index, the order and the chunk list once, when it
is forked, and afterwards only ``(chunk id, attempt)`` per job.

Each chunk is a tracked task with a lifecycle::

    pending -> running -> ok
                 |-> error / crash / timeout -> backoff -> running (retry)
                                   |-> (retries exhausted) -> local fallback

* **Detection.** Nodes report over a duplex pipe and send heartbeats from
  a background thread. The coordinator waits on every pipe, every process
  sentinel and the cancel token at once. A raised exception (``error``),
  a death (pipe EOF or the sentinel, exit code captured: ``crash``), a
  run past ``task_timeout`` (the node is killed: ``timeout``) and
  ``_HEARTBEAT_MISS_LIMIT`` missed heartbeats (a wedged node, killed and
  recorded as a ``crash``) are all told apart.
* **Retry.** Failed attempts are re-dispatched with capped exponential
  backoff (``backoff * 2**(attempt-1)``, capped at ``backoff_cap``) on a
  live node; a dead node is replaced by a fresh one. Every attempt is an
  :class:`~repro.core.results.AttemptRecord` in the
  :class:`~repro.core.results.JoinReport`. The first result to settle a
  chunk wins; a duplicate's late result is dropped by chunk id.
* **Speculation.** Once ``_SPECULATION_QUORUM`` chunks have settled, an
  attempt in flight longer than ``max(_SPECULATION_MIN_SECONDS,
  _SPECULATION_FACTOR × quantile)`` without a ``task_timeout`` deadline
  gets one duplicate on an idle node. With one chunk per node and fewer
  chunks than the quorum (``workers=2``) it never fires.
* **Respawn budget.** A node that dies *running an attempt* is that
  attempt's failure: the chunk's retries bound it, and the node is
  replaced at once. A node that dies on its own (idle, or at job pickup)
  is respawned with backoff while ``_RESTART_BUDGET`` lasts (one respawn
  per node by default), and the run degrades to fewer nodes once it is
  spent.
* **Degradation.** A chunk that exhausts its retries falls back to
  **in-process execution on the pure-python backend** — strictly slower,
  but correct and isolated from whatever killed the nodes. The fallback
  emits :class:`~repro.errors.DegradedExecutionWarning` and is recorded in
  the report. With ``fallback=False`` the exhausted chunk raises
  :class:`~repro.errors.WorkerFailedError` (or its subclass
  :class:`~repro.errors.JoinTimeoutError` for a final timeout) instead.

Every node joins against the parent's index, which arrives with the job
factory (inherited at fork, pickled once per node under other start
methods). The thresholds are module constants, read when a run starts;
the chaos tests shrink them with ``monkeypatch``, and forked nodes
inherit the patch.

Fault injection (:mod:`repro.faults`) hooks into the node at job pickup
(the ``shard`` stage, keyed by node id) and at attempt start (``crash``/
``hang``/``raise``), so the chaos suites can script failures per
``(chunk, attempt)`` or per node deterministically.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
import warnings
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
    JoinTimeoutError,
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

__all__ = [
    "Coordinator",
    "check_abort",
    "interruptible_wait",
    "start_report",
]

#: Attempt-outcome label -> counter name (see repro.obs.catalogue).
_OUTCOME_COUNTERS = {
    "ok": "supervisor.ok",
    "error": "supervisor.errors",
    "crash": "supervisor.crashes",
    "timeout": "supervisor.timeouts",
}

#: Grace period between SIGTERM and SIGKILL when putting a node down, and
#: the join() allowance for a node whose pipe already hit EOF.
_KILL_GRACE = 1.0


def interruptible_wait(
    timeout: float,
    cancel: Optional[CancelToken] = None,
    deadline_mark: Optional[float] = None,
) -> None:
    """Sleep up to ``timeout`` seconds, waking early on any abort signal.

    A capped-backoff delay must never outlive the reasons to keep waiting:
    a cancellation (SIGINT/SIGTERM routed into the :class:`CancelToken`)
    or the run's absolute deadline. Falls back to a plain bounded sleep
    when there is no token to watch.
    """
    if deadline_mark is not None:
        timeout = min(timeout, max(0.0, deadline_mark - time.monotonic()))
    if timeout <= 0:
        return
    if cancel is not None:
        wait([cancel], timeout=timeout)
    else:
        time.sleep(timeout)


# -- robustness thresholds ---------------------------------------------------
#
# Read when a run starts, not bound at import, so a test may shrink them
# with ``monkeypatch``. The defaults suit real workloads: sub-second
# heartbeats, and speculation only for chunks 4x slower than the pack.

#: Seconds between a node's heartbeats.
_HEARTBEAT_INTERVAL = 0.2
#: Consecutive missed intervals before a silent node is declared dead.
_HEARTBEAT_MISS_LIMIT = 10
#: Settled chunks required before the runtime quantile is trusted.
_SPECULATION_QUORUM = 3
#: A chunk is a straggler past ``factor × quantile`` seconds in flight...
_SPECULATION_FACTOR = 4.0
#: ...but never before this many seconds, whatever the quantile says.
_SPECULATION_MIN_SECONDS = 1.0
#: Which runtime quantile anchors the straggler threshold.
_SPECULATION_QUANTILE = 0.75
#: Charged respawns allowed across the run (``None``: one per node) —
#: enough to absorb one hard failure per node without letting a
#: deterministic crasher respawn forever.
_RESTART_BUDGET: Optional[int] = None


#: A job tuple as consumed by ``repro.core.parallel._join_chunk``.
_Job = Tuple[Any, ...]
#: Whatever the runner returns for a chunk; carried, never inspected.
_Result = Any
_Runner = Callable[[_Job], _Result]
#: Builds the job for a chunk id: ``jobs(chunk_id)`` on a node, and
#: ``jobs(chunk_id, local=True)`` for the in-process fallback.
_JobFactory = Any


def start_report(
    chunk_sizes: Sequence[int],
    workers: int,
    plan: Optional[FaultPlan],
    completed: Dict[int, _Result],
) -> JoinReport:
    """A fresh report whose ``completed`` chunks are already settled.

    Chunks resumed from a checkpoint get a synthetic ``resumed`` attempt,
    so the report's trail shows where their result came from.
    """
    report = JoinReport(
        chunks=[ChunkReport(chunk=i, size=size) for i, size in enumerate(chunk_sizes)],
        workers=workers,
        fault_plan=plan.describe() if plan is not None else None,
        resumed_chunks=sorted(completed),
    )
    for chunk_id in completed:
        report.chunks[chunk_id].attempts.append(
            AttemptRecord(number=0, mode="checkpoint", outcome="resumed", duration=0.0)
        )
    return report


def check_abort(
    cancel: Optional[CancelToken],
    deadline_mark: Optional[float],
    settled: int,
    total: int,
) -> None:
    """Raise the matching abort error once a cancel or the deadline lands.

    Raised inside the coordinator's loop, the error routes through
    ``run``'s ``finally``, so in-flight nodes are killed and their pipes
    closed before it reaches the caller — no orphaned processes.
    """
    if cancel is not None and cancel.cancelled:
        active_or_null().inc("supervisor.cancellations")
        raise JoinCancelledError(cancel.reason or "cancelled", settled, total)
    if deadline_mark is not None and time.monotonic() >= deadline_mark:
        active_or_null().inc("supervisor.deadline_aborts")
        raise DeadlineExceededError("overall deadline exceeded", settled, total)


def _node_main(
    conn: Connection,
    node_id: int,
    incarnation: int,
    jobs: _JobFactory,
    runner: _Runner,
    plan: Optional[FaultPlan],
    heartbeat_interval: float,
) -> None:
    """Node entry: serve jobs until stopped.

    ``conn`` is shared between the job loop and the heartbeat thread, so
    every send goes through one lock.
    Each job announces ``("run", chunk, attempt)`` once the node starts the
    attempt, then ends in exactly one ``("done", chunk, attempt, result)``
    or ``("err", chunk, attempt, type, text)`` — or, for a crash, in no
    message at all (the coordinator reads EOF and the exit
    code). Fault rules fire here, so an injected crash takes down a real
    process the same way a segfault would.

    Orphan detection cannot rely on pipe EOF alone: under the fork start
    method every later-spawned node inherits a copy of the coordinator-side
    pipe ends, so a hard-killed coordinator leaves the pipe technically
    open. The job loop therefore also waits on the parent's sentinel and
    exits as soon as the coordinator is gone with nothing left buffered.
    """
    stop_beats = threading.Event()
    beats_enabled = threading.Event()
    beats_enabled.set()
    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            conn.send(message)

    def beat() -> None:
        while not stop_beats.wait(heartbeat_interval):
            if beats_enabled.is_set():
                try:
                    send(("hb",))
                except OSError:
                    return

    threading.Thread(target=beat, daemon=True).start()
    parent = multiprocessing.parent_process()
    handles: List[Any] = [conn] if parent is None else [conn, parent.sentinel]
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
            __, chunk_id, attempt = message
            rule = (
                plan.rule_for_shard(node_id, incarnation, chunk_id)
                if plan is not None
                else None
            )
            if rule is not None:
                if rule.action == "kill":
                    os._exit(CRASH_EXIT_CODE)
                elif rule.action == "hang":
                    # A wedged node: heartbeats stop too, so only the
                    # coordinator's miss detection can catch it.
                    beats_enabled.clear()
                    time.sleep(rule.arg if rule.arg is not None else DEFAULT_HANG_SECONDS)
                    beats_enabled.set()
                else:  # "slow" — a straggler that still heartbeats
                    time.sleep(rule.arg if rule.arg is not None else DEFAULT_SLOW_SECONDS)
            send(("run", chunk_id, attempt))
            try:
                if plan is not None:
                    plan.fire_worker_start(chunk_id, attempt)
                reply = ("done", chunk_id, attempt, runner(jobs(chunk_id)))
            except BaseException as exc:  # noqa: B036 - forwarded, not swallowed
                reply = ("err", chunk_id, attempt, type(exc).__name__, str(exc))
            send(reply)
    except OSError:
        return  # the coordinator's end is gone
    finally:
        stop_beats.set()


class _Assignment:
    """One dispatch of one chunk to one node incarnation."""

    __slots__ = ("chunk_id", "attempt", "mode", "node_id", "started",
                 "speculative", "running", "deadline", "superseded")

    def __init__(
        self,
        chunk_id: int,
        attempt: int,
        mode: str,
        node_id: Optional[int],
        started: float,
        speculative: bool,
    ) -> None:
        self.chunk_id = chunk_id
        self.attempt = attempt
        self.mode = mode
        self.node_id = node_id
        self.started = started
        self.speculative = speculative
        #: Set when the node announces the attempt; a death after that is
        #: the attempt's failure, not the node's own.
        self.running = False
        self.deadline: Optional[float] = None
        self.superseded = False


class _ChunkState:
    """Coordinator-side lifecycle of one chunk across nodes and attempts."""

    __slots__ = ("chunk_id", "attempts", "ready_at", "inflight",
                 "speculated", "last_error", "last_outcome")

    def __init__(self, chunk_id: int) -> None:
        self.chunk_id = chunk_id
        self.attempts = 0
        self.ready_at = 0.0
        self.inflight: List[_Assignment] = []
        self.speculated = False
        self.last_error = ""
        self.last_outcome = ""


class _Node:
    """Parent-side handle of one node id across its incarnations."""

    __slots__ = ("node_id", "process", "conn", "incarnation", "last_beat",
                 "busy", "alive", "respawn_at", "charged", "report")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.process: Optional[multiprocessing.Process] = None
        self.conn: Optional[Connection] = None
        self.incarnation = 0
        self.last_beat = 0.0
        self.busy: Optional[_Assignment] = None
        self.alive = False
        #: When a dead node may be replaced (``None``: never).
        self.respawn_at: Optional[float] = None
        #: Whether that replacement spends the restart budget.
        self.charged = False
        self.report = ShardReport(shard=node_id, incarnations=0)


class Coordinator:
    """Dispatch chunk joins to supervised, long-lived nodes.

    Parameters
    ----------
    jobs:
        Factory producing the job tuple for a chunk id. It reaches each
        node once, at fork; a job message then carries only the chunk id
        and attempt. Called in the parent, with ``local=True``, for the
        ``local`` fallback.
    runner:
        The chunk-join function run on a node (and in-process for the
        ``local`` fallback).
    chunk_sizes:
        Records per chunk (chunk ids ``0..len-1``), for the report.
    primary_mode:
        The mode every node attempt records: ``"pickle"`` (the parent's
        index) or ``"none"`` (no index).
    nodes:
        Maximum concurrently live nodes.
    retries:
        Re-dispatches allowed per chunk after its first failure.
    task_timeout:
        Per-attempt deadline in seconds, counted from the node starting
        the attempt (``None`` disables it).
    backoff / backoff_cap:
        Base and cap of the exponential retry (and respawn) delay.
    fallback:
        When ``True`` (default) an exhausted chunk runs in-process on the
        python backend; when ``False`` it raises.
    plan:
        Optional :class:`~repro.faults.FaultPlan` shipped to nodes.
    on_result:
        Called as ``on_result(chunk_id, attempt, result)`` the moment a
        chunk settles. The durable-run layer wires this to
        ``RunLog.record_columns`` so results stream to disk as they arrive.
    cancel:
        Optional :class:`~repro.core.runlog.CancelToken`; once cancelled,
        in-flight nodes are killed and
        :class:`~repro.errors.JoinCancelledError` is raised.
    deadline_mark:
        Absolute ``time.monotonic()`` instant after which the run aborts
        with :class:`~repro.errors.DeadlineExceededError`.
    completed:
        Chunk results already known (resumed from a checkpoint): recorded
        as ``resumed`` attempts and never dispatched.
    """

    def __init__(
        self,
        jobs: _JobFactory,
        runner: _Runner,
        chunk_sizes: Sequence[int],
        primary_mode: str,
        nodes: int,
        retries: int = 2,
        task_timeout: Optional[float] = None,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        fallback: bool = True,
        plan: Optional[FaultPlan] = None,
        on_result: Optional[Callable[[int, int, _Result], None]] = None,
        cancel: Optional[CancelToken] = None,
        deadline_mark: Optional[float] = None,
        completed: Optional[Dict[int, _Result]] = None,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise InvalidParameterError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        if backoff < 0:
            raise InvalidParameterError(f"backoff must be >= 0, got {backoff}")
        self._jobs = jobs
        self._runner = runner
        self._retries = retries
        self._task_timeout = task_timeout
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._fallback = fallback
        self._plan = plan
        self._on_result = on_result
        self._cancel = cancel
        self._deadline_mark = deadline_mark
        self._mode = primary_mode
        # Captured once: supervision events are rare (per attempt, not per
        # probe), so the null-registry indirection costs nothing measurable.
        self._metrics = active_or_null()
        self._mp = multiprocessing.get_context()
        completed = completed or {}
        self.report = start_report(chunk_sizes, nodes, plan, completed)
        self._results: Dict[int, _Result] = dict(completed)
        self._states = [_ChunkState(i) for i in range(len(chunk_sizes))]
        self._pending = [s for s in self._states if s.chunk_id not in self._results]
        self._nodes = [_Node(i) for i in range(min(nodes, len(self._pending)))]
        self._durations: List[float] = []
        budget = _RESTART_BUDGET
        self._restarts_left = budget if budget is not None else len(self._nodes)

    # -- public entry ------------------------------------------------------

    def run(self) -> Dict[int, _Result]:
        """Drive every chunk to settlement; returns results by chunk id.

        Raises only when a chunk cannot be completed at all: fallback
        disabled, or the in-process fallback itself failing (a
        deterministic error such as a bad keyword argument reproduces
        in-process and propagates as itself).
        """
        start = time.perf_counter()
        try:
            with trace_span("parallel.supervise"):
                for node in self._nodes:
                    self._spawn(node)
                self._loop()
        finally:
            self._shutdown()
            self.report.shards = [node.report for node in self._nodes]
            self.report.elapsed_seconds += time.perf_counter() - start
        return self._results

    # -- the event loop ----------------------------------------------------

    def _done(self) -> bool:
        return len(self._results) == len(self._states)

    def _loop(self) -> None:
        while not self._done():
            check_abort(
                self._cancel, self._deadline_mark, len(self._results), len(self._states)
            )
            now = time.monotonic()
            # Drain before judging liveness: heartbeats that queued while
            # the coordinator was busy (a spill, an in-process fallback)
            # must count before a node is declared silent.
            for node in self._nodes:
                if node.alive:
                    self._drain_node(node, now)
            self._detect_dead(now)
            self._respawn_ready(now)
            self._dispatch_ready(now)
            self._maybe_speculate(now)
            if self._done():
                return
            handles: List[Any] = []
            for node in self._nodes:
                if node.alive and node.conn is not None and node.process is not None:
                    handles.extend((node.conn, node.process.sentinel))
            if handles:
                if self._cancel is not None:
                    handles.append(self._cancel)
                wait(handles, timeout=self._next_wakeup(now))
                continue
            respawns = [n.respawn_at for n in self._nodes if n.respawn_at is not None]
            if not respawns:
                # Out of nodes and out of restart budget: finish in-process.
                self._drain_remaining()
                return
            interruptible_wait(
                max(0.0, min(respawns) - now), self._cancel, self._deadline_mark
            )

    def _next_wakeup(self, now: float) -> Optional[float]:
        window = _HEARTBEAT_INTERVAL * _HEARTBEAT_MISS_LIMIT
        marks: List[float] = []
        for node in self._nodes:
            if node.alive:
                marks.append(node.last_beat + window)
                if node.busy is not None and node.busy.deadline is not None:
                    marks.append(node.busy.deadline)
            elif node.respawn_at is not None:
                marks.append(node.respawn_at)
        threshold = self._speculation_threshold()
        if threshold is not None:
            marks.extend(
                a.started + threshold for a in self._speculation_candidates()
            )
        if any(node.alive and node.busy is None for node in self._nodes):
            marks.extend(s.ready_at for s in self._pending if s.ready_at > now)
        if self._deadline_mark is not None:
            marks.append(self._deadline_mark)
        if not marks:
            return None
        return max(0.0, min(marks) - now)

    # -- node lifecycle ----------------------------------------------------

    def _spawn(self, node: _Node) -> None:
        node.incarnation += 1
        node.report.incarnations += 1
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_node_main,
            args=(
                child_conn,
                node.node_id,
                node.incarnation,
                self._jobs,
                self._runner,
                self._plan,
                _HEARTBEAT_INTERVAL,
            ),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end: a dead node then turns
        # into EOF on our end instead of a silent stall.
        child_conn.close()
        node.process = process
        node.conn = parent_conn
        node.busy = None
        node.alive = True
        node.respawn_at = None
        node.last_beat = time.monotonic()

    def _kill(self, process: multiprocessing.Process) -> None:
        process.terminate()
        process.join(_KILL_GRACE)
        if process.is_alive():  # pragma: no cover - SIGTERM normally lands
            process.kill()
            process.join(_KILL_GRACE)

    def _detect_dead(self, now: float) -> None:
        window = _HEARTBEAT_INTERVAL * _HEARTBEAT_MISS_LIMIT
        for node in self._nodes:
            if not node.alive or node.process is None:
                continue
            busy = node.busy
            if not node.process.is_alive():
                self._on_death(node, now)
            elif now - node.last_beat > window:
                self._metrics.inc("shard.heartbeat_misses")
                node.report.heartbeat_misses += 1
                self._on_death(
                    node,
                    now,
                    f"node {node.node_id} missed {_HEARTBEAT_MISS_LIMIT} "
                    "heartbeats (hang suspected)",
                )
            elif busy is not None and busy.deadline is not None and now >= busy.deadline:
                self._on_death(
                    node,
                    now,
                    f"node {node.node_id} exceeded "
                    f"task_timeout={self._task_timeout}s",
                    outcome="timeout",
                )

    def _on_death(
        self,
        node: _Node,
        now: float,
        cause: Optional[str] = None,
        outcome: str = "crash",
    ) -> None:
        """A node is gone (or put down): settle, record, plan a replacement.

        ``cause=None`` means it died by itself: it is reaped for its exit
        code. Otherwise the coordinator kills it for ``cause``.
        """
        if not node.alive or node.process is None:
            return
        # Results sent just before death are still in the pipe; settling
        # them beats re-executing their chunks. Marked dead first, so the
        # drain's own EOF does not report the death a second time.
        node.alive = False
        self._drain_node(node, now)
        process = node.process
        if cause is None:
            process.join(_KILL_GRACE)
        if process.is_alive():
            self._kill(process)
        if cause is None:
            cause = f"node {node.node_id} died (exit code {process.exitcode})"
        if node.conn is not None:
            node.conn.close()
            node.conn = None
        assignment, node.busy = node.busy, None
        node.report.deaths += 1
        node.report.last_error = cause
        node.charged = assignment is None or not assignment.running
        if not node.charged:
            node.respawn_at = now
        elif self._restarts_left > 0:
            node.respawn_at = now + min(
                self._backoff * (2 ** (node.report.deaths - 1)), self._backoff_cap
            )
        if (
            assignment is None
            or assignment.superseded
            or assignment.chunk_id in self._results
        ):
            return
        state = self._states[assignment.chunk_id]
        state.inflight.remove(assignment)
        self._record(assignment, outcome, now - assignment.started, cause)
        self._chunk_failed(state, outcome, cause, now)

    def _respawn_ready(self, now: float) -> None:
        for node in self._nodes:
            if self._done():
                return
            if node.alive or node.respawn_at is None or now < node.respawn_at:
                continue
            if node.charged:
                if self._restarts_left == 0:
                    node.respawn_at = None
                    continue
                self._restarts_left -= 1
                self._metrics.inc("shard.restarts")
                self.report.shard_restarts += 1
                self._degrade(
                    f"node {node.node_id} died ({node.report.last_error}); "
                    f"respawned as incarnation {node.incarnation + 1} "
                    f"({self._restarts_left} restart(s) left)"
                )
            self._spawn(node)

    # -- dispatch ----------------------------------------------------------

    def _idle_nodes(self) -> List[_Node]:
        return [n for n in self._nodes if n.alive and n.busy is None]

    def _dispatch(
        self, state: _ChunkState, node: _Node, now: float, speculative: bool
    ) -> None:
        state.attempts += 1
        assignment = _Assignment(
            state.chunk_id, state.attempts, self._mode, node.node_id, now, speculative
        )
        self._metrics.inc("shard.assigned")
        if speculative:
            state.speculated = True
            self._metrics.inc("shard.speculated")
            self.report.speculated_chunks.append(state.chunk_id)
        state.inflight.append(assignment)
        node.busy = assignment
        try:
            if node.conn is None:
                raise BrokenPipeError("node connection closed")
            node.conn.send(("job", state.chunk_id, state.attempts))
        except (OSError, ValueError):
            # The node died between our liveness check and the send; the
            # death handler requeues this very assignment.
            self._on_death(
                node, now, f"node {node.node_id} pipe closed at dispatch"
            )

    def _dispatch_ready(self, now: float) -> None:
        ready = [s for s in self._pending if s.ready_at <= now]
        for state, node in zip(ready, self._idle_nodes()):
            self._pending.remove(state)
            self._dispatch(state, node, now, speculative=False)

    def _speculation_candidates(self) -> List[_Assignment]:
        """Lone in-flight attempts that speculation may duplicate.

        An attempt under a ``task_timeout`` deadline is left to it: the
        deadline already decides its fate.
        """
        return [
            s.inflight[0]
            for s in self._states
            if not s.speculated
            and len(s.inflight) == 1
            and s.inflight[0].deadline is None
        ]

    def _maybe_speculate(self, now: float) -> None:
        threshold = self._speculation_threshold()
        if threshold is None:
            return
        for straggler in self._speculation_candidates():
            if now - straggler.started < threshold:
                continue
            idle = self._idle_nodes()
            if not idle:
                return
            self._dispatch(self._states[straggler.chunk_id], idle[0], now, speculative=True)

    def _speculation_threshold(self) -> Optional[float]:
        """Seconds in flight that make an attempt a straggler."""
        if len(self._durations) < _SPECULATION_QUORUM:
            return None
        ordered = sorted(self._durations)
        rank = min(len(ordered) - 1, int(_SPECULATION_QUANTILE * len(ordered)))
        return max(_SPECULATION_MIN_SECONDS, _SPECULATION_FACTOR * ordered[rank])

    # -- settlement --------------------------------------------------------

    def _record(
        self,
        assignment: _Assignment,
        outcome: str,
        duration: float,
        error: Optional[str] = None,
    ) -> None:
        self._metrics.inc("supervisor.attempts")
        counter = _OUTCOME_COUNTERS.get(outcome)
        if counter is not None:
            self._metrics.inc(counter)
        self.report.chunks[assignment.chunk_id].attempts.append(
            AttemptRecord(
                number=assignment.attempt,
                mode=assignment.mode,
                outcome=outcome,
                duration=duration,
                error=error,
                shard=assignment.node_id,
            )
        )

    def _settle(
        self, node: _Node, assignment: _Assignment, result: _Result, now: float
    ) -> None:
        state = self._states[assignment.chunk_id]
        duration = now - assignment.started
        self._durations.append(duration)
        # First settle wins. Losing twins are superseded *now*, before the
        # winner's record, so the chunk trail ends on its single "ok" and
        # a late duplicate result is recognisably stale when it arrives.
        for other in state.inflight:
            if other is not assignment:
                other.superseded = True
                self._record(
                    other, "superseded", now - other.started,
                    "lost the first-settle-wins race",
                )
        state.inflight = []
        self._record(assignment, "ok", duration)
        self._results[state.chunk_id] = result
        node.report.settled.append(state.chunk_id)
        self._metrics.inc("shard.settled")
        if assignment.speculative:
            self._metrics.inc("shard.speculation_wins")
            self.report.speculation_wins.append(state.chunk_id)
        if self._on_result is not None:
            self._on_result(state.chunk_id, assignment.attempt, result)

    def _chunk_failed(
        self, state: _ChunkState, outcome: str, error: str, now: float
    ) -> None:
        state.last_outcome = outcome
        state.last_error = error
        if state.inflight:
            # A twin dispatch is still running; it may yet settle the chunk.
            return
        if state.attempts <= self._retries:
            self._metrics.inc("supervisor.retries")
            state.ready_at = now + min(
                self._backoff * (2 ** (state.attempts - 1)), self._backoff_cap
            )
            self._pending.append(state)
        else:
            self._fallback_chunk(state)

    def _fallback_chunk(self, state: _ChunkState) -> None:
        if not self._fallback:
            exc_cls = (
                JoinTimeoutError if state.last_outcome == "timeout" else WorkerFailedError
            )
            raise exc_cls(state.chunk_id, state.attempts, state.last_error)
        self._degrade(
            f"chunk {state.chunk_id}: {state.attempts} node attempt(s) "
            f"failed ({state.last_error}); falling back to in-process python "
            "execution"
        )
        self._metrics.inc("supervisor.fallbacks")
        state.attempts += 1
        local = _Assignment(
            state.chunk_id, state.attempts, "local", None, time.monotonic(), False
        )
        try:
            result = self._runner(self._jobs(state.chunk_id, local=True))
        except BaseException:
            self._record(
                local, "error", time.monotonic() - local.started, state.last_error
            )
            raise
        self._record(local, "ok", time.monotonic() - local.started)
        self._results[state.chunk_id] = result
        if self._on_result is not None:
            self._on_result(state.chunk_id, state.attempts, result)

    def _drain_remaining(self) -> None:
        """Every node is gone for good: finish the leftovers in-process."""
        self._pending = []
        for state in self._states:
            if state.chunk_id in self._results:
                continue
            if not state.last_error:
                state.last_error = "no live nodes remain"
            state.inflight = []
            self._fallback_chunk(state)

    def _degrade(self, note: str) -> None:
        self._metrics.inc("supervisor.degradations")
        self.report.degradations.append(note)
        warnings.warn(note, DegradedExecutionWarning, stacklevel=2)

    # -- message pump ------------------------------------------------------

    def _drain_node(self, node: _Node, now: float) -> None:
        while node.conn is not None:
            try:
                if not node.conn.poll(0):
                    return
                message = node.conn.recv()
            except (EOFError, OSError):
                self._on_death(node, now)
                return
            node.last_beat = now
            kind, assignment = message[0], node.busy
            if (
                kind == "hb"
                or assignment is None
                or message[1:3] != (assignment.chunk_id, assignment.attempt)
            ):
                continue
            if kind == "run":
                assignment.running = True
                if self._task_timeout is not None:
                    assignment.deadline = time.monotonic() + self._task_timeout
                continue
            node.busy = None
            if assignment.superseded or assignment.chunk_id in self._results:
                # The stale twin finally reported; its result is discarded
                # (dedup by chunk id) and the node goes back to the pool.
                continue
            if kind == "done":
                self._settle(node, assignment, message[3], now)
                continue
            type_name, text = message[3:]
            error = f"{type_name}: {text}"
            state = self._states[assignment.chunk_id]
            state.inflight.remove(assignment)
            self._record(assignment, "error", now - assignment.started, error)
            self._chunk_failed(state, "error", error, now)

    # -- teardown ----------------------------------------------------------

    def _shutdown(self) -> None:
        """No node, pipe, or in-flight duplicate may outlive the join."""
        for node in self._nodes:
            if node.conn is not None and node.busy is None:
                # Idle nodes get a polite stop; busy ones (stale twins,
                # hung attempts) would not read it, so they are killed.
                with contextlib.suppress(OSError):
                    node.conn.send(("stop",))
        for node in self._nodes:
            if node.process is not None and node.process.is_alive():
                if node.busy is None:
                    node.process.join(_KILL_GRACE)
                if node.process.is_alive():
                    self._kill(node.process)
            if node.conn is not None:
                node.conn.close()
                node.conn = None
            # Release the handle now, not when the coordinator is dropped:
            # its finalizer allocates, and after the caller's pair merge
            # (built with the collector paused) the first allocation pays
            # for collecting every new pair tuple.
            node.process = None
            node.alive = False
