"""Supervised task execution for the multiprocess join driver.

:func:`repro.core.parallel.parallel_join` decomposes ``R ⋈⊆ S`` into
independent chunk joins (``∪ᵢ Rᵢ ⋈⊆ S``), which makes every chunk
*re-executable*: a worker that crashes, hangs, or raises can simply be run
again without affecting any other chunk's result. This module is the layer
that exploits that property. The bare ``multiprocessing.Pool`` it replaces
had no failure model at all — a dead worker stalled ``map`` forever and a
hung one poisoned the whole join.

Each chunk becomes a tracked task with a lifecycle::

    pending -> running -> ok
                 |-> error / crash / timeout -> backoff -> running (retry)
                                   |-> (retries exhausted) -> local fallback

* **Detection.** Workers report through a one-way pipe; the supervisor
  waits on the pipes, so a normal result, a raised exception, and a silent
  death (EOF without a message, exit code captured) are all distinguished.
  A ``task_timeout`` deadline catches hangs: the worker is terminated
  (then killed) and the attempt is recorded as a timeout.
* **Retry.** Failed attempts are re-dispatched with capped exponential
  backoff (``backoff * 2**(attempt-1)``, capped at ``backoff_cap``). Every
  attempt is recorded in the :class:`~repro.core.results.JoinReport`.
* **Degradation.** Failures classified as shared-memory attach errors
  (:class:`~repro.errors.ShmAttachError`) downgrade that chunk's payload
  from ``shm`` to ``pickle``; after ``SHM_FAILURE_THRESHOLD`` such failures
  the *whole run* downgrades — a segment that will not map twice will not
  map ten times, so retries stop burning on it. A chunk that exhausts its
  retries falls back to **in-process execution on the pure-python
  backend** — strictly slower, but correct and isolated from whatever
  killed the workers. Both downgrades emit
  :class:`~repro.errors.DegradedExecutionWarning` and are recorded in the
  report. With ``fallback=False`` the exhausted chunk raises
  :class:`~repro.errors.WorkerFailedError` (or its subclass
  :class:`~repro.errors.JoinTimeoutError` for a final timeout) instead.

Fault injection (:mod:`repro.faults`) hooks into exactly two points of the
worker entry — before the chunk join starts and before a shared-memory
payload resolves — so the chaos suite can script crashes, hangs, raises,
and attach failures per ``(chunk, attempt)`` deterministically.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
    JoinTimeoutError,
    ShmAttachError,
    WorkerFailedError,
)
from ..faults import FaultPlan
from ..obs.registry import active_or_null
from ..obs.spans import trace_span
from .results import AttemptRecord, ChunkReport, JoinReport
from .runlog import CancelToken

__all__ = ["Supervisor", "SHM_FAILURE_THRESHOLD", "interruptible_wait"]

#: Attempt-outcome label -> counter name (see repro.obs.catalogue).
_OUTCOME_COUNTERS = {
    "ok": "supervisor.ok",
    "error": "supervisor.errors",
    "crash": "supervisor.crashes",
    "timeout": "supervisor.timeouts",
}

#: Attach-classified failures tolerated before the whole run stops using
#: shared memory. Two distinct failures rule out a one-off racy unlink.
SHM_FAILURE_THRESHOLD = 2

#: Grace period between SIGTERM and SIGKILL for a worker past its deadline,
#: and the join() allowance for a worker that already sent its result.
_KILL_GRACE = 1.0

def interruptible_wait(
    timeout: float,
    cancel: Optional[CancelToken] = None,
    deadline_mark: Optional[float] = None,
    extra: Tuple[Any, ...] = (),
) -> None:
    """Sleep up to ``timeout`` seconds, waking early on any abort signal.

    A capped-backoff delay must never outlive the reasons to keep waiting:
    a cancellation (SIGINT/SIGTERM routed into the :class:`CancelToken`),
    the run's absolute deadline, or any handle in ``extra`` becoming ready
    (the shard coordinator passes live process sentinels here, so a shard
    dying mid-backoff reschedules its work immediately). Anything with a
    ``fileno()`` — tokens, pipe connections, raw sentinel fds — is a valid
    ``extra`` entry. Falls back to a plain bounded sleep when there is
    nothing to watch.
    """
    if deadline_mark is not None:
        timeout = min(timeout, max(0.0, deadline_mark - time.monotonic()))
    if timeout <= 0:
        return
    handles: List[Any] = list(extra)
    if cancel is not None:
        handles.append(cancel)
    if handles:
        wait(handles, timeout=timeout)
    else:
        time.sleep(timeout)


#: A job tuple as consumed by ``repro.core.parallel._join_chunk``.
_Job = Tuple[Any, ...]
#: Whatever the runner returns for a chunk; carried, never inspected.
_Result = Any
_Runner = Callable[[_Job], _Result]
#: Builds the job for (chunk_id, mode); runs in the parent only.
_JobFactory = Callable[[int, str], _Job]


def _worker_main(
    conn: Connection,
    runner: _Runner,
    chunk_id: int,
    attempt: int,
    mode: str,
    plan: Optional[FaultPlan],
    job: _Job,
) -> None:
    """Worker-process entry: run one chunk attempt, report on the pipe.

    Every outcome funnels into exactly one message — ``("ok", pairs)`` or
    ``("err", type_name, text, is_attach_failure)`` — or, for a crash, no
    message at all (the parent reads EOF and the exit code). Fault rules
    fire here, in the worker, so an injected crash takes down a real
    process the same way a segfault would.
    """
    try:
        if plan is not None:
            plan.fire_worker_start(chunk_id, attempt)
            if mode == "shm":
                plan.fire_attach(chunk_id, attempt)
        result = runner(job)
    except BaseException as exc:  # noqa: B036 - forwarded, not swallowed
        try:
            conn.send(
                ("err", type(exc).__name__, str(exc), isinstance(exc, ShmAttachError))
            )
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    finally:
        conn.close()


@dataclass
class _Task:
    """Parent-side state of one chunk across its attempts."""

    chunk_id: int
    mode: str
    attempts: int = 0
    ready_at: float = 0.0
    last_error: str = ""
    last_outcome: str = ""


class _Attempt:
    """One in-flight worker process."""

    __slots__ = ("task", "process", "conn", "started", "deadline")

    def __init__(
        self,
        task: _Task,
        process: multiprocessing.Process,
        conn: Connection,
        started: float,
        deadline: Optional[float],
    ) -> None:
        self.task = task
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline


class Supervisor:
    """Dispatch chunk joins as supervised, retryable worker tasks.

    Parameters
    ----------
    num_chunks:
        How many chunk tasks to run (chunk ids ``0..num_chunks-1``).
    make_job:
        Parent-side factory producing the picklable job tuple for a chunk
        in a given payload mode (``"shm"``/``"fork"``/``"pickle"``/
        ``"none"``/``"local"``). Called again on downgrade, so the payload
        can differ per attempt.
    runner:
        The chunk-join function executed in the worker (and in-process for
        the ``local`` fallback).
    primary_mode:
        The payload mode first attempts use. Only ``"shm"`` participates in
        the attach-downgrade ladder.
    workers:
        Maximum concurrently running worker processes.
    retries:
        Re-dispatches allowed per chunk after its first failure.
    task_timeout:
        Per-attempt deadline in seconds (``None`` disables hang detection).
    backoff / backoff_cap:
        Base and cap of the exponential retry delay.
    fallback:
        When ``True`` (default) an exhausted chunk runs in-process on the
        python backend; when ``False`` it raises.
    plan:
        Optional :class:`~repro.faults.FaultPlan` shipped to workers.
    on_result:
        Called as ``on_result(chunk_id, attempt, result)`` the moment a
        chunk settles ok (worker or fallback). The durable-run layer wires
        this to ``RunLog.record_columns`` so results stream to disk as
        they arrive instead of at join end.
    cancel:
        Optional :class:`~repro.core.runlog.CancelToken`. Its read fd joins
        the dispatch loop's wait set; once cancelled the loop kills
        in-flight workers and raises
        :class:`~repro.errors.JoinCancelledError`.
    deadline_at:
        Absolute ``time.monotonic()`` instant after which the run aborts
        with :class:`~repro.errors.DeadlineExceededError`.
    completed:
        Chunk results already known (resumed from a checkpoint): seeded
        into the result map, recorded in the report as ``resumed``
        attempts, and never dispatched.
    """

    def __init__(
        self,
        num_chunks: int,
        make_job: _JobFactory,
        runner: _Runner,
        primary_mode: str,
        workers: int,
        retries: int = 2,
        task_timeout: Optional[float] = None,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        fallback: bool = True,
        plan: Optional[FaultPlan] = None,
        chunk_sizes: Optional[List[int]] = None,
        on_result: Optional[Callable[[int, int, _Result], None]] = None,
        cancel: Optional[CancelToken] = None,
        deadline_at: Optional[float] = None,
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
        self._make_job = make_job
        self._runner = runner
        self._workers = workers
        self._retries = retries
        self._task_timeout = task_timeout
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._fallback = fallback
        self._plan = plan
        self._on_result = on_result
        self._cancel = cancel
        self._deadline_at = deadline_at
        # Captured once: supervision events are rare (per attempt, not per
        # probe), so the null-registry indirection costs nothing measurable.
        self._metrics = active_or_null()
        self._mp = multiprocessing.get_context()
        self._tasks = [_Task(chunk_id=i, mode=primary_mode) for i in range(num_chunks)]
        self._running: List[_Attempt] = []
        self._results: Dict[int, _Result] = {}
        self._shm_failures = 0
        self._shm_disabled = primary_mode != "shm"
        sizes = chunk_sizes if chunk_sizes is not None else [0] * num_chunks
        self.report = JoinReport(
            chunks=[ChunkReport(chunk=i, size=sizes[i]) for i in range(num_chunks)],
            workers=workers,
            fault_plan=plan.describe() if plan is not None else None,
        )
        for chunk_id, pairs in (completed or {}).items():
            # Resumed chunks are settled before the loop starts: seeded into
            # the result map so dispatch skips them, with a synthetic
            # attempt record so the report's trail shows the provenance.
            self._results[chunk_id] = pairs
            self.report.chunks[chunk_id].attempts.append(
                AttemptRecord(
                    number=0, mode="checkpoint", outcome="resumed", duration=0.0
                )
            )
            self.report.resumed_chunks.append(chunk_id)
        self.report.resumed_chunks.sort()

    # -- public entry ------------------------------------------------------

    def run(self) -> Dict[int, _Result]:
        """Execute every chunk to completion; returns results by chunk id.

        Raises only when a chunk cannot be completed at all: fallback
        disabled, or the in-process fallback itself failing (a
        deterministic error such as a bad keyword argument reproduces
        in-process and propagates as itself).
        """
        start = time.perf_counter()
        try:
            with trace_span("parallel.supervise"):
                self._loop()
        finally:
            self._reap_stragglers()
            self.report.elapsed_seconds += time.perf_counter() - start
        return self._results

    # -- event loop --------------------------------------------------------

    def _check_abort(self) -> None:
        """Raise the matching abort error once a cancel/deadline lands.

        Raising from inside :meth:`_loop` routes through ``run``'s
        ``finally``, so in-flight workers are killed and their pipes closed
        before the error reaches the caller — "settle or kill" with no
        orphaned processes.
        """
        if self._cancel is not None and self._cancel.cancelled:
            self._metrics.inc("supervisor.cancellations")
            raise JoinCancelledError(
                self._cancel.reason or "cancelled",
                len(self._results),
                len(self._tasks),
            )
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            self._metrics.inc("supervisor.deadline_aborts")
            raise DeadlineExceededError(
                "overall deadline exceeded", len(self._results), len(self._tasks)
            )

    def _loop(self) -> None:
        pending = [t for t in self._tasks if t.chunk_id not in self._results]
        while pending or self._running:
            self._check_abort()
            now = time.monotonic()
            pending = self._launch_ready(pending, now)
            timeout = self._next_wakeup(pending, time.monotonic())
            handles: List[Any] = [a.conn for a in self._running]
            handles.extend(a.process.sentinel for a in self._running)
            if handles:
                if self._cancel is not None:
                    handles.append(self._cancel)
                wait(handles, timeout=timeout)
            elif timeout is not None:
                # Nothing in flight — everything pending sits in a capped
                # retry backoff. The wait must still abort the moment a
                # cancel or the deadline lands, not sleep the backoff out.
                interruptible_wait(timeout, self._cancel, self._deadline_at)
            self._check_abort()
            for attempt in list(self._running):
                outcome = self._poll(attempt)
                if outcome is None:
                    continue
                self._running.remove(attempt)
                retry = self._settle(attempt, outcome)
                if retry is not None:
                    pending.append(retry)

    def _launch_ready(self, pending: List[_Task], now: float) -> List[_Task]:
        still_pending: List[_Task] = []
        for task in pending:
            if len(self._running) >= self._workers or task.ready_at > now:
                still_pending.append(task)
                continue
            self._spawn(task)
        return still_pending

    def _next_wakeup(self, pending: List[_Task], now: float) -> Optional[float]:
        marks: List[float] = [
            a.deadline for a in self._running if a.deadline is not None
        ]
        if self._deadline_at is not None:
            marks.append(self._deadline_at)
        if len(self._running) < self._workers:
            marks.extend(t.ready_at for t in pending if t.ready_at > now)
        if not marks:
            return None
        return max(0.0, min(marks) - now)

    def _spawn(self, task: _Task) -> None:
        task.attempts += 1
        job = self._make_job(task.chunk_id, task.mode)
        recv_conn, send_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main,
            args=(
                send_conn,
                self._runner,
                task.chunk_id,
                task.attempts,
                task.mode,
                self._plan,
                job,
            ),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: the read end then hits
        # EOF the moment the worker dies, which is what turns a silent
        # crash into a prompt wakeup instead of a stall.
        send_conn.close()
        started = time.monotonic()
        deadline = (
            started + self._task_timeout if self._task_timeout is not None else None
        )
        self._running.append(_Attempt(task, process, recv_conn, started, deadline))

    # -- attempt completion ------------------------------------------------

    def _poll(self, attempt: _Attempt) -> Optional[Tuple[str, Any]]:
        """Classify a finished attempt, or ``None`` if still running.

        Returns ``("ok", pairs)``, ``("err", (type, text, attach_flag))``,
        ``("crash", exitcode)`` or ``("timeout", deadline_seconds)``.
        """
        if attempt.conn.poll():
            try:
                message = attempt.conn.recv()
            except (EOFError, OSError):
                message = None
            attempt.process.join(_KILL_GRACE)
            if message is not None and message[0] == "ok":
                return ("ok", message[1])
            if message is not None:
                return ("err", tuple(message[1:]))
            return ("crash", attempt.process.exitcode)
        if not attempt.process.is_alive():
            # Died without the pipe signalling (shouldn't happen with the
            # write end closed, but sentinels are the belt to that brace).
            attempt.process.join(_KILL_GRACE)
            return ("crash", attempt.process.exitcode)
        if attempt.deadline is not None and time.monotonic() >= attempt.deadline:
            self._kill(attempt.process)
            return ("timeout", self._task_timeout)
        return None

    def _kill(self, process: multiprocessing.Process) -> None:
        process.terminate()
        process.join(_KILL_GRACE)
        if process.is_alive():  # pragma: no cover - SIGTERM normally lands
            process.kill()
            process.join(_KILL_GRACE)

    def _settle(
        self, attempt: _Attempt, outcome: Tuple[str, Any]
    ) -> Optional[_Task]:
        """Record the attempt; return the task again if it must retry."""
        task = attempt.task
        kind, detail = outcome
        duration = time.monotonic() - attempt.started
        attempt.conn.close()
        if kind == "ok":
            self._record(task, "ok", duration)
            self._results[task.chunk_id] = detail
            if self._on_result is not None:
                self._on_result(task.chunk_id, task.attempts, detail)
            return None
        attach_failed = False
        if kind == "err":
            type_name, text, attach_failed = detail
            task.last_error = f"{type_name}: {text}"
        elif kind == "crash":
            task.last_error = f"worker died (exit code {detail})"
        else:
            task.last_error = f"worker exceeded task_timeout={detail}s"
        task.last_outcome = "error" if kind == "err" else kind
        # Record before any downgrade mutates task.mode: the report must
        # show the mode the attempt actually ran under.
        self._record(task, task.last_outcome, duration, task.last_error)
        if attach_failed:
            self._note_attach_failure(task)
        if task.attempts <= self._retries:
            self._metrics.inc("supervisor.retries")
            delay = min(
                self._backoff * (2 ** (task.attempts - 1)), self._backoff_cap
            )
            task.ready_at = time.monotonic() + delay
            if self._shm_disabled and task.mode == "shm":
                task.mode = "pickle"
            return task
        self._run_fallback(task)
        return None

    def _record(
        self, task: _Task, outcome: str, duration: float, error: Optional[str] = None
    ) -> None:
        self._metrics.inc("supervisor.attempts")
        self._metrics.inc(_OUTCOME_COUNTERS[outcome])
        self.report.chunks[task.chunk_id].attempts.append(
            AttemptRecord(
                number=task.attempts,
                mode=task.mode,
                outcome=outcome,
                duration=duration,
                error=error,
            )
        )

    # -- degradation ladder ------------------------------------------------

    def _note_attach_failure(self, task: _Task) -> None:
        self._shm_failures += 1
        if task.mode == "shm":
            self._degrade(
                f"chunk {task.chunk_id}: shm attach failed, payload "
                "downgraded to pickle"
            )
            task.mode = "pickle"
        if not self._shm_disabled and self._shm_failures >= SHM_FAILURE_THRESHOLD:
            self._shm_disabled = True
            self._degrade(
                f"{self._shm_failures} shm attach failures: run downgraded "
                "to the pickle payload path"
            )
            for other in self._tasks:
                if other.mode == "shm" and other.chunk_id not in self._results:
                    other.mode = "pickle"

    def _degrade(self, note: str) -> None:
        self._metrics.inc("supervisor.degradations")
        self.report.degradations.append(note)
        warnings.warn(note, DegradedExecutionWarning, stacklevel=2)

    def _run_fallback(self, task: _Task) -> None:
        if not self._fallback:
            exc_cls = (
                JoinTimeoutError if task.last_outcome == "timeout" else WorkerFailedError
            )
            raise exc_cls(task.chunk_id, task.attempts, task.last_error)
        self._degrade(
            f"chunk {task.chunk_id}: {task.attempts} worker attempt(s) failed "
            f"({task.last_error}); falling back to in-process python execution"
        )
        self._metrics.inc("supervisor.fallbacks")
        task.mode = "local"
        task.attempts += 1
        started = time.monotonic()
        try:
            result = self._runner(self._make_job(task.chunk_id, "local"))
        except BaseException:
            self._record(
                task, "error", time.monotonic() - started, task.last_error
            )
            raise
        self._record(task, "ok", time.monotonic() - started)
        self._results[task.chunk_id] = result
        if self._on_result is not None:
            self._on_result(task.chunk_id, task.attempts, result)

    # -- teardown ----------------------------------------------------------

    def _reap_stragglers(self) -> None:
        """Abort path: no worker process or pipe may outlive the join."""
        for attempt in self._running:
            if attempt.process.is_alive():
                self._kill(attempt.process)
            attempt.conn.close()
        self._running = []
