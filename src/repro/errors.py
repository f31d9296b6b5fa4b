"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle anything the
library signals while letting genuine bugs (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DatasetError",
    "InvalidParameterError",
    "UnknownMethodError",
    "InvariantViolation",
    "WorkerFailedError",
    "JoinTimeoutError",
    "CheckpointError",
    "ResumeMismatchError",
    "JoinAbortedError",
    "JoinCancelledError",
    "DeadlineExceededError",
    "DegradedExecutionWarning",
    "ServeError",
    "ServeProtocolError",
    "ServeConnectionError",
    "ServeReadOnlyError",
    "AdmissionRejectedError",
    "RequestDeadlineError",
    "WalError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DatasetError(ReproError):
    """A dataset file or in-memory collection is malformed."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm or generator parameter is out of its valid range."""


class InvariantViolation(ReproError, AssertionError):
    """A ``REPRO_CHECK=1`` runtime sanitizer assert failed.

    Derives from :class:`AssertionError` because these are debug asserts —
    they indicate a bug in the library (or a caller mutating frozen index
    storage), never a recoverable user input condition.
    """


class WorkerFailedError(ReproError, RuntimeError):
    """A parallel-join chunk failed on every attempt and fallback was off.

    Raised by :mod:`repro.core.supervisor` only when graceful degradation is
    disabled (``fallback=False``); with the default policy an exhausted
    chunk re-runs in-process instead of raising.
    """

    def __init__(self, chunk: int, attempts: int, last_error: str) -> None:
        self.chunk = chunk
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"chunk {chunk} failed after {attempts} attempt(s): {last_error}"
        )


class JoinTimeoutError(WorkerFailedError):
    """A chunk's worker exceeded ``task_timeout`` on its final attempt.

    Subclasses :class:`WorkerFailedError` so one ``except`` handles both;
    the distinct type exists because a hang usually points at a different
    root cause (lock, I/O stall) than a crash.
    """


class CheckpointError(ReproError):
    """A checkpoint directory is missing, corrupt, or unusable.

    Raised by :mod:`repro.core.runlog` when a run manifest cannot be read
    or written, or when a fresh run is pointed at a directory that already
    holds another run's manifest (pass ``resume=True`` to continue it, or
    clear the directory).
    """


class ResumeMismatchError(CheckpointError):
    """``resume=True`` was refused: the manifest describes a different run.

    The dataset fingerprints or join parameters recorded in the write-ahead
    manifest do not match the current call, so the spilled chunk results
    cannot be trusted to belong to this join. The message names every
    mismatched field. A distinct type so callers can tell "wrong inputs"
    apart from "corrupt checkpoint" (:class:`CheckpointError`).
    """


class JoinAbortedError(ReproError, RuntimeError):
    """A supervised join stopped before all chunks settled.

    Base class for cooperative-cancellation and deadline aborts. When a
    checkpoint directory is armed, every chunk settled before the abort has
    already been spilled durably and the ABORTED marker is written, so a
    subsequent ``resume=True`` run dispatches only the remainder.
    """

    def __init__(self, reason: str, completed: int, total: int) -> None:
        self.reason = reason
        self.completed = completed
        self.total = total
        super().__init__(
            f"join aborted ({reason}): {completed}/{total} chunk(s) settled"
        )


class JoinCancelledError(JoinAbortedError):
    """The join was cancelled cooperatively (SIGINT/SIGTERM or a token)."""


class DeadlineExceededError(JoinAbortedError):
    """The join exceeded its overall ``deadline=`` wall-clock budget."""


class DegradedExecutionWarning(UserWarning):
    """A parallel join completed, but not on the fast path it started on.

    Emitted (via :mod:`warnings`) whenever a run leaves its planned path —
    a chunk falls back from its worker node to in-process execution, a
    dead node is respawned, memory admission splits chunks or caps
    concurrency, or checkpointing turns off — so callers notice that
    results were computed correctly but more slowly.
    Not a :class:`ReproError`: the join still returned the exact pair set.
    """


class ServeError(ReproError):
    """The resident join server failed to start, bind, or tear down.

    Wraps the ``OSError`` family at the serve boundary so the CLI's
    exception contract (RL801: everything crossing ``cli.main`` is an
    :mod:`repro.errors` type) holds for socket failures too.
    """


class ServeProtocolError(ServeError):
    """A client request violated the line-delimited JSON protocol.

    Answered over the wire as an ``error_kind: "bad_request"`` response;
    only malformed *transport* (unparseable framing on a stream that can
    no longer be trusted) tears the connection down.
    """


class AdmissionRejectedError(ServeError):
    """A write was refused by the server's memory-budget admission control.

    The request was well-formed; the server declined it because accepting
    the bytes would push the resident footprint past ``--memory-budget``.
    Mapped to ``error_kind: "admission_rejected"`` — clients may retry
    after deletes or a compaction shrink the footprint.
    """


class ServeConnectionError(ServeError):
    """The client's transport to the server failed (connect, send, read).

    A *transport* failure, distinct from a server-sent error response: the
    request may or may not have been applied. :class:`ServeClient` retries
    these — with capped backoff, and only for idempotent ops — when
    ``retries=`` is enabled; everything else fails fast.
    """


class ServeReadOnlyError(ServeError):
    """A mutating op was sent to a server that cannot accept writes.

    Raised by a warm-standby replica (writes go to the primary until the
    replica is promoted). Mapped to ``error_kind: "read_only"``.
    """


class WalError(ServeError):
    """The serve write-ahead log could not append, sync, or replay.

    Covers an append or fsync failure (after which the server degrades to
    read-only: an op whose log record is not durable must never be
    acknowledged), a replay divergence (a checksummed record re-applied to
    the recovered state produced a different result), and a generation
    fence refusal during replication. Mapped to ``error_kind:
    "wal_error"``.
    """


class RequestDeadlineError(ServeError):
    """A request's deadline expired before or while it was being served.

    Mirrors :class:`DeadlineExceededError` at request granularity: the
    batch-query loop polls the deadline between records and abandons the
    remainder. Mapped to ``error_kind: "deadline_exceeded"``.
    """


class UnknownMethodError(ReproError, KeyError):
    """The requested join method name is not registered."""

    def __init__(self, name: str, known: tuple) -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown join method {name!r}; known methods: {', '.join(self.known)}"
        )
