"""Durable join runs: write-ahead manifest, chunk spills, resume, cancel.

The supervisor (:mod:`repro.core.supervisor`) makes individual *workers*
survivable; this module makes the *run* survivable. A checkpoint directory
holds:

``MANIFEST.json``
    Written atomically **before** any chunk is dispatched (write-ahead): the
    run id, SHA-256 fingerprints of both input collections, the join
    parameters, and the chunk split. Resume refuses with
    :class:`~repro.errors.ResumeMismatchError` unless all of them match the
    resuming call — spilled pairs are only trusted for the exact join that
    produced them.

``chunk-NNNNN.pairs``
    One spill per settled chunk. Every spill is written through
    :func:`atomic_write_bytes` (write temp → ``fsync`` → ``os.replace`` →
    directory ``fsync``) and carries a header with the chunk id, the pair
    count, and a SHA-256 checksum of the payload, so a torn or tampered
    file is *detected and discarded* on resume rather than silently merged.
    Pairs are spilled with **global** record ids (the supervisor settles
    remapped results), so resumed chunks merge without further translation.
    Chunks settle as int64 ``(rids, sids)`` columns and are spilled and
    loaded in that form; the bytes are the same as for the pair list.

``segments.json``
    The shared-memory segment names of the in-flight run. If the driver is
    killed hard (SIGKILL, ``driverkill``), the segments leak in
    ``/dev/shm``; resume reclaims them before dispatching.

``COMPLETE`` / ``ABORTED``
    Terminal markers. ``ABORTED`` records the reason (cancellation,
    deadline, crash unwind); a resumed run clears it and, on success,
    writes ``COMPLETE``.

Alongside the log sits cooperative cancellation: a :class:`CancelToken`
(a flag plus a self-pipe so ``multiprocessing.connection.wait`` wakes
immediately) and :func:`signal_cancellation`, which routes SIGINT/SIGTERM
into the token for the duration of a run and restores the previous
handlers afterwards.

Fault injection: ``RunLog.record_columns`` consults the run's
:class:`~repro.faults.FaultPlan` for driver-stage actions — see the
grammar in :mod:`repro.faults` (``driverkill``/``diskfull``/``torn``).

All checkpoint writes must go through :func:`atomic_write_bytes`; the
repro-lint check **RL601** rejects any other write call in this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import threading
import time
import warnings
from dataclasses import asdict, dataclass
from types import FrameType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.collection import SetCollection
from ..errors import (
    CheckpointError,
    DegradedExecutionWarning,
    ResumeMismatchError,
)
from ..faults import CRASH_EXIT_CODE, FaultPlan
from ..obs.registry import active_or_null
from ..obs.spans import trace_span
from .results import PairColumns, pair_columns

__all__ = [
    "RunManifest",
    "RunLog",
    "CancelToken",
    "signal_cancellation",
    "collection_fingerprint",
    "atomic_write_bytes",
    "MANIFEST_NAME",
    "COMPLETE_NAME",
    "ABORTED_NAME",
]

MANIFEST_NAME = "MANIFEST.json"
COMPLETE_NAME = "COMPLETE"
ABORTED_NAME = "ABORTED"
SEGMENTS_NAME = "segments.json"
_CHUNK_PREFIX = "chunk-"
_CHUNK_SUFFIX = ".pairs"
_TMP_SUFFIX = ".tmp"
_SPILL_MAGIC = "LCJRL1"
_MANIFEST_FORMAT = 1

Pair = Tuple[int, int]


# -- atomic write protocol -------------------------------------------------


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Durably replace ``path`` with ``payload``: temp → fsync → rename.

    The temp file lives in the same directory (``os.replace`` must not
    cross filesystems), is fsync'd before the rename so the payload is on
    disk before the name points at it, and the directory entry is fsync'd
    after so the rename itself survives a crash. Readers therefore observe
    either the old file or the complete new one — never a prefix.

    This is the *only* sanctioned write path in this module (RL601).
    """
    tmp = path + _TMP_SUFFIX
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)  # lint: atomic-write (this is the helper itself)
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# -- fingerprints ----------------------------------------------------------


def collection_fingerprint(collection: SetCollection) -> str:
    """SHA-256 over the collection's records (order- and value-exact).

    Two collections fingerprint equal iff they hold the same records in
    the same order — which is exactly the condition under which chunk ids
    from a previous run name the same work.
    """
    digest = hashlib.sha256()
    digest.update(str(len(collection)).encode("ascii"))
    for record in collection:
        digest.update(b"\n")
        digest.update(",".join(map(str, record)).encode("ascii"))
    return digest.hexdigest()


# -- manifest --------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """The write-ahead description of one durable join run."""

    run_id: str
    r_fingerprint: str
    s_fingerprint: str
    method: str
    backend: str
    strategy: str
    kwargs_repr: str
    num_chunks: int
    n_records: int
    created: float
    format: int = _MANIFEST_FORMAT

    def to_bytes(self) -> bytes:
        return json.dumps(asdict(self), indent=2, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RunManifest":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"corrupt run manifest: {exc}") from exc
        if not isinstance(data, dict):
            raise CheckpointError("corrupt run manifest: not a JSON object")
        if data.get("format") != _MANIFEST_FORMAT:
            raise CheckpointError(
                f"unsupported manifest format {data.get('format')!r} "
                f"(this build reads format {_MANIFEST_FORMAT})"
            )
        try:
            return cls(
                run_id=str(data["run_id"]),
                r_fingerprint=str(data["r_fingerprint"]),
                s_fingerprint=str(data["s_fingerprint"]),
                method=str(data["method"]),
                backend=str(data["backend"]),
                strategy=str(data["strategy"]),
                kwargs_repr=str(data["kwargs_repr"]),
                num_chunks=int(data["num_chunks"]),
                n_records=int(data["n_records"]),
                created=float(data["created"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt run manifest: {exc!r}") from exc

    # lint: backend-agnostic (backend here is a recorded manifest string
    # compared for equality, not an array-backend dispatch point)
    def validate(
        self,
        r_fingerprint: str,
        s_fingerprint: str,
        method: str,
        backend: str,
        strategy: str,
        kwargs_repr: str,
        n_records: int,
    ) -> None:
        """Refuse resume unless the manifest describes this exact join."""
        expected = {
            "r_fingerprint": (self.r_fingerprint, r_fingerprint),
            "s_fingerprint": (self.s_fingerprint, s_fingerprint),
            "method": (self.method, method),
            "backend": (self.backend, backend),
            "strategy": (self.strategy, strategy),
            "kwargs": (self.kwargs_repr, kwargs_repr),
            "n_records": (str(self.n_records), str(n_records)),
        }
        mismatched = [
            f"{key} (manifest {old!r} vs current {new!r})"
            for key, (old, new) in expected.items()
            if old != new
        ]
        if mismatched:
            raise ResumeMismatchError(
                "resume refused: checkpoint manifest does not match this "
                "join: " + "; ".join(mismatched)
            )


# -- spill encoding --------------------------------------------------------


def _encode_spill(chunk_id: int, rids: np.ndarray, sids: np.ndarray) -> bytes:
    body = "".join(
        f"{rid} {sid}\n" for rid, sid in zip(rids.tolist(), sids.tolist())
    ).encode("ascii")
    checksum = hashlib.sha256(body).hexdigest()
    header = f"{_SPILL_MAGIC} {chunk_id} {len(rids)} {checksum}\n".encode("ascii")
    return header + body


def _decode_spill(raw: bytes, expected_chunk: int) -> PairColumns:
    """Parse and verify one spill; any defect raises :class:`CheckpointError`."""
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("spill has no header line")
    fields = raw[:newline].decode("ascii", errors="replace").split()
    if len(fields) != 4 or fields[0] != _SPILL_MAGIC:
        raise CheckpointError("spill header is malformed")
    try:
        chunk_id = int(fields[1])
        count = int(fields[2])
    except ValueError as exc:
        raise CheckpointError(f"spill header is malformed: {exc}") from exc
    if chunk_id != expected_chunk:
        raise CheckpointError(
            f"spill names chunk {chunk_id} but is filed as chunk {expected_chunk}"
        )
    body = raw[newline + 1 :]
    if hashlib.sha256(body).hexdigest() != fields[3]:
        raise CheckpointError("spill checksum mismatch (torn or corrupt write)")
    flat: List[int] = []
    for line in body.splitlines():
        parts = line.split()
        if len(parts) != 2:
            raise CheckpointError("spill payload line is malformed")
        flat += (int(parts[0]), int(parts[1]))
    if len(flat) != 2 * count:
        raise CheckpointError(
            f"spill payload holds {len(flat) // 2} pairs, header promises {count}"
        )
    return (
        np.array(flat[0::2], dtype=np.int64),
        np.array(flat[1::2], dtype=np.int64),
    )


# -- run log ---------------------------------------------------------------


class RunLog:
    """One durable run rooted at a checkpoint directory.

    Construction goes through :meth:`create` (fresh run: refuses to adopt a
    directory that already holds a manifest) or :meth:`open` (resume: reads
    and parses the existing manifest). ``record_columns`` spills settled
    chunks as they arrive; a spill failure (e.g. disk full) degrades
    checkpointing to *off* with a :class:`DegradedExecutionWarning` instead
    of failing the join — durability is an add-on, not a correctness
    dependency.
    """

    def __init__(
        self,
        directory: str,
        manifest: RunManifest,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.notes: List[str] = []
        self._plan = plan
        self._writable = True

    # -- construction ------------------------------------------------------

    @staticmethod
    def exists(directory: str) -> bool:
        """True when ``directory`` holds a run manifest."""
        return os.path.isfile(os.path.join(directory, MANIFEST_NAME))

    @classmethod
    def create(
        cls,
        directory: str,
        manifest: RunManifest,
        plan: Optional[FaultPlan] = None,
    ) -> "RunLog":
        """Start a fresh run: write the manifest before any dispatch."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(path):
            raise CheckpointError(
                f"checkpoint directory {directory!r} already holds a run "
                "manifest; pass resume=True to continue it, or point the "
                "checkpoint at an empty directory"
            )
        try:
            atomic_write_bytes(path, manifest.to_bytes())
        except OSError as exc:
            raise CheckpointError(
                f"cannot write run manifest in {directory!r}: {exc}"
            ) from exc
        return cls(directory, manifest, plan=plan)

    @classmethod
    def open(cls, directory: str, plan: Optional[FaultPlan] = None) -> "RunLog":
        """Open an existing run for resume."""
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint directory {directory!r} holds no readable run "
                f"manifest: {exc}"
            ) from exc
        return cls(directory, RunManifest.from_bytes(raw), plan=plan)

    # -- paths -------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def chunk_path(self, chunk_id: int) -> str:
        return self._path(f"{_CHUNK_PREFIX}{chunk_id:05d}{_CHUNK_SUFFIX}")

    def is_complete(self) -> bool:
        return os.path.isfile(self._path(COMPLETE_NAME))

    def aborted_reason(self) -> Optional[str]:
        """The recorded ABORTED reason, or ``None`` when not aborted."""
        try:
            with open(self._path(ABORTED_NAME), "rb") as handle:
                return handle.read().decode("utf-8", errors="replace").strip()
        except OSError:
            return None

    # -- spills ------------------------------------------------------------

    def record_chunk(self, chunk_id: int, attempt: int, pairs: Sequence[Pair]) -> None:
        """Durably spill one settled chunk's (global-id) pair list."""
        self.record_columns(chunk_id, attempt, *pair_columns(pairs))

    def record_columns(
        self, chunk_id: int, attempt: int, rids: np.ndarray, sids: np.ndarray
    ) -> None:
        """Durably spill one settled chunk's (global-id) pair columns.

        Consults the fault plan for driver-stage actions; a real ``OSError``
        (or an injected ``diskfull``) disables further checkpointing for
        this run and warns, leaving the in-memory join untouched.
        """
        if not self._writable:
            return
        rule = None if self._plan is None else self._plan.rule_for_checkpoint(chunk_id, attempt)
        metrics = active_or_null()
        payload = _encode_spill(chunk_id, rids, sids)
        path = self.chunk_path(chunk_id)
        try:
            with trace_span("checkpoint.write"):
                if rule is not None and rule.action == "diskfull":
                    raise OSError(28, "No space left on device (injected)")
                if rule is not None and rule.action == "torn":
                    # Model a torn write: a prefix of the payload lands at
                    # the *final* name with no checksum-valid header-body
                    # agreement, then the driver dies. Deliberately bypasses
                    # the atomic protocol — that is the point of the fault.
                    torn = payload[: max(1, len(payload) - max(2, len(payload) // 3))]
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)  # lint: atomic-write (deliberately torn: fault injection)
                    try:
                        os.write(fd, torn)
                        os.fsync(fd)
                    finally:
                        os.close(fd)
                    os._exit(CRASH_EXIT_CODE)
                atomic_write_bytes(path, payload)
        except OSError as exc:
            self._writable = False
            metrics.inc("checkpoint.write_errors")
            note = (
                f"checkpoint spill for chunk {chunk_id} failed ({exc}); "
                "checkpointing disabled for the rest of this run"
            )
            self.notes.append(note)
            warnings.warn(note, DegradedExecutionWarning, stacklevel=2)
            return
        metrics.inc("checkpoint.chunks_written")
        metrics.inc("checkpoint.bytes_written", len(payload))
        if rule is not None and rule.action == "driverkill":
            # The spill above is durable; dying *here* is the deterministic
            # "driver crashed between two settles" point for resume tests.
            os._exit(CRASH_EXIT_CODE)

    def load_chunks(self) -> Tuple[Dict[int, List[Pair]], List[int]]:
        """Verified spills as pair lists; see :meth:`load_columns`."""
        spilled, discarded = self.load_columns()
        completed = {
            chunk_id: list(zip(rids.tolist(), sids.tolist()))
            for chunk_id, (rids, sids) in spilled.items()
        }
        return completed, discarded

    def load_columns(self) -> Tuple[Dict[int, PairColumns], List[int]]:
        """Verified spills plus the chunk ids discarded as torn/corrupt.

        Stray temp files from interrupted atomic writes are removed; any
        spill that fails magic/checksum/count validation is deleted so the
        chunk re-executes. Also clears a stale ABORTED marker — loading is
        the first step of a new attempt at the run.
        """
        metrics = active_or_null()
        completed: Dict[int, PairColumns] = {}
        discarded: List[int] = []
        with trace_span("checkpoint.resume"):
            for name in sorted(os.listdir(self.directory)):
                path = self._path(name)
                if name.endswith(_TMP_SUFFIX):
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                    continue
                if not (name.startswith(_CHUNK_PREFIX) and name.endswith(_CHUNK_SUFFIX)):
                    continue
                stem = name[len(_CHUNK_PREFIX) : -len(_CHUNK_SUFFIX)]
                try:
                    chunk_id = int(stem)
                except ValueError:
                    chunk_id = -1
                try:
                    if not 0 <= chunk_id < self.manifest.num_chunks:
                        raise CheckpointError(f"spill {name!r} names no known chunk")
                    with open(path, "rb") as handle:
                        completed[chunk_id] = _decode_spill(handle.read(), chunk_id)
                except (CheckpointError, OSError):
                    if chunk_id >= 0:
                        discarded.append(chunk_id)
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                    metrics.inc("checkpoint.chunks_discarded")
            with contextlib.suppress(OSError):
                os.unlink(self._path(ABORTED_NAME))
            metrics.inc("checkpoint.chunks_resumed", len(completed))
        return completed, discarded

    # -- shared-memory bookkeeping ----------------------------------------

    def record_segments(self, names: Sequence[str]) -> None:
        """Persist the run's live shm segment names (best effort)."""
        with contextlib.suppress(OSError):
            atomic_write_bytes(
                self._path(SEGMENTS_NAME),
                json.dumps(sorted(names)).encode("utf-8"),
            )

    def reclaim_stale_segments(self) -> List[str]:
        """Unlink ``/dev/shm`` segments a hard-killed previous run leaked."""
        from multiprocessing import shared_memory

        try:
            with open(self._path(SEGMENTS_NAME), "rb") as handle:
                names = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return []
        reclaimed: List[str] = []
        metrics = active_or_null()
        for name in names:
            if not isinstance(name, str):
                continue
            try:
                segment = shared_memory.SharedMemory(name=name)
            except (OSError, ValueError):
                continue  # already gone — the previous run cleaned up
            try:
                with contextlib.suppress(OSError):
                    segment.unlink()
            finally:
                segment.close()
            reclaimed.append(name)
            metrics.inc("checkpoint.stale_segments")
        with contextlib.suppress(OSError):
            os.unlink(self._path(SEGMENTS_NAME))
        return reclaimed

    # -- terminal markers --------------------------------------------------

    def mark_complete(self) -> None:
        """Write the COMPLETE marker and clear transient state."""
        with contextlib.suppress(OSError):
            os.unlink(self._path(ABORTED_NAME))
        with contextlib.suppress(OSError):
            os.unlink(self._path(SEGMENTS_NAME))
        try:
            atomic_write_bytes(
                self._path(COMPLETE_NAME),
                f"{self.manifest.run_id}\n".encode("ascii"),
            )
        except OSError as exc:
            warnings.warn(
                f"could not write COMPLETE marker: {exc}",
                DegradedExecutionWarning,
                stacklevel=2,
            )

    def mark_aborted(self, reason: str) -> None:
        """Write the ABORTED marker (no-op once COMPLETE exists).

        Called on *graceful* aborts — cancellation, deadline, crash unwind.
        The shared-memory segment list is deliberately kept: graceful paths
        also release their segments in their ``finally`` blocks, and a
        stale list costs only a few failed unlinks on resume, whereas
        removing it would lose the reclaim information if this abort races
        a hard kill.
        """
        if self.is_complete():
            return
        active_or_null().inc("checkpoint.aborts")
        try:
            atomic_write_bytes(
                self._path(ABORTED_NAME),
                f"{self.manifest.run_id}: {reason}\n".encode("utf-8"),
            )
        except OSError:
            return  # the directory may be the thing that failed


# -- cooperative cancellation ---------------------------------------------


class CancelToken:
    """A cancellation flag with a wakeup pipe.

    ``fileno()`` exposes the read end so the supervisor can add it to its
    ``multiprocessing.connection.wait`` set — a cancel issued from a signal
    handler then wakes the dispatch loop immediately instead of waiting out
    the current poll timeout.
    """

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)
        self._cancelled = False
        self._closed = False
        self.reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent, async-signal safe)."""
        if self._cancelled:
            return
        self._cancelled = True
        self.reason = reason
        if not self._closed:
            with contextlib.suppress(OSError):
                os.write(self._write_fd, b"!")

    def fileno(self) -> int:
        return self._read_fd

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError):
            os.close(self._read_fd)
        with contextlib.suppress(OSError):
            os.close(self._write_fd)


_SignalHandler = Union[
    Callable[[int, Optional[FrameType]], object], int, signal.Handlers, None
]


@contextlib.contextmanager
def signal_cancellation(
    token: CancelToken,
    signals: Sequence[signal.Signals] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[CancelToken]:
    """Route SIGINT/SIGTERM into ``token`` for the duration of the block.

    Installed only from the main thread (Python restricts signal handler
    registration to it); elsewhere the block is a no-op and the deadline /
    explicit-token paths still apply. Previous handlers are restored on
    exit, so a durable run's graceful-abort window is exactly the run.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    def _handler(signum: int, frame: Optional[FrameType]) -> None:
        token.cancel(f"signal {signal.Signals(signum).name}")

    previous: List[Tuple[signal.Signals, _SignalHandler]] = []
    try:
        for sig in signals:
            previous.append((sig, signal.getsignal(sig)))
            signal.signal(sig, _handler)
        yield token
    finally:
        for sig, old in previous:
            with contextlib.suppress(OSError, ValueError):
                signal.signal(sig, old)


def deadline_at(deadline: Optional[float]) -> Optional[float]:
    """Translate a relative ``deadline=`` budget to a monotonic instant."""
    if deadline is None:
        return None
    return time.monotonic() + deadline
