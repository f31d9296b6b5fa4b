"""Durable serve state: a checksummed write-ahead op log plus snapshots.

The resident server of :mod:`repro.serve` keeps everything in memory; this
module makes that state survive ``kill -9``. The contract is the one every
write-ahead log promises, stated here in protocol order:

1. **Apply, then log, then sync, then ack.** A mutating op is applied to
   the in-memory structures first (a refused op — admission, bad params —
   never reaches the log), then appended to ``wal.log`` as one
   self-checksummed record *carrying its result*, then the event loop
   calls :meth:`DurableServeState.sync` (one ``fsync`` per drained request
   batch — group commit), and only then do the acknowledgements flush to
   the wire. An acknowledged write is therefore always durable; a crash
   can only lose ops whose clients never saw an ack.
2. **Recovery = snapshot + log tail.** Periodic checkpoints serialize the
   exact state of all three structures (index, trie, broker) through
   their ``dump_state`` methods and write them atomically with the
   PR-5 temp → fsync → rename discipline
   (:func:`repro.core.runlog.atomic_write_bytes`). Restart loads the
   snapshot, replays the log records past the snapshot's sequence number,
   and verifies each replayed op reproduces the result recorded at
   append time — any divergence is a refusal to serve, not a silent
   corruption.
3. **A torn tail is truncated, not fatal.** Records are line-framed and
   SHA-256 checksummed (the ``LCJWAL1`` sibling of the run log's
   ``LCJRL1`` spills), so a power cut mid-append leaves a final line that
   fails to parse; recovery truncates the file back to the last good
   record and warns with :class:`~repro.errors.DegradedExecutionWarning`.
   Nothing past a torn record can be durable — the log is append-only —
   and nothing before it can be lost — it was fsync'd before any later
   ack.
4. **Generations fence failovers.** Every record carries the log
   *generation*; a warm-standby replica (:mod:`repro.serve.replica`)
   bumps it when promoted, and both the replication stream and recovery
   refuse records from a stale generation, so a deposed primary cannot
   re-join and overwrite the new lineage.

Fault injection (``REPRO_FAULTS=serve:...``) hooks the exact protocol
points above: ``kill`` hard-exits right after a record's fsync (durable,
unacknowledged — the settle point), ``torn`` writes a truncated record and
exits, ``diskfull`` makes the append raise ``ENOSPC``. A failed append or
fsync permanently degrades the server to read-only: the op is applied in
memory but its record is not durable, so acknowledging it — or logging
anything after it — would fork the recovered state from the live one.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.runlog import atomic_write_bytes
from ..data.collection import SetCollection
from ..errors import (
    DegradedExecutionWarning,
    InvalidParameterError,
    ResumeMismatchError,
    ServeProtocolError,
    ServeReadOnlyError,
    WalError,
)
from ..faults import CRASH_EXIT_CODE, FaultPlan
from ..index.prefix_tree import IncrementalPrefixTree
from ..index.storage import IncrementalIndex
from ..obs import registry as _obs
from ..obs.spans import trace_span
from ..pubsub.broker import Broker
from .state import ServeState

__all__ = [
    "WAL_MAGIC",
    "SNAPSHOT_MAGIC",
    "WAL_NAME",
    "SNAPSHOT_NAME",
    "META_NAME",
    "LOGGED_OPS",
    "WalRecord",
    "encode_record",
    "decode_record",
    "WriteAheadLog",
    "DurableServeState",
]

#: Line magics, siblings of the run log's ``LCJRL1`` spill magic.
WAL_MAGIC = "LCJWAL1"
SNAPSHOT_MAGIC = "LCJSNAP1"

#: File names inside the ``--data-dir``.
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.json"
META_NAME = "serve.meta.json"

#: The mutating state ops — exactly these are logged and replayed.
LOGGED_OPS = frozenset(
    {"subscribe", "unsubscribe", "publish", "append", "delete", "compact"}
)

#: Request-envelope keys stripped before an op's payload is logged.
_ENVELOPE_KEYS = frozenset({"id", "op", "deadline_ms"})

#: Byte budget for one ``wal_fetch`` response's records — half the
#: protocol's :data:`~repro.serve.protocol.MAX_LINE_BYTES`, leaving room
#: for the envelope.
_FETCH_BYTE_BUDGET = 512 * 1024

#: Default ops-between-checkpoints; small enough that replay tails stay
#: short, large enough that snapshot cost amortises.
DEFAULT_SNAPSHOT_EVERY = 512


@dataclass(frozen=True)
class WalRecord:
    """One durable op: *at seq S of generation G, OP(params) produced R*.

    Carrying the result makes replay self-verifying: recovery re-applies
    the op and insists on the recorded result, so a divergent rebuild
    (a code change, a corrupted structure) is detected instead of served.
    """

    seq: int
    generation: int
    op: str
    params: Dict[str, Any]
    result: Any

    def to_wire(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "gen": self.generation,
            "op": self.op,
            "params": self.params,
            "result": self.result,
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "WalRecord":
        if not isinstance(obj, dict):
            raise WalError(
                f"replicated record must be an object, got {type(obj).__name__}"
            )
        try:
            seq = obj["seq"]
            generation = obj["gen"]
            op = obj["op"]
        except (KeyError, TypeError) as exc:
            raise WalError(f"replicated record missing field: {exc}") from None
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise WalError(f"replicated record seq must be a positive int, got {seq!r}")
        if (
            isinstance(generation, bool)
            or not isinstance(generation, int)
            or generation < 1
        ):
            raise WalError(
                f"replicated record generation must be a positive int, "
                f"got {generation!r}"
            )
        params = obj.get("params") or {}
        if not isinstance(params, dict):
            raise WalError("replicated record params must be an object")
        return cls(seq, generation, str(op), params, obj.get("result"))


def encode_record(record: WalRecord) -> bytes:
    """One log line: ``LCJWAL1 <seq> <gen> <sha256-of-payload> <payload>``.

    The payload is compact JSON of ``{op, params, result}``; the checksum
    covers exactly those bytes, so any bit flip — or a torn write that
    truncated the line — fails :func:`decode_record`.
    """
    payload = json.dumps(
        {"op": record.op, "params": record.params, "result": record.result},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    head = f"{WAL_MAGIC} {record.seq} {record.generation} {digest} "
    return head.encode("ascii") + payload + b"\n"


def decode_record(line: bytes) -> WalRecord:
    """Parse one log line; :class:`WalError` on any framing/checksum fault."""
    parts = line.rstrip(b"\n").split(b" ", 3)
    if len(parts) != 4 or parts[0] != WAL_MAGIC.encode("ascii"):
        raise WalError(f"not a {WAL_MAGIC} record")
    try:
        seq = int(parts[1])
        generation = int(parts[2])
    except ValueError:
        raise WalError("unparseable record header") from None
    digest = parts[3][:64].decode("ascii", "replace")
    payload = parts[3][65:] if len(parts[3]) > 64 else b""
    if hashlib.sha256(payload).hexdigest() != digest:
        raise WalError(f"checksum mismatch at seq {seq}")
    try:
        obj = json.loads(payload)
    except (ValueError, UnicodeDecodeError):
        raise WalError(f"unparseable record payload at seq {seq}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("op"), str):
        raise WalError(f"malformed record payload at seq {seq}")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise WalError(f"malformed record params at seq {seq}")
    return WalRecord(seq, generation, obj["op"], params, obj.get("result"))


def _wire_roundtrip(value: Any) -> Any:
    """Normalise a handler result the way the log's JSON codec would."""
    return json.loads(
        json.dumps(value, separators=(",", ":"), sort_keys=True)
    )


class WriteAheadLog:
    """The append-only, checksummed op log behind one ``--data-dir``.

    Construction *is* recovery: the meta file's boot counter is bumped
    (durably, before any fault hook can consult it), the existing log is
    parsed into memory — the full record history stays resident so
    ``wal_fetch`` can serve a replica catching up from zero — and a torn
    or corrupt tail is truncated in place.

    ``plan`` is an explicit :class:`~repro.faults.FaultPlan`, not read
    from the environment here — only the CLI wires the ambient
    ``REPRO_FAULTS`` through, so in-process tests never trip over a fault
    spec exported by an enclosing chaos run.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        plan: Optional[FaultPlan] = None,
        fsync: bool = True,
    ) -> None:
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.path = os.path.join(data_dir, WAL_NAME)
        self.snapshot_path = os.path.join(data_dir, SNAPSHOT_NAME)
        self.meta_path = os.path.join(data_dir, META_NAME)
        self.plan = plan
        self._fsync_enabled = fsync
        #: Permanently true after a failed append/fsync; see module doc.
        self.failed = False
        self.records: List[WalRecord] = []
        self.last_seq = 0
        self.generation = 1
        self.boots = self._bump_boots()
        self._recover()
        # The log is deliberately append-in-place, not write-temp-rename:
        # records are individually checksummed and a torn tail is
        # truncated on recovery, which is this file's atomicity protocol.
        self._fd = os.open(  # lint: atomic-write (append-only op log; per-record checksums + torn-tail truncation are the durability protocol here)
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._dirty: List[int] = []

    # -- recovery ----------------------------------------------------------

    def _bump_boots(self) -> int:
        boots = 0
        try:
            with open(self.meta_path, "rb") as handle:
                meta = json.loads(handle.read())
            boots = int(meta.get("boots", 0))
        except (OSError, ValueError, TypeError, AttributeError):
            boots = 0
        boots += 1
        atomic_write_bytes(
            self.meta_path,
            json.dumps({"boots": boots}, separators=(",", ":")).encode("utf-8"),
        )
        return boots

    def _recover(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        offset = 0
        good_end = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # a partial final line: torn mid-append
            try:
                record = decode_record(raw[offset : newline + 1])
            except WalError:
                break
            if record.seq != self.last_seq + 1:
                break  # a gap means everything past it is untrustworthy
            if record.generation < self.generation:
                break  # fenced: a stale-generation suffix
            self.records.append(record)
            self.last_seq = record.seq
            self.generation = record.generation
            offset = newline + 1
            good_end = offset
        if good_end < len(raw):
            dropped = len(raw) - good_end
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("wal.torn_tail_truncated")
            warnings.warn(
                f"write-ahead log {self.path} has a torn tail: dropping "
                f"{dropped} trailing byte(s) past seq {self.last_seq} "
                "(an unacknowledged append interrupted by a crash)",
                DegradedExecutionWarning,
                stacklevel=4,
            )
            fd = os.open(self.path, os.O_WRONLY)  # lint: atomic-write (in-place truncation of the torn tail is the recovery protocol itself)
            try:
                os.ftruncate(fd, good_end)
                os.fsync(fd)
            finally:
                os.close(fd)

    # -- appending ---------------------------------------------------------

    def _fail(self, message: str, cause: Optional[BaseException]) -> WalError:
        self.failed = True
        # Un-synced records were never acknowledged (their responses are
        # replaced before the flush), so dropping the dirty list keeps
        # later read-only batches from re-raising forever.
        self._dirty = []
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("wal.append_errors")
        error = WalError(f"{message}; the server degrades to read-only")
        if cause is not None:
            error.__cause__ = cause
        return error

    def _refuse_if_failed(self) -> None:
        if self.failed:
            raise WalError(
                "the write-ahead log is unavailable after an earlier "
                "append/fsync failure; this server is read-only"
            )

    def append(self, op: str, params: Dict[str, Any], result: Any) -> WalRecord:
        """Append one op record at the next sequence number (primary path)."""
        self._refuse_if_failed()
        seq = self.last_seq + 1
        record = WalRecord(seq, self.generation, op, params, result)
        line = encode_record(record)
        rule = None
        if self.plan is not None:
            rule = self.plan.rule_for_serve(
                seq, ("torn", "diskfull"), boots=self.boots
            )
        try:
            if rule is not None and rule.action == "diskfull":
                raise OSError(errno.ENOSPC, "injected fault: serve wal diskfull")
            if rule is not None and rule.action == "torn":
                # A power cut mid-append: a durable prefix of the record,
                # then death without unwinding.
                os.write(self._fd, line[: max(1, (2 * len(line)) // 3)])
                os.fsync(self._fd)
                os._exit(CRASH_EXIT_CODE)
            os.write(self._fd, line)
        except OSError as exc:
            raise self._fail(f"write-ahead log append failed: {exc}", exc)
        self.records.append(record)
        self.last_seq = seq
        self._dirty.append(seq)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("wal.appends")
            reg.inc("wal.bytes_appended", len(line))
        return record

    def append_replicated(self, record: WalRecord) -> None:
        """Append a record fetched from the primary (replica path).

        The chain discipline is enforced here: sequence numbers are dense
        and generations monotone non-decreasing, so a gap or a
        stale-generation record — a deposed primary's lineage — is a
        :class:`WalError`, not a silent fork.
        """
        self._refuse_if_failed()
        if record.seq != self.last_seq + 1:
            raise WalError(
                f"replication gap: expected seq {self.last_seq + 1}, "
                f"got {record.seq}"
            )
        if record.generation < self.generation:
            raise WalError(
                f"generation fence: record at seq {record.seq} carries "
                f"generation {record.generation}, behind local generation "
                f"{self.generation}"
            )
        line = encode_record(record)
        try:
            os.write(self._fd, line)
        except OSError as exc:
            raise self._fail(f"write-ahead log append failed: {exc}", exc)
        self.records.append(record)
        self.last_seq = record.seq
        self.generation = record.generation
        self._dirty.append(record.seq)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("wal.appends")
            reg.inc("wal.bytes_appended", len(line))

    def sync(self) -> None:
        """Group commit: one fsync covering every record since the last.

        The ``serve:kill`` fault fires here, *after* the fsync — the
        settle point where a record is durable but its ack has not left —
        which is exactly the crash the recovery tests must survive.
        """
        if not self._dirty:
            return
        self._refuse_if_failed()
        try:
            if self._fsync_enabled:
                os.fsync(self._fd)
        except OSError as exc:
            raise self._fail(f"write-ahead log fsync failed: {exc}", exc)
        synced, self._dirty = self._dirty, []
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("wal.fsyncs")
            reg.set_gauge("wal.last_seq", float(self.last_seq))
        if self.plan is not None:
            for seq in synced:
                if self.plan.rule_for_serve(seq, ("kill",), boots=self.boots):
                    os._exit(CRASH_EXIT_CODE)

    def records_since(
        self, after_seq: int, max_records: int = 512
    ) -> List[Dict[str, Any]]:
        """Wire-form records past ``after_seq``, count- and byte-capped."""
        out: List[Dict[str, Any]] = []
        total = 0
        # Seqs are dense from 1 on both primary and replica chains, so the
        # record at seq N lives at index N-1.
        for record in self.records[after_seq:]:
            wire = record.to_wire()
            total += len(json.dumps(wire, separators=(",", ":")))
            if out and total > _FETCH_BYTE_BUDGET:
                break
            out.append(wire)
            if len(out) >= max_records:
                break
        return out

    # -- snapshots ---------------------------------------------------------

    def write_snapshot(self, body: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint: header line + JSON body."""
        payload = json.dumps(body, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
        digest = hashlib.sha256(payload).hexdigest()
        head = (
            f"{SNAPSHOT_MAGIC} {body['generation']} {body['seq']} {digest}\n"
        )
        with trace_span("wal.snapshot"):
            atomic_write_bytes(self.snapshot_path, head.encode("ascii") + payload)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("wal.snapshots_written")

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        """The checkpoint body, or None (missing *or* corrupt).

        Corruption is survivable by construction — the log holds the full
        history — so a bad snapshot degrades to full-log replay with a
        :class:`~repro.errors.DegradedExecutionWarning` instead of
        refusing to start.
        """
        try:
            with open(self.snapshot_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        note: Optional[str] = None
        body: Optional[Dict[str, Any]] = None
        newline = raw.find(b"\n")
        head = raw[:newline].split(b" ") if newline > 0 else []
        if len(head) != 4 or head[0] != SNAPSHOT_MAGIC.encode("ascii"):
            note = "unparseable header"
        else:
            payload = raw[newline + 1 :]
            digest = head[3].decode("ascii", "replace")
            if hashlib.sha256(payload).hexdigest() != digest:
                note = "checksum mismatch"
            else:
                try:
                    body = json.loads(payload)
                except (ValueError, UnicodeDecodeError):
                    note = "unparseable body"
        if body is not None and not isinstance(body, dict):
            body, note = None, "body is not an object"
        if body is not None and int(body.get("seq", -1)) > self.last_seq:
            # A snapshot is only written after its records are fsync'd, so
            # being ahead of the recovered log means external tampering.
            body, note = None, (
                f"snapshot seq {body['seq']} is ahead of the log "
                f"(last_seq {self.last_seq})"
            )
        if note is not None:
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("wal.snapshot_fallbacks")
            warnings.warn(
                f"snapshot {self.snapshot_path} is unusable ({note}); "
                "recovering by replaying the full op log instead",
                DegradedExecutionWarning,
                stacklevel=3,
            )
            return None
        return body

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass


class DurableServeState(ServeState):
    """A :class:`ServeState` whose every acknowledged write survives kill -9.

    Layered on the in-memory state by overriding exactly two seams:
    :meth:`handle` (gate writes on role/log health, apply, then log) and
    :meth:`sync` (group-commit fsync, then maybe checkpoint). Two extra
    ops exist only here: ``wal_fetch`` (the replication feed) and
    ``promote`` (failover, delegated to the attached replicator).
    """

    def __init__(
        self,
        s_collection: Optional[SetCollection] = None,
        *,
        data_dir: str,
        compact_ratio: float = 0.5,
        delta_ratio: float = 0.25,
        memory_budget: Optional[int] = None,
        plan: Optional[FaultPlan] = None,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        fsync: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise InvalidParameterError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        self.wal = WriteAheadLog(data_dir, plan=plan, fsync=fsync)
        self.role = "primary"
        self.read_only = False
        self.replicator = None  # set by repro.serve.replica.Replicator
        self.snapshot_every = snapshot_every
        self._ops_since_snapshot = 0
        self._config = {
            "compact_ratio": compact_ratio,
            "delta_ratio": delta_ratio,
        }
        if s_collection is not None and (
            self.wal.records or os.path.exists(self.wal.snapshot_path)
        ):
            self.wal.close()
            raise InvalidParameterError(
                f"data-dir {data_dir!r} already holds serve history; a "
                "dataset argument would overwrite it — recover without a "
                "dataset, or point at a fresh directory"
            )
        snapshot = self.wal.load_snapshot()
        if snapshot is not None:
            self._check_config(snapshot)
            super().__init__(
                None,
                compact_ratio=compact_ratio,
                delta_ratio=delta_ratio,
                memory_budget=memory_budget,
            )
            self.index = IncrementalIndex.restore_state(
                snapshot["index"],
                compact_ratio=compact_ratio,
                delta_ratio=delta_ratio,
            )
            self.trie = IncrementalPrefixTree.restore_state(
                snapshot["trie"], compact_ratio=compact_ratio
            )
            self.broker = Broker.restore_state(
                snapshot["broker"], compact_ratio=compact_ratio
            )
            start_seq = int(snapshot["seq"])
        else:
            super().__init__(
                s_collection,
                compact_ratio=compact_ratio,
                delta_ratio=delta_ratio,
                memory_budget=memory_budget,
            )
            start_seq = 0
        self._snapshot_seq = start_seq
        self._ops["wal_fetch"] = self._op_wal_fetch
        self._ops["promote"] = self._op_promote
        tail = [r for r in self.wal.records if r.seq > start_seq]
        if tail:
            reg = _obs.ACTIVE
            with trace_span("wal.replay"):
                for record in tail:
                    self._apply_logged(record)
                    if reg is not None:
                        reg.inc("wal.records_replayed")
        if s_collection is not None and snapshot is None and not self.wal.records:
            # Pin the preloaded dataset in a seq-0 snapshot: recovery must
            # never depend on the dataset file still being around.
            self.checkpoint()

    # -- recovery helpers --------------------------------------------------

    def _check_config(self, snapshot: Dict[str, Any]) -> None:
        """Refuse a snapshot taken under different settings.

        Only the keys this server still has are compared, so snapshots
        recording retired settings (``backend``, ``dense_threshold``)
        still recover.
        """
        recorded = snapshot.get("config") or {}
        drift = {
            key: (recorded.get(key), value)
            for key, value in self._config.items()
            if recorded.get(key) != value
        }
        if drift:
            detail = ", ".join(
                f"{key}: snapshot has {old!r}, requested {new!r}"
                for key, (old, new) in sorted(drift.items())
            )
            self.wal.close()
            raise ResumeMismatchError(
                f"data-dir {self.wal.data_dir!r} was checkpointed under a "
                f"different configuration ({detail}); restart with the "
                "recorded settings or use a fresh directory"
            )

    def _apply_logged(self, record: WalRecord) -> None:
        """Re-apply one log record and insist on its recorded result."""
        if record.op == "promote":
            return  # a control record: the generation lives in the log itself
        result = ServeState.handle(self, record.op, dict(record.params), None)
        if _wire_roundtrip(result) != record.result:
            raise WalError(
                f"replay divergence at seq {record.seq}: {record.op} "
                f"produced {result!r} but the log recorded "
                f"{record.result!r}; refusing to serve a forked state"
            )

    def apply_replica(self, record: WalRecord) -> None:
        """Log-then-apply one streamed record (its content is already fixed)."""
        self.wal.append_replicated(record)
        self._ops_since_snapshot += 1
        if record.op == "promote":
            return
        result = ServeState.handle(self, record.op, dict(record.params), None)
        if _wire_roundtrip(result) != record.result:
            raise WalError(
                f"replication divergence at seq {record.seq}: {record.op} "
                f"produced {result!r} but the primary recorded "
                f"{record.result!r}"
            )
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("replica.records_applied")

    # -- the two overridden seams ------------------------------------------

    def handle(
        self, op: str, obj: Dict[str, Any], deadline: Optional[float]
    ) -> Any:
        if op not in LOGGED_OPS:
            return super().handle(op, obj, deadline)
        if self.read_only:
            reg = _obs.ACTIVE
            if reg is not None:
                reg.inc("serve.read_only_rejections")
            raise ServeReadOnlyError(
                f"{op} refused: this server is a read-only replica "
                "following a primary; send writes there, or promote this "
                "one first"
            )
        self.wal._refuse_if_failed()
        result = super().handle(op, obj, deadline)
        params = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
        self.wal.append(op, params, _wire_roundtrip(result))
        self._ops_since_snapshot += 1
        return result

    def sync(self) -> None:
        self.wal.sync()
        if self._ops_since_snapshot >= self.snapshot_every and not self.wal.failed:
            self.checkpoint()

    # -- checkpoints -------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a snapshot of the current (durable) state.

        Callers run this only at sync points — after :meth:`sync`, at
        startup preload, at shutdown — so the captured state never
        includes an un-fsync'd op.
        """
        if self.wal.failed:
            return
        body: Dict[str, Any] = {
            "seq": self.wal.last_seq,
            "generation": self.wal.generation,
            "config": dict(self._config),
            "index": self.index.dump_state(),
            "trie": self.trie.dump_state(),
            "broker": self.broker.dump_state(),
        }
        self.wal.write_snapshot(body)
        self._ops_since_snapshot = 0
        self._snapshot_seq = self.wal.last_seq

    def shutdown_flush(self) -> None:
        """Best-effort final sync + checkpoint + close (CLI teardown)."""
        try:
            self.wal.sync()
            self.checkpoint()
        except WalError:
            pass
        finally:
            self.wal.close()

    # -- durable-only ops --------------------------------------------------

    def _op_wal_fetch(
        self, obj: Dict[str, Any], deadline: Optional[float]
    ) -> Any:
        after = obj.get("after_seq", 0)
        if isinstance(after, bool) or not isinstance(after, int) or after < 0:
            raise ServeProtocolError(
                f"after_seq must be a non-negative integer, got {after!r}"
            )
        limit = obj.get("max", 512)
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ServeProtocolError(
                f"max must be a positive integer, got {limit!r}"
            )
        return {
            "records": self.wal.records_since(after, max_records=limit),
            "last_seq": self.wal.last_seq,
            "generation": self.wal.generation,
        }

    def _op_promote(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        if self.replicator is None:
            raise ServeProtocolError(
                "promote: this server is not a replica (start it with "
                "--follow to get one)"
            )
        return self.replicator.promote()

    # -- reporting ---------------------------------------------------------

    def _op_stats(self, obj: Dict[str, Any], deadline: Optional[float]) -> Any:
        stats = super()._op_stats(obj, deadline)
        stats["wal"] = {
            "role": self.role,
            "last_seq": self.wal.last_seq,
            "generation": self.wal.generation,
            "snapshot_seq": self._snapshot_seq,
            "boots": self.wal.boots,
            "failed": self.wal.failed,
            "read_only": self.read_only,
        }
        return stats
