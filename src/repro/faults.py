"""Deterministic fault injection for the supervised parallel join.

The supervisor in :mod:`repro.core.supervisor` is only trustworthy if its
failure handling is *tested* — and worker crashes, hangs, and shared-memory
attach failures do not happen on demand. This module makes them happen on
demand, deterministically: a :class:`FaultPlan` is a list of rules keyed on
``(chunk, attempt)``, shipped into every worker, and consulted at two well
defined points of the worker lifecycle:

* **start** — before the chunk join begins, a matching ``crash`` / ``hang``
  / ``raise`` rule fires (hard ``os._exit``, a long sleep, or a
  :class:`FaultInjected` exception);
* **attach** — before a shared-memory payload is resolved, a matching
  ``shmfail`` rule raises :class:`~repro.errors.ShmAttachError`, exercising
  the supervisor's payload-downgrade ladder;
* **checkpoint** — in the *driver*, as a settled chunk's result is spilled
  to the checkpoint directory (:mod:`repro.core.runlog`): ``driverkill``
  hard-exits the driver right after the spill is durable (a deterministic
  "driver died mid-run" for resume tests), ``torn`` writes a deliberately
  truncated spill *bypassing* the atomic-rename protocol and then exits
  (what a torn write looks like after a power cut), and ``diskfull`` makes
  the spill raise ``ENOSPC`` (checkpointing degrades to off; the join
  itself continues);
* **shard** — in a shard node (:mod:`repro.core.shard`), as it picks up a
  job: ``kill`` hard-exits the whole node (the coordinator sees EOF plus
  the exit code — a dead machine), ``hang`` stops the node's heartbeats
  and sleeps (a live-but-wedged machine, caught only by heartbeat-miss
  detection), and ``slow`` sleeps while heartbeats *continue* (a healthy
  straggler, caught only by runtime-quantile speculation);
* **serve** — in the resident join service's write-ahead log
  (:mod:`repro.serve.wal`), keyed on the op-log *sequence number*:
  ``kill`` hard-exits the server right after a matching record is fsync'd
  (the settle point: the write is durable but the ack never leaves),
  ``torn`` writes a deliberately truncated log record and exits (a power
  cut mid-append), ``diskfull`` makes the append raise ``ENOSPC`` (the
  op is refused and the log degrades to read-only), and ``lag`` delays a
  warm-standby replica's apply loop by ``arg`` seconds.

Spec grammar (``REPRO_FAULTS`` environment variable or ``FaultPlan.parse``)::

    spec    = rule (";" rule)*          # "," also accepted as a separator
    rule    = chunk ":" attempt ":" action ["@" prob] ["=" arg]
            | "shard" ":" shard ":" shard_action ["@" prob] ["=" arg]
            | "serve" [":" seq] ":" serve_action ["@" prob] ["=" arg]
    chunk   = int | "*"                 # chunk id (0-based) or any chunk
    attempt = int | "*"                 # attempt number (1-based) or any
    shard   = int | "*"                 # shard id (0-based) or any shard
    seq     = int | "*"                 # op-log seq (1-based) or any record
    action  = "crash" | "hang" | "raise" | "shmfail"
            | "driverkill" | "diskfull" | "torn"
    shard_action = "kill" | "hang" | "slow"
    serve_action = "kill" | "torn" | "diskfull" | "lag"
    arg     = float                     # hang/slow/lag duration seconds; for
                                        # shard kill the last incarnation
                                        # that still dies, for serve kill the
                                        # last *boot* that still dies
    prob    = float in (0, 1]           # fire probability (default 1)

Unknown actions are rejected at parse time with an error naming the valid
set. Examples: ``*:1:crash`` crashes every worker exactly once (each
chunk's first attempt); ``0:*:hang=120`` hangs chunk 0 on every attempt;
``*:1:crash@0.5`` crashes roughly half the chunks' first attempts;
``1:*:driverkill`` kills the driver immediately after chunk 1's result is
durably checkpointed; ``shard:0:kill=1`` kills shard 0's first incarnation
at its first job pickup (its respawn completes normally);
``shard:2:slow=30`` makes shard 2 a 30-second straggler on every job;
``serve:3:kill`` kills the serve process as op-log record 3 settles;
``serve:kill=1`` (seq defaults to ``*``) kills a durable server at its
first settle point, but only on its first boot — the recovered process
survives, which is the restart-recovery test shape.

Probabilistic rules stay **reproducible**: whether a rule fires is a pure
function of ``(seed, chunk, attempt, action)`` hashed through SHA-256 —
there is no RNG state, so the same plan produces the same faults in every
process and on every run. The seed comes from ``FaultPlan(seed=...)`` or
``REPRO_FAULTS_SEED``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from .errors import InvalidParameterError, ReproError, ShmAttachError

__all__ = [
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "ACTIONS",
    "CHECKPOINT_ACTIONS",
    "SHARD_ACTIONS",
    "SERVE_ACTIONS",
    "STAGE_ACTIONS",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
]

#: Environment variables activating / seeding injection.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Recognised fault actions. ``crash``/``hang``/``raise`` fire at worker
#: start; ``shmfail`` fires at shared-memory attach time; the
#: :data:`CHECKPOINT_ACTIONS` fire in the driver at checkpoint-spill time.
ACTIONS = ("crash", "hang", "raise", "shmfail", "driverkill", "diskfull", "torn")

#: The subset of :data:`ACTIONS` consulted by ``RunLog.record_columns`` —
#: these target the *driver* process, not a worker.
CHECKPOINT_ACTIONS = ("driverkill", "diskfull", "torn")

#: Actions legal on the ``shard`` stage — they target a whole shard node
#: (:mod:`repro.core.shard`), not one chunk attempt.
SHARD_ACTIONS = ("kill", "hang", "slow")

#: Actions legal on the ``serve`` stage — they target the resident join
#: service's write-ahead log (:mod:`repro.serve.wal`), keyed on op-log seq.
SERVE_ACTIONS = ("kill", "torn", "diskfull", "lag")

#: The single stage registry: every stage a rule may carry, with its legal
#: action set. ``FaultRule.__post_init__`` validates against this mapping
#: and enumerates its keys in the unknown-stage error, so adding a stage
#: cannot drift from the validation message again.
STAGE_ACTIONS = {
    "task": ACTIONS,
    "shard": SHARD_ACTIONS,
    "serve": SERVE_ACTIONS,
}

#: Exit code used by injected crashes, distinctive in worker exit status.
CRASH_EXIT_CODE = 66

#: Default sleep for ``hang`` — long enough that any sane ``task_timeout``
#: expires first.
DEFAULT_HANG_SECONDS = 3600.0

#: Default sleep for a shard ``slow`` fault — long enough to trip any sane
#: speculation threshold, short enough not to stall a test run forever.
DEFAULT_SLOW_SECONDS = 2.0


class FaultInjected(ReproError, RuntimeError):
    """The exception raised by a ``raise`` fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *on chunk C's attempt A, do ACTION*.

    ``chunk``/``attempt`` of ``None`` are wildcards (the ``*`` spelling in
    the spec grammar). ``attempt`` numbering is 1-based — attempt 1 is the
    first dispatch, so ``attempt=1`` rules model transient faults that a
    single retry absorbs.

    ``stage="shard"`` rules reuse the ``chunk`` slot for the *shard id*
    (``attempt`` is always ``None`` for them) and carry a
    :data:`SHARD_ACTIONS` action; they fire when the named shard picks up
    any job, whatever the chunk. ``stage="serve"`` rules reuse the slot
    for the write-ahead-log *sequence number* (1-based) and carry a
    :data:`SERVE_ACTIONS` action.
    """

    chunk: Optional[int]
    attempt: Optional[int]
    action: str
    arg: Optional[float] = None
    prob: float = 1.0
    stage: str = "task"

    def __post_init__(self) -> None:
        legal = STAGE_ACTIONS.get(self.stage)
        if legal is None:
            raise InvalidParameterError(
                f"unknown fault stage {self.stage!r}; "
                f"expected one of {tuple(sorted(STAGE_ACTIONS))}"
            )
        if self.action not in legal:
            raise InvalidParameterError(
                f"unknown {self.stage} fault action {self.action!r}; "
                f"expected one of {legal}"
            )
        if not 0.0 < self.prob <= 1.0:
            raise InvalidParameterError(
                f"fault probability must be in (0, 1], got {self.prob}"
            )

    def matches(self, chunk: int, attempt: int) -> bool:
        return (
            self.stage == "task"
            and (self.chunk is None or self.chunk == chunk)
            and (self.attempt is None or self.attempt == attempt)
        )

    def matches_shard(self, shard_id: int) -> bool:
        return self.stage == "shard" and (
            self.chunk is None or self.chunk == shard_id
        )

    def matches_serve(self, seq: int) -> bool:
        return self.stage == "serve" and (
            self.chunk is None or self.chunk == seq
        )


def _parse_part(token: str, what: str) -> Optional[int]:
    if token == "*":
        return None
    try:
        value = int(token)
    except ValueError:
        raise InvalidParameterError(
            f"bad fault {what} {token!r}: expected an integer or '*'"
        ) from None
    if value < 0 or (what == "attempt" and value < 1):
        raise InvalidParameterError(f"fault {what} out of range: {token!r}")
    return value


def _parse_rule(text: str) -> FaultRule:
    parts = text.split(":")
    stage = "task"
    attempt: Optional[int] = None
    if parts and parts[0].strip() == "serve":
        # Stage names cannot collide with the chunk grammar: chunk ids are
        # integers or '*', never a stage word. The seq field is optional —
        # ``serve:kill`` means any record, like ``serve:*:kill``.
        stage = "serve"
        if len(parts) == 2:
            chunk = None
        elif len(parts) == 3:
            chunk = _parse_part(parts[1].strip(), "seq")
        else:
            raise InvalidParameterError(
                f"bad fault rule {text!r}: expected "
                "'serve[:seq]:action[@prob][=arg]'"
            )
    elif len(parts) != 3:
        raise InvalidParameterError(
            f"bad fault rule {text!r}: expected 'chunk:attempt:action[@prob][=arg]',"
            " 'shard:<id>:action[@prob][=arg]'"
            " or 'serve[:seq]:action[@prob][=arg]'"
        )
    elif parts[0].strip() == "shard":
        stage = "shard"
        chunk = _parse_part(parts[1].strip(), "shard")
    else:
        chunk = _parse_part(parts[0].strip(), "chunk")
        attempt = _parse_part(parts[1].strip(), "attempt")
    action = parts[-1].strip()
    arg: Optional[float] = None
    prob = 1.0
    if "=" in action:
        action, arg_text = action.split("=", 1)
        try:
            arg = float(arg_text)
        except ValueError:
            raise InvalidParameterError(
                f"bad fault arg {arg_text!r} in rule {text!r}"
            ) from None
    if "@" in action:
        action, prob_text = action.split("@", 1)
        try:
            prob = float(prob_text)
        except ValueError:
            raise InvalidParameterError(
                f"bad fault probability {prob_text!r} in rule {text!r}"
            ) from None
    return FaultRule(chunk, attempt, action.strip(), arg=arg, prob=prob, stage=stage)


class FaultPlan:
    """A parsed, picklable set of fault rules plus the decision seed.

    Instances are immutable in practice and ship to workers inside the job
    payload; all decisions are pure functions of the plan, so parent and
    workers always agree on what fires where.
    """

    __slots__ = ("rules", "seed")

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed

    def __repr__(self) -> str:
        return f"FaultPlan(rules={list(self.rules)!r}, seed={self.seed})"

    def __getstate__(self) -> Tuple[Tuple[FaultRule, ...], int]:
        return (self.rules, self.seed)

    def __setstate__(self, state: Tuple[Tuple[FaultRule, ...], int]) -> None:
        self.rules, self.seed = state

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the spec grammar documented in the module docstring."""
        rules = []
        for chunk_text in spec.replace(",", ";").split(";"):
            chunk_text = chunk_text.strip()
            if chunk_text:
                rules.append(_parse_rule(chunk_text))
        if not rules:
            raise InvalidParameterError(f"fault spec {spec!r} contains no rules")
        return cls(rules, seed=seed)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
        env = os.environ if environ is None else environ
        spec = env.get(FAULTS_ENV, "").strip()
        if not spec:
            return None
        seed = int(env.get(FAULTS_SEED_ENV, "0"))
        return cls.parse(spec, seed=seed)

    # -- decisions --------------------------------------------------------

    def _fires(self, rule: FaultRule, chunk: int, attempt: int) -> bool:
        if rule.prob >= 1.0:
            return True
        key = f"{self.seed}:{chunk}:{attempt}:{rule.action}".encode()
        digest = hashlib.sha256(key).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < rule.prob

    def rule_for(
        self, chunk: int, attempt: int, actions: Sequence[str]
    ) -> Optional[FaultRule]:
        """First matching-and-firing rule among ``actions``, if any."""
        for rule in self.rules:
            if (
                rule.action in actions
                and rule.matches(chunk, attempt)
                and self._fires(rule, chunk, attempt)
            ):
                return rule
        return None

    # -- injection points -------------------------------------------------

    def fire_worker_start(self, chunk: int, attempt: int) -> None:
        """Apply any start-stage fault for this (chunk, attempt).

        ``crash`` hard-exits the process (no unwinding, no result message —
        exactly what a segfault or OOM kill looks like from the parent),
        ``hang`` sleeps past any reasonable deadline, ``raise`` raises
        :class:`FaultInjected`.
        """
        rule = self.rule_for(chunk, attempt, ("crash", "hang", "raise"))
        if rule is None:
            return
        if rule.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.action == "hang":
            time.sleep(rule.arg if rule.arg is not None else DEFAULT_HANG_SECONDS)
            return
        raise FaultInjected(
            f"injected fault: chunk {chunk} attempt {attempt} raises"
        )

    def fire_attach(self, chunk: int, attempt: int) -> None:
        """Raise :class:`ShmAttachError` if a ``shmfail`` rule fires."""
        rule = self.rule_for(chunk, attempt, ("shmfail",))
        if rule is not None:
            raise ShmAttachError(
                f"injected fault: chunk {chunk} attempt {attempt} "
                "shared-memory attach failure"
            )

    def rule_for_shard(
        self, shard_id: int, incarnation: int, chunk: int
    ) -> Optional[FaultRule]:
        """The shard-stage rule (if any) firing as this job is picked up.

        Like :meth:`rule_for_checkpoint` this returns the rule instead of
        applying it — ``hang`` must first silence the node's heartbeat
        thread and ``kill`` must take down the whole process, so
        :mod:`repro.core.shard` interprets the action at the exact protocol
        point each one models. A ``kill`` rule with an ``arg`` fires only
        while ``incarnation <= arg``, so ``shard:0:kill=1`` kills the first
        incarnation and lets the respawn live (the restart-recovery test
        shape); without an arg every incarnation dies. Probabilistic rules
        hash ``(seed, shard, incarnation, chunk, action)``, so parent and
        respawned nodes agree deterministically on what fires where.
        """
        for rule in self.rules:
            if not rule.matches_shard(shard_id):
                continue
            if rule.action == "kill" and rule.arg is not None and incarnation > rule.arg:
                continue
            if rule.prob < 1.0:
                key = (
                    f"{self.seed}:shard:{shard_id}:{incarnation}:"
                    f"{chunk}:{rule.action}"
                ).encode()
                digest = hashlib.sha256(key).digest()
                fraction = int.from_bytes(digest[:8], "big") / 2**64
                if fraction >= rule.prob:
                    continue
            return rule
        return None

    def rule_for_serve(
        self, seq: int, actions: Sequence[str], boots: int = 1
    ) -> Optional[FaultRule]:
        """The serve-stage rule (if any) firing for op-log record ``seq``.

        Returned, not applied: ``kill``/``torn`` must interleave with the
        append/fsync protocol itself, so :mod:`repro.serve.wal` interprets
        the rule at the exact point each action models. A ``kill`` rule
        with an ``arg`` fires only while ``boots <= arg`` — the durable
        server counts its boots in the data-dir meta file, so
        ``serve:kill=1`` kills the first boot at its first settle point
        and lets the recovered process live (``torn`` gates on boots the
        same way: both kill the process, so an ungated wildcard rule
        would otherwise crash-loop every recovery). Probabilistic rules
        hash ``(seed, "serve", seq, action)``; parent and recovered
        processes agree deterministically on what fires where.
        """
        for rule in self.rules:
            if rule.action not in actions or not rule.matches_serve(seq):
                continue
            if (
                rule.action in ("kill", "torn")
                and rule.arg is not None
                and boots > rule.arg
            ):
                continue
            if rule.prob < 1.0:
                key = f"{self.seed}:serve:{seq}:{rule.action}".encode()
                digest = hashlib.sha256(key).digest()
                fraction = int.from_bytes(digest[:8], "big") / 2**64
                if fraction >= rule.prob:
                    continue
            return rule
        return None

    def rule_for_checkpoint(self, chunk: int, attempt: int) -> Optional[FaultRule]:
        """The driver-stage rule (if any) for this chunk's spill.

        Unlike the worker-stage hooks this does not *apply* the fault —
        ``driverkill``/``torn`` must interleave with the spill write itself,
        so :class:`repro.core.runlog.RunLog` interprets the returned rule at
        the exact protocol point each action models.
        """
        return self.rule_for(chunk, attempt, CHECKPOINT_ACTIONS)

    def describe(self) -> str:
        """Spec-grammar one-liner for logs and reports (reparses to itself)."""

        def part(rule: FaultRule) -> str:
            c = "*" if rule.chunk is None else str(rule.chunk)
            suffix = "" if rule.prob >= 1.0 else f"@{rule.prob}"
            if rule.arg is not None:
                suffix += f"={rule.arg:g}"
            if rule.stage in ("shard", "serve"):
                return f"{rule.stage}:{c}:{rule.action}{suffix}"
            a = "*" if rule.attempt is None else str(rule.attempt)
            return f"{c}:{a}:{rule.action}{suffix}"

        return ";".join(part(rule) for rule in self.rules)
