"""Result sinks.

On skewed inputs a containment join's output can be far larger than its
input (every small set joins with thousands of supersets), and the paper's
TWITTER preprocessing ("removed the sets with more than 5000 elements to
keep the number of results reasonable") exists precisely because of that.
Materialising every pair is therefore a *choice*, not a given — benchmarks
usually only need the count.

All algorithms emit through a sink with a single ``add(rid, sid)`` method;
three implementations cover the practical cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import (
    Callable,
    Collection,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import InvalidParameterError
from .stats import JoinStats

__all__ = [
    "PairSink",
    "PairListSink",
    "CountSink",
    "CallbackSink",
    "make_sink",
    "pair_columns",
    "AttemptRecord",
    "ChunkReport",
    "ShardReport",
    "JoinReport",
]


class PairSink(Protocol):
    """Structural type of a result sink — what every join method emits into.

    Exists so the strict-typed modules (kernels, framework, parallel) can
    annotate their ``sink`` parameters without coupling to one concrete
    class; anything with these four methods qualifies, including test
    doubles.
    """

    def add(self, rid: int, sid: int) -> None: ...

    def add_rids(self, rids: Collection[int], sid: int) -> None: ...

    def add_sids(self, rid: int, sids: Collection[int]) -> None: ...

    def add_pairs(self, rids: Collection[int], sids: Collection[int]) -> None: ...

    def __len__(self) -> int: ...


class PairListSink:
    """Materialise every ``(rid, sid)`` pair in emission order.

    The bulk methods (``add_rids`` / ``add_sids`` / ``add_pairs``) exist
    because several algorithms naturally produce one-to-many results (a
    whole rid list against one superset, or one subset against a candidate
    list) or whole batches of independent pairs (one per record in a
    vectorized superstep); emitting them in one call keeps the per-pair
    overhead out of the hot loops of *every* method, so cross-method
    timings stay fair. Array arguments (anything with ``tolist``) are
    normalised to Python ints here, exactly once, so kernels can pass
    numpy arrays straight through and counting sinks never pay for a
    conversion they do not need.
    """

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, int]] = []

    def add(self, rid: int, sid: int) -> None:
        self.pairs.append((rid, sid))

    def add_rids(self, rids: Iterable[int], sid: int) -> None:
        """Emit ``(rid, sid)`` for every rid in ``rids``."""
        to_list = getattr(rids, "tolist", None)
        if to_list is not None:
            rids = to_list()
        self.pairs.extend(zip(rids, repeat(sid)))

    def add_sids(self, rid: int, sids: Iterable[int]) -> None:
        """Emit ``(rid, sid)`` for every sid in ``sids``."""
        to_list = getattr(sids, "tolist", None)
        if to_list is not None:
            sids = to_list()
        self.pairs.extend(zip(repeat(rid), sids))

    def add_pairs(self, rids: Iterable[int], sids: Iterable[int]) -> None:
        """Emit ``(rid, sid)`` for every aligned pair in ``rids``/``sids``."""
        to_list = getattr(rids, "tolist", None)
        if to_list is not None:
            rids = to_list()
        to_list = getattr(sids, "tolist", None)
        if to_list is not None:
            sids = to_list()
        self.pairs.extend(zip(rids, sids))

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        """Pairs in canonical ``(rid, sid)`` order, for comparisons in tests."""
        return sorted(self.pairs)


#: A pair list as two aligned int64 columns: ``(rids, sids)``.
PairColumns = Tuple[np.ndarray, np.ndarray]


def pair_columns(pairs: Sequence[Tuple[int, int]]) -> PairColumns:
    """``(rids, sids)`` of a pair list as contiguous int64 arrays.

    One ``fromiter`` pass over the flattened pairs: columns pickle in
    milliseconds where the tuple list takes a hundred times longer.
    """
    flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    return flat[0::2].copy(), flat[1::2].copy()


class CountSink:
    """Count results without materialising them."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, rid: int, sid: int) -> None:
        self.count += 1

    def add_rids(self, rids: Collection[int], sid: int) -> None:
        self.count += len(rids)

    def add_sids(self, rid: int, sids: Collection[int]) -> None:
        self.count += len(sids)

    def add_pairs(self, rids: Collection[int], sids: Collection[int]) -> None:
        self.count += len(rids)

    def __len__(self) -> int:
        return self.count


class CallbackSink:
    """Forward each pair to a user callback (streaming consumption)."""

    __slots__ = ("callback", "count")

    def __init__(self, callback: Callable[[int, int], None]) -> None:
        self.callback = callback
        self.count = 0

    def add(self, rid: int, sid: int) -> None:
        self.count += 1
        self.callback(rid, sid)

    def add_rids(self, rids: Collection[int], sid: int) -> None:
        to_list = getattr(rids, "tolist", None)
        if to_list is not None:
            rids = to_list()
        for rid in rids:
            self.add(rid, sid)

    def add_sids(self, rid: int, sids: Collection[int]) -> None:
        to_list = getattr(sids, "tolist", None)
        if to_list is not None:
            sids = to_list()
        for sid in sids:
            self.add(rid, sid)

    def add_pairs(self, rids: Collection[int], sids: Collection[int]) -> None:
        to_list = getattr(rids, "tolist", None)
        if to_list is not None:
            rids = to_list()
        to_list = getattr(sids, "tolist", None)
        if to_list is not None:
            sids = to_list()
        for rid, sid in zip(rids, sids):
            self.add(rid, sid)

    def __len__(self) -> int:
        return self.count


# --------------------------------------------------------------------------
# Execution reports (the supervised parallel join)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    """One dispatch of one chunk: where it ran and how it ended.

    ``mode`` is the index-payload path the attempt used — ``"shm"``,
    ``"fork"``, ``"pickle"``, ``"none"`` (no shared index), ``"direct"``
    (in-process fast path), ``"local"`` (the in-process degradation
    fallback), ``"shard"`` (dispatched to a shard node, see
    :mod:`repro.core.shard`) or ``"checkpoint"`` (the result was loaded
    from a verified spill, not computed). ``outcome`` is ``"ok"``,
    ``"error"`` (worker raised), ``"crash"`` (worker died without a
    result), ``"timeout"`` (killed at the ``task_timeout`` deadline),
    ``"resumed"`` (settled from the checkpoint with ``number=0`` and zero
    duration) or ``"superseded"`` (a duplicate shard dispatch that lost
    the first-settle-wins race — its result, if any, was discarded).

    ``shard`` is the shard-node id the attempt ran on (sharded runs only).
    """

    number: int
    mode: str
    outcome: str
    duration: float
    error: Optional[str] = None
    shard: Optional[int] = None


@dataclass
class ChunkReport:
    """Everything that happened to one chunk of ``R``."""

    chunk: int
    size: int
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].outcome in ("ok", "resumed")

    @property
    def retries(self) -> int:
        """Dispatches beyond the first (the supervision overhead paid)."""
        return max(0, len(self.attempts) - 1)

    @property
    def final_mode(self) -> str:
        return self.attempts[-1].mode if self.attempts else "none"

    @property
    def wall_clock(self) -> float:
        """Seconds spent on this chunk across all attempts (incl. failed)."""
        return sum(a.duration for a in self.attempts)


@dataclass
class ShardReport:
    """One shard node's history across a sharded run (all incarnations).

    ``incarnations`` counts processes spawned under this shard id (1 for a
    shard that never died); ``deaths`` counts hard exits *detected* —
    EOF/exit-code crashes and heartbeat-miss kills alike — so
    ``incarnations == deaths`` means the shard was dead at run end and
    ``incarnations == deaths + 1`` means its last incarnation survived.
    ``settled`` lists the chunk ids this shard won, in settle order.
    """

    shard: int
    incarnations: int = 1
    settled: List[int] = field(default_factory=list)
    deaths: int = 0
    heartbeat_misses: int = 0
    last_error: Optional[str] = None


@dataclass
class JoinReport:
    """Structured account of a supervised :func:`parallel_join` run.

    Returned alongside the pairs with ``return_report=True``: per-chunk
    attempts with outcomes and wall-clock, plus every degradation step the
    supervisor took (payload downgrades, in-process fallbacks). A report
    with ``total_retries == 0`` and no ``degradations`` is a clean run.
    """

    chunks: List[ChunkReport] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    fault_plan: Optional[str] = None
    #: Durable-run provenance (``checkpoint_dir=``): chunk ids settled from
    #: verified spills, chunk ids whose spill was torn/corrupt and had to be
    #: re-executed, and the checkpoint directory itself.
    resumed_chunks: List[int] = field(default_factory=list)
    reexecuted_chunks: List[int] = field(default_factory=list)
    checkpoint_dir: Optional[str] = None
    #: Sharded-run provenance (``shards=``): one :class:`ShardReport` per
    #: shard id, chunk ids that received a speculative duplicate dispatch,
    #: the subset of those the *speculative* attempt won, and how many dead
    #: shard incarnations were respawned.
    shards: List["ShardReport"] = field(default_factory=list)
    speculated_chunks: List[int] = field(default_factory=list)
    speculation_wins: List[int] = field(default_factory=list)
    shard_restarts: int = 0
    #: The method counters (rounds, binary searches, local builds, ...) of
    #: the attempt that settled each chunk, merged in chunk-id order. Lost
    #: and superseded attempts never count; chunks resumed from spills add
    #: zero. ``results`` and ``elapsed_seconds`` stay 0 here.
    stats: JoinStats = field(default_factory=JoinStats)

    @property
    def total_attempts(self) -> int:
        return sum(len(c.attempts) for c in self.chunks)

    @property
    def total_retries(self) -> int:
        return sum(c.retries for c in self.chunks)

    @property
    def fallbacks(self) -> int:
        """Chunks that ended on the in-process degradation path."""
        return sum(1 for c in self.chunks if c.final_mode == "local")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.chunks)

    def chunk(self, chunk_id: int) -> ChunkReport:
        """The report for one chunk id (chunks are listed in id order)."""
        return self.chunks[chunk_id]

    def summary(self) -> str:
        """Multi-line human-readable rendering (used by the CLI)."""
        lines = [
            f"chunks={len(self.chunks)} workers={self.workers} "
            f"attempts={self.total_attempts} retries={self.total_retries} "
            f"fallbacks={self.fallbacks} elapsed={self.elapsed_seconds:.3f}s"
        ]
        if self.fault_plan:
            lines.append(f"fault plan: {self.fault_plan}")
        if self.shards:
            lines.append(
                f"shards={len(self.shards)} restarts={self.shard_restarts} "
                f"speculated={len(self.speculated_chunks)} "
                f"speculation_wins={len(self.speculation_wins)}"
            )
            for s in self.shards:
                state = "dead" if s.deaths >= s.incarnations else "alive"
                lines.append(
                    f"  shard {s.shard}: incarnations={s.incarnations} "
                    f"deaths={s.deaths} settled={len(s.settled)} [{state}]"
                    + (f" last_error={s.last_error}" if s.last_error else "")
                )
        if self.checkpoint_dir is not None:
            lines.append(
                f"checkpoint: {self.checkpoint_dir} "
                f"resumed={len(self.resumed_chunks)} "
                f"re-executed={len(self.reexecuted_chunks)}"
            )
        for c in self.chunks:
            trail = " -> ".join(
                f"{a.mode}:{a.outcome}" for a in c.attempts
            )
            lines.append(
                f"  chunk {c.chunk} ({c.size} sets, {c.wall_clock:.3f}s): {trail}"
            )
        for note in self.degradations:
            lines.append(f"  degraded: {note}")
        return "\n".join(lines)


def make_sink(
    collect: str = "pairs",
    callback: Optional[Callable[[int, int], None]] = None,
) -> Union[PairListSink, CountSink, CallbackSink]:
    """Factory used by the public API: ``"pairs"``, ``"count"`` or ``"callback"``.

    Raises :class:`~repro.errors.InvalidParameterError` (a ``ValueError``
    subclass, so existing ``except ValueError`` callers keep working) —
    this factory sits under ``set_containment_join``, whose exception
    contract is the ``errors.py`` hierarchy.
    """
    if collect == "pairs":
        return PairListSink()
    if collect == "count":
        return CountSink()
    if collect == "callback":
        if callback is None:
            raise InvalidParameterError("collect='callback' requires a callback")
        return CallbackSink(callback)
    raise InvalidParameterError(f"unknown collect mode {collect!r}")
