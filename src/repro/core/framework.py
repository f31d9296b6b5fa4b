"""The cross-cutting framework (paper §III, Algorithm 1) and its
early-termination refinement (§III-C).

For each set ``R``, all of its inverted lists are intersected
*simultaneously*: a single *specific set* candidate ``MaxSid`` is probed in
every list, and the largest *gap* (first entry greater than the candidate)
across the lists becomes the next candidate. Every id strictly between the
old candidate and the new one is absent from at least one list, so the whole
range is skipped in all lists — the titular "cross-cutting".

Early termination (``FrameworkET``): lists are visited in ascending length
order and the round stops at the first list missing the candidate; the next
candidate is the largest gap among the *visited* lists only. Short lists go
first because they have the largest gaps (paper §III-C).

Both variants keep a per-list cursor: candidates only grow within one ``R``,
so each binary search can start from the previous hit position.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..data.collection import SetCollection
from ..index.inverted import InvertedIndex
from ..obs import registry as _obs
from ..obs.spans import trace_span
from .stats import JoinStats

if TYPE_CHECKING:  # pragma: no cover - typing-only (storage imports lazily)
    from ..index.storage import HybridInvertedIndex
    from .results import PairSink

#: What the probing methods accept as a prebuilt superset-side index.
IndexLike = Union[InvertedIndex, "HybridInvertedIndex"]

__all__ = ["framework_join", "cross_cut_record"]


def cross_cut_record(
    rid: int,
    lists: Sequence[Sequence[int]],
    first_sid: int,
    inf_sid: int,
    sink: "PairSink",
    early_termination: bool,
    stats: Optional[JoinStats],
) -> None:
    """Run the cross-cutting loop for one ``R`` set.

    ``lists`` are the record's inverted lists; with ``early_termination``
    they must already be sorted by ascending length. ``first_sid`` is the
    initial candidate (the paper's ``S_1``; the smallest id in the index
    universe) and ``inf_sid`` the ``S_∞`` sentinel.
    """
    k = len(lists)
    cursors = [0] * k
    max_sid = first_sid
    searches = 0
    rounds = 0
    matches = 0
    while max_sid < inf_sid:
        rounds += 1
        next_max = -1
        found = True
        for i in range(k):
            lst = lists[i]
            pos = bisect_left(lst, max_sid, cursors[i])
            cursors[i] = pos
            searches += 1
            if pos == len(lst):
                # End of a list reached: no candidate beyond max_sid can be
                # a superset; the paper's outer while-condition fires.
                next_max = inf_sid
                found = False
                if early_termination:
                    break
                continue
            sid = lst[pos]
            if sid == max_sid:
                gap = lst[pos + 1] if pos + 1 < len(lst) else inf_sid
            else:
                found = False
                gap = sid
            if gap > next_max:
                next_max = gap
            if not found and early_termination:
                break
        if found:
            sink.add(rid, max_sid)
            matches += 1
        max_sid = next_max
    if stats is not None:
        stats.binary_searches += searches
        stats.rounds += rounds
    reg = _obs.ACTIVE
    if reg is not None:
        reg.inc("probe.records")
        reg.inc("probe.binary_searches", searches)
        reg.inc("probe.rounds", rounds)
        reg.inc("probe.matches", matches)
        # Under early termination every round either completes with a match
        # or breaks out of the list scan, so the break count needs no
        # per-round accumulation in the hot loop.
        if early_termination:
            reg.inc("probe.early_term_breaks", rounds - matches)


def framework_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink: "PairSink",
    early_termination: bool = False,
    index: Optional[IndexLike] = None,
    stats: Optional[JoinStats] = None,
    backend: str = "python",
) -> None:
    """Algorithm 1: the cross-cutting set containment join.

    ``early_termination=True`` gives the paper's ``FrameworkET`` variant.
    Pass a prebuilt ``index`` to amortise index construction across runs
    (the benchmark harness measures it separately).

    ``backend="hybrid"`` runs the same algorithm on the array index via
    the batched superstep kernel (:mod:`repro.index.kernels`) — dense lists
    probed through bitmap rows, sparse lists through the batched gallop —
    with the identical pair set, emitted round-major instead of
    record-major. On that backend early termination is subsumed by batch
    probing (see the kernel module docstring), and ``index`` may be a
    prebuilt :class:`~repro.index.storage.HybridInvertedIndex` (a plain
    ``InvertedIndex`` is repacked on the fly).
    """
    if backend == "hybrid":
        from ..index.kernels import cross_cut_collection_hybrid
        from ..index.storage import HybridInvertedIndex

        if index is None:
            with trace_span("index.build"):
                index = HybridInvertedIndex.build(s_collection)
            if stats is not None:
                stats.index_build_tokens += index.construction_cost
        elif isinstance(index, InvertedIndex):
            with trace_span("index.csr_pack"):
                index = HybridInvertedIndex.from_index(index)
        with trace_span("probe.loop"):
            cross_cut_collection_hybrid(r_collection, index, sink, stats)
        return
    if index is None:
        with trace_span("index.build"):
            index = InvertedIndex.build(s_collection)
        if stats is not None:
            stats.index_build_tokens += index.construction_cost
    if not index.universe:
        return
    first_sid = index.universe[0]
    inf_sid = index.inf_sid
    skipped = 0
    with trace_span("probe.loop"):
        for rid, record in enumerate(r_collection):
            lists = index.get_lists(record)
            # A record with an element absent from S has an empty list and can
            # never find a superset; skip it before entering the loop.
            shortest = min(lists, key=len, default=())
            if not shortest:
                skipped += 1
                continue
            if early_termination:
                lists = sorted(lists, key=len)
            cross_cut_record(
                rid, lists, first_sid, inf_sid, sink, early_termination, stats
            )
    reg = _obs.ACTIVE
    if reg is not None and skipped:
        reg.inc("probe.records_skipped", skipped)

