"""The batched numpy superstep kernel over the array index.

The pure-Python cross-cutting loop (:func:`repro.core.framework.cross_cut_record`)
pays interpreter overhead per ``bisect_left`` call — one probe, one Python
frame. This module recovers the batching headroom the paper's C++
implementation gets for free, using the layout of
:class:`repro.index.storage.HybridInvertedIndex`:

* every inverted list lives in one contiguous ``values`` array, and a
  *composite-keyed* mirror ``keyed[j] = element(j) * stride + values[j]``
  (``stride > `` any probed id) is globally sorted. Probing element ``e``
  for target ``t`` is therefore ``searchsorted(keyed, e * stride + t)`` —
  which means *any number of (list, target) probes batch into a single*
  ``np.searchsorted`` *call* (:func:`batch_first_geq`);
* gap lookup (the first entry strictly greater than the candidate) is a
  vectorized gather at ``pos + hit`` (:func:`batch_gap_lookup`), and the
  next candidate is one ``max`` reduction per record instead of a Python
  loop;
* the densest lists also carry bitmap rows, answered by masking at most
  two uint64 words and bit-scanning (:func:`_bitmap_gap_inbounds`), and
  sparse lists gallop from per-slot cursors (:func:`gallop_first_geq` —
  doubling steps batched across the whole slot set, then one
  ``searchsorted`` finishes whatever escaped the window).

:func:`cross_cut_collection_hybrid` is the whole-collection superstep
kernel the array-backend framework join runs: every active record advances
its own candidate each superstep, with each probe routed to its list's
representation. Every fallback is exact, so per-record candidate sequences
— and therefore the result pairs, the probe count, and the round count —
are identical to running :func:`cross_cut_record` record by record.

Early termination (paper §III-C) is a *probe-ordering* refinement: it
changes which lists are visited, never which pairs are produced. Batched
probing visits all lists of a round in one call, so the array backend has
a single code path; ``framework_et`` on it produces the same pairs while
metering slightly more probes than the Python ET loop would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..obs import registry as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports index)
    from ..core.results import PairSink
    from ..core.stats import JoinStats
    from ..data.collection import SetCollection
    from .storage import HybridInvertedIndex

#: A probe target: one scalar candidate, or one candidate per probed list.
Target = Union[int, "np.ndarray"]

__all__ = [
    "batch_first_geq",
    "batch_gap_lookup",
    "gallop_first_geq",
    "cross_cut_collection_hybrid",
]

#: Below this many surviving records the superstep overhead (a dozen numpy
#: calls per round regardless of batch width) exceeds the cost of finishing
#: the stragglers with the pure-Python loop.
_STRAGGLER_WIDTH = 16
#: ... but only bail out on genuinely long tails; short joins never switch.
_STRAGGLER_SUPERSTEPS = 2048

#: All 64 bits set — the mask seed for bitmap probes.
_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: Entries a gallop covers before giving up: doubling probes at offsets
#: 0, 1, 3, ..., window-1 from the cursor. Probes whose answer lies further
#: out are finished by one global ``searchsorted`` — the gallop only has to
#: win the near-cursor common case, never to replace the binary search.
_GALLOP_WINDOW = 64
#: Slots below which a superstep takes the plain CSR step instead of
#: the bitmap/gallop pipelines. One C ``searchsorted`` has essentially no
#: dispatch overhead, while the vectorized bitmap path issues ~20 numpy
#: calls; measured on this testbed the crossover sits near 2k slots, and
#: the representation split only starts winning (2.5-4x) well above it.
_HYBRID_MIN_BATCH = 3072
#: Widest record (list count) for which the per-record reductions run
#: columnar (one gather per list position over the records still that
#: wide) instead of via ``reduceat``. Columnar touches each slot exactly
#: once with plain SIMD gathers but pays one numpy dispatch per column;
#: ``reduceat`` pays per-*segment* overhead, which dominates on the short
#: records skewed data produces.
_COLUMNAR_MAX_K = 16
#: Slots below which :func:`_segment_reduce` prefers ``reduceat`` even for
#: narrow records: columnar's fixed ~4 dispatches per list position cost
#: more than ``reduceat``'s per-segment overhead on a small batch, and the
#: long tail of a join is thousands of such small supersteps.
_COLUMNAR_MIN_SLOTS = 8192


def _column_bounds(rec_k: np.ndarray) -> Optional[np.ndarray]:
    """Suffix-start indices for :func:`_segment_reduce`'s columnar strategy.

    ``col_lo[j - 1]`` is the first record with more than ``j`` lists;
    valid while the (ascending-by-``rec_k``) record arrays are unchanged,
    so kernels recompute it only on compaction. ``None`` selects the
    ``reduceat`` strategy for wide records.
    """
    k_max = int(rec_k[-1])
    if k_max > _COLUMNAR_MAX_K:
        return None
    return np.searchsorted(rec_k, np.arange(2, k_max + 1))


def _segment_reduce(
    hit: np.ndarray,
    gap: np.ndarray,
    rec_off: np.ndarray,
    col_lo: Optional[np.ndarray],
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-record ``(all hits, max gap)`` over contiguous slot segments.

    Callers keep records sorted by ascending list count, which makes
    "records with more than ``j`` lists" a suffix slice (``col_lo``, from
    :func:`_column_bounds`): the columnar strategy folds column ``j`` into
    the running reductions with one gather + one ``maximum``/``and`` over
    that suffix, touching every slot exactly once overall. Wide records
    (``col_lo is None``) go through ``reduceat``, where per-column
    dispatch would beat per-segment overhead; columnar wins on the short
    records skewed data produces because ``reduceat`` pays per-*segment*
    overhead instead.
    """
    if col_lo is None or hit.shape[0] < _COLUMNAR_MIN_SLOTS:
        found = np.logical_and.reduceat(hit, rec_off)
        next_cand = np.maximum.reduceat(gap, rec_off)
        return found, next_cand
    # Fancy indexing copies, so the running reductions own their buffers.
    found = hit[rec_off]
    next_cand = gap[rec_off]
    # lint: scalar-fallback (one iteration per list position <=
    # _COLUMNAR_MAX_K; each folds a whole column of records in two
    # vectorized ops)
    for j in range(1, col_lo.shape[0] + 1):
        lo = col_lo[j - 1]
        idx = rec_off[lo:] + j
        found[lo:] &= hit[idx]
        np.maximum(next_cand[lo:], gap[idx], out=next_cand[lo:])
    return found, next_cand


def batch_first_geq(
    keyed: np.ndarray, bases: np.ndarray, target: Target
) -> np.ndarray:
    """Positions of the first entry ``>= target`` in each probed list.

    ``keyed`` is the composite-keyed CSR array; ``bases[i] = e_i * stride``
    selects the list of element ``e_i``. ``target`` is a scalar candidate
    (or a per-list array of candidates, each ``< stride``). The returned
    positions are *global* indices into ``keyed`` / ``values``; position
    ``offsets[e_i + 1]`` means every entry of list ``i`` is smaller —
    exactly ``len(lst)`` in :func:`repro.index.search.first_geq` terms,
    rebased by the list's start offset.

    All *k* probes are answered by one ``np.searchsorted`` call — the
    batching primitive everything else in this module builds on.
    """
    return np.searchsorted(keyed, bases + target, side="left")


def batch_gap_lookup(
    keyed: np.ndarray,
    bases: np.ndarray,
    ends: np.ndarray,
    pos: np.ndarray,
    target: Target,
    inf_sid: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized hit/gap classification for a batch of probes.

    Given the positions returned by :func:`batch_first_geq`, compute per
    list the paper's probe outcome (see :func:`repro.index.search.probe`):

    * ``hit[i]``  — the candidate appears in list ``i``;
    * ``gap[i]``  — the next id list ``i`` can justify as a candidate: the
      entry after the hit, the missed-to entry, or ``inf_sid`` when the
      list is exhausted.

    Returns ``(hit, gap)`` as a bool array and an int64 array.
    """
    n = keyed.shape[0]
    at_end = pos >= ends
    safe = np.minimum(pos, max(n - 1, 0))
    sid = np.where(at_end, inf_sid, keyed[safe] - bases)
    hit = sid == target
    pos_next = pos + hit
    at_end_next = pos_next >= ends
    safe_next = np.minimum(pos_next, max(n - 1, 0))
    after = np.where(at_end_next, inf_sid, keyed[safe_next] - bases)
    # On a hit the gap is the entry after the candidate; on a miss the gap
    # *is* the missed-to entry (sid), or inf_sid at the end of the list.
    gap = np.where(hit, after, sid)
    return hit, gap


def _emit_single_element_records(
    r_collection: "SetCollection",
    index: "HybridInvertedIndex",
    sink: "PairSink",
    rids: Sequence[int],
) -> None:
    """``{e} ⊆ S[sid]`` iff ``sid ∈ I[e]``: the whole list is the answer.

    Cross-cutting a one-list record degenerates to walking its list one hit
    at a time (every probe hits and the gap is the very next entry), so the
    kernel emits the list directly instead of burning one superstep per
    posting.
    """
    # lint: scalar-fallback (one bulk add_sids emission per record; the
    # sink normalises the numpy list once, and counting sinks never do)
    for rid in rids:
        sink.add_sids(rid, index.get_list(r_collection[rid][0]))


# --------------------------------------------------------------------------
# Bitmap rows for dense lists, galloping for sparse ones
# --------------------------------------------------------------------------


def _ctz64(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit per uint64 (inputs must be nonzero).

    ``frexp`` on the isolated lowest bit is exact by definition (the bit is
    a power of two, and every power of two up to ``2**63`` is an exact
    float64), so no platform-dependent ``log2`` rounding is involved.
    """
    lsb = words & (~words + np.uint64(1))
    __, exponent = np.frexp(lsb.astype(np.float64))
    return exponent.astype(np.int64) - 1


def _bitmap_gap_inbounds(
    bitmap: np.ndarray,
    words: int,
    row_base: np.ndarray,
    targets: np.ndarray,
    inf_sid: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Hit/gap classification for a batch of dense (bitmap-row) probes.

    The bitmap twin of :func:`batch_gap_lookup`. ``row_base[i]`` is the
    flat offset (``row * words``) of probe ``i``'s row and ``targets[i]``
    its candidate, which must be in bounds (``< inf_sid``): the superstep
    kernel only probes alive candidates, and it precomputes ``row_base``
    because that only changes on compaction, not per superstep.

    ``hit[i]`` is exact (bit ``target`` is inspected directly, so a miss
    is proven even when the follow-up sid is not found). ``gap[i]`` is the
    first set bit strictly above the target — hit or miss it is the same
    quantity, since a missed target's bit is clear — looking at the
    target's word and the one after it; ``inf_sid`` when the row has no
    word past the target's, and ``-1`` when both inspected words were
    empty past the target but the row continues. The caller finishes
    those few on the CSR arrays; at bitmap-worthy densities (>= 1 posting
    per word) two consecutive empty words are rare.
    """
    w0 = targets >> 6
    # int64 -> uint64 view is free and exact here: targets are sids, so
    # the masked low bits are nonnegative.
    shifted = bitmap[row_base + w0] >> (targets & 63).view(np.uint64)
    hit = (shifted & np.uint64(1)) != 0
    rest = shifted >> np.uint64(1)  # bits strictly above the target, word 0
    # frexp's exponent on the isolated lowest bit is ctz + 1 (see _ctz64),
    # which is exactly the "+1 past the target" the gap needs — so the gap
    # is target + exponent in one add. An empty ``rest`` gives exponent 0,
    # i.e. ``gap == target``: impossible for a real gap (always > target),
    # so those slots are exactly the misses and are settled on the subset
    # path below — no full-batch masking pass required.
    lsb = rest & np.negative(rest)
    __, exponent = np.frexp(lsb.astype(np.float64))
    gap = targets + exponent.astype(np.int64)
    miss = np.flatnonzero(exponent == 0)
    if miss.shape[0]:
        w1 = w0[miss] + 1
        in_row = w1 < words
        past = miss[~in_row]
        if past.shape[0]:
            gap[past] = inf_sid
        i1 = miss[in_row]
        if i1.shape[0]:
            w1 = w1[in_row]
            word1 = bitmap[row_base[i1] + w1]
            hit1 = word1 != 0
            j = i1[hit1]
            if j.shape[0]:
                gap[j] = (w1[hit1] << 6) + _ctz64(word1[hit1])
            j = i1[~hit1]
            if j.shape[0]:
                gap[j] = -1
    return hit, gap


def gallop_first_geq(
    keyed: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    keys: np.ndarray,
) -> np.ndarray:
    """Batched galloping search: first position in ``[lo, hi)`` with
    ``keyed[pos] >= key``, per probe.

    Precondition (the cross-cut cursor invariant): every entry below
    ``lo[i]`` is ``< keys[i]`` — candidates only grow within a record, so
    last round's position is a valid lower bound this round.

    Doubling steps run *batched across all probes* (offsets 0, 1, 3, ...,
    ``_GALLOP_WINDOW - 1`` from the cursor); a probe whose bracketing word
    is found is finished by a batched bisection over its (tiny) window.
    Probes whose answer lies beyond the window return ``-1`` — the caller
    settles all of them with one global ``searchsorted``, so the worst
    case costs one extra gather pass over what plain CSR probing pays.
    ``hi[i]`` is returned for probes whose whole range is consumed or
    proven smaller than the key.
    """
    n = lo.shape[0]
    pos = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return pos
    consumed = lo >= hi
    if consumed.any():
        pos[consumed] = hi[consumed]
    active = np.flatnonzero(~consumed)
    cur = lo[active]
    key = keys[active]
    end = hi[active]
    win_idx = []
    win_lo = []
    win_hi = []
    step = 1
    # lint: scalar-fallback (fixed doubling schedule: <= log2(_GALLOP_WINDOW)
    # + 1 iterations, each one batched gather+compare over the active probes)
    while active.shape[0] and step <= _GALLOP_WINDOW:
        probe_at = np.minimum(cur + step - 1, end - 1)
        ge = keyed[probe_at] >= key
        if ge.any():
            g = np.flatnonzero(ge)
            win_idx.append(active[g])
            win_lo.append(cur[g])
            win_hi.append(probe_at[g])  # invariant: keyed[win_hi] >= key
        ended = ~ge & (probe_at == end - 1)
        if ended.any():
            e = np.flatnonzero(ended)
            pos[active[e]] = end[e]  # whole remaining range < key
        cont = ~ge & ~ended
        if cont.all():
            cur = probe_at + 1
        else:
            c = np.flatnonzero(cont)
            active = active[c]
            cur = probe_at[c] + 1
            key = key[c]
            end = end[c]
        step <<= 1
    # Probes still active here overran the window; they stay -1 and the
    # caller finishes them with one global searchsorted.
    if win_idx:
        bi = np.concatenate(win_idx)
        blo = np.concatenate(win_lo)
        bhi = np.concatenate(win_hi)
        bkey = keys[bi]
        # lint: scalar-fallback (bounded batched bisection: windows hold <=
        # _GALLOP_WINDOW entries, so <= log2(_GALLOP_WINDOW) + 1 iterations)
        while True:
            narrow = blo < bhi
            if not narrow.any():
                break
            mid = (blo + bhi) >> 1
            ge_mid = keyed[mid] >= bkey
            bhi = np.where(narrow & ge_mid, mid, bhi)
            blo = np.where(narrow & ~ge_mid, mid + 1, blo)
        pos[bi] = bhi
    return pos


def cross_cut_collection_hybrid(
    r_collection: "SetCollection",
    index: "HybridInvertedIndex",
    sink: "PairSink",
    stats: Optional["JoinStats"] = None,
) -> None:
    """Cross-cut every record in supersteps, routing probes by representation.

    Each superstep advances *every* still-active record by exactly one
    round of the cross-cutting loop: all pending probes (one per list per
    active record) are classified in bulk, and the per-record ``found`` /
    ``next_max`` reductions run over the record's slot group
    (:func:`_segment_reduce`). Records whose candidate reaches ``S_∞`` are
    compacted out. Each slot probes through its list's representation:

    * slots over *dense* elements go to :func:`_bitmap_gap_inbounds`; the
      few gaps escaping the two-word window are settled by one batched
      ``searchsorted`` on the CSR arrays;
    * slots over *sparse* elements gallop from per-slot cursors
      (:func:`gallop_first_geq`), with one global ``searchsorted``
      finishing window escapees, and classify through
      :func:`batch_gap_lookup` as usual;
    * supersteps narrower than ``_HYBRID_MIN_BATCH`` slots skip the routing
      and probe every slot with one ``searchsorted``.

    Every fallback is exact, so per-record candidate sequences — and the
    pair set, probe count, and round count — are identical to the scalar
    loop (modulo emission order, which is round-major here). Two
    departures from the one-record-at-a-time shape, both exact:

    * single-element records short-circuit to their full inverted list;
    * once fewer than ``_STRAGGLER_WIDTH`` records survive past
      ``_STRAGGLER_SUPERSTEPS`` supersteps (a long-tail join), the
      remaining records finish on the pure-Python loop, where per-round
      overhead is lower than a fixed-cost numpy superstep.
    """
    inf_sid = index.inf_sid
    universe = index.universe
    if len(universe) == 0:
        return
    first_sid = int(universe[0])

    rec_rids = []
    rec_lens = []
    base_parts = []
    start_parts = []
    end_parts = []
    single_rids = []
    # lint: scalar-fallback (one-time setup pass over R records, not probe work)
    for rid, record in enumerate(r_collection):
        probe = index.record_probe(record)
        if probe is None:
            continue
        bases, starts, ends = probe
        if bases.shape[0] == 1:
            single_rids.append(rid)
            continue
        rec_rids.append(rid)
        rec_lens.append(bases.shape[0])
        base_parts.append(bases)
        start_parts.append(starts)
        end_parts.append(ends)
    if single_rids:
        _emit_single_element_records(r_collection, index, sink, single_rids)
    if not rec_rids:
        reg = _obs.ACTIVE
        if reg is not None and single_rids:
            reg.inc("kernel.single_element_records", len(single_rids))
        return

    # Records ascending by list count: compaction preserves the order, and
    # _segment_reduce's columnar strategy needs "records with > j lists" to
    # be a suffix slice. Pair sets are order-insensitive, so only the
    # emission order shifts.
    order = np.argsort(np.asarray(rec_lens, dtype=np.int64), kind="stable")
    # lint: scalar-fallback (k-way gather of per-record arrays; one iteration per record)
    slot_base = np.concatenate([base_parts[i] for i in order])
    # lint: scalar-fallback (same per-record gather as slot_base)
    slot_end = np.concatenate([end_parts[i] for i in order])
    # lint: scalar-fallback (same per-record gather as slot_base)
    cursors = np.concatenate([start_parts[i] for i in order]).astype(np.int64)
    rec_rid = np.asarray(rec_rids, dtype=np.int64)[order]
    rec_k = np.asarray(rec_lens, dtype=np.int64)[order]
    rec_off = np.zeros(rec_k.shape[0], dtype=np.int64)
    np.cumsum(rec_k[:-1], out=rec_off[1:])
    slot_rec = np.repeat(np.arange(rec_k.shape[0]), rec_k)
    cand = np.full(rec_k.shape[0], first_sid, dtype=np.int64)
    col_lo = _column_bounds(rec_k)

    keyed = index.keyed
    bitmap = index.bitmap
    words = index.bitmap_words
    # Representation routing per slot: bitmap row index, -1 for sparse.
    # The flattened bitmap offsets of the dense rows (row * words) only
    # change on compaction, so they are maintained here rather than
    # recomputed inside every superstep.
    slot_row = index.dense_map[slot_base // index.stride]
    dense_slots = np.flatnonzero(slot_row >= 0)
    sparse_slots = np.flatnonzero(slot_row < 0)
    dense_rows = slot_row[dense_slots]
    slot_row_base = slot_row * words
    dense_base = dense_rows * words

    searches = 0
    rounds = 0
    supersteps = 0
    stragglers = 0
    ss_calls = 0
    bitmap_probes = 0
    bitmap_fallbacks = 0
    gallop_probes = 0
    gallop_fallbacks = 0
    # lint: scalar-fallback (superstep driver: one iteration advances every
    # alive record by a whole round through batched numpy calls)
    while cand.shape[0]:
        supersteps += 1
        rounds += cand.shape[0]
        slot_cand = cand[slot_rec]
        n_slots = slot_cand.shape[0]
        searches += n_slots

        if n_slots < _HYBRID_MIN_BATCH:
            # Adaptive bypass: below the crossover batch size the fixed
            # dispatch cost of the bitmap/gallop pipelines exceeds one C
            # searchsorted over all slots, so small supersteps (the long
            # tail of a join) take the plain CSR step. Candidates advance
            # identically either way, and the positions double as valid
            # gallop cursors for any later vectorized superstep.
            ss_calls += 1
            cursors = batch_first_geq(keyed, slot_base, slot_cand)
            hit, gap = batch_gap_lookup(
                keyed, slot_base, slot_end, cursors, slot_cand, inf_sid
            )
        elif sparse_slots.shape[0] == 0:
            # All-dense superstep (the common shape on heavily skewed
            # data, where surviving records hold only top elements): probe
            # the bitmap rows directly, with no routing gather/scatter.
            bitmap_probes += n_slots
            hit, gap = _bitmap_gap_inbounds(
                bitmap, words, slot_row_base, slot_cand, inf_sid
            )
            unresolved = gap < 0
            if unresolved.any():
                u = np.flatnonzero(unresolved)
                bitmap_fallbacks += u.shape[0]
                ss_calls += 1
                fb_keys = slot_base[u] + slot_cand[u] + hit[u]
                pos_fb = np.searchsorted(keyed, fb_keys, side="left")
                at_end = pos_fb >= slot_end[u]
                safe = np.minimum(pos_fb, max(keyed.shape[0] - 1, 0))
                gap[u] = np.where(at_end, inf_sid, keyed[safe] - slot_base[u])
        else:
            hit = np.empty(n_slots, dtype=bool)
            gap = np.empty(n_slots, dtype=np.int64)

            sp = sparse_slots
            if sp.shape[0]:
                gallop_probes += sp.shape[0]
                keys = slot_base[sp] + slot_cand[sp]
                pos_sp = gallop_first_geq(keyed, cursors[sp], slot_end[sp], keys)
                overran = pos_sp < 0
                if overran.any():
                    u = np.flatnonzero(overran)
                    gallop_fallbacks += u.shape[0]
                    ss_calls += 1
                    pos_sp[u] = np.searchsorted(keyed, keys[u], side="left")
                hit_sp, gap_sp = batch_gap_lookup(
                    keyed, slot_base[sp], slot_end[sp], pos_sp, slot_cand[sp],
                    inf_sid,
                )
                hit[sp] = hit_sp
                gap[sp] = gap_sp
                cursors[sp] = pos_sp

            d = dense_slots
            if d.shape[0]:
                bitmap_probes += d.shape[0]
                hit_d, gap_d = _bitmap_gap_inbounds(
                    bitmap, words, dense_base, slot_cand[d], inf_sid
                )
                unresolved = gap_d < 0
                if unresolved.any():
                    u = np.flatnonzero(unresolved)
                    bitmap_fallbacks += u.shape[0]
                    ss_calls += 1
                    du = d[u]
                    # First entry >= target (+1 past a hit): the exact gap,
                    # straight off the sorted CSR arrays.
                    fb_keys = slot_base[du] + slot_cand[du] + hit_d[u]
                    pos_fb = np.searchsorted(keyed, fb_keys, side="left")
                    at_end = pos_fb >= slot_end[du]
                    safe = np.minimum(pos_fb, max(keyed.shape[0] - 1, 0))
                    gap_d[u] = np.where(
                        at_end, inf_sid, keyed[safe] - slot_base[du]
                    )
                hit[d] = hit_d
                gap[d] = gap_d

        found, next_cand = _segment_reduce(hit, gap, rec_off, col_lo)
        if found.any():
            sink.add_pairs(rec_rid[found], cand[found])
        cand = next_cand
        alive = cand < inf_sid
        n_alive = int(alive.sum())
        if n_alive == 0:
            break
        if n_alive < cand.shape[0]:
            slot_alive = alive[slot_rec]
            slot_base = slot_base[slot_alive]
            slot_end = slot_end[slot_alive]
            cursors = cursors[slot_alive]
            slot_row = slot_row[slot_alive]
            rec_rid = rec_rid[alive]
            rec_k = rec_k[alive]
            cand = cand[alive]
            rec_off = np.zeros(rec_k.shape[0], dtype=np.int64)
            np.cumsum(rec_k[:-1], out=rec_off[1:])
            slot_rec = np.repeat(np.arange(rec_k.shape[0]), rec_k)
            col_lo = _column_bounds(rec_k)
            dense_slots = np.flatnonzero(slot_row >= 0)
            sparse_slots = np.flatnonzero(slot_row < 0)
            dense_rows = slot_row[dense_slots]
            slot_row_base = slot_row * words
            dense_base = dense_rows * words
        if cand.shape[0] <= _STRAGGLER_WIDTH and supersteps >= _STRAGGLER_SUPERSTEPS:
            # Long-tail join: finish the survivors on the scalar loop.
            from ..core.framework import cross_cut_record

            stragglers = cand.shape[0]
            # lint: scalar-fallback (deliberate straggler tail: <=
            # _STRAGGLER_WIDTH survivors finish on the scalar loop where
            # per-round numpy call overhead would dominate)
            for i in range(cand.shape[0]):
                rid = int(rec_rid[i])
                # lint: scalar-fallback (straggler tail: python lists feed cross_cut_record)
                lists = [
                    index.get_list(e).tolist() for e in r_collection[rid]
                ]
                cross_cut_record(
                    rid, lists, int(cand[i]), inf_sid, sink, False, stats
                )
            break
    if stats is not None:
        stats.binary_searches += searches
        stats.rounds += rounds
    reg = _obs.ACTIVE
    if reg is not None:
        reg.inc("kernel.searchsorted_calls", ss_calls)
        reg.inc("kernel.probes", searches)
        reg.inc("kernel.supersteps", supersteps)
        reg.inc("kernel.single_element_records", len(single_rids))
        reg.inc("kernel.straggler_records", stragglers)
        reg.inc("kernel.bitmap_probes", bitmap_probes)
        reg.inc("kernel.bitmap_fallbacks", bitmap_fallbacks)
        reg.inc("kernel.gallop_probes", gallop_probes)
        reg.inc("kernel.gallop_fallbacks", gallop_fallbacks)
