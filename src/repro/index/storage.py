"""Array storage and binary persistence for collections/indexes.

Two concerns live here, both about *how index data is laid out in memory
or on disk* rather than what it means:

1. **Binary persistence** — text files (:mod:`repro.data.io`) are the
   interchange format; the ``RSC1``/``RIX1`` binary layouts below are the
   fast path, so a prebuilt index (or a big collection) loads in
   milliseconds instead of being re-parsed per process.
2. **The array index** — :class:`HybridInvertedIndex` packs *all*
   inverted lists into two contiguous numpy arrays (``offsets``,
   ``values``) plus a composite-keyed mirror (``keyed``), the CSR layout
   the batched kernel in :mod:`repro.index.kernels` runs on, and
   additionally packs the densest lists into uint64 bitmap rows (one bit
   per S-record), so probes against them become word masking + bit-scan
   instead of a binary search over all postings. The CSR arrays are always
   complete and authoritative; the resident server's
   :class:`IncrementalIndex` builds its frozen base with no bitmap rows.

Persistence layout (all integers little-endian):

* collection file: magic ``RSC1`` · u64 count · per record: u32 length +
  u64 element ids;
* index file: magic ``RIX1`` · u64 inf_sid · u64 universe length + u64 ids
  (``0xFFFF_FFFF_FFFF_FFFF`` in the length slot marks a contiguous
  ``range`` universe, stored as just its end) · u64 list count · per list:
  u64 element + u32 length + u64 sids.

Numpy handles the bulk (de)serialisation, so costs are I/O-bound.
"""

from __future__ import annotations

import os
import struct
from itertools import chain
from typing import (
    Any,
    BinaryIO,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..data.collection import SetCollection
from ..errors import DatasetError, InvalidParameterError
from ..obs import registry as _obs
from .inverted import InvertedIndex
from .search import contains_sorted

__all__ = [
    "HybridInvertedIndex",
    "DeltaSegment",
    "IndexSnapshot",
    "IncrementalIndex",
    "save_collection_binary",
    "load_collection_binary",
    "save_index",
    "load_index",
]

_COLLECTION_MAGIC = b"RSC1"
_INDEX_MAGIC = b"RIX1"
_RANGE_SENTINEL = 0xFFFF_FFFF_FFFF_FFFF


def _write_ids(handle: BinaryIO, ids: Sequence[int]) -> None:
    np.asarray(ids, dtype="<u8").tofile(handle)


def _read_ids(handle: BinaryIO, count: int) -> List[int]:
    data = np.fromfile(handle, dtype="<u8", count=count)
    if len(data) != count:
        raise DatasetError("binary file truncated")
    return data.tolist()


def save_collection_binary(collection: SetCollection, path: str) -> None:
    """Write a collection in the ``RSC1`` binary layout."""
    with open(path, "wb") as handle:
        handle.write(_COLLECTION_MAGIC)
        handle.write(struct.pack("<Q", len(collection)))
        lengths = np.fromiter(
            (len(rec) for rec in collection), dtype="<u4", count=len(collection)
        )
        lengths.tofile(handle)
        flat: List[int] = []
        for record in collection:
            flat.extend(record)
        _write_ids(handle, flat)


def load_collection_binary(path: str) -> SetCollection:
    """Read a collection written by :func:`save_collection_binary`."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != _COLLECTION_MAGIC:
            raise DatasetError(
                f"{path}: not a binary set collection (magic {magic!r})"
            )
        (count,) = struct.unpack("<Q", handle.read(8))
        lengths = np.fromfile(handle, dtype="<u4", count=count)
        if len(lengths) != count:
            raise DatasetError(f"{path}: truncated length table")
        flat = np.fromfile(handle, dtype="<u8", count=int(lengths.sum()))
        if len(flat) != lengths.sum():
            raise DatasetError(f"{path}: truncated record data")
    records = []
    offset = 0
    for n in lengths:
        records.append(flat[offset: offset + n].tolist())
        offset += int(n)
    return SetCollection(records, validate=False)


def save_index(index: InvertedIndex, path: str) -> None:
    """Write an inverted index in the ``RIX1`` binary layout."""
    with open(path, "wb") as handle:
        handle.write(_INDEX_MAGIC)
        handle.write(struct.pack("<Q", index.inf_sid))
        universe = index.universe
        if isinstance(universe, range) and universe == range(len(universe)):
            handle.write(struct.pack("<Q", _RANGE_SENTINEL))
            handle.write(struct.pack("<Q", len(universe)))
        else:
            handle.write(struct.pack("<Q", len(universe)))
            _write_ids(handle, list(universe))
        handle.write(struct.pack("<Q", len(index.lists)))
        for element in sorted(index.lists):
            lst = index.lists[element]
            handle.write(struct.pack("<QI", element, len(lst)))
            _write_ids(handle, lst)


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != _INDEX_MAGIC:
            raise DatasetError(f"{path}: not a binary index (magic {magic!r})")
        (inf_sid,) = struct.unpack("<Q", handle.read(8))
        (universe_len,) = struct.unpack("<Q", handle.read(8))
        if universe_len == _RANGE_SENTINEL:
            (end,) = struct.unpack("<Q", handle.read(8))
            universe: Sequence[int] = range(end)
        else:
            universe = _read_ids(handle, universe_len)
        (num_lists,) = struct.unpack("<Q", handle.read(8))
        lists: Dict[int, List[int]] = {}
        for __ in range(num_lists):
            header = handle.read(12)
            if len(header) != 12:
                raise DatasetError(f"{path}: truncated list header")
            element, length = struct.unpack("<QI", header)
            lists[element] = _read_ids(handle, length)
    return InvertedIndex(lists, universe, inf_sid)


# --------------------------------------------------------------------------
# The array index: CSR arrays plus bitmap rows for the densest lists
# --------------------------------------------------------------------------


def _debug_check_layout(index: "HybridInvertedIndex") -> "HybridInvertedIndex":
    """REPRO_CHECK=1 hook: validate the array layout after a build.

    The environment test runs first so the disabled path costs one dict
    lookup and never imports :mod:`repro.core.selfcheck`.
    """
    if os.environ.get("REPRO_CHECK", "") not in ("", "0"):
        from ..core.selfcheck import check_array_layout

        check_array_layout(index)
    return index


#: Cap on bitmap rows per index: rows cost ``ceil(inf_sid / 64)`` words
#: each, and past the densest ~1k elements the probe traffic per extra row
#: no longer pays for the memory (Zipf mass concentrates hard at the top).
_MAX_DENSE_LISTS = 1024

#: Bits per bitmap word; rows are packed little-endian (bit ``sid & 63`` of
#: word ``sid >> 6`` is set iff ``sid`` is in the element's list).
_WORD_BITS = 64


class HybridInvertedIndex:
    """All inverted lists of ``S`` in contiguous numpy arrays, plus uint64
    bitmap rows for the densest lists.

    The CSR (compressed sparse row) layout over the dense element domain
    ``[0, num_slots)`` holds every list and is authoritative:

    * ``offsets`` — int64, shape ``(num_slots + 1,)``; the list of element
      ``e`` is ``values[offsets[e]:offsets[e + 1]]`` (empty for elements
      not in ``S``);
    * ``values``  — the postings (ascending set ids per list), int32 when
      ids fit, int64 otherwise;
    * ``keyed``   — int64 mirror ``element * stride + sid`` with
      ``stride = max(inf_sid, 1)``; globally sorted, which is what lets
      :mod:`repro.index.kernels` answer any batch of (list, target) probes
      with one ``np.searchsorted``.

    On top of it, the densest lists also get a bitmap row:

    * ``dense_ids``  — int64, sorted: the elements given a bitmap row;
    * ``dense_map``  — int64, length ``num_slots``: element → row index,
      ``-1`` for sparse elements (rebuilt on unpickling, never pickled);
    * ``bitmap``     — uint64, flat ``num_dense * words`` with
      ``words = ceil(inf_sid / 64)``; bit ``sid`` of row ``r`` (i.e. bit
      ``sid & 63`` of word ``r * words + (sid >> 6)``) is set iff
      ``sid ∈ I[dense_ids[r]]``.

    The superstep kernel (:func:`repro.index.kernels
    .cross_cut_collection_hybrid`) answers probes against dense lists by
    masking at most two bitmap words and bit-scanning, falls back to
    ``keyed`` for the rare cross-word gaps, and gallops the sparse lists
    from per-slot cursors — all while reproducing the exact candidate
    sequence of the scalar loop. Everything else (:meth:`record_probe`,
    :meth:`supersets_of`) reads the CSR arrays only.

    An element goes dense when its list length reaches
    ``dense_threshold`` — by default the break-even density suggested by
    :func:`repro.core.estimate.element_frequency_profile` (≈ one posting
    per bitmap word) — capped at the ``max_dense`` longest lists.
    Degenerate layouts are legal: ``dense_threshold=1`` packs every
    non-empty list, ``max_dense=0`` packs none.

    It shares ``universe``/``inf_sid``/``construction_cost`` with
    :class:`~repro.index.inverted.InvertedIndex` but not its mapping
    surface: lists are read through :meth:`get_list` and
    :meth:`list_length`. It does not support mutation (``append_set``) or
    local-index construction, and the tree methods never bind it — they
    probe python lists on every backend.
    """

    __slots__ = (
        "offsets",
        "values",
        "keyed",
        "stride",
        "inf_sid",
        "universe",
        "_construction_cost",
        "dense_ids",
        "dense_map",
        "bitmap",
        "bitmap_words",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        values: np.ndarray,
        keyed: np.ndarray,
        inf_sid: int,
        universe: Sequence[int],
        construction_cost: int = 0,
        *,
        dense_ids: np.ndarray,
        bitmap: np.ndarray,
    ) -> None:
        self.offsets = offsets
        self.values = values
        self.keyed = keyed
        self.inf_sid = inf_sid
        self.stride = max(inf_sid, 1)
        self.universe = universe
        self._construction_cost = construction_cost
        self.dense_ids = dense_ids
        self.bitmap = bitmap
        self.bitmap_words = (inf_sid + _WORD_BITS - 1) // _WORD_BITS
        # element -> bitmap row; rebuilt on unpickling, never pickled.
        dense_map = np.full(self.num_slots, -1, dtype=np.int64)
        if dense_ids.shape[0]:
            dense_map[dense_ids] = np.arange(dense_ids.shape[0], dtype=np.int64)
        self.dense_map = dense_map

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        s_collection: SetCollection,
        dense_threshold: Optional[int] = None,
        max_dense: int = _MAX_DENSE_LISTS,
    ) -> "HybridInvertedIndex":
        """Build the global index for ``S`` in one vectorized pass.

        Elements are flattened once, postings are grouped per element with
        a stable argsort (insertion order is ascending set id, so every
        list comes out sorted without per-list work), and offsets fall out
        of a ``bincount``/``cumsum``. Bitmap rows are then packed for the
        dense lists (see the class docstring).
        """
        n = len(s_collection)
        records = s_collection.records
        total = sum(len(rec) for rec in records)
        elems = np.fromiter(chain.from_iterable(records), dtype=np.int64, count=total)
        lens = np.fromiter((len(rec) for rec in records), dtype=np.int64, count=n)
        sid_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        sids = np.repeat(np.arange(n, dtype=sid_dtype), lens)
        order = np.argsort(elems, kind="stable")
        elems_sorted = elems[order]
        values = sids[order]
        num_slots = int(elems_sorted[-1]) + 1 if total else 0
        stride = max(n, 1)
        _check_key_space(num_slots, stride)
        counts = np.bincount(elems, minlength=num_slots)
        offsets = np.zeros(num_slots + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        keyed = elems_sorted * stride + values
        return cls._pack(
            offsets, values, keyed, n, range(n), total, dense_threshold, max_dense
        )

    @classmethod
    def from_index(
        cls,
        index: InvertedIndex,
        dense_threshold: Optional[int] = None,
        max_dense: int = _MAX_DENSE_LISTS,
    ) -> "HybridInvertedIndex":
        """Repack an existing :class:`InvertedIndex` (global or local)."""
        elements = sorted(e for e, lst in index.lists.items() if len(lst))
        num_slots = (elements[-1] + 1) if elements else 0
        inf_sid = index.inf_sid
        stride = max(inf_sid, 1)
        _check_key_space(num_slots, stride)
        sid_dtype = np.int32 if inf_sid <= np.iinfo(np.int32).max else np.int64
        offsets = np.zeros(num_slots + 1, dtype=np.int64)
        parts = []
        for e in elements:
            lst = index.lists[e]
            offsets[e + 1] = len(lst)
            parts.append(np.asarray(lst, dtype=sid_dtype))
        np.cumsum(offsets, out=offsets)
        values = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=sid_dtype)
        )
        elems = np.repeat(
            np.asarray(elements, dtype=np.int64),
            np.diff(offsets)[np.asarray(elements, dtype=np.int64)]
            if elements else np.zeros(0, dtype=np.int64),
        )
        keyed = elems * stride + values
        return cls._pack(
            offsets, values, keyed, inf_sid, index.universe,
            index.construction_cost, dense_threshold, max_dense,
        )

    @classmethod
    def _pack(
        cls,
        offsets: np.ndarray,
        values: np.ndarray,
        keyed: np.ndarray,
        inf_sid: int,
        universe: Sequence[int],
        construction_cost: int,
        dense_threshold: Optional[int],
        max_dense: int,
    ) -> "HybridInvertedIndex":
        """Pick the dense lists of finished CSR arrays, pack their bitmaps.

        Only the ``max_dense`` longest lists at or above ``dense_threshold``
        get a row. ``dense_threshold=None`` asks
        :func:`repro.core.estimate.element_frequency_profile` for the
        break-even length; ``max_dense=0`` skips that profile entirely.
        """
        counts = np.diff(offsets)
        if max_dense <= 0:
            dense_ids = np.zeros(0, dtype=np.int64)
        else:
            if dense_threshold is None:
                # Lazy import: core imports index; the reverse edge stays
                # call-time only.
                from ..core.estimate import element_frequency_profile

                profile = element_frequency_profile(
                    counts[counts > 0].tolist(), num_sets=inf_sid
                )
                dense_threshold = profile.suggested_threshold
            dense_threshold = max(int(dense_threshold), 1)
            dense_ids = np.flatnonzero(counts >= dense_threshold).astype(np.int64)
            if dense_ids.shape[0] > max_dense:
                densest = np.argsort(counts[dense_ids], kind="stable")[::-1][:max_dense]
                dense_ids = np.sort(dense_ids[densest])
        words = (inf_sid + _WORD_BITS - 1) // _WORD_BITS
        bitmap = np.zeros(dense_ids.shape[0] * words, dtype=np.uint64)
        one = np.uint64(1)
        for row, element in enumerate(dense_ids.tolist()):
            sids = values[offsets[element]: offsets[element + 1]].astype(np.int64)
            np.bitwise_or.at(
                bitmap,
                row * words + (sids >> 6),
                np.left_shift(one, (sids & 63).astype(np.uint64)),
            )
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.csr_builds")
            reg.inc("index.csr_postings", int(values.shape[0]))
            reg.inc("index.hybrid_dense_lists", int(dense_ids.shape[0]))
        return _debug_check_layout(cls(
            offsets, values, keyed,
            inf_sid=inf_sid,
            universe=universe,
            construction_cost=construction_cost,
            dense_ids=dense_ids,
            bitmap=bitmap,
        ))

    # -- pickling (how parallel_join's worker nodes get the index) -------

    def __getstate__(self) -> Tuple[Any, ...]:
        return (
            np.asarray(self.offsets),
            np.asarray(self.values),
            np.asarray(self.keyed),
            self.inf_sid,
            self.universe,
            self._construction_cost,
            np.asarray(self.dense_ids),
            np.asarray(self.bitmap),
        )

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        offsets, values, keyed, inf_sid, universe, cost, dense_ids, bitmap = state
        self.__init__(  # type: ignore[misc]
            offsets, values, keyed, inf_sid, universe, cost,
            dense_ids=dense_ids, bitmap=bitmap,
        )

    # -- accessors --------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Size of the dense element domain (``max element in S`` + 1)."""
        return len(self.offsets) - 1

    @property
    def num_dense(self) -> int:
        """Number of elements carrying a bitmap row."""
        return int(self.dense_ids.shape[0])

    def get_list(self, element: int) -> np.ndarray:
        """Zero-copy numpy view of element's list (empty view if absent)."""
        if 0 <= element < self.num_slots:
            return self.values[self.offsets[element]: self.offsets[element + 1]]
        return self.values[:0]

    def list_length(self, element: int) -> int:
        """``|I[e]|`` — 0 for elements not in ``S``."""
        if 0 <= element < self.num_slots:
            return int(self.offsets[element + 1] - self.offsets[element])
        return 0

    def record_probe(
        self, record: Sequence[int]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-list probe arrays ``(bases, starts, ends)`` for one record.

        ``bases[i] = e_i * stride`` keys the record's i-th list in
        ``keyed``; ``starts``/``ends`` bound it in ``values``. Returns
        ``None`` when any element has an empty list (such a record can
        never find a superset — the caller skips it, as the Python
        framework does).
        """
        elems = np.asarray(record, dtype=np.int64)
        if elems.shape[0] == 0 or (elems.shape[0] and int(elems[-1]) >= self.num_slots):
            # Records are stored sorted, so the last element is the max.
            return None
        starts = self.offsets[elems]
        ends = self.offsets[elems + 1]
        if np.any(starts == ends):
            return None
        return elems * self.stride, starts, ends

    def supersets_of(self, record: Sequence[int]) -> np.ndarray:
        """Positions of indexed sets containing every element of ``record``.

        The point-query face of the containment join: the record's
        inverted lists are intersected smallest-first, with membership
        answered by one batched ``np.searchsorted`` per list, so the cost
        is proportional to the smallest list, not to ``|S|``. Bitmap rows
        are not consulted: on short probes the CSR intersection measured
        faster than AND-ing rows. Returns an ascending int64 array of set
        ids; an empty record matches every indexed set. Positions equal
        external sids only for a global index (``universe ==
        range(inf_sid)``) — the only kind :class:`IncrementalIndex` builds.
        """
        elems = sorted({int(e) for e in record})
        if not elems:
            return np.arange(self.inf_sid, dtype=np.int64)
        lists: List[np.ndarray] = []
        for e in elems:
            lst = self.get_list(e)
            if lst.shape[0] == 0:
                return np.zeros(0, dtype=np.int64)
            lists.append(lst)
        lists.sort(key=lambda lst: lst.shape[0])
        cand = lists[0].astype(np.int64)
        for lst in lists[1:]:
            if cand.shape[0] == 0:
                break
            # side="left": a hit lands exactly on its occurrence, so after
            # clipping, a miss (insertion point == len) compares unequal.
            idx = np.searchsorted(lst, cand)
            np.minimum(idx, lst.shape[0] - 1, out=idx)
            cand = cand[lst[idx] == cand]
        return cand

    @property
    def construction_cost(self) -> int:
        """Tokens touched while building — ``Σ|S|`` in the paper's cost model."""
        return self._construction_cost

    def size_in_entries(self) -> int:
        """Total number of postings, an analytic memory proxy."""
        return int(self.values.shape[0])

    def nbytes(self) -> int:
        """Bytes held by the CSR arrays, the bitmap rows and the dense-id
        table."""
        return int(
            self.offsets.nbytes + self.values.nbytes + self.keyed.nbytes
            + self.dense_ids.nbytes + self.bitmap.nbytes
        )


def _check_key_space(num_slots: int, stride: int) -> None:
    """Composite keys must fit int64 with headroom for the probe targets."""
    if num_slots and (num_slots + 1) * stride >= 2**63:
        raise InvalidParameterError(
            "element universe x set count too large for the CSR composite "
            f"key space ({num_slots} slots x stride {stride}); use the "
            "python backend"
        )


# -- incremental maintenance (delta segment + tombstones + epoch swaps) -------

#: A delta may grow to this many tokens before the ``delta_ratio`` trigger
#: applies, so a small (or empty) base does not force a rebuild per append.
_DELTA_TOKEN_FLOOR = 4096

#: Bytes-per-token model for the python-object delta (list slot + boxed int
#: + dict overhead amortised); only used for admission-control estimates.
_DELTA_TOKEN_BYTES = 64


class DeltaSegment:
    """The mutable in-memory tail of an :class:`IncrementalIndex`.

    Appends land here as plain python postings lists per element. Sids are
    handed out monotonically, so appending keeps every list sorted — the
    same invariant :meth:`repro.index.inverted.InvertedIndex.append_set`
    relies on. A delta stays small by construction: compaction folds it
    into the frozen CSR base once it outgrows ``delta_ratio`` of the base.
    """

    __slots__ = ("postings", "records", "tokens")

    def __init__(self) -> None:
        self.postings: Dict[int, List[int]] = {}
        self.records: Dict[int, Tuple[int, ...]] = {}
        self.tokens = 0

    def append(self, sid: int, record: Tuple[int, ...]) -> None:
        """Add one canonical (sorted, deduped) record under ``sid``."""
        for e in record:
            self.postings.setdefault(e, []).append(sid)
        self.records[sid] = record
        self.tokens += len(record)

    def supersets_of(self, elems: Sequence[int], sid_bound: int) -> List[int]:
        """Delta sids ``< sid_bound`` whose record contains every element.

        ``elems`` must be sorted and deduplicated. Candidates come from
        the shortest posting list; each is verified against its record
        tuple by binary search. Output is ascending (postings are).
        """
        smallest: Optional[List[int]] = None
        for e in elems:
            lst = self.postings.get(e)
            if not lst:
                return []
            if smallest is None or len(lst) < len(smallest):
                smallest = lst
        if smallest is None:
            # Empty query: every set is a superset of the empty set.
            # ``records`` iterates in insertion order == ascending sid.
            return [sid for sid in self.records if sid < sid_bound]
        out: List[int] = []
        for sid in smallest:
            if sid >= sid_bound:
                break
            rec = self.records[sid]
            if all(contains_sorted(rec, e) for e in elems):
                out.append(sid)
        return out


class IndexSnapshot:
    """An immutable epoch view over an :class:`IncrementalIndex`.

    ``base`` (with its position → external-sid map ``base_sids``) is a
    frozen array index over the records that were live at the last
    compaction; ``delta`` holds everything appended since. ``sid_bound``
    pins the append high-watermark — later appends mutate the shared delta
    postings but are filtered here — and ``tombstones`` is a frozen copy
    of the deletes. A compaction replaces the writer's base *and* delta
    with brand-new objects, so a pinned snapshot keeps serving exactly the
    state it captured, without blocking and without ever observing a
    half-compacted structure.
    """

    __slots__ = ("epoch", "base", "base_sids", "delta", "sid_bound", "tombstones")

    def __init__(
        self,
        epoch: int,
        base: HybridInvertedIndex,
        base_sids: np.ndarray,
        delta: DeltaSegment,
        sid_bound: int,
        tombstones: FrozenSet[int],
    ) -> None:
        self.epoch = epoch
        self.base = base
        self.base_sids = base_sids
        self.delta = delta
        self.sid_bound = sid_bound
        self.tombstones = tombstones

    def supersets_of(self, record: Sequence[int]) -> List[int]:
        """External sids of live sets containing every element of ``record``.

        Ascending: base positions map through the ascending ``base_sids``,
        every delta sid postdates every base sid, and tombstones only
        remove entries.
        """
        elems = sorted({int(e) for e in record})
        hits: List[int] = []
        if self.base.inf_sid:
            positions = self.base.supersets_of(elems)
            if positions.shape[0]:
                hits = self.base_sids[positions].tolist()
        hits.extend(self.delta.supersets_of(elems, self.sid_bound))
        tomb = self.tombstones
        if tomb:
            hits = [s for s in hits if s not in tomb]
        return hits


class IncrementalIndex:
    """A mutable set-containment index: frozen base + delta + tombstones.

    The resident server's workhorse. Writes:

    * :meth:`append` assigns the next sid and lands the record in the
      mutable :class:`DeltaSegment`;
    * :meth:`delete` tombstones a sid (base and delta alike);
    * :meth:`compact` rebuilds the frozen base from every live record,
      drops the delta and the tombstones, and bumps the epoch. It runs
      automatically once tombstones exceed ``compact_ratio`` of the live
      population (generalising the broker's scheme) or the delta outgrows
      ``delta_ratio`` of the base's postings.

    Reads go through :meth:`snapshot` (see :class:`IndexSnapshot`); the
    single-writer, non-interleaved-walk contract of
    :class:`~repro.index.prefix_tree.TrieSnapshot` applies here too.

    External sids are dense from 0 and stable across compactions: the base
    packs live records in ascending sid order and ``base_sids`` maps base
    positions back to external sids.
    """

    def __init__(
        self,
        s_collection: Optional[SetCollection] = None,
        *,
        compact_ratio: float = 0.5,
        delta_ratio: float = 0.25,
        auto_compact: bool = True,
    ) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise InvalidParameterError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        if delta_ratio <= 0.0:
            raise InvalidParameterError(
                f"delta_ratio must be positive, got {delta_ratio}"
            )
        self._compact_ratio = compact_ratio
        self._delta_ratio = delta_ratio
        self._auto_compact = auto_compact
        self._live: Dict[int, Tuple[int, ...]] = {}
        if s_collection is not None:
            for sid, rec in enumerate(s_collection.records):
                self._live[sid] = rec
        self._next_sid = len(self._live)
        self._base, self._base_sids = self._build_base()
        self._delta = DeltaSegment()
        self._tombstones: Set[int] = set()
        # Tombstoned records keep their payload here until the next
        # compaction: the frozen base still carries their postings, and
        # :meth:`dump_state` must serialize the base *content* (not just
        # the live view) to reproduce identical CSR arrays on restore.
        self._dead_records: Dict[int, Tuple[int, ...]] = {}
        self._epoch = 0

    def _build_base(self) -> Tuple[HybridInvertedIndex, np.ndarray]:
        pairs = sorted(self._live.items())
        collection = SetCollection((rec for _, rec in pairs), validate=False)
        # No bitmap rows: the base's only reader is the CSR intersection
        # in :meth:`HybridInvertedIndex.supersets_of`.
        base = HybridInvertedIndex.build(collection, max_dense=0)
        base_sids = np.fromiter(
            (sid for sid, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        return base, base_sids

    # -- introspection ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Bumped by every compaction; snapshots carry the epoch they pin."""
        return self._epoch

    @property
    def num_tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def delta_tokens(self) -> int:
        return self._delta.tokens

    def __len__(self) -> int:
        """Live records (appends minus deletes)."""
        return len(self._live)

    def get_record(self, sid: int) -> Optional[Tuple[int, ...]]:
        """The live record under ``sid``, or None if absent/tombstoned."""
        return self._live.get(sid)

    def nbytes(self) -> int:
        """Approximate resident bytes: exact for the frozen arrays, a
        per-token object model for the python delta. Admission control's
        input."""
        delta_bytes = _DELTA_TOKEN_BYTES * (
            self._delta.tokens + len(self._delta.records)
        )
        return (
            self._base.nbytes() + int(self._base_sids.nbytes) + delta_bytes
        )

    # -- mutation -----------------------------------------------------------

    def append(self, record: Sequence[int]) -> int:
        """Append one set; returns its (dense, stable) sid."""
        rec = tuple(sorted({int(e) for e in record}))
        if not rec:
            raise InvalidParameterError("cannot append an empty set")
        if rec[0] < 0:
            raise InvalidParameterError(
                f"element ids must be non-negative, got {rec[0]}"
            )
        sid = self._next_sid
        self._next_sid = sid + 1
        self._live[sid] = rec
        self._delta.append(sid, rec)
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.incremental_appends")
        if self._auto_compact and self._delta.tokens > self._delta_ratio * max(
            self._base.size_in_entries(), _DELTA_TOKEN_FLOOR
        ):
            self.compact()
        return sid

    def delete(self, sid: int) -> bool:
        """Tombstone one sid; True if it was live (no-op otherwise)."""
        record = self._live.pop(sid, None)
        if record is None:
            return False
        self._tombstones.add(sid)
        self._dead_records[sid] = record
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.incremental_deletes")
        if self._auto_compact and len(
            self._tombstones
        ) > self._compact_ratio * max(len(self._live), 1):
            self.compact()
        return True

    def compact(self) -> int:
        """Fold delta + tombstones into a fresh base; bump the epoch.

        Pinned snapshots keep the old base/delta objects and stay fully
        readable throughout.
        """
        self._base, self._base_sids = self._build_base()
        self._delta = DeltaSegment()
        self._tombstones = set()
        self._dead_records = {}
        self._epoch += 1
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("index.incremental_compactions")
        return self._epoch

    # -- serialization -------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """The exact logical state as JSON-serializable primitives.

        ``base`` lists the records the frozen base was built from — the
        live-at-last-compaction set, *including* records tombstoned since
        (their postings are still packed in the CSR arrays, so they are
        part of the byte-exact footprint). ``delta`` lists every record
        appended since the last compaction, tombstoned or not, in append
        order. :meth:`restore_state` replays this into a structurally
        identical index: same arrays, same ``nbytes``, same epoch.
        """
        base: List[List[object]] = []
        for sid in self._base_sids.tolist():
            record = self._live.get(sid)
            if record is None:
                record = self._delta.records.get(sid)
            if record is None:
                record = self._dead_records[sid]
            base.append([sid, list(record)])
        return {
            "epoch": self._epoch,
            "next_sid": self._next_sid,
            "base": base,
            "delta": [
                [sid, list(record)]
                for sid, record in self._delta.records.items()
            ],
            "tombstones": sorted(self._tombstones),
        }

    @classmethod
    def restore_state(
        cls,
        payload: Mapping[str, object],
        *,
        compact_ratio: float = 0.5,
        delta_ratio: float = 0.25,
        auto_compact: bool = True,
    ) -> "IncrementalIndex":
        """Rebuild the exact index a :meth:`dump_state` payload captured.

        Construction order mirrors the live history: the base is built
        from the dumped base records alone, the delta is re-appended on
        top, then tombstones are re-applied — so postings, ``base_sids``
        and the delta's token counts come out identical without ever
        consulting the auto-compaction triggers.
        """
        index = cls(
            None,
            compact_ratio=compact_ratio,
            delta_ratio=delta_ratio,
            auto_compact=auto_compact,
        )
        index._live = {
            int(sid): tuple(int(e) for e in record)
            for sid, record in payload["base"]  # type: ignore[union-attr]
        }
        index._base, index._base_sids = index._build_base()
        for sid, record in payload["delta"]:  # type: ignore[union-attr]
            rec = tuple(int(e) for e in record)
            index._live[int(sid)] = rec
            index._delta.append(int(sid), rec)
        for sid in payload["tombstones"]:  # type: ignore[union-attr]
            record = index._live.pop(int(sid), None)
            index._tombstones.add(int(sid))
            if record is not None:
                index._dead_records[int(sid)] = record
        index._next_sid = int(payload["next_sid"])  # type: ignore[arg-type]
        index._epoch = int(payload["epoch"])  # type: ignore[arg-type]
        return index

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        """Pin the current epoch for reading (cheap: no array copies)."""
        return IndexSnapshot(
            self._epoch,
            self._base,
            self._base_sids,
            self._delta,
            self._next_sid,
            frozenset(self._tombstones),
        )

    def supersets_of(self, record: Sequence[int]) -> List[int]:
        """Query the current state through a fresh snapshot."""
        return self.snapshot().supersets_of(record)
