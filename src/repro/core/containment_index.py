"""A reusable containment-query index over one collection.

The paper's framework computes an *all-pair* join, but its §III-B machinery
("all pair set containment search") works one query at a time: probe the
query's inverted lists cross-cutting style. :class:`ContainmentIndex`
packages that as a library feature — index a collection once, then ask

* :meth:`supersets_of` — which indexed sets **contain** the query
  (cross-cutting probe of the query's inverted lists, Algorithm 1's inner
  loop); this is the publish/subscribe direction, and
* :meth:`subsets_of` — which indexed sets **are contained in** the query
  (:meth:`~repro.index.prefix_tree.PrefixTree.subsets_of` walks a lazily
  built, frequency-ordered prefix tree over the indexed sets, descending
  only through elements the query has — each indexed subset is reported
  exactly once via its end marker).

Both directions accept either element ids or raw values when the indexed
collection was built through an :class:`~repro.data.collection.ElementDictionary`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

from ..data.collection import SetCollection
from ..index.inverted import InvertedIndex
from ..index.prefix_tree import PrefixTree
from .framework import cross_cut_record
from .order import GlobalOrder, build_order
from .results import PairListSink
from .stats import JoinStats

__all__ = ["ContainmentIndex"]


class ContainmentIndex:
    """Index one :class:`SetCollection` for repeated containment queries."""

    def __init__(self, collection: SetCollection, order: Optional[GlobalOrder] = None):
        self._collection = collection
        self._index = InvertedIndex.build(collection)
        self._order = order if order is not None else build_order(collection)
        self._tree: Optional[PrefixTree] = None  # built on first subsets_of

    def __len__(self) -> int:
        return len(self._collection)

    @property
    def collection(self) -> SetCollection:
        """The indexed collection (ids in query answers refer to it)."""
        return self._collection

    @property
    def inverted_index(self) -> InvertedIndex:
        """The underlying inverted index, for advanced reuse."""
        return self._index

    # -- growth --------------------------------------------------------------

    def add(self, record: Iterable[Hashable]) -> int:
        """Append one set to the indexed collection, returning its id.

        The inverted index grows incrementally (appended ids stay sorted);
        the subsets-of prefix tree is invalidated and lazily rebuilt, and
        the global order keeps its original frequency snapshot — element
        *order* is a tie-breaking heuristic, so a stale snapshot affects
        only performance, never answers.
        """
        sid = self._collection.append(record)
        appended = self._collection[sid]
        self._index.append_set(appended)
        if appended and appended[-1] >= len(self._order.rank):
            self._order.extend_to(appended[-1] + 1)
        self._tree = None
        return sid

    # -- queries -----------------------------------------------------------

    def _encode(self, query: Iterable[Hashable]) -> Optional[List[int]]:
        """Raw values -> element ids; None when a value was never indexed
        (then no indexed set can relate to the query in the superset
        direction, and the value is simply ignorable for subsets)."""
        dictionary = self._collection.dictionary
        ids: List[int] = []
        missing = False
        for value in query:
            if isinstance(value, int) and dictionary is None:
                ids.append(value)
                continue
            if dictionary is None:
                raise TypeError(
                    "query has non-integer elements but the indexed "
                    "collection was not built through a dictionary"
                )
            eid = dictionary.encode_existing(value)
            if eid is None:
                missing = True
            else:
                ids.append(eid)
        return None if missing else ids

    def supersets_of(
        self, query: Iterable[Hashable], stats: Optional[JoinStats] = None
    ) -> List[int]:
        """Ids of indexed sets ``S`` with ``query ⊆ S``, ascending.

        An empty query is contained in everything.
        """
        ids = self._encode(query)
        if ids is None:
            # Some query element never occurs in the collection: nothing
            # can contain the query.
            return []
        if not ids:
            return list(self._index.universe)
        lists = self._index.get_lists(set(ids))
        if not min(lists, key=len):
            return []
        sink = PairListSink()
        cross_cut_record(
            0, sorted(lists, key=len), self._index.universe[0],
            self._index.inf_sid, sink, True, stats,
        )
        return [sid for __, sid in sink.pairs]

    def subsets_of(self, query: Iterable[Hashable]) -> List[int]:
        """Ids of indexed sets ``S`` with ``S ⊆ query``, ascending.

        Walks the prefix tree of the indexed collection, descending only
        through elements present in the query; cost is proportional to the
        part of the tree the query covers, not the collection size.
        """
        dictionary = self._collection.dictionary
        ids = set()
        for value in query:
            if isinstance(value, int) and dictionary is None:
                ids.add(value)
            elif dictionary is not None:
                eid = dictionary.encode_existing(value)
                if eid is not None:
                    ids.add(eid)
            else:
                raise TypeError(
                    "query has non-integer elements but the indexed "
                    "collection was not built through a dictionary"
                )
        if self._tree is None:
            self._tree = PrefixTree.build(self._collection, self._order)
        return self._tree.subsets_of(ids)

    def join(self, r_collection: SetCollection, method: str = "lcjoin", **kwargs):
        """All-pair join ``r_collection ⋈⊆ indexed collection``, reusing
        this index's inverted lists where the method supports it."""
        from .api import set_containment_join

        if method in ("framework", "framework_et", "tree", "tree_et",
                      "all_partition", "lcjoin", "bnl", "pretti", "limit"):
            kwargs.setdefault("index", self._index)
        return set_containment_join(
            r_collection, self._collection, method=method, **kwargs
        )
