"""Prefix tree (trie) over the subset-side collection ``R`` (paper §IV-A).

Each set in ``R`` is inserted with its elements sorted in a global order
(descending frequency by default), so sets sharing a prefix share tree
nodes and the tree-based join shares their inverted-list probes.

Two deviations from the paper's idealised picture, both forced by real data:

* **End-marker leaves.** The paper assumes every set corresponds to a unique
  leaf. Real collections contain duplicate sets and sets that are prefixes
  of other sets. We terminate every inserted set with an *end-marker* child
  node that carries the set ids (``terminal_rids``). An end-marker has no
  element; during the join its "inverted list" is the index's universe id
  list, so a probe on it always hits and Algorithms 2/3 run unmodified.
* **Multi-element nodes.** The paper notes the prefix tree can be replaced
  by a Patricia tree (radix trie) where single-child chains are merged. A
  node therefore carries a *tuple* of elements; the join probes the
  candidate in each of the node's lists. :meth:`PrefixTree.compress`
  performs the merge in place.

Join-time state (``max_sid``, ``next_max``, ``rid_list``, per-list cursors)
lives on the nodes and is (re)initialised by the join driver, so one tree can
be reused across runs and across partition-local indexes.

The same trie answers the reverse question, "which stored sets are subsets
of this one?" (the structure PRETTI and LIMIT build over the subset side):
:meth:`PrefixTree.subsets_of` is the one subset walk in the package. It
serves :meth:`~repro.core.containment_index.ContainmentIndex.subsets_of`
over a frequency-ordered batch tree, and, through
:class:`IncrementalPrefixTree`, the resident server's subset queries and
the pubsub broker's matching.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.order import GlobalOrder
from ..data.collection import SetCollection
from ..errors import InvalidParameterError
from ..obs import registry as _obs

__all__ = ["TreeNode", "PrefixTree", "TrieSnapshot", "IncrementalPrefixTree"]

#: Shared empty rid-list; identity-compared nowhere, equality everywhere.
_EMPTY: Tuple[int, ...] = ()


class TreeNode:
    """One node of the prefix tree.

    ``elements`` is empty for the root and for end-marker leaves, a single
    element for ordinary prefix-tree nodes, and several elements for merged
    (Patricia) nodes. ``terminal_rids`` is non-None exactly on end-marker
    leaves and lists every ``R`` id whose set ends here (duplicates share).
    """

    __slots__ = (
        "elements",
        "children",
        "child_map",
        "terminal_rids",
        # join-time state, initialised by the join driver's bind step (not
        # here: skipping the writes keeps tree construction lean) ----------
        "inv",        # primary inverted list (or the index universe)
        "cur",        # cursor into ``inv``
        "more_invs",  # extra lists for merged Patricia nodes, else None
        "more_curs",
        "max_sid",
        "next_max",
        "rid_list",
        "heap",
        "only_child",
    )

    def __init__(self, elements: Tuple[int, ...] = ()) -> None:
        self.elements: Tuple[int, ...] = elements
        self.children: List["TreeNode"] = []
        self.child_map: Optional[Dict[int, "TreeNode"]] = None
        self.terminal_rids: Optional[List[int]] = None

    @property
    def is_end_marker(self) -> bool:
        """True for the virtual leaves that carry set ids."""
        return self.terminal_rids is not None

    def __repr__(self) -> str:
        tag = f"rids={self.terminal_rids}" if self.is_end_marker else f"e={self.elements}"
        return f"TreeNode({tag}, {len(self.children)} children)"


class PrefixTree:
    """Prefix tree over ``R`` under a :class:`~repro.core.order.GlobalOrder`."""

    def __init__(self, order: GlobalOrder) -> None:
        self.order = order
        self.root = TreeNode()
        self.root.child_map = {}
        self.num_sets = 0
        self.num_nodes = 1  # the root
        self.compressed = False
        # Distinct elements per partition anchor (first element), filled by
        # build() only, so the partitioned joins (§V) can build local
        # indexes without re-walking each subtree. Trees grown by insert()
        # (the incremental tries, compaction) have no reader for it.
        self.partition_elements: Dict[int, set] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        r_collection: SetCollection,
        order: GlobalOrder,
        compress: bool = False,
    ) -> "PrefixTree":
        """Insert every set of ``R`` (elements sorted in the global order).

        With ``compress=True`` the tree is path-compressed into a Patricia
        tree after construction.
        """
        tree = cls(order)
        anchors = tree.partition_elements
        for rid, record in enumerate(r_collection):
            ordered = order.sort_record(record)
            tree.insert(ordered, rid)
            if ordered:
                elements = anchors.get(ordered[0])
                if elements is None:
                    anchors[ordered[0]] = set(ordered)
                else:
                    elements.update(ordered)
        if compress:
            tree.compress()
        tree.freeze()
        return tree

    def insert(self, sorted_elements: Sequence[int], rid: int) -> None:
        """Insert one set (already sorted in the global order) with id ``rid``."""
        node = self.root
        for e in sorted_elements:
            cmap = node.child_map
            if cmap is None:
                # Fresh node, or one whose map was dropped by freeze():
                # rebuild from the existing children.
                cmap = {c.elements[0]: c for c in node.children if c.elements}
                node.child_map = cmap
            child = cmap.get(e)
            if child is None:
                child = TreeNode((e,))
                cmap[e] = child
                node.children.append(child)
                self.num_nodes += 1
            node = child
        end = None
        for c in node.children:
            if c.is_end_marker:
                end = c
                break
        if end is None:
            end = TreeNode()
            end.terminal_rids = []
            # End-markers first: they are the cheapest children to finalize.
            node.children.insert(0, end)
            self.num_nodes += 1
        end.terminal_rids.append(rid)
        self.num_sets += 1

    def freeze(self) -> None:
        """Drop the per-node child dictionaries once insertion is done.

        ``child_map`` only serves :meth:`insert`; the joins walk
        ``children`` directly. A dict per inner node is a large share of
        the tree's footprint (Fig 10 measures peak memory), so a frozen
        tree is substantially smaller. Inserting after freezing rebuilds
        the map lazily.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.child_map = None
            stack.extend(node.children)

    def compress(self) -> None:
        """Merge single-child chains in place (Patricia / radix trie, §IV-A).

        A node with exactly one child absorbs that child's elements and
        children, provided neither is an end-marker (end-markers carry rids
        and the root must stay element-free).
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root and not node.is_end_marker:
                while len(node.children) == 1 and not node.children[0].is_end_marker:
                    child = node.children[0]
                    node.elements = node.elements + child.elements
                    node.children = child.children
                    node.child_map = child.child_map
                    self.num_nodes -= 1
            stack.extend(node.children)
        self.compressed = True

    # -- incremental rebuild ------------------------------------------------

    def live_paths(
        self, dead: AbstractSet[int]
    ) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
        """``(path elements in tree order, surviving rids)`` per end-marker.

        Paths accumulate the element tuples along each root-to-end-marker
        walk, so they come out already sorted in ``self.order`` (for
        Patricia trees the merged tuples concatenate back into the original
        ordered prefix). End-markers whose rids are all in ``dead`` are
        skipped entirely.
        """
        stack: List[Tuple[TreeNode, Tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            for child in node.children:
                rids = child.terminal_rids
                if rids is not None:
                    live = [r for r in rids if r not in dead]
                    if live:
                        yield prefix, live
                else:
                    stack.append((child, prefix + child.elements))

    def compacted(self, dead: AbstractSet[int]) -> "PrefixTree":
        """A fresh tree without the ``dead`` rids; ``self`` is untouched.

        This is the build half of the epoch-swap scheme used by
        :class:`IncrementalPrefixTree`: the caller keeps serving reads from
        ``self`` while the survivor sets are re-inserted into a new tree,
        then swaps the reference. Paths from :meth:`live_paths` are already
        in tree order, so no re-sort happens here. The new tree shares
        ``self.order`` and is re-compressed when ``self`` was.
        """
        tree = PrefixTree(self.order)
        for prefix, rids in self.live_paths(dead):
            for rid in rids:
                tree.insert(prefix, rid)
        if self.compressed:
            tree.compress()
        tree.freeze()
        return tree

    # -- subset queries ------------------------------------------------------

    def subsets_of(
        self,
        ids: AbstractSet[int],
        dead: AbstractSet[int] = frozenset(),
        rid_bound: Optional[int] = None,
    ) -> List[int]:
        """Rids of the stored sets that are subsets of ``ids``, ascending.

        The walk descends only through children whose elements all appear
        in ``ids``, so the cost is proportional to the part of the tree the
        query covers, not to the number of stored sets. Rids in ``dead``
        and rids ``>= rid_bound`` are dropped from the answer; the caller
        must not mutate the tree or ``dead`` while the walk runs.
        """
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                rids = child.terminal_rids
                if rids is not None:
                    out.extend(rids)
                elif all(e in ids for e in child.elements):
                    stack.append(child)
        if rid_bound is not None:
            out = [r for r in out if r < rid_bound and r not in dead]
        elif dead:
            out = [r for r in out if r not in dead]
        out.sort()
        return out

    # -- introspection -----------------------------------------------------

    def iter_nodes(self) -> Iterable[TreeNode]:
        """All nodes, root included, in DFS order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def depth(self) -> int:
        """Longest root-to-leaf path length (in nodes below the root)."""
        best = 0
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if not node.children and d > best:
                best = d
            for c in node.children:
                stack.append((c, d + 1))
        return best

    def distinct_elements(self) -> set:
        """The element ids appearing anywhere in the tree."""
        out: set = set()
        for node in self.iter_nodes():
            out.update(node.elements)
        return out

    def partition_roots(self) -> List[Tuple[int, "TreeNode"]]:
        """The root's element children as ``(anchor_element, subtree)`` pairs.

        The paper's partitioner (§V-A) groups ``R`` sets by their smallest
        element in the global order — which is exactly the subtree rooted at
        each child of the tree root. End-marker children of the root (sets
        that are empty after ordering — impossible for valid input) are
        excluded.
        """
        return [
            (c.elements[0], c) for c in self.root.children if not c.is_end_marker
        ]


# -- incremental maintenance (epoch-swapped snapshots) ------------------------


class TrieSnapshot:
    """An immutable epoch view over an :class:`IncrementalPrefixTree`.

    The snapshot pins the tree object, a frozen copy of the tombstone set
    and the rid high-watermark at creation time. Later inserts land in the
    shared tree but carry rids ``>= rid_bound`` and are filtered at the
    end-markers; later deletes mutate the writer's tombstone set, not the
    frozen copy here; and a compaction swaps the writer onto a *new* tree,
    leaving this one intact. A pinned reader therefore never blocks and
    never observes a half-compacted structure.

    The contract is single-writer, non-interleaved walks: a
    :meth:`subsets_of` traversal must not be suspended mid-iteration while
    the writer mutates (the serve loop guarantees this by handling requests
    to completion, one at a time).
    """

    __slots__ = ("epoch", "tree", "dead", "rid_bound", "live_count")

    def __init__(
        self,
        epoch: int,
        tree: PrefixTree,
        dead: FrozenSet[int],
        rid_bound: int,
        live_count: int,
    ) -> None:
        self.epoch = epoch
        self.tree = tree
        self.dead = dead
        self.rid_bound = rid_bound
        self.live_count = live_count

    def subsets_of(self, elements: Iterable[int]) -> List[int]:
        """Rids of the sets live at this epoch that are subsets of ``elements``."""
        return self.tree.subsets_of(set(elements), self.dead, self.rid_bound)

    def __len__(self) -> int:
        return self.live_count


class IncrementalPrefixTree:
    """A prefix tree with inserts, tombstone deletes and epoch compaction.

    The one incremental subset trie: the resident server keeps its stored
    sets in one (rids are index sids) and the pubsub
    :class:`~repro.pubsub.broker.Broker` its subscriptions in another (rids
    are subscription ids). Inserts go straight into the live tree under a
    dense, monotone rid discipline; deletes are tombstones; and once
    tombstones exceed ``compact_ratio`` of the live population the tree is
    rebuilt without them via :meth:`PrefixTree.compacted` and swapped in
    under a new epoch. Readers hold :meth:`snapshot` views and are never
    invalidated by the swap.

    Elements are non-negative ints ordered by an identity
    :class:`~repro.core.order.GlobalOrder` that grows with the universe —
    frequency tuning is pointless under churn.
    """

    def __init__(
        self, compact_ratio: float = 0.5, *, auto_compact: bool = True
    ) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise InvalidParameterError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        self._order = GlobalOrder([], "element_id")
        self._tree = PrefixTree(self._order)
        self._dead: Set[int] = set()
        # Live rids by membership, not by count: after a compaction wipes
        # the tombstone set, a count alone cannot tell "already compacted
        # away" from "still live" for an old rid.
        self._members: Set[int] = set()
        self._epoch = 0
        self._next_rid = 0
        self._compact_ratio = compact_ratio
        self._auto_compact = auto_compact

    # -- introspection ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Bumped by every compaction; snapshots carry the epoch they pin."""
        return self._epoch

    @property
    def live_count(self) -> int:
        return len(self._members)

    @property
    def dead_count(self) -> int:
        return len(self._dead)

    @property
    def tree(self) -> PrefixTree:
        """The live tree (for footprint metering; do not mutate)."""
        return self._tree

    def __len__(self) -> int:
        return len(self._members)

    # -- mutation -----------------------------------------------------------

    def insert(self, elements: Iterable[int], rid: Optional[int] = None) -> int:
        """Insert one set; returns its rid.

        Rids are assigned densely from 0. Passing ``rid`` explicitly is an
        assert-sync seam for callers that mirror another structure's id
        space (the serve layer keeps trie rids equal to index sids, the
        broker equal to subscription ids): it must equal the next dense
        rid or the call raises.
        """
        record = sorted({int(e) for e in elements})
        if not record:
            raise InvalidParameterError("cannot insert an empty set")
        if record[0] < 0:
            raise InvalidParameterError(
                f"element ids must be non-negative, got {record[0]}"
            )
        if rid is None:
            rid = self._next_rid
        elif rid != self._next_rid:
            raise InvalidParameterError(
                f"rids are dense and monotone: expected {self._next_rid}, "
                f"got {rid}"
            )
        self._next_rid = rid + 1
        # The order is the identity: ascending ids are already tree order.
        self._order.extend_to(record[-1] + 1)
        self._tree.insert(record, rid)
        self._members.add(rid)
        return rid

    def mark_dead(self, rid: int) -> bool:
        """Tombstone one rid; True if it was live.

        A clean no-op (returns False) for rids never issued or already
        dead. Crossing the ``compact_ratio`` threshold triggers an
        immediate compaction when ``auto_compact`` is on.
        """
        if rid not in self._members:
            return False
        self._members.discard(rid)
        self._dead.add(rid)
        if self._auto_compact and len(self._dead) > self._compact_ratio * max(
            len(self._members), 1
        ):
            self.compact()
        return True

    def compact(self) -> int:
        """Rebuild without tombstones, swap the tree in, bump the epoch.

        Existing snapshots keep the old tree and stay fully readable
        throughout; only readers that take a *new* snapshot see the new
        epoch.
        """
        self._tree = self._tree.compacted(self._dead)
        self._dead = set()
        self._epoch += 1
        reg = _obs.ACTIVE
        if reg is not None:
            reg.inc("tree.trie_compactions")
        return self._epoch

    # -- serialization -------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """The exact logical state as JSON-serializable primitives.

        ``paths`` walks *every* end-marker — dead rids included, because
        their nodes are still in the tree until the next compaction and
        the node count is part of the byte-exact footprint. The
        incremental tree is uncompressed (one element per node), so its
        shape is a canonical function of this path set and
        :meth:`restore_state` reproduces ``num_nodes`` exactly.
        """
        return {
            "epoch": self._epoch,
            "next_rid": self._next_rid,
            "dead": sorted(self._dead),
            "paths": [
                [list(prefix), list(rids)]
                for prefix, rids in self._tree.live_paths(frozenset())
            ],
        }

    @classmethod
    def restore_state(
        cls,
        payload: Dict[str, object],
        *,
        compact_ratio: float = 0.5,
        auto_compact: bool = True,
    ) -> "IncrementalPrefixTree":
        """Rebuild the exact tree a :meth:`dump_state` payload captured.

        Inserts go through :attr:`PrefixTree.insert` directly — the dense
        monotone rid discipline of :meth:`insert` does not apply to a
        replayed path set, whose rids arrive in tree order, not issue
        order.
        """
        trie = cls(compact_ratio, auto_compact=auto_compact)
        paths = payload["paths"]
        universe = 0
        for prefix, _rids in paths:  # type: ignore[union-attr]
            if prefix:
                universe = max(universe, int(prefix[-1]) + 1)
        trie._order.extend_to(universe)
        for prefix, rids in paths:  # type: ignore[union-attr]
            elements = tuple(int(e) for e in prefix)
            for rid in rids:
                trie._tree.insert(elements, int(rid))
        trie._dead = {int(rid) for rid in payload["dead"]}  # type: ignore[union-attr]
        seen = {
            int(rid)
            for _prefix, rids in paths  # type: ignore[union-attr]
            for rid in rids
        }
        trie._members = seen - trie._dead
        trie._next_rid = int(payload["next_rid"])  # type: ignore[arg-type]
        trie._epoch = int(payload["epoch"])  # type: ignore[arg-type]
        return trie

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> TrieSnapshot:
        """Pin the current epoch for reading (cheap: no tree copy)."""
        return TrieSnapshot(
            self._epoch,
            self._tree,
            frozenset(self._dead),
            self._next_rid,
            len(self._members),
        )

    def subsets_of(self, elements: Iterable[int]) -> List[int]:
        """Live rids whose sets are subsets of ``elements``, ascending.

        Reads the current state in place: unlike :meth:`snapshot` it does
        not copy the tombstone set, which nothing can mutate during the
        synchronous walk.
        """
        return self._tree.subsets_of(set(elements), self._dead)
