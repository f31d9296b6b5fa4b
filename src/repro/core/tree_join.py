"""Tree-based cross-cutting join (paper §IV, Algorithms 2–4).

The prefix tree on ``R`` shares cross-cutting work between sets with common
prefixes. Every node ``n`` carries:

* ``n.max_sid``  — the smallest pending candidate among the leaves below
  ``n`` (the paper's ``n.MaxSid``);
* ``n.next_max`` — the *gap* of ``n``: the first entry in ``n``'s inverted
  list(s) greater than the last probed candidate (``n.NextMax``);
* ``n.rid_list`` — the leaves whose candidate equals ``n.max_sid`` **and**
  whose whole path down from ``n`` contains it (``n.RidList``).

Each call to the postorder traversal advances the root's candidate to the
next id that can possibly be a superset of *some* leaf, and
``root.rid_list`` then holds exactly the sets it provably contains
(correctness and soundness argument in §IV-B).

Implementation notes — where we deviate from the pseudo-code and why:

* **Strict re-traversal condition.** Algorithm 3 descends into children with
  ``c.MaxSid <= NextMax``. With ``<=`` a child whose *pending* candidate
  equals the accumulated gap would be advanced past a hit that was never
  emitted, losing results (a gap only rules out ids *strictly* between a
  node's candidate and its next list entry, so the equality case is not
  covered by the paper's skipping argument). We use the strict form
  ``c.max_sid < NextMax`` and initialise every ``max_sid`` to a ``BOTTOM``
  value below the first id so the first round still reaches every leaf.
  Round-to-round progress is preserved because the root's own gap strictly
  exceeds its previous candidate.
* **Per-node child heaps.** Algorithm 3 computes ``min_c c.MaxSid`` and the
  eligible-child set by scanning all children; at Python speed that linear
  scan (per node, per round) dominates everything else. Each node instead
  keeps its children in a min-heap keyed by their ``max_sid``, so a round
  touches exactly the children it advances plus O(log degree) heap work —
  the probe sequence (and thus the algorithm) is unchanged, only the
  bookkeeping cost drops.
* **Dead subtrees.** When a node's list is exhausted (the probe falls off
  the end), no leaf below it can ever match again — every leaf path goes
  through this node. The node saturates to ``max_sid = S_∞`` immediately
  instead of letting the sentinel percolate over further rounds. (Without
  this, the ``S_∞ == S_∞`` "hit" at the sentinel would also fabricate
  results.)
* **Iterative traversal.** The recursion depth equals the longest set in
  ``R``; real datasets (TWITTER: sets up to 5000 elements) overflow
  Python's stack, so the postorder runs on an explicit frame stack.
* **End-marker leaves** probe the index universe, so a leaf probe always
  hits and duplicate/prefix sets need no special cases (see
  :mod:`repro.index.prefix_tree`).
* **Early termination (Algorithm 4)** re-runs the traversal *of the same
  node* while its candidate misses its own list, so a miss never climbs to
  the parent; with the frame stack this is a frame reset rather than a
  recursive call.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..data.collection import SetCollection
from ..errors import InvalidParameterError
from ..index.inverted import InvertedIndex
from ..index.prefix_tree import PrefixTree, TreeNode
from ..obs import registry as _obs
from ..obs.spans import trace_span
from .backends import BACKENDS
from .order import GlobalOrder, build_order
from .stats import JoinStats

__all__ = [
    "tree_join",
    "run_tree_join",
    "bind_tree",
    "postorder_traverse",
    "check_tree_args",
]

_EMPTY: Tuple[int, ...] = ()
_BOTTOM = -1


def check_tree_args(index, backend: str) -> None:
    """Validate the ``index=`` and ``backend=`` a tree method was given.

    The tree methods bind python lists on every registered backend, so
    ``backend`` selects nothing here, and a prebuilt ``index`` must be the
    python :class:`~repro.index.inverted.InvertedIndex`.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if index is not None and not isinstance(index, InvertedIndex):
        raise InvalidParameterError(
            "tree methods need a python InvertedIndex as the prebuilt "
            f"index (got {type(index).__name__}); they bind python lists "
            "on every backend"
        )


def bind_tree(tree: PrefixTree, index: InvertedIndex, subtree: Optional[TreeNode] = None) -> int:
    """Attach inverted lists to the tree and reset all join-time state.

    Returns the first candidate id (the paper's ``S_1``) for convenience.
    Binding is per-run because the partitioned methods re-run subtrees
    against different local indexes (§V).
    """
    universe = index.universe
    first_sid = universe[0] if len(universe) else index.inf_sid
    root = subtree if subtree is not None else tree.root
    stack = [root]
    lists = index.lists
    while stack:
        node = stack.pop()
        elements = node.elements
        if elements:
            node.inv = lists.get(elements[0], _EMPTY)
            if len(elements) > 1:
                # Merged Patricia node: extra lists beyond the first.
                node.more_invs = [lists.get(e, _EMPTY) for e in elements[1:]]
                node.more_curs = [0] * (len(elements) - 1)
            else:
                node.more_invs = None
        else:
            # Root and end-marker leaves match every id the index covers.
            node.inv = universe
            node.more_invs = None
        node.cur = 0
        node.max_sid = _BOTTOM
        node.next_max = first_sid
        node.rid_list = _EMPTY
        children = node.children
        if len(children) == 1:
            # Chain nodes bypass the heap entirely (the common trie case).
            node.only_child = children[0]
        else:
            node.only_child = None
            # Children keyed by their candidate; id() breaks ties (nodes do
            # not compare). Every child starts at BOTTOM so round one
            # reaches all of them.
            node.heap = [(_BOTTOM, id(c), c) for c in children]
            node.heap.sort()
        stack.extend(children)
    return first_sid


def _probe_node(node: TreeNode, candidate: int, inf_sid: int) -> Tuple[bool, int, int]:
    """Probe ``candidate`` in every list of a merged Patricia node.

    Returns ``(hit, gap, searches)``: ``hit`` iff the candidate appears in
    every list; ``gap`` is the next safe candidate this node can justify —
    the maximum over the visited lists of their first entry greater than
    ``candidate`` (``inf_sid`` once any list is exhausted). The probe stops
    at the first missing list (the natural within-node early termination).
    """
    best = -1
    searches = 1
    lst = node.inv
    pos = bisect_left(lst, candidate, node.cur)
    node.cur = pos
    if pos == len(lst):
        return False, inf_sid, searches
    sid = lst[pos]
    if sid != candidate:
        return False, sid, searches
    best = lst[pos + 1] if pos + 1 < len(lst) else inf_sid
    more_invs = node.more_invs
    more_curs = node.more_curs
    for i in range(len(more_invs)):
        lst = more_invs[i]
        pos = bisect_left(lst, candidate, more_curs[i])
        more_curs[i] = pos
        searches += 1
        if pos == len(lst):
            return False, inf_sid, searches
        sid = lst[pos]
        if sid != candidate:
            if sid > best:
                best = sid
            return False, best, searches
        gap = lst[pos + 1] if pos + 1 < len(lst) else inf_sid
        if gap > best:
            best = gap
    return True, best, searches


def postorder_traverse(
    root: TreeNode,
    next_max: int,
    inf_sid: int,
    early_termination: bool,
    stats: Optional[JoinStats] = None,
) -> None:
    """One postorder traversal (Algorithm 3), iteratively.

    Updates ``max_sid``, ``next_max`` and ``rid_list`` of every node whose
    candidate the accumulated gap allows to advance; afterwards
    ``root.max_sid`` is the next candidate to check (``S_∞`` when done) and
    ``root.rid_list`` holds the sets it contains.
    """
    searches = 0
    # Frame: [node, accumulated NextMax, child handed down (to re-heap on
    # return)]. The child is pushed back with its updated key when control
    # returns to the parent frame.
    stack: List[List] = [[root, max(next_max, root.next_max), None]]
    while stack:
        frame = stack[-1]
        node: TreeNode = frame[0]
        nm: int = frame[1]
        oc = node.only_child
        if oc is not None:
            # Chain node: no heap bookkeeping. After a child subtree is
            # processed with accumulated gap nm, its max_sid is >= nm (a
            # leaf jumps to nm, an inner node takes a min over children
            # that all did), so this check cannot loop.
            if oc.max_sid < nm:
                cnm = oc.next_max
                stack.append([oc, cnm if cnm > nm else nm, None])
                continue
            heap = None
            candidate = oc.max_sid
        else:
            heap = node.heap
            returned = frame[2]
            if returned is not None:
                heappush(heap, (returned.max_sid, id(returned), returned))
                frame[2] = None
            if heap and heap[0][0] < nm:
                child = heappop(heap)[2]
                frame[2] = child
                cnm = child.next_max
                stack.append([child, cnm if cnm > nm else nm, None])
                continue
            # All eligible children are up to date: finalize this node.
            candidate = heap[0][0] if heap else nm
        node.max_sid = candidate
        if candidate >= inf_sid:
            node.next_max = inf_sid
            node.rid_list = _EMPTY
            stack.pop()
            continue
        if not node.elements:
            # Root or end-marker: the "list" is the index universe, which
            # contains every candidate by construction — a guaranteed hit
            # whose gap is simply the next universe id. No search needed
            # (and none is counted: the paper's cost model only counts
            # probes into the inverted lists of R's elements).
            universe = node.inv
            if type(universe) is range:
                gap = candidate + 1
            else:
                pos = bisect_left(universe, candidate, node.cur) + 1
                node.cur = pos
                gap = universe[pos] if pos < len(universe) else inf_sid
            hit = True
        elif node.more_invs is None:
            # Ordinary prefix-tree node: one inverted list, probed inline.
            lst = node.inv
            pos = bisect_left(lst, candidate, node.cur)
            node.cur = pos
            searches += 1
            if pos == len(lst):
                hit = False
                gap = inf_sid
            else:
                sid = lst[pos]
                if sid == candidate:
                    hit = True
                    gap = lst[pos + 1] if pos + 1 < len(lst) else inf_sid
                else:
                    hit = False
                    gap = sid
        else:
            # Patricia node: several lists, probed by the shared helper.
            hit, gap, n_searches = _probe_node(node, candidate, inf_sid)
            searches += n_searches
        if hit:
            node.next_max = gap
            if node.terminal_rids is not None:
                node.rid_list = node.terminal_rids
            elif oc is not None:
                # Single child at exactly the candidate: share its list.
                node.rid_list = oc.rid_list
            elif heap:
                # Union the rid lists of the children sitting exactly at the
                # candidate (Algorithm 3 line 15); only they are popped.
                first = heappop(heap)
                if heap and heap[0][0] == candidate:
                    rids = list(first[2].rid_list)
                    popped = [first]
                    while heap and heap[0][0] == candidate:
                        entry = heappop(heap)
                        popped.append(entry)
                        child_rids = entry[2].rid_list
                        if child_rids:
                            rids.extend(child_rids)
                    for entry in popped:
                        heappush(heap, entry)
                    node.rid_list = rids
                else:
                    # Only one child holds the candidate: share its list.
                    heappush(heap, first)
                    node.rid_list = first[2].rid_list
            else:
                node.rid_list = _EMPTY
            stack.pop()
        elif gap >= inf_sid:
            # The node's list is exhausted: no leaf below can match again.
            node.max_sid = inf_sid
            node.next_max = inf_sid
            node.rid_list = _EMPTY
            stack.pop()
        else:
            node.next_max = gap
            node.rid_list = _EMPTY
            if early_termination:
                # Algorithm 4: keep advancing this subtree until its
                # candidate is found in this node's own list, so the miss
                # never reaches the parent.
                frame[1] = max(nm, gap)
            else:
                stack.pop()
    if stats is not None:
        stats.binary_searches += searches
    reg = _obs.ACTIVE
    if reg is not None:
        reg.inc("tree.searches", searches)


def run_tree_join(
    tree: PrefixTree,
    index: InvertedIndex,
    sink,
    early_termination: bool = False,
    subtree: Optional[TreeNode] = None,
    stats: Optional[JoinStats] = None,
) -> None:
    """Algorithm 2: repeated postorder traversals until ``S_∞`` is reached.

    ``subtree`` restricts the join to one partition branch (§V); binding
    against ``index`` happens here either way.
    """
    root = subtree if subtree is not None else tree.root
    first_sid = bind_tree(tree, index, subtree=root)
    inf_sid = index.inf_sid
    if first_sid >= inf_sid or not root.children:
        return
    rounds = 0
    with trace_span("tree.traverse"):
        while root.max_sid < inf_sid:
            rounds += 1
            postorder_traverse(root, first_sid, inf_sid, early_termination, stats)
            sid = root.max_sid
            if sid < inf_sid and root.rid_list:
                sink.add_rids(root.rid_list, sid)
    if stats is not None:
        stats.rounds += rounds
    reg = _obs.ACTIVE
    if reg is not None:
        reg.inc("tree.rounds", rounds)


def tree_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    early_termination: bool = False,
    order: Optional[GlobalOrder] = None,
    index: Optional[InvertedIndex] = None,
    tree: Optional[PrefixTree] = None,
    patricia: bool = False,
    stats: Optional[JoinStats] = None,
    backend: str = "python",
) -> None:
    """The tree-based set containment join (paper's ``TreeBased`` /
    ``TreeBasedET`` methods).

    Builds the frequency global order, the inverted index on ``S`` and the
    prefix tree on ``R`` unless prebuilt ones are supplied, then runs
    Algorithm 2. ``patricia=True`` path-compresses the tree first (§IV-A).

    ``backend`` is validated and otherwise ignored: the traversal binds
    python lists on every backend (see :func:`check_tree_args`).
    """
    check_tree_args(index, backend=backend)
    if index is None:
        with trace_span("index.build"):
            index = InvertedIndex.build(s_collection)
        if stats is not None:
            stats.index_build_tokens += index.construction_cost
    if order is None:
        universe = max(r_collection.max_element(), s_collection.max_element()) + 1
        with trace_span("order.build"):
            order = build_order(s_collection, universe=universe)
    if tree is None:
        with trace_span("tree.build"):
            tree = PrefixTree.build(r_collection, order, compress=patricia)
    if stats is not None:
        stats.tree_nodes += tree.num_nodes
    reg = _obs.ACTIVE
    if reg is not None:
        reg.inc("tree.nodes", tree.num_nodes)
    run_tree_join(tree, index, sink, early_termination=early_termination, stats=stats)
