"""Data partitioning (paper §V): ``AllPartition`` and adaptive ``LCJoin``.

``R`` is split by each set's smallest element in the global order — exactly
the subtrees hanging off the prefix-tree root. Every superset of a set in
partition ``R_e`` must contain ``e``, so the partition only needs a *local*
inverted index built from the ``S`` sets in ``I[e]``; every local list is a
sub-list of its global counterpart and both the binary searches and the gaps
improve (§V-A).

For small partitions the local index's construction cost can exceed its
benefit. ``LCJoin`` (§V-B) therefore visits partitions in ascending size,
processes them with the *global* index while metering the actual cost ``Y``
in abstract units, and estimates the would-be local cost as::

    Y * |I[e]| / |S|  +  Σ_{S ∈ I[e]} |S|

(the scan scales with list length; the second term is the local index build).
Once the estimate is "steadily" no greater than ``Y`` — here: for
``patience`` consecutive partitions — the remaining (larger) partitions are
processed with local indexes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..data.collection import SetCollection
from ..index.inverted import InvertedIndex
from ..index.prefix_tree import PrefixTree, TreeNode
from .order import GlobalOrder, build_order
from .stats import JoinStats
from .tree_join import check_tree_args, run_tree_join

__all__ = ["all_partition_join", "lcjoin", "partition_sizes"]


def _prepare(
    r_collection: SetCollection,
    s_collection: SetCollection,
    order: Optional[GlobalOrder],
    index: Optional[InvertedIndex],
    tree: Optional[PrefixTree],
    stats: Optional[JoinStats],
    backend: str,
) -> Tuple[GlobalOrder, InvertedIndex, PrefixTree]:
    """Validate the arguments; build (or pass through) the order, global
    index and prefix tree.

    The partitioning logic needs the python ``InvertedIndex`` API (anchor
    membership lists, ``build_local``), and the traversal binds its lists,
    on every backend.
    """
    check_tree_args(index, backend=backend)
    if index is None:
        index = InvertedIndex.build(s_collection)
        if stats is not None:
            stats.index_build_tokens += index.construction_cost
    if order is None:
        universe = max(r_collection.max_element(), s_collection.max_element()) + 1
        order = build_order(s_collection, universe=universe)
    if tree is None:
        tree = PrefixTree.build(r_collection, order)
    if stats is not None:
        stats.tree_nodes += tree.num_nodes
    return order, index, tree


def partition_sizes(tree: PrefixTree) -> List[Tuple[int, int, TreeNode]]:
    """``(num_sets, anchor_element, subtree)`` for every partition of ``R``.

    ``num_sets`` counts the R sets in the subtree (end-marker rid lists).
    """
    out = []
    for anchor, subtree in tree.partition_roots():
        count = 0
        stack = [subtree]
        while stack:
            node = stack.pop()
            if node.terminal_rids is not None:
                count += len(node.terminal_rids)
            stack.extend(node.children)
        out.append((count, anchor, subtree))
    return out


def _run_partition_local(
    subtree: TreeNode,
    anchor: int,
    tree: PrefixTree,
    index: InvertedIndex,
    s_collection: SetCollection,
    sink,
    early_termination: bool,
    stats: Optional[JoinStats],
) -> None:
    """Process one partition against its freshly built local index (§V-A)."""
    members = index[anchor]
    if not members:
        return
    local = index.build_local(
        members,
        s_collection,
        needed_elements=tree.partition_elements.get(anchor),
    )
    if stats is not None:
        stats.index_build_tokens += local.construction_cost
        stats.partitions_local += 1
    run_tree_join(
        tree, local, sink,
        early_termination=early_termination, subtree=subtree, stats=stats,
    )


def all_partition_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    early_termination: bool = True,
    order: Optional[GlobalOrder] = None,
    index: Optional[InvertedIndex] = None,
    tree: Optional[PrefixTree] = None,
    stats: Optional[JoinStats] = None,
    backend: str = "python",
) -> None:
    """``AllPartition`` (§V-A): every partition gets a local inverted index.

    ``backend`` is validated and otherwise ignored, as in
    :func:`~repro.core.tree_join.tree_join`.
    """
    __, index, tree = _prepare(
        r_collection, s_collection, order, index, tree, stats, backend=backend
    )
    for anchor, subtree in tree.partition_roots():
        _run_partition_local(
            subtree, anchor, tree, index, s_collection, sink,
            early_termination, stats,
        )


def lcjoin(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink,
    early_termination: bool = True,
    order: Optional[GlobalOrder] = None,
    index: Optional[InvertedIndex] = None,
    tree: Optional[PrefixTree] = None,
    patience: int = 3,
    stats: Optional[JoinStats] = None,
    backend: str = "python",
) -> None:
    """``LCJoin`` (§V-B): adaptively pick the global or a local index.

    Partitions are visited smallest first. Each is processed with the global
    index while its cost ``Y`` is metered; the estimated local cost is
    compared, and after it has been no greater than ``Y`` for ``patience``
    consecutive partitions, all remaining partitions switch to local
    indexes. Join results are identical either way — only the cost differs.

    ``backend`` is validated and otherwise ignored, as in
    :func:`~repro.core.tree_join.tree_join`.
    """
    __, index, tree = _prepare(
        r_collection, s_collection, order, index, tree, stats, backend=backend
    )
    n_total = len(index.universe)
    if n_total == 0:
        return
    ordered = sorted(partition_sizes(tree), key=lambda item: item[0])
    streak = 0
    use_local = False
    for __, anchor, subtree in ordered:
        if use_local:
            _run_partition_local(
                subtree, anchor, tree, index, s_collection, sink,
                early_termination, stats,
            )
            continue
        meter = JoinStats()
        run_tree_join(
            tree, index, sink, early_termination=early_termination,
            subtree=subtree, stats=meter,
        )
        if stats is not None:
            stats.partitions_global += 1
            stats.merge(meter)
        members = index[anchor]
        actual_cost = meter.abstract_cost()
        build_cost = sum(len(s_collection[sid]) for sid in members)
        estimated_local = actual_cost * len(members) / n_total + build_cost
        if estimated_local <= actual_cost:
            streak += 1
            if streak >= patience:
                use_local = True
        else:
            streak = 0
