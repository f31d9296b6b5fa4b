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
from ..errors import InvalidParameterError
from ..index.inverted import InvertedIndex
from ..index.prefix_tree import PrefixTree, TreeNode
from ..obs.spans import trace_span
from .order import GlobalOrder, build_order
from .stats import JoinStats
from .tree_join import run_tree_join

__all__ = ["all_partition_join", "lcjoin", "partition_sizes"]


def _prepare(
    r_collection: SetCollection,
    s_collection: SetCollection,
    order: Optional[GlobalOrder],
    index: Optional[InvertedIndex],
    tree: Optional[PrefixTree],
    stats: Optional[JoinStats],
) -> Tuple[GlobalOrder, InvertedIndex, PrefixTree]:
    """Build (or pass through) the order, global index and prefix tree.

    The partitioning logic needs the python ``InvertedIndex`` API (anchor
    membership lists, ``build_local``) whatever probing backend runs below
    it, so a prebuilt ``index`` must be that type; array backends pack
    per-partition probe indexes from it (see :func:`_pack_index`).
    """
    if index is not None and not isinstance(index, InvertedIndex):
        raise InvalidParameterError(
            "partitioned methods need a python InvertedIndex as the "
            f"prebuilt index (got {type(index).__name__}); array backends "
            "repack per partition internally"
        )
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


def _pack_index(index: InvertedIndex, backend: str):
    """Repack a python index for the probing ``backend`` (identity for it).

    Local partition indexes are small, so the pack cost is the same order
    as the local build the partition already paid; the traversal then
    probes zero-copy numpy views (and carries bitmap rows usable by any
    flat-probing consumer of the same index).
    """
    if backend == "python":
        return index
    from ..index.storage import HybridInvertedIndex

    with trace_span("index.csr_pack"):
        return HybridInvertedIndex.from_index(index)


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
    backend: str = "python",
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
        tree, _pack_index(local, backend), sink,
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

    ``backend`` selects the probe-side index representation for each
    partition-local join (``"hybrid"`` repacks the local index;
    results are identical across backends).
    """
    __, index, tree = _prepare(r_collection, s_collection, order, index, tree, stats)
    for anchor, subtree in tree.partition_roots():
        _run_partition_local(
            subtree, anchor, tree, index, s_collection, sink,
            early_termination, stats, backend=backend,
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

    ``backend`` selects the probe-side index representation: the global
    index is packed once for the global-probing phase, each local index on
    switch; the cost model meters abstract units, so the global/local
    decision is backend-independent.
    """
    __, index, tree = _prepare(r_collection, s_collection, order, index, tree, stats)
    n_total = len(index.universe)
    if n_total == 0:
        return
    probe_index = _pack_index(index, backend)
    ordered = sorted(partition_sizes(tree), key=lambda item: item[0])
    streak = 0
    use_local = False
    for __, anchor, subtree in ordered:
        if use_local:
            _run_partition_local(
                subtree, anchor, tree, index, s_collection, sink,
                early_termination, stats, backend=backend,
            )
            continue
        meter = JoinStats()
        run_tree_join(
            tree, probe_index, sink, early_termination=early_termination,
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
