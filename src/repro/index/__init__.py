"""Index substrates: inverted index, array index, prefix/Patricia tree,
search primitives and their batched numpy counterparts."""

from .inverted import InvertedIndex
from .kernels import (
    batch_first_geq,
    batch_gap_lookup,
    cross_cut_collection_hybrid,
)
from .prefix_tree import IncrementalPrefixTree, PrefixTree, TreeNode, TrieSnapshot
from .storage import (
    DeltaSegment,
    HybridInvertedIndex,
    IncrementalIndex,
    IndexSnapshot,
    load_collection_binary,
    load_index,
    save_collection_binary,
    save_index,
)
from .search import (
    contains_sorted,
    first_geq,
    first_gt,
    gallop_geq,
    intersect_many,
    intersect_sorted,
    is_sorted_strict,
    probe,
)

__all__ = [
    "InvertedIndex",
    "HybridInvertedIndex",
    "DeltaSegment",
    "IncrementalIndex",
    "IndexSnapshot",
    "PrefixTree",
    "TreeNode",
    "TrieSnapshot",
    "IncrementalPrefixTree",
    "save_collection_binary",
    "load_collection_binary",
    "save_index",
    "load_index",
    "first_geq",
    "first_gt",
    "probe",
    "gallop_geq",
    "intersect_sorted",
    "intersect_many",
    "contains_sorted",
    "is_sorted_strict",
    "batch_first_geq",
    "batch_gap_lookup",
    "cross_cut_collection_hybrid",
]
