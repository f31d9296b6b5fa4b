"""The paper's contribution: cross-cutting joins, tree sharing, partitioning."""

from .analytics import (
    containment_counts,
    containment_ratio,
    top_contained,
    top_containers,
)
from .api import JOIN_METHODS, join_methods, set_containment_join
from .blocked import blocked_join, iter_blocks
from .containment_index import ContainmentIndex
from .estimate import JoinEstimate, estimate_costs, estimate_result_size
from .planner import PlanDecision, choose_method
from .selfcheck import SelfCheckReport, self_check
from .framework import framework_join
from .hierarchy import ContainmentHierarchy, HierarchyNode, build_hierarchy
from .tolerant import merge_skip, scan_count, tolerant_containment_join
from .order import GlobalOrder, build_order
from .parallel import parallel_join, split_collection
from .partition import all_partition_join, lcjoin
from .results import (
    AttemptRecord,
    CallbackSink,
    ChunkReport,
    CountSink,
    JoinReport,
    PairListSink,
    make_sink,
)
from .supervisor import Coordinator
from .stats import JoinStats
from .tree_join import tree_join
from .verify import check_join_result, ground_truth

__all__ = [
    "set_containment_join",
    "ContainmentIndex",
    "join_methods",
    "JOIN_METHODS",
    "framework_join",
    "tree_join",
    "all_partition_join",
    "lcjoin",
    "parallel_join",
    "split_collection",
    "Coordinator",
    "JoinReport",
    "ChunkReport",
    "AttemptRecord",
    "blocked_join",
    "iter_blocks",
    "GlobalOrder",
    "build_order",
    "JoinStats",
    "PairListSink",
    "CountSink",
    "CallbackSink",
    "make_sink",
    "check_join_result",
    "ground_truth",
    "estimate_result_size",
    "estimate_costs",
    "JoinEstimate",
    "choose_method",
    "PlanDecision",
    "self_check",
    "SelfCheckReport",
    "build_hierarchy",
    "ContainmentHierarchy",
    "HierarchyNode",
    "tolerant_containment_join",
    "merge_skip",
    "scan_count",
    "containment_counts",
    "containment_ratio",
    "top_contained",
    "top_containers",
]
