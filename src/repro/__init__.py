"""LCJoin — set containment join via list crosscutting.

A faithful, from-scratch Python reproduction of *LCJoin: Set Containment
Join via List Crosscutting* (Deng, Yang, Shang, Zhu, Liu, Shao — ICDE 2019):
the cross-cutting inverted-list intersection framework, its early-terminated
variant, the prefix-tree sharing method, data partitioning with adaptive
local indexes, and every baseline the paper compares against (PRETTI,
LIMIT+, TT-Join, BNL, plus the union-oriented SHJ and PSJ).

Quickstart::

    from repro import SetCollection, set_containment_join

    R = SetCollection.from_iterable([{"a", "b"}, {"b", "c"}])
    S = SetCollection.from_iterable([{"a", "b", "d"}, {"b", "c", "e"}],
                                    dictionary=R.dictionary)
    pairs = set_containment_join(R, S)          # [(0, 0), (1, 1)]
"""

from .core.api import JOIN_METHODS, join_methods, set_containment_join
from .core.containment_index import ContainmentIndex
from .core.order import GlobalOrder, build_order
from .core.parallel import parallel_join
from .core.results import CallbackSink, CountSink, JoinReport, PairListSink
from .core.stats import JoinStats
from .data.collection import ElementDictionary, SetCollection
from .errors import (
    DatasetError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinTimeoutError,
    ReproError,
    UnknownMethodError,
    WorkerFailedError,
)
from .faults import FaultPlan
from .index.inverted import InvertedIndex
from .obs import MetricsRegistry, trace_span, use_registry
from .index.prefix_tree import PrefixTree
from .index.storage import HybridInvertedIndex

__version__ = "1.0.0"

__all__ = [
    "set_containment_join",
    "ContainmentIndex",
    "join_methods",
    "JOIN_METHODS",
    "parallel_join",
    "SetCollection",
    "ElementDictionary",
    "InvertedIndex",
    "HybridInvertedIndex",
    "PrefixTree",
    "GlobalOrder",
    "build_order",
    "JoinStats",
    "MetricsRegistry",
    "trace_span",
    "use_registry",
    "PairListSink",
    "CountSink",
    "CallbackSink",
    "JoinReport",
    "FaultPlan",
    "ReproError",
    "DatasetError",
    "InvalidParameterError",
    "UnknownMethodError",
    "WorkerFailedError",
    "JoinTimeoutError",
    "DegradedExecutionWarning",
    "__version__",
]
