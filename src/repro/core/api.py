"""Public front door: :func:`set_containment_join` and the method registry.

Every algorithm in the library — the paper's four LCJoin variants, the two
partitioned methods, and all nine baselines — is callable through one
function with one signature. The registry also drives the CLI and the
benchmark harness, so adding a method in one place surfaces it everywhere.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..baselines.bnl import bnl_join
from ..baselines.dcj import dcj_join
from ..baselines.limit import limit_join
from ..baselines.naive import naive_join
from ..baselines.piejoin import pie_join
from ..baselines.pretti import pretti_join
from ..baselines.psj import psj_join
from ..baselines.shj import shj_join
from ..baselines.ttjoin import tt_join
from ..data.collection import SetCollection
from ..errors import InvalidParameterError, UnknownMethodError
from ..obs import registry as _obs
from ..obs.registry import MetricsRegistry, use_registry
from ..obs.spans import trace_span
from .backends import BACKENDS
from .framework import framework_join
from .partition import all_partition_join, lcjoin
from .results import PairListSink, PairSink, make_sink
from .stats import JoinStats, StatsSnapshot
from .tree_join import tree_join

__all__ = [
    "set_containment_join",
    "join_methods",
    "JOIN_METHODS",
    "BACKENDS",
    "ARRAY_METHODS",
    "TREE_METHODS",
]

#: Which index each paper method probes; both kinds take a prebuilt
#: ``index=`` and accept ``backend=``, the baselines take neither.
#: The flat methods probe the array index on an array backend, through
#: the batched kernel and its bitmap rows.
ARRAY_METHODS = frozenset({"framework", "framework_et"})
#: The tree methods bind python lists on every backend (one binary search
#: per node cursor reads neither the kernel nor the bitmap rows) and also
#: take a prebuilt global ``order=``.
TREE_METHODS = frozenset({"tree", "tree_et", "all_partition", "lcjoin"})

# Each adapter takes (R, S, sink, stats=..., **kwargs).
JOIN_METHODS: Dict[str, Callable] = {
    # The paper's methods (§III–§V).
    "framework": lambda r, s, sink, **kw: framework_join(
        r, s, sink, early_termination=False, **kw
    ),
    "framework_et": lambda r, s, sink, **kw: framework_join(
        r, s, sink, early_termination=True, **kw
    ),
    "tree": lambda r, s, sink, **kw: tree_join(
        r, s, sink, early_termination=False, **kw
    ),
    "tree_et": lambda r, s, sink, **kw: tree_join(
        r, s, sink, early_termination=True, **kw
    ),
    "all_partition": all_partition_join,
    "lcjoin": lcjoin,
    # Baselines (§VII).
    "naive": naive_join,
    "bnl": bnl_join,
    "pretti": pretti_join,
    "limit": limit_join,
    "ttjoin": tt_join,
    "piejoin": pie_join,
    "shj": shj_join,
    "psj": psj_join,
    "dcj": dcj_join,
}


def join_methods() -> Tuple[str, ...]:
    """Registered method names, paper methods first."""
    return tuple(JOIN_METHODS)


def set_containment_join(
    r_collection: SetCollection,
    s_collection: SetCollection,
    method: str = "lcjoin",
    collect: str = "pairs",
    callback: Optional[Callable[[int, int], None]] = None,
    stats: Optional[JoinStats] = None,
    backend: str = "python",
    workers: Optional[int] = None,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    backoff: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    deadline: Optional[float] = None,
    memory_budget: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    **kwargs,
) -> Union[List[Tuple[int, int]], int]:
    """Compute ``R ⋈⊆ S = {(rid, sid) | R[rid] ⊆ S[sid]}``.

    Parameters
    ----------
    r_collection, s_collection:
        The subset side and the superset side. For a self join pass the same
        object twice (the paper evaluates self joins; every reported pair
        then includes the trivial ``R ⊆ R`` reflexive matches, as in the
        original evaluation).
    method:
        One of :func:`join_methods` — ``"lcjoin"`` (the paper's full
        method) by default — or ``"auto"`` to let
        :func:`repro.core.planner.choose_method` pick from workload
        statistics.
    collect:
        ``"pairs"`` returns the list of ``(rid, sid)`` pairs;
        ``"count"`` returns only their number; ``"callback"`` streams each
        pair into ``callback`` and returns the count.
    stats:
        Optional :class:`~repro.core.stats.JoinStats` to meter the run; the
        wall-clock time is always recorded into ``stats.elapsed_seconds``.
    backend:
        ``"python"`` (default — the paper-faithful ``bisect`` loops over
        Python lists) or ``"hybrid"`` — the array index
        (:class:`~repro.index.storage.HybridInvertedIndex`: contiguous
        numpy CSR arrays plus uint64 bitmap rows for the densest lists)
        probed by the batched kernel in :mod:`repro.index.kernels`. Both
        produce the identical pair set. Only ``framework`` and
        ``framework_et`` probe the array index; the tree methods
        (``tree``, ``tree_et``, ``all_partition``, ``lcjoin``) accept
        ``"hybrid"`` and bind python lists on it as on ``"python"``. The
        baselines raise :class:`~repro.errors.InvalidParameterError` on
        an array backend.
    workers:
        When set, the join runs through the supervised multiprocess driver
        (:func:`repro.core.parallel.parallel_join`) with that many worker
        nodes, supervised for deaths, hangs and stragglers; ``retries``,
        ``task_timeout`` and ``backoff`` then tune its failure policy
        (per-chunk re-dispatch count, hang deadline in seconds, and base
        retry delay), ``checkpoint_dir``/``resume`` arm
        the durable run log (spill settled chunks, resume after a driver
        crash), and ``deadline``/``memory_budget`` bound the run's wall
        clock and memory plan — see :func:`~repro.core.parallel
        .parallel_join` for the full durability contract. Supplying any of
        these without ``workers`` is an error — they have no serial
        meaning.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` installed
        for the duration of this call: phase spans (``join.run``,
        ``index.build``, ``probe.loop``, ...) and counters land in it,
        and the run's ``JoinStats`` delta is mirrored under its
        ``join.*`` counters. Equivalent to wrapping the call in
        :func:`repro.obs.use_registry`; ``REPRO_TRACE=1`` installs a
        process-wide registry instead.
    kwargs:
        Method-specific knobs (e.g. ``limit=`` for LIMIT+, ``k=`` for
        TT-Join, ``patience=`` for LCJoin, ``patricia=True`` for the
        compressed tree). Unknown knobs raise ``TypeError`` from the method.

    Returns
    -------
    The pair list (``collect="pairs"``) or the result count.
    """
    if metrics is not None:
        # Scoped activation: install the caller's registry, then re-enter
        # with it active so one code path below serves both the kwarg and
        # the REPRO_TRACE / use_registry activation styles.
        with use_registry(metrics):
            return set_containment_join(
                r_collection, s_collection, method=method, collect=collect,
                callback=callback, stats=stats, backend=backend,
                workers=workers, retries=retries,
                task_timeout=task_timeout,
                backoff=backoff, checkpoint_dir=checkpoint_dir,
                resume=resume, deadline=deadline,
                memory_budget=memory_budget, **kwargs,
            )
    reg = _obs.ACTIVE
    if reg is not None and stats is None:
        # Tracing implies metering: the registry's join.* mirror is flushed
        # from this run's stats delta on the way out.
        stats = JoinStats()
    snapshot = StatsSnapshot.of(stats) if reg is not None and stats is not None else None
    supervision = {
        "retries": retries, "task_timeout": task_timeout, "backoff": backoff,
        "checkpoint_dir": checkpoint_dir, "deadline": deadline,
        "memory_budget": memory_budget,
        "resume": resume if resume else None,
    }
    sink = make_sink(collect, callback)
    if workers is None:
        set_knobs = [name for name, value in supervision.items() if value is not None]
        if set_knobs:
            raise InvalidParameterError(
                f"{', '.join(set_knobs)} only apply to parallel joins; "
                "pass workers= as well"
            )
        elapsed = join_into(
            r_collection, s_collection, sink, method=method, stats=stats,
            backend=backend, **kwargs,
        )
        count = len(sink)
        pairs = sink.pairs if isinstance(sink, PairListSink) else []
    else:
        # Lazy import: parallel_join's workers call back into this module,
        # so the modules are mutually recursive by design.
        from .parallel import parallel_join

        knobs = {k: v for k, v in supervision.items() if v is not None}
        start = time.perf_counter()
        with trace_span("join.run"):
            pairs, report = parallel_join(
                r_collection, s_collection, method=method, workers=workers,
                backend=backend, return_report=True,
                **knobs, **kwargs,
            )
        if collect == "callback":
            for rid, sid in pairs:
                sink.add(rid, sid)
        elapsed = time.perf_counter() - start
        count = len(pairs)
        if stats is not None:
            stats.merge(report.stats)
    if stats is not None:
        stats.elapsed_seconds += elapsed
        stats.results += count
    if reg is not None and snapshot is not None and stats is not None:
        reg.record_join_stats(snapshot.delta(stats))
    return pairs if collect == "pairs" else count


def check_backend(method: str, backend: str) -> None:
    """Raise :class:`InvalidParameterError` unless ``method`` runs on
    ``backend``: every paper method accepts every registered backend, the
    baselines only ``"python"``."""
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "python" and method not in ARRAY_METHODS | TREE_METHODS:
        raise InvalidParameterError(
            f"backend={backend!r} is only supported by "
            f"{sorted(ARRAY_METHODS | TREE_METHODS)}; got method={method!r}"
        )


def join_into(
    r_collection: SetCollection,
    s_collection: SetCollection,
    sink: PairSink,
    method: str = "lcjoin",
    stats: Optional[JoinStats] = None,
    backend: str = "python",
    **kwargs: Any,
) -> float:
    """Run one serial join into ``sink``; return the method's seconds.

    The dispatch core of :func:`set_containment_join`, shared with the
    parallel driver's chunk runner: resolves ``"auto"``, validates the
    method and backend, runs the method under the ``join.run`` span and
    applies the ``REPRO_CHECK`` cross-check to the pair lists of the
    methods that probe the array index.
    It leaves ``stats.results``, ``stats.elapsed_seconds`` and the
    registry's ``join.*`` mirror to the caller, so a parallel chunk's
    counters reach the caller's stats once, through the chunk result.
    """
    if method == "auto":
        # Lazy import: the planner's estimator runs joins through this very
        # module, so the modules are mutually recursive by design.
        from .planner import choose_method

        method = choose_method(r_collection, s_collection).method
    try:
        impl = JOIN_METHODS[method]
    except KeyError:
        raise UnknownMethodError(method, join_methods()) from None
    check_backend(method, backend=backend)
    if backend != "python":
        kwargs["backend"] = backend
    start = time.perf_counter()
    with trace_span("join.run"):
        impl(r_collection, s_collection, sink, stats=stats, **kwargs)
    elapsed = time.perf_counter() - start
    if (
        backend != "python"
        and method in ARRAY_METHODS
        and isinstance(sink, PairListSink)
        and os.environ.get("REPRO_CHECK", "") not in ("", "0")
    ):
        # REPRO_CHECK=1 sanitizer: spot-check the array-backend pair set
        # against the Python backend (size-capped inside). The rerun uses
        # the default backend, so it cannot recurse.
        from .selfcheck import crosscheck_backends

        crosscheck_backends(
            r_collection, s_collection, sink.pairs, method, backend=backend
        )
    return elapsed
