"""Command-line interface: ``lcjoin`` (or ``python -m repro``).

Subcommands
-----------

``join``      — join two dataset files (or self-join one) with any method.
``generate``  — write a synthetic Zipf or real-world-surrogate dataset file.
``stats``     — print Table II-style statistics and the z-value of a file.
``compare``   — run several methods on one dataset and print a comparison.
``serve``     — resident join service over a line-delimited JSON socket.

All dataset files are one whitespace-separated set per line; ``--tokens``
treats tokens as strings (hashed through a shared dictionary), otherwise
they must be integers.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional

from .bench.report import format_measurements
from .bench.runner import run_experiment
from .core.api import BACKENDS, join_methods, set_containment_join
from .core.stats import JoinStats
from .data.collection import ElementDictionary
from .data.io import load_collection, load_tokens, save_collection
from .data.realworld import REAL_WORLD_SPECS, generate_real_world
from .data.skew import top_k_mass, z_value
from .data.synthetic import generate_zipf
from .errors import InvalidParameterError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcjoin",
        description="LCJoin: set containment joins via list crosscutting "
        "(ICDE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_join = sub.add_parser("join", help="join two dataset files")
    p_join.add_argument("r_file", help="subset-side dataset (one set per line)")
    p_join.add_argument(
        "s_file", nargs="?", default=None,
        help="superset-side dataset; omit for a self join",
    )
    p_join.add_argument("--method", default="lcjoin", choices=join_methods())
    p_join.add_argument("--backend", default="python", choices=BACKENDS,
                        help="index for framework/framework_et: python "
                        "(bisect loops) or hybrid (numpy CSR arrays plus "
                        "bitmap rows for dense lists, probed by the batched "
                        "kernel); the tree methods probe python lists on "
                        "both; identical results either way")
    p_join.add_argument("--tokens", action="store_true",
                        help="treat tokens as strings instead of integers")
    p_join.add_argument("--count-only", action="store_true",
                        help="print only the number of result pairs")
    p_join.add_argument("--max-sets", type=int, default=None,
                        help="load at most this many sets per file")
    p_join.add_argument("--output", default=None,
                        help="write result pairs here instead of stdout")
    p_join.add_argument("--workers", type=int, default=None,
                        help="run the supervised parallel driver with this "
                        "many worker nodes (heartbeats, straggler "
                        "speculation, node crash recovery)")
    p_join.add_argument("--retries", type=int, default=2,
                        help="re-dispatches per failed chunk (parallel only)")
    p_join.add_argument("--task-timeout", type=float, default=None,
                        help="per-attempt deadline in seconds; a hung "
                        "attempt's worker node is killed and the chunk "
                        "retried (parallel only)")
    p_join.add_argument("--backoff", type=float, default=0.05,
                        help="base retry delay in seconds, doubled per "
                        "attempt (parallel only)")
    p_join.add_argument("--no-fallback", action="store_true",
                        help="fail instead of degrading to in-process "
                        "execution when a chunk exhausts its retries")
    p_join.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="durable run log: spill each settled chunk to "
                        "DIR so a killed run can be resumed (parallel only)")
    p_join.add_argument("--resume", action="store_true",
                        help="resume the run checkpointed in --checkpoint "
                        "DIR: load verified chunks, dispatch the remainder")
    p_join.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="abort the whole run (gracefully, with the "
                        "ABORTED marker when checkpointing) after this "
                        "many seconds (parallel only)")
    p_join.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES",
                        help="admission-control the run under this analytic "
                        "memory budget: oversized chunks are split and "
                        "concurrency capped (parallel only)")
    p_join.add_argument("--report", action="store_true",
                        help="print the supervision report (attempts, "
                        "retries, degradations) to stderr")
    p_join.add_argument("--metrics", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="collect tracing spans and counters for the "
                        "run; prints the phase table to stderr, or writes "
                        "the JSON report to PATH when one is given")

    p_gen = sub.add_parser("generate", help="generate a dataset file")
    p_gen.add_argument("output", help="output path")
    p_gen.add_argument("--kind", default="zipf",
                       choices=["zipf"] + sorted(REAL_WORLD_SPECS))
    p_gen.add_argument("--cardinality", type=int, default=10_000)
    p_gen.add_argument("--avg-set-size", type=float, default=8.0)
    p_gen.add_argument("--num-elements", type=int, default=1_000)
    p_gen.add_argument("--z", type=float, default=0.5)
    p_gen.add_argument("--scale", type=float, default=0.001,
                       help="cardinality scale for real-world surrogates")
    p_gen.add_argument("--seed", type=int, default=42)

    p_stats = sub.add_parser("stats", help="dataset statistics (Table II style)")
    p_stats.add_argument("file")
    p_stats.add_argument("--tokens", action="store_true")
    p_stats.add_argument("--full", action="store_true",
                         help="full profile: percentiles, histograms, dupes")

    p_est = sub.add_parser(
        "estimate", help="sampled result-size estimate before joining"
    )
    p_est.add_argument("file")
    p_est.add_argument("--tokens", action="store_true")
    p_est.add_argument("--sample-size", type=int, default=500)

    p_inds = sub.add_parser(
        "inds", help="discover inclusion dependencies in a directory of CSVs"
    )
    p_inds.add_argument("directory")
    p_inds.add_argument("--min-coverage", type=float, default=0.0)
    p_inds.add_argument("--max-arity", type=int, default=1)

    sub.add_parser("workloads", help="list the named benchmark workloads")

    p_cmp = sub.add_parser("compare", help="compare methods on one dataset")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--methods", default="lcjoin,tree_et,framework_et,pretti,limit,ttjoin",
                       help="comma-separated method names")
    p_cmp.add_argument("--tokens", action="store_true")
    p_cmp.add_argument("--max-sets", type=int, default=None)
    p_cmp.add_argument("--memory", action="store_true",
                       help="also measure tracemalloc peaks")

    p_self = sub.add_parser(
        "selftest",
        help="differential check of every method against brute force",
    )
    p_self.add_argument("--trials", type=int, default=50)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--methods", default=None,
                        help="comma-separated subset (default: all)")

    p_serve = sub.add_parser(
        "serve",
        help="resident join service over a line-delimited JSON socket",
    )
    p_serve.add_argument(
        "dataset", nargs="?", default=None,
        help="optional dataset file to pre-load into the resident index",
    )
    p_serve.add_argument("--tokens", action="store_true",
                         help="treat dataset tokens as strings")
    p_serve.add_argument("--max-sets", type=int, default=None)
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="serve on a unix domain socket at PATH")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind host (with --port)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve on TCP host:port (0 picks a free port)")
    p_serve.add_argument("--compact-ratio", type=float, default=0.5,
                         help="tombstone fraction that triggers compaction")
    p_serve.add_argument("--delta-ratio", type=float, default=0.25,
                         help="delta-to-base token fraction that triggers "
                         "compaction")
    p_serve.add_argument("--memory-budget", type=int, default=None,
                         metavar="BYTES",
                         help="refuse writes once the resident footprint "
                         "reaches BYTES (admission control)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="requests drained per connection per wake")
    p_serve.add_argument("--data-dir", default=None, metavar="DIR",
                         help="make the state durable: write-ahead-log every "
                         "acknowledged write under DIR and recover the exact "
                         "pre-crash state on restart")
    p_serve.add_argument("--follow", default=None, metavar="ADDR",
                         help="run as a warm-standby replica of the primary "
                         "at ADDR (host:port, or a unix socket path); "
                         "requires --data-dir, answers reads, refuses "
                         "writes until promoted")
    p_serve.add_argument("--snapshot-every", type=int, default=512,
                         metavar="OPS",
                         help="ops between snapshot checkpoints (with "
                         "--data-dir)")
    p_serve.add_argument("--poll-interval", type=float, default=0.05,
                         metavar="SECONDS",
                         help="replication poll cadence (with --follow)")
    p_serve.add_argument("--metrics", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="collect serve.* counters and spans; prints "
                         "the phase table to stderr at shutdown, or writes "
                         "the JSON report to PATH when one is given")
    return parser


def _load(path: str, tokens: bool, max_sets: Optional[int],
          dictionary: Optional[ElementDictionary] = None):
    if tokens:
        return load_tokens(path, dictionary=dictionary, max_sets=max_sets)
    return load_collection(path, max_sets=max_sets), None


def _cmd_join(args: argparse.Namespace) -> int:
    r_collection, dictionary = _load(args.r_file, args.tokens, args.max_sets)
    if args.s_file is None:
        s_collection = r_collection
    else:
        s_collection, __ = _load(args.s_file, args.tokens, args.max_sets, dictionary)
    stats = JoinStats()
    registry = None
    if args.metrics is not None:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    if args.workers is None:
        durable_flags = [
            name for name, value in (
                ("--checkpoint", args.checkpoint),
                ("--resume", args.resume or None),
                ("--deadline", args.deadline),
                ("--memory-budget", args.memory_budget),
            ) if value is not None
        ]
        if durable_flags:
            raise InvalidParameterError(
                f"{', '.join(durable_flags)} only apply to the parallel "
                "driver; pass --workers as well"
            )
    if args.workers is not None:
        from contextlib import nullcontext

        from .core.parallel import parallel_join
        from .obs.registry import use_registry
        from .obs.spans import trace_span

        start = time.perf_counter()
        scope = use_registry(registry) if registry is not None else nullcontext()
        with scope, trace_span("join.run"):
            pairs, report = parallel_join(
                r_collection, s_collection, method=args.method,
                workers=args.workers, backend=args.backend, retries=args.retries,
                task_timeout=args.task_timeout, backoff=args.backoff,
                fallback=not args.no_fallback, return_report=True,
                checkpoint_dir=args.checkpoint, resume=args.resume,
                deadline=args.deadline, memory_budget=args.memory_budget,
            )
        stats.elapsed_seconds = time.perf_counter() - start
        stats.results = len(pairs)
        if registry is not None:
            # This branch bypasses set_containment_join (it needs the
            # supervision report), so the join.* mirror is flushed here —
            # the stats object is fresh, making as_dict() the full delta.
            registry.record_join_stats(stats.as_dict())
        if args.report:
            print(report.summary(), file=sys.stderr)
        elif report.degradations:
            for note in report.degradations:
                print(f"# degraded: {note}", file=sys.stderr)
        if args.count_only:
            print(len(pairs))
        else:
            _write_pairs(pairs, args.output)
    elif args.count_only:
        count = set_containment_join(
            r_collection, s_collection, method=args.method,
            backend=args.backend, collect="count", stats=stats,
            metrics=registry,
        )
        print(count)
    else:
        pairs = set_containment_join(
            r_collection, s_collection, method=args.method,
            backend=args.backend, stats=stats, metrics=registry,
        )
        _write_pairs(pairs, args.output)
    print(
        f"# method={args.method} results={stats.results} "
        f"time={stats.elapsed_seconds:.3f}s searches={stats.binary_searches}",
        file=sys.stderr,
    )
    if registry is not None:
        from .obs.export import phase_table, write_json

        if args.metrics:
            write_json(registry, args.metrics)
            print(f"# metrics written to {args.metrics}", file=sys.stderr)
        else:
            print(phase_table(registry), file=sys.stderr)
    return 0


def _write_pairs(pairs, output: Optional[str]) -> None:
    out = open(output, "w", encoding="utf-8") if output else sys.stdout
    try:
        for rid, sid in pairs:
            out.write(f"{rid} {sid}\n")
    finally:
        if output:
            out.close()


def _cmd_generate(args: argparse.Namespace) -> int:
    data = (
        generate_zipf(
            cardinality=args.cardinality,
            avg_set_size=args.avg_set_size,
            num_elements=args.num_elements,
            z=args.z,
            seed=args.seed,
        )
        if args.kind == "zipf"
        else generate_real_world(args.kind, scale=args.scale, seed=args.seed)
    )
    save_collection(data, args.output)
    stats = data.stats()
    print(f"wrote {stats.num_sets} sets to {args.output} "
          f"(avg size {stats.avg_size:.2f}, {stats.num_elements} elements)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    collection, __ = _load(args.file, args.tokens, None)
    if args.full:
        from .data.summary import profile

        print(profile(collection).render())
        return 0
    stats = collection.stats()
    print(f"# of sets:        {stats.num_sets}")
    print(f"min/max/avg size: {stats.min_size} / {stats.max_size} / {stats.avg_size:.2f}")
    print(f"# of elements:    {stats.num_elements}")
    print(f"total tokens:     {stats.total_tokens}")
    print(f"z-value:          {z_value(collection):.3f}")
    print(f"top-150 mass:     {top_k_mass(collection, 150) * 100:.2f}%")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .core.estimate import estimate_result_size

    collection, __ = _load(args.file, args.tokens, None)
    est = estimate_result_size(collection, sample_size=args.sample_size)
    print(f"estimated result pairs: {int(est):,} "
          f"(from a {est.sample_size}-set sample, "
          f"scale factor {est.scale_factor:.1f})")
    return 0


def _cmd_inds(args: argparse.Namespace) -> int:
    from .relational import find_inds, find_nary_inds, load_directory

    tables = load_directory(args.directory)
    print(f"loaded {len(tables)} tables from {args.directory}")
    inds = find_inds(tables, min_coverage=args.min_coverage)
    for ind in inds:
        print(f"  {ind}")
    if args.max_arity > 1:
        for ind in find_nary_inds(tables, max_arity=args.max_arity):
            if ind.arity > 1:
                print(f"  {ind}")
    print(f"{len(inds)} unary inclusion dependencies")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .data.workloads import describe, workload_names

    for name in workload_names():
        print(f"{name:14s} {describe(name)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    collection, __ = _load(args.file, args.tokens, args.max_sets)
    methods: List[str] = [m.strip() for m in args.methods.split(",") if m.strip()]
    measurements = [
        run_experiment(m, collection, workload=args.file,
                       measure_memory=args.memory)
        for m in methods
    ]
    print(format_measurements(measurements))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .core.selfcheck import self_check

    methods = (
        [m.strip() for m in args.methods.split(",") if m.strip()]
        if args.methods
        else None
    )
    report = self_check(trials=args.trials, methods=methods, seed=args.seed)
    print(report.summary())
    return 0 if report.ok else 1


def _parse_follow(addr: str) -> Dict[str, Any]:
    """``host:port`` → TCP connect args; anything else is a socket path."""
    host, sep, port_text = addr.rpartition(":")
    if sep and host and "/" not in addr:
        try:
            return {"host": host, "port": int(port_text)}
        except ValueError:
            pass
    return {"socket_path": addr}


def _cmd_serve(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .core.runlog import CancelToken, signal_cancellation
    from .serve.server import JoinServer
    from .serve.state import ServeState

    if (args.socket is None) == (args.port is None):
        raise InvalidParameterError(
            "pass exactly one of --socket PATH or --port N"
        )
    if args.follow is not None and args.data_dir is None:
        raise InvalidParameterError("--follow requires --data-dir")
    if args.follow is not None and args.dataset is not None:
        raise InvalidParameterError(
            "--follow streams its state from the primary; "
            "drop the dataset argument"
        )
    s_collection = None
    if args.dataset is not None:
        s_collection, __ = _load(args.dataset, args.tokens, args.max_sets)
    registry = None
    if args.metrics is not None:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    from .obs.registry import use_registry

    scope = use_registry(registry) if registry is not None else nullcontext()
    token = CancelToken()
    with scope:
        replicator = None
        if args.data_dir is not None:
            from .faults import FaultPlan
            from .serve.wal import DurableServeState

            # The ambient REPRO_FAULTS spec reaches the log only here —
            # in-process embedders pass an explicit plan or none at all.
            state: ServeState = DurableServeState(
                s_collection,
                data_dir=args.data_dir,
                compact_ratio=args.compact_ratio,
                delta_ratio=args.delta_ratio,
                memory_budget=args.memory_budget,
                plan=FaultPlan.from_env(),
                snapshot_every=args.snapshot_every,
            )
            if args.follow is not None:
                from .serve.replica import Replicator

                replicator = Replicator(state, **_parse_follow(args.follow))
        else:
            state = ServeState(
                s_collection,
                compact_ratio=args.compact_ratio,
                delta_ratio=args.delta_ratio,
                memory_budget=args.memory_budget,
            )
        server = JoinServer(
            state,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            cancel=token,
            tick=replicator.tick if replicator is not None else None,
            tick_interval=args.poll_interval,
        )
        address = server.address
        if isinstance(address, tuple):
            print(f"# listening on {address[0]}:{address[1]}", file=sys.stderr)
        else:
            print(f"# listening on {address}", file=sys.stderr)
        sys.stderr.flush()
        try:
            with signal_cancellation(token):
                server.serve_forever()
        finally:
            server.close()
            if replicator is not None:
                replicator.close()
            if args.data_dir is not None:
                state.shutdown_flush()
        if registry is not None:
            state.flush_latency_gauges(registry)
    if registry is not None:
        from .obs.export import phase_table, write_json

        if args.metrics:
            write_json(registry, args.metrics)
            print(f"# metrics written to {args.metrics}", file=sys.stderr)
        else:
            print(phase_table(registry), file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "join": _cmd_join,
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "estimate": _cmd_estimate,
        "inds": _cmd_inds,
        "workloads": _cmd_workloads,
        "compare": _cmd_compare,
        "selftest": _cmd_selftest,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
