"""One benchmark run of one workload: measure, check, report.

An untraced run (``trace=False``) interleaves its samples round by round:
every other round takes a set-up sample, and every round one sample of
each join configuration, a burst of the serve stream and a kill-and-recover
of the server, each bracketed by host-reference samples. A traced run calls
each layer from outside under spans and reports per-layer numbers.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.io import load_collection

import joins
import serving
from hostref import HostRef, all_cpus, pin
from inputs import Inputs, OpStream, make_inputs, probe_queries, subscription_keywords
from spans import SpanRecorder, self_times
from spec import END_TO_END, PER_LAYER, WorkloadSpec, host_exponent

__all__ = ["Tally", "run", "latency_metrics", "check_regime", "report_metrics"]


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure kind."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


#: Fewest measurement rounds of an untraced run.
MIN_ROUNDS = 3

#: The traced run sends its stream in this many traced and as many
#: untraced chunks of this many ops.
TRACE_CHUNKS = 15
TRACE_CHUNK_OPS = 200

#: A set-up sample is taken in every this many rounds (and before round 1).
SETUP_EVERY = 2

#: Latency classes of the serve stream (see ``serving.OP_CLASS``).
OP_CLASS_NAMES = ("query", "write", "publish")


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def latency_metrics(log: Sequence[serving.OpRecord], normalised: bool) -> Dict[str, float]:
    """Per-class latency quantiles of a stream, in milliseconds.

    Normalised, each quantile scales every op by its reference factor to
    the metric's host exponent; raw, ops are taken as measured.
    """
    by: Dict[str, List[serving.OpRecord]] = {
        "query_super": [], "query_sub": [], "query": [], "write": [], "publish": [],
    }
    for record in log:
        by[serving.OP_CLASS[record.kind]].append(record)
        if record.kind in ("query_super", "query_sub"):
            by[record.kind].append(record)

    def ms(name: str, group: str) -> List[float]:
        power = host_exponent(name) if normalised else 0.0
        return [r.seconds * r.scale ** power * 1e3 for r in by[group]]

    out: Dict[str, float] = {}
    for group in ("query_super", "query_sub"):
        name = f"{group}_p50_ms"
        out[name] = _quantile(ms(name, group), 0.5)
    for cls in OP_CLASS_NAMES:
        for q, label in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (1.0, "max")):
            name = f"{cls}_{label}_ms"
            out[name] = _quantile(ms(name, cls), q)
        out[f"{cls}_mean_ms"] = statistics.fmean(ms(f"{cls}_mean_ms", cls))
        out[f"{cls}_samples"] = len(by[cls])
    return out


def check_regime(spec: WorkloadSpec, shape: Dict[str, float]) -> List[str]:
    """Shape fields outside the workload's stated regime."""
    misses = []
    for key, (low, high) in spec.regime.items():
        value = shape.get(key)
        if value is None or not low <= value <= high:
            misses.append(f"{key}={value} outside [{low}, {high}]")
    return misses


def report_metrics(values: Dict[str, float], names: Sequence[Tuple[str, str]]) -> Dict[str, Dict[str, Any]]:
    """The result line's metrics; a value that could not be measured is null."""
    out = {}
    for name, unit in names:
        value = values[name]
        out[name] = {"value": value if value == value else None, "unit": unit}
    return out


class _Run:
    """State shared by the phases of one run."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: str, src_dir: str) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.src_dir = src_dir
        self.host = HostRef()
        self.tally = Tally()
        self.inputs: Inputs = make_inputs(spec, seed, workdir)
        self.keywords = subscription_keywords(seed, spec.subscriptions)
        self.probes = probe_queries(seed, self.inputs.base)
        self.stream = OpStream(seed, self.inputs.base, self.inputs.pool, spec.subscriptions)
        self.log: List[serving.OpRecord] = []
        self.server: Optional[serving.ServerProcess] = None
        self.client = None
        self.scratch_count = 0
        self.reference: Optional[joins.PairSummary] = None
        #: Every CPU the run may use; the run itself stays on the last one,
        #: away from CPU 0 where the kernel tends to handle interrupts.
        self.cpus = all_cpus()

    # -- set-up ---------------------------------------------------------------

    def setup_sample(self, main: bool) -> Dict[str, float]:
        """Load the join file, boot a server on the base, subscribe.

        The first sample boots the server the stream runs on; later ones
        boot a scratch server on a fresh data directory and kill it.
        """
        if main:
            data_dir = os.path.join(self.workdir, "data")
        else:
            self.scratch_count += 1
            data_dir = os.path.join(self.workdir, f"scratch-{self.scratch_count}")
        server = serving.ServerProcess(
            self.src_dir, os.path.join(self.workdir, "s.sock" if main else "x.sock"),
            data_dir, dataset=self.inputs.base_path,
        )
        marks: Dict[str, float] = {}

        def set_up():
            start = time.perf_counter()
            load_collection(self.inputs.join_path)
            marks["load"] = time.perf_counter() - start
            client = server.start()
            marks["boot"] = time.perf_counter() - start - marks["load"]
            return client, serving.load_subscriptions(client, self.keywords)

        gc.collect()
        try:
            raw, scale, (client, wrong) = self.host.measure(set_up)
        except BaseException:
            server.kill()
            raise
        self.tally.add(len(self.keywords) + 1, wrong, "subscriptions loaded at set-up")
        if main:
            self.server, self.client = server, client
        else:
            client.close()
            server.kill()
            shutil.rmtree(data_dir, ignore_errors=True)
        return {"raw": raw, "norm": raw * scale ** host_exponent("setup_s"), **marks}

    # -- joins ----------------------------------------------------------------

    def join_sample(self, name: str, kwargs: Dict[str, Any]) -> Tuple[float, float]:
        """One timed self join; returns ``(raw, normalised)`` seconds."""
        collection = self.inputs.join
        gc.collect()
        # A multi-process join may use every CPU; it is bracketed by the
        # reference on every CPU, the rest by the reference on the home CPU.
        cpus = self.cpus if kwargs.get("workers") else None
        try:
            with pin(set(cpus)) if cpus else nullcontext():
                raw, scale, pairs = self.host.measure(
                    lambda: joins.set_containment_join(collection, collection, **kwargs), cpus
                )
        except Exception as exc:  # a failed operation, not a crashed run
            self.tally.add(1, 1, f"{name} raised {type(exc).__name__}: {exc}")
            return float("nan"), float("nan")
        norm = raw * scale ** host_exponent(name)
        sample = joins.brute_force_sample(collection, self.seed)
        summary = joins.summarise_pairs(pairs, sample)
        del pairs
        if self.reference is None:
            wrong = joins.brute_force_failures(collection, summary)
            self.tally.add(len(sample), wrong, "brute-force sample of R records")
            self.reference = summary
            self.tally.add(1, 0, name)
        else:
            same = (summary.count, summary.digest) == (self.reference.count, self.reference.digest)
            self.tally.add(1, 0 if same else 1, f"{name} pair count/SHA-256")
        return raw, norm

    # -- serving --------------------------------------------------------------

    def burst(self, ops: int, rec: Optional[SpanRecorder] = None) -> None:
        # The load generator's own garbage collections are not the
        # server's latency: collect up front, then hold them off.
        gc.collect()
        gc.disable()
        try:
            serving.run_burst(self.client, self.stream, ops, self.host, self.log, rec)
        finally:
            gc.enable()

    def kill_and_recover(self) -> Dict[str, float]:
        """Kill the server after a burst, restart it, compare what it answers.

        A recovery time counts only when the recovered server's durable
        stats and probe answers equal those read before the kill.
        """
        before = serving.view(self.client, self.probes)
        hwm = self.server.hwm_mb()
        disk = serving.dir_bytes(self.server.data_dir) / 1e6
        self.client.close()
        self.server.kill()
        self.server.dataset = None
        raw, scale, self.client = self.host.measure(self.server.start)
        norm = raw * scale ** host_exponent("recover_s")
        same = serving.view(self.client, self.probes) == before
        self.tally.add(1, 0 if same else 1, "recovered stats and probe answers")
        nan = float("nan")
        return {
            "raw": raw if same else nan, "norm": norm if same else nan, "hwm": hwm, "disk": disk,
            "snapshot_seq": before["snapshot_seq"],
        }

    def check_stream(self) -> None:
        wrong = serving.replay_failures(self.inputs.base, self.keywords, self.log)
        self.tally.add(len(self.log), wrong, "serve replies vs in-process replay")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.kill()

    def shape(self) -> Dict[str, float]:
        join = self.inputs.join
        distinct = len({e for rec in join.records for e in rec})
        return {
            "sets": len(join),
            "avg_size": join.total_tokens() / len(join),
            "distinct_elements": distinct,
            "pairs": self.reference.count if self.reference else 0,
            "serve_ops": len(self.log),
        }


def _median(values: Sequence[float]) -> float:
    clean = [v for v in values if v == v]
    return statistics.median(clean) if clean else float("nan")


def _end_to_end(run: _Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Round-robin sampling of every end-to-end metric.

    The number of rounds follows from ``seconds`` and the workload's
    nominal round length, so every run of a workload does the same work.
    """
    spec = run.spec
    raw: Dict[str, List[float]] = {name: [] for name in ("setup_s", "recover_s", *joins.JOIN_CONFIGS)}
    norm: Dict[str, List[float]] = {name: [] for name in raw}
    setups = [run.setup_sample(main=True)]
    after_setup = run.client.stats()
    snapshot_seq = after_setup["wal"]["snapshot_seq"]
    snapshot_rounds = 0
    hwm: List[float] = []
    disk: List[float] = []
    rounds = max(MIN_ROUNDS, int(seconds / spec.round_seconds))
    started = time.perf_counter()
    for index in range(rounds):
        if index % SETUP_EVERY == SETUP_EVERY - 1:
            setups.append(run.setup_sample(main=False))
        for name, kwargs in joins.JOIN_CONFIGS.items():
            r, n = run.join_sample(name, kwargs)
            raw[name].append(r)
            norm[name].append(n)
        run.burst(spec.burst_ops)
        recovery = run.kill_and_recover()
        raw["recover_s"].append(recovery["raw"])
        norm["recover_s"].append(recovery["norm"])
        hwm.append(recovery["hwm"])
        disk.append(recovery["disk"])
        # The server snapshots by op count; a round whose stream moved the
        # last snapshot's sequence number wrote at least one snapshot.
        snapshot_rounds += recovery["snapshot_seq"] > snapshot_seq
        snapshot_seq = recovery["snapshot_seq"]
    measured = time.perf_counter() - started
    raw["setup_s"] = [s["raw"] for s in setups]
    norm["setup_s"] = [s["norm"] for s in setups]
    gc.collect()
    peak = joins.peak_mb(run.inputs.join)
    kernel = joins.kernel_shape(run.inputs.join)
    run.check_stream()

    values: Dict[str, float] = {name: _median(samples) for name, samples in norm.items()}
    values.update(latency_metrics(run.log, normalised=True))
    values["join_peak_mb"] = peak
    values["disk_mb"] = _median(disk)
    values["server_rss_mb"] = _median(hwm)
    shape = run.shape()
    shape.update(kernel)
    shape.update(_compactions(after_setup, run.client.stats()))
    shape["snapshots"] = snapshot_rounds
    record = {
        "rounds": rounds,
        "measured_s": measured,
        "raw_s": raw,
        "normalised_s": norm,
        "setups": setups,
        "latency_raw_ms": latency_metrics(run.log, normalised=False),
        "host": {"ref_ms": run.host.ref_ms(), "samples": len(run.host.samples_ms)},
        "shape": shape,
    }
    return values, record


def _compactions(start: Dict[str, Any], end: Dict[str, Any]) -> Dict[str, float]:
    """Index and trie compactions between two ``stats`` replies, from the
    server's epochs (each compaction starts a new one)."""
    return {
        "index_compactions": end["index_epoch"] - start["index_epoch"],
        "trie_compactions": end["trie_epoch"] - start["trie_epoch"],
    }


def _traced(run: _Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer numbers from spans around each layer's public calls.

    A traced run does a fixed amount of work, whatever ``--seconds`` says.
    """
    rec = SpanRecorder()
    values: Dict[str, float] = {}
    setups = [run.setup_sample(main=True)]
    after_setup = run.client.stats()
    setups += [run.setup_sample(main=False) for _ in range(2)]
    values["serve.boot_s"] = _median([s["boot"] for s in setups])

    # Batch layers, called from outside with prebuilt inputs. Every pair
    # list they produce must match the first, which is checked by brute force.
    sample = joins.brute_force_sample(run.inputs.join, run.seed)
    run.host.sample()
    layer, summaries, untraced = joins.traced_layers(
        run.inputs.join, run.inputs.join_path, load_collection, rec,
        lambda pairs: joins.summarise_pairs(pairs, sample), run.cpus,
    )
    run.host.sample()
    values.update(layer)
    run.reference = summaries[0]
    wrong = sum(1 for s in summaries if (s.count, s.digest) != (run.reference.count, run.reference.digest))
    run.tally.add(len(summaries), wrong, "traced join pair count/SHA-256")
    wrong = joins.brute_force_failures(run.inputs.join, run.reference)
    run.tally.add(len(sample), wrong, "brute-force sample of R records")

    # Serve: traced and untraced chunks of the stream, alternating, so
    # both sides see the same state growth and host drift.
    sides: Dict[bool, List[float]] = {False: [], True: []}
    for chunk in range(2 * TRACE_CHUNKS):
        traced = chunk % 2 == 1
        start = len(run.log)
        run.burst(TRACE_CHUNK_OPS, rec if traced else None)
        sides[traced].extend(r.seconds * r.scale for r in run.log[start:])
    values["trace.serve_overhead"] = statistics.median(sides[True]) / statistics.median(sides[False]) - 1.0
    serve, wrong = serving.traced_serve_layers(
        run.inputs.base, run.keywords, run.log, run.workdir, rec
    )
    run.tally.add(len(run.log), wrong, "serve replies vs in-process replays")
    values.update(serve)
    factor = run.host.factor()
    for name, unit in PER_LAYER:
        if unit in ("s", "ms", "us") and name in values:
            values[name] *= factor
    values["host.ref_ms"] = run.host.ref_ms()
    record = {
        "self_times_s": self_times(rec.spans),
        "untraced_s": untraced,
        "host": {"ref_ms": run.host.ref_ms(), "factor": factor},
        "shape": {
            **run.shape(),
            **_compactions(after_setup, run.client.stats()),
            "snapshots": values["serve.wal.snapshots"],
            "dense_lists": values["index.storage.dense_lists"],
            "bitmap_share": values["index.kernels.bitmap_share"],
        },
    }
    rec.write(os.path.join(run.workdir, "spans.json"))
    return values, record


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, workdir: str, src_dir: str) -> Dict[str, Any]:
    """Run one workload; returns the result line and the run record."""
    os.makedirs(workdir, exist_ok=True)
    state = _Run(spec, seed, workdir, src_dir)
    # The run and every server it starts stay on one CPU (see hostref).
    with pin({state.cpus[-1]}):
        try:
            if trace:
                values, record = _traced(state)
                names = PER_LAYER
            else:
                values, record = _end_to_end(state, seconds)
                names = END_TO_END
        finally:
            state.close()
    # The regime is stated for the untraced run's stream length.
    misses = [] if trace else check_regime(spec, record["shape"])
    if misses:
        print(f"# {spec.name} seed {seed} left its regime: {'; '.join(misses)}", file=sys.stderr)
    record.update({
        "workload": spec.name, "seed": seed, "trace": trace, "regime_misses": misses,
        "attempted": state.tally.attempted, "failed": state.tally.failed, "notes": state.tally.notes,
    })
    result = {
        "correct": state.tally.failed == 0,
        "attempted": state.tally.attempted,
        "failed": state.tally.failed,
        "metrics": report_metrics(values, names),
    }
    return {"result": result, "record": record}
