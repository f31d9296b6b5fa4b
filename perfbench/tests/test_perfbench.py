"""The benchmark's own tests, on a tiny workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import joins
import serving
import workload
from hostref import NOMINAL_REF_MS, HostRef
from spans import Span, SpanRecorder, self_times
from spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, WorkloadSpec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

TINY = WorkloadSpec(
    name="tiny",
    dataset=("zipf", {"cardinality": 300, "avg_set_size": 5, "num_elements": 100, "z": 0.5}),
    serve_base=60,
    subscriptions=40,
    burst_ops=150,
    round_seconds=1.0,
)


def _run(tmp_path, trace):
    return workload.run(TINY, 3, 0.5, trace, str(tmp_path / "work"), SRC)


@pytest.mark.parametrize("trace, names", [(False, END_TO_END), (True, PER_LAYER)])
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, trace, names):
    result = _run(tmp_path, trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(names)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_the_spec_covers_what_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    # The layer map places every per-layer metric exactly once.
    mapped = [name for _, metrics, _, _ in LAYERS for name in metrics]
    assert mapped == [name for name, _ in PER_LAYER]
    for layer, _, moves, _ in LAYERS:
        assert set(moves) <= {name for name, _ in END_TO_END}, layer


def test_a_corrupted_join_answer_is_counted_as_failed(tmp_path, monkeypatch):
    real = joins.set_containment_join

    def corrupt(r, s, **kwargs):
        pairs = real(r, s, **kwargs)
        if kwargs.get("backend") == "hybrid" and isinstance(pairs, list):
            return pairs[1:]
        return pairs

    monkeypatch.setattr(joins, "set_containment_join", corrupt)
    result = _run(tmp_path, False)["result"]
    assert not result["correct"]
    assert result["failed"] >= 2  # join_hybrid_s and framework_hybrid_s


def test_a_corrupted_serve_reply_is_counted_as_failed(tmp_path, monkeypatch):
    real = serving.run_burst

    def corrupt(client, stream, ops, host, log, rec=None):
        real(client, stream, ops, host, log, rec)
        for record in log:
            if record.kind == "query_super":
                record.result = {**record.result, "matches": record.result["matches"] + [10**6]}
                break

    monkeypatch.setattr(serving, "run_burst", corrupt)
    result = _run(tmp_path, False)["result"]
    assert not result["correct"] and result["failed"] >= 1


class ScriptedHost(HostRef):
    """A host whose reference samples read as scripted."""

    def __init__(self, readings):
        super().__init__()
        self.readings = list(readings)

    def sample(self, cpus=None):
        value = self.readings.pop(0)
        self.samples_ms.append(value)
        return value


def test_host_normalisation():
    nominal = NOMINAL_REF_MS
    # Bracketed by samples averaging the nominal reference: unchanged.
    raw, scale, result = ScriptedHost([0.5 * nominal, 1.5 * nominal]).measure(lambda: "done")
    assert result == "done" and raw >= 0 and scale == pytest.approx(1.0)
    # A host running twice as slow doubles the reference; times halve.
    assert ScriptedHost([]).scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    host = ScriptedHost([])
    host.samples_ms = [x * nominal for x in (0.5, 2.0, 1.25, 40.0, 0.25)]
    assert host.ref_ms() == pytest.approx(1.25 * nominal)
    assert host.factor() == pytest.approx(0.8)


def test_serve_ops_are_normalised_by_their_bracketing_samples():
    slow = 2 * NOMINAL_REF_MS
    host = ScriptedHost([slow])
    records = [serving.OpRecord("publish", "publish", {}, {}, 0.002) for _ in range(3)]
    after = serving._settle(host, slow, list(records))
    assert after == slow
    assert [r.scale for r in records] == pytest.approx([0.5] * 3)


def test_latency_quantiles_use_each_metric_host_exponent():
    # Ops measured on a host twice as slow as nominal (scale 0.5).
    log = [serving.OpRecord(kind, "op", {}, {}, 0.004, scale=0.5)
           for kind in ("query_super", "query_sub", "append", "publish")]
    norm = workload.latency_metrics(log, normalised=True)
    raw = workload.latency_metrics(log, normalised=False)
    assert raw["write_p99_ms"] == pytest.approx(4.0)
    assert norm["write_p50_ms"] == pytest.approx(2.0)  # follows the host fully
    assert norm["write_p99_ms"] == pytest.approx(4.0)  # fsync-bound: not at all
    assert norm["publish_p99_ms"] == pytest.approx(4.0 * 0.5 ** 0.5)


def test_host_reference_samples_are_taken():
    host = HostRef()
    assert host.sample() > 0 and len(host.samples_ms) == 1


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 1),   # overlaps a: [1, 5] covered once
        Span(3, "c", 8.0, 12.0, 0, 1),  # overhangs the parent: [8, 10]
        Span(4, "d", 3.5, 4.0, 2, 1),   # grandchild: only b loses it
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["b"] == pytest.approx(3.0 - 0.5)
    assert own["a"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(4.0)


def test_span_recorder_nests_and_inherits_the_request():
    rec = SpanRecorder()
    with rec.span("outer", request=7):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner.parent == outer.id and inner.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert self_times(rec.spans)["outer"] <= outer.duration


def test_rounds_are_fixed_and_only_stream_snapshots_count(tmp_path):
    # 1,200 set-up subscriptions make the server snapshot before the
    # stream starts; 50-op bursts never reach the 512 logged ops of one.
    spec = dataclasses.replace(TINY, subscriptions=1200, burst_ops=50, round_seconds=0.01)
    outcome = workload.run(spec, 3, 0.04, False, str(tmp_path / "work"), SRC)
    assert outcome["result"]["failed"] == 0
    assert outcome["record"]["rounds"] == 4
    assert outcome["record"]["shape"]["snapshots"] == 0


def test_regime_check_reports_a_shape_outside_it():
    spec = WORKLOADS["join-zipf"]
    shape = {"sets": 6_000, "avg_size": 7.5, "pairs": 10, "dense_lists": 70, "bitmap_share": 0.5}
    assert workload.check_regime(spec, shape) == ["pairs=10 outside [8000, 40000]"]
