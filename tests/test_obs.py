"""Tests for the observability layer (``repro.obs``).

Registry primitives, span nesting/aggregation, the activation lifecycle
(``use_registry`` / ``install`` / ``REPRO_TRACE``), the exporters, and —
the load-bearing acceptance property — that ``JoinStats.from_registry``
reads back *exactly* the numbers a ``stats=`` consumer sees, across
methods and backends.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.api import set_containment_join
from repro.core.stats import JoinStats, StatsSnapshot
from repro.data.collection import SetCollection
from repro.obs import registry as _registry_mod
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    SpanNode,
    active_or_null,
    flat_text,
    get_registry,
    install,
    phase_table,
    registry_as_dict,
    to_json,
    trace_span,
    uninstall,
    use_registry,
    write_json,
)
from repro.obs.export import _fmt_value
from repro.obs.spans import _NULL_SPAN
from repro.pubsub.broker import Broker

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _tracing_off():
    """Run every test from the disabled baseline, even under REPRO_TRACE=1.

    The CI metrics-smoke job runs the whole suite with a process-wide
    registry installed; these tests assert on exact counter values and on
    the disabled path, so they stash it and restore it afterwards.
    """
    previous = _registry_mod.ACTIVE
    _registry_mod.ACTIVE = None
    yield
    _registry_mod.ACTIVE = previous


@pytest.fixture
def collections():
    r = SetCollection([[0, 1], [1, 2], [0, 3], [2]])
    s = SetCollection([[0, 1, 2], [1, 2, 3], [0, 1, 3], [2, 4]])
    return r, s


# -- Histogram -------------------------------------------------------------


class TestHistogram:
    def test_empty_summary_is_all_zeros(self):
        hist = Histogram()
        assert hist.as_dict() == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        assert hist.mean == 0.0

    def test_observe_tracks_count_sum_min_max_mean(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        summary = hist.as_dict()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)


# -- MetricsRegistry primitives --------------------------------------------


class TestRegistry:
    def test_inc_creates_and_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 4)
        assert reg.counters["a.b"] == 5

    def test_gauges_and_high_watermark(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 7)
        reg.max_gauge("g", 3)
        assert reg.gauges["g"] == 7
        reg.max_gauge("g", 11)
        assert reg.gauges["g"] == 11
        reg.max_gauge("fresh", 2)
        assert reg.gauges["fresh"] == 2

    def test_value_prefers_counter_then_gauge_then_zero(self):
        reg = MetricsRegistry()
        reg.set_gauge("x", 9)
        assert reg.value("x") == 9
        reg.inc("x", 4)
        assert reg.value("x") == 4
        assert reg.value("missing") == 0

    def test_timer_observes_elapsed_seconds(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        summary = reg.histograms["t"].as_dict()
        assert summary["count"] == 1
        assert summary["sum"] >= 0.0

    def test_reset_drops_everything_including_open_spans(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.observe("h", 1.0)
        reg.enter_span("join.run")
        reg.reset()
        assert reg.counters == {}
        assert reg.gauges == {}
        assert reg.histograms == {}
        assert reg.span_root.children == {}
        assert reg._span_stack == [reg.span_root]

    def test_exit_span_never_pops_the_root(self):
        reg = MetricsRegistry()
        reg.exit_span(1.0)  # unbalanced exit must be harmless
        assert reg._span_stack == [reg.span_root]


class TestNullRegistry:
    def test_records_nothing(self):
        null = NullRegistry()
        null.inc("a", 5)
        null.set_gauge("g", 1)
        null.max_gauge("g", 2)
        null.observe("h", 1.0)
        null.enter_span("join.run")
        null.exit_span(0.1)
        null.record_join_stats({"results": 3})
        assert null.counters == {}
        assert null.gauges == {}
        assert null.histograms == {}
        assert null.span_root.children == {}

    def test_enabled_flag_distinguishes_real_from_null(self):
        assert MetricsRegistry.enabled is True
        assert NULL_REGISTRY.enabled is False


# -- spans -----------------------------------------------------------------


class TestSpans:
    def test_disabled_trace_span_is_the_shared_noop(self):
        assert get_registry() is None
        assert trace_span("join.run") is _NULL_SPAN

    def test_spans_nest_and_aggregate(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            for _ in range(3):
                with trace_span("join.run"):
                    with trace_span("index.build"):
                        pass
        (run,) = reg.span_root.children.values()
        assert run.name == "join.run"
        assert run.count == 3
        assert run.seconds >= 0.0
        (build,) = run.children.values()
        assert build.name == "index.build"
        assert build.count == 3

    def test_span_pops_when_body_raises(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.raises(ValueError):
                with trace_span("join.run"):
                    raise ValueError("boom")
            assert reg._span_stack == [reg.span_root]

    def test_walk_yields_preorder_with_depth(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with trace_span("join.run"):
                with trace_span("index.build"):
                    pass
                with trace_span("probe.loop"):
                    pass
        walked = [(depth, node.name) for depth, node in reg.span_root.walk()]
        assert walked == [(0, "join.run"), (1, "index.build"), (1, "probe.loop")]

    def test_span_node_as_dict_includes_children(self):
        node = SpanNode("join.run")
        node.count = 1
        child = node.child("index.build")
        child.count = 1
        as_dict = node.as_dict()
        assert as_dict["name"] == "join.run"
        assert as_dict["children"][0]["name"] == "index.build"


# -- activation lifecycle --------------------------------------------------


class TestActivation:
    def test_use_registry_restores_previous(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        assert get_registry() is None
        with use_registry(outer):
            assert get_registry() is outer
            with use_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is None

    def test_use_registry_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        assert get_registry() is None

    def test_install_uninstall(self):
        reg = MetricsRegistry()
        install(reg)
        try:
            assert get_registry() is reg
            assert active_or_null() is reg
        finally:
            uninstall()
        assert get_registry() is None
        assert active_or_null() is NULL_REGISTRY

    def test_repro_trace_env_installs_at_import(self, tmp_path):
        script = (
            "from repro.obs import get_registry\n"
            "from repro.data.collection import SetCollection\n"
            "from repro import set_containment_join\n"
            "reg = get_registry()\n"
            "assert reg is not None, 'REPRO_TRACE=1 must install a registry'\n"
            "r = SetCollection([[0, 1], [1]])\n"
            "s = SetCollection([[0, 1, 2], [1, 2]])\n"
            "set_containment_join(r, s)\n"
            "assert reg.counters.get('join.results') == 3\n"
            "assert 'join.run' in reg.span_root.children\n"
        )
        env = dict(os.environ)
        env["REPRO_TRACE"] = "1"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr

    def test_repro_trace_zero_stays_disabled(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_TRACE"] = "0"
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.obs import get_registry; assert get_registry() is None",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr


# -- the JoinStats bridge --------------------------------------------------


class TestJoinStatsBridge:
    def test_record_join_stats_mirrors_and_watermarks(self):
        reg = MetricsRegistry()
        reg.record_join_stats({"results": 4, "peak_memory_bytes": 100})
        reg.record_join_stats({"results": 2, "peak_memory_bytes": 50})
        assert reg.counters["join.results"] == 6
        assert "join.peak_memory_bytes" not in reg.counters
        assert reg.gauges["join.peak_memory_bytes"] == 100

    def test_snapshot_delta(self):
        stats = JoinStats()
        stats.results = 5
        before = StatsSnapshot.of(stats)
        stats.results = 9
        stats.rounds = 3
        delta = before.delta(stats)
        assert delta["results"] == 4
        assert delta["rounds"] == 3

    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("framework", {}),
            ("framework_et", {"backend": "hybrid"}),
            ("tree_et", {}),
            ("tree", {"backend": "hybrid"}),
            ("pretti", {}),
            ("lcjoin", {}),
        ],
    )
    def test_from_registry_matches_stats_exactly(self, collections, method, kwargs):
        r, s = collections
        reg = MetricsRegistry()
        stats = JoinStats()
        pairs = set_containment_join(
            r, s, method=method, stats=stats, metrics=reg, **kwargs
        )
        assert pairs  # the fixture has containments; a silent empty run proves nothing
        assert JoinStats.from_registry(reg).as_dict() == stats.as_dict()

    def test_metrics_without_stats_still_fills_join_family(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        pairs = set_containment_join(r, s, metrics=reg)
        assert reg.counters["join.results"] == len(pairs)
        assert "join.run" in reg.span_root.children

    def test_registry_accumulates_across_runs(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        n1 = len(set_containment_join(r, s, metrics=reg))
        n2 = len(set_containment_join(r, s, metrics=reg))
        assert reg.counters["join.results"] == n1 + n2
        assert reg.span_root.children["join.run"].count == 2

    def test_disabled_join_records_nothing(self, collections):
        r, s = collections
        probe = MetricsRegistry()
        set_containment_join(r, s)  # no registry active
        assert probe.counters == {}
        assert get_registry() is None

    def test_parallel_join_records_supervisor_counters(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        stats = JoinStats()
        pairs = set_containment_join(
            r, s, workers=2, stats=stats, metrics=reg
        )
        assert pairs
        assert reg.counters["supervisor.attempts"] >= 1
        assert reg.counters["supervisor.ok"] >= 1
        assert "parallel.supervise" in reg.span_root.children["join.run"].children
        assert JoinStats.from_registry(reg).as_dict() == stats.as_dict()


# -- subsystem counters ----------------------------------------------------


class TestSubsystemCounters:
    def test_probe_and_index_counters(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        set_containment_join(r, s, method="framework", metrics=reg)
        assert reg.counters["index.builds"] == 1
        assert reg.counters["index.tokens"] > 0
        assert reg.counters["probe.records"] == len(r)
        assert reg.counters["probe.binary_searches"] > 0

    def test_csr_kernel_counters(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        set_containment_join(r, s, method="framework", backend="hybrid", metrics=reg)
        # One build bumps the build counter once.
        assert reg.counters["index.csr_builds"] == 1
        assert "index.hybrid_builds" not in reg.counters
        assert reg.counters["index.csr_postings"] > 0
        assert reg.counters["kernel.supersteps"] >= 1
        assert reg.counters["kernel.searchsorted_calls"] >= 1

    def test_tree_counters(self, collections):
        r, s = collections
        reg = MetricsRegistry()
        set_containment_join(r, s, method="tree", metrics=reg)
        assert reg.counters["tree.nodes"] > 0
        assert reg.counters["tree.rounds"] >= 1
        run = reg.span_root.children["join.run"]
        assert "tree.build" in run.children
        assert "tree.traverse" in run.children

    def test_broker_counters(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            broker = Broker()
            a = broker.subscribe(["x", "y"])
            broker.subscribe(["y"])
            broker.publish(["x", "y", "z"])
            broker.unsubscribe(a)
        assert reg.counters["pubsub.subscribed"] == 2
        assert reg.counters["pubsub.published"] == 1
        assert reg.counters["pubsub.delivered"] == 2
        assert reg.counters["pubsub.unsubscribed"] == 1
        assert reg.counters["pubsub.compactions"] == 1


# -- exporters -------------------------------------------------------------


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    with use_registry(reg):
        with trace_span("join.run"):
            with trace_span("index.build"):
                pass
    reg.inc("probe.records", 2)
    reg.inc("zz.extra", 1)  # undocumented counter: must sort after catalogue
    reg.set_gauge("join.peak_memory_bytes", 123)
    reg.observe("chunk.seconds", 0.5)
    return reg


class TestExporters:
    def test_registry_as_dict_shape(self):
        data = registry_as_dict(_populated_registry())
        assert set(data) == {"counters", "gauges", "histograms", "spans"}
        assert data["counters"]["probe.records"] == 2
        assert data["spans"][0]["name"] == "join.run"
        assert data["spans"][0]["children"][0]["name"] == "index.build"
        assert data["histograms"]["chunk.seconds"]["count"] == 1

    def test_to_json_round_trips(self):
        parsed = json.loads(to_json(_populated_registry()))
        assert parsed["gauges"]["join.peak_memory_bytes"] == 123

    def test_write_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_json(_populated_registry(), str(path))
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["counters"]["probe.records"] == 2

    def test_flat_text_lines(self):
        lines = flat_text(_populated_registry()).splitlines()
        assert "probe.records 2" in lines
        assert "join.peak_memory_bytes 123" in lines
        assert "span.join.run.count 1" in lines
        assert "span.join.run.index.build.count 1" in lines
        assert any(line.startswith("chunk.seconds.mean ") for line in lines)
        # catalogue counters come before undocumented extras
        assert lines.index("probe.records 2") < lines.index("zz.extra 1")

    def test_phase_table_renders_spans_and_counters(self):
        table = phase_table(_populated_registry())
        assert "phase" in table and "join.run" in table
        assert "  index.build" in table  # children indent under the parent
        assert "counter" in table and "probe.records" in table

    def test_phase_table_empty_registry(self):
        assert phase_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_fmt_value(self):
        assert _fmt_value(3) == "3"
        assert _fmt_value(3.0) == "3"
        assert _fmt_value(0.25) == "0.250000"
