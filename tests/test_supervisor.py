"""Chaos suite for the supervised parallel join.

Every test drives real worker processes through ``parallel_join`` with a
deterministic :class:`repro.faults.FaultPlan` and asserts the three
coordinator guarantees: the pair set stays identical to the serial join, no
process or shared-memory segment outlives the call, and the
:class:`JoinReport` faithfully records what happened (retries, fallbacks). The
failure-model tests run the one dispatch mode, ``workers=``, once per
chunking of ``R`` (round-robin records and whole anchor partitions): both go
through the coordinator's retry path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from pathlib import Path

import pytest

from repro.core.api import set_containment_join
from repro.core.parallel import parallel_join
from repro.core.results import JoinReport
from repro.core.supervisor import Coordinator
from repro.core.verify import ground_truth
from repro.errors import (
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinTimeoutError,
    WorkerFailedError,
)
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultInjected,
    FaultPlan,
    FaultRule,
)

from conftest import random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="closure-carrying jobs require the fork start method",
)

_SHM_DIR = Path("/dev/shm")

#: The coordinator's one dispatch mode, under both ways of chunking R:
#: ``workers`` deals records round-robin (the default for ``framework``),
#: ``shards`` keeps whole anchor partitions of the global order together.
worker_mode = pytest.mark.parametrize(
    "mode",
    [{"workers": 2}, {"workers": 2, "strategy": "anchor"}],
    ids=["workers", "shards"],
)


def _shm_entries() -> set:
    """Names currently present in /dev/shm (empty set if unsupported)."""
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.iterdir()}


@pytest.fixture()
def shm_leak_check():
    """Assert no shared-memory segment appears: the join path creates none."""
    if not _SHM_DIR.is_dir():
        yield
        return
    before = _shm_entries()
    yield
    leaked = _shm_entries() - before
    assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"


# -- fault plan grammar ----------------------------------------------------


class TestFaultPlanParse:
    def test_simple_rule(self):
        plan = FaultPlan.parse("0:1:crash")
        assert plan.rules == (FaultRule(0, 1, "crash"),)

    def test_wildcards(self):
        plan = FaultPlan.parse("*:*:hang")
        (rule,) = plan.rules
        assert rule.chunk is None and rule.attempt is None
        assert rule.matches(0, 1) and rule.matches(7, 3)

    def test_arg_and_prob(self):
        plan = FaultPlan.parse("2:1:hang@0.5=12.5")
        (rule,) = plan.rules
        assert rule.action == "hang"
        assert rule.arg == 12.5
        assert rule.prob == 0.5

    def test_multiple_rules_both_separators(self):
        plan = FaultPlan.parse("0:1:crash; 1:2:raise , *:*:hang")
        assert [r.action for r in plan.rules] == ["crash", "raise", "hang"]

    def test_unknown_action_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:1:explode")
        with pytest.raises(InvalidParameterError, match="fault action .shmfail."):
            FaultPlan.parse("*:*:shmfail")

    def test_malformed_rule_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:crash")

    def test_non_integer_chunk_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("x:1:crash")

    def test_zero_attempt_rejected(self):
        # Attempts are 1-based: attempt 0 never happens.
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:0:crash")

    def test_empty_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse(" ; ")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:1:crash@1.5")
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:1:crash@0")

    def test_describe_roundtrips(self):
        spec = "0:1:crash;*:2:raise@0.5"
        assert FaultPlan.parse(spec).describe() == spec

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULTS": "*:1:crash", "REPRO_FAULTS_SEED": "7"}
        )
        assert plan is not None
        assert plan.seed == 7
        assert plan.rules[0].action == "crash"

    def test_pickle_roundtrip(self):
        plan = FaultPlan.parse("*:1:crash@0.5", seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.rules == plan.rules
        assert clone.seed == plan.seed


class TestFaultPlanDecisions:
    def test_deterministic_across_instances(self):
        a = FaultPlan.parse("*:*:crash@0.5", seed=1)
        b = FaultPlan.parse("*:*:crash@0.5", seed=1)
        decisions_a = [a.rule_for(c, 1, ("crash",)) is not None for c in range(64)]
        decisions_b = [b.rule_for(c, 1, ("crash",)) is not None for c in range(64)]
        assert decisions_a == decisions_b
        # A fair-ish coin: not all heads, not all tails.
        assert 0 < sum(decisions_a) < 64

    def test_seed_changes_decisions(self):
        a = FaultPlan.parse("*:*:crash@0.5", seed=1)
        b = FaultPlan.parse("*:*:crash@0.5", seed=2)
        decisions_a = [a.rule_for(c, 1, ("crash",)) is not None for c in range(64)]
        decisions_b = [b.rule_for(c, 1, ("crash",)) is not None for c in range(64)]
        assert decisions_a != decisions_b

    def test_probability_draw_is_pinned_per_stage(self):
        # The firing sets of seed 0 at @0.5, recorded before the three
        # stages shared one draw: every existing plan must keep firing the
        # same faults, so each stage keeps its exact hash key.
        task = FaultPlan.parse("*:*:crash@0.5", seed=0)
        assert [
            (c, a) for c in range(6) for a in (1, 2, 3)
            if task.rule_for(c, a, ("crash",)) is not None
        ] == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (3, 2),
              (4, 2), (4, 3), (5, 2)]
        shard = FaultPlan.parse("shard:*:kill@0.5", seed=0)
        assert [
            (s, i, c) for s in range(3) for i in (1, 2) for c in range(3)
            if shard.rule_for_shard(s, i, c) is not None
        ] == [(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2, 0), (1, 1, 0),
              (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)]
        serve = FaultPlan.parse("serve:kill@0.5", seed=0)
        assert [
            q for q in range(1, 17)
            if serve.rule_for_serve(q, ("kill",)) is not None
        ] == [4, 6, 9, 14, 15]

    def test_rule_for_filters_by_action(self):
        plan = FaultPlan.parse("0:1:driverkill")
        assert plan.rule_for(0, 1, ("crash", "hang", "raise")) is None
        assert plan.rule_for(0, 1, ("driverkill",)) is not None

    def test_raise_fires(self):
        plan = FaultPlan.parse("0:1:raise")
        with pytest.raises(FaultInjected):
            plan.fire_worker_start(0, 1)
        plan.fire_worker_start(0, 2)  # attempt 2: no rule, no fault
        plan.fire_worker_start(1, 1)  # other chunk: no rule


# -- the acceptance scenario ----------------------------------------------


@fork_only
class TestChaosAcceptance:
    @worker_mode
    def test_crash_every_chunk_once_plus_hang(self, mode, shm_leak_check):
        # Every chunk's first attempt crashes hard; chunk 0's second
        # attempt hangs past task_timeout. With the default retries=2 the
        # worst chunk's history is crash -> timeout -> ok, and the final
        # pair set must be exactly the serial join's.
        r, s = random_instance(21)
        expected = sorted(set_containment_join(r, s, method="framework"))
        plan = FaultPlan.parse("*:1:crash;0:2:hang=60")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a clean recovery: no degradation
            pairs, report = parallel_join(
                r, s, method="framework", backend="hybrid",
                task_timeout=2.0, faults=plan, return_report=True, **mode,
            )
        assert sorted(pairs) == expected
        assert report.ok
        assert report.fallbacks == 0
        assert not report.degradations
        # Every chunk retried at least once (the injected crash).
        assert report.total_retries >= len(report.chunks)
        outcomes_0 = [a.outcome for a in report.chunk(0).attempts]
        assert outcomes_0 == ["crash", "timeout", "ok"]
        for c in report.chunks[1:]:
            assert [a.outcome for a in c.attempts] == ["crash", "ok"]
        # The crash was the injected one, and the report says so.
        assert f"exit code {CRASH_EXIT_CODE}" in report.chunk(0).attempts[0].error
        assert report.fault_plan == plan.describe()

    @worker_mode
    def test_raise_fault_is_retried(self, mode, shm_leak_check):
        r, s = random_instance(22)
        expected = sorted(set_containment_join(r, s, method="framework"))
        pairs, report = parallel_join(
            r, s, method="framework", backend="hybrid",
            faults=FaultPlan.parse("*:1:raise"), return_report=True, **mode,
        )
        assert sorted(pairs) == expected
        for c in report.chunks:
            assert [a.outcome for a in c.attempts] == ["error", "ok"]
            assert "FaultInjected" in c.attempts[0].error


# -- degradation ladder ----------------------------------------------------


@fork_only
class TestDegradation:
    @worker_mode
    def test_retry_exhaustion_falls_back_in_process(self, mode, shm_leak_check):
        # raise on every attempt: workers never succeed, every chunk lands
        # on the in-process python fallback — slower, but correct.
        r, s = random_instance(24)
        expected = sorted(set_containment_join(r, s, method="framework"))
        with pytest.warns(DegradedExecutionWarning):
            pairs, report = parallel_join(
                r, s, method="framework", backend="hybrid",
                retries=1, faults=FaultPlan.parse("*:*:raise"),
                return_report=True, **mode,
            )
        assert sorted(pairs) == expected
        assert report.ok
        assert report.fallbacks == len(report.chunks)
        for c in report.chunks:
            assert c.final_mode == "local"
            assert c.attempts[-1].outcome == "ok"
            # retries=1 -> two worker attempts, then the local one.
            assert len(c.attempts) == 3
        assert any("in-process" in note for note in report.degradations)

    @worker_mode
    def test_fallback_disabled_raises_worker_failed(self, mode, shm_leak_check):
        r, s = random_instance(25)
        with pytest.raises(WorkerFailedError) as excinfo:
            parallel_join(
                r, s, method="framework", backend="hybrid",
                retries=0, fallback=False,
                faults=FaultPlan.parse("*:*:crash"), **mode,
            )
        assert "failed after 1 attempt(s)" in str(excinfo.value)
        assert f"exit code {CRASH_EXIT_CODE}" in str(excinfo.value)

    @worker_mode
    def test_fallback_disabled_timeout_raises_join_timeout(
        self, mode, shm_leak_check
    ):
        r, s = random_instance(26)
        with pytest.raises(JoinTimeoutError):
            parallel_join(
                r, s, method="framework", backend="hybrid",
                retries=0, fallback=False, task_timeout=0.5,
                faults=FaultPlan.parse("*:*:hang=60"), **mode,
            )


# -- activation and plumbing ----------------------------------------------


@fork_only
class TestActivation:
    def test_env_var_activates_plan(self, monkeypatch, shm_leak_check):
        monkeypatch.setenv("REPRO_FAULTS", "*:1:raise")
        r, s = random_instance(27)
        expected = sorted(set_containment_join(r, s, method="framework"))
        pairs, report = parallel_join(
            r, s, method="framework", workers=2, backend="hybrid",
            return_report=True,
        )
        assert sorted(pairs) == expected
        assert report.fault_plan == "*:1:raise"
        assert report.total_retries == len(report.chunks)

    def test_explicit_plan_beats_env(self, monkeypatch, shm_leak_check):
        # A caller-provided plan must not be overridden by the environment.
        monkeypatch.setenv("REPRO_FAULTS", "*:*:crash")
        r, s = random_instance(28)
        pairs, report = parallel_join(
            r, s, method="framework", workers=2, backend="hybrid",
            faults=FaultPlan.parse("*:1:raise"), return_report=True,
        )
        assert sorted(pairs) == sorted(
            set_containment_join(r, s, method="framework")
        )
        assert report.fault_plan == "*:1:raise"

    def test_api_knobs_require_workers(self):
        r, s = random_instance(1)
        for kw in (
            {"retries": 1},
            {"task_timeout": 5.0},
            {"backoff": 0.1},
        ):
            with pytest.raises(InvalidParameterError):
                set_containment_join(r, s, **kw)

    def test_api_forwards_supervision_knobs(self, shm_leak_check):
        r, s = random_instance(29)
        expected = sorted(set_containment_join(r, s, method="framework"))
        got = sorted(
            set_containment_join(
                r, s, method="framework", workers=2,
                retries=2, task_timeout=30.0, backoff=0.01,
            )
        )
        assert got == expected

    def test_parameter_validation(self):
        r, s = random_instance(1)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=2, retries=-1)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=2, task_timeout=0.0)
        with pytest.raises(InvalidParameterError):
            parallel_join(r, s, workers=2, backoff=-0.1)

    def test_in_process_run_still_reports(self):
        # workers=1 never forks, but return_report keeps its shape.
        r, s = random_instance(2)
        pairs, report = parallel_join(
            r, s, method="framework", workers=1, return_report=True,
        )
        assert sorted(pairs) == sorted(
            set_containment_join(r, s, method="framework")
        )
        assert isinstance(report, JoinReport)
        assert report.ok
        assert report.total_retries == 0
        assert all(len(c.attempts) == 1 for c in report.chunks)

    def test_report_summary_renders(self, shm_leak_check):
        r, s = random_instance(30)
        __, report = parallel_join(
            r, s, method="framework", workers=2, backend="hybrid",
            faults=FaultPlan.parse("*:1:crash"), return_report=True,
        )
        text = report.summary()
        assert "chunks=" in text and "retries=" in text
        assert "fault plan: *:1:crash" in text
        assert "pickle:crash -> pickle:ok" in text


# -- coordinator unit-level validation ------------------------------------


def _echo_runner(job):
    (chunk_id,) = job
    return [(chunk_id, chunk_id)]


def _echo_jobs(chunk_id, local=False):
    return (chunk_id,)


class TestSupervisorUnit:
    def test_invalid_parameters(self):
        for bad in (
            {"retries": -1},
            {"task_timeout": -2.0},
            {"backoff": -0.5},
        ):
            with pytest.raises(InvalidParameterError):
                Coordinator(
                    _echo_jobs, _echo_runner, chunk_sizes=[1],
                    primary_mode="none", nodes=1, **bad,
                )

    @fork_only
    def test_plain_run_collects_all_chunks(self):
        coordinator = Coordinator(
            _echo_jobs, _echo_runner, chunk_sizes=[1, 1, 1],
            primary_mode="none", nodes=2,
        )
        results = coordinator.run()
        assert results == {0: [(0, 0)], 1: [(1, 1)], 2: [(2, 2)]}
        assert coordinator.report.ok
        assert coordinator.report.total_attempts == 3
