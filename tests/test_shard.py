"""Tests for the worker nodes of the coordinator (``repro.core.supervisor``).

Covers the node (``shard:``) stage of the fault grammar, exact-result
equivalence of ``workers=`` runs, the robustness machinery under injected
chaos — whole-node kills, hangs caught by heartbeat-miss detection,
stragglers rescued by speculative re-dispatch with first-settle-wins
dedup — degradation once the restart budget is spent, killed-coordinator
resume, and cancellable waits.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core import supervisor
from repro.core.api import set_containment_join
from repro.core.parallel import parallel_join
from repro.core.runlog import CancelToken, RunLog
from repro.core.supervisor import interruptible_wait
from repro.data.collection import SetCollection
from repro.errors import (
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
    WorkerFailedError,
)
from repro.faults import ACTIONS, CRASH_EXIT_CODE, FaultPlan
from repro.obs import MetricsRegistry, use_registry

from conftest import random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="node chaos timing assumes cheap fork-based node spawn",
)


@pytest.fixture()
def chaos_thresholds(monkeypatch):
    """Fast failure detection and eager speculation for the chaos tests.

    The coordinator reads its thresholds when a run starts, and forked
    nodes inherit the patched heartbeat interval.
    """
    monkeypatch.setattr(supervisor, "_HEARTBEAT_INTERVAL", 0.05)
    monkeypatch.setattr(supervisor, "_HEARTBEAT_MISS_LIMIT", 4)
    monkeypatch.setattr(supervisor, "_SPECULATION_QUORUM", 2)
    monkeypatch.setattr(supervisor, "_SPECULATION_FACTOR", 3.0)
    monkeypatch.setattr(supervisor, "_SPECULATION_MIN_SECONDS", 0.2)
    return monkeypatch


def _workload(seed: int = 7):
    r, s = random_instance(seed)
    expected = sorted(set_containment_join(r, s, method="lcjoin"))
    return r, s, expected


#: The CI chaos-dispatch job re-runs the clean-join tests under an ambient
#: ``REPRO_FAULTS`` plan; pair-set exactness must hold regardless, but
#: clean-run-shape assertions (no restarts, no duplicates) only apply
#: when no fault plan is injected from the environment.
AMBIENT_FAULTS = bool(os.environ.get("REPRO_FAULTS"))


# -- the shard stage of the fault grammar -----------------------------------


class TestShardFaultGrammar:
    def test_parse_shard_rule(self):
        plan = FaultPlan.parse("shard:0:kill")
        (rule,) = plan.rules
        assert rule.stage == "shard"
        assert rule.chunk == 0
        assert rule.action == "kill"

    def test_describe_roundtrips(self):
        for spec in (
            "shard:0:kill=1",
            "shard:*:slow@0.5=30",
            "shard:2:hang",
            "0:1:crash;shard:1:kill",
        ):
            assert FaultPlan.parse(spec).describe() == spec

    def test_rejects_task_actions_at_shard_stage(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("shard:0:crash")

    def test_rejects_shard_actions_at_task_stage(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.parse("0:1:kill")

    def test_shard_rules_never_fire_at_task_stage(self):
        plan = FaultPlan.parse("shard:0:kill")
        assert plan.rule_for(0, 1, ACTIONS) is None

    def test_task_rules_never_fire_at_shard_stage(self):
        plan = FaultPlan.parse("0:1:crash")
        assert plan.rule_for_shard(0, 1, 0) is None

    def test_kill_arg_caps_the_dying_incarnation(self):
        plan = FaultPlan.parse("shard:0:kill=1")
        assert plan.rule_for_shard(0, 1, 0) is not None
        assert plan.rule_for_shard(0, 2, 0) is None  # the respawn lives
        assert plan.rule_for_shard(1, 1, 0) is None  # other shards unaffected

    def test_probabilistic_firing_is_seed_deterministic(self):
        def fire_map(seed):
            plan = FaultPlan.parse("shard:*:kill@0.5", seed=seed)
            return [
                plan.rule_for_shard(s, 1, c) is not None
                for s in range(4)
                for c in range(8)
            ]

        assert fire_map(1) == fire_map(1)
        assert fire_map(1) != fire_map(2)
        fired = fire_map(1)
        assert any(fired) and not all(fired)


# -- clean supervised runs -------------------------------------------------


@fork_only
class TestShardedJoin:
    def test_exact_pairs_and_report_shape(self):
        r, s, expected = _workload()
        pairs, report = parallel_join(
            r, s, method="lcjoin", workers=2, return_report=True
        )
        assert sorted(pairs) == expected
        assert report.workers == 2
        assert len(report.shards) == 2
        assert report.ok
        if not AMBIENT_FAULTS:
            assert report.shard_restarts == 0
            assert not report.speculated_chunks
            # Every chunk settled on a node, and each node's settle list
            # is consistent with the per-chunk attempt records.
            settled = sorted(c for sh in report.shards for c in sh.settled)
            assert settled == list(range(len(report.chunks)))
            for chunk in report.chunks:
                assert chunk.attempts[-1].mode == "pickle"
                assert chunk.attempts[-1].shard is not None

    def test_matches_every_method_vs_serial(self):
        r, s = random_instance(21)
        for method in ("lcjoin", "framework", "pretti"):
            expected = sorted(set_containment_join(r, s, method=method))
            got = parallel_join(r, s, method=method, workers=2)
            assert sorted(got) == expected, method

    def test_shard_counters(self):
        r, s, expected = _workload()
        reg = MetricsRegistry()
        with use_registry(reg):
            pairs = parallel_join(r, s, method="lcjoin", workers=2)
        assert sorted(pairs) == expected
        n_chunks = reg.counters["shard.settled"]
        assert n_chunks > 0
        if not AMBIENT_FAULTS:
            assert reg.counters["shard.assigned"] == n_chunks


# -- chaos: whole-node kills, hangs, stragglers -----------------------------


@fork_only
@pytest.mark.usefixtures("chaos_thresholds")
class TestShardChaos:
    def test_shard_kill_midrun_recovers_exact_pairs(self):
        """A whole node SIGKILL-equivalent dies at job pickup; the run
        still matches serial, and the respawn spends the restart budget."""
        r, s, expected = _workload()
        with pytest.warns(DegradedExecutionWarning):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=2,
                faults=FaultPlan.parse("shard:0:kill=1"), return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.shard_restarts == 1
        assert report.shards[0].deaths == 1
        assert report.shards[0].incarnations == 2
        # The chunk the dying node held was requeued and settled elsewhere
        # (or on the respawn): its trail ends ok after a recorded crash.
        crashed = [
            c for c in report.chunks
            if any(a.outcome == "crash" for a in c.attempts)
        ]
        assert crashed and all(c.ok for c in crashed)

    def test_hung_shard_is_caught_by_heartbeat_misses(self):
        r, s, expected = _workload()
        reg = MetricsRegistry()
        with pytest.warns(DegradedExecutionWarning), use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=2,
                faults=FaultPlan.parse("shard:0:hang=60"), return_report=True,
            )
        assert sorted(pairs) == expected
        assert reg.counters["shard.heartbeat_misses"] >= 1
        assert any(sh.heartbeat_misses >= 1 for sh in report.shards)
        assert any(
            "heartbeat" in (sh.last_error or "") for sh in report.shards
        )

    def test_straggler_is_rescued_by_speculation(self):
        """A node that sleeps (but heartbeats) never fails — only the
        speculative duplicate can settle its chunk promptly. Three nodes:
        the two healthy ones settle the quorum and then take the twin."""
        r, s, expected = _workload()
        reg = MetricsRegistry()
        start = time.monotonic()
        with use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=3,
                faults=FaultPlan.parse("shard:0:slow=60"), return_report=True,
            )
        elapsed = time.monotonic() - start
        assert sorted(pairs) == expected
        assert report.speculation_wins, report.summary()
        assert reg.counters["shard.speculated"] >= 1
        assert reg.counters["shard.speculation_wins"] >= 1
        # The straggler held its chunk for 60s; winning by speculation is
        # what kept the run's wall clock short of that.
        assert elapsed < 30
        assert report.shard_restarts == 0  # a slow node is not a dead one

    def test_all_shards_dead_degrades_to_in_process(self, chaos_thresholds):
        chaos_thresholds.setattr(supervisor, "_RESTART_BUDGET", 0)
        r, s, expected = _workload()
        with pytest.warns(DegradedExecutionWarning):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=2,
                faults=FaultPlan.parse("shard:*:kill"), return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.fallbacks == len(report.chunks)
        assert all(sh.deaths >= sh.incarnations for sh in report.shards)

    def test_fallback_false_raises_worker_failed(self, chaos_thresholds):
        chaos_thresholds.setattr(supervisor, "_RESTART_BUDGET", 0)
        r, s, __ = _workload()
        with pytest.raises(WorkerFailedError):
            parallel_join(
                r, s, method="lcjoin", workers=2, fallback=False,
                faults=FaultPlan.parse("shard:*:kill"),
            )

    def test_restart_budget_bounds_respawns(self, chaos_thresholds):
        """``shard:0:kill`` (no incarnation cap) kills every respawn too;
        the budget stops the crash loop and the survivor finishes."""
        chaos_thresholds.setattr(supervisor, "_RESTART_BUDGET", 1)
        r, s, expected = _workload()
        with pytest.warns(DegradedExecutionWarning):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=2,
                faults=FaultPlan.parse("shard:0:kill"), return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.shard_restarts == 1
        assert report.shards[0].deaths >= report.shards[0].incarnations
        assert report.shards[1].settled  # the survivor did the work


# -- speculative dedup: first settle wins, byte-identical merge -------------


@fork_only
class TestSpeculativeDedup:
    def test_both_attempts_settle_one_wins(self, chaos_thresholds):
        """A straggler and its speculative twin race for one chunk;
        exactly one settles it and the loser is ``superseded``.

        Node 0 sleeps 1.2s per job (still heartbeating), nodes 1 and 2
        sleep 0.1s per job: they settle the two-chunk quorum at ~0.1s, the
        duplicate for chunk 0 lands on one of them and finishes long
        before the straggler wakes. The assertions are deliberately
        agnostic about *which* twin wins: either way exactly one result
        settles the chunk, the other is recorded ``superseded``, and the
        merged pair set is byte-identical to the serial join.
        """
        chaos_thresholds.setattr(supervisor, "_SPECULATION_FACTOR", 2.0)
        chaos_thresholds.setattr(supervisor, "_SPECULATION_MIN_SECONDS", 0.1)
        r, s, expected = _workload(11)
        reg = MetricsRegistry()
        with use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="lcjoin", workers=3,
                faults=FaultPlan.parse("shard:0:slow=1.2;shard:*:slow=0.1"),
                return_report=True,
            )
        # Byte-identical merge: same pairs, same order as the serial join.
        assert pairs == set_containment_join(r, s, method="lcjoin")
        assert sorted(pairs) == expected
        assert report.speculated_chunks, report.summary()
        # Exactly one settle per chunk, however many dispatches raced.
        assert reg.counters["shard.settled"] == len(report.chunks)
        assert reg.counters["shard.assigned"] > len(report.chunks)
        for chunk_id in report.speculated_chunks:
            chunk = report.chunk(chunk_id)
            outcomes = [a.outcome for a in chunk.attempts]
            assert outcomes.count("ok") == 1
            assert outcomes.count("superseded") >= 1
            assert chunk.attempts[-1].outcome == "ok"  # winner recorded last
            winner = chunk.attempts[-1]
            loser = next(a for a in chunk.attempts if a.outcome == "superseded")
            assert winner.shard != loser.shard


# -- killed-coordinator resume ----------------------------------------------


def _run_driver_once(seed, ckpt, fault_spec):
    """Child-process body: one coordinator attempt over ``ckpt``."""
    r, s = random_instance(seed)
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    parallel_join(
        r, s, method="lcjoin", workers=4, checkpoint_dir=ckpt, resume=True,
        faults=plan,
    )


@fork_only
class TestKilledCoordinatorResume:
    def test_driverkill_resume_reexecutes_only_unsettled(self, tmp_path):
        """Kill the coordinator after each durable spill; every resumed
        generation re-executes only the chunks that had not settled."""
        seed = 41
        r, s = random_instance(seed)
        expected = sorted(set_containment_join(r, s, method="lcjoin"))
        ckpt = str(tmp_path / "ck")

        generations = 0
        for __ in range(40):  # bounded; one more spill per generation
            proc = multiprocessing.Process(
                target=_run_driver_once,
                args=(seed, ckpt, "*:*:driverkill"),
            )
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode is not None, "coordinator generation hung"
            if proc.exitcode == 0:
                break
            assert proc.exitcode == CRASH_EXIT_CODE
            generations += 1
        else:
            pytest.fail("kill/resume loop did not converge")
        assert generations >= 3, "driverkill fired at fewer than 3 points"

        # Final resume: everything comes from spills, nothing re-executes.
        pairs, report = parallel_join(
            r, s, method="lcjoin", workers=4, checkpoint_dir=ckpt,
            resume=True, return_report=True,
        )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == list(range(len(report.chunks)))
        assert RunLog.open(ckpt).is_complete()

    def test_partial_resume_marks_resumed_chunks(self, tmp_path):
        """The coordinator dies right after its first durable spill, so
        exactly one chunk resumes and the rest re-execute. (Killing after
        a named chunk's spill is racy with four chunks: that chunk may
        settle last, leaving nothing to re-execute.)"""
        seed = 41
        r, s = random_instance(seed)
        expected = sorted(set_containment_join(r, s, method="lcjoin"))
        ckpt = str(tmp_path / "ck")
        proc = multiprocessing.Process(
            target=_run_driver_once, args=(seed, ckpt, "*:*:driverkill")
        )
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == CRASH_EXIT_CODE

        pairs, report = parallel_join(
            r, s, method="lcjoin", workers=4, checkpoint_dir=ckpt,
            resume=True, return_report=True,
        )
        assert sorted(pairs) == expected
        assert report.resumed_chunks
        assert len(report.resumed_chunks) < len(report.chunks)
        assert len(report.resumed_chunks) == 1
        for chunk_id in report.resumed_chunks:
            assert report.chunk(chunk_id).attempts[0].outcome == "resumed"


# -- cancellable waits (supervisor and coordinator) -------------------------


class TestInterruptibleWait:
    def test_sleeps_without_handles(self):
        start = time.monotonic()
        interruptible_wait(0.05)
        assert time.monotonic() - start >= 0.04

    def test_cancel_aborts_the_wait_immediately(self):
        token = CancelToken()
        try:
            timer = threading.Timer(0.05, token.cancel)
            timer.start()
            start = time.monotonic()
            interruptible_wait(10.0, cancel=token)
            assert time.monotonic() - start < 5.0
        finally:
            timer.cancel()
            token.close()

    def test_deadline_clamps_the_wait(self):
        start = time.monotonic()
        interruptible_wait(10.0, deadline_mark=time.monotonic() + 0.05)
        assert time.monotonic() - start < 5.0


@fork_only
class TestCancellableBackoff:
    def test_cancel_interrupts_supervisor_retry_backoff(self):
        """With ``backoff=30`` every retry used to sleep half a minute;
        a cancel token must abort the wait, not wait it out."""
        r, s, __ = _workload()
        token = CancelToken()
        try:
            timer = threading.Timer(0.5, token.cancel)
            timer.start()
            start = time.monotonic()
            with pytest.raises(JoinCancelledError):
                parallel_join(
                    r, s, method="lcjoin", workers=2, retries=3,
                    backoff=30.0, backoff_cap=30.0, cancel=token,
                    faults=FaultPlan.parse("*:*:crash"),
                )
            assert time.monotonic() - start < 15.0
        finally:
            timer.cancel()
            token.close()

    def test_cancel_interrupts_shard_respawn_backoff(self):
        """Both nodes die at job pickup; their charged respawns wait out a
        30s backoff that the cancel token must cut short."""
        r, s, __ = _workload()
        token = CancelToken()
        try:
            timer = threading.Timer(0.5, token.cancel)
            timer.start()
            start = time.monotonic()
            with pytest.raises(JoinCancelledError):
                parallel_join(
                    r, s, method="lcjoin", workers=2, backoff=30.0,
                    backoff_cap=30.0, cancel=token,
                    faults=FaultPlan.parse("shard:*:kill"),
                )
            assert time.monotonic() - start < 15.0
        finally:
            timer.cancel()
            token.close()


# -- CLI ---------------------------------------------------------------------


@fork_only
class TestShardCli:
    def test_report_renders_shard_lines(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data.io import save_collection

        path = str(tmp_path / "data.txt")
        save_collection(SetCollection([[0, 1], [0], [1, 2]]), path)
        assert main(["join", path, "--workers", "2", "--count-only",
                     "--report"]) == 0
        err = capsys.readouterr().err
        assert "nodes=2" in err
        assert "restarts=" in err and "speculation_wins=" in err
