"""Durability suite for the checkpointed parallel join.

The tentpole guarantee under test: a driver killed at *any* point can be
resumed from its checkpoint directory and still produce exactly the serial
join's pair set — no lost pairs, no duplicates — re-executing only the
chunks whose spills are missing or torn. The suite drives real driver
processes through deterministic fault plans (``driverkill``, ``torn``,
``diskfull``), exercises cooperative cancellation (signals, deadlines) and
memory-budget admission control, and asserts the resume-refusal contract
on manifest mismatch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.core.api import set_containment_join
from repro.core.parallel import (
    _CHUNK_FIXED_BYTES,
    _PY_BYTES_PER_ENTRY,
    parallel_join,
)
from repro.core.runlog import (
    ABORTED_NAME,
    COMPLETE_NAME,
    MANIFEST_NAME,
    CancelToken,
    RunLog,
    RunManifest,
    atomic_write_bytes,
    collection_fingerprint,
)
from repro.data.collection import SetCollection
from repro.data.synthetic import generate_zipf
from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    DegradedExecutionWarning,
    InvalidParameterError,
    JoinCancelledError,
    ResumeMismatchError,
)
from repro.faults import CRASH_EXIT_CODE, FaultPlan
from repro.memory.meter import collection_footprint
from repro.obs.registry import MetricsRegistry, use_registry

from conftest import random_instance

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="closure-carrying jobs require the fork start method",
)

_SHM_DIR = Path("/dev/shm")
REPO_ROOT = Path(__file__).resolve().parents[1]


def _shm_entries() -> set:
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


def _spill_names(ckpt: Path) -> list:
    return sorted(p.name for p in ckpt.iterdir() if p.name.endswith(".pairs"))


def _make_manifest(**overrides) -> RunManifest:
    base = dict(
        run_id="deadbeef",
        r_fingerprint="r" * 16,
        s_fingerprint="s" * 16,
        method="framework",
        backend="python",
        strategy="round_robin",
        kwargs_repr="[]",
        num_chunks=3,
        n_records=12,
        created=0.0,
    )
    base.update(overrides)
    return RunManifest(**base)


# -- atomic writes and spill encoding --------------------------------------


class TestAtomicWrite:
    def test_writes_payload_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "x" / "payload.bin"
        target.parent.mkdir()
        atomic_write_bytes(str(target), b"hello")
        assert target.read_bytes() == b"hello"
        assert [p.name for p in target.parent.iterdir()] == ["payload.bin"]

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(str(target), b"old")
        atomic_write_bytes(str(target), b"new")
        assert target.read_bytes() == b"new"


class TestRunLogUnit:
    def test_spill_roundtrip(self, tmp_path):
        log = RunLog.create(str(tmp_path / "ck"), _make_manifest())
        pairs = [(3, 1), (0, 2), (7, 7)]
        log.record_chunk(1, 1, pairs)
        completed, discarded = RunLog.open(str(tmp_path / "ck")).load_chunks()
        assert completed == {1: pairs}
        assert discarded == []

    def test_torn_spill_discarded_and_deleted(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = RunLog.create(str(ckpt), _make_manifest())
        log.record_chunk(0, 1, [(0, 0), (1, 1)])
        path = Path(log.chunk_path(0))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])  # torn tail
        completed, discarded = RunLog.open(str(ckpt)).load_chunks()
        assert completed == {}
        assert discarded == [0]
        assert not path.exists()

    def test_tampered_payload_discarded(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = RunLog.create(str(ckpt), _make_manifest())
        log.record_chunk(2, 1, [(5, 5)])
        path = Path(log.chunk_path(2))
        raw = path.read_bytes().replace(b"5 5", b"5 6")
        path.write_bytes(raw)  # checksum no longer matches
        completed, discarded = RunLog.open(str(ckpt)).load_chunks()
        assert completed == {}
        assert discarded == [2]

    def test_stray_temp_files_removed_on_load(self, tmp_path):
        ckpt = tmp_path / "ck"
        log = RunLog.create(str(ckpt), _make_manifest())
        stray = ckpt / "chunk-00000.pairs.tmp"
        stray.write_bytes(b"half a write")
        log.load_chunks()
        assert not stray.exists()

    def test_create_refuses_existing_manifest(self, tmp_path):
        RunLog.create(str(tmp_path), _make_manifest())
        with pytest.raises(CheckpointError, match="resume=True"):
            RunLog.create(str(tmp_path), _make_manifest())

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no readable run manifest"):
            RunLog.open(str(tmp_path / "nope"))

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError):
            RunLog.open(str(tmp_path))

    def test_manifest_validate_lists_mismatched_fields(self):
        manifest = _make_manifest()
        with pytest.raises(ResumeMismatchError) as info:
            manifest.validate(
                "other-r", manifest.s_fingerprint, "lcjoin",
                manifest.backend, manifest.strategy,
                manifest.kwargs_repr, manifest.n_records,
            )
        message = str(info.value)
        assert "r_fingerprint" in message and "method" in message
        assert "s_fingerprint" not in message
        # The refusal is its own type, distinct from generic checkpoint
        # corruption, so callers can catch exactly the "wrong inputs" case.
        assert isinstance(info.value, CheckpointError)

    def test_markers(self, tmp_path):
        log = RunLog.create(str(tmp_path), _make_manifest())
        assert not log.is_complete()
        log.mark_aborted("testing")
        assert "testing" in (log.aborted_reason() or "")
        log.mark_complete()
        assert log.is_complete()
        assert log.aborted_reason() is None
        log.mark_aborted("late")  # no-op once COMPLETE exists
        assert log.aborted_reason() is None

    def test_collection_fingerprint_is_content_addressed(self):
        a = SetCollection([[0, 1], [2]])
        b = SetCollection([[0, 1], [2]])
        c = SetCollection([[0, 1], [2, 3]])
        assert collection_fingerprint(a) == collection_fingerprint(b)
        assert collection_fingerprint(a) != collection_fingerprint(c)


# -- checkpointed runs end to end ------------------------------------------


class TestCheckpointRoundtrip:
    def test_fresh_run_writes_manifest_spills_and_complete(self, tmp_path):
        r, s = random_instance(31)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = tmp_path / "ck"
        pairs, report = parallel_join(
            r, s, method="framework", workers=2,
            checkpoint_dir=str(ckpt), return_report=True,
        )
        assert sorted(pairs) == expected
        assert (ckpt / MANIFEST_NAME).is_file()
        assert (ckpt / COMPLETE_NAME).is_file()
        assert len(_spill_names(ckpt)) == 2
        assert not list(ckpt.glob("*.tmp"))
        assert report.checkpoint_dir == str(ckpt)
        assert report.resumed_chunks == []

    def test_resume_of_complete_run_skips_execution(self, tmp_path):
        r, s = random_instance(32)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = str(tmp_path / "ck")
        parallel_join(r, s, method="framework", workers=2, checkpoint_dir=ckpt)
        reg = MetricsRegistry()
        with use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="framework", workers=2,
                checkpoint_dir=ckpt, resume=True, return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == [0, 1]
        assert report.reexecuted_chunks == []
        assert reg.counters["checkpoint.chunks_resumed"] == 2
        assert "resumed=2" in report.summary()

    def test_resume_reexecutes_only_torn_chunk(self, tmp_path):
        r, s = random_instance(33)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = tmp_path / "ck"
        parallel_join(
            r, s, method="framework", workers=3, checkpoint_dir=str(ckpt)
        )
        torn = ckpt / "chunk-00001.pairs"
        raw = torn.read_bytes()
        torn.write_bytes(raw[: max(1, len(raw) - 4)])
        reg = MetricsRegistry()
        with use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="framework", workers=3,
                checkpoint_dir=str(ckpt), resume=True, return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.reexecuted_chunks == [1]
        assert report.resumed_chunks == [0, 2]
        assert reg.counters["checkpoint.chunks_discarded"] == 1
        # The re-executed chunk was spilled again, valid this time.
        completed, discarded = RunLog.open(str(ckpt)).load_chunks()
        assert set(completed) == {0, 1, 2} and discarded == []

    def test_resume_refuses_different_dataset(self, tmp_path):
        r, s = random_instance(34)
        ckpt = str(tmp_path / "ck")
        parallel_join(r, s, method="framework", workers=2, checkpoint_dir=ckpt)
        r2, s2 = random_instance(35)
        with pytest.raises(ResumeMismatchError, match="fingerprint"):
            parallel_join(
                r2, s2, method="framework", workers=2,
                checkpoint_dir=ckpt, resume=True,
            )

    def test_resume_refuses_different_params(self, tmp_path):
        r, s = random_instance(34)
        ckpt = str(tmp_path / "ck")
        parallel_join(r, s, method="framework", workers=2, checkpoint_dir=ckpt)
        with pytest.raises(ResumeMismatchError, match="method"):
            parallel_join(
                r, s, method="tree", workers=2,
                checkpoint_dir=ckpt, resume=True,
            )

    def test_fresh_run_refuses_occupied_directory(self, tmp_path):
        r, s = random_instance(34)
        ckpt = str(tmp_path / "ck")
        parallel_join(r, s, method="framework", workers=2, checkpoint_dir=ckpt)
        with pytest.raises(CheckpointError, match="resume=True"):
            parallel_join(
                r, s, method="framework", workers=2, checkpoint_dir=ckpt
            )

    def test_resume_without_manifest_is_a_fresh_run(self, tmp_path):
        # resume=True on an empty directory starts a new run: the flag is
        # "continue if possible", which makes kill-resume loops idempotent.
        r, s = random_instance(36)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = str(tmp_path / "ck")
        pairs = parallel_join(
            r, s, method="framework", workers=2,
            checkpoint_dir=ckpt, resume=True,
        )
        assert sorted(pairs) == expected


# -- kill/resume chaos ------------------------------------------------------


def _run_driver_once(seed, ckpt, fault_spec, backend="hybrid", conn=None):
    """Child-process body: one driver attempt over the checkpoint dir."""
    r, s = random_instance(seed)
    plan = FaultPlan.parse(fault_spec) if fault_spec else None
    pairs, report = parallel_join(
        r, s, method="framework", workers=4, backend=backend,
        checkpoint_dir=ckpt, resume=True, faults=plan, return_report=True,
    )
    if conn is not None:
        conn.send((sorted(pairs), report.resumed_chunks, report.reexecuted_chunks))
        conn.close()


@fork_only
class TestKillResumeChaos:
    def test_driverkill_at_every_settle_point(self, tmp_path, shm_leak_check):
        """Kill the driver after each durable spill; resume to completion.

        ``*:*:driverkill`` dies at the *first* spill of every run, so each
        driver generation persists exactly one more chunk than the last —
        four generations die at four distinct points before the final
        resume completes the join from spills alone.
        """
        seed = 41
        r, s = random_instance(seed)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = str(tmp_path / "ck")

        generations = 0
        for __ in range(16):  # bounded retry loop; 4 chunks → 4 kills
            proc = multiprocessing.Process(
                target=_run_driver_once,
                args=(seed, ckpt, "*:*:driverkill"),
            )
            proc.start()
            proc.join(timeout=60)
            assert proc.exitcode is not None, "driver generation hung"
            if proc.exitcode == 0:
                break
            assert proc.exitcode == CRASH_EXIT_CODE
            generations += 1
            # Progress invariant: every killed generation left exactly one
            # more durable spill than the one before it.
            assert len(_spill_names(Path(ckpt))) == generations
        else:
            pytest.fail("kill/resume loop did not converge")
        assert generations >= 3, "driverkill fired at fewer than 3 points"

        # Final resume: everything comes from spills, nothing re-executes.
        reg = MetricsRegistry()
        with use_registry(reg):
            # The all-resumed path runs in this process to read the report.
            pairs, report = parallel_join(
                r, s, method="framework", workers=4, backend="hybrid",
                checkpoint_dir=ckpt, resume=True, return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.resumed_chunks == [0, 1, 2, 3]
        assert report.reexecuted_chunks == []
        assert reg.counters["checkpoint.chunks_resumed"] == 4
        assert RunLog.open(ckpt).is_complete()
        assert not list(Path(ckpt).glob("*.tmp"))

    def test_torn_fault_then_resume_reexecutes_torn_chunk(
        self, tmp_path, shm_leak_check
    ):
        seed = 43
        r, s = random_instance(seed)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = str(tmp_path / "ck")
        proc = multiprocessing.Process(
            target=_run_driver_once, args=(seed, ckpt, "1:*:torn", "python")
        )
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == CRASH_EXIT_CODE
        assert "chunk-00001.pairs" in _spill_names(Path(ckpt))

        reg = MetricsRegistry()
        with use_registry(reg):
            pairs, report = parallel_join(
                r, s, method="framework", workers=4,
                checkpoint_dir=ckpt, resume=True, return_report=True,
            )
        assert sorted(pairs) == expected
        assert 1 in report.reexecuted_chunks
        assert reg.counters["checkpoint.chunks_discarded"] >= 1


# -- degradation: disk full -------------------------------------------------


class TestDiskFullDegradation:
    def test_diskfull_disables_checkpointing_but_join_completes(self, tmp_path):
        r, s = random_instance(51)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = tmp_path / "ck"
        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.warns(DegradedExecutionWarning, match="spill"):
                pairs, report = parallel_join(
                    r, s, method="framework", workers=2,
                    checkpoint_dir=str(ckpt),
                    faults=FaultPlan.parse("*:*:diskfull"),
                    return_report=True,
                )
        assert sorted(pairs) == expected
        assert reg.counters["checkpoint.write_errors"] == 1
        assert _spill_names(ckpt) == []  # first spill failed, rest disabled
        assert any("disabled" in note for note in report.degradations)
        assert RunLog.open(str(ckpt)).is_complete()


# -- cooperative cancellation and deadlines ---------------------------------


@fork_only
class TestCancellation:
    def test_cancel_token_aborts_and_resume_completes(
        self, tmp_path, shm_leak_check
    ):
        r, s = random_instance(61)
        expected = sorted(set_containment_join(r, s, method="framework"))
        ckpt = str(tmp_path / "ck")
        token = CancelToken()
        # Chunk 1 hangs; once chunk 0's spill lands, cancel from a thread.
        spill0 = Path(ckpt) / "chunk-00000.pairs"

        def cancel_after_first_spill():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not spill0.exists():
                time.sleep(0.02)
            token.cancel("test cancel")

        thread = threading.Thread(target=cancel_after_first_spill)
        thread.start()
        try:
            with pytest.raises(JoinCancelledError) as info:
                parallel_join(
                    r, s, method="framework", workers=2,
                    checkpoint_dir=ckpt, cancel=token,
                    faults=FaultPlan.parse("1:*:hang=120"),
                )
        finally:
            thread.join()
            token.close()
        assert info.value.reason == "test cancel"
        log = RunLog.open(ckpt)
        assert not log.is_complete()
        assert "JoinCancelledError" in (log.aborted_reason() or "")

        pairs, report = parallel_join(
            r, s, method="framework", workers=2,
            checkpoint_dir=ckpt, resume=True, return_report=True,
        )
        assert sorted(pairs) == expected
        assert 0 in report.resumed_chunks
        assert RunLog.open(ckpt).is_complete()
        assert RunLog.open(ckpt).aborted_reason() is None

    def test_deadline_aborts_hung_run(self, tmp_path, shm_leak_check):
        r, s = random_instance(62)
        ckpt = str(tmp_path / "ck")
        reg = MetricsRegistry()
        start = time.monotonic()
        with use_registry(reg):
            with pytest.raises(DeadlineExceededError):
                parallel_join(
                    r, s, method="framework", workers=2,
                    checkpoint_dir=ckpt, deadline=0.5,
                    faults=FaultPlan.parse("*:*:hang=120"),
                )
        assert time.monotonic() - start < 30  # not the 120 s hang
        assert reg.counters["supervisor.deadline_aborts"] == 1
        assert reg.counters["checkpoint.aborts"] == 1
        assert "deadline" in (RunLog.open(ckpt).aborted_reason() or "")

    def test_deadline_without_checkpoint(self):
        # The deadline stands alone: no durability required.
        r, s = random_instance(63)
        with pytest.raises(DeadlineExceededError):
            parallel_join(
                r, s, method="framework", workers=2, deadline=0.5,
                faults=FaultPlan.parse("*:*:hang=120"),
            )


# -- memory-budget admission control ----------------------------------------


class TestMemoryBudget:
    def test_impossible_budget_rejected(self):
        r, s = random_instance(71)
        with pytest.raises(InvalidParameterError, match="memory_budget"):
            parallel_join(
                r, s, method="framework", workers=2, memory_budget=1024
            )

    def test_tight_budget_splits_and_caps_with_warning(self):
        r, s = random_instance(72)
        expected = sorted(set_containment_join(r, s, method="framework"))
        # Roomy enough for one minimal worker, too tight for the default
        # plan: admission must split chunks and/or cap concurrency.
        budget = 512 * 1024
        with pytest.warns(DegradedExecutionWarning, match="memory budget"):
            pairs, report = parallel_join(
                r, s, method="framework", workers=8,
                memory_budget=budget, return_report=True,
            )
        assert sorted(pairs) == expected
        assert any("memory budget" in note for note in report.degradations)

    def test_ample_budget_changes_nothing(self):
        r, s = random_instance(73)
        expected = sorted(set_containment_join(r, s, method="framework"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs, report = parallel_join(
                r, s, method="framework", workers=2,
                memory_budget=1 << 32, return_report=True,
            )
        assert sorted(pairs) == expected
        assert report.degradations == []

    def test_admission_decisions_counted(self):
        r, s = random_instance(72)
        reg = MetricsRegistry()
        with use_registry(reg), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parallel_join(
                r, s, method="framework", workers=8, memory_budget=512 * 1024
            )
        assert (
            reg.counters.get("supervisor.memory_splits", 0)
            + reg.counters.get("supervisor.memory_caps", 0)
        ) >= 1

    def test_budget_prices_the_largest_anchor_chunk(self):
        # The anchor split keeps partitions whole, so its chunks balance
        # records, not entries: here one chunk holds 27 entries where the
        # mean is 18. A budget that fits two workers holding mean-sized
        # chunks must not admit two workers holding the real largest one.
        r = SetCollection([list(range(10, 18))] * 3 + [[1, 2]] * 3)
        entries = collection_footprint(r)
        mean_worker = (
            entries * _PY_BYTES_PER_ENTRY  # each worker's own python index
            + -(-entries // 2) * _PY_BYTES_PER_ENTRY
            + _CHUNK_FIXED_BYTES
        )
        with pytest.warns(DegradedExecutionWarning, match="memory budget"):
            pairs, report = parallel_join(
                r, r, method="lcjoin", workers=2,
                memory_budget=2 * mean_worker, return_report=True,
            )
        assert sorted(pairs) == sorted(set_containment_join(r, r, method="lcjoin"))
        assert any("memory budget" in note for note in report.degradations)

    def test_partitioned_method_priced_by_the_index_it_ships(self):
        # The tree methods bind python lists, so they ship the python index
        # on every backend: one 96 B/entry copy per worker, not a shared
        # 24 B/entry array index. At this budget the python backend runs
        # one worker; hybrid ships the same index and must get the same cap.
        data = generate_zipf(cardinality=3000, seed=1)
        for method in ("lcjoin", "tree", "tree_et"):
            runs = {}
            for backend in ("python", "hybrid"):
                with pytest.warns(
                    DegradedExecutionWarning, match="capped at 1 worker"
                ):
                    runs[backend] = parallel_join(
                        data, data, method=method, workers=2, backend=backend,
                        memory_budget=6_870_000, return_report=True,
                    )
            (py_pairs, py_report), (hy_pairs, hy_report) = (
                runs["python"], runs["hybrid"]
            )
            assert py_report.workers == hy_report.workers == 1, method
            assert py_report.degradations == hy_report.degradations
            assert sorted(hy_pairs) == sorted(py_pairs)


# -- parameter validation ---------------------------------------------------


class TestValidation:
    def test_resume_requires_checkpoint_dir(self):
        r, s = random_instance(81)
        with pytest.raises(InvalidParameterError, match="checkpoint_dir"):
            parallel_join(r, s, workers=2, resume=True)

    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_nonpositive_deadline_rejected(self, bad):
        r, s = random_instance(81)
        with pytest.raises(InvalidParameterError, match="deadline"):
            parallel_join(r, s, workers=2, deadline=bad)

    def test_nonpositive_budget_rejected(self):
        r, s = random_instance(81)
        with pytest.raises(InvalidParameterError, match="memory_budget"):
            parallel_join(r, s, workers=2, memory_budget=0)

    @pytest.mark.parametrize(
        "knob",
        [
            {"checkpoint_dir": "/tmp/x"},
            {"resume": True},
            {"deadline": 5.0},
            {"memory_budget": 1 << 30},
        ],
    )
    def test_api_knobs_require_workers(self, knob):
        r, s = random_instance(81)
        with pytest.raises(InvalidParameterError, match="workers"):
            set_containment_join(r, s, method="framework", **knob)


# -- fault grammar: the checkpoint stage ------------------------------------


class TestCheckpointFaultGrammar:
    def test_checkpoint_actions_parse(self):
        plan = FaultPlan.parse("0:1:driverkill;1:*:diskfull;2:2:torn")
        assert [r.action for r in plan.rules] == [
            "driverkill", "diskfull", "torn"
        ]

    def test_unknown_action_names_valid_set(self):
        with pytest.raises(InvalidParameterError, match="driverkill"):
            FaultPlan.parse("0:1:powercut")

    def test_rule_for_checkpoint_selects_only_driver_stage_actions(self):
        plan = FaultPlan.parse("0:1:crash;0:1:driverkill")
        rule = plan.rule_for_checkpoint(0, 1)
        assert rule is not None and rule.action == "driverkill"
        assert plan.rule_for_checkpoint(3, 1) is None

    def test_worker_stage_ignores_checkpoint_actions(self):
        # A driver-stage action must never fire inside a worker attempt.
        r, s = random_instance(82)
        expected = sorted(set_containment_join(r, s, method="framework"))
        pairs = parallel_join(
            r, s, method="framework", workers=2,
            faults=FaultPlan.parse("*:*:driverkill"),
        )
        assert sorted(pairs) == expected  # no checkpoint armed → no effect


# -- CLI: SIGINT cancellation and resume ------------------------------------


def _write_cli_dataset(tmp_path: Path) -> Path:
    from repro.data.io import save_collection

    r, __ = random_instance(91)
    path = tmp_path / "data.txt"
    save_collection(r, str(path))
    return path


@fork_only
class TestCliCancellation:
    def test_sigint_aborts_then_resume_completes(self, tmp_path, shm_leak_check):
        data = _write_cli_dataset(tmp_path)
        ckpt = tmp_path / "ck"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        base = [
            sys.executable, "-m", "repro", "join", str(data),
            "--method", "framework", "--workers", "2",
            "--checkpoint", str(ckpt),
        ]
        env_hang = dict(env, REPRO_FAULTS="1:*:hang=120")
        proc = subprocess.Popen(
            base, env=env_hang,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # Wait until chunk 0's spill is durable, then interrupt.
            deadline = time.monotonic() + 60
            spill0 = ckpt / "chunk-00000.pairs"
            while time.monotonic() < deadline and not spill0.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                time.sleep(0.05)
            assert spill0.exists(), "driver never spilled chunk 0"
            proc.send_signal(signal.SIGINT)
            __, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode != 0
        assert b"SIGINT" in stderr
        assert (ckpt / ABORTED_NAME).is_file()
        assert not list(ckpt.glob("*.tmp"))

        done = subprocess.run(
            base + ["--resume"], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()
        got = sorted(
            tuple(map(int, line.split()))
            for line in done.stdout.decode().splitlines()
            if line.strip()
        )
        from repro.data.io import load_collection

        r = load_collection(str(data))
        expected = sorted(set_containment_join(r, r, method="framework"))
        assert got == expected
        assert (ckpt / COMPLETE_NAME).is_file()

    def test_cli_durable_flags_require_workers(self, tmp_path, capsys):
        from repro.cli import main

        data = _write_cli_dataset(tmp_path)
        assert main(["join", str(data), "--checkpoint", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert "--workers" in err
