"""The supervised executor: deadlines, heartbeats, backoff, poison.

The supervisor's load-bearing claims: backoff timing is a pure
function of the cell fingerprint (reproducible even on the failure
path), every attempt terminates — by result, error, deadline kill or
heartbeat kill — and a cell that exhausts ``max_failures`` becomes a
:class:`PoisonRecord` carrying the full per-attempt provenance instead
of aborting the campaign.  Chaos-driven end-to-end campaigns live in
``test_chaos.py``; this file covers the supervisor's own mechanics.
"""

import json

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.runtime.supervisor import (
    FAILURE_KINDS,
    AttemptFailure,
    PoisonRecord,
    SupervisedTask,
    SupervisionPolicy,
    backoff_delay,
    supervise,
)

CFG = MeasurementConfig(backend="analytic")

FP_A = "ab" * 32
FP_B = "cd" * 32


def _task(key=FP_A, benchmark="b_eff", machine="t3e", nprocs=2, config=CFG):
    return SupervisedTask(
        key=key, benchmark=benchmark, machine=machine, nprocs=nprocs, config=config
    )


class TestBackoffDelay:
    def test_deterministic_per_fingerprint_and_attempt(self):
        assert backoff_delay(FP_A, 1, 0.5) == backoff_delay(FP_A, 1, 0.5)
        assert backoff_delay(FP_A, 1, 0.5) != backoff_delay(FP_B, 1, 0.5)
        assert backoff_delay(FP_A, 1, 0.5) != backoff_delay(FP_A, 2, 0.5)

    def test_exponential_envelope_with_jitter(self):
        # delay for attempt k lies in [0.5, 1.0) x base * 2**(k-1)
        for attempt in (1, 2, 3, 4):
            nominal = 0.25 * 2 ** (attempt - 1)
            d = backoff_delay(FP_A, attempt, 0.25)
            assert 0.5 * nominal <= d < nominal

    def test_cap_bounds_the_nominal_delay(self):
        d = backoff_delay(FP_A, 10, 1.0, cap_s=2.0)
        assert d < 2.0

    def test_zero_base_disables_backoff(self):
        assert backoff_delay(FP_A, 3, 0.0) == 0.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            backoff_delay(FP_A, 0, 0.5)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.max_failures == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="deadline"):
            SupervisionPolicy(deadline_s=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            SupervisionPolicy(heartbeat_timeout_s=-1.0)
        with pytest.raises(ValueError, match="exceed"):
            SupervisionPolicy(heartbeat_interval_s=1.0, heartbeat_timeout_s=0.5)
        with pytest.raises(ValueError, match="max_failures"):
            SupervisionPolicy(max_failures=0)
        with pytest.raises(ValueError, match="backoff"):
            SupervisionPolicy(backoff_base_s=-0.1)


class TestProvenanceTypes:
    def test_attempt_failure_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            AttemptFailure(kind="mystery", message="?")

    def test_attempt_failure_roundtrip(self):
        for kind in FAILURE_KINDS:
            failure = AttemptFailure(
                kind=kind, message="m", worker_traceback="tb", elapsed_s=1.5
            )
            assert AttemptFailure.from_dict(failure.to_dict()) == failure

    def test_poison_record_roundtrip_and_describe(self):
        record = PoisonRecord(
            key=FP_A,
            benchmark="b_eff",
            machine="t3e",
            nprocs=4,
            attempts=(
                AttemptFailure(kind="crash", message="exit 9"),
                AttemptFailure(kind="error", message="RuntimeError: boom"),
            ),
        )
        assert PoisonRecord.from_dict(record.to_dict()) == record
        assert record.to_dict()["poisoned"] is True
        assert record.last.kind == "error"
        text = record.describe()
        assert "b_eff" in text and "t3e" in text and "nprocs=4" in text
        assert "2 attempt(s)" in text and "crash,error" in text

    def test_export_dict_drops_wall_clock_timings(self):
        """Exported poison trees are pure functions of the run's inputs.

        Two degraded runs of the same cell measure different attempt
        durations; their exports must still be byte-identical, so no
        ``elapsed_s`` may appear anywhere in the exported tree.
        """
        def record(elapsed):
            return PoisonRecord(
                key=FP_A,
                benchmark="b_eff",
                machine="t3e",
                nprocs=4,
                attempts=(
                    AttemptFailure(
                        kind="crash", message="exit 9", elapsed_s=elapsed
                    ),
                ),
            )

        fast, slow = record(0.25), record(7.5)
        assert fast.to_export_dict() == slow.to_export_dict()
        exported = json.dumps(fast.to_export_dict(), sort_keys=True)
        assert "elapsed_s" not in exported
        assert fast.to_export_dict()["attempts"][0] == {
            "kind": "crash", "message": "exit 9", "worker_traceback": ""
        }
        # ... while the journal form keeps the timing for diagnostics
        assert fast.to_dict()["attempts"][0]["elapsed_s"] == 0.25


def _drain(tasks, policy, jobs=1):
    """Every result and poison record one supervised campaign yields."""
    results, poisoned = {}, []
    for item in supervise(tasks, policy, jobs=jobs):
        if isinstance(item, PoisonRecord):
            poisoned.append(item)
        else:
            key, payload = item
            results[key] = payload
    return results, poisoned


def _count(chaos_dir, counter="cells"):
    """Attempts the campaign-wide chaos counter saw (0 if none ran)."""
    path = chaos_dir / f"{counter}.count"
    return int(path.read_text()) if path.exists() else 0


@pytest.fixture
def counted(monkeypatch, tmp_path):
    """Count every executed cell attempt; the armed crash never fires."""
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CHAOS_CRASH", "99")
    return tmp_path


class TestSupervise:
    def test_clean_run_returns_validated_payloads(self, counted):
        from repro.runtime.envelope import ResultEnvelope
        from repro.runtime.spec import run_spec

        spec = run_spec("b_eff", "t3e", 2, CFG)
        results, poisoned = _drain(
            [_task(key=spec.fingerprint())], SupervisionPolicy(max_failures=1)
        )
        assert poisoned == []
        assert _count(counted) == 1
        envelope = ResultEnvelope.from_dict(results[spec.fingerprint()])
        assert envelope.values["b_eff"] > 0

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            supervise([_task(), _task()], SupervisionPolicy())

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            supervise([_task()], SupervisionPolicy(), jobs=0)

    def test_error_poisons_after_max_failures(self, counted):
        # an unknown machine key raises inside the worker every time
        results, poisoned = _drain(
            [_task(machine="no-such-machine")],
            SupervisionPolicy(max_failures=2),
        )
        assert results == {}
        assert len(poisoned) == 1
        record = poisoned[0]
        assert [a.kind for a in record.attempts] == ["error", "error"]
        assert record.machine == "no-such-machine"
        assert _count(counted) == 2
        assert "Traceback" in record.last.worker_traceback

    def test_deadline_kills_and_records_kind(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHAOS_HANG", "1,2")
        _, poisoned = _drain(
            [_task()],
            SupervisionPolicy(
                deadline_s=0.5, heartbeat_interval_s=0.05, max_failures=2
            ),
        )
        assert len(poisoned) == 1
        kinds = {a.kind for a in poisoned[0].attempts}
        # the hang fires before the heartbeat thread starts, so with no
        # heartbeat timeout configured only the deadline can catch it
        assert kinds == {"deadline"}
        for attempt in poisoned[0].attempts:
            assert attempt.elapsed_s >= 0.5

    def test_heartbeat_loss_kills_faster_than_deadline(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHAOS_HANG", "1")
        _, poisoned = _drain(
            [_task()],
            SupervisionPolicy(
                deadline_s=30.0,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.5,
                max_failures=1,
            ),
        )
        assert [a.kind for a in poisoned[0].attempts] == ["heartbeat-lost"]
        assert poisoned[0].attempts[0].elapsed_s < 10.0
        # the message lands in exported result trees, so it must name
        # only the configured threshold, never the measured silence
        assert poisoned[0].attempts[0].message == (
            "heartbeat silence exceeded the 0.5s threshold"
        )

    def test_crash_is_retried_then_succeeds(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        results, poisoned = _drain([_task()], SupervisionPolicy(max_failures=3))
        assert poisoned == []
        assert _count(tmp_path) == 2
        assert len(results) == 1

    def test_corrupt_return_is_detected_and_retried(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHAOS_CORRUPT", "1")
        _, poisoned = _drain([_task()], SupervisionPolicy(max_failures=3))
        assert poisoned == []
        assert _count(tmp_path, "returns") == 2

    def test_poisons_sorted_by_cell_identity(self, monkeypatch):
        # poisons are yielded as they land; the grid outcome sorts them
        from repro.runtime.scheduler import run_grid
        from repro.runtime.spec import run_spec

        monkeypatch.setenv("REPRO_CHAOS_POISON", "b_eff:t3e:4,b_eff:sr2201:2")
        outcome = run_grid(
            [run_spec("b_eff", "t3e", 4, CFG), run_spec("b_eff", "sr2201", 2, CFG)],
            jobs=2,
            supervision=SupervisionPolicy(max_failures=1),
        )
        assert [p.machine for p in outcome.poisoned] == ["sr2201", "t3e"]

    def test_parallel_supervised_matches_serial(self):
        from repro.runtime.spec import run_spec

        specs = [run_spec("b_eff", "t3e", n, CFG) for n in (2, 4)]
        tasks = [
            _task(key=s.fingerprint(), nprocs=s.nprocs) for s in specs
        ]
        serial, _ = _drain(tasks, SupervisionPolicy(max_failures=1), jobs=1)
        parallel, _ = _drain(tasks, SupervisionPolicy(max_failures=1), jobs=2)
        assert serial == parallel


class TestWorkerReuse:
    """Workers are long-lived: they take cell after cell, and only a
    failure that leaves the process suspect replaces it."""

    @pytest.fixture
    def pid_log(self, monkeypatch, tmp_path):
        import os

        import repro.runtime.supervisor as supervisor

        real = supervisor.run_cell
        log = tmp_path / "pids"

        # workers are forked, so they run the patched cell body
        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(supervisor, "run_cell", logged)
        return lambda: log.read_text().split()

    def test_one_worker_runs_every_cell(self, pid_log):
        import os

        tasks = [_task(key=f"{n:064x}", nprocs=n) for n in (2, 4, 8)]
        results, _ = _drain(tasks, SupervisionPolicy(max_failures=1))
        assert len(results) == 3
        pids = pid_log()
        assert len(pids) == 3 and len(set(pids)) == 1
        assert pids[0] != str(os.getpid())

    def test_an_error_keeps_the_worker(self, pid_log):
        tasks = [_task(key=FP_A, machine="no-such-machine"), _task(key=FP_B)]
        results, poisoned = _drain(tasks, SupervisionPolicy(max_failures=1))
        assert list(results) == [FP_B] and len(poisoned) == 1
        assert len(set(pid_log())) == 1

    def test_a_crash_replaces_the_worker(self, pid_log, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        tasks = [_task(key=FP_A), _task(key=FP_B, nprocs=4)]
        results, _ = _drain(tasks, SupervisionPolicy(max_failures=2))
        assert sorted(results) == [FP_A, FP_B]
        pids = pid_log()
        assert len(pids) == 3 and len(set(pids)) == 2
