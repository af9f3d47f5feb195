"""The benchmark-agnostic sweep orchestrator and run specifications.

b_eff_io's journal/resume/retry contract is pinned in
``test_sweep_resume.py``; this module pins the same contract for the
b_eff side of the unified runtime (journaling, kill+resume
bit-identity, parallel==serial) plus the runtime-only surfaces:
:class:`RunSpec` validation and fingerprints, and the resume-safety
rule that a journal started under one engine mode or fault seed
rejects a resume under another.
"""

import json
import math

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.beff.sweep import BeffSweepResult, run_sweep as run_beff_sweep
from repro.beffio.benchmark import BeffIOConfig
from repro.beffio.sweep import run_sweep as run_beffio_sweep
from repro.faults import FaultPlan
from repro.runtime import (
    JournalMismatchError,
    RunSpec,
    SweepJournal,
    adapter_for,
    envelope_for,
    run_spec,
    sweep_fingerprint,
)
from repro.runtime.sweep import CRASH_AFTER_ENV

CFG = MeasurementConfig(backend="analytic")
PARTS = [2, 4]


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted b_eff sweep the resume tests compare against."""
    return run_beff_sweep("t3e", PARTS, CFG)


class TestBeffSweep:
    def test_sweep_reports_best_partition(self, baseline):
        assert isinstance(baseline, BeffSweepResult)
        assert sorted(baseline.partition_values()) == PARTS
        assert baseline.best_partition in PARTS
        assert baseline.best_b_eff == max(baseline.partition_values().values())

    def test_journal_records_every_partition(self, tmp_path, baseline):
        jdir = tmp_path / "journal"
        sweep = run_beff_sweep("t3e", PARTS, CFG, journal=jdir)
        assert sweep.partition_values() == baseline.partition_values()
        names = sorted(p.name for p in jdir.glob("partition_*.json"))
        assert names == ["partition_2.json", "partition_4.json"]
        # journal records are full envelopes (schema + provenance)
        payload = json.loads((jdir / "partition_2.json").read_text())
        assert payload["benchmark"] == "b_eff"
        assert payload["provenance"]["engine_mode"] == "analytic"

    def test_crash_then_resume_is_bit_identical(self, tmp_path, monkeypatch, baseline):
        jdir = tmp_path / "journal"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(RuntimeError, match="injected sweep crash"):
            run_beff_sweep("t3e", PARTS, CFG, journal=jdir)
        assert sorted(p.name for p in jdir.glob("partition_*.json")) == [
            "partition_2.json"
        ]
        assert list(jdir.glob("*.tmp")) == []
        monkeypatch.delenv(CRASH_AFTER_ENV)
        resumed = run_beff_sweep("t3e", PARTS, CFG, journal=jdir, resume=True)
        assert resumed.partition_values() == baseline.partition_values()
        assert resumed.best_b_eff == baseline.best_b_eff
        assert resumed.best_partition == baseline.best_partition

    def test_parallel_matches_serial_bit_exactly(self, baseline):
        parallel = run_beff_sweep("t3e", PARTS, CFG, jobs=2)
        assert parallel.partition_values() == baseline.partition_values()
        assert parallel.best_b_eff == baseline.best_b_eff

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError, match="journal"):
            run_beff_sweep("t3e", PARTS, CFG, resume=True)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unregistered_machine_rejected_at_every_jobs(self, jobs):
        class Homebrew:
            name = "homebrew cluster"

        with pytest.raises(ValueError, match="not in the registry"):
            run_beff_sweep(Homebrew(), PARTS, CFG, jobs=jobs)


    def test_modified_registry_machine_rejected(self):
        """A machine that kept its registry name but changed a field is
        not the registry machine; it must not be measured as one."""
        import dataclasses

        from repro.machines import get_machine

        t3e = get_machine("t3e")
        small_pfs = dataclasses.replace(t3e.pfs, cache_bytes=1)
        with pytest.raises(ValueError, match="not in the registry"):
            run_beff_sweep(dataclasses.replace(t3e, pfs=small_pfs), PARTS, CFG)

    @pytest.mark.parametrize("limits", [{"jobs": 0}, {"retries": -1}])
    def test_invalid_limits_leave_the_journal_alone(self, tmp_path, limits):
        jdir = tmp_path / "journal"
        run_beff_sweep("t3e", PARTS, CFG, journal=jdir)
        before = sorted(p.name for p in jdir.iterdir())
        with pytest.raises(ValueError, match=">= "):
            run_beff_sweep("t3e", PARTS, CFG, journal=jdir, **limits)
        assert sorted(p.name for p in jdir.iterdir()) == before
        assert "partition_4.json" in before

class TestResumeSafety:
    """A journal pins engine mode and fault seed; resume must match."""

    def start_journal(self, tmp_path, benchmark, config):
        jdir = tmp_path / "journal"
        SweepJournal(jdir).start("t3e", sweep_fingerprint(benchmark, "t3e", config))
        return jdir

    def test_beff_resume_rejects_changed_backend(self, tmp_path):
        jdir = self.start_journal(tmp_path, "b_eff", MeasurementConfig(backend="des"))
        with pytest.raises(JournalMismatchError, match="different sweep"):
            run_beff_sweep(
                "t3e", PARTS, MeasurementConfig(backend="analytic"),
                journal=jdir, resume=True,
            )

    def test_beff_resume_rejects_changed_fault_seed(self, tmp_path):
        planned = MeasurementConfig(backend="des", faults=FaultPlan(seed=7))
        jdir = self.start_journal(tmp_path, "b_eff", planned)
        reseeded = MeasurementConfig(backend="des", faults=FaultPlan(seed=8))
        with pytest.raises(JournalMismatchError, match="different sweep"):
            run_beff_sweep("t3e", PARTS, reseeded, journal=jdir, resume=True)

    def test_beffio_resume_rejects_changed_mode(self, tmp_path):
        planned = BeffIOConfig(T=0.8, pattern_types=(0,), mode="fast")
        jdir = self.start_journal(tmp_path, "b_eff_io", planned)
        reference = BeffIOConfig(T=0.8, pattern_types=(0,), mode="reference")
        with pytest.raises(JournalMismatchError, match="different sweep"):
            run_beffio_sweep("t3e", PARTS, reference, journal=jdir, resume=True)

    def test_beffio_resume_rejects_changed_fault_seed(self, tmp_path):
        planned = BeffIOConfig(T=0.8, pattern_types=(0,), faults=FaultPlan(seed=1))
        jdir = self.start_journal(tmp_path, "b_eff_io", planned)
        reseeded = BeffIOConfig(T=0.8, pattern_types=(0,), faults=FaultPlan(seed=2))
        with pytest.raises(JournalMismatchError, match="different sweep"):
            run_beffio_sweep("t3e", PARTS, reseeded, journal=jdir, resume=True)

    def test_beff_and_beffio_journals_never_collide(self, tmp_path):
        # the benchmark name is part of the fingerprint, so a b_eff
        # resume can never replay b_eff_io partitions
        beff = sweep_fingerprint("b_eff", "t3e", CFG)
        beffio = sweep_fingerprint(
            "b_eff_io", "t3e", BeffIOConfig(T=0.8, pattern_types=(0,))
        )
        assert beff != beffio


class TestFingerprint:
    def test_engine_mode_and_fault_seed_are_explicit(self):
        base = sweep_fingerprint("b_eff", "t3e", MeasurementConfig(backend="des"))
        assert sweep_fingerprint(
            "b_eff", "t3e", MeasurementConfig(backend="analytic")
        ) != base
        assert sweep_fingerprint(
            "b_eff", "t3e", MeasurementConfig(backend="des", faults=FaultPlan(seed=3))
        ) != base

    def test_stable_for_equal_configs(self):
        assert sweep_fingerprint("b_eff", "t3e", CFG) == sweep_fingerprint(
            "b_eff", "t3e", MeasurementConfig(backend="analytic")
        )


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_spec("b_wrong", "t3e", 4)
        with pytest.raises(ValueError, match="nprocs"):
            run_spec("b_eff", "t3e", 0)
        with pytest.raises(TypeError, match="MeasurementConfig"):
            RunSpec(
                benchmark="b_eff", machine="t3e", nprocs=4,
                config=BeffIOConfig(T=0.8),
            )

    def test_defaults_and_derived_fields(self):
        spec = run_spec("b_eff_io", "sp", 4)
        assert isinstance(spec.config, BeffIOConfig)
        assert spec.engine_mode == "fast"
        assert spec.fault_seed is None

    def test_fingerprint_covers_nprocs(self):
        a = run_spec("b_eff", "t3e", 2, CFG)
        b = run_spec("b_eff", "t3e", 4, CFG)
        assert a.fingerprint() != b.fingerprint()

    def test_run_and_envelope_agree(self):
        spec = run_spec("b_eff", "t3e", 2, CFG)
        result = spec.run()
        env = spec.envelope()
        assert env.benchmark == "b_eff"
        assert env.provenance["machine"] == "t3e"
        assert env.values["b_eff"] == result.b_eff
        assert env.to_dict() == envelope_for(result, machine="t3e").to_dict()


class TestAdapters:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            adapter_for("b_wrong")

    def test_official_rules(self):
        assert adapter_for("b_eff").official_of(CFG)
        assert not adapter_for("b_eff_io").official_of(BeffIOConfig(T=0.8))
        assert adapter_for("b_eff_io").official_of(BeffIOConfig(T=900.0))

    def test_value_extraction(self, baseline):
        result = baseline.results[0]
        assert adapter_for("b_eff").value_of(result) == result.b_eff
        assert not math.isnan(result.b_eff)
