"""The content-addressed result store and its failure edges.

The store's contract is "never simulate twice, never serve garbage":
warm reads are byte-identical to cold executions, corruption is
quarantined and transparently re-executed, eviction can never tear a
read, and N concurrent submitters of the same fingerprint cost one
simulation.  Each of those claims gets a direct test here, plus the
composition with the sweep journal (kill+resume with a warm cache
stays bit-identical).
"""

import json
import threading

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.beff.sweep import run_sweep as run_beff_sweep
from repro.runtime import (
    RunStore,
    canonical_envelope_text,
    cell_fingerprint,
    run_spec,
)
from repro.runtime.scheduler import GridScheduler
from repro.runtime.store import as_store
from repro.runtime.sweep import CRASH_AFTER_ENV

CFG = MeasurementConfig(backend="analytic")
PARTS = [2, 4]


@pytest.fixture(scope="module")
def envelope():
    """One executed cell's envelope (module-scoped: it is deterministic)."""
    return run_spec("b_eff", "t3e", 2, CFG).envelope()


@pytest.fixture(scope="module")
def fingerprint():
    return cell_fingerprint("b_eff", "t3e", 2, CFG)


class TestRoundTrip:
    def test_put_get_is_byte_identical(self, tmp_path, envelope, fingerprint):
        store = RunStore(tmp_path / "store")
        path = store.put(fingerprint, envelope)
        assert path.exists()
        entry = store.get_entry(fingerprint)
        assert entry is not None
        assert entry.text == canonical_envelope_text(envelope)
        assert canonical_envelope_text(entry.envelope) == entry.text
        assert store.stats.puts == 1 and store.stats.hits == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1
        assert len(store) == 0

    def test_keys_and_contains(self, tmp_path, envelope, fingerprint):
        store = RunStore(tmp_path / "store")
        assert fingerprint not in store
        store.put(fingerprint, envelope)
        assert fingerprint in store
        assert store.keys() == [fingerprint]
        assert store.total_bytes() > 0

    def test_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="limit_bytes"):
            RunStore(tmp_path / "store", limit_bytes=0)

    def test_as_store_coerces_paths(self, tmp_path):
        store = as_store(tmp_path / "store")
        assert isinstance(store, RunStore)
        assert as_store(store) is store
        assert as_store(None) is None


class TestCorruption:
    def _store_with_entry(self, tmp_path, envelope, fingerprint):
        store = RunStore(tmp_path / "store")
        store.put(fingerprint, envelope)
        return store

    def test_truncated_entry_is_quarantined(self, tmp_path, envelope, fingerprint):
        store = self._store_with_entry(tmp_path, envelope, fingerprint)
        path = store.path_for(fingerprint)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(fingerprint) is None
        assert not path.exists()
        assert store.stats.quarantined == 1 and store.stats.misses == 1
        quarantined = list(store.quarantine_dir.glob("*.json"))
        assert any(p.name == path.name for p in quarantined)

    def test_bitrot_fails_the_digest(self, tmp_path, envelope, fingerprint):
        store = self._store_with_entry(tmp_path, envelope, fingerprint)
        path = store.path_for(fingerprint)
        record = json.loads(path.read_text())
        record["envelope"] = record["envelope"].replace("b_eff", "b_oops", 1)
        path.write_text(json.dumps(record))
        assert store.get(fingerprint) is None
        assert store.stats.quarantined == 1
        # the reason sidecar names the failure
        reasons = list(store.quarantine_dir.glob("*.reason.json"))
        assert reasons and "digest" in reasons[0].read_text()

    def test_foreign_entry_under_wrong_key(self, tmp_path, envelope, fingerprint):
        store = self._store_with_entry(tmp_path, envelope, fingerprint)
        other = "f" * 64
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.path_for(fingerprint).read_text())
        assert store.get(other) is None
        assert store.stats.quarantined == 1

    def test_wrong_schema_is_never_served(self, tmp_path, envelope, fingerprint):
        store = self._store_with_entry(tmp_path, envelope, fingerprint)
        path = store.path_for(fingerprint)
        record = json.loads(path.read_text())
        record["schema"] = 99
        path.write_text(json.dumps(record))
        assert store.get(fingerprint) is None

    def test_corruption_is_transparently_reexecuted(self, tmp_path):
        """A corrupt entry behaves as a miss: the sweep re-simulates."""
        store = RunStore(tmp_path / "store")
        clean = run_beff_sweep("t3e", PARTS, CFG, store=store)
        assert clean.fresh == len(PARTS)
        # corrupt one cell, then re-run: exactly that cell re-executes
        fp = cell_fingerprint("b_eff", "t3e", 2, CFG)
        store.path_for(fp).write_text("{not json")
        again = run_beff_sweep("t3e", PARTS, CFG, store=store)
        assert again.fresh == 1 and again.cached == len(PARTS) - 1
        assert again.partition_values() == clean.partition_values()
        assert store.stats.quarantined == 1
        # the re-execution healed the store
        healed = run_beff_sweep("t3e", PARTS, CFG, store=store)
        assert healed.fresh == 0 and healed.cached == len(PARTS)


class TestEviction:
    def test_lru_evicts_least_recently_served(self, tmp_path, envelope):
        keys = [format(i, "064x") for i in range(3)]
        store = RunStore(tmp_path / "store")
        for key in keys:
            store.put(key, envelope)
        size = store.total_bytes() // 3
        # serve keys[0] so keys[1] becomes the least recently used
        assert store.get(keys[0]) is not None
        evicted = store.compact(limit_bytes=2 * size)
        assert evicted == 1
        assert keys[1] not in store
        assert keys[0] in store and keys[2] in store
        assert store.stats.evictions == 1

    def test_put_compacts_under_limit(self, tmp_path, envelope):
        store = RunStore(tmp_path / "store", limit_bytes=1)
        store.put("a" * 64, envelope)
        store.put("b" * 64, envelope)
        # the cap is below one entry, so at most one survives compaction
        assert len(store) <= 1

    def test_eviction_never_tears_a_read(self, tmp_path, envelope):
        """Readers racing eviction get the full entry or a clean miss.

        One thread hammers ``get`` while another alternates put and
        compact-to-zero on the same key.  Every successful read must
        verify (byte-equal to the canonical text); a miss is fine; an
        exception or a partial payload is the failure this test exists
        to catch.
        """
        store = RunStore(tmp_path / "store")
        key = "c" * 64
        expected = canonical_envelope_text(envelope)
        failures: list[str] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                entry = store.get_entry(key)
                if entry is not None and entry.text != expected:
                    failures.append("partial entry served")

        def churner():
            for _ in range(200):
                store.put(key, envelope)
                store.compact(limit_bytes=1)
            stop.set()

        threads = [threading.Thread(target=reader), threading.Thread(target=churner)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        # nothing was quarantined: every read was complete or a miss
        assert store.stats.quarantined == 0


class TestConcurrentSubmitters:
    def test_n_submitters_one_execution_same_object(self, tmp_path):
        """N concurrent identical specs execute once and share the result."""
        spec = run_spec("b_eff", "t3e", 2, CFG)
        started = threading.Barrier(8)
        sched = GridScheduler(store=tmp_path / "store")
        results = []

        def submit():
            started.wait()
            results.append(sched.result(spec))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sched.executions == 1
        assert len(results) == 8
        first = results[0]
        assert all(r is first for r in results)

    def test_counted_runner_proves_single_execution(self, tmp_path):
        """With an injected runner the execution count is exact."""
        spec = run_spec("b_eff", "t3e", 2, CFG)
        real = spec.envelope()
        calls = []
        gate = threading.Event()

        def slow_runner(s):
            calls.append(s.fingerprint())
            gate.wait(timeout=5)
            return real

        sched = GridScheduler(runner=slow_runner)
        futures = []

        def submit():
            futures.append(sched.submit(spec))

        threads = [threading.Thread(target=submit) for _ in range(5)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len({id(f) for f in futures}) == 1
        assert futures[0].result() is real

    def test_store_hit_skips_execution(self, tmp_path):
        spec = run_spec("b_eff", "t3e", 2, CFG)
        store = RunStore(tmp_path / "store")
        store.put(spec.fingerprint(), spec.envelope())
        sched = GridScheduler(store=store)
        out = sched.result(spec)
        assert sched.executions == 0
        assert canonical_envelope_text(out) == canonical_envelope_text(spec.envelope())

    def test_failed_execution_does_not_poison_later_submitters(self):
        spec = run_spec("b_eff", "t3e", 2, CFG)
        real = spec.envelope()
        attempts = []

        def flaky(s):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return real

        sched = GridScheduler(runner=flaky)
        with pytest.raises(RuntimeError, match="transient"):
            sched.result(spec)
        assert sched.result(spec) is real
        assert sched.executions == 2


class TestSweepComposition:
    def test_warm_sweep_is_byte_identical(self, tmp_path):
        store = RunStore(tmp_path / "store")
        jdir_cold = tmp_path / "cold"
        jdir_warm = tmp_path / "warm"
        cold = run_beff_sweep("t3e", PARTS, CFG, journal=jdir_cold, store=store)
        warm = run_beff_sweep("t3e", PARTS, CFG, journal=jdir_warm, store=store)
        assert cold.fresh == len(PARTS) and cold.cached == 0
        assert warm.fresh == 0 and warm.cached == len(PARTS)
        for n in PARTS:
            cold_bytes = (jdir_cold / f"partition_{n}.json").read_bytes()
            warm_bytes = (jdir_warm / f"partition_{n}.json").read_bytes()
            assert cold_bytes == warm_bytes

    def test_crash_resume_with_warm_cache_bit_identical(self, tmp_path, monkeypatch):
        """Kill mid-sweep, resume with a warm store: still bit-identical."""
        baseline = run_beff_sweep("t3e", PARTS, CFG)
        store = RunStore(tmp_path / "store")
        # warm exactly one cell so the crashed run mixes cache and fresh
        warm_spec = run_spec("b_eff", "t3e", 2, CFG)
        store.put(warm_spec.fingerprint(), warm_spec.envelope())
        jdir = tmp_path / "journal"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(RuntimeError, match="injected sweep crash"):
            run_beff_sweep(
                "t3e", [2, 4, 8], CFG, journal=jdir, store=store
            )
        monkeypatch.delenv(CRASH_AFTER_ENV)
        # the cache-served cell and the first fresh cell are journaled
        assert sorted(p.name for p in jdir.glob("partition_*.json")) == [
            "partition_2.json",
            "partition_4.json",
        ]
        resumed = run_beff_sweep(
            "t3e", PARTS, CFG, journal=jdir, resume=True, store=store
        )
        assert resumed.partition_values() == baseline.partition_values()
        assert resumed.best_b_eff == baseline.best_b_eff
        assert resumed.fresh == 0  # everything replayed or cache-served

    def test_cache_served_cells_are_journaled(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_beff_sweep("t3e", PARTS, CFG, store=store)
        jdir = tmp_path / "journal"
        warm = run_beff_sweep("t3e", PARTS, CFG, journal=jdir, store=store)
        assert warm.fresh == 0
        assert sorted(p.name for p in jdir.glob("partition_*.json")) == [
            f"partition_{n}.json" for n in PARTS
        ]

    def test_cells_key_by_registry_key_however_the_machine_is_named(self, tmp_path):
        """A spec object and its registry key hit the same store entries."""
        from repro.machines import get_machine

        store = RunStore(tmp_path / "store")
        by_key = run_beff_sweep("t3e", PARTS, CFG, store=store)
        by_spec = run_beff_sweep(get_machine("t3e"), PARTS, CFG, store=store)
        assert (by_key.fresh, by_key.cached) == (2, 0)
        assert (by_spec.fresh, by_spec.cached) == (0, 2)
        assert by_spec.partition_values() == by_key.partition_values()

    def test_manifest_pins_cell_fingerprints(self, tmp_path):
        jdir = tmp_path / "journal"
        run_beff_sweep("t3e", PARTS, CFG, journal=jdir)
        manifest = json.loads((jdir / "manifest.json").read_text())
        assert manifest["schema"] == 2
        assert manifest["cells"] == {
            str(n): cell_fingerprint("b_eff", "t3e", n, CFG) for n in PARTS
        }
