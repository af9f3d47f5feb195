"""The crash-safe sweep journal: one directory per (benchmark, machine),
written cell by cell by :func:`repro.runtime.scheduler.run_grid`."""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.runtime.envelope import ResultEnvelope
from repro.runtime.supervisor import PoisonRecord

__all__ = ["JOURNAL_SCHEMA", "JournalMismatchError", "SweepJournal"]

#: journal layout version — 2 adds the per-cell fingerprint map
#: (``cells``) that ties each partition file to its store key
JOURNAL_SCHEMA = 2


class JournalMismatchError(RuntimeError):
    """Resume attempted against a journal from a different sweep."""


class SweepJournal:
    """One sweep's on-disk state.

    A journal is a directory: ``manifest.json`` pins the machine and
    the :func:`~repro.runtime.spec.sweep_fingerprint` (engine mode and
    fault-plan seed hashed explicitly, so resuming under changed flags
    raises :class:`JournalMismatchError`), and each completed partition
    is one ``partition_<n>.json`` — a result envelope — written
    atomically (temp file + ``os.replace``) the moment it finishes.  A killed
    sweep therefore leaves either a complete partition file or none —
    never a torn one — and ``--resume`` replays the completed
    partitions bit-identically (JSON float serialization round-trips
    exactly) while running only the missing ones.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.path / "manifest.json"

    def partition_path(self, nprocs: int) -> pathlib.Path:
        return self.path / f"partition_{nprocs}.json"

    def poison_path(self, nprocs: int) -> pathlib.Path:
        return self.path / f"poison_{nprocs}.json"

    # -- lifecycle -----------------------------------------------------

    def start(
        self, machine: str, fingerprint: str, cells: dict[str, str] | None = None
    ) -> None:
        """Begin a fresh sweep: wipe stale partitions, pin the manifest."""
        self.path.mkdir(parents=True, exist_ok=True)
        for stale in self.path.glob("partition_*.json"):
            stale.unlink()
        for stale in self.path.glob("poison_*.json"):
            stale.unlink()
        self.pin(machine, fingerprint, cells)

    def pin(
        self, machine: str, fingerprint: str, cells: dict[str, str] | None = None
    ) -> None:
        """Write the manifest, keeping any partitions already recorded.

        ``cells`` (optional) maps partition size (as a string, JSON
        keys are strings) to that cell's store fingerprint, tying the
        journal to the content-addressed store keys.
        """
        from repro.reporting.export import write_json_atomic

        self.path.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "machine": machine,
            "fingerprint": fingerprint,
        }
        if cells is not None:
            manifest["cells"] = cells
        write_json_atomic(self.manifest_path, manifest)

    def reopen(
        self, machine: str, fingerprint: str, cells: dict[str, str] | None = None
    ) -> None:
        """Pin the manifest, keeping partitions only of the same sweep.

        A journal written by a different sweep (or none) starts over, so
        a run that dies part-way never leaves old-config partitions
        under a new-config manifest.
        """
        try:
            self.check(machine, fingerprint)
        except (JournalMismatchError, ValueError):
            self.start(machine, fingerprint, cells)
        else:
            self.pin(machine, fingerprint, cells)

    def check(self, machine: str, fingerprint: str) -> None:
        """Verify this journal belongs to (machine, config) before resuming."""
        if not self.manifest_path.exists():
            raise JournalMismatchError(
                f"no journal manifest at {self.manifest_path} — nothing to resume"
            )
        manifest = json.loads(self.manifest_path.read_text())
        schema = manifest.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise JournalMismatchError(
                f"journal schema {schema!r} != {JOURNAL_SCHEMA}"
            )
        if manifest.get("machine") != machine or manifest.get("fingerprint") != fingerprint:
            raise JournalMismatchError(
                f"journal at {self.path} was written by a different sweep "
                f"(machine {manifest.get('machine')!r}, or the config changed); "
                "refusing to mix results"
            )

    # -- partition records ---------------------------------------------

    def record(self, envelope: ResultEnvelope) -> None:
        """Atomically persist one completed partition's envelope.

        The payload is the *canonical* envelope text (sorted keys) —
        the same bytes a :class:`~repro.runtime.store.RunStore` entry
        holds — so a journal written from fresh executions and one
        written from cache-served results are byte-identical.
        """
        from repro.reporting.export import write_json_atomic
        from repro.runtime.store import canonical_envelope_text

        nprocs = envelope.values["nprocs"]
        write_json_atomic(self.partition_path(nprocs), canonical_envelope_text(envelope))
        # a completed partition heals any poison stub left by an
        # earlier supervised run that quarantined this cell
        self.poison_path(nprocs).unlink(missing_ok=True)

    def record_poison(self, record: PoisonRecord) -> None:
        """Persist a quarantined cell's failure provenance as a stub.

        The stub stands where the partition file would: a resumed
        sweep sees the partition as *not completed* (so it re-attempts
        the cell) while the stub documents why the previous run gave
        up.  :meth:`record` of a later success removes it.
        """
        from repro.reporting.export import write_json_atomic

        write_json_atomic(self.poison_path(record.nprocs), record.to_dict())

    def poisoned(self) -> dict[int, PoisonRecord]:
        """Every active poison stub, keyed by process count."""
        out: dict[int, PoisonRecord] = {}
        for path in sorted(self.path.glob("poison_*.json")):
            record = PoisonRecord.from_dict(json.loads(path.read_text()))
            out[record.nprocs] = record
        return out

    def completed(self) -> dict[int, Any]:
        """Load every journaled partition, keyed by process count."""
        from repro.runtime.envelope import result_from_envelope

        out: dict[int, Any] = {}
        for path in sorted(self.path.glob("partition_*.json")):
            env = ResultEnvelope.from_dict(json.loads(path.read_text()))
            result = result_from_envelope(env)
            out[result.nprocs] = result
        return out
