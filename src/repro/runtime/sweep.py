"""Partition sweeps: one benchmark over several partition sizes of one
machine.

The paper defines a system's b_eff_io as the maximum over partitions
of one machine, and Table 1 reports b_eff the same way.  Such a sweep
is a one-machine grid, so :func:`run_sweep` is a thin wrapper over
:func:`repro.runtime.scheduler.run_grid`, which owns store serving,
dispatch, pool or supervised execution, retries and the per-cell
journal writes.  This module adds the sweep journal's start, check and
replay for ``resume=True`` (the journal and the benchmark adapters
live in :mod:`repro.runtime.journal` and :mod:`repro.runtime.spec`
and are re-exported here) and the reduction to :class:`SweepOutcome`:
partitions whose resilient run produced ``nan`` (invalid) are
excluded from the system maximum, and the sweep's ``validity`` merges
the partitions' states.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.faults.validity import VALID, RunValidity, merge
from repro.runtime.journal import JOURNAL_SCHEMA, JournalMismatchError, SweepJournal
from repro.runtime.scheduler import (
    CRASH_AFTER_ENV,
    CostModel,
    GridWorkerError,
    check_limits,
    run_grid,
)
from repro.runtime.spec import (
    OFFICIAL_MINIMUM_T,
    BenchmarkAdapter,
    BenchmarkConfig,
    RunSpec,
    adapter_for,
    sweep_fingerprint,
)
from repro.runtime.supervisor import PoisonRecord, SupervisionPolicy

__all__ = [
    "CRASH_AFTER_ENV",
    "JOURNAL_SCHEMA",
    "OFFICIAL_MINIMUM_T",
    "BenchmarkAdapter",
    "JournalMismatchError",
    "SweepJournal",
    "SweepOutcome",
    "SweepWorkerError",
    "adapter_for",
    "run_sweep",
]

#: a sweep's worker error is the campaign's one worker error
SweepWorkerError = GridWorkerError


# ---------------------------------------------------------------------------
# the sweep: a one-machine grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOutcome:
    """All partitions of one machine plus the system-level maximum."""

    benchmark: str
    machine: str
    results: tuple[Any, ...]
    system_value: float
    best_partition: int
    official: bool
    #: worst-case partition validity (a single invalid partition does
    #: not poison the system value — it is excluded from the max —
    #: but it does demote the sweep)
    validity: RunValidity = VALID
    #: partitions simulated in this call vs served from the result store
    fresh: int = 0
    cached: int = 0
    #: partitions quarantined by a supervised run (absent from
    #: ``results``; their failure provenance is the only trace)
    poisoned: tuple[PoisonRecord, ...] = ()

    def partition_values(self) -> dict[int, float]:
        value_of = adapter_for(self.benchmark).value_of
        return {r.nprocs: value_of(r) for r in self.results}


def _registry_key(spec: Any) -> str:
    """The registry key of a machine (or the key itself).

    Cells are keyed by registry key — store entries, journal manifests
    and worker processes all name the machine that way, because a
    :class:`MachineSpec` holds environment-factory closures — so the
    same sweep hits the same cache entries whichever way the machine
    was named.  A spec object is accepted only when it equals its
    registry entry on every field that is not a callable: a modified
    machine that kept its name would otherwise be measured (and
    cached) as the stock one.
    """
    if isinstance(spec, str):
        return spec
    from repro.machines import MACHINES

    def data(machine: Any) -> list[Any]:
        return [v for v in vars(machine).values() if not callable(v)]

    for key, factory in MACHINES.items():
        if data(factory()) == data(spec):
            return key
    raise ValueError(
        f"machine {spec.name!r} is not in the registry; pass the machine "
        "key (a string) to run_sweep"
    )


#: a sweep dispatches its partitions in ascending order: with the
#: nprocs exponent at zero every cell of one sweep costs the same, and
#: :func:`~repro.runtime.scheduler.plan_schedule` breaks ties by position
_PARTITION_ORDER = CostModel(exponent=0.0)


def run_sweep(
    benchmark: str,
    spec: Any,
    partitions: Iterable[int],
    config: BenchmarkConfig | None = None,
    jobs: int = 1,
    journal: str | os.PathLike[str] | SweepJournal | None = None,
    resume: bool = False,
    retries: int = 0,
    backoff: float = 0.0,
    store: Any = None,
    supervision: SupervisionPolicy | None = None,
) -> SweepOutcome:
    """Run one benchmark over several partition sizes of one machine.

    ``spec`` is a machine registry key or a registered
    :class:`repro.machines.MachineSpec`; ``partitions`` an iterable of
    process counts.  Returns the per-partition results and the system
    value (max over partitions that produced a number).

    ``journal`` (a directory path) makes the sweep crash-safe: each
    partition is persisted atomically when it completes, and
    ``resume=True`` replays completed partitions bit-identically
    instead of re-running them.  Every other argument means what it
    means to :func:`~repro.runtime.scheduler.run_grid`, which runs the
    partitions still missing: ``jobs`` worker processes (results are
    bit-identical to a serial sweep), ``retries``/``backoff`` before
    :class:`SweepWorkerError`, a ``store`` serving partitions it
    already holds (they are still journaled, so cache and resume
    compose), and ``supervision`` quarantining exhausted partitions
    instead of raising: they appear on ``SweepOutcome.poisoned`` (and
    as journal/store stubs), the surviving partitions still produce
    the system value, and ``validity`` reports ``degraded``
    (``invalid`` when nothing survived).

    Every result is rebuilt from its cell's result envelope (journal
    replay, store hit or fresh run alike), so the b_eff fast-forward
    counters ``ff_loops_armed``/``ff_reps_skipped``, which the
    envelope does not carry, read 0 on sweep results.
    """
    from repro.machines import get_machine
    from repro.runtime.envelope import result_from_envelope

    adapter = adapter_for(benchmark)
    partitions = sorted(set(partitions))
    if not partitions:
        raise ValueError("need at least one partition size")
    if resume and journal is None:
        raise ValueError("resume=True needs a journal")
    check_limits(jobs, retries)
    if config is None:
        config = adapter.default_config()
    key = _registry_key(spec)
    machine_name = get_machine(key).name
    specs = [RunSpec(benchmark, key, n, config) for n in partitions]

    jr = SweepJournal(journal) if isinstance(journal, (str, os.PathLike)) else journal
    done: dict[int, Any] = {}
    if jr is not None:
        fingerprint = sweep_fingerprint(benchmark, key, config)
        if resume:
            jr.check(key, fingerprint)
            done = {n: r for n, r in jr.completed().items() if n in partitions}
        else:
            jr.start(key, fingerprint, {str(s.nprocs): s.fingerprint() for s in specs})

    grid = run_grid(
        [s for s in specs if s.nprocs not in done],
        jobs=jobs,
        store=store,
        cost_model=_PARTITION_ORDER,
        retries=retries,
        journal_root=jr,
        backoff=backoff,
        supervision=supervision,
    )
    for cell in grid.cells:
        done[cell.spec.nprocs] = result_from_envelope(cell.envelope)

    results = tuple(done[n] for n in partitions if n in done)
    values = {r.nprocs: adapter.value_of(r) for r in results}
    finite = {n: v for n, v in values.items() if not math.isnan(v)}
    if finite:
        system = max(finite.values())
        best = max(finite, key=lambda n: finite[n])
    else:
        system = math.nan
        best = partitions[0]
    validity_parts = [r.validity for r in results]
    for record in grid.poisoned:
        validity_parts.append(
            RunValidity(
                "degraded",
                flagged=(f"partition:{record.nprocs}",),
                reason=f"poisoned after {len(record.attempts)} attempt(s)",
            )
        )
    if grid.poisoned and not results:
        # nothing survived: there is no system value to quote at all
        validity_parts.append(
            RunValidity(
                "invalid",
                skipped=tuple(f"partition:{r.nprocs}" for r in grid.poisoned),
                reason="every partition was poisoned",
            )
        )
    return SweepOutcome(
        benchmark=benchmark,
        machine=machine_name,
        results=results,
        system_value=system,
        best_partition=best,
        official=adapter.official_of(config),
        validity=merge(validity_parts),
        fresh=grid.fresh,
        cached=grid.cached,
        poisoned=grid.poisoned,
    )
