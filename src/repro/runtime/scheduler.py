"""The campaign orchestrator: machine-zoo × benchmark × config × partitions.

The paper's whole point is cross-machine characterization — the same
two benchmarks swept over many machines and partition sizes.  This
module turns such a grid into :class:`~repro.runtime.spec.RunSpec`
cells and executes them with the properties a naive
``for machine: for nprocs: run()`` loop lacks:

* **Cache integration.**  Cells whose fingerprint is already in a
  :class:`~repro.runtime.store.RunStore` are served from disk (digest
  verified) and never re-simulated.
* **Deduplication.**  Identical fingerprints — duplicate grid cells,
  or concurrent submitters racing the same spec through
  :meth:`GridScheduler.submit` — collapse to one execution whose
  result every requester shares.
* **Dynamic longest-expected-first dispatch.**  A :class:`CostModel`
  (calibratable from the committed ``BENCH_*.json`` payloads) orders
  the queue by expected cost, so a skewed grid — one 4k-rank cell
  among 16-proc cells — starts its big cell first instead of
  serializing the fleet on whichever static chunk drew it last.
  :func:`plan_schedule` exposes the assignment (and the static
  baseline's), so the makespan win is a testable property of this
  module, not a wall-clock accident.
* **Crash safety.**  Every cell is stored and journaled the moment it
  lands; retries, the broken-pool rebuild and the supervised executor
  all live here.

A partition sweep of one machine is a one-machine grid:
:func:`repro.runtime.sweep.run_sweep` is a thin wrapper over
:func:`run_grid`.  Workers are processes (the cells are CPU-bound
simulations); results travel back as envelope dicts.
"""

from __future__ import annotations

import os
import pathlib
import re
import threading
import time
import traceback
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults.validity import VALID, RunValidity, merge
from repro.runtime import chaos
from repro.runtime.envelope import ResultEnvelope, envelope_for
from repro.runtime.journal import SweepJournal
from repro.runtime.spec import (
    BenchmarkConfig,
    RunSpec,
    adapter_for,
    run_spec,
    sweep_fingerprint,
)
from repro.runtime.store import RunStore, as_store
from repro.runtime.supervisor import (
    PoisonRecord,
    SupervisedTask,
    SupervisionPolicy,
    backoff_delay,
    supervise,
)

__all__ = [
    "CostModel",
    "GridCell",
    "GridOutcome",
    "GridScheduler",
    "GridWorkerError",
    "SchedulePlan",
    "SupervisionPolicy",
    "check_limits",
    "expand_grid",
    "grid_validity",
    "plan_schedule",
    "run_grid",
]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

#: relative wall-cost weight per engine mode (same nprocs).  The DES
#: backends simulate events; analytic solves one capped max-min per
#: pattern; the b_eff_io fast path skips proven-periodic repetitions.
_DEFAULT_MODE_WEIGHT: Mapping[str, float] = {
    "analytic": 1.0,
    "des-fast": 40.0,
    "des-reference": 120.0,
    "fast": 15.0,
    "reference": 60.0,
}


@dataclass(frozen=True)
class CostModel:
    """Expected relative cost of a cell, from nprocs and engine mode.

    The absolute scale is irrelevant — only the *ordering* (and the
    rough ratios, for makespan planning) matter.  ``exponent`` is the
    nprocs scaling power; :meth:`calibrate` fits it from the committed
    ``BENCH_fluid.json`` wall-time trajectory when available and falls
    back to the default otherwise.
    """

    exponent: float = 1.4
    mode_weight: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_MODE_WEIGHT)
    )

    def cost(self, spec: RunSpec) -> float:
        weight = self.mode_weight.get(
            spec.engine_mode, max(self.mode_weight.values(), default=1.0)
        )
        cost = weight * float(spec.nprocs) ** self.exponent
        # b_eff_io work scales with the scheduled time as well
        scheduled = getattr(spec.config, "T", None)
        if scheduled is not None:
            cost *= max(float(scheduled), 1.0)
        return cost

    @classmethod
    def calibrate(cls, results_dir: "str | os.PathLike[str]") -> "CostModel":
        """Fit the nprocs exponent from ``BENCH_fluid.json`` rounds.

        The committed payload records incremental-engine wall seconds
        at several process counts; the log-log slope between the first
        and last rows is the measured scaling power.  Missing or
        malformed payloads keep the defaults — calibration is an
        optimization, never a requirement.
        """
        import json
        import math

        path = pathlib.Path(results_dir) / "BENCH_fluid.json"
        try:
            payload = json.loads(path.read_text())
            rounds = [
                (float(row["procs"]), float(row["incremental_wall_s"]))
                for row in payload["rounds"]
                if row.get("procs") and row.get("incremental_wall_s")
            ]
        except (OSError, ValueError, TypeError, KeyError):
            return cls()
        rounds.sort()
        if len(rounds) < 2 or rounds[0][0] == rounds[-1][0]:
            return cls()
        (p0, w0), (p1, w1) = rounds[0], rounds[-1]
        if w0 <= 0 or w1 <= 0:
            return cls()
        exponent = math.log(w1 / w0) / math.log(p1 / p0)
        return cls(exponent=min(max(exponent, 0.5), 3.0))


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------


def expand_grid(
    machines: Iterable[str],
    benchmarks: Iterable[str],
    partitions: Iterable[int],
    configs: Mapping[str, BenchmarkConfig] | None = None,
    skip_unsupported: bool = True,
) -> list[RunSpec]:
    """Expand a machine-zoo × benchmark × partitions grid to cells.

    ``configs`` maps benchmark name to the engine configuration for
    its cells (the benchmark's default configuration otherwise).
    With ``skip_unsupported`` (the default), b_eff_io cells on
    machines without a parallel-filesystem model are dropped instead
    of failing the whole grid — the paper itself only reports
    b_eff_io for the machines whose I/O subsystem it describes.
    """
    from repro.machines import get_machine

    cells: list[RunSpec] = []
    parts = sorted(set(partitions))
    for machine in machines:
        spec = get_machine(machine)  # validates the key early
        for benchmark in benchmarks:
            if (
                benchmark == "b_eff_io"
                and spec.pfs is None
                and skip_unsupported
            ):
                continue
            config = configs.get(benchmark) if configs else None
            for nprocs in parts:
                cells.append(run_spec(benchmark, machine, nprocs, config))
    return cells


# ---------------------------------------------------------------------------
# schedule planning (the dynamic-vs-static contract, testable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulePlan:
    """One policy's assignment of cells to workers.

    ``dispatch`` is the order cells enter the pool; ``assignments``
    maps worker index to its cell list under the model costs;
    ``makespan`` is the modelled finish time of the slowest worker.
    Feeding :func:`plan_schedule` *measured* per-cell costs turns the
    modelled makespan into the real one a pool with that dispatch
    order would achieve — which is how the recorded benchmark proves
    the dynamic policy's win without depending on runner core counts.
    """

    policy: str
    dispatch: tuple[int, ...]
    assignments: tuple[tuple[int, ...], ...]
    makespan: float


def plan_schedule(
    costs: Sequence[float], jobs: int, policy: str = "dynamic"
) -> SchedulePlan:
    """Assign cells (given their costs) to ``jobs`` workers.

    ``dynamic`` is longest-expected-first with greedy
    earliest-available-worker dispatch — exactly what feeding a
    process pool in descending-cost order achieves.  ``static`` is
    the ``jobs=N`` baseline it replaces: contiguous chunks in grid
    order, one chunk per worker, no balancing.  Ties break by cell
    index, so plans are deterministic.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if policy not in ("dynamic", "static"):
        raise ValueError(f"unknown scheduling policy {policy!r}")
    n = len(costs)
    workers = max(1, min(jobs, n))
    if policy == "static":
        # contiguous chunks in the given order (ceil-sized), the
        # classic static pre-partitioning
        per = -(-n // workers) if n else 0
        chunks = [tuple(range(i, min(i + per, n))) for i in range(0, n, per)] if n else []
        chunks += [()] * (workers - len(chunks))
        dispatch = tuple(range(n))
        makespan = max((sum(costs[i] for i in chunk) for chunk in chunks), default=0.0)
        return SchedulePlan(
            policy=policy,
            dispatch=dispatch,
            assignments=tuple(chunks),
            makespan=makespan,
        )
    order = sorted(range(n), key=lambda i: (-costs[i], i))
    finish = [0.0] * workers
    assigned: list[list[int]] = [[] for _ in range(workers)]
    for i in order:
        w = min(range(workers), key=lambda k: (finish[k], k))
        assigned[w].append(i)
        finish[w] += costs[i]
    return SchedulePlan(
        policy="dynamic",
        dispatch=tuple(order),
        assignments=tuple(tuple(cells) for cells in assigned),
        makespan=max(finish, default=0.0),
    )


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

#: test/CI hook: when set to an integer k, the campaign raises right
#: after storing and journaling its k-th freshly simulated cell —
#: equivalent (for resume purposes) to killing the process there,
#: because journal writes are atomic
CRASH_AFTER_ENV = "REPRO_SWEEP_CRASH_AFTER"


@dataclass(frozen=True)
class GridCell:
    """One grid cell's outcome: the spec, its envelope, and its source."""

    spec: RunSpec
    envelope: ResultEnvelope
    #: ``"fresh"`` (simulated now), ``"cache"`` (store hit) or
    #: ``"dedup"`` (another cell with the same fingerprint ran)
    source: str

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint()


@dataclass(frozen=True)
class GridOutcome:
    """Every cell of a grid run plus the execution accounting.

    ``validity`` is the grid-level merge (see :func:`grid_validity`):
    per-cell validities plus one degraded flag per poisoned cell, so a
    grid that lost cells can never report itself silently ``valid``.
    Poisoned cells are absent from ``cells`` — their
    :class:`~repro.runtime.supervisor.PoisonRecord` stubs are the only
    trace, by design.
    """

    cells: tuple[GridCell, ...]
    fresh: int
    cached: int
    deduped: int
    #: fingerprints in the order they were dispatched for execution
    dispatch_order: tuple[str, ...]
    validity: RunValidity = VALID
    poisoned: tuple[PoisonRecord, ...] = ()

    def describe(self) -> str:
        text = (
            f"{len(self.cells)} cell(s) = {self.fresh} fresh + "
            f"{self.cached} cached + {self.deduped} deduped"
        )
        if self.poisoned:
            text += f" ({len(self.poisoned)} poisoned)"
        return text


class GridWorkerError(RuntimeError):
    """A cell failed after exhausting its retries.

    The one worker error of the campaign: a partition sweep raises it
    too (``repro.runtime.sweep.SweepWorkerError`` is the same class).
    The message names the benchmark, the partition size, the machine,
    the configuration, the fingerprint prefix, the attempt count, the
    failing source frame and the cause; the original exception is
    chained as ``__cause__`` and the worker's formatted traceback is
    kept on ``worker_traceback``.  The identity also travels as
    attributes (``fingerprint``, ``benchmark``, ``machine``,
    ``nprocs``, ``attempts``) so a caller can requeue exactly the cell
    that died without parsing prose.
    """

    def __init__(
        self,
        message: str,
        worker_traceback: str = "",
        fingerprint: str = "",
        benchmark: str = "",
        machine: str = "",
        nprocs: int = 0,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.fingerprint = fingerprint
        self.benchmark = benchmark
        self.machine = machine
        self.nprocs = nprocs
        self.attempts = attempts


def _failure_site(exc: BaseException) -> str:
    """``file:line in function`` of the deepest frame that raised ``exc``.

    For exceptions re-raised out of a :class:`ProcessPoolExecutor`
    worker the parent-side traceback only shows executor internals;
    the worker's real frames travel as a ``_RemoteTraceback`` cause
    string, so those are parsed in preference.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        found = re.findall(r'File "([^"]+)", line (\d+), in (\S+)', str(cause))
        if found:
            path, line, func = found[-1]
            return f"{pathlib.Path(path).name}:{line} in {func}"
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return "no traceback available"
    last = frames[-1]
    return f"{pathlib.Path(last.filename).name}:{last.lineno} in {last.name}"


class _GridRetry:
    """Attempt counter keyed by (machine, nprocs, benchmark).

    The key matters: in a grid, two different machines fail the same
    partition size independently — pooling their attempts would
    exhaust one budget for both.  Between attempts the counter sleeps
    the same seeded exponential-backoff-with-jitter schedule the
    supervisor uses, so retry timing is a pure function of the cell
    fingerprint.
    """

    def __init__(self, retries: int, backoff: float = 0.0) -> None:
        self.retries = retries
        self.backoff = backoff
        self.attempts: dict[tuple[str, int, str], int] = {}

    def failed(self, spec: RunSpec, exc: BaseException) -> None:
        key = (spec.machine, spec.nprocs, spec.benchmark)
        n = self.attempts.get(key, 0) + 1
        self.attempts[key] = n
        fingerprint = spec.fingerprint()
        if n > self.retries:
            raise GridWorkerError(
                f"{spec.benchmark} partition nprocs={spec.nprocs} on machine "
                f"{spec.machine!r} "
                f"{adapter_for(spec.benchmark).describe_config(spec.config)} "
                f"(fingerprint {fingerprint[:12]}) "
                f"failed after {n} attempt(s) at {_failure_site(exc)}: "
                f"{type(exc).__name__}: {exc}",
                worker_traceback="".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
                fingerprint=fingerprint,
                benchmark=spec.benchmark,
                machine=spec.machine,
                nprocs=spec.nprocs,
                attempts=n,
            ) from exc
        if self.backoff > 0:
            time.sleep(backoff_delay(fingerprint, n, self.backoff))


def _run_cell(benchmark: str, machine: str, nprocs: int, config: Any) -> dict[str, Any]:
    """Worker entry: run one cell, return its envelope as a plain dict."""
    from repro.machines import get_machine

    chaos.on_cell(chaos.cell_key(benchmark, machine, nprocs))
    result = adapter_for(benchmark).run(get_machine(machine), nprocs, config)
    return chaos.corrupt_payload(envelope_for(result, machine=machine).to_dict())


def grid_validity(
    cells: Iterable[ResultEnvelope], poisoned: Sequence[PoisonRecord]
) -> RunValidity:
    """Merge cell validities and poison stubs into one grid verdict.

    Every completed cell contributes its own envelope validity (a cell
    whose internal averaged formula lost an input already carries
    ``invalid`` and demotes the grid with it); every poisoned cell
    contributes a ``degraded`` flag naming the cell.  All cells clean
    and nothing poisoned → :data:`~repro.faults.validity.VALID`.
    """
    parts = [env.validity for env in cells]
    for record in poisoned:
        parts.append(
            RunValidity(
                "degraded",
                flagged=(f"cell:{record.benchmark}:{record.machine}:{record.nprocs}",),
                reason=f"poisoned after {len(record.attempts)} attempt(s)",
            )
        )
    return merge(parts)


def _execute(spec: RunSpec) -> ResultEnvelope:
    """In-process execution of one cell (serial path and submitters)."""
    return ResultEnvelope.from_dict(
        _run_cell(spec.benchmark, spec.machine, spec.nprocs, spec.config)
    )


def _open_journals(
    journal_root: "str | os.PathLike[str] | SweepJournal | None",
    cells: Mapping[str, RunSpec],
) -> dict[tuple[str, str], SweepJournal]:
    """The sweep journal every (benchmark, machine) pair records into.

    One :class:`~repro.runtime.journal.SweepJournal` serves every cell
    as given (its owner — :func:`~repro.runtime.sweep.run_sweep` —
    has already started or checked it).  A root directory gets one
    journal per pair under ``<root>/<benchmark>__<machine>``, reopened
    up front (see :meth:`~repro.runtime.journal.SweepJournal.reopen`:
    same-sweep partitions kept, another sweep's wiped) so cells can
    land the moment they finish.
    """
    if journal_root is None:
        return {}
    groups: dict[tuple[str, str], list[tuple[str, RunSpec]]] = {}
    for fp, spec in cells.items():
        groups.setdefault((spec.benchmark, spec.machine), []).append((fp, spec))
    if isinstance(journal_root, SweepJournal):
        return {pair: journal_root for pair in groups}
    root = pathlib.Path(journal_root)
    journals: dict[tuple[str, str], SweepJournal] = {}
    for (benchmark, machine), group in sorted(groups.items()):
        journal = SweepJournal(root / f"{benchmark}__{machine}")
        journal.reopen(
            machine,
            sweep_fingerprint(benchmark, machine, group[0][1].config),
            {str(spec.nprocs): fp for fp, spec in group},
        )
        journals[(benchmark, machine)] = journal
    return journals


def check_limits(jobs: int, retries: int) -> None:
    """Reject a worker count below 1 or a negative retry budget."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")


def run_grid(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    store: "RunStore | str | os.PathLike[str] | None" = None,
    cost_model: CostModel | None = None,
    retries: int = 0,
    journal_root: "str | os.PathLike[str] | SweepJournal | None" = None,
    backoff: float = 0.0,
    supervision: SupervisionPolicy | None = None,
) -> GridOutcome:
    """Execute a grid of run specs with caching, dedupe and balancing.

    Identical fingerprints execute once; cells present in ``store``
    are served from it (and count as ``cached``); the rest are
    dispatched longest-expected-first over ``jobs`` worker processes.
    A failing cell is re-attempted up to ``retries`` times (after a
    seeded exponential-with-jitter ``backoff``, see
    :func:`~repro.runtime.supervisor.backoff_delay`) before
    :class:`GridWorkerError` is raised.  ``jobs`` and ``retries`` are
    checked by :func:`check_limits`.

    With ``journal_root`` every cell — fresh *or* cache-served — is
    recorded into a sweep journal the moment it lands, so a grid that
    fails or is killed part-way keeps what it completed and resumes
    through :func:`~repro.runtime.sweep.run_sweep`.  A directory holds
    one journal per (benchmark, machine) under
    ``<root>/<benchmark>__<machine>``; a single
    :class:`~repro.runtime.journal.SweepJournal` takes every cell as-is.

    ``supervision`` switches execution to the supervised path: one
    killable worker process per attempt with deadlines, heartbeat
    monitoring and — in place of the abort-on-exhaustion
    :class:`GridWorkerError` — poison quarantine: the dead cell becomes
    a :class:`~repro.runtime.supervisor.PoisonRecord` on the outcome
    (and a stub in the store sidecar and journal), the grid completes,
    and ``GridOutcome.validity`` reports ``degraded``.
    """
    check_limits(jobs, retries)
    run_store = as_store(store)
    model = cost_model if cost_model is not None else CostModel()
    retry = _GridRetry(retries, backoff)

    # dedupe identical fingerprints to one execution; remember each
    # fingerprint's first position so later duplicates are labelled
    fingerprints = [spec.fingerprint() for spec in specs]
    unique: dict[str, RunSpec] = {}
    first_at: dict[str, int] = {}
    for i, (fp, spec) in enumerate(zip(fingerprints, specs)):
        unique.setdefault(fp, spec)
        first_at.setdefault(fp, i)
    journals = _open_journals(journal_root, unique)
    crash_text = os.environ.get(CRASH_AFTER_ENV)
    crash_after = int(crash_text) if crash_text else None

    envelopes: dict[str, ResultEnvelope] = {}
    sources: dict[str, str] = {}
    fresh = 0

    def finish(fp: str, spec: RunSpec, envelope: ResultEnvelope, source: str) -> None:
        """The one landing point of a cell: outcome, store, journal."""
        nonlocal fresh
        envelopes[fp] = envelope
        sources[fp] = source
        if source == "fresh" and run_store is not None:
            run_store.put(fp, envelope)
        journal = journals.get((spec.benchmark, spec.machine))
        if journal is not None:
            journal.record(envelope)
        if source == "fresh":
            fresh += 1
            if crash_after is not None and fresh >= crash_after:
                raise RuntimeError(
                    f"injected sweep crash after {fresh} cell(s) "
                    f"({CRASH_AFTER_ENV}={crash_after})"
                )

    # serve what the store already has
    pending: list[tuple[str, RunSpec]] = []
    for fp, spec in unique.items():
        hit = run_store.get(fp) if run_store is not None else None
        if hit is not None:
            finish(fp, spec, hit, "cache")
        else:
            pending.append((fp, spec))

    plan = plan_schedule([model.cost(spec) for _, spec in pending], jobs)
    ordered = [pending[i] for i in plan.dispatch]

    poisoned: tuple[PoisonRecord, ...] = ()
    if supervision is not None:
        tasks = [
            SupervisedTask(
                key=fp,
                benchmark=spec.benchmark,
                machine=spec.machine,
                nprocs=spec.nprocs,
                config=spec.config,
            )
            for fp, spec in ordered
        ]
        outcome = supervise(tasks, supervision, jobs=jobs)
        for fp, spec in ordered:
            payload = outcome.results.get(fp)
            if payload is not None:
                finish(fp, spec, ResultEnvelope.from_dict(payload), "fresh")
        poisoned = outcome.poisoned
        for record in poisoned:
            if run_store is not None:
                run_store.record_poison(record.key, record.to_dict())
            journal = journals.get((record.benchmark, record.machine))
            if journal is not None:
                journal.record_poison(record)
    elif jobs > 1 and len(ordered) > 1:
        _run_pool(ordered, jobs, retry, finish)
    else:
        for fp, spec in ordered:
            while True:
                try:
                    envelope = _execute(spec)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:  # repro-lint: disable=REPRO005 -- retry.failed re-raises (as GridWorkerError) past the retry limit
                    retry.failed(spec, exc)
                    continue
                finish(fp, spec, envelope, "fresh")
                break

    cells = tuple(
        GridCell(
            spec=spec,
            envelope=envelopes[fp],
            source=sources[fp] if first_at[fp] == i else "dedup",
        )
        for i, (fp, spec) in enumerate(zip(fingerprints, specs))
        if fp in envelopes
    )
    return GridOutcome(
        cells=cells,
        fresh=fresh,
        cached=sum(1 for s in sources.values() if s == "cache"),
        deduped=len(specs) - len(unique),
        dispatch_order=tuple(fp for fp, _ in ordered),
        validity=grid_validity((c.envelope for c in cells), poisoned),
        poisoned=poisoned,
    )


def _run_pool(
    ordered: list[tuple[str, RunSpec]],
    jobs: int,
    retry: _GridRetry,
    finish: Callable[[str, RunSpec, ResultEnvelope, str], None],
) -> None:
    """Fan cells over worker processes in the planned dispatch order.

    Finished futures are drained in submission order, so store writes,
    journal writes and retry accounting are reproducible.  A broken
    pool (worker killed mid-run) is rebuilt and the unfinished cells
    resubmitted, each consuming one retry.
    """
    todo = list(ordered)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
    try:
        while todo:
            futures: dict[Future[Any], tuple[str, RunSpec]] = {
                pool.submit(
                    _run_cell, spec.benchmark, spec.machine, spec.nprocs, spec.config
                ): (fp, spec)
                for fp, spec in todo
            }
            order_of = {fut: i for i, fut in enumerate(futures)}
            broken = False
            pending_futs = set(futures)
            while pending_futs:
                finished, pending_futs = wait(pending_futs, return_when=FIRST_COMPLETED)
                for fut in sorted(finished, key=order_of.__getitem__):
                    fp, spec = futures[fut]
                    try:
                        payload = fut.result()
                    except BrokenProcessPool as exc:
                        retry.failed(spec, exc)
                        broken = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:  # repro-lint: disable=REPRO005 -- retry.failed re-raises (as GridWorkerError) past the retry limit
                        retry.failed(spec, exc)
                    else:
                        todo.remove((fp, spec))
                        finish(fp, spec, ResultEnvelope.from_dict(payload), "fresh")
                if broken:
                    break
            if broken and todo:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# concurrent submission (in-flight dedupe)
# ---------------------------------------------------------------------------


class GridScheduler:
    """Submission front-end with in-flight fingerprint dedupe.

    ``submit`` is safe to call from many threads: the first submitter
    of a fingerprint executes it (store-first), every concurrent or
    later submitter receives *the same* :class:`Future` — and hence
    the identical envelope object — without a second execution.  This
    is the surface the ROADMAP's benchmark-as-a-service layer stacks
    on: N clients racing the same spec cost one simulation.
    """

    def __init__(
        self,
        store: "RunStore | str | os.PathLike[str] | None" = None,
        runner: Callable[[RunSpec], ResultEnvelope] | None = None,
    ) -> None:
        self.store = as_store(store)
        self._runner = runner if runner is not None else _execute
        self._lock = threading.Lock()
        self._futures: dict[str, Future[ResultEnvelope]] = {}
        #: executions actually performed (for observability and tests)
        self.executions = 0

    def submit(self, spec: RunSpec) -> "Future[ResultEnvelope]":
        """A future for the spec's envelope; dedupes identical specs."""
        fp = spec.fingerprint()
        with self._lock:
            existing = self._futures.get(fp)
            if existing is not None:
                return existing
            fut: Future[ResultEnvelope] = Future()
            self._futures[fp] = fut
        hit = self.store.get(fp) if self.store is not None else None
        if hit is not None:
            fut.set_result(hit)
            return fut
        try:
            with self._lock:
                self.executions += 1
            envelope = self._runner(spec)
        except BaseException as exc:  # repro-lint: disable=REPRO005 -- the error travels to every submitter via Future.set_exception
            fut.set_exception(exc)
            # a failed execution must not poison later submitters
            with self._lock:
                self._futures.pop(fp, None)
            return fut
        if self.store is not None:
            self.store.put(fp, envelope)
        fut.set_result(envelope)
        return fut

    def result(self, spec: RunSpec) -> ResultEnvelope:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(spec).result()
