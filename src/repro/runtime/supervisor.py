"""Supervised cell execution: reused worker processes with deadlines,
heartbeats, seeded backoff and poison quarantine.

:func:`supervise` is the runtime's one multiprocess executor.  The
grid orchestrator (:func:`repro.runtime.scheduler.run_grid`) sends it
every cell that does not run in-process, whether or not the caller
asked for supervision.  Up to ``jobs`` long-lived worker processes
take cells over a pipe one after another, so each worker pays the
first-cell warm-up (lazy imports, per-process caches) once per
campaign, not once per cell.  Plain retries are not enough for three
machine realities, and the parent supervises every attempt against
them:

* a **hung** worker produces neither a result nor an exception;
* a worker that is *running* but past any useful wall-clock budget
  starves the rest of the campaign;
* a **deterministically** failing cell burns its retries and would
  otherwise abort the campaign, throwing away every healthy cell.

The mechanisms:

* **Deadlines** — a wall-clock budget per attempt
  (:attr:`SupervisionPolicy.deadline_s`); an overrunning worker is
  killed and the attempt counted as ``deadline``.
* **Heartbeats** — while it runs a cell, the worker pings its pipe
  every :attr:`~SupervisionPolicy.heartbeat_interval_s`; silence past
  :attr:`~SupervisionPolicy.heartbeat_timeout_s` means the worker is
  wedged and it is killed as ``heartbeat-lost``.
* **Seeded exponential backoff with jitter** — the delay before
  attempt *k* of a cell is :func:`backoff_delay`, derived with
  SplitMix64 from the cell *fingerprint* and the attempt index.  Retry
  timing is therefore a pure function of the run's identity: a
  re-executed campaign backs off identically, so "reproducible
  protocol" (Hunold & Carpen-Amarie) extends to the failure path.
* **Poison quarantine** — after
  :attr:`~SupervisionPolicy.max_failures` attempts the cell is yielded
  as a :class:`PoisonRecord` (kind, message and traceback of every
  attempt) and the campaign *continues*.  The caller decides what a
  poisoned cell means: a supervised grid degrades its validity, an
  unsupervised one raises its worker error.

Attempt failures are classified as ``crash`` (worker exited without a
result), ``deadline``, ``heartbeat-lost``, ``error`` (the cell raised)
or ``corrupt-return`` (the payload does not parse as a result
envelope), so the quarantine stub says *how* a cell died, not only
that it did.  An ``error`` leaves its worker in service; any other
failure kills the worker, and a fresh process takes its place.

Every result and every poison record is yielded the moment it lands,
so the caller stores and journals each cell while the others run.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import threading
import time
import traceback
from collections import deque
from collections.abc import Iterator, Sequence
from contextlib import AbstractContextManager
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from typing import Any

from repro.runtime import chaos

__all__ = [
    "AttemptFailure",
    "FAILURE_KINDS",
    "PoisonRecord",
    "SupervisedTask",
    "SupervisionPolicy",
    "backoff_delay",
    "run_cell",
    "supervise",
]

#: every way one attempt can fail, as recorded in poison provenance
FAILURE_KINDS = ("crash", "deadline", "heartbeat-lost", "error", "corrupt-return")

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, seq: int) -> int:
    """SplitMix64 avalanche of (seed, seq) — same mix as the engine's
    tie-shuffle keys, reimplemented here so the supervisor stays
    import-light (the journal imports it for :class:`PoisonRecord`)."""
    z = (seq + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def backoff_delay(
    fingerprint: str, attempt: int, base_s: float, cap_s: float = 60.0
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of a cell.

    Exponential (``base * 2**(attempt-1)``, capped at ``cap_s``) with
    deterministic jitter in ``[0.5, 1.0)`` of the nominal delay.  The
    jitter stream is SplitMix64 keyed by the cell *fingerprint* and the
    attempt index — two cells retrying simultaneously de-synchronize
    (no thundering herd on a shared resource), yet every re-execution
    of the same campaign backs off with the exact same timing.
    """
    if base_s <= 0.0:
        return 0.0
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    nominal = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    seed = int(fingerprint[:16] or "0", 16)
    unit = _mix64(seed, attempt) / 2.0**64
    return nominal * (0.5 + 0.5 * unit)


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard to push a cell before giving up on it.

    ``deadline_s``
        wall-clock budget of one *attempt*; ``None`` disables the
        deadline (crash/heartbeat detection still applies).
    ``heartbeat_interval_s`` / ``heartbeat_timeout_s``
        workers ping every ``interval``; no ping for ``timeout``
        seconds kills the worker.  ``None`` timeout disables the
        check.  The timeout must comfortably exceed the interval.
    ``max_failures``
        total attempts a cell gets before it is poisoned (≥ 1).
    ``backoff_base_s`` / ``backoff_cap_s``
        parameters of :func:`backoff_delay`; base 0 retries
        immediately.
    """

    deadline_s: float | None = None
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float | None = None
    max_failures: int = 3
    backoff_base_s: float = 0.0
    backoff_cap_s: float = 60.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.heartbeat_timeout_s is not None:
            if self.heartbeat_timeout_s <= 0:
                raise ValueError("heartbeat_timeout_s must be positive (or None)")
            if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
                raise ValueError(
                    "heartbeat_timeout_s must exceed heartbeat_interval_s"
                )
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff parameters must be non-negative / positive")


@dataclass(frozen=True)
class SupervisedTask:
    """One cell to execute under supervision.

    ``key`` addresses results and poison records (callers use the cell
    fingerprint); the remaining fields are the picklable cell identity
    the worker re-resolves in-process.
    """

    key: str
    benchmark: str
    machine: str
    nprocs: int
    config: Any


@dataclass(frozen=True)
class AttemptFailure:
    """Provenance of one failed attempt."""

    kind: str
    message: str
    worker_traceback: str = ""
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "worker_traceback": self.worker_traceback,
            "elapsed_s": self.elapsed_s,
        }

    def to_export_dict(self) -> dict[str, Any]:
        """Serialization for *exported result trees*: content only.

        ``elapsed_s`` is wall-clock-derived — fine in the journal's
        local poison stubs, but a result export must be a pure
        function of the run's inputs, so the timing is dropped here.
        """
        return {
            "kind": self.kind,
            "message": self.message,
            "worker_traceback": self.worker_traceback,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "AttemptFailure":
        return cls(
            kind=d["kind"],
            message=d.get("message", ""),
            worker_traceback=d.get("worker_traceback", ""),
            elapsed_s=float(d.get("elapsed_s", 0.0)),
        )


@dataclass(frozen=True)
class PoisonRecord:
    """A cell that exhausted every attempt: its full failure history.

    This is what lands in the journal stub and the store quarantine
    sidecar instead of a result — enough provenance (per-attempt kind,
    message, last traceback) to diagnose the cell offline while the
    rest of the grid completes.
    """

    key: str
    benchmark: str
    machine: str
    nprocs: int
    attempts: tuple[AttemptFailure, ...]

    @property
    def last(self) -> AttemptFailure:
        return self.attempts[-1]

    def describe(self) -> str:
        kinds = ",".join(a.kind for a in self.attempts)
        return (
            f"{self.benchmark} on {self.machine!r} at nprocs={self.nprocs}: "
            f"poisoned after {len(self.attempts)} attempt(s) [{kinds}] — "
            f"{self.last.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "poisoned": True,
            "key": self.key,
            "benchmark": self.benchmark,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    def to_export_dict(self) -> dict[str, Any]:
        """Deterministic form for exported result trees.

        Same shape as :meth:`to_dict` minus per-attempt wall timings,
        so two exports of the same degraded outcome are byte-identical.
        """
        return {
            "poisoned": True,
            "key": self.key,
            "benchmark": self.benchmark,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "attempts": [a.to_export_dict() for a in self.attempts],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PoisonRecord":
        return cls(
            key=d["key"],
            benchmark=d["benchmark"],
            machine=d["machine"],
            nprocs=int(d["nprocs"]),
            attempts=tuple(AttemptFailure.from_dict(a) for a in d.get("attempts", [])),
        )


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def run_cell(
    benchmark: str,
    machine: str,
    nprocs: int,
    config: Any,
    heartbeat: AbstractContextManager[Any] = contextlib.nullcontext(),
) -> dict[str, Any]:
    """Run one cell and return its result envelope as a plain dict.

    The one cell body, whether the serial grid path runs it in-process
    or a worker process runs it: chaos checkpoint, benchmark adapter,
    envelope, chaos payload corruption.  ``heartbeat`` is entered
    *after* the chaos checkpoint, so an injected hang is silent from
    the very first beat (exercising heartbeat-loss detection rather
    than only the deadline), and left once the simulation returns.
    """
    from repro.machines import get_machine
    from repro.runtime.envelope import envelope_for
    from repro.runtime.spec import adapter_for

    chaos.on_cell(chaos.cell_key(benchmark, machine, nprocs))
    with heartbeat:
        result = adapter_for(benchmark).run(get_machine(machine), nprocs, config)
    return chaos.corrupt_payload(envelope_for(result, machine=machine).to_dict())


@contextlib.contextmanager
def _heartbeat(
    conn: Connection, send_lock: threading.Lock, interval_s: float
) -> Iterator[None]:
    """Ping ``conn`` every ``interval_s`` seconds from a thread while entered.

    (A daemon thread keeps beating through a pure-Python busy loop: the
    GIL still timeslices it.  Only a process that stopped running
    Python goes silent.)
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval_s):
            try:
                with send_lock:
                    conn.send(("beat",))
            except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- pipe gone means the supervisor already recorded this attempt; the beat thread just stops
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _worker(
    conn: Connection, parent_end: Connection, heartbeat_interval_s: float | None
) -> None:
    """Worker process body: run the cells the supervisor sends, one by one.

    Each message is a ``(benchmark, machine, nprocs, config)`` cell;
    ``None`` (or the supervisor going away) ends the process.  A cell
    that raises is reported as ``("err", ...)`` and the worker stays in
    service; the supervisor kills it for any other failure.  With a
    heartbeat interval each cell beats over the same pipe while it
    runs, and every send takes ``send_lock`` so a beat can never
    interleave a large result payload.
    """
    # the inherited copy of the supervisor's end would keep this pipe
    # open forever: closing it lets the worker see EOF if the
    # supervisor dies without saying goodbye
    parent_end.close()
    send_lock = threading.Lock()
    while True:
        try:
            cell = conn.recv()
        except (EOFError, OSError):  # repro-lint: disable=REPRO014 -- the supervisor is gone; nobody is left to serve
            return
        if cell is None:
            return
        beat: AbstractContextManager[Any] = (
            contextlib.nullcontext()
            if heartbeat_interval_s is None
            else _heartbeat(conn, send_lock, heartbeat_interval_s)
        )
        message: tuple[Any, ...]
        try:
            message = ("ok", run_cell(*cell, heartbeat=beat))
        except Exception as exc:  # repro-lint: disable=REPRO005 -- the failure is shipped to the supervisor, which records it as an AttemptFailure
            message = ("err", type(exc).__name__, str(exc), traceback.format_exc())
        try:
            with send_lock:
                conn.send(message)
        except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- the supervisor is gone; nobody is left to serve
            return


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _now() -> float:
    """The supervisor's wall clock.

    Supervision is *about* real time (deadlines, heartbeat silence),
    so this is the one place in the runtime that legitimately reads
    the host clock; none of it feeds a result value.
    """
    return time.monotonic()  # repro-lint: disable=REPRO002 -- deadlines/heartbeats measure real wall time by definition; never enters a result


class _Worker:
    """Parent-side handle of one worker process and its current attempt."""

    __slots__ = ("process", "conn", "task", "started", "last_beat")

    def __init__(self, process: Any, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.task: SupervisedTask  # set by every assign before use
        self.started = self.last_beat = 0.0

    def assign(self, task: SupervisedTask) -> None:
        self.task = task
        self.started = self.last_beat = _now()
        try:
            self.conn.send((task.benchmark, task.machine, task.nprocs, task.config))
        except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- a worker that died while idle is reported as a crash by its sentinel
            pass

    def retire(self, kill: bool) -> None:
        """End the process: an idle worker is asked to exit, a busy or
        suspect one is killed."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- already gone; the join below reaps it
                pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()
        self.process.close()


def _validate_payload(payload: Any) -> str | None:
    """``None`` when the payload parses as a result envelope, else why not."""
    from repro.runtime.envelope import ResultEnvelope, SchemaVersionError

    if not isinstance(payload, dict):
        return f"worker returned {type(payload).__name__}, not an envelope dict"
    try:
        ResultEnvelope.from_dict(payload)
    except (SchemaVersionError, KeyError, TypeError, ValueError) as exc:
        return f"returned payload does not parse as an envelope: {exc}"
    return None


def _outcome(
    worker: _Worker, policy: SupervisionPolicy
) -> dict[str, Any] | AttemptFailure | None:
    """What became of ``worker``'s attempt: its payload, its failure,
    or ``None`` while it is still running within its budgets."""
    now = _now()
    elapsed = now - worker.started
    eof = False
    try:
        while worker.conn.poll():
            message = worker.conn.recv()
            if message[0] == "beat":
                worker.last_beat = now
            elif message[0] == "ok":
                problem = _validate_payload(message[1])
                if problem is None:
                    return message[1]
                return AttemptFailure(
                    kind="corrupt-return", message=problem, elapsed_s=elapsed
                )
            else:  # ("err", type-name, message, traceback)
                return AttemptFailure(
                    kind="error",
                    message=f"{message[1]}: {message[2]}",
                    worker_traceback=message[3],
                    elapsed_s=elapsed,
                )
    except (EOFError, OSError):
        eof = True
    if eof or not worker.process.is_alive():
        worker.process.join(timeout=5.0)
        return AttemptFailure(
            kind="crash",
            message=(
                f"worker exited with code {worker.process.exitcode} before "
                "returning a result"
            ),
            elapsed_s=elapsed,
        )
    if policy.deadline_s is not None and elapsed > policy.deadline_s:
        return AttemptFailure(
            kind="deadline",
            message=f"attempt exceeded its {policy.deadline_s:g}s wall-clock deadline",
            elapsed_s=elapsed,
        )
    if (
        policy.heartbeat_timeout_s is not None
        and now - worker.last_beat > policy.heartbeat_timeout_s
    ):
        # the message lands in exported result trees, so it must not
        # embed the measured (wall-clock) silence; elapsed_s carries
        # the timing for local diagnostics
        return AttemptFailure(
            kind="heartbeat-lost",
            message=(
                "heartbeat silence exceeded the "
                f"{policy.heartbeat_timeout_s:g}s threshold"
            ),
            elapsed_s=elapsed,
        )
    return None


def supervise(
    tasks: Sequence[SupervisedTask],
    policy: SupervisionPolicy,
    jobs: int = 1,
) -> Iterator[tuple[str, dict[str, Any]] | PoisonRecord]:
    """Run every task to completion or quarantine; always terminates.

    Yields ``(task.key, payload)`` for each cell the moment its
    validated envelope payload lands, and its :class:`PoisonRecord`
    the moment a cell exhausts ``policy.max_failures`` attempts, so
    the caller can store, journal or abort per cell.  Closing the
    generator early kills every worker.

    Up to ``jobs`` long-lived worker processes (started on demand)
    take the cells one after another.  The wall-clock bound is
    structural: every attempt either returns, raises, or is killed at
    its deadline/heartbeat threshold, and each cell gets at most
    ``policy.max_failures`` attempts — so the whole campaign finishes
    within roughly ``ceil(cells / jobs) * max_failures * (deadline +
    backoff_cap)`` regardless of what the workers do.  The arguments
    are checked before the generator is returned.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    seen: set[str] = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate supervised task key {task.key!r}")
        seen.add(task.key)
    return _supervised(list(tasks), policy, jobs)


def _supervised(
    tasks: list[SupervisedTask], policy: SupervisionPolicy, jobs: int
) -> Iterator[tuple[str, dict[str, Any]] | PoisonRecord]:
    """The supervision loop behind :func:`supervise`."""
    ctx = get_context()
    # beats only pay off when someone listens for their absence
    interval = (
        policy.heartbeat_interval_s if policy.heartbeat_timeout_s is not None else None
    )
    queue: deque[SupervisedTask] = deque(tasks)
    #: (ready_at, tie, task) — retries waiting out their backoff
    delayed: list[tuple[float, int, SupervisedTask]] = []
    tie = itertools.count()
    history: dict[str, list[AttemptFailure]] = {}
    idle: list[_Worker] = []
    busy: list[_Worker] = []

    def spawn() -> _Worker:
        parent_end, child_end = ctx.Pipe()
        process = ctx.Process(
            target=_worker, args=(child_end, parent_end, interval), daemon=True
        )
        process.start()
        child_end.close()
        return _Worker(process, parent_end)

    def failed(worker: _Worker, failure: AttemptFailure) -> PoisonRecord | None:
        """Retire or keep the worker; requeue the cell or poison it."""
        task = worker.task
        busy.remove(worker)
        if failure.kind == "error":
            idle.append(worker)
        else:
            worker.retire(kill=True)
        attempts = history.setdefault(task.key, [])
        attempts.append(failure)
        if len(attempts) >= policy.max_failures:
            return PoisonRecord(
                key=task.key,
                benchmark=task.benchmark,
                machine=task.machine,
                nprocs=task.nprocs,
                attempts=tuple(attempts),
            )
        delay = backoff_delay(
            task.key, len(attempts), policy.backoff_base_s, policy.backoff_cap_s
        )
        heapq.heappush(delayed, (_now() + delay, next(tie), task))
        return None

    try:
        while queue or delayed or busy:
            now = _now()
            while delayed and delayed[0][0] <= now:
                queue.append(heapq.heappop(delayed)[2])
            while queue and len(busy) < jobs:
                worker = idle.pop() if idle else spawn()
                worker.assign(queue.popleft())
                busy.append(worker)
            if not busy:
                time.sleep(max(0.0, delayed[0][0] - _now()))
                continue

            # sleep until the earliest supervision event can possibly fire
            wake: list[float] = []
            for w in busy:
                if policy.deadline_s is not None:
                    wake.append(w.started + policy.deadline_s)
                if policy.heartbeat_timeout_s is not None:
                    wake.append(w.last_beat + policy.heartbeat_timeout_s)
            if delayed and len(busy) < jobs:
                wake.append(delayed[0][0])
            timeout = max(0.0, min(wake) - _now()) if wake else None
            waitables: list[Any] = [w.conn for w in busy]
            waitables += [w.process.sentinel for w in busy]
            _connection_wait(waitables, timeout)

            for worker in list(busy):
                outcome = _outcome(worker, policy)
                if outcome is None:
                    continue
                if isinstance(outcome, AttemptFailure):
                    record = failed(worker, outcome)
                    if record is not None:
                        yield record
                    continue
                busy.remove(worker)
                idle.append(worker)
                yield worker.task.key, outcome
    finally:
        for worker in idle:
            worker.retire(kill=False)
        for worker in busy:
            worker.retire(kill=True)
