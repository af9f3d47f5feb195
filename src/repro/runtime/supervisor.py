"""Supervised cell execution: deadlines, heartbeats, seeded backoff,
poison quarantine.

The grid scheduler and the sweep orchestrator retry failing cells, but
three machine realities defeat plain retries:

* a **hung** worker produces neither a result nor an exception — an
  unsupervised pool waits on it forever;
* a worker that is *running* but past any useful wall-clock budget
  starves the rest of the campaign;
* a **deterministically** failing cell burns its retries and then
  aborts the whole grid with one exception, throwing away every
  healthy cell's work.

This module runs each attempt of a cell in its own killable worker
process and supervises it from the parent:

* **Deadlines** — a wall-clock budget per attempt
  (:attr:`SupervisionPolicy.deadline_s`); an overrunning worker is
  killed and the attempt counted as ``deadline``.
* **Heartbeats** — the worker pings its pipe every
  :attr:`~SupervisionPolicy.heartbeat_interval_s`; silence past
  :attr:`~SupervisionPolicy.heartbeat_timeout_s` means the worker is
  wedged before real work started (or its interpreter died without
  closing the pipe) and it is killed as ``heartbeat-lost``.
* **Seeded exponential backoff with jitter** — the delay before
  attempt *k* of a cell is :func:`backoff_delay`, derived with
  SplitMix64 from the cell *fingerprint* and the attempt index.  Retry
  timing is therefore a pure function of the run's identity: a
  re-executed campaign backs off identically, so "reproducible
  protocol" (Hunold & Carpen-Amarie) extends to the failure path.
* **Poison quarantine** — after
  :attr:`~SupervisionPolicy.max_failures` attempts the cell is
  recorded as a :class:`PoisonRecord` (kind, message and traceback of
  every attempt) and the campaign *continues*.  The caller degrades
  the grid's validity instead of aborting it; one poisoned cell no
  longer costs 27 healthy ones.

Attempt failures are classified as ``crash`` (worker exited without a
result), ``deadline``, ``heartbeat-lost``, ``error`` (worker raised)
or ``corrupt-return`` (the payload does not parse as a result
envelope), so the quarantine stub says *how* a cell died, not only
that it did.
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from typing import Any

__all__ = [
    "AttemptFailure",
    "FAILURE_KINDS",
    "PoisonRecord",
    "SupervisedRun",
    "SupervisedTask",
    "SupervisionPolicy",
    "backoff_delay",
    "supervise",
]

#: every way one attempt can fail, as recorded in poison provenance
FAILURE_KINDS = ("crash", "deadline", "heartbeat-lost", "error", "corrupt-return")

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, seq: int) -> int:
    """SplitMix64 avalanche of (seed, seq) — same mix as the engine's
    tie-shuffle keys, reimplemented here so the supervisor stays
    import-light (workers re-import this module on every attempt)."""
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


@dataclass(frozen=True)
class SupervisedRun:
    """What a supervised campaign produced: payloads and poisons."""

    #: task key -> envelope payload dict (validated to parse)
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    poisoned: tuple[PoisonRecord, ...] = ()
    #: attempts actually launched (observability / overhead tests)
    attempts: int = 0


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _supervised_entry(
    conn: Connection,
    benchmark: str,
    machine: str,
    nprocs: int,
    config: Any,
    heartbeat_interval_s: float,
) -> None:
    """Worker body of one attempt: heartbeat thread + the cell itself.

    The chaos checkpoint runs *before* the heartbeat thread starts, so
    an injected hang is silent from the very first beat — exercising
    heartbeat-loss detection rather than only the deadline.  (A daemon
    thread would keep beating through a pure-Python hang: the GIL
    still timeslices it.)
    """
    from repro.runtime import chaos

    # the beat thread and the worker body share one pipe: every send
    # takes this lock so a beat can never interleave a large payload
    send_lock = threading.Lock()
    stop = threading.Event()
    try:
        chaos.on_cell(chaos.cell_key(benchmark, machine, nprocs))

        def beat() -> None:
            while not stop.wait(heartbeat_interval_s):
                try:
                    with send_lock:
                        conn.send(("beat",))
                except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- pipe gone means the supervisor already recorded this attempt; the beat thread just stops
                    return

        threading.Thread(target=beat, daemon=True).start()

        from repro.machines import get_machine
        from repro.runtime.envelope import envelope_for
        from repro.runtime.spec import adapter_for

        result = adapter_for(benchmark).run(get_machine(machine), nprocs, config)
        payload = chaos.corrupt_payload(
            envelope_for(result, machine=machine).to_dict()
        )
        stop.set()
        with send_lock:
            conn.send(("ok", payload))
    except BaseException as exc:  # repro-lint: disable=REPRO005 -- the failure is shipped to the supervising parent, which records it as an AttemptFailure
        stop.set()
        try:
            with send_lock:
                conn.send(
                    ("err", type(exc).__name__, str(exc), traceback.format_exc())
                )
        except (OSError, ValueError):  # repro-lint: disable=REPRO014 -- pipe gone: the supervisor sees EOF and records a crash failure instead
            pass
    finally:
        conn.close()


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
    """Parent-side state of one in-flight attempt."""

    __slots__ = ("task", "attempt", "process", "conn", "started", "last_beat")

    def __init__(
        self, task: SupervisedTask, attempt: int, process: Any, conn: Connection
    ) -> None:
        self.task = task
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = _now()
        self.last_beat = self.started


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


def supervise(
    tasks: Sequence[SupervisedTask],
    policy: SupervisionPolicy,
    jobs: int = 1,
) -> SupervisedRun:
    """Run every task to completion or quarantine; always terminates.

    Up to ``jobs`` attempts run concurrently, each in its own process.
    The wall-clock bound is structural: every attempt either returns,
    raises, or is killed at its deadline/heartbeat threshold, and each
    cell gets at most ``policy.max_failures`` attempts — so the whole
    campaign finishes within roughly
    ``ceil(cells / jobs) * max_failures * (deadline + backoff_cap)``
    regardless of what the workers do.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    seen: set[str] = set()
    queue: deque[tuple[SupervisedTask, int]] = deque()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate supervised task key {task.key!r}")
        seen.add(task.key)
        queue.append((task, 1))

    ctx = get_context()
    #: (ready_at, tie, task, attempt) — retries waiting out their backoff
    delayed: list[tuple[float, int, SupervisedTask, int]] = []
    tie = 0
    running: list[_Worker] = []
    results: dict[str, dict[str, Any]] = {}
    history: dict[str, list[AttemptFailure]] = {}
    poisons: list[PoisonRecord] = []
    launched = 0

    def launch(task: SupervisedTask, attempt: int) -> None:
        nonlocal launched
        recv_end, send_end = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_supervised_entry,
            args=(
                send_end,
                task.benchmark,
                task.machine,
                task.nprocs,
                task.config,
                policy.heartbeat_interval_s,
            ),
            daemon=True,
        )
        process.start()
        send_end.close()
        running.append(_Worker(task, attempt, process, recv_end))
        launched += 1

    def reap(worker: _Worker, kill: bool = False) -> None:
        running.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
        worker.process.join(timeout=5.0)
        worker.conn.close()
        worker.process.close()

    def failed(worker: _Worker, failure: AttemptFailure, kill: bool = False) -> None:
        nonlocal tie
        reap(worker, kill=kill)
        attempts = history.setdefault(worker.task.key, [])
        attempts.append(failure)
        if len(attempts) >= policy.max_failures:
            poisons.append(
                PoisonRecord(
                    key=worker.task.key,
                    benchmark=worker.task.benchmark,
                    machine=worker.task.machine,
                    nprocs=worker.task.nprocs,
                    attempts=tuple(attempts),
                )
            )
            return
        delay = backoff_delay(
            worker.task.key,
            len(attempts),
            policy.backoff_base_s,
            policy.backoff_cap_s,
        )
        tie += 1
        heapq.heappush(
            delayed, (_now() + delay, tie, worker.task, worker.attempt + 1)
        )

    def succeeded(worker: _Worker, payload: dict[str, Any]) -> None:
        reap(worker)
        results[worker.task.key] = payload

    while queue or delayed or running:
        now = _now()
        while delayed and delayed[0][0] <= now:
            _, _, task, attempt = heapq.heappop(delayed)
            queue.append((task, attempt))
        while queue and len(running) < jobs:
            task, attempt = queue.popleft()
            launch(task, attempt)
        if not running:
            if delayed:
                time.sleep(max(0.0, delayed[0][0] - _now()))
            continue

        # sleep until the earliest supervision event can possibly fire
        deadlines: list[float] = []
        for w in running:
            if policy.deadline_s is not None:
                deadlines.append(w.started + policy.deadline_s)
            if policy.heartbeat_timeout_s is not None:
                deadlines.append(w.last_beat + policy.heartbeat_timeout_s)
        if delayed and len(running) < jobs:
            deadlines.append(delayed[0][0])
        timeout = max(0.0, min(deadlines) - _now()) if deadlines else None
        waitables: list[Any] = [w.conn for w in running]
        waitables += [w.process.sentinel for w in running]
        _connection_wait(waitables, timeout)

        now = _now()
        for worker in list(running):
            resolved = False
            eof = False
            try:
                while worker.conn.poll():
                    message = worker.conn.recv()
                    if message[0] == "beat":
                        worker.last_beat = now
                    elif message[0] == "ok":
                        payload = message[1]
                        problem = _validate_payload(payload)
                        if problem is None:
                            succeeded(worker, payload)
                        else:
                            failed(
                                worker,
                                AttemptFailure(
                                    kind="corrupt-return",
                                    message=problem,
                                    elapsed_s=now - worker.started,
                                ),
                                kill=True,
                            )
                        resolved = True
                        break
                    else:  # ("err", type-name, message, traceback)
                        failed(
                            worker,
                            AttemptFailure(
                                kind="error",
                                message=f"{message[1]}: {message[2]}",
                                worker_traceback=message[3],
                                elapsed_s=now - worker.started,
                            ),
                            kill=True,
                        )
                        resolved = True
                        break
            except (EOFError, OSError):
                eof = True
            if resolved:
                continue
            if eof or not worker.process.is_alive():
                worker.process.join(timeout=5.0)
                code = worker.process.exitcode
                failed(
                    worker,
                    AttemptFailure(
                        kind="crash",
                        message=(
                            f"worker exited with code {code} before "
                            "returning a result"
                        ),
                        elapsed_s=now - worker.started,
                    ),
                )
                continue
            if policy.deadline_s is not None and now - worker.started > policy.deadline_s:
                failed(
                    worker,
                    AttemptFailure(
                        kind="deadline",
                        message=(
                            f"attempt exceeded its {policy.deadline_s:g}s "
                            "wall-clock deadline"
                        ),
                        elapsed_s=now - worker.started,
                    ),
                    kill=True,
                )
                continue
            if (
                policy.heartbeat_timeout_s is not None
                and now - worker.last_beat > policy.heartbeat_timeout_s
            ):
                failed(
                    worker,
                    AttemptFailure(
                        kind="heartbeat-lost",
                        # the message lands in exported result trees, so it
                        # must not embed the measured (wall-clock) silence;
                        # elapsed_s carries the timing for local diagnostics
                        message=(
                            "heartbeat silence exceeded the "
                            f"{policy.heartbeat_timeout_s:g}s threshold"
                        ),
                        elapsed_s=now - worker.started,
                    ),
                    kill=True,
                )

    poisons.sort(key=lambda p: (p.benchmark, p.machine, p.nprocs))
    return SupervisedRun(
        results=results, poisoned=tuple(poisons), attempts=launched
    )
