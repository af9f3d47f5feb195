"""Deterministic, env-gated chaos adversaries for supervision tests.

Long benchmark campaigns die of machine realities — workers crash,
hang, return garbage, disks fill — and a supervision layer is only
trustworthy if those realities can be *rehearsed* on demand.  This
module injects them deterministically:

``REPRO_CHAOS_CRASH=N[,M...]``
    hard-kill the worker (``os._exit``) on the N-th (M-th, ...)
    executed cell — the SIGKILL'd-runner reality.  Only enable when
    cells run in worker processes; a serial in-process run would kill
    the parent.
``REPRO_CHAOS_HANG=N[,M...]``
    freeze on the N-th executed cell: the worker stops responding
    (no heartbeats, no result) and sleeps forever — the hung-node
    reality that stalls an unsupervised campaign indefinitely.
``REPRO_CHAOS_POISON=b_eff:t3e:4``
    raise :class:`ChaosError` on *every* attempt of the matching
    cell(s) (comma-separated ``benchmark:machine:nprocs`` keys) — the
    reproducible-failure reality that must end in quarantine, not an
    aborted grid.
``REPRO_CHAOS_CORRUPT=N[,M...]``
    mangle the N-th returned result payload so it no longer parses as
    a valid envelope — the corrupted-IPC / bitrot-in-flight reality.
``REPRO_CHAOS_ENOSPC=N[,M...]``
    make the N-th :func:`~repro.reporting.export.write_json_atomic`
    call fail with ``ENOSPC`` mid-write — the disk-full reality the
    atomic-write temp-file cleanup contract is about.

Counting is shared across every process of a campaign through a
lock-protected counter file under ``REPRO_CHAOS_DIR`` (required for
the ordinal adversaries), so "the N-th cell" means the N-th cell the
whole campaign executes, surviving worker restarts.  The *number* of
injected faults is therefore exact and reproducible; with serial
dispatch the faulted cell is deterministic too.  All checks are
no-ops (one dict lookup) when the environment is clean, so production
runs pay nothing.

This module must stay a leaf (stdlib imports only): the atomic-write
hook in ``reporting.export`` imports it, and everything imports that.
"""

from __future__ import annotations

import errno
import os
import pathlib
import time

ENV_DIR = "REPRO_CHAOS_DIR"
ENV_CRASH = "REPRO_CHAOS_CRASH"
ENV_HANG = "REPRO_CHAOS_HANG"
ENV_POISON = "REPRO_CHAOS_POISON"
ENV_CORRUPT = "REPRO_CHAOS_CORRUPT"
ENV_ENOSPC = "REPRO_CHAOS_ENOSPC"

#: every adversary variable (for docs and tests)
ENV_VARS = (ENV_CRASH, ENV_HANG, ENV_POISON, ENV_CORRUPT, ENV_ENOSPC)

#: exit status of a chaos-crashed worker (distinctive in post-mortems)
CRASH_EXIT_CODE = 117

#: marker planted in a corrupted payload (asserted by the chaos suite:
#: a corrupt return must never be served as a result)
CORRUPT_MARKER = "chaos-corrupted-return"


class ChaosError(RuntimeError):
    """The failure a poison adversary injects into every attempt."""


def active() -> bool:
    """Is any chaos adversary armed in this environment?"""
    return any(os.environ.get(var) for var in ENV_VARS)


def _ordinals(var: str) -> frozenset[int]:
    """The set of 1-based ordinals an adversary is armed for."""
    raw = os.environ.get(var, "")
    if not raw:
        return frozenset()
    try:
        return frozenset(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{var} must be comma-separated integers, got {raw!r}") from None


#: per-process fallback counters (used only when ``REPRO_CHAOS_DIR`` is
#: unset; fine for single-process adversaries like ENOSPC)
_LOCAL_COUNTS: dict[str, int] = {}


def _next(counter: str) -> int:
    """Increment and return the campaign-wide 1-based counter.

    With ``REPRO_CHAOS_DIR`` set the count lives in a lock-protected
    file shared by every process of the campaign (workers inherit the
    environment), so it survives worker crashes and restarts; without
    it the count is process-local.
    """
    root = os.environ.get(ENV_DIR)
    if not root:
        _LOCAL_COUNTS[counter] = _LOCAL_COUNTS.get(counter, 0) + 1
        return _LOCAL_COUNTS[counter]
    import fcntl

    path = pathlib.Path(root) / f"{counter}.count"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+") as fh:  # repro-lint: disable=REPRO008 -- flocked fault-injection counter, not a result; the lock is the atomicity mechanism
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        fh.seek(0)
        text = fh.read().strip()
        value = int(text) + 1 if text else 1
        fh.seek(0)
        fh.truncate()
        fh.write(str(value))
        fh.flush()
        os.fsync(fh.fileno())
    return value


def cell_key(benchmark: str, machine: str, nprocs: int) -> str:
    """The human-addressable cell key poison adversaries match on."""
    return f"{benchmark}:{machine}:{nprocs}"


def on_cell(key: str) -> None:
    """Adversary checkpoint at the start of one cell execution.

    Called by :func:`repro.runtime.supervisor.run_cell`, the one cell
    body, with the cell's :func:`cell_key`.  May raise :class:`ChaosError` (poison),
    hard-exit the process (crash), or never return (hang).
    """
    if not active():
        return
    poison = os.environ.get(ENV_POISON, "")
    if poison and key in {part.strip() for part in poison.split(",")}:
        raise ChaosError(f"chaos poison armed for cell {key}")
    if not (os.environ.get(ENV_CRASH) or os.environ.get(ENV_HANG)):
        return
    n = _next("cells")
    if n in _ordinals(ENV_CRASH):
        os._exit(CRASH_EXIT_CODE)
    if n in _ordinals(ENV_HANG):
        # freeze: no result, no heartbeat, no exit — exactly what a
        # wedged node looks like to the supervisor
        while True:
            time.sleep(3600.0)


def corrupt_payload(payload: dict) -> dict:
    """Maybe replace a worker's returned payload with garbage.

    The mangled payload drops the envelope schema, so the parent-side
    validation rejects it — the attempt fails accountably instead of a
    silently-wrong number entering the journal.
    """
    if not os.environ.get(ENV_CORRUPT):
        return payload
    if _next("returns") in _ordinals(ENV_CORRUPT):
        return {CORRUPT_MARKER: True}
    return payload


def check_write() -> None:
    """Adversary checkpoint inside the atomic JSON writer.

    Raises ``OSError(ENOSPC)`` on armed write ordinals, after the temp
    file exists but before it is moved into place — the worst moment a
    full disk can strike an atomic write.
    """
    if not os.environ.get(ENV_ENOSPC):
        return
    if _next("writes") in _ordinals(ENV_ENOSPC):
        raise OSError(errno.ENOSPC, "chaos: injected ENOSPC on atomic write")
