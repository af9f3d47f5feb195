"""One workload run in a fresh process: set up, measure, check, report.

Started by ``run.py`` from the root of a checkout.  Prints ``ready``
once set-up is done (the parent times process start to that line),
then runs the workload and prints one JSON report as its last line.
Per-op failures and mismatches go to stderr; the run continues.

With ``--trace 1`` the workload's ops run twice with a fixed number of
passes: once untraced, then under ``cProfile`` with invocation
counters on the generator functions the profile cannot count (it
counts every resumption of a generator as a call).  The two passes
must produce byte-identical results and equal object counters.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import json
import os
import pstats
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import hostspeed
from layers import ProfileView
from pins import Checker, load_pins
from workloads import WORKLOADS, OpRun, Workload, object_counters

import repro
from repro.mpiio.file import IOFile
from repro.pfs.filesystem import FileSystem

#: generator functions counted per invocation in the traced pass
INVOCATION_COUNTERS: tuple[tuple[type, str, str], ...] = (
    (FileSystem, "submit_io", "pfs.submit_io_calls"),
    *((IOFile, name, "mpiio.collective_calls")
      for name in ("write_all", "read_all", "write_ordered", "read_ordered")),
    *((IOFile, name, "mpiio.independent_calls")
      for name in ("write", "read", "write_at", "read_at", "write_shared", "read_shared")),
)


@dataclass
class Tally:
    """What the ops of one measurement did."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    statuses: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    #: (op name, pinned result or None) in execution order
    results: list = field(default_factory=list)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_op(op, tally: Tally, checker: Checker) -> OpRun:
    """Run one op; an exception or a pin mismatch counts it as failed."""
    sink: list = []
    outcome = None
    with hostspeed.Probe() as probe:
        start = time.perf_counter()
        try:
            result = op.call(sink)
        except Exception as exc:  # noqa: BLE001 -- a failed op is recorded, the run goes on
            error: Exception | None = exc
        else:
            error = None
        raw = time.perf_counter() - start
    seconds = probe.normalise(raw)
    if error is None:
        try:
            outcome = op.outcome(result)
        except Exception as exc:  # noqa: BLE001 -- as above
            error = exc
    if error is not None:
        log(f"op {op.name}: failed with {type(error).__name__}: {error}")
    tally.attempted += 1
    tally.counters.update(object_counters(sink))
    if outcome is None:
        tally.failed += 1
        tally.results.append((op.name, None))
        return OpRun(op.name, seconds, raw, None)
    tally.counters.update(outcome.counters)
    tally.results.append((op.name, outcome.values))
    status, mismatches = checker.check(op.name, outcome.values)
    tally.statuses[status] += 1
    if mismatches:
        tally.failed += 1
        tally.mismatched += 1
        for line in mismatches:
            log(f"op {op.name}: mismatch {line}")
        return OpRun(op.name, seconds, raw, None)
    return OpRun(op.name, seconds, raw, outcome.sim_bytes)


def measure(
    workload: Workload, seconds: float, checker: Checker, passes: int | None = None
) -> tuple[list[OpRun], list[list[OpRun]], Tally]:
    """Run ``once`` ops, then passes of ``repeat`` ops.

    Passes repeat until ``seconds`` have been spent on them and at
    least ``workload.min_passes`` ran, or exactly ``passes`` times.
    """
    tally = Tally()
    once = [run_op(op, tally, checker) for op in workload.once]
    runs: list[list[OpRun]] = []
    start = time.perf_counter()
    while True:
        runs.append([run_op(op, tally, checker) for op in workload.repeat])
        if passes is not None:
            if len(runs) >= passes:
                break
        elif len(runs) >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
    return once, runs, tally


@contextlib.contextmanager
def invocation_counters(counts: Counter):
    """Count invocations of :data:`INVOCATION_COUNTERS` while active."""

    def counting(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    saved = [(cls, name, cls.__dict__[name]) for cls, name, _key in INVOCATION_COUNTERS]
    for (cls, name, key), (_c, _n, fn) in zip(INVOCATION_COUNTERS, saved):
        setattr(cls, name, counting(fn, key))
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


def _raw_seconds(once: list[OpRun], runs: list[list[OpRun]]) -> float:
    return sum(r.raw_seconds for r in once) + sum(r.raw_seconds for p in runs for r in p)


def per_layer(view: ProfileView, counters: Counter, overhead: float) -> dict[str, float]:
    """Every per-layer metric of the traced pass (absent layers are 0)."""
    metrics = {f"{layer}.self_s": s for layer, s in view.self_seconds().items()}
    messages = counters["net.messages"]
    topo_routes = view.calls("repro.topology", "route")
    hits, misses = counters["runtime.store.hits"], counters["runtime.store.misses"]
    metrics.update({
        "sim.engine.events": view.calls("repro.sim.engine", "step"),
        "sim.fluid.allocations": counters["sim.fluid.allocations"],
        "sim.kernel.solves": view.calls("repro.sim.kernel", "solve"),
        "sim.kernel.solve_s": view.cumulative("repro.sim.kernel", "solve"),
        "net.messages": messages,
        "net.MiB": counters["net.MiB"],
        "net.route_calls": view.calls("repro.net.model", "route"),
        "topology.route_calls": topo_routes,
        "topology.routes_per_message": topo_routes / messages if messages else 0.0,
        "mpi.isend_calls": view.calls("repro.mpi.core", "isend"),
        "mpi.irecv_calls": view.calls("repro.mpi.core", "irecv"),
        "beff.ff_loops_armed": counters["beff.ff_loops_armed"],
        "beff.ff_reps_skipped": counters["beff.ff_reps_skipped"],
        "beff.round_time_calls": view.calls("repro.beff.analytic", "round_time"),
        "beffio.reps": counters["beffio.reps"],
        "beffio.write_MiB": counters["beffio.write_MiB"],
        "beffio.rewrite_MiB": counters["beffio.rewrite_MiB"],
        "beffio.read_MiB": counters["beffio.read_MiB"],
        "pfs.submit_io_calls": counters["pfs.submit_io_calls"],
        "pfs.submit_io_s": view.cumulative("repro.pfs.filesystem", "submit_io"),
        "pfs.requests_served": counters["pfs.requests_served"],
        "pfs.seeks": counters["pfs.seeks"],
        "pfs.disk_write_MiB": counters["pfs.disk_write_MiB"],
        "pfs.disk_read_MiB": counters["pfs.disk_read_MiB"],
        "mpiio.collective_calls": counters["mpiio.collective_calls"],
        "mpiio.independent_calls": counters["mpiio.independent_calls"],
        "runtime.cells_fresh": counters["runtime.cells_fresh"],
        "runtime.cells_cached": counters["runtime.cells_cached"],
        "runtime.store.hits": hits,
        "runtime.store.misses": misses,
        "runtime.store.puts": counters["runtime.store.puts"],
        "runtime.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.plan_s": sum(
            view.cumulative("repro.runtime.scheduler", name)
            for name in ("expand_grid", "calibrate", "plan_schedule")
        ),
        "runtime.store.put_s": view.cumulative("repro.runtime.store", "put"),
        "runtime.store.get_s": view.cumulative("repro.runtime.store", "get_entry"),
        "trace_overhead_ratio": overhead,
    })
    return metrics


def untraced_report(workload: Workload, seconds: float, checker: Checker) -> dict:
    once, runs, tally = measure(workload, seconds, checker)
    metrics = workload.end_to_end(once, runs)
    metrics["peak_rss_MiB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"tally": tally, "metrics": metrics, "passes": len(runs)}


def traced_report(workload: Workload, checker: Checker) -> dict:
    passes = workload.min_passes
    once_u, runs_u, plain = measure(workload, 0.0, checker, passes)
    counts: Counter = Counter()
    profile = cProfile.Profile()
    with invocation_counters(counts):
        profile.enable()
        try:
            once_t, runs_t, traced = measure(workload, 0.0, checker, passes)
        finally:
            profile.disable()
    identical = plain.results == traced.results and plain.counters == traced.counters
    if not identical:
        log("tracing changed a simulated result or a counter")
    traced.counters.update(counts)
    view = ProfileView(pstats.Stats(profile), os.path.dirname(repro.__file__))
    overhead = _raw_seconds(once_t, runs_t) / _raw_seconds(once_u, runs_u)
    return {
        "tally": traced,
        "metrics": per_layer(view, traced.counters, overhead),
        "passes": passes,
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    checker = Checker(load_pins(), workload.name, args.seed)
    if not workload.seeded:
        log(f"{workload.name} has no random input; --seed {args.seed} does not change it")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            report = traced_report(workload, checker)
        else:
            report = untraced_report(workload, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    tally: Tally = report.pop("tally")
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        mismatched=tally.mismatched,
        checks=dict(tally.statuses),
    )
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
