"""The benchmark's four workloads.

Each workload builds its inputs in :meth:`Workload.setup` and exposes
its operations as :class:`Op` objects.  One op is one call into a
public entry point of ``repro``: ``run_beff``, ``run_beffio`` or
``repro.cli.main_repro``.  Only that call is timed; the op's
``outcome`` then turns what it returned into an :class:`Outcome`: the
pinned form of its simulated result, the simulated bytes it moved,
and the counters read from its result.  Every object the call builds
through a factory is appended to a sink, so counters can be read from
it even when the call raises.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

# the package under test is the checkout's own source tree, never an
# installed copy
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"perfbench: no repro package under {SRC}")
sys.path.insert(0, SRC)

from repro.beff import MeasurementConfig  # noqa: E402
from repro.beff.benchmark import BeffResult, run_beff  # noqa: E402
from repro.beff.patterns import make_patterns  # noqa: E402
from repro.beffio import BeffIOConfig  # noqa: E402
from repro.beffio.benchmark import BeffIOResult, run_beffio  # noqa: E402
from repro.cli import main_repro  # noqa: E402
from repro.machines import MACHINES, get_machine  # noqa: E402
from repro.net.model import Fabric  # noqa: E402
from repro.pfs.filesystem import FileSystem  # noqa: E402
from repro.runtime.scheduler import expand_grid  # noqa: E402
from repro.sim.randomness import RandomStreams  # noqa: E402

MiB = float(1 << 20)


@dataclass
class Outcome:
    """What one completed op produced."""

    #: pinned form of the simulated result: name -> ``float.hex`` or digest
    values: dict[str, str]
    #: simulated bytes moved (b_eff: measured message bytes; b_eff_io
    #: and grid: MPI-IO bytes)
    sim_bytes: int
    #: counters read from the result object
    counters: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Op:
    name: str
    #: the timed call into ``repro``; appends the objects it builds to its argument
    call: Callable[[list], object]
    #: what the call returned -> :class:`Outcome` (untimed)
    outcome: Callable[[object], Outcome]


def object_counters(objects: list) -> Counter:
    """Counters read from the fabrics and filesystems an op built."""
    out: Counter = Counter()
    for obj in objects:
        if isinstance(obj, Fabric):
            out["net.messages"] += obj.messages_sent
            out["net.MiB"] += obj.bytes_sent / MiB
            out["sim.fluid.allocations"] += obj.flows.allocations
        elif isinstance(obj, FileSystem):
            out["sim.fluid.allocations"] += obj.io_net.allocations
            out["pfs.requests_served"] += sum(s.requests_served for s in obj.servers)
            out["pfs.seeks"] += sum(s.seeks for s in obj.servers)
            out["pfs.disk_write_MiB"] += obj.bytes_to_disk / MiB
            out["pfs.disk_read_MiB"] += obj.bytes_from_disk / MiB
    return out


def beff_values(result: BeffResult) -> dict[str, str]:
    values = {
        "b_eff": result.b_eff.hex(),
        "b_eff_at_lmax": result.b_eff_at_lmax.hex(),
        "ring_only_at_lmax": result.ring_only_at_lmax.hex(),
        "logavg_ring": result.logavg_ring.hex(),
        "logavg_random": result.logavg_random.hex(),
    }
    for name, value in sorted(result.per_pattern.items()):
        values[f"per_pattern.{name}"] = value.hex()
    return values


def beff_ring_keys(result: BeffResult) -> list[str]:
    """Result keys computed from ring patterns alone (seed-independent)."""
    rings = sorted({r.pattern for r in result.records if r.kind == "ring"})
    return ["logavg_ring", "ring_only_at_lmax"] + [f"per_pattern.{p}" for p in rings]


def beffio_values(result: BeffIOResult) -> dict[str, str]:
    values = {"b_eff_io": result.b_eff_io.hex()}
    for method, value in sorted(result.method_values.items()):
        values[f"method.{method}"] = value.hex()
    return values


@dataclass(frozen=True)
class OpRun:
    """One executed op: its host seconds and simulated bytes if it completed.

    ``seconds`` is normalised to the reference host speed (see
    ``hostspeed.py``); ``raw_seconds`` is the plain measurement.
    """

    name: str
    seconds: float
    raw_seconds: float
    sim_bytes: int | None


class Workload:
    """One named workload: set-up, then ops run once and ops repeated."""

    name = ""
    #: whether ``--seed`` changes the inputs
    seeded = False
    #: ops of a fresh state, run once before the repeated passes
    once: list[Op]
    #: ops of one repeated pass
    repeat: list[Op]
    #: passes of ``repeat`` a run makes at least, and exactly when traced
    min_passes = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.once = []
        self.repeat = []

    def setup(self) -> None:
        raise NotImplementedError

    def end_to_end(self, once: list[OpRun], passes: list[list[OpRun]]) -> dict[str, float]:
        """The host-time metrics of one run (see README.md for each)."""
        raise NotImplementedError


def _seconds(runs: list[OpRun], names: set[str] | None = None) -> float:
    return sum(r.seconds for r in runs if names is None or r.name in names)


def _mib_per_s(runs: list[OpRun]) -> float:
    done = [r for r in runs if r.sim_bytes is not None]
    seconds = _seconds(done)
    return sum(r.sim_bytes for r in done) / MiB / seconds if seconds > 0 else 0.0


def _passes_metrics(passes: list[list[OpRun]], wall_ops: set[str] | None) -> dict[str, float]:
    walls = [_seconds(p, wall_ops) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "io_MiB_per_host_s": statistics.median(_mib_per_s(p) for p in passes),
        "cold_wall_s": walls[0],
        "warm_wall_s": statistics.median(walls[1:] or walls),
    }


class BeffWorkload(Workload):
    """``run_beff`` on a list of (machine, procs) cases with one backend."""

    seeded = True
    cases: tuple[tuple[str, int], ...] = ()
    backend = ""

    def setup(self) -> None:
        self.streams = RandomStreams(self.seed)
        config = MeasurementConfig(backend=self.backend)
        for machine, nprocs in self.cases:
            spec = get_machine(machine)
            messages = {
                p.name: p.messages_per_iteration
                for p in make_patterns(nprocs, self.streams)
            }
            self.repeat.append(
                Op(f"{machine}-{nprocs}",
                   self._call(spec, spec.fabric_factory(nprocs), config),
                   functools.partial(self._outcome, messages))
            )

    def _call(self, spec, factory, config) -> Callable[[list], BeffResult]:
        def call(sink: list) -> BeffResult:
            def make() -> Fabric:
                fabric = factory()
                sink.append(fabric)
                return fabric

            return run_beff(
                make, spec.memory_per_proc, config, self.streams, int_bits=spec.int_bits
            )

        return call

    @staticmethod
    def _outcome(messages: dict[str, int], result: BeffResult) -> Outcome:
        sim_bytes = sum(r.size * messages[r.pattern] * r.looplength for r in result.records)
        counters = Counter({
            "beff.ff_loops_armed": result.ff_loops_armed,
            "beff.ff_reps_skipped": result.ff_reps_skipped,
        })
        return Outcome(beff_values(result), sim_bytes, counters)

    def end_to_end(self, once, passes):
        return _passes_metrics(passes, None)


class BeffDes(BeffWorkload):
    name = "beff-des"
    cases = (("t3e", 16),)
    backend = "des"


class BeffAnalytic(BeffWorkload):
    name = "beff-analytic"
    cases = (("t3e", 2048), ("dragonfly", 1024))
    backend = "analytic"


class BeffIO(Workload):
    """``run_beffio`` on sp over the partition sweep {4, 8, 16}, T=60."""

    name = "beffio"
    machine = "sp"
    partitions = (4, 8, 16)
    #: ops that complete at the commit that introduced the benchmark;
    #: ``wall_s`` times only these, so fixing the 16-proc op adds work
    #: to the throughput metric without reading as a slowdown
    wall_ops = {"sp-4", "sp-8"}

    def setup(self) -> None:
        spec = get_machine(self.machine)
        config = BeffIOConfig(T=60)
        for nprocs in self.partitions:
            self.repeat.append(
                Op(f"{self.machine}-{nprocs}",
                   self._call(spec, spec.io_env_factory(nprocs), config),
                   self._outcome)
            )

    @staticmethod
    def _call(spec, factory, config) -> Callable[[list], BeffIOResult]:
        def call(sink: list) -> BeffIOResult:
            def make():
                world, fs = factory()
                sink.extend((world.fabric, fs))
                return world, fs

            return run_beffio(make, spec.memory_per_proc, config)

        return call

    @staticmethod
    def _outcome(result: BeffIOResult) -> Outcome:
        counters: Counter = Counter()
        for r in result.pattern_runs:
            counters["beffio.reps"] += r.reps
            counters[f"beffio.{r.method}_MiB"] += r.nbytes / MiB
        sim_bytes = sum(r.nbytes for r in result.pattern_runs)
        return Outcome(beffio_values(result), sim_bytes, counters)

    def end_to_end(self, once, passes):
        return _passes_metrics(passes, self.wall_ops)


_GRID_LINE = re.compile(r"^grid: (\d+) cell\(s\) = (\d+) fresh \+ (\d+) cached \+ (\d+) deduped")
_CACHE_LINE = re.compile(r"^cache: hits=(\d+) misses=(\d+) puts=(\d+)")


class Grid(Workload):
    """``repro sweep-grid`` over the whole zoo, cold then warm."""

    name = "grid"
    partitions = (2, 4, 8, 16)
    benchmarks = ("b_eff", "b_eff_io")
    min_passes = 3

    def setup(self) -> None:
        self.cache = os.path.join(self.workdir, "grid-cache")
        self.out = os.path.join(self.workdir, "grid-out")
        machines = sorted(MACHINES)
        self.cells = expand_grid(
            machines, self.benchmarks, self.partitions,
            configs={
                "b_eff": MeasurementConfig(backend="analytic"),
                "b_eff_io": BeffIOConfig(T=8, pattern_types=(0,)),
            },
        )
        self.argv = [
            "sweep-grid",
            "--machines", ",".join(machines),
            "--benchmarks", ",".join(self.benchmarks),
            "--partitions", ",".join(map(str, self.partitions)),
            "--backend", "analytic", "--T", "8", "--types", "0",
            "--jobs", "2", "--cache", self.cache, "--out", self.out,
        ]
        self.once.append(Op("cold", self._sweep(cold=True), self._outcome))
        self.repeat.append(Op("warm", self._sweep(cold=False), self._outcome))

    def _sweep(self, cold: bool) -> Callable[[list], str]:
        def call(sink: list) -> str:
            if cold:
                shutil.rmtree(self.cache, ignore_errors=True)
            shutil.rmtree(self.out, ignore_errors=True)
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main_repro(self.argv)
            if code != 0:
                raise RuntimeError(f"sweep-grid exited with code {code}")
            return text.getvalue()

        return call

    def _outcome(self, stdout: str) -> Outcome:
        counters: Counter = Counter()
        for line in stdout.splitlines():
            if m := _GRID_LINE.match(line):
                counters["runtime.cells_fresh"] += int(m[2])
                counters["runtime.cells_cached"] += int(m[3])
            elif m := _CACHE_LINE.match(line):
                counters["runtime.store.hits"] += int(m[1])
                counters["runtime.store.misses"] += int(m[2])
                counters["runtime.store.puts"] += int(m[3])
        values: dict[str, str] = {}
        sim_bytes = 0
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                raw = fh.read()
            values[name] = hashlib.sha256(raw).hexdigest()
            if name.startswith("b_eff_io__"):
                sim_bytes += sum(r["nbytes"] for r in json.loads(raw)["pattern_runs"])
        if len(values) != len(self.cells) + 1:
            raise RuntimeError(
                f"sweep-grid wrote {len(values)} files, expected {len(self.cells) + 1}"
            )
        return Outcome(values, sim_bytes, counters)

    def end_to_end(self, once, passes):
        cold = once[0]
        warm = statistics.median(_seconds(p) for p in passes)
        return {
            "wall_s": cold.seconds + warm,
            "io_MiB_per_host_s": _mib_per_s([cold]),
            "cold_wall_s": cold.seconds,
            "warm_wall_s": warm,
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (BeffDes, BeffAnalytic, BeffIO, Grid)
}
