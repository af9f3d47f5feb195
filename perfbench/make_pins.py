"""Regenerate ``pins.json`` from the reference engines.

Usage, from the root of a checkout::

    python3 perfbench/make_pins.py

b_eff DES pins come from ``mode="reference"`` (every repetition
simulated), b_eff_io pins from ``BeffIOConfig(mode="reference")``.
The analytic b_eff backend ignores ``mode``: it has no separate
reference engine, so its pins are its own output (its kernel's bit-identity with the scalar
max-min oracle is covered by the package's tests).  Grid pins are the
SHA-256 of every file a cold and a warm ``sweep-grid`` write.

b_eff workloads are pinned for :data:`DEFAULT_SEED` and one held-out
seed; their ring-pattern values must agree across the two, which is
what lets any other seed be checked on those keys.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from pins import PINS_PATH
from workloads import (
    BeffAnalytic, BeffDes, BeffIO, Grid, beff_ring_keys, beff_values, beffio_values,
)

from repro.beff import MeasurementConfig
from repro.beff.benchmark import run_beff
from repro.beffio import BeffIOConfig
from repro.machines import get_machine
from repro.sim.randomness import RandomStreams

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def beff_pins(workload: type) -> dict:
    seeds: dict[str, dict] = {}
    ring_keys: dict[str, list[str]] = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        ops = seeds[str(seed)] = {}
        for machine, nprocs in workload.cases:
            spec = get_machine(machine)
            config = MeasurementConfig(backend=workload.backend, mode="reference")
            result = run_beff(
                spec.fabric_factory(nprocs), spec.memory_per_proc, config,
                RandomStreams(seed), int_bits=spec.int_bits,
            )
            op = f"{machine}-{nprocs}"
            ops[op] = beff_values(result)
            ring_keys[op] = beff_ring_keys(result)
            print(f"{workload.name} seed {seed} {op}: b_eff {ops[op]['b_eff']}", flush=True)
    for op, keys in ring_keys.items():
        for key in keys:
            if seeds[str(DEFAULT_SEED)][op][key] != seeds[str(HELD_OUT_SEED)][op][key]:
                raise SystemExit(f"{workload.name} {op}: {key} depends on the seed")
    return {"seeds": seeds, "seed_independent": ring_keys}


def beffio_pins() -> dict:
    spec = get_machine(BeffIO.machine)
    config = BeffIOConfig(T=60, mode="reference")
    ops = {}
    for nprocs in BeffIO.partitions:
        result = spec.run_beffio(nprocs, config)
        ops[f"{BeffIO.machine}-{nprocs}"] = beffio_values(result)
        print(f"beffio sp-{nprocs}: b_eff_io {result.b_eff_io.hex()}", flush=True)
    return {"seeds": {"*": ops}}


def grid_pins() -> dict:
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "pins")
    grid = Grid(DEFAULT_SEED, workdir)
    grid.setup()
    try:
        ops = {op.name: op.outcome(op.call([])).values for op in grid.once + grid.repeat}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ops["cold"] != ops["warm"]:
        raise SystemExit("grid: warm sweep files differ from the cold sweep's")
    print(f"grid: {len(ops['cold'])} files", flush=True)
    return {"seeds": {"*": ops}}


def main() -> int:
    pins = {
        "default_seed": DEFAULT_SEED,
        BeffDes.name: beff_pins(BeffDes),
        BeffAnalytic.name: beff_pins(BeffAnalytic),
        BeffIO.name: beffio_pins(),
        Grid.name: grid_pins(),
    }
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
