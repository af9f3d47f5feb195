"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload beff-des --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts the workload in a fresh process (``worker.py``).  With
``--trace 0`` it first starts the same process set-up-only six times,
takes ``setup_s`` as the median of the seven set-up times, and reports
every end-to-end metric of BENCHMARK.json.  With ``--trace 1`` it
reports every per-layer metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs every workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-up samples per untraced run: six set-up-only processes + the run
SETUP_SAMPLES = 7
#: seconds a worker may take before it is killed
WORKER_TIMEOUT_S = 600


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _worker(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def run_worker(cmd: list[str]) -> tuple[float, str]:
    """Start ``cmd``; return (seconds to its ``ready`` line, rest of stdout).

    The set-up seconds are normalised to the reference host speed.
    """
    with hostspeed.Probe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
    setup = probe.normalise(setup)
    try:
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {proc.returncode}")
    return setup, rest


def run_workload(args: argparse.Namespace, workload: str, spec: dict) -> dict:
    """The result object of one workload run."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(_worker(args, workload, "--setup-only"))[0])
    setup, stdout = run_worker(_worker(args, workload))
    setups.append(setup)
    report = json.loads(stdout.strip().splitlines()[-1])
    measured = dict(report["metrics"])
    kind = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    names = [m["name"] for m in spec[kind]]
    if set(names) != set(measured):
        raise BenchError(
            f"{workload} measured {sorted(measured)} but BENCHMARK.json lists {sorted(names)}"
        )
    correct = report["mismatched"] == 0 and report.get("identical", True)
    for line in (
        f"workload {workload}: seed {args.seed}, {report['passes']} pass(es), "
        f"checks {report['checks']}",
        f"failed {report['failed']} of {report['attempted']} ops "
        f"({report['failed'] / report['attempted']:.0%}), "
        f"{'correct' if correct else 'INCORRECT'}",
    ):
        print(line)
    metrics = {}
    for m in spec[kind]:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:32s} {value:16.6g} {m['unit']}")
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args, args.workload, spec)
        else:
            results = {w: run_workload(args, w, spec) for w in names}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}.{name}": metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
