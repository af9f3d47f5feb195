"""Pinned simulated results and the per-op check against them.

``pins.json`` holds, per workload, the result of every op as exact
strings (``float.hex`` for values, SHA-256 for grid envelope files),
keyed by seed.  Seedless workloads pin under ``"*"`` and are checked
for every seed.  For a seeded workload run on a seed with no pins,
only the keys listed under ``seed_independent`` (values computed from
ring patterns alone, which no seed touches) are compared, and the op
is reported as ``unchecked``.

Regenerate with ``python3 perfbench/make_pins.py`` (see README.md).
"""

from __future__ import annotations

import json
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


class Checker:
    """Compares op results with the pins of one (workload, seed)."""

    def __init__(self, pins: dict, workload: str, seed: int) -> None:
        table = pins.get(workload, {})
        seeds = table.get("seeds", {})
        self.partial = False
        if "*" in seeds:
            self.expected = seeds["*"]
        elif str(seed) in seeds:
            self.expected = seeds[str(seed)]
        elif str(pins.get("default_seed")) in seeds:
            default = seeds[str(pins["default_seed"])]
            self.expected = {
                op: {key: default[op][key] for key in keys}
                for op, keys in table.get("seed_independent", {}).items()
                if op in default
            }
            self.partial = True
        else:
            self.expected = {}

    def check(self, op: str, values: dict[str, str]) -> tuple[str, list[str]]:
        """``(status, mismatches)`` for one op's result.

        ``status`` is ``pinned`` when the full result was compared and
        ``unchecked`` otherwise; each mismatch is a one-line message.
        """
        expected = self.expected.get(op)
        if expected is None:
            return "unchecked", []
        keys = sorted(expected) if self.partial else sorted(set(expected) | set(values))
        mismatches = [
            f"{key}: got {values.get(key)} want {expected.get(key)}"
            for key in keys
            if values.get(key) != expected.get(key)
        ]
        return ("unchecked" if self.partial else "pinned"), mismatches


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
