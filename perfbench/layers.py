"""Layer map and profile reduction for the traced run.

A layer is a slice of the ``repro`` package: a module or a
sub-package.  Every ``repro.*`` module belongs to exactly one layer,
found by the longest matching dotted prefix in :data:`LAYER_PREFIXES`;
code outside the package (numpy, builtins, the standard library and
this benchmark itself) belongs to ``ext``.

The traced run profiles the workload's operations with ``cProfile``
and sums each function's self time into its layer.  Call counts of
named public functions are read from the same profile.
"""

from __future__ import annotations

import os
import pstats

#: dotted module prefix -> layer name; longest prefix wins
LAYER_PREFIXES: dict[str, str] = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.process": "sim.process",
    "repro.sim.fluid": "sim.fluid",
    "repro.sim.kernel": "sim.kernel",
    "repro.mpi": "mpi",
    "repro.mpiio": "mpiio",
    "repro.net": "net",
    "repro.topology": "topology",
    "repro.pfs": "pfs",
    "repro.beff": "beff",
    "repro.beffio": "beffio",
    "repro.runtime": "runtime",
    # cli, machines, scenarios, faults, reporting, util, devtools, the
    # remaining sim helpers and the package roots
    "repro": "other",
}

#: every layer the traced run reports, in report order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + ("ext",)


def layer_of(module: str) -> str:
    """The layer of a dotted module name (``ext`` outside ``repro``)."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return "ext"


def module_of(filename: str, package_dir: str) -> str | None:
    """Dotted name of the ``repro`` module defined in ``filename``.

    ``package_dir`` is the directory of the imported ``repro``
    package.  Returns None for files outside it and for builtins
    (which ``cProfile`` reports with the filename ``~``).
    """
    if filename in ("~", "") or filename.startswith("<"):
        return None
    package = os.path.abspath(package_dir)
    path = os.path.abspath(filename)
    if os.path.commonpath([path, package]) != package:
        return None
    stem, _ext = os.path.splitext(os.path.relpath(path, os.path.dirname(package)))
    parts = stem.split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProfileView:
    """Per-function entries of a ``pstats.Stats`` keyed by module."""

    def __init__(self, stats: pstats.Stats, package_dir: str) -> None:
        #: (module or None, function name) -> (calls, self s, cumulative s)
        self.entries: dict[tuple[str | None, str], tuple[int, float, float]] = {}
        for (filename, _line, func), row in stats.stats.items():  # type: ignore[attr-defined]
            _cc, ncalls, tottime, cumtime, _callers = row
            key = (module_of(filename, package_dir), func)
            calls, self_s, cum_s = self.entries.get(key, (0, 0.0, 0.0))
            self.entries[key] = (calls + ncalls, self_s + tottime, cum_s + cumtime)

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per layer; every layer present, absent = 0."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (module, _func), (_calls, self_s, _cum) in self.entries.items():
            out[layer_of(module) if module is not None else "ext"] += self_s
        return out

    def calls(self, module_prefix: str, func: str) -> int:
        """Calls of ``func`` in modules under ``module_prefix``."""
        return sum(calls for calls, _s, _c in self._matching(module_prefix, func))

    def cumulative(self, module_prefix: str, func: str) -> float:
        """Cumulative seconds of ``func`` in modules under ``module_prefix``."""
        return sum(cum for _calls, _s, cum in self._matching(module_prefix, func))

    def _matching(self, module_prefix: str, func: str):
        for (module, name), row in self.entries.items():
            if name == func and module is not None and (
                module == module_prefix or module.startswith(module_prefix + ".")
            ):
                yield row
