"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import cProfile
import math
import os
import pkgutil
import pstats

import hostspeed
import pytest
import worker
from layers import LAYER_PREFIXES, LAYERS, ProfileView, layer_of, module_of
from pins import Checker, load_pins
from workloads import Op, Outcome, Workload

import repro
from repro.sim.randomness import RandomStreams

PACKAGE_DIR = os.path.dirname(repro.__file__)


def repro_modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages([PACKAGE_DIR], prefix="repro."):
        names.append(info.name)
    return names


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = repro_modules()
    assert len(modules) > 50
    for module in modules:
        matches = [p for p in LAYER_PREFIXES if module == p or module.startswith(p + ".")]
        depth = max(p.count(".") for p in matches)
        assert len([p for p in matches if p.count(".") == depth]) == 1, module
        assert layer_of(module) == LAYER_PREFIXES[max(matches, key=len)], module
        assert layer_of(module) != "ext", module
    # every named layer holds at least one module
    used = {layer_of(m) for m in modules}
    assert used == set(LAYERS) - {"ext"}


@pytest.mark.parametrize(
    "module", ["numpy", "numpy.core.multiarray", "builtins", "reproduce", "perfbench.run", "workloads"]
)
def test_anything_else_maps_to_ext(module):
    assert layer_of(module) == "ext"


def test_module_of_profile_filenames():
    assert module_of(os.path.join(PACKAGE_DIR, "sim", "kernel.py"), PACKAGE_DIR) == "repro.sim.kernel"
    assert module_of(os.path.join(PACKAGE_DIR, "mpi", "__init__.py"), PACKAGE_DIR) == "repro.mpi"
    assert module_of(os.path.join(PACKAGE_DIR, "__init__.py"), PACKAGE_DIR) == "repro"
    assert module_of("~", PACKAGE_DIR) is None
    assert module_of(os.__file__, PACKAGE_DIR) is None
    beside = os.path.join(os.path.dirname(PACKAGE_DIR), "reproduce", "x.py")
    assert module_of(beside, PACKAGE_DIR) is None


def test_profile_self_time_reports_every_layer():
    profile = cProfile.Profile()
    profile.enable()
    RandomStreams(3).permutation("x", 64)
    profile.disable()
    view = ProfileView(pstats.Stats(profile), PACKAGE_DIR)
    seconds = view.self_seconds()
    assert set(seconds) == set(LAYERS)
    assert seconds["other"] > 0 and seconds["sim.engine"] == 0.0
    assert view.calls("repro.sim.randomness", "permutation") == 1


def _one_ulp_up(hex_value: str) -> str:
    value = float.fromhex(hex_value)
    return math.nextafter(value, math.inf).hex()


def test_one_ulp_change_to_a_pinned_value_is_flagged():
    pins = load_pins()
    checked = 0
    for workload, table in pins.items():
        if not isinstance(table, dict):
            continue
        seed_key, ops = next(iter(table["seeds"].items()))
        seed = 1 if seed_key == "*" else int(seed_key)
        checker = Checker(pins, workload, seed)
        for op, values in ops.items():
            assert checker.check(op, dict(values)) == ("pinned", [])
            key = next((k for k, v in values.items() if v.startswith(("0x", "-0x"))), None)
            if key is None:
                continue
            bad = dict(values, **{key: _one_ulp_up(values[key])})
            status, mismatches = checker.check(op, bad)
            assert status == "pinned" and len(mismatches) == 1 and key in mismatches[0]
            checked += 1
    assert checked >= 3


def test_seed_without_pins_is_unchecked_but_checks_ring_values():
    pins = {
        "default_seed": 1,
        "w": {
            "seeds": {"1": {"op": {"ring": "0x1.0p+0", "random": "0x1.8p+0"}}},
            "seed_independent": {"op": ["ring"]},
        },
    }
    checker = Checker(pins, "w", 99)
    assert checker.check("op", {"ring": "0x1.0p+0", "random": "0x1.cp+0"}) == ("unchecked", [])
    status, mismatches = checker.check("op", {"ring": "0x1.0000000000001p+0", "random": "0x1.8p+0"})
    assert status == "unchecked" and len(mismatches) == 1
    assert Checker(pins, "w", 1).check("op", {"ring": "0x1.0p+0", "random": "0x1.8p+0"}) == ("pinned", [])
    assert Checker(pins, "missing", 1).check("op", {}) == ("unchecked", [])


class _Toy(Workload):
    name = "toy"

    def setup(self) -> None:
        def ok(value):
            return Op(value, lambda sink: value, lambda v: Outcome({"v": v}, 1 << 20))

        def boom(sink):
            raise RuntimeError("forced failure")

        self.repeat = [ok("0x1.0p+0"), Op("b", boom, Outcome), ok("0x1.8p+0")]

    def end_to_end(self, once, passes):
        return {}


def test_op_forced_to_raise_is_counted_failed_and_run_completes(capsys):
    toy = _Toy(1, "unused")
    toy.setup()
    pins = {"toy": {"seeds": {"*": {"0x1.0p+0": {"v": "0x1.0p+0"}, "0x1.8p+0": {"v": "0x1.8p+0"}}}}}
    once, runs, tally = worker.measure(toy, 0.0, Checker(pins, "toy", 1), passes=2)
    assert tally.attempted == 6 and tally.failed == 2 and tally.mismatched == 0
    assert [r.sim_bytes for r in runs[0]] == [1 << 20, None, 1 << 20]
    assert tally.statuses == {"pinned": 4}
    assert [name for name, values in tally.results] == ["0x1.0p+0", "b", "0x1.8p+0"] * 2
    assert "op b: failed with RuntimeError: forced failure" in capsys.readouterr().err


def test_mismatch_counts_as_failed():
    toy = _Toy(1, "unused")
    toy.setup()
    pins = {"toy": {"seeds": {"*": {"0x1.0p+0": {"v": "0x1.0000000000001p+0"}}}}}
    _once, runs, tally = worker.measure(toy, 0.0, Checker(pins, "toy", 1), passes=1)
    # one mismatch, one exception; the unpinned third op is unchecked
    assert tally.failed == 2 and tally.mismatched == 1
    assert tally.statuses == {"pinned": 1, "unchecked": 1}
    assert runs[0][0].sim_bytes is None


def test_probe_rescales_to_the_reference_speed():
    probe = hostspeed.Probe()
    probe.samples = [2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S]
    assert probe.normalise(3.0) == pytest.approx(1.5)
    with hostspeed.Probe() as probe:
        pass
    assert len(probe.samples) >= 2 and all(s > 0 for s in probe.samples)
