"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def toy_package():
    """toypkg.inner.work and toypkg.outer.run, with run calling work twice
    through its own binding of the name."""
    clock = FakeClock()
    inner = types.ModuleType("toypkg.inner")
    outer = types.ModuleType("toypkg.outer")

    def work(seconds):
        clock.advance(seconds)
        return seconds

    def run():
        clock.advance(1.0)
        total = outer.work(2.0) + outer.work(3.0)
        clock.advance(4.0)
        return total

    inner.work = work
    outer.work = work  # as ``from .inner import work`` would bind it
    outer.run = run
    pkg = types.ModuleType("toypkg")
    modules = {"toypkg": pkg, "toypkg.inner": inner, "toypkg.outer": outer}
    sys.modules.update(modules)
    yield clock, inner, outer
    for name in modules:
        del sys.modules[name]


def test_self_time_is_span_minus_child_spans(toy_package):
    clock, inner, outer = toy_package
    with Tracer("toypkg", ["outer.run", "inner.work"], clock=clock) as tracer:
        assert outer.run() == 5.0
    assert tracer.calls("outer.run") == 1
    assert tracer.calls("inner.work") == 2
    assert tracer.self_s("inner.work") == 5.0
    assert tracer.self_s("outer.run") == 5.0  # span 10 minus children 2 + 3


def test_originals_are_restored_everywhere(toy_package):
    clock, inner, outer = toy_package
    work, run = inner.work, outer.run
    with Tracer("toypkg", ["outer.run", "inner.work"], clock=clock):
        assert inner.work is not work and outer.work is inner.work
    assert inner.work is work and outer.work is work and outer.run is run


def test_missing_name_yields_zero_calls(toy_package):
    clock, inner, outer = toy_package
    targets = ["inner.gone", "nomodule.work", "inner.work"]
    with Tracer("toypkg", targets, clock=clock) as tracer:
        outer.run()
    assert tracer.calls("inner.gone") == 0
    assert tracer.self_s("inner.gone") == 0.0
    assert tracer.calls("nomodule.work") == 0
    assert tracer.calls("inner.work") == 2


def test_hook_sees_arguments_and_result(toy_package):
    clock, inner, outer = toy_package
    seen = []
    hooks = {"inner.work": lambda args, kwargs, result: seen.append((args, result))}
    with Tracer("toypkg", ["inner.work"], hooks, clock=clock):
        outer.run()
    assert seen == [((2.0,), 2.0), ((3.0,), 3.0)]


def test_check_rejects_perturbed_array():
    rng = np.random.default_rng(0)
    ref = rng.uniform(0.1, 1.0, size=(4, 60))
    assert not bench.mismatch(ref.copy(), ref).any()
    perturbed = ref.copy()
    perturbed[2, 7] *= 1.0 + 1e-8
    assert bench.mismatch(perturbed, ref).sum() == 1
    wrong = bench.wrong_units({"a": perturbed}, {"a": ref}, perturbed, 4)
    assert wrong.tolist() == [False, False, True, False]


def test_check_accepts_reordered_sums():
    rng = np.random.default_rng(1)
    terms = rng.uniform(0.0, 1.0, size=(60, 400))
    forward = terms.sum(axis=1)
    backward = np.array([sum(row[::-1].tolist()) for row in terms]) / 400
    assert not bench.mismatch(backward, forward / 400).any()


def test_check_rejects_nan_shape_and_nonpositive_robust():
    ref = np.ones((3, 5))
    bad = ref.copy()
    bad[1, 1] = np.nan
    assert bench.mismatch(bad, ref)[1, 1]
    assert bench.mismatch(ref[:2], ref).all()
    robust = ref.copy()
    robust[0, 4] = 0.0
    wrong = bench.wrong_units({"a": ref}, {"a": ref}, robust, 3)
    assert wrong.tolist() == [True, False, False]
    assert bench.wrong_units({}, {"a": ref}, ref, 3).all()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
