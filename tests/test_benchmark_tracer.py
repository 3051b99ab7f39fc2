"""The benchmark's tracer wraps library functions by name; renaming or deleting
one of them must fail here rather than break `benchmarks/run.py --trace 1`."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import onecross.cli  # noqa: F401  (imports every layer the tracer wraps)
from onecross import families

TRACER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("onecross_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict[tuple[str, str], object]:
    out = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "onecross" or name.startswith("onecross.")
        for attr, value in vars(module).items()
    }
    # read through sys.modules: a re-import of onecross leaves the classes
    # imported at the top of this file stale, and the tracer patches the fresh ones
    out[("_StepBudget", "spend")] = sys.modules["onecross.graph"]._StepBudget.spend
    out[("OneDrawing", "validate")] = sys.modules["onecross.characterize"].OneDrawing.validate
    return out


def test_tracer_installs_and_restores_every_binding():
    before = _bindings()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        during = _bindings()
        assert during[("onecross.graph", "paths_by_length")] is not before[("onecross.graph", "paths_by_length")]
        assert during[("_StepBudget", "spend")] is not before[("_StepBudget", "spend")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_counts_one_test_per_decision_and_the_cert_read():
    # V8's edge count does not refute planarity, so its decision is one test
    v8 = families.v8()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        res = sys.modules["onecross.planarity"].test_planarity(v8)
        assert tracer.op_counts["planarity.nx_tests"] == 1
        res.kuratowski.validate(v8)
        tracer.end_op(keep_counts=True)
    finally:
        tracer.uninstall()
    assert tracer.counts["planarity.calls"] == 1
    assert tracer.counts["planarity.cert_results"] == 1
    assert tracer.counts["planarity.cert_reads"] == 1
