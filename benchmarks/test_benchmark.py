"""Determinism of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q

Run from the root of a checkout. The same seed must give the same members
and the same traced counts; another seed must change the random members and
keep the family members.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import digest, load_expected, make_ops  # noqa: E402

SECONDS = 30  # the run length BENCHMARK.json sets


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_members(workload):
    data = load_expected()
    assert digest(make_ops(workload, 7, SECONDS, data)) == digest(make_ops(workload, 7, SECONDS, data))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_changes_only_random_members(workload):
    data = load_expected()
    a, b = (make_ops(workload, seed, SECONDS, data) for seed in (7, 8))
    fixed = lambda ops: sorted(op.label for op in ops if not op.member.random)  # noqa: E731
    randoms = lambda ops: sorted(op.label for op in ops if op.member.random)  # noqa: E731
    assert fixed(a) == fixed(b)
    assert randoms(a) != randoms(b)
    assert len(a) == len(b)


def _traced_counts(workload: str, seed: int, keep) -> dict:
    prepared = run.prepare(workload, seed, 1, ROOT)
    picked = [i for i, op in enumerate(prepared.ops) if keep(op)]
    prepared.ops = [prepared.ops[i] for i in picked]
    prepared.inputs = {j: prepared.inputs[i] for j, i in enumerate(picked)}
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = run.run_ops(workload, prepared, tracer)
    finally:
        tracer.uninstall()
    assert all(o.status == "ok" for o in outcomes)
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload, keep", [
    ("decide", lambda op: op.member.name in ("V8", "K6", "Q3", "K5/s10") or op.member.random),
    ("sweep", lambda op: True),
    ("build", lambda op: True),
])
def test_traced_counts_repeat(workload, keep):
    first = _traced_counts(workload, 3, keep)
    assert first == _traced_counts(workload, 3, keep)
    assert first["planarity.calls"] > 0 and first["graph.copies"] > 0
