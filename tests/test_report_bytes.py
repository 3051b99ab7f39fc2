"""Golden report bytes: `decide` and `pairs` with `--verify` on fixed inputs.

Each entry pins the sha256 of stdout and the exit code. The digests were
taken before the left-right test started reading multigraphs without a
simplified copy, so a change to how parallel edges reach networkx (and hence
to any embedding or drawing in a report) shows here. The two multigraphs
guard the order of each parallel class in the rotations.

One more digest pins `decide --verify` on every decide input of the
benchmark's `expected.json`, read as the benchmark reads it, one its
report on K6 with each edge a path of 60 edges, and one `pairs --verify` on
every sweep input of `expected.json`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from onecross import families
from onecross.cli import main
from helpers import subdivided, write_edge_list

INPUTS = {
    "v8": write_edge_list(families.v8()),
    "k5": write_edge_list(families.complete_graph(5)),
    "k33": write_edge_list(families.complete_bipartite(3, 3)),
    "siran": write_edge_list(families.siran_graph()),
    "q3": write_edge_list(families.cube_graph()),
    "k6": write_edge_list(families.complete_graph(6)),
    "k34": write_edge_list(families.complete_bipartite(3, 4)),
    # K5 with the edges 01 and 23 doubled
    "k5_doubled": write_edge_list(families.complete_graph(5)) + "0 1\n2 3\n",
    # a planar multigraph: a 4-cycle with chord 02, edge 12 doubled, pendant 4
    "planar_multi": "0 1\n1 2\n2 3\n3 0\n0 2\n2 1\n3 4\n",
}

GOLDEN = {
    # (input, command): (sha256 of stdout, exit code)
    ("v8", "decide"): ("b538c513a9538f7b9e8a0e56699aad0e508b4686094290f73acab0d535261a9a", 1),
    ("v8", "pairs"): ("5ac0d82f42b447a7462130d4b9c0c58fb48c46c3228201fa92a3cde38b5e8757", 1),
    ("k5", "decide"): ("27339bbf69634ff27177dc68bc219921748a8904938a923d905227f0a195daec", 1),
    ("k5", "pairs"): ("08a78c3f6150462dd6ab4dbdb91a009c8f4e69680869f46c030fe11ca4b8a4ac", 1),
    ("k33", "decide"): ("233b0bd083893651ab24817ffa20d91db985a0617bce0ff2a59c25f968547fd9", 1),
    ("k33", "pairs"): ("48eb3e57b3382cf70d9e9b40491e503a90839300a46992d7c1027fe150da9e88", 1),
    ("siran", "decide"): ("51314b10b9c05f1d0fc5e5218f724e4065dfad06f4e15d2fc25f300af472508a", 1),
    ("siran", "pairs"): ("8fca107c5bc76697a5483bb42cfb701cc7bae557d625328dd7ea6c6ce694b3fc", 1),
    ("q3", "decide"): ("133ffa06fd080464e483e80b6339aeb11865e8fba16370c068f95e961abed73b", 0),
    ("q3", "pairs"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65),
    ("k6", "decide"): ("07655156fe2a2f91045a0173b736dd90a27c7ce98bbf4bd9453723c1343b363a", 2),
    ("k6", "pairs"): ("51109a55b75db3fd0d082bbea8e73e2d74563e7a4df22b010331a0263a0fb380", 2),
    ("k34", "decide"): ("24930acc275a7e8d97ac7a940de97ba1d8db51867908150cb89b68dce5f02d36", 2),
    ("k34", "pairs"): ("16328660cb0e651ff64f8fa6de3e47e6ab9c57ef56b237025584fdc23433592a", 2),
    ("k5_doubled", "decide"): ("7daad9b206520986ca4f5f810ffe7f2d5af90f625abf0bd22700db5ff8299945", 1),
    ("k5_doubled", "pairs"): ("b6c32fa4758df35d4db0df5f9d127ecedfc261ce86e6ae6a0a27af9a37eee98f", 1),
    ("planar_multi", "decide"): ("d4ee261120ffafa58993d4d809961a0c63ad6ea0f8b377530728486e8c1fdfac", 0),
    ("planar_multi", "pairs"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65),
}


def report(name: str, command: str, tmp_path, capsys) -> tuple[str, int]:
    path = tmp_path / f"{name}.txt"
    path.write_text(INPUTS[name])
    code = main([command, str(path), "--verify"])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_report_bytes(name, command, tmp_path, capsys):
    assert report(name, command, tmp_path, capsys) == GOLDEN[(name, command)]


def test_every_input_is_pinned():
    assert set(GOLDEN) == {(name, c) for name in INPUTS for c in ("decide", "pairs")}


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# sha256 over each input's exit code and stdout, in the order of _decide_inputs
DECIDE_INPUTS_DIGEST = "240298204497173c955aaa252c2a05b36713bb7fe85455a5581187b555633f58"
# the same over the sweep's atlas then random pool, as listed (one graph twice)
SWEEP_INPUTS_DIGEST = "626a176a0115aa608b6eeeab3996f1e7421fad935337a92ee18604e947833c5a"


def _decide_inputs() -> list[str]:
    """The family members, then every graph of the random decide pools."""
    spec = importlib.util.spec_from_file_location("onecross_bench_workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    data = json.loads((BENCHMARKS / "expected.json").read_text(encoding="utf-8"))["decide"]
    texts = [workloads.edge_list_text(workloads.in_appearance_order(workloads.family(fam["name"])))
             for fam in data["families"]]
    for pool in ("random_planar", "random_nonplanar", "random_subdivided"):
        texts += [entry["graph6"] + "\n" for entry in data[pool]]
    return texts


def test_decide_bytes_on_the_benchmark_inputs(tmp_path, capsys):
    digest = hashlib.sha256()
    texts = _decide_inputs()
    path = tmp_path / "g.txt"
    for text in texts:
        path.write_text(text)
        code = main(["decide", str(path), "--verify"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert (len(texts), digest.hexdigest()) == (225, DECIDE_INPUTS_DIGEST)


def test_decide_bytes_on_a_long_subdivision_of_k6(tmp_path, capsys):
    # 54,000 rejected pairs, decided on the kernel K6 but reported per edge
    path = tmp_path / "k6s60.txt"
    path.write_text(write_edge_list(subdivided(families.complete_graph(6), [60] * 15)))
    code = main(["decide", str(path), "--verify"])
    out = capsys.readouterr().out
    assert (code, len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        2, 5_400_202, "5d9c1f1dfc13428138d533883875ad810c53f7beef87cb0bffeeda70555e8a3b"
    )


def test_pairs_bytes_on_the_sweep_inputs(tmp_path, capsys):
    data = json.loads((BENCHMARKS / "expected.json").read_text(encoding="utf-8"))["sweep"]
    texts = [entry["graph6"] + "\n" for entry in data["atlas"] + data["random"]]
    digest = hashlib.sha256()
    path = tmp_path / "g.txt"
    for text in texts:
        path.write_text(text)
        code = main(["pairs", str(path), "--verify"])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert (len(texts), digest.hexdigest()) == (269, SWEEP_INPUTS_DIGEST)
