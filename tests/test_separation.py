from __future__ import annotations

import random

import pytest

from onecross import families
from onecross.characterize import oracle_crossing_pair, vertex_disjoint_pairs
from onecross.errors import SearchBudgetExceeded
from onecross.graph import build, extend, make_pair
from onecross.planarity import test_planarity as run_planarity
from onecross.separation import separated_by_cycles, verify_separation_witness


def _edge(name_a, name_b):
    return families.siran_edge(name_a, name_b)


def test_siran_ux_wz_separated(siran):
    verdict = separated_by_cycles(siran, make_pair(_edge("u", "x"), _edge("w", "z")))
    assert verdict.separated
    assert verify_separation_witness(siran, make_pair(_edge("u", "x"), _edge("w", "z")), verdict.witness)
    # the witness cycles use the two augmenting edges uv and yz
    used = verdict.witness.cycle_e.edge_set() | verdict.witness.cycle_f.edge_set()
    assert {_edge("u", "v"), _edge("y", "z")} <= used


def test_siran_uy_wz_not_separated(siran):
    verdict = separated_by_cycles(siran, make_pair(_edge("u", "y"), _edge("w", "z")))
    assert not verdict.separated and verdict.witness is None


def test_k34_no_disjoint_pair_separated(k34):
    pairs = vertex_disjoint_pairs(k34)
    assert len(pairs) == 36
    for p in pairs:
        assert not separated_by_cycles(k34, p).separated


def test_adjacent_edges_never_separated(v8):
    p = make_pair(0, 1)  # rim edges sharing v1
    assert not separated_by_cycles(v8, p).separated


def test_witness_verification_rejects_overlap(siran):
    p = make_pair(_edge("u", "x"), _edge("w", "z"))
    w = separated_by_cycles(siran, p).witness
    from onecross.separation import SeparationWitness

    broken = SeparationWitness(w.cycle_e, w.cycle_e)
    assert not verify_separation_witness(siran, p, broken)


def test_monotone_under_supergraphs(siran):
    p = make_pair(_edge("u", "x"), _edge("w", "z"))
    assert separated_by_cycles(siran, p).separated
    bigger, _ = extend(siran, [6], [(0, 6), (6, 2)])
    assert separated_by_cycles(bigger, p).separated


def test_separated_pairs_are_never_crossing_pairs():
    # disjoint cycles cross an even number of times: separation refutes the oracle
    checked = 0
    for g in families.atlas_connected(7):
        if run_planarity(g).planar or g.n < 6:
            continue
        for p in vertex_disjoint_pairs(g):
            if separated_by_cycles(g, p).separated:
                assert oracle_crossing_pair(g, p) is None
                checked += 1
        if checked > 120:
            break
    assert checked > 50


def test_minimum_witness_needs_six_vertices():
    rng = random.Random(1)
    for g in families.atlas_connected(5):
        for p in vertex_disjoint_pairs(g):
            verdict = separated_by_cycles(g, p)
            if verdict.separated:
                total = len(verdict.witness.cycle_e.vertex_set() | verdict.witness.cycle_f.vertex_set())
                assert total >= 6
    # and six vertices do suffice
    two_triangles = build([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert separated_by_cycles(two_triangles, make_pair(0, 3)).separated


def test_budget_cancellable(k34):
    big, _ = extend(families.complete_bipartite(4, 4), [], [])
    with pytest.raises(SearchBudgetExceeded):
        for p in vertex_disjoint_pairs(big):
            separated_by_cycles(big, p, budget=3)


def test_witness_is_deterministic(siran):
    p = make_pair(_edge("u", "x"), _edge("w", "z"))
    a = separated_by_cycles(siran, p)
    b = separated_by_cycles(siran, p)
    assert a.witness == b.witness
