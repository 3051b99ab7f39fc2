"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The full sweep takes a few minutes; criterion 1 dominates.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from networkx.generators.atlas import graph_atlas_g

from onecross import families
from onecross.bridges import Cofacial, Detached, detaching_cycle_vv, overlap
from onecross.bruteforce import AT_LEAST_TWO as BRUTE_TWO
from onecross.bruteforce import exhaustive_crossing_le_1
from onecross.characterize import (
    AT_LEAST_TWO,
    EXACTLY_ONE,
    _draw_across,
    _draw_by_sides,
    build_one_drawing_constructive,
    check_equivalence,
    crossing_number_le_1,
    oracle_crossing_pair,
    vertex_disjoint_pairs,
)
from onecross.graph import delete_edges, make_pair
from onecross.kuratowski import branch_structure, enumerate_kuratowski, is_crossing_pair_in_kuratowski
from onecross.planarity import face_with_vertices, test_planarity as run_planarity
from onecross.separation import separated_by_cycles
from helpers import nx_to_multigraph, potential_crossing_pairs, random_nonplanar_graph, random_planar_graph


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. three-way equivalence sweep over all connected nonplanar graphs, n <= 7
# ---------------------------------------------------------------------------


def test_criterion_1_equivalence_sweep():
    graphs = [g for g in families.atlas_connected(7) if not run_planarity(g).planar]

    pairs = violations = 0
    for g in graphs:
        _certs, reports = check_equivalence(g)
        for report in reports:
            pairs += 1
            violations += not report.consistent
    _report(
        1,
        violations == 0 and len(graphs) == 221 and pairs == 10065,
        f"{len(graphs)} connected nonplanar graphs (n<=7), {pairs} vertex-disjoint "
        f"pairs, {violations} inconsistencies",
    )


# ---------------------------------------------------------------------------
# 2. V8 fixture
# ---------------------------------------------------------------------------


V8_CROSSING_PAIRS = [
    (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6),
    (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7),
]


def test_criterion_2_v8_fixture():
    v8 = families.v8()
    got = [
        (p.e, p.f)
        for p in vertex_disjoint_pairs(v8)
        if oracle_crossing_pair(v8, p) is not None
    ]
    fig1_pair_present = (0, 4) in got
    chord = 9  # v1v5
    no_v1v5 = all(chord not in pair for pair in got)
    cert = run_planarity(delete_edges(v8, [chord])).kuratowski
    k33_certified = (
        cert is not None
        and cert.kind == "K33"
        and set(cert.edges) == set(delete_edges(v8, [chord]).edge_ids())
    )
    _report(
        2,
        got == V8_CROSSING_PAIRS and fig1_pair_present and no_v1v5 and k33_certified,
        f"oracle pair list {got} matches frozen value; v0v1 x v4v5 present; "
        f"no pair uses v1v5; V8-v1v5 certified as a K3,3 subdivision",
    )


# ---------------------------------------------------------------------------
# 3. Siran fixture: K3,3 + {uv, yz}
# ---------------------------------------------------------------------------


def test_criterion_3_siran_fixture():
    g = families.siran_graph()
    ux = families.siran_edge("u", "x")
    wz = families.siran_edge("w", "z")
    uy = families.siran_edge("u", "y")

    certs = list(enumerate_kuratowski(g))
    pair_a = make_pair(ux, wz)
    pair_b = make_pair(uy, wz)

    a_separated = separated_by_cycles(g, pair_a).separated
    a_in_every = all(
        {pair_a.e, pair_a.f} <= set(c.edges)
        and is_crossing_pair_in_kuratowski(branch_structure(c), pair_a.e, pair_a.f)
        for c in certs
    )
    a_not_crossing = oracle_crossing_pair(g, pair_a) is None

    b_not_separated = not separated_by_cycles(g, pair_b).separated
    b_crossing = oracle_crossing_pair(g, pair_b) is not None

    _report(
        3,
        a_separated and a_in_every and a_not_crossing and b_not_separated and b_crossing,
        "ux,wz separated + crossing pair of every Kuratowski subgraph + not a "
        "crossing pair; uy,wz not separated + crossing pair",
    )


# ---------------------------------------------------------------------------
# 4. K3,4 fixture
# ---------------------------------------------------------------------------


def test_criterion_4_k34_fixture():
    k34 = families.complete_bipartite(3, 4)
    decision = crossing_number_le_1(k34)
    pairs = vertex_disjoint_pairs(k34)
    none_separated = all(not separated_by_cycles(k34, p).separated for p in pairs)
    brute_kind, _ = exhaustive_crossing_le_1(k34)
    _report(
        4,
        decision.kind == AT_LEAST_TWO and none_separated and brute_kind == BRUTE_TWO,
        f"decision {decision.kind}; {len(pairs)} disjoint pairs all unseparated; "
        "exhaustive one-crossing placements confirm cr >= 2",
    )


# ---------------------------------------------------------------------------
# 5. K6 analysis
# ---------------------------------------------------------------------------


def test_criterion_5_k6_analysis():
    k6 = families.complete_graph(6)
    no_potential = potential_crossing_pairs(delete_edges(k6, [0])) == []
    ids = k6.edge_ids()
    all_one = all(
        crossing_number_le_1(delete_edges(k6, [e, f])).kind == EXACTLY_ONE
        for e, f in combinations(ids, 2)
    )
    _report(
        5,
        no_potential and all_one,
        "K6-e has no potential crossing pair; all 105 two-edge deletions decide "
        "exactly-one",
    )


# ---------------------------------------------------------------------------
# 6. Constructive builder vs gadget oracle on random nonplanar graphs
# ---------------------------------------------------------------------------


def test_criterion_6_constructive_oracle_agreement():
    rng = random.Random(20260808)
    graphs_used = built = drawn_across = pairs_checked = 0
    while graphs_used < 200:
        g = random_nonplanar_graph(rng, 10)
        _certs, reports = check_equivalence(g)
        eligible = []
        for report in reports:
            pairs_checked += 1
            holds = report.cond_iii.holds
            assert holds == (report.drawing is not None), "oracle and condition (iii) disagree"
            if holds:
                eligible.append(report.pair)
        if not eligible:
            continue
        graphs_used += 1
        for pair in eligible:
            build_one_drawing_constructive(g, pair).validate(g)
            built += 1
            # and by each route on its own: e across f where it fits, and
            # the two sides of the detaching cycle on every pair
            emb = run_planarity(delete_edges(g, [pair.e])).embedding
            across = _draw_across(g, pair, emb)
            if across is not None:
                across.validate(g)
                drawn_across += 1
            _draw_by_sides(g, pair, emb).validate(g)
    _report(
        6,
        graphs_used == 200 and drawn_across > 0 and built > drawn_across,
        f"200 graphs, {pairs_checked} pairs swept, {built} constructive drawings "
        f"built and validated, {drawn_across} also drawn across f, all also by sides, "
        "zero disagreements",
    )


# ---------------------------------------------------------------------------
# 7. Tutte machinery on random planar graphs
# ---------------------------------------------------------------------------


def test_criterion_7_detaching_certificate_duality():
    rng = random.Random(41705)
    cofacial = detached = 0
    for _ in range(500):
        g = random_planar_graph(rng, rng.randint(5, 9))
        vs = sorted(g.vertices)
        for x, y in combinations(vs, 2):
            verdict = detaching_cycle_vv(g, x, y)
            if isinstance(verdict, Cofacial):
                cofacial += 1
                if g.are_adjacent(x, y) or face_with_vertices(verdict.embedding, [x, y]) is not None:
                    continue
                _report(7, False, f"cofacial claim without a common face for {x},{y}")
            elif isinstance(verdict, Detached):
                detached += 1
                ok = (
                    x in verdict.bridge_x.nucleus
                    and y in verdict.bridge_y.nucleus
                    and overlap(verdict.bridge_x, verdict.bridge_y, verdict.cycle).overlapping
                )
                if not ok:
                    _report(7, False, f"detached certificate failed re-verification for {x},{y}")
            else:  # pragma: no cover
                _report(7, False, "no arm returned")
    _report(
        7,
        cofacial > 0 and detached > 0,
        f"500 planar graphs, every pair returned exactly one verified arm "
        f"({cofacial} cofacial, {detached} detached)",
    )


# ---------------------------------------------------------------------------
# 8. Decision agrees with the exhaustive-drawing brute force
# ---------------------------------------------------------------------------


def test_criterion_8_bruteforce_agreement():
    corpus = []
    for G in graph_atlas_g():
        n, m = G.number_of_nodes(), G.number_of_edges()
        if 1 <= n <= 6 and m <= 10:
            corpus.append(nx_to_multigraph(G))
    kinds = {"planar": "planar", "one": "one", "two_plus": "two_plus"}
    for g in corpus:
        brute_kind, _ = exhaustive_crossing_le_1(g)
        mine = crossing_number_le_1(g).kind
        if kinds[brute_kind] != mine:
            _report(8, False, f"disagreement on {g.edge_items()}: {brute_kind} vs {mine}")
    _report(8, True, f"{len(corpus)} graphs (n<=6, m<=10) agree with the brute force")
