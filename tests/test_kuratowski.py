from __future__ import annotations

import random
from itertools import combinations, islice

import pytest

from onecross import families
from onecross.characterize import oracle_crossing_pair
from onecross.errors import EdgeNotInSubdivision, EnumerationBudgetExceeded
from onecross.graph import delete_edges, make_pair, restrict, subdivide_edge
from onecross.kuratowski import (
    branch_structure,
    enumerate_kuratowski,
    is_crossing_pair_in_kuratowski,
)
from onecross.planarity import parse_subdivision, test_planarity as run_planarity


# ---------------------------------------------------------------------------
# branch_structure
# ---------------------------------------------------------------------------


def test_k5_ten_single_edge_branches(k5):
    cert = run_planarity(k5).kuratowski
    bs = branch_structure(cert)
    assert len(cert.branches) == 10
    assert all(b.length == 1 for b in cert.branches)
    assert len(set(bs.values())) == 10


def test_v8_minus_chord_nine_branches(v8):
    g = delete_edges(v8, [9])  # v1v5
    cert = run_planarity(g).kuratowski
    assert cert.kind == "K33"
    assert set(cert.edges) == set(g.edge_ids())
    assert len(cert.branches) == 9
    bs = branch_structure(cert)
    assert set(bs) == set(g.edge_ids())


def test_subdivided_k33_branch_lengths(k33):
    g, _, halves = subdivide_edge(k33, 0)
    cert = run_planarity(g).kuratowski
    assert cert.kind == "K33"
    lengths = sorted(b.length for b in cert.branches)
    assert lengths == [1] * 8 + [2]


# ---------------------------------------------------------------------------
# is_crossing_pair_in_kuratowski
# ---------------------------------------------------------------------------


def _k33_edge(g, i, j):
    return next(e for e, p in g.edge_items() if set(p) == {i, j})


def test_k33_disjoint_branches_cross(k33):
    cert = run_planarity(k33).kuratowski
    bs = branch_structure(cert)
    # parts {0,1,2} and {3,4,5}: ux=(0,3), vy=(1,4) are disjoint
    assert is_crossing_pair_in_kuratowski(bs, _k33_edge(k33, 0, 3), _k33_edge(k33, 1, 4))


def test_k33_adjacent_branches_do_not_cross(k33):
    cert = run_planarity(k33).kuratowski
    bs = branch_structure(cert)
    assert not is_crossing_pair_in_kuratowski(bs, _k33_edge(k33, 0, 3), _k33_edge(k33, 0, 4))


def test_same_branch_never_crosses(k33):
    g, _, halves = subdivide_edge(k33, 0)
    cert = run_planarity(g).kuratowski
    bs = branch_structure(cert)
    assert not is_crossing_pair_in_kuratowski(bs, halves[0], halves[1])


def test_unknown_edge_rejected(k5):
    cert = run_planarity(k5).kuratowski
    bs = branch_structure(cert)
    with pytest.raises(EdgeNotInSubdivision):
        is_crossing_pair_in_kuratowski(bs, 0, 99)


def test_crossing_pair_implies_deletions_planar_but_not_conversely(k5):
    cert = run_planarity(k5).kuratowski
    bs = branch_structure(cert)
    ids = sorted(cert.edges)
    converse_fails = 0
    for e, f in combinations(ids, 2):
        if is_crossing_pair_in_kuratowski(bs, e, f):
            assert run_planarity(delete_edges(k5, [e])).planar
            assert run_planarity(delete_edges(k5, [f])).planar
        else:
            if run_planarity(delete_edges(k5, [e])).planar and run_planarity(
                delete_edges(k5, [f])
            ).planar:
                converse_fails += 1
    # deleting any single K5 edge is planar, so every non-crossing pair refutes the converse
    assert converse_fails > 0


def test_agrees_with_gadget_oracle_on_kuratowski_graphs(k5, k33):
    rng = random.Random(4)
    hosts = [k5, k33]
    for base in (k5, k33):
        for _ in range(10):
            g = base
            for _ in range(rng.randint(1, 3)):
                g, _, _ = subdivide_edge(g, rng.choice(g.edge_ids()))
            hosts.append(g)
    for h in hosts:
        cert = run_planarity(h).kuratowski
        assert set(cert.edges) == set(h.edge_ids())
        bs = branch_structure(cert)
        ids = sorted(h.edge_ids())
        for e, f in combinations(ids, 2):
            combinatorial = is_crossing_pair_in_kuratowski(bs, e, f)
            gadget = oracle_crossing_pair(h, make_pair(e, f))
            assert combinatorial == (gadget is not None), (h.edge_items(), e, f)


# ---------------------------------------------------------------------------
# enumerate_kuratowski
# ---------------------------------------------------------------------------


def test_planar_graph_has_no_kuratowski(q3):
    assert list(enumerate_kuratowski(q3)) == []


def test_siran_has_exactly_one_kuratowski(siran):
    certs = list(enumerate_kuratowski(siran))
    assert len(certs) == 1
    assert certs[0].kind == "K33"
    # it is the K3,3 itself: the two added edges are not part of it
    uv = families.siran_edge("u", "v")
    yz = families.siran_edge("y", "z")
    assert certs[0].edges == frozenset(set(siran.edge_ids()) - {uv, yz})


def test_k6_count_frozen_and_cross_checked(k6):
    certs = list(enumerate_kuratowski(k6))
    kinds = {}
    for c in certs:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    # regression value computed by this enumerator and confirmed by an
    # independent scan over all edge subsets of K6
    assert len(certs) == 76
    assert kinds == {"K5": 66, "K33": 10}


def test_k6_count_independent_subset_scan(k6):
    def is_subdivision(ids):
        sub = restrict(k6, ids)
        from onecross.graph import connected_components

        deg = {v: sub.degree(v) for v in sub.vertices}
        if any(d < 2 for d in deg.values()) or len(connected_components(sub)) > 1:
            return False
        bvs = [v for v, d in deg.items() if d != 2]
        ds = {deg[v] for v in bvs}
        if not ((ds == {4} and len(bvs) == 5) or (ds == {3} and len(bvs) == 6)):
            return False
        used: set[int] = set()
        pairs = []
        for bv in bvs:
            for e in sub.edges_at(bv):
                if e in used:
                    continue
                v, cur = bv, e
                while True:
                    used.add(cur)
                    v = sub.other_end(cur, v)
                    if deg[v] != 2:
                        break
                    cur = next(x for x in sub.edges_at(v) if x != cur)
                if v == bv:
                    return False
                pairs.append(frozenset((bv, v)))
        if len(used) != len(ids) or len(set(pairs)) != len(pairs):
            return False
        if len(bvs) == 5:
            return len(pairs) == 10
        for part_a in combinations(sorted(bvs), 3):
            part_b = [v for v in bvs if v not in part_a]
            if set(pairs) == {frozenset((a, b)) for a in part_a for b in part_b}:
                return True
        return False

    count = 0
    ids = k6.edge_ids()
    for r in range(9, 16):
        for subset in combinations(ids, r):
            if is_subdivision(subset):
                count += 1
    assert count == 76


def test_every_cert_is_nonplanar_and_distinct(v8, k6):
    for g in (v8, k6):
        seen = set()
        for cert in enumerate_kuratowski(g):
            assert cert.edges not in seen
            seen.add(cert.edges)
            cert.validate(g)
            assert not run_planarity(restrict(g, cert.edges)).planar


def test_parse_subdivision_reads_back_every_enumerated_subdivision():
    # parsing walks the chains of the edge set alone; enumeration chose the
    # branch vertices and parts first and joined them by paths: both must give
    # the same branches, and so the same branch vertices and parts
    count = 0
    for g in families.atlas_connected(7):
        for cert in enumerate_kuratowski(g):
            parsed = parse_subdivision(g, cert.edges)
            assert parsed.kind == cert.kind
            assert (parsed.branch_vertices, parsed.parts) == (cert.branch_vertices, cert.parts)
            assert {b.edge_set() for b in parsed.branches} == {b.edge_set() for b in cert.branches}
            count += 1
    assert count == 10850


def test_limit_stops_enumeration(k6):
    # the enumeration is lazy: a caller takes what it needs and the rest waits
    certs = enumerate_kuratowski(k6)
    assert len(list(islice(certs, 5))) == 5
    assert next(certs).edges


def test_vertex_gate():
    big = families.complete_bipartite(7, 7)
    with pytest.raises(EnumerationBudgetExceeded):
        list(enumerate_kuratowski(big))


def test_parallel_edges_create_distinct_certs():
    from onecross.graph import extend

    k5 = families.complete_graph(5)
    doubled, _ = extend(k5, [], [k5.endpoints(0)])
    base = len(list(enumerate_kuratowski(k5)))
    more = len(list(enumerate_kuratowski(doubled)))
    assert more > base
