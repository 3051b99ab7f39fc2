from __future__ import annotations

import random
from itertools import islice

import pytest

from onecross import families
from onecross.bridges import (
    Cofacial,
    Detached,
    decompose,
    detaching_cycle_ve,
    detaching_cycle_vv,
    overlap,
    side_of_bridge,
)
from onecross.bruteforce import all_planar_rotations, rotation_count
from onecross.errors import NonPlanarInput, SameBridge
from onecross.graph import PathInGraph, all_cycles, build, delete_edges, extend
from onecross.planarity import face_with_vertices, test_planarity as run_planarity
from helpers import cycle_from_vertices, random_planar_graph


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_cycle_alone_has_no_bridges():
    g = families.cycle_graph(6)
    c = cycle_from_vertices(g, range(6))
    assert decompose(g, c) == []


def test_v8_four_chord_bridges(v8):
    c = cycle_from_vertices(v8, range(8))
    bs = decompose(v8, c)
    assert len(bs) == 4
    assert all(b.is_chord and not b.nucleus and len(b.attachments) == 2 for b in bs)
    assert [sorted(b.attachments) for b in bs] == [[0, 4], [1, 5], [2, 6], [3, 7]]


def test_k4_single_component_bridge(k4):
    tri = cycle_from_vertices(k4, [0, 1, 2])
    bs = decompose(k4, tri)
    assert len(bs) == 1
    assert bs[0].nucleus == frozenset({3})
    assert bs[0].attachments == frozenset({0, 1, 2})
    assert not bs[0].is_chord


def test_partition_property_random():
    rng = random.Random(11)
    for _ in range(20):
        g = random_planar_graph(rng, rng.randint(4, 8))
        for c in list(all_cycles(g))[:5]:
            bs = decompose(g, c)
            union: set[int] = set()
            for b in bs:
                assert not (b.edges & union)
                union |= b.edges
            assert union == set(g.edge_ids()) - c.edge_set()


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------


def test_v8_chords_interleave(v8):
    c = cycle_from_vertices(v8, range(8))
    bs = decompose(v8, c)
    verdict = overlap(bs[0], bs[1], c)
    assert verdict.overlapping and verdict.kind == "interleaved"
    assert verdict.witness == (0, 1, 4, 5)


def test_c6_far_chords_do_not_overlap():
    g, _ = extend(families.cycle_graph(6), [], [(0, 2), (3, 5)])
    c = cycle_from_vertices(g, range(6))
    b1, b2 = decompose(g, c)
    assert not overlap(b1, b2, c).overlapping
    assert not overlap(b2, b1, c).overlapping


def test_three_common_attachments_overlap():
    # two tripods on the same three cycle vertices
    g = build([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
               (6, 0), (6, 2), (6, 4), (7, 0), (7, 2), (7, 4)])
    c = cycle_from_vertices(g, range(6))
    b1, b2 = decompose(g, c)
    verdict = overlap(b1, b2, c)
    assert verdict.overlapping and verdict.kind == "three_common"
    assert verdict.witness == (0, 2, 4)


def test_overlap_symmetric_and_same_bridge_rejected(v8):
    c = cycle_from_vertices(v8, range(8))
    bs = decompose(v8, c)
    for i in range(4):
        for j in range(4):
            if i == j:
                with pytest.raises(SameBridge):
                    overlap(bs[i], bs[j], c)
            else:
                assert overlap(bs[i], bs[j], c).overlapping == overlap(bs[j], bs[i], c).overlapping


def test_witness_vertices_lie_on_cycle(v8):
    c = cycle_from_vertices(v8, range(8))
    bs = decompose(v8, c)
    ring = c.vertices[:-1]
    pos = {v: i for i, v in enumerate(ring)}
    v = overlap(bs[0], bs[2], c)
    assert v.overlapping
    a, x, b, y = v.witness
    assert a in bs[0].attachments and b in bs[0].attachments
    assert x in bs[2].attachments and y in bs[2].attachments
    order = sorted((pos[a], pos[x], pos[b], pos[y]))
    ring4 = [pos[a], pos[x], pos[b], pos[y]]
    rot = ring4.index(min(ring4))
    assert ring4[rot:] + ring4[:rot] == order


# ---------------------------------------------------------------------------
# Observation: overlapping bridges in planar embeddings sit on distinct sides
# ---------------------------------------------------------------------------


def test_overlapping_bridges_on_distinct_sides():
    checked = 0
    for g in families.atlas_connected(6):
        if g.m < 4 or not run_planarity(g).planar or rotation_count(g) > 3000:
            continue
        cycles = list(all_cycles(g))[:4]
        if not cycles:
            continue
        for rs in all_planar_rotations(g):
            for c in cycles:
                bs = decompose(g, c)
                for i in range(len(bs)):
                    for j in range(i + 1, len(bs)):
                        if overlap(bs[i], bs[j], c).overlapping:
                            si = side_of_bridge(rs, c, bs[i])
                            sj = side_of_bridge(rs, c, bs[j])
                            assert si != sj
                            checked += 1
        if checked > 400:
            break
    assert checked > 100


def test_two_edge_cycle_puts_both_bridges_on_one_side():
    # two paths 0-2-1 and 0-3-1 beside the parallel pair (0,1): edges 0 and 1
    g = build([(0, 1), (0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
    c = PathInGraph((0, 1, 0), (0, 1))
    emb = run_planarity(g).embedding
    sides = [side_of_bridge(emb, c, b) for b in decompose(g, c)]
    assert len(sides) == 2 and sides[0] == sides[1] in (1, -1)


def _face_flood(r, cycle_edges: frozenset[int]) -> dict[tuple[int, int], tuple[int, int]]:
    """Each dart (v, e) of r mapped to a representative of its region: the
    darts of one face share a region, and so do the two darts of an edge off
    the cycle, so the flood never crosses a cycle edge."""
    parent = {(v, e): (v, e) for v, rot in r.rotation.items() for e in rot}

    def find(d):
        while parent[d] != d:
            d = parent[d]
        return d

    for v, e in list(parent):
        w = r.graph.other_end(e, v)
        rot = r.rotation[w]
        parent[find((v, e))] = find((w, rot[(rot.index(e) + 1) % len(rot)]))
        if e not in cycle_edges:
            parent[find((v, e))] = find((w, e))
    return {d: find(d) for d in parent}


def test_bridge_sides_match_a_face_flood_on_multigraphs():
    # two bridges lie on one side of an embedded cycle exactly when the faces
    # their edges border are joined without crossing a cycle edge
    rng = random.Random(5)
    cases = two_edge = 0
    for _ in range(400):
        g = random_planar_graph(rng, rng.randint(3, 7))
        doubled = rng.sample(g.edge_ids(), rng.randint(1, g.m))
        g, _ = extend(g, [], [g.endpoints(e) for e in doubled])
        emb = run_planarity(g).embedding
        for c in islice(all_cycles(g), 10):
            region = _face_flood(emb, c.edge_set())
            by_side: dict[int, set] = {}
            by_region: dict[tuple[int, int], set] = {}
            for b in decompose(g, c):
                e = min(b.edges)
                by_side.setdefault(side_of_bridge(emb, c, b), set()).add(b)
                by_region.setdefault(region[(g.endpoints(e)[0], e)], set()).add(b)
            assert {frozenset(s) for s in by_side.values()} == {frozenset(s) for s in by_region.values()}
            cases += 1
            two_edge += c.length == 2
    assert cases > 3000 and two_edge > 400


def test_overlapping_bridges_plus_link_nonplanar():
    # Observation part two: C u B1 u B2 plus an edge joining the nuclei
    rng = random.Random(3)
    found = 0
    for _ in range(200):
        g = random_planar_graph(rng, rng.randint(6, 9))
        for c in list(all_cycles(g))[:8]:
            bs = [b for b in decompose(g, c) if b.nucleus]
            for i in range(len(bs)):
                for j in range(i + 1, len(bs)):
                    if not overlap(bs[i], bs[j], c).overlapping:
                        continue
                    u1 = min(bs[i].nucleus)
                    u2 = min(bs[j].nucleus)
                    from onecross.graph import restrict

                    core = restrict(g, c.edge_set() | bs[i].edges | bs[j].edges)
                    linked, _ = extend(core, [], [(u1, u2)])
                    assert not run_planarity(linked).planar
                    found += 1
        if found >= 25:
            break
    assert found >= 25


# ---------------------------------------------------------------------------
# detaching cycles: vertex-vertex
# ---------------------------------------------------------------------------


def test_tree_always_cofacial():
    g = families.path_graph(6)
    verdict = detaching_cycle_vv(g, 0, 5)
    assert isinstance(verdict, Cofacial)
    assert face_with_vertices(verdict.embedding, [0, 5]) is not None


def test_k4_minus_edge_cofacial(k4):
    g = delete_edges(k4, [0])  # removes (0,1)
    verdict = detaching_cycle_vv(g, 0, 1)
    assert isinstance(verdict, Cofacial)


def test_q3_antipodal_detached(q3):
    verdict = detaching_cycle_vv(q3, 0, 7)
    assert isinstance(verdict, Detached)
    assert 0 in verdict.bridge_x.nucleus and 7 in verdict.bridge_y.nucleus
    assert overlap(verdict.bridge_x, verdict.bridge_y, verdict.cycle).overlapping
    # brute force: no planar rotation of Q3 makes 0 and 7 cofacial
    for rs in all_planar_rotations(q3):
        assert face_with_vertices(rs, [0, 7]) is None


def test_adjacent_vertices_trivially_cofacial(q3):
    verdict = detaching_cycle_vv(q3, 0, 1)
    assert isinstance(verdict, Cofacial)


def test_nonplanar_input_rejected(k5):
    with pytest.raises(NonPlanarInput):
        detaching_cycle_vv(k5, 0, 1)


def test_exactly_one_arm_and_verification_random():
    rng = random.Random(17)
    cofacial = detached = 0
    for _ in range(60):
        g = random_planar_graph(rng, rng.randint(4, 8))
        vs = sorted(g.vertices)
        x, y = rng.sample(vs, 2)
        verdict = detaching_cycle_vv(g, x, y)
        if isinstance(verdict, Cofacial):
            cofacial += 1
        else:
            detached += 1
            assert x in verdict.bridge_x.nucleus
            assert y in verdict.bridge_y.nucleus
    assert cofacial and detached


# ---------------------------------------------------------------------------
# detaching cycles: vertex-edge
# ---------------------------------------------------------------------------


def test_pendant_vertex_cofacial_with_far_edge():
    g = build([(0, 1), (1, 2), (2, 0), (0, 3)])
    far = next(e for e, p in g.edge_items() if set(p) == {1, 2})
    verdict = detaching_cycle_ve(g, 3, far)
    assert isinstance(verdict, Cofacial)


def test_q3_vertex_versus_far_edge_detached(q3):
    far = next(e for e, p in q3.edge_items() if set(p) == {6, 7})
    verdict = detaching_cycle_ve(q3, 0, far)
    assert isinstance(verdict, Detached)
    assert far in verdict.bridge_y.edges
    assert 0 in verdict.bridge_x.nucleus
    # brute force: no planar rotation has vertex 0 on a face carrying edge (6,7)
    from onecross.planarity import face_with_vertex_and_edge

    for rs in all_planar_rotations(q3):
        assert face_with_vertex_and_edge(rs, 0, far) is None


def test_ve_agrees_with_vv_on_subdivision():
    # the two code paths must give the same arm on random planar graphs
    from onecross.graph import subdivide_edge

    rng = random.Random(23)
    agreements = 0
    for _ in range(50):
        g = random_planar_graph(rng, rng.randint(5, 8))
        edges = sorted(g.edge_ids())
        f = rng.choice(edges)
        a, b = g.endpoints(f)
        candidates = [v for v in sorted(g.vertices) if v not in (a, b)]
        if not candidates:
            continue
        x = rng.choice(candidates)
        via_ve = detaching_cycle_ve(g, x, f)
        g2, m, _ = subdivide_edge(g, f)
        via_vv = detaching_cycle_vv(g2, x, m)
        assert isinstance(via_ve, Cofacial) == isinstance(via_vv, Cofacial)
        agreements += 1
    assert agreements >= 40


def test_ve_endpoint_is_trivially_cofacial(q3):
    verdict = detaching_cycle_ve(q3, 0, q3.edges_at(0)[0])
    assert isinstance(verdict, Cofacial)


def test_decompose_general_subgraph(v8):
    # H = a path, not a cycle: decomposition still partitions the rest
    h = PathInGraph((0, 1, 2, 3), (0, 1, 2))  # path v0..v3
    bs = decompose(v8, h)
    union = set()
    for b in bs:
        union |= b.edges
    assert union == set(v8.edge_ids()) - {0, 1, 2}
