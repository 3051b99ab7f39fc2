from __future__ import annotations

import random

import pytest

from onecross import bruteforce, families
from onecross.bruteforce import all_planar_rotations, exhaustive_planar, rotation_count
from onecross.errors import NotPlanarEmbedding
from onecross.graph import Multigraph, build, delete_edges, extend, restrict, simplify
from onecross.planarity import (
    cycle_face_walk,
    embed_with_outer_cycle,
    embedding_add_edge_in_face,
    embedding_delete_edges,
    embedding_smooth_vertex,
    embedding_subdivide_edge,
    _extract_kuratowski,
    test_planarity as run_planarity,
)
from helpers import (
    cycle_from_vertices,
    decorated_subdivision,
    edge_by_edge_kuratowski,
    random_planar_graph,
    subdivided,
)


# ---------------------------------------------------------------------------
# test_planarity
# ---------------------------------------------------------------------------


def test_decision_is_one_left_right_test(k6, lr_tests):
    assert not run_planarity(k6).planar
    assert len(lr_tests) == 1


def test_kuratowski_built_on_first_read_then_cached(k6, lr_tests):
    res = run_planarity(k6)
    decided = len(lr_tests)
    cert = res.kuratowski
    cert.validate(k6)
    extracted = len(lr_tests)
    assert extracted > decided
    assert res.kuratowski is cert
    assert len(lr_tests) == extracted


def test_dropped_decision_is_tested_again(lr_tests):
    g = families.complete_graph(6)
    assert not run_planarity(g).planar
    assert not run_planarity(g).planar
    assert len(lr_tests) == 2


def test_equal_graph_gets_its_own_test(lr_tests):
    g, twin = families.complete_graph(6), families.complete_graph(6)
    assert g == twin
    res = run_planarity(g)
    assert run_planarity(twin) is not res
    assert len(lr_tests) == 2


def test_k4_planar_four_faces(k4):
    res = run_planarity(k4)
    assert res.planar
    walks = res.embedding.face_walks()
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)


def test_v8_nonplanar_k33_certificate(v8):
    res = run_planarity(v8)
    assert not res.planar
    assert res.kuratowski.kind == "K33"
    res.kuratowski.validate(v8)


def test_k5_certificate_is_k5(k5):
    res = run_planarity(k5)
    assert not res.planar
    cert = res.kuratowski
    assert cert.kind == "K5"
    assert set(cert.edges) == set(k5.edge_ids())
    assert all(b.length == 1 for b in cert.branches)


def test_certificate_self_nonplanar(v8, k5, k34):
    for g in (v8, k5, k34):
        cert = run_planarity(g).kuratowski
        sub = restrict(g, cert.edges)
        assert not run_planarity(sub).planar


def test_parallel_edges_do_not_change_decision(v8, k4):
    for g, planar in ((k4, True), (v8, False)):
        doubled, _ = extend(g, [], [g.endpoints(e) for e in g.edge_ids()[:3]])
        assert run_planarity(doubled).planar == planar


def test_parallel_edges_appear_in_embedding():
    g = build([(0, 1), (0, 1), (1, 2), (2, 0)])
    res = run_planarity(g)
    assert res.planar
    assert sorted(res.embedding.rotation[0]) == [0, 1, 3]
    assert res.embedding.is_planar_embedding()


def test_disconnected_graphs():
    g = build([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    res = run_planarity(g)
    assert res.planar
    # two walks per triangle, one each side: Euler holds per component
    assert len(res.embedding.face_walks()) == 4
    assert res.embedding.is_planar_embedding()


def test_empty_and_edgeless():
    assert run_planarity(build([], vertices=[])).planar
    res = run_planarity(build([], vertices=[0, 1, 2]))
    assert res.planar
    # an isolated vertex's one face has no boundary walk
    assert res.embedding.face_walks() == ()
    assert res.embedding.is_planar_embedding()


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def test_triangle_two_faces():
    g = families.cycle_graph(3)
    walks = run_planarity(g).embedding.face_walks()
    assert len(walks) == 2
    assert all({e for _, e in w} == {0, 1, 2} for w in walks)


def test_cube_six_quadrilateral_faces(q3):
    walks = run_planarity(q3).embedding.face_walks()
    assert len(walks) == 6
    assert all(len(w) == 4 for w in walks)


def test_faces_reject_nonplanar_rotation():
    # K5 with an arbitrary rotation cannot be planar
    from onecross.planarity import RotationSystem, face_with_vertices

    k5 = families.complete_graph(5)
    rot = {v: tuple(k5.edges_at(v)) for v in k5.vertices}
    rs = RotationSystem(k5, rot)
    assert not rs.is_planar_embedding()
    with pytest.raises(NotPlanarEmbedding):
        face_with_vertices(rs, [0])


def test_every_dart_on_exactly_one_face(v8):
    g = delete_edges(v8, [4])
    emb = run_planarity(g).embedding
    darts = [(v, e) for v in g.vertices for e in g.edges_at(v)]
    seen = [d for w in emb.face_walks() for d in w]
    assert sorted(seen) == sorted(darts)


# ---------------------------------------------------------------------------
# embed_with_outer_cycle
# ---------------------------------------------------------------------------


def test_k4_any_triangle_bounds_a_face(k4):
    for tri_vs in ([0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
        tri = cycle_from_vertices(k4, tri_vs)
        emb = embed_with_outer_cycle(k4, tri)
        assert emb is not None
        assert cycle_face_walk(emb, tri) is not None


def test_v8_minus_rim_hamiltonian_impossible(v8):
    g = delete_edges(v8, [4])
    ham = cycle_from_vertices(g, [1, 2, 3, 4, 0, 7, 6, 5])
    assert embed_with_outer_cycle(g, ham) is None
    # brute confirmation on the 11-edge graph
    assert not any(cycle_face_walk(r, ham) is not None for r in all_planar_rotations(g))


def test_cycle_graph_unique_embedding():
    g = families.cycle_graph(6)
    c = cycle_from_vertices(g, list(range(6)))
    emb = embed_with_outer_cycle(g, c)
    assert emb is not None and len(emb.face_walks()) == 2


def test_outer_cycle_with_confined_bridges():
    # pendant tree + parallel chord + nested bridge, all confined to one c-edge
    g = build(
        [(0, 1), (1, 2), (2, 3), (3, 0),  # C
         (0, 1),                           # parallel chord
         (1, 4), (4, 2),                   # bridge over edge (1,2)
         (2, 5), (5, 6),                   # pendant tree at 2
         (7, 8)]                           # free component
    )
    c = cycle_from_vertices(g, [0, 1, 2, 3])
    emb = embed_with_outer_cycle(g, c)
    assert emb is not None
    assert cycle_face_walk(emb, c) is not None
    assert emb.graph == g


def _assert_face_at_corner(emb, c):
    """At each vertex of c the rotation starts and ends with its two edges of
    c, and the walk of c's face leaves the vertex by the first one."""
    walk = cycle_face_walk(emb, c)
    for i, q in enumerate(c.vertices[:-1]):
        rot = emb.rotation[q]
        assert {rot[0], rot[-1]} == {c.edges[i - 1], c.edges[i]}
        assert (q, rot[0]) in walk


def test_outer_cycle_matches_bruteforce_on_small_graphs():
    rng = random.Random(7)
    graphs = [g for g in families.atlas_connected(5) if g.m >= 3]
    rng.shuffle(graphs)
    checked = 0
    for g in graphs[:40]:
        if not run_planarity(g).planar or rotation_count(g) > 40_000:
            continue
        from onecross.graph import all_cycles

        for c in list(all_cycles(g))[:6]:
            mine = embed_with_outer_cycle(g, c)
            brute = any(cycle_face_walk(r, c) is not None for r in all_planar_rotations(g))
            assert (mine is not None) == brute, (g.edge_items(), c.vertices)
            if mine is not None:
                _assert_face_at_corner(mine, c)
            checked += 1
    assert checked > 50


def test_outer_cycle_is_one_left_right_test(v8, lr_tests):
    g = build([(0, 1), (1, 2), (2, 3), (3, 0), (0, 1), (1, 4), (4, 2), (2, 5), (5, 6), (7, 8)])
    assert embed_with_outer_cycle(g, cycle_from_vertices(g, [0, 1, 2, 3])) is not None
    assert len(lr_tests) == 1
    g = delete_edges(v8, [4])
    assert embed_with_outer_cycle(g, cycle_from_vertices(g, [1, 2, 3, 4, 0, 7, 6, 5])) is None
    assert len(lr_tests) == 2


def _cycle_with_hanging_parts(rng: random.Random) -> tuple[Multigraph, int]:
    """A k-cycle on 0..k-1 plus chords (maybe parallel), hanging blocks, pendants, bridges, free triangles."""
    k = rng.randint(2, 5)
    edges = [(i, (i + 1) % k) for i in range(k)]
    nxt = k
    for _ in range(rng.randint(2, 5)):
        v = rng.randrange(k)
        other = rng.choice([u for u in range(k) if u != v])
        kind = rng.choice(["chord", "chord", "block", "pendant", "bridge", "bridge", "free"])
        if kind == "chord":
            edges.append((v, other))
        elif kind == "block":
            edges += [(v, nxt), (nxt, nxt + 1), (nxt + 1, v)]
        elif kind == "pendant":
            edges.append((v, nxt))
        elif kind == "bridge":
            edges += [(v, nxt), (nxt, other)]
        else:
            edges += [(nxt, nxt + 1), (nxt + 1, nxt + 2), (nxt + 2, nxt)]
        nxt += 3
    return build(edges), k


def test_outer_cycle_matches_bruteforce_on_multigraphs_with_hanging_parts():
    rng = random.Random(3)
    verdicts = []
    for _ in range(300):
        g, k = _cycle_with_hanging_parts(rng)
        if rotation_count(g) > 40_000:
            continue
        c = cycle_from_vertices(g, list(range(k)))
        mine = embed_with_outer_cycle(g, c)
        brute = any(cycle_face_walk(r, c) is not None for r in all_planar_rotations(g))
        assert (mine is not None) == brute, (g.edge_items(), c.vertices)
        if mine is not None:
            assert mine.graph == g and cycle_face_walk(mine, c) is not None
            _assert_face_at_corner(mine, c)
        verdicts.append(brute)
    assert verdicts.count(True) > 200 and verdicts.count(False) >= 10


# ---------------------------------------------------------------------------
# decision agrees with the brute-force oracle
# ---------------------------------------------------------------------------


def test_decision_matches_bruteforce_atlas_to_six():
    for g in families.atlas_connected(6):
        if rotation_count(g) > 200_000:
            continue
        assert run_planarity(g).planar == exhaustive_planar(g), g.edge_items()


def test_decision_matches_bruteforce_on_seven_vertex_samples():
    rng = random.Random(2024)
    graphs = [g for g in families.atlas_connected(7) if g.n == 7]
    rng.shuffle(graphs)
    checked = 0
    for g in graphs:
        if rotation_count(g) > 150_000:
            continue
        assert run_planarity(g).planar == exhaustive_planar(g)
        checked += 1
        if checked >= 60:
            break
    assert checked >= 40


@pytest.mark.parametrize(
    "g", [families.complete_graph(4), families.cube_graph(), families.complete_bipartite(3, 3)],
    ids=["K4", "Q3", "K3,3"],
)
def test_bruteforce_planarity_search_skips_mirror_images(g):
    # mirroring keeps planarity and exhaustive_planar visits one system of
    # each mirror pair: half of all systems, and half of the planar ones
    comps = bruteforce._component_data(g)
    half = list(bruteforce._iter_rotations(g, None, mirror_free=True))
    assert 2 * len(half) == rotation_count(g)
    planar_half = sum(bruteforce._rotation_is_planar(g, r, comps) for r in half)
    assert 2 * planar_half == sum(1 for _ in all_planar_rotations(g))


def test_decision_equals_simplification_decision():
    rng = random.Random(5)
    for g in [families.v8(), families.complete_graph(5), families.cube_graph()]:
        extra = [g.endpoints(e) for e in rng.sample(g.edge_ids(), 3)]
        doubled, _ = extend(g, [], extra)
        gs, _ = simplify(doubled)
        assert run_planarity(doubled).planar == run_planarity(gs).planar


# ---------------------------------------------------------------------------
# embedding surgery
# ---------------------------------------------------------------------------


def test_subdivide_smooth_roundtrip(q3):
    emb = run_planarity(q3).embedding
    e = 5
    m = q3.max_vertex() + 1
    h1, h2 = q3.max_edge_id() + 1, q3.max_edge_id() + 2
    divided = embedding_subdivide_edge(emb, e, m, (h1, h2))
    assert divided.is_planar_embedding()
    back = embedding_smooth_vertex(divided, m, e)
    assert back.is_planar_embedding()
    assert back.graph == q3
    assert back.rotation == emb.rotation


def test_add_edge_in_face_splits_face(k4):
    emb = run_planarity(k4).embedding
    walk = emb.face_walks()[0]
    p, q = walk[0][0], walk[1][0]
    before = len(emb.face_walks())
    new_id = k4.max_edge_id() + 1
    out = embedding_add_edge_in_face(emb, walk, p, q, new_id)
    assert out.is_planar_embedding()
    assert len(out.face_walks()) == before + 1


def test_delete_edges_from_embedding(v8):
    g = delete_edges(v8, [4])
    emb = run_planarity(g).embedding
    smaller = embedding_delete_edges(emb, [0, 8])
    assert smaller.is_planar_embedding()
    assert not smaller.graph.has_edge(0)


def test_planar_random_graphs_roundtrip_faces():
    rng = random.Random(99)
    for _ in range(25):
        g = random_planar_graph(rng, rng.randint(4, 9))
        res = run_planarity(g)
        assert res.planar
        fs = res.embedding.face_walks()
        comps = 1
        assert len(fs) == g.m - g.n + 1 + comps


def test_outer_cycle_rejects_open_path(k4):
    from onecross.errors import NotACycle
    from onecross.graph import PathInGraph

    open_path = PathInGraph((0, 1, 2), (0, 3))
    with pytest.raises(NotACycle):
        embed_with_outer_cycle(k4, open_path)


def test_two_cycle_of_parallel_edges_bounds_a_face():
    g = build([(0, 1), (0, 1), (1, 2), (2, 0), (0, 3), (3, 1)])
    c = cycle_from_vertices(g, [0, 1])
    emb = embed_with_outer_cycle(g, c)
    assert emb is not None and cycle_face_walk(emb, c) is not None


def test_outer_cycle_stacked_confined_bridges():
    g = build([
        (0, 1), (1, 2), (2, 3), (3, 0),   # C
        (0, 1), (0, 1),                   # two parallel chords on one segment
        (1, 4), (4, 2), (1, 5), (5, 2),   # two bridges over segment (1,2)
        (3, 6), (6, 7), (3, 8),           # two pendants at vertex 3
    ])
    c = cycle_from_vertices(g, [0, 1, 2, 3])
    emb = embed_with_outer_cycle(g, c)
    assert emb is not None and cycle_face_walk(emb, c) is not None
    assert emb.graph == g and len(emb.face_walks()) == 6


def test_exactly_one_certificate_arm():
    for g in families.atlas_connected(6)[::5]:
        res = run_planarity(g)
        assert (res.embedding is None) != (res.kuratowski is None)
        assert res.planar == (res.embedding is not None)


def _chain_extraction_inputs() -> list[Multigraph]:
    graphs = [g for g in families.atlas_connected(7) if not run_planarity(g).planar]
    assert len(graphs) == 221
    bases = [families.complete_graph(5), families.complete_bipartite(3, 3), families.v8(),
             families.complete_graph(6), families.complete_bipartite(3, 4), families.siran_graph()]
    graphs += bases
    rng = random.Random(1901)
    graphs += [decorated_subdivision(rng, bases[i % len(bases)]) for i in range(204)]
    return graphs


def test_chain_extraction_matches_edge_by_edge():
    # each degree-2 chain is dropped whole or kept whole, so the certificate
    # is the one that dropping single edges in id order gives
    checked = 0
    for g in _chain_extraction_inputs():
        res = run_planarity(g)
        if res.planar:
            continue
        assert res.kuratowski == edge_by_edge_kuratowski(simplify(g)[0])
        checked += 1
    assert checked >= 221 + 6 + 200


def test_chain_extraction_counts_one_test_per_chain(lr_tests):
    # K5 with every edge a path of 40 edges is already one subdivision: the
    # decision and no trial (one trial per branch before the early stop)
    g = subdivided(families.complete_graph(5), [40] * 10)
    run_planarity(g).kuratowski.validate(g)
    assert len(lr_tests) == 1
    # a chord between the middles of the branches 0-1 and 0-2 splits each in
    # two: 13 chains, one test each until the kept ones are one subdivision,
    # which spares the last (14 tests without the early stop)
    u, v = 5 + 19, 5 + 39 + 19
    chorded = build([ends for _, ends in g.edge_items()] + [(u, v)], vertices=g.vertices)
    lr_tests.clear()
    run_planarity(chorded).kuratowski.validate(chorded)
    assert len(lr_tests) == 13


def test_chain_extraction_runs_on_the_kernel(lr_tests):
    # K5 with each edge a path of 3 edges: branch 0-1 runs through 5 and 6,
    # branch 0-2 through 7 and 8. A triangle hangs at 5 and a 2-edge path at 7.
    # The kernel drops the triangle and smooths branch 0-1 whole again, so it
    # takes one trial, where its two chains at 5 took two
    base = subdivided(families.complete_graph(5), [3] * 10)
    edges = [ends for _, ends in base.edge_items()]
    g = build(edges + [(5, 25), (25, 26), (26, 5), (7, 27), (27, 28)])
    assert _extract_kuratowski(g) == edge_by_edge_kuratowski(g)
    assert len(lr_tests) == 12
    # with the triangle alone the kept edges are one subdivision from the start
    lr_tests.clear()
    g = build(edges + [(5, 25), (25, 26), (26, 5)])
    assert _extract_kuratowski(g) == edge_by_edge_kuratowski(g)
    assert len(lr_tests) == 0


@pytest.mark.parametrize(
    "other", [families.complete_graph(5), families.complete_bipartite(3, 3)], ids=["K5", "K3,3"]
)
def test_chain_extraction_stops_only_when_connected(other):
    # K4 beside a Kuratowski graph, K4's edges first: once K4 is worn down to
    # a triangle the degrees look like one subdivision, but the chains are
    # not connected, so the greedy must go on and drop the triangle
    k4 = [ends for _, ends in families.complete_graph(4).edge_items()]
    g = build(k4 + [(a + 4, b + 4) for _, (a, b) in other.edge_items()])
    assert run_planarity(g).kuratowski == edge_by_edge_kuratowski(simplify(g)[0])
