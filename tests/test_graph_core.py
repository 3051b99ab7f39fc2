from __future__ import annotations

from collections import Counter

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from onecross import families
from onecross.bridges import decompose
from onecross.errors import LoopEdge, NotACycle, UnknownEdge
from onecross.graph import (
    PathInGraph,
    build,
    cycles_through_edge,
    degree2_chains,
    delete_edges,
    extend,
    kernel,
    make_pair,
    restrict,
    simple_paths,
    simplify,
    subdivide_edge,
)
from helpers import cycle_from_vertices, subdivided


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_empty_graph_single_vertex():
    g = build([], vertices=[0])
    assert g.n == 1 and g.m == 0


def test_build_v8_shape():
    g = families.v8()
    assert g.n == 8 and g.m == 12
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(8) == (0, 4)
    degrees = {g.degree(v) for v in g.vertices}
    assert degrees == {3}


def test_build_rejects_loops():
    with pytest.raises(LoopEdge) as err:
        build([(0, 1), (1, 2), (2, 2), (2, 3)])
    assert err.value.index == 2


def test_build_allows_parallel_edges():
    g = build([(0, 1), (0, 1)])
    assert g.m == 2
    assert g.edges_between(0, 1) == (0, 1)


def test_adjacency_consistency():
    g = families.v8()
    for e, (u, v) in g.edge_items():
        assert e in g.edges_at(u) and e in g.edges_at(v)
    for v in g.vertices:
        for e in g.edges_at(v):
            assert v in g.endpoints(e)


# ---------------------------------------------------------------------------
# delete_edges
# ---------------------------------------------------------------------------


def test_delete_edges_keeps_ids_and_vertices(v8):
    g = delete_edges(v8, [4])
    assert g.n == 8 and g.m == 11
    assert not g.has_edge(4)
    assert g.endpoints(11) == v8.endpoints(11)


def test_delete_edges_noop(v8):
    assert delete_edges(v8, []) == v8


def test_delete_edges_unknown_id(v8):
    with pytest.raises(UnknownEdge):
        delete_edges(v8, [99])


def test_delete_then_readd_roundtrip(v8):
    doomed = [2, 9]
    pairs = [v8.endpoints(e) for e in doomed]
    g = delete_edges(v8, doomed)
    g2, _ = extend(g, [], pairs)
    # same multigraph up to edge-id relabeling of the re-added edges
    assert g2.n == v8.n and g2.m == v8.m
    old = sorted(tuple(sorted(p)) for _, p in v8.edge_items())
    new = sorted(tuple(sorted(p)) for _, p in g2.edge_items())
    assert old == new


# ---------------------------------------------------------------------------
# simple_paths: st-paths avoiding a subgraph H (its edges and its vertices
# other than s and t)
# ---------------------------------------------------------------------------


def test_avoiding_paths_k4_around_an_edge():
    # K4 on {a,b,c,d} = {0,1,2,3}; avoid the edge ab; a->b paths
    g = families.complete_graph(4)
    ab = next(e for e, p in g.edge_items() if set(p) == {0, 1})
    got = sorted(p.vertices for p in simple_paths(g, 0, 1, blocked_edges=frozenset({ab})))
    assert got == [(0, 2, 1), (0, 2, 3, 1), (0, 3, 1), (0, 3, 2, 1)]


def test_avoiding_paths_v8_chord_only(v8):
    cycle = cycle_from_vertices(v8, list(range(8)))
    paths = list(simple_paths(v8, 0, 4, cycle.vertex_set() - {0, 4}, cycle.edge_set()))
    assert len(paths) == 1
    assert paths[0].edges == (8,)  # the chord v0v4


def test_avoiding_paths_empty_h_equals_all_simple_paths():
    g = families.complete_graph(4)
    got = {p.vertices for p in simple_paths(g, 0, 3)}

    # independent DFS enumeration over vertex sequences
    def all_simple(u, t, seen):
        if u == t:
            yield (t,)
            return
        for e in g.edges_at(u):
            w = g.other_end(e, u)
            if w in seen:
                continue
            for rest in all_simple(w, t, seen | {w}):
                yield (u,) + rest

    want = set(all_simple(0, 3, {0}))
    assert got == want


def test_avoiding_paths_yield_valid(v8):
    cycle = cycle_from_vertices(v8, [0, 1, 2, 3, 4])
    for p in simple_paths(v8, 0, 4, cycle.vertex_set() - {0, 4}, cycle.edge_set()):
        p.validate(v8)
        assert not (set(p.vertices[1:-1]) & cycle.vertex_set())


def test_avoiding_paths_lexicographic_by_edges():
    g = families.complete_graph(4)
    seqs = [p.edges for p in simple_paths(g, 0, 1)]
    assert seqs == sorted(seqs)


def test_cycles_through_edge_long_cycle_does_not_recurse():
    cycles = list(cycles_through_edge(families.cycle_graph(1500), 0))
    assert len(cycles) == 1
    assert cycles[0].is_cycle and cycles[0].length == 1500


# ---------------------------------------------------------------------------
# paths and cycles
# ---------------------------------------------------------------------------


def test_path_validation_rejects_gaps(v8):
    with pytest.raises(ValueError):
        PathInGraph((0, 5), (0,)).validate(v8)


def test_cycle_from_vertices_roundtrip(v8):
    c = cycle_from_vertices(v8, [0, 1, 2, 3, 4])
    assert c.is_cycle and c.length == 5
    assert c.edges == (0, 1, 2, 3, 8)


def test_cycle_from_vertices_rejects_noncycle(v8):
    with pytest.raises(NotACycle):
        cycle_from_vertices(v8, [0, 1, 3])  # no edge 1-3


def test_subdivide_edge(v8):
    g, m, halves = subdivide_edge(v8, 0)
    assert g.n == 9 and g.m == 13
    assert m == 8 and g.degree(m) == 2
    assert set(g.endpoints(halves[0])) == {0, m}
    assert set(g.endpoints(halves[1])) == {m, 1}


def test_degree2_chains():
    # a theta (0 and 3 joined by three paths), a pendant path at 3, a triangle
    # hanging at 0 and a separate 3-cycle
    g = build([(0, 1), (1, 3), (0, 2), (3, 2), (0, 3), (3, 4), (4, 5),
               (0, 6), (6, 7), (7, 0), (8, 9), (9, 10), (10, 8)])
    chains = degree2_chains(g)
    assert [(sorted(c.edges), sorted((c.vertices[0], c.vertices[-1]))) for c in chains] == [
        ([0, 1], [0, 3]), ([2, 3], [0, 3]), ([4], [0, 3]), ([5, 6], [3, 5]),
        ([7, 8, 9], [0, 0]), ([10, 11, 12], [8, 8]),
    ]
    for c in chains:
        c.validate(g)
        assert all(g.degree(v) == 2 for v in c.vertices[1:-1])
    # a cycle component starts at its least edge's first end, through that edge
    assert chains[-1].vertices == (8, 9, 10, 8)


def test_simplify_keeps_lowest_ids():
    g = build([(0, 1), (1, 2), (0, 1), (2, 0)])
    gs = simplify(g)
    assert gs.edge_ids() == (0, 1, 3)
    assert gs.vertices == g.vertices


# ---------------------------------------------------------------------------
# bridge bookkeeping
# ---------------------------------------------------------------------------


def test_bridge_groups_partition(v8):
    cycle = cycle_from_vertices(v8, list(range(8)))
    groups = [b.edges for b in decompose(v8, cycle)]
    assert [sorted(grp) for grp in groups] == [[8], [9], [10], [11]]


def test_bridge_groups_component_with_legs(k4):
    tri = cycle_from_vertices(k4, [0, 1, 2])
    groups = [b.edges for b in decompose(k4, tri)]
    assert len(groups) == 1
    assert {tuple(sorted(k4.endpoints(e))) for e in groups[0]} == {(0, 3), (1, 3), (2, 3)}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=10))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    if not edges:
        edges = [(0, 1)]
    return build(edges, vertices=range(n))


@given(small_multigraphs(), st.data())
def test_delete_readd_isomorphic(g, data):
    ids = sorted(g.edge_ids())
    k = data.draw(st.integers(min_value=0, max_value=len(ids)))
    doomed = ids[:k]
    pairs = [g.endpoints(e) for e in doomed]
    g2, _ = extend(delete_edges(g, doomed), [], pairs)
    assert sorted(tuple(sorted(p)) for _, p in g2.edge_items()) == sorted(
        tuple(sorted(p)) for _, p in g.edge_items()
    )


@given(small_multigraphs(), st.data())
def test_bridge_groups_always_partition(g, data):
    vs = sorted(g.vertices)
    s, t = data.draw(st.lists(st.sampled_from(vs), min_size=2, max_size=2, unique=True))
    paths = list(simple_paths(g, s, t))
    h = data.draw(st.sampled_from(paths)) if paths else PathInGraph((s,), ())
    bridges = decompose(g, h)
    union = set()
    for b in bridges:
        assert not (b.edges & union)
        union |= b.edges
    assert union == set(g.edge_ids()) - set(h.edges)
    # the nuclei are the components of g - V(H), each attached at its neighbours on H
    G = nx.MultiGraph([ends for _, ends in g.edge_items()])
    G.add_nodes_from(g.vertices)
    rest = G.subgraph(g.vertices - h.vertex_set())
    components = {frozenset(c) for c in nx.connected_components(rest)}
    assert {b.nucleus for b in bridges if not b.is_chord} == components
    for b in bridges:
        if b.is_chord:
            assert not b.nucleus and b.attachments == frozenset(g.endpoints(min(b.edges)))
        else:
            neighbours = {w for v in b.nucleus for w in G[v]} - b.nucleus
            assert b.attachments == neighbours


@given(small_multigraphs())
def test_degree2_chains_partition_the_edges_in_least_edge_order(g):
    chains = degree2_chains(g)
    assert sorted(e for c in chains for e in c.edges) == sorted(g.edge_ids())
    assert [min(c.edges) for c in chains] == sorted(min(c.edges) for c in chains)
    for c in chains:
        c.validate(g)
        assert all(g.degree(v) == 2 for v in c.vertices[1:-1])


@given(small_multigraphs())
def test_restrict_preserves_endpoints(g):
    ids = sorted(g.edge_ids())[::2]
    sub = restrict(g, ids)
    for e in ids:
        assert sub.endpoints(e) == g.endpoints(e)


def test_make_pair_normalizes():
    p = make_pair(7, 3)
    assert (p.e, p.f) == (3, 7)
    with pytest.raises(ValueError):
        make_pair(3, 3)


def test_avoiding_paths_empty_h_matches_dfs_on_atlas():
    # independent recursive enumeration over vertex sequences, small corpus
    def all_simple(g, u, t, seen):
        if u == t:
            yield (t,)
            return
        for e in g.edges_at(u):
            w = g.other_end(e, u)
            if w in seen:
                continue
            for rest in all_simple(g, w, t, seen | {w}):
                yield (u,) + rest

    for g in families.atlas_connected(6)[::7]:
        if g.n < 2:
            continue  # the walker joins two distinct vertices
        vs = sorted(g.vertices)
        s, t = vs[0], vs[-1]
        got = sorted(p.vertices for p in simple_paths(g, s, t))
        want = sorted(all_simple(g, s, t, {s}))
        assert got == want


# ---------------------------------------------------------------------------
# the kernel: degree-2 chains smoothed, closed chains dropped
# ---------------------------------------------------------------------------


def _kernel_one_vertex_at_a_time(g) -> tuple[dict, dict]:
    """Reference kernel: smooth one degree-2 vertex at a time; when its two
    edges go to one neighbour, they would close a loop, and both are dropped.

    Returns each kept edge's ends and the edges of g merged into it.
    """
    ends = {e: frozenset(p) for e, p in g.edge_items()}
    merged = {e: {e} for e in ends}
    while True:
        degree = Counter(v for p in ends.values() for v in p)
        v = next((v for v in sorted(degree) if degree[v] == 2), None)
        if v is None:
            return ends, merged
        h1, h2 = sorted(e for e, p in ends.items() if v in p)
        (a,), (b,) = ends.pop(h1) - {v}, ends.pop(h2) - {v}
        edges = merged.pop(h1) | merged.pop(h2)
        if a != b:
            ends[h1], merged[h1] = frozenset((a, b)), edges


@given(small_multigraphs())
def test_kernel_smooths_every_degree2_vertex(g):
    k, walks = kernel(g)
    assert sorted(walks) == list(k.edge_ids())
    covered = [x for walk in walks.values() for x in walk.edges]
    assert len(covered) == len(set(covered))
    for e, walk in walks.items():
        walk.validate(g)
        assert e == min(walk.edges)
        assert set(k.endpoints(e)) == {walk.vertices[0], walk.vertices[-1]}
    assert all(k.degree(v) != 2 for v in k.vertices)
    # the walks are the reference's merged edges: they partition the edges
    # outside the closed chains, which are dropped whole
    ends, merged = _kernel_one_vertex_at_a_time(g)
    assert {e: frozenset(k.endpoints(e)) for e in k.edge_ids()} == ends
    assert {e: set(walk.edges) for e, walk in walks.items()} == merged


def test_kernel_drops_a_hanging_triangle_then_smooths_its_branch():
    # K5 with each edge a 3-edge path and a triangle hanging at vertex 5, the
    # first interior vertex of edge 0's path: once the triangle is dropped,
    # vertex 5 has degree 2 and the path smooths to one edge
    g, _ = extend(subdivided(families.complete_graph(5), [3] * 10), [100, 101], [(5, 100), (100, 101), (101, 5)])
    k, walks = kernel(g)
    k5 = families.complete_graph(5)
    assert k.vertices == k5.vertices
    assert [(e, set(k.endpoints(e))) for e in k.edge_ids()] == [(3 * e, set(p)) for e, p in k5.edge_items()]
    assert walks[0] == PathInGraph((0, 5, 6, 1), (0, 1, 2))
    assert not {30, 31, 32} & {x for walk in walks.values() for x in walk.edges}


def test_kernel_keeps_parallel_chains_as_parallel_edges():
    # 0 and 3 joined by two 2-edge paths and an edge
    g = build([(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    k, walks = kernel(g)
    assert k.vertices == {0, 3}
    assert k.edges_between(0, 3) == (0, 2, 4)
    assert [walks[e].edges for e in (0, 2, 4)] == [(0, 1), (2, 3), (4,)]


def test_kernel_smooths_a_pendant_path():
    g, _ = extend(families.complete_graph(4), [4, 5], [(0, 4), (4, 5)])
    k, walks = kernel(g)
    assert k.vertices == {0, 1, 2, 3, 5}
    assert k.endpoints(6) == (0, 5) and walks[6] == PathInGraph((0, 4, 5), (6, 7))
    assert k.degree(5) == 1


def test_kernel_of_a_graph_without_degree2_vertices_is_itself():
    k5 = families.complete_graph(5)
    g, _ = extend(k5, [], [(10 + a, 10 + b) for _, (a, b) in families.complete_bipartite(3, 3).edge_items()])
    k, walks = kernel(g)
    assert k is g
    assert walks == {e: PathInGraph(p, (e,)) for e, p in g.edge_items()}
