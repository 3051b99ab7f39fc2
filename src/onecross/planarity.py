"""Planarity decisions with a certificate for either answer, plus embeddings.

`test_planarity` is one decision: networkx's left-right test on the
parallel-reduced graph. The certificate of the answer is built the first time
a caller reads it, and cached: a planar result's `.embedding` is a
RotationSystem (cyclic edge order at each vertex) that passes the Euler check,
a nonplanar result's `.kuratowski` is a validated Kuratowski subdivision. The
certificate extraction, face tracing, Euler validation and all embedding
surgery are implemented here. An independent brute-force planarity oracle
lives in `bruteforce` and never shares this code path.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import networkx as nx

from .errors import InconsistencyDetected, NotPlanarEmbedding, UnknownEdge
from .graph import (
    Multigraph,
    PathInGraph,
    _assemble,
    connected_components,
    degree2_chains,
    delete_edges,
    extend,
    kernel,
    parallel_classes,
    require_cycle,
    restrict,
    simplify,
)

Dart = tuple[int, int]  # (tail vertex, edge id)


# ---------------------------------------------------------------------------
# Rotation systems
# ---------------------------------------------------------------------------


class RotationSystem:
    """A combinatorial embedding: cyclic order of incident edge ids per vertex."""

    __slots__ = ("graph", "rotation", "_walk_cache")

    def __init__(self, graph: Multigraph, rotation: dict[int, tuple[int, ...]]) -> None:
        self.graph = graph
        self.rotation = {v: tuple(es) for v, es in rotation.items()}
        self._walk_cache: tuple[tuple[Dart, ...], ...] | None = None
        self.validate()

    def validate(self) -> None:
        if set(self.rotation) != set(self.graph.vertices):
            raise NotPlanarEmbedding("rotation keys do not match vertex set")
        for v in self.graph.vertices:
            if sorted(self.rotation[v]) != sorted(self.graph.edges_at(v)):
                raise NotPlanarEmbedding(f"rotation at {v} is not a permutation of incident edges")

    def next_dart(self, dart: Dart) -> Dart:
        v, e = dart
        w = self.graph.other_end(e, v)
        rot = self.rotation[w]
        i = rot.index(e)
        return (w, rot[(i + 1) % len(rot)])

    def face_walks(self) -> tuple[tuple[Dart, ...], ...]:
        """All boundary walks (orbits of the face-successor permutation)."""
        if self._walk_cache is not None:
            return self._walk_cache
        seen: set[Dart] = set()
        walks: list[tuple[Dart, ...]] = []
        for v in sorted(self.rotation):
            for e in self.rotation[v]:
                start = (v, e)
                if start in seen:
                    continue
                walk = []
                dart = start
                while True:
                    walk.append(dart)
                    seen.add(dart)
                    dart = self.next_dart(dart)
                    if dart == start:
                        break
                walks.append(tuple(walk))
        self._walk_cache = tuple(walks)
        return self._walk_cache

    def euler_defect(self) -> int:
        """Sum over components of 2 - (V - E + F); zero iff planar embedding.

        Summed, it is 2C - V + E - (face walks) - (isolated vertices), as an
        isolated vertex has one face and no walk. No component's term is
        negative, so the sum is zero exactly when every term is.
        """
        g = self.graph
        isolated = sum(1 for v in g.vertices if not g.edges_at(v))
        return 2 * len(connected_components(g)) - g.n + g.m - len(self.face_walks()) - isolated

    def is_planar_embedding(self) -> bool:
        return self.euler_defect() == 0

    def mirrored(self) -> "RotationSystem":
        return RotationSystem(self.graph, {v: tuple(reversed(es)) for v, es in self.rotation.items()})

    def __repr__(self) -> str:
        return f"RotationSystem({self.graph!r})"


def _first_face_walk(r: RotationSystem, holds: Callable[[tuple[Dart, ...]], bool]) -> tuple[Dart, ...] | None:
    """The first face walk of r that holds, or None; NotPlanarEmbedding if r fails the Euler check."""
    if not r.is_planar_embedding():
        raise NotPlanarEmbedding("rotation system is not a planar embedding")
    return next((w for w in r.face_walks() if holds(w)), None)


def face_with_vertices(r: RotationSystem, wanted: Iterable[int]) -> tuple[Dart, ...] | None:
    """The first face walk of r through every wanted vertex, as in `_first_face_walk`."""
    want = set(wanted)
    return _first_face_walk(r, lambda w: want <= {v for v, _ in w})


def face_with_vertex_and_edge(r: RotationSystem, v: int, e: int) -> tuple[Dart, ...] | None:
    """The first face walk of r through vertex v and edge e, as in `_first_face_walk`."""
    return _first_face_walk(r, lambda w: any(x == v for x, _ in w) and any(y == e for _, y in w))


def cycle_face_walk(r: RotationSystem, c: PathInGraph) -> tuple[Dart, ...] | None:
    """The boundary walk tracing exactly the cycle c, if c bounds a face."""
    target = sorted(c.edges)
    for walk in r.face_walks():
        if len(walk) == len(target) and sorted(e for _, e in walk) == target:
            return walk
    return None


# ---------------------------------------------------------------------------
# Embedding surgery
# ---------------------------------------------------------------------------


def embedding_delete_edges(r: RotationSystem, edge_ids: Iterable[int]) -> RotationSystem:
    doomed = set(edge_ids)
    g2 = delete_edges(r.graph, doomed)
    rotation = {v: tuple(e for e in es if e not in doomed) for v, es in r.rotation.items()}
    return RotationSystem(g2, rotation)


def embedding_subdivide_edge(
    r: RotationSystem, e: int, m: int, half_ids: tuple[int, int]
) -> RotationSystem:
    """Subdivide edge e=(a,b) at a new vertex m; half_ids are ids for (a,m), (m,b)."""
    a, b = r.graph.endpoints(e)
    h1, h2 = half_ids
    g2 = delete_edges(r.graph, [e])
    g2, _ = extend(g2, [m], [])
    endpoints = dict(g2.edge_items())
    endpoints[h1] = (a, m)
    endpoints[h2] = (m, b)
    g2 = _assemble(g2.vertices, endpoints)
    rotation = dict(r.rotation)
    rotation[a] = tuple(h1 if x == e else x for x in rotation[a])
    rotation[b] = tuple(h2 if x == e else x for x in rotation[b])
    rotation[m] = (h1, h2)
    return RotationSystem(g2, rotation)


def embedding_smooth_vertex(r: RotationSystem, m: int, merged_id: int) -> RotationSystem:
    """Inverse of subdivision: remove the degree-2 vertex m, merging its edges."""
    h1, h2 = r.graph.edges_at(m)
    a = r.graph.other_end(h1, m)
    b = r.graph.other_end(h2, m)
    if a == b:
        raise InconsistencyDetected("smoothing would create a loop")
    g2 = delete_edges(r.graph, [h1, h2])
    endpoints = dict(g2.edge_items())
    endpoints[merged_id] = (a, b)
    g2 = _assemble(g2.vertices - {m}, endpoints)
    rotation = {v: es for v, es in r.rotation.items() if v != m}
    rotation[a] = tuple(merged_id if x == h1 else x for x in rotation[a])
    rotation[b] = tuple(merged_id if x == h2 else x for x in rotation[b])
    return RotationSystem(g2, rotation)


def embedding_add_edge_in_face(
    r: RotationSystem, walk: tuple[Dart, ...], p: int, q: int, new_id: int
) -> RotationSystem:
    """Insert a new p-q edge through the face bounded by `walk`.

    p and q must both occur on the walk; the first corner of each is used.
    """
    rotation = {v: list(es) for v, es in r.rotation.items()}

    def corner_after(vertex: int) -> tuple[int, int]:
        # walk[i] = (v, e) leaves v via e; the corner at v is (previous edge -> e)
        for i, (v, e) in enumerate(walk):
            if v == vertex:
                return i, rotation[v].index(e)
        raise InconsistencyDetected(f"vertex {vertex} not on the given face walk")

    _, pos_p = corner_after(p)
    rotation[p].insert(pos_p, new_id)
    _, pos_q = corner_after(q)
    rotation[q].insert(pos_q, new_id)

    endpoints = dict(r.graph.edge_items())
    if new_id in endpoints:
        raise UnknownEdge(new_id)
    endpoints[new_id] = (p, q)
    g2 = _assemble(r.graph.vertices, endpoints)
    out = RotationSystem(g2, {v: tuple(es) for v, es in rotation.items()})
    if not out.is_planar_embedding():
        raise InconsistencyDetected("edge insertion broke the embedding")
    return out


# ---------------------------------------------------------------------------
# Kuratowski certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KuratowskiCert:
    """A subdivision of K5 or K3,3: branch vertices plus branch paths."""

    kind: str  # "K5" | "K33"
    branch_vertices: tuple[int, ...]
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    branches: tuple[PathInGraph, ...]
    edges: frozenset[int]

    def validate(self, g: Multigraph) -> None:
        expected_branches = 10 if self.kind == "K5" else 9
        expected_degree = 4 if self.kind == "K5" else 3
        if self.kind not in ("K5", "K33"):
            raise ValueError(f"unknown kind {self.kind}")
        if len(self.branches) != expected_branches:
            raise ValueError("wrong number of branches")
        if len(self.branch_vertices) != (5 if self.kind == "K5" else 6):
            raise ValueError("wrong number of branch vertices")

        bset = set(self.branch_vertices)
        all_edges: set[int] = set()
        internal_seen: set[int] = set()
        degree: dict[int, int] = {}
        end_pairs = []
        for br in self.branches:
            br.validate(g)
            if br.vertices[0] not in bset or br.vertices[-1] not in bset:
                raise ValueError("branch does not join branch vertices")
            interior = br.vertices[1:-1]
            if bset & set(interior):
                raise ValueError("branch vertex interior to a branch")
            if internal_seen & set(interior):
                raise ValueError("branches share an internal vertex")
            internal_seen |= set(interior)
            if all_edges & br.edge_set():
                raise ValueError("branches share an edge")
            all_edges |= br.edge_set()
            degree[br.vertices[0]] = degree.get(br.vertices[0], 0) + 1
            degree[br.vertices[-1]] = degree.get(br.vertices[-1], 0) + 1
            end_pairs.append(frozenset((br.vertices[0], br.vertices[-1])))
        if all_edges != set(self.edges):
            raise ValueError("edge set does not match branch union")
        if any(degree.get(v, 0) != expected_degree for v in bset):
            raise ValueError("branch vertex of wrong degree")

        # contracting each branch must give exactly K5 / K3,3
        if self.kind == "K5":
            want = {frozenset(p) for p in combinations(bset, 2)}
        else:
            if self.parts is None:
                raise ValueError("K33 certificate must carry its parts")
            part_a, part_b = self.parts
            if set(part_a) | set(part_b) != bset or set(part_a) & set(part_b):
                raise ValueError("parts do not partition the branch vertices")
            want = {frozenset((a, b)) for a in part_a for b in part_b}
        if set(end_pairs) != want or len(end_pairs) != len(want):
            raise ValueError("branch end pairs do not contract to the expected graph")


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------


class PlanarityResult:
    """One planarity decision and the certificate of its answer.

    `.embedding` (planar) or `.kuratowski` (nonplanar) is built, checked and
    cached on its first read; the other one is None.
    """

    def __init__(self, planar: bool, g: Multigraph, nx_embedding: nx.PlanarEmbedding | None) -> None:
        self.planar = planar
        self._graph = g
        self._nx_embedding = nx_embedding

    @cached_property
    def embedding(self) -> RotationSystem | None:
        """networkx's embedding re-expanded over g's parallel edges, Euler-checked."""
        if not self.planar:
            return None
        g = self._graph
        data = self._nx_embedding.get_data()
        rotation: dict[int, tuple[int, ...]] = {}
        classes = parallel_classes(g)
        for v in sorted(g.vertices):
            seq: list[int] = []
            for w in data.get(v, []):
                seq.extend(classes[(v, w)] if v < w else classes[(w, v)][::-1])
            rotation[v] = tuple(seq)
        rs = RotationSystem(g, rotation)
        if not rs.is_planar_embedding():
            raise InconsistencyDetected("imported embedding failed the Euler check")
        return rs

    @cached_property
    def kuratowski(self) -> KuratowskiCert | None:
        if self.planar:
            return None
        cert = _extract_kuratowski(simplify(self._graph)[0])
        cert.validate(self._graph)
        return cert


def _to_nx(g: Multigraph) -> nx.Graph:
    """g as a simple nx.Graph, nodes sorted and edges added in id order.

    A parallel class merges into its lowest id, and adjacency order is that of
    each neighbour's first edge: the same as for `simplify(g)`.
    """
    G = nx.Graph()
    G.add_nodes_from(sorted(g.vertices))
    G.add_edges_from(ends for _, ends in g.edge_items())
    return G


def test_planarity(g: Multigraph) -> PlanarityResult:
    """Decide planarity of a multigraph by one left-right test.

    Parallel edges are reduced to a single representative for the decision and
    re-expanded into the embedding when it is read.
    """
    ok, emb = nx.check_planarity(_to_nx(g), counterexample=False)
    return PlanarityResult(ok, g, emb)


def _extract_kuratowski(gs: Multigraph) -> KuratowskiCert:
    """Deterministic deletion minimization down to a Kuratowski subdivision.

    A subdivision uses all of a walk of gs's kernel or none of it, so the
    kernel's edges are dropped whole, tried in id order: this keeps the edges
    that dropping single edges of gs in id order would keep. Each trial is one
    left-right test on the kernel's edges still kept, with parallel edges
    merged since they cannot change planarity.

    The kept edges always hold a subdivision K. Once they are connected and
    every end has degree 2 in them but for five 4s or six 3s, K's branch
    vertices are those and use every edge there, so K is all the kept edges.
    A subdivision is minimally nonplanar: every later trial would keep its
    edge, so the greedy stops untested.
    """
    k, walks = kernel(gs)
    ends = dict(k.edge_items())
    kept = set(ends)
    degree = Counter(v for e in kept for v in ends[e])
    tally = Counter(min(d, 5) for d in degree.values())  # 5 stands for any more
    for e in sorted(kept):
        if tally[1] == tally[5] == 0 and (tally[3], tally[4]) in ((6, 0), (0, 5)):
            if nx.is_connected(nx.Graph([ends[x] for x in kept])):
                break
        trial = nx.Graph([ends[x] for x in kept if x != e])
        if not nx.check_planarity(trial, counterexample=False)[0]:
            kept.discard(e)
            for v in ends[e]:
                tally[min(degree[v], 5)] -= 1
                degree[v] -= 1
                tally[min(degree[v], 5)] += 1
    return parse_subdivision(gs, {x for e in kept for x in walks[e].edges})


def parse_subdivision(host: Multigraph, edge_ids: Iterable[int]) -> KuratowskiCert:
    """Parse an edge set known to be an edge-minimal Kuratowski subdivision.

    Its branches are the degree-2 chains of the subgraph and its branch
    vertices their ends. For K3,3, the least branch vertex's part is it and
    the two it has no branch to.
    """
    ids = set(edge_ids)
    sub = restrict(host, ids)
    branches = degree2_chains(sub)
    ends = [(br.vertices[0], br.vertices[-1]) for br in branches]
    branch_vertices = tuple(sorted({v for pair in ends for v in pair}))
    degrees = {sub.degree(v) for v in branch_vertices}
    if degrees == {4} and len(branch_vertices) == 5:
        kind = "K5"
    elif degrees == {3} and len(branch_vertices) == 6:
        kind = "K33"
    else:
        raise InconsistencyDetected(f"kernel is not a Kuratowski subdivision: degrees {sorted(degrees)}")

    parts = None
    if kind == "K33":
        first = branch_vertices[0]
        joined = {b if a == first else a for a, b in ends if first in (a, b)}
        parts = (tuple(v for v in branch_vertices if v not in joined),
                 tuple(v for v in branch_vertices if v in joined))

    cert = KuratowskiCert(kind, branch_vertices, parts, tuple(branches), frozenset(ids))
    cert.validate(host)
    return cert


# ---------------------------------------------------------------------------
# Embedding with a prescribed face
# ---------------------------------------------------------------------------


def embed_with_outer_cycle(g: Multigraph, c: PathInGraph) -> RotationSystem | None:
    """An embedding of g in which cycle c bounds a face, or None if impossible.

    Reduction: subdivide every edge of c and join an apex to every vertex and
    midpoint of c. The wheel so formed has one embedding, so g embeds with c
    bounding a face iff the result is planar. Only parts of g hanging at a
    single vertex of c can lie between two spokes; they are moved to the far
    side of c before the apex and the midpoints are dropped.

    At each vertex of c the returned rotation starts and ends with that
    vertex's two edges of c, and the face bounded by c is the corner from the
    last edge to the first (the spoke's corner): the face walk of c leaves
    each of its vertices by that vertex's first edge.
    """
    require_cycle(g, c)
    order = c.vertices[:-1]
    apex = g.max_vertex() + 1
    mids = [apex + 1 + i for i in range(len(c.edges))]
    wheel = []
    for i, m in enumerate(mids):
        wheel += [(order[i], m), (m, c.vertices[i + 1]), (apex, order[i]), (apex, m)]
    g_wheel, ids = extend(delete_edges(g, c.edges), [apex, *mids], wheel)
    res = test_planarity(g_wheel)
    if not res.planar:
        return None

    halves: dict[int, int] = {}  # each half of an edge of c -> that edge
    spokes = []
    for i, e in enumerate(c.edges):
        h1, h2, spoke, _ = ids[4 * i : 4 * i + 4]
        halves[h1] = halves[h2] = e
        spokes.append(spoke)
    rotation = {v: res.embedding.rotation[v] for v in g.vertices}
    for v, spoke in zip(order, spokes):
        rot = rotation[v]
        k = rot.index(spoke)
        seq = rot[k + 1 :] + rot[:k]  # v's edges, starting just past its spoke
        first, second = (j for j, e in enumerate(seq) if e in halves)
        # what lies before the first half of c or after the second hangs in
        # the spoke's sector: move it to the far side, before the second half
        seq = seq[first:second] + seq[second + 1 :] + seq[:first] + seq[second : second + 1]
        rotation[v] = tuple(halves.get(e, e) for e in seq)
    rs = RotationSystem(g, rotation)
    if not rs.is_planar_embedding() or cycle_face_walk(rs, c) is None:
        raise InconsistencyDetected("wheel embedding did not leave the cycle as a face")
    return rs
