"""C-bridges, overlap, and detaching cycles (the Tutte cofaciality machinery).

A detaching query returns exactly one arm: either an embedding exhibiting
cofaciality, or a cycle with two overlapping bridges separating the two
objects into distinct nuclei. The dichotomy is decided by planarity of the
graph plus a connecting edge; the detaching cycle is then found by
deterministic exhaustive search, which Tutte's theorem guarantees to succeed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistencyDetected, NonPlanarInput, SameBridge
from .graph import (
    Multigraph,
    PathInGraph,
    all_cycles,
    connected_components,
    extend,
    subdivide_edge,
)
from .planarity import (
    RotationSystem,
    embedding_delete_edges,
    embedding_smooth_vertex,
    face_with_vertex_and_edge,
    face_with_vertices,
    test_planarity,
)


@dataclass(frozen=True)
class Bridge:
    """One H-bridge: chord edge, or a component of g - V(H) with its legs."""

    attachments: frozenset[int]
    nucleus: frozenset[int]
    edges: frozenset[int]
    is_chord: bool

    def sort_key(self) -> tuple[int, int]:
        if self.edges:
            return (0, min(self.edges))
        return (1, min(self.nucleus))


@dataclass(frozen=True)
class OverlapVerdict:
    overlapping: bool
    kind: str | None  # "three_common" | "interleaved" | None
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class Cofacial:
    embedding: RotationSystem


@dataclass(frozen=True)
class Detached:
    cycle: PathInGraph
    bridge_x: Bridge
    bridge_y: Bridge


DetachingVerdict = Cofacial | Detached


def decompose(g: Multigraph, h: PathInGraph) -> list[Bridge]:
    """All H-bridges of g in deterministic order (smallest edge id first).

    One pass finds each component of g - V(H), an isolated vertex included,
    with its edges and attachments; an edge off H with both ends on H is a chord.
    """
    h_vertices = h.vertex_set()
    bridges = []
    seen: set[int] = set()
    for start in sorted(g.vertices - h_vertices):
        if start in seen:
            continue
        nucleus, attachments, edges = {start}, set(), set()
        stack = [start]
        while stack:
            v = stack.pop()
            for e in g.edges_at(v):
                edges.add(e)
                w = g.other_end(e, v)
                if w in h_vertices:
                    attachments.add(w)
                elif w not in nucleus:
                    nucleus.add(w)
                    stack.append(w)
        seen |= nucleus
        bridges.append(Bridge(frozenset(attachments), frozenset(nucleus), frozenset(edges), False))
    h_edges = h.edge_set()
    for e, ends in g.edge_items():
        if e not in h_edges and h_vertices.issuperset(ends):
            bridges.append(Bridge(frozenset(ends), frozenset(), frozenset({e}), True))
    bridges.sort(key=Bridge.sort_key)
    _assert_partition(g, h, bridges)
    return bridges


def _assert_partition(g: Multigraph, h: PathInGraph, bridges: list[Bridge]) -> None:
    rest = set(g.edge_ids()) - h.edge_set()
    seen: set[int] = set()
    for b in bridges:
        if b.edges & seen:
            raise InconsistencyDetected("bridge edge sets are not disjoint")
        seen |= b.edges
    if seen != rest:
        raise InconsistencyDetected("bridges do not partition the off-H edges")


def overlap(b1: Bridge, b2: Bridge, c: PathInGraph) -> OverlapVerdict:
    """Do two C-bridges overlap: three common attachments, or interleaving
    along the walk of c."""
    if b1 == b2:
        raise SameBridge("overlap requires two distinct bridges")
    common = sorted(b1.attachments & b2.attachments)
    if len(common) >= 3:
        return OverlapVerdict(True, "three_common", tuple(common[:3]))

    ring = c.vertices[:-1]
    pos = {v: i for i, v in enumerate(ring)}
    att1 = sorted(b1.attachments.intersection(ring))
    att2 = sorted(b2.attachments.intersection(ring))
    n = len(ring)

    def between(i: int, j: int, k: int) -> bool:
        # is k strictly inside the arc i -> j (cyclically)?
        return (k - i) % n < (j - i) % n and k != i

    for a in att1:
        for b in att1:
            if a == b:
                continue
            inside = [x for x in att2 if between(pos[a], pos[b], pos[x]) and x != a and x != b]
            outside = [x for x in att2 if between(pos[b], pos[a], pos[x]) and x != a and x != b]
            if inside and outside:
                return OverlapVerdict(True, "interleaved", (a, inside[0], b, outside[0]))
    return OverlapVerdict(False, None, None)


def side_of_bridge(r: RotationSystem, c: PathInGraph, bridge: Bridge) -> int | None:
    """Which side of the embedded cycle holds the bridge: +1 or -1.

    +1 is the corner from c.edges[i] round to c.edges[i - 1] at the walk's
    i-th vertex. Returns None for bridges with no attachments. Raises if the
    embedding assigns the bridge's legs inconsistently (impossible in a
    planar one).
    """
    pos = {v: i for i, v in enumerate(c.vertices[:-1])}
    sides: set[int] = set()
    for a in sorted(bridge.attachments):
        i = pos[a]
        rot = r.rotation[a]
        e_next, e_prev = c.edges[i], c.edges[i - 1]
        if e_next not in rot or e_prev not in rot:
            raise InconsistencyDetected("cycle vertex without two cycle edges")
        start = rot.index(e_next)
        span = (rot.index(e_prev) - start) % len(rot)
        for e in bridge.edges:
            if a not in r.graph.endpoints(e):
                continue
            offset = (rot.index(e) - start) % len(rot)
            sides.add(1 if 0 < offset < span else -1)
    if not sides:
        return None
    if len(sides) != 1:
        raise InconsistencyDetected("bridge embedded on both sides of the cycle")
    return sides.pop()


def _cofacial_embedding_vv(g: Multigraph, x: int, y: int) -> RotationSystem | None:
    """Embedding of planar g with non-adjacent x,y on a common face, or None if none exists."""
    g2, added = extend(g, [], [(x, y)])
    res = test_planarity(g2)
    if not res.planar:
        return None
    return embedding_delete_edges(res.embedding, added)


def _same_component(g: Multigraph, x: int, y: int) -> bool:
    return any(x in comp and y in comp for comp in connected_components(g))


def _verify_cofacial_vv(g: Multigraph, r: RotationSystem, x: int, y: int) -> None:
    if not _same_component(g, x, y):
        return  # distinct components always share the outer face
    if face_with_vertices(r, [x, y]) is None:
        raise InconsistencyDetected("claimed cofacial embedding has no common face")


def _find_detaching_cycle(g: Multigraph, x: int, y: int) -> Detached:
    for c in all_cycles(g):
        if x in c.vertices or y in c.vertices:
            continue
        bx = by = None
        for b in decompose(g, c):
            if x in b.nucleus:
                bx = b
            if y in b.nucleus:
                by = b
        if bx is None or by is None or bx == by:
            continue
        if overlap(bx, by, c).overlapping:
            return Detached(c, bx, by)
    raise InconsistencyDetected("no detaching cycle found despite non-cofaciality")


def detaching_cycle_vv(g: Multigraph, x: int, y: int) -> DetachingVerdict:
    """Tutte's dichotomy: a cofacial embedding of x and y, or a detaching cycle."""
    res = test_planarity(g)
    if not res.planar:
        raise NonPlanarInput("detaching queries require a planar graph")
    if x == y:
        raise ValueError("need two distinct vertices")
    emb = res.embedding if g.are_adjacent(x, y) else _cofacial_embedding_vv(g, x, y)
    if emb is not None:
        _verify_cofacial_vv(g, emb, x, y)
        return Cofacial(emb)
    verdict = _find_detaching_cycle(g, x, y)
    _verify_detached(g, verdict, x, y)
    return verdict


def _verify_detached(g: Multigraph, d: Detached, x: int, y: int) -> None:
    in_x = x in d.bridge_x.nucleus and y not in d.bridge_x.nucleus
    in_y = y in d.bridge_y.nucleus and x not in d.bridge_y.nucleus
    if not (in_x and in_y):
        raise InconsistencyDetected("detached bridges do not hold x and y in their nuclei")
    if not overlap(d.bridge_x, d.bridge_y, d.cycle).overlapping:
        raise InconsistencyDetected("detached bridges do not overlap")


def detaching_cycle_ve(g: Multigraph, x: int, f: int) -> DetachingVerdict:
    """Vertex-edge variant, via subdividing f and reusing the vertex form."""
    res = test_planarity(g)
    if not res.planar:
        raise NonPlanarInput("detaching queries require a planar graph")
    a, b = g.endpoints(f)
    if x in (a, b):
        emb = res.embedding
        if face_with_vertex_and_edge(emb, x, f) is None:
            raise InconsistencyDetected("edge endpoint not on a face of its own edge")
        return Cofacial(emb)

    g2, m, halves = subdivide_edge(g, f)
    verdict = detaching_cycle_vv(g2, x, m)
    if isinstance(verdict, Cofacial):
        emb = embedding_smooth_vertex(verdict.embedding, m, f)
        if _same_component(g, x, a) and face_with_vertex_and_edge(emb, x, f) is None:
            raise InconsistencyDetected("un-subdivided embedding lost cofaciality")
        return Cofacial(emb)

    c = verdict.cycle
    if m in c.vertices or set(halves) & c.edge_set():
        raise InconsistencyDetected("detaching cycle may not contain the subdivided edge")
    bx = bf = None
    for bridge in decompose(g, c):
        if x in bridge.nucleus:
            bx = bridge
        if f in bridge.edges:
            bf = bridge
    if bx is None or bf is None or bx == bf:
        raise InconsistencyDetected("detaching cycle lost its bridges after un-subdividing")
    if not overlap(bx, bf, c).overlapping:
        raise InconsistencyDetected("un-subdivided bridges no longer overlap")
    return Detached(c, bx, bf)
