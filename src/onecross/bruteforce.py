"""Independent brute-force oracles: never share logic with the certified paths.

Planarity is decided by exhaustive search over rotation systems with the Euler
check (plus the rigorous edge-count prune m <= 3n-6 on the simple reduction).
The one-crossing decision enumerates crossing placements on top of that.
These exist to cross-examine the main implementation in tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations

from .errors import SearchBudgetExceeded
from .graph import Multigraph, connected_components, delete_edges, extend, make_pair, simplify
from .planarity import RotationSystem

PLANAR = "planar"
EXACTLY_ONE = "one"
AT_LEAST_TWO = "two_plus"


def rotation_count(g: Multigraph) -> int:
    """Number of rotation systems the exhaustive search would visit."""
    total = 1
    for v in sorted(g.vertices):
        d = g.degree(v)
        for k in range(2, d):
            total *= k
    return total


def _count_prune_nonplanar(g: Multigraph) -> bool:
    """True when the simple reduction violates m <= 3n-6 (hence g nonplanar)."""
    gs = simplify(g)
    return gs.n >= 3 and gs.m > 3 * gs.n - 6


def _iter_rotations(
    g: Multigraph, budget: int | None, mirror_free: bool = False
) -> Iterator[dict[int, tuple[int, ...]]]:
    """Rotation systems of g; with `mirror_free`, one of each mirror pair.

    Mirroring reverses every fan, which at a vertex of degree >= 3 swaps the
    second and the last edge of its fan; planarity does not change. So fixing
    the first such vertex's fan to those whose second edge is the smaller
    still meets a planar rotation whenever there is one.
    """
    verts = sorted(g.vertices)
    fans = []
    for v in verts:
        edges = g.edges_at(v)
        if len(edges) <= 2:
            fans.append([tuple(edges)])
        else:
            head = edges[0]
            fans.append([(head,) + rest for rest in permutations(edges[1:])])
    first = next((i for i, choices in enumerate(fans) if len(choices[0]) >= 3), None)
    if mirror_free and first is not None:
        fans[first] = [fan for fan in fans[first] if fan[1] < fan[-1]]
    spent = 0

    def rec(i: int, acc: dict[int, tuple[int, ...]]) -> Iterator[dict[int, tuple[int, ...]]]:
        nonlocal spent
        if i == len(verts):
            spent += 1
            if budget is not None and spent > budget:
                raise SearchBudgetExceeded("rotation enumeration budget exhausted")
            yield dict(acc)
            return
        for fan in fans[i]:
            acc[verts[i]] = fan
            yield from rec(i + 1, acc)

    yield from rec(0, {})


def _faces_of(g: Multigraph, rotation: dict[int, tuple[int, ...]]) -> int:
    pos: dict[int, dict[int, int]] = {}
    for v, rot in rotation.items():
        pos[v] = {e: i for i, e in enumerate(rot)}
    seen: set[tuple[int, int]] = set()
    count = 0
    for v in rotation:
        for e in rotation[v]:
            dart = (v, e)
            if dart in seen:
                continue
            count += 1
            while dart not in seen:
                seen.add(dart)
                tail, edge = dart
                head = g.other_end(edge, tail)
                rot = rotation[head]
                dart = (head, rot[(pos[head][edge] + 1) % len(rot)])
    return count


def _component_data(g: Multigraph) -> list[tuple[int, int]]:
    out = []
    for comp in connected_components(g):
        edges = {e for v in comp for e in g.edges_at(v)}
        out.append((len(comp), len(edges)))
    return out


def _rotation_is_planar(g: Multigraph, rotation: dict[int, tuple[int, ...]], comps: list[tuple[int, int]]) -> bool:
    faces = _faces_of(g, rotation)
    # V - E + F summed per component must equal 2 each; isolated vertices
    # contribute one face that tracing cannot see.
    n_edgeless = sum(1 for nv, ne in comps if ne == 0)
    total = sum(nv - ne for nv, ne in comps)
    return total + faces + n_edgeless == 2 * len(comps)


def all_planar_rotations(g: Multigraph, budget: int | None = None) -> Iterator[RotationSystem]:
    """Every rotation system of g that passes the Euler check."""
    comps = _component_data(g)
    for rotation in _iter_rotations(g, budget):
        if _rotation_is_planar(g, rotation, comps):
            yield RotationSystem(g, rotation)


def exhaustive_planar(g: Multigraph, budget: int | None = None) -> bool:
    """Planarity by exhaustive rotation search (count prune first)."""
    if _count_prune_nonplanar(g):
        return False
    comps = _component_data(g)
    for rotation in _iter_rotations(g, budget, mirror_free=True):
        if _rotation_is_planar(g, rotation, comps):
            return True
    return False


def _planarize_raw(g: Multigraph, e: int, f: int) -> Multigraph:
    u, v = g.endpoints(e)
    x, y = g.endpoints(f)
    w = g.max_vertex() + 1
    g2 = delete_edges(g, [e, f])
    g3, _ = extend(g2, [w], [(u, w), (w, v), (x, w), (w, y)])
    return g3


def exhaustive_crossing_le_1(g: Multigraph, budget: int | None = None) -> tuple[str, tuple[int, int] | None]:
    """Decide cr(g) in {0, 1, >=2} by trying every one-crossing placement.

    A drawing with one crossing between edges sharing a vertex can always be
    redrawn without it, so only vertex-disjoint placements are examined.
    """
    if exhaustive_planar(g, budget):
        return PLANAR, None
    ids = g.edge_ids()
    for i, e in enumerate(ids):
        for f in ids[i + 1 :]:
            if set(g.endpoints(e)) & set(g.endpoints(f)):
                continue
            if exhaustive_planar(_planarize_raw(g, e, f), budget):
                pair = make_pair(e, f)
                return EXACTLY_ONE, (pair.e, pair.f)
    return AT_LEAST_TWO, None
