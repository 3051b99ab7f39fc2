"""Branch structure of Kuratowski subdivisions and their exhaustive enumeration.

The crossing-pair test inside a single subdivision is purely combinatorial:
two edges form a crossing pair of H exactly when their branches are disjoint
(neither the same branch nor branches sharing a branch vertex).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from .errors import EdgeNotInSubdivision, EnumerationBudgetExceeded
from .graph import Multigraph, PathInGraph, simple_paths
from .planarity import KuratowskiCert

ENUMERATION_VERTEX_GATE = 12


def branch_structure(cert: KuratowskiCert) -> dict[int, frozenset[int]]:
    """Each edge of the subdivision -> the two ends of its branch."""
    return {e: frozenset((br.vertices[0], br.vertices[-1])) for br in cert.branches for e in br.edges}


def is_crossing_pair_in_kuratowski(bs: dict[int, frozenset[int]], e: int, f: int) -> bool:
    """True iff e and f lie in distinct, non-adjacent branches: their branches share no end.

    Edges of one branch have the same ends, and adjacent branches share one.
    """
    try:
        return not bs[e] & bs[f]
    except KeyError as exc:
        raise EdgeNotInSubdivision(exc.args[0]) from None


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_kuratowski(g: Multigraph) -> Iterator[KuratowskiCert]:
    """All Kuratowski subdivisions of g, distinct as edge sets.

    Works by guessing branch vertices and extending internally disjoint path
    systems; exponential, so gated to small graphs. No edge set comes twice:
    it fixes its branch vertices, its branches and, for K3,3, its parts, and
    each choice of those is made once.
    """
    if g.n > ENUMERATION_VERTEX_GATE:
        raise EnumerationBudgetExceeded(
            f"Kuratowski enumeration is gated to {ENUMERATION_VERTEX_GATE} vertices (got {g.n})"
        )
    yield from _enumerate_all(g)


def _enumerate_all(g: Multigraph) -> Iterator[KuratowskiCert]:
    deg4 = sorted(v for v in g.vertices if g.degree(v) >= 4)
    deg3 = sorted(v for v in g.vertices if g.degree(v) >= 3)

    for combo in combinations(deg4, 5):
        pairs = [(combo[i], combo[j]) for i in range(5) for j in range(i + 1, 5)]
        for system in _path_systems(g, pairs, frozenset(combo)):
            yield KuratowskiCert(system)

    for combo in combinations(deg3, 6):
        rest = combo[1:]
        for two in combinations(rest, 2):
            part_a = (combo[0],) + two
            part_b = tuple(v for v in combo if v not in part_a)
            pairs = [(a, b) for a in part_a for b in part_b]
            for system in _path_systems(g, pairs, frozenset(combo)):
                yield KuratowskiCert(system)


def _path_systems(
    g: Multigraph,
    pairs: list[tuple[int, int]],
    branch_vertices: frozenset[int],
) -> Iterator[tuple[PathInGraph, ...]]:
    """Systems of internally disjoint paths joining the required pairs.

    Internal vertices must avoid the branch vertices and every other path.
    """
    chosen: list[PathInGraph] = []
    used_internal: set[int] = set()

    def extend_system(i: int) -> Iterator[tuple[PathInGraph, ...]]:
        if i == len(pairs):
            yield tuple(chosen)
            return
        s, t = pairs[i]
        for path in simple_paths(g, s, t, used_internal | (branch_vertices - {t})):
            interior = set(path.vertices[1:-1])
            chosen.append(path)
            used_internal.update(interior)
            yield from extend_system(i + 1)
            used_internal.difference_update(interior)
            chosen.pop()

    yield from extend_system(0)
