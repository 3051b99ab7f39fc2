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


class BranchStructure:
    """Edge -> branch index map plus branch adjacency for one certificate."""

    __slots__ = ("cert", "branch_of", "_ends")

    def __init__(self, cert: KuratowskiCert, branch_of: dict[int, int]) -> None:
        self.cert = cert
        self.branch_of = branch_of
        self._ends = [frozenset((b.vertices[0], b.vertices[-1])) for b in cert.branches]

    def branch_of_edge(self, e: int) -> int:
        try:
            return self.branch_of[e]
        except KeyError:
            raise EdgeNotInSubdivision(e) from None

    def branches_adjacent(self, i: int, j: int) -> bool:
        return bool(self._ends[i] & self._ends[j])


def branch_structure(cert: KuratowskiCert) -> BranchStructure:
    branch_of: dict[int, int] = {}
    for i, branch in enumerate(cert.branches):
        for e in branch.edges:
            branch_of[e] = i
    return BranchStructure(cert, branch_of)


def is_crossing_pair_in_kuratowski(bs: BranchStructure, e: int, f: int) -> bool:
    """True iff e and f lie in distinct, non-adjacent branches of the subdivision."""
    bi = bs.branch_of_edge(e)
    bj = bs.branch_of_edge(f)
    if bi == bj:
        return False
    return not bs.branches_adjacent(bi, bj)


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
            yield _cert_from_system("K5", combo, None, system)

    for combo in combinations(deg3, 6):
        rest = combo[1:]
        for two in combinations(rest, 2):
            part_a = (combo[0],) + two
            part_b = tuple(v for v in combo if v not in part_a)
            pairs = [(a, b) for a in part_a for b in part_b]
            for system in _path_systems(g, pairs, frozenset(combo)):
                yield _cert_from_system("K33", combo, (part_a, part_b), system)


def _cert_from_system(
    kind: str,
    branch_vertices: tuple[int, ...],
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None,
    system: tuple[PathInGraph, ...],
) -> KuratowskiCert:
    edges = frozenset(e for p in system for e in p.edges)
    return KuratowskiCert(kind, tuple(sorted(branch_vertices)), parts, system, edges)


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
