"""Shared corpus builders and probes for the test suite."""

from __future__ import annotations

import random
from collections.abc import Sequence

import networkx as nx

from onecross.characterize import _pair_crosses_cert, oracle_crossing_pair, vertex_disjoint_pairs
from onecross.errors import InconsistencyDetected, NotACycle, PlanarInput
from onecross.graph import EdgePair, Multigraph, PathInGraph, build
from onecross.kuratowski import enumerate_kuratowski
from onecross.planarity import KuratowskiCert, test_planarity as run_planarity
from onecross.separation import SeparationVerdict, separated_by_cycles


def nx_to_multigraph(G: nx.Graph) -> Multigraph:
    return build(
        sorted(tuple(sorted(e)) for e in G.edges()),
        vertices=range(G.number_of_nodes()),
    )


def random_planar_graph(rng: random.Random, n: int) -> Multigraph:
    """Random connected planar graph: greedy edge addition under an nx filter."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    for v in range(1, n):
        G.add_edge(v, rng.randrange(v))
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or G.has_edge(u, v):
            continue
        G.add_edge(u, v)
        if not nx.is_planar(G):
            G.remove_edge(u, v)
    return nx_to_multigraph(G)


def random_nonplanar_graph(rng: random.Random, max_n: int) -> Multigraph:
    """Random sparse connected nonplanar graph (resamples until nonplanar)."""
    while True:
        n = rng.randint(6, max_n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        for v in range(1, n):
            G.add_edge(v, rng.randrange(v))
        extra = rng.randint(3, 6)
        for _ in range(20 * extra):
            if G.number_of_edges() >= n - 1 + extra:
                break
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not G.has_edge(u, v):
                G.add_edge(u, v)
        g = nx_to_multigraph(G)
        if not run_planarity(g).planar:
            return g


def cycle_from_vertices(g: Multigraph, vseq: Sequence[int]) -> PathInGraph:
    """Close vseq into a cycle, picking the lowest unused edge between consecutive vertices."""
    if len(vseq) < 2 or len(set(vseq)) != len(vseq):
        raise NotACycle(f"not a usable vertex sequence: {vseq!r}")
    closed = list(vseq) + [vseq[0]]
    edges: list[int] = []
    for a, b in zip(closed, closed[1:]):
        between = [e for e in g.edges_between(a, b) if e not in edges]
        if not between:
            raise NotACycle(f"no unused edge between {a} and {b}")
        edges.append(min(between))
    cycle = PathInGraph(tuple(closed), tuple(edges))
    cycle.validate(g)
    return cycle


def potential_crossing_pairs(
    g: Multigraph,
    certs: Sequence[KuratowskiCert] | None = None,
    budget: int | None = None,
) -> list[tuple[EdgePair, SeparationVerdict]]:
    """Pairs that are crossing pairs of every Kuratowski subdivision of g.

    Each pair is annotated with its separation verdict. A pair that is
    potential and not separated must be an actual crossing pair (the
    (ii) -> (i) direction of the equivalence); this is asserted against the oracle.
    """
    if run_planarity(g).planar:
        raise PlanarInput("potential crossing pairs concern nonplanar graphs")
    if certs is None:
        certs = list(enumerate_kuratowski(g))
    out = []
    for pair in vertex_disjoint_pairs(g):
        if not all(_pair_crosses_cert(cert, pair) for cert in certs):
            continue
        sep = separated_by_cycles(g, pair, budget=budget)
        if not sep.separated:
            if oracle_crossing_pair(g, pair) is None:
                raise InconsistencyDetected(
                    "potential pair without separation must be a crossing pair"
                )
        out.append((pair, sep))
    return out
