"""Shared corpus builders and probes for the test suite."""

from __future__ import annotations

import random
from collections.abc import Sequence

import networkx as nx

from onecross.characterize import _pair_crosses_cert, oracle_crossing_pair, vertex_disjoint_pairs
from onecross.errors import InconsistencyDetected, NotACycle, PlanarInput
from onecross.graph import EdgePair, Multigraph, PathInGraph, build, restrict
from onecross.kuratowski import enumerate_kuratowski
from onecross.planarity import KuratowskiCert, parse_subdivision, test_planarity as run_planarity
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


def edge_by_edge_kuratowski(gs: Multigraph) -> KuratowskiCert:
    """The reference extraction: drop single edges in id order while nonplanar.

    One left-right test per edge of the simple graph gs; the library's chain
    extraction must keep exactly the same edges.
    """
    current = set(gs.edge_ids())
    for e in sorted(current):
        trial = current - {e}
        if not nx.check_planarity(nx.Graph([gs.endpoints(x) for x in trial]), counterexample=False)[0]:
            current = trial
    return parse_subdivision(restrict(gs, current), current)


def write_edge_list(g: Multigraph, labels: list[str] | None = None) -> str:
    """One `u v` line per edge; isolated vertices are not representable."""
    name = (lambda v: labels[v]) if labels else str
    return "".join(f"{name(u)} {name(v)}\n" for _, (u, v) in g.edge_items())


def subdivided(g: Multigraph, lengths: Sequence[int]) -> Multigraph:
    """g with edge i replaced by a path of lengths[i] edges, in edge-id order."""
    edges: list[tuple[int, int]] = []
    fresh = g.max_vertex() + 1
    for (a, b), s in zip((ends for _, ends in g.edge_items()), lengths):
        prev = a
        for _ in range(s - 1):
            edges.append((prev, fresh))
            prev, fresh = fresh, fresh + 1
        edges.append((prev, b))
    return build(edges, vertices=g.vertices)


def decorated_subdivision(rng: random.Random, g: Multigraph) -> Multigraph:
    """A random subdivision of g with chords, pendant paths, hanging cycles and
    a parallel edge added, its vertex labels and edge order shuffled."""
    h = subdivided(g, [rng.randint(1, 3) for _ in range(g.m)])
    edges = [ends for _, ends in h.edge_items()]
    n = h.max_vertex() + 1
    for _ in range(rng.randint(0, 3)):  # chords
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    for _ in range(rng.randint(0, 2)):  # pendant paths
        prev = rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            edges.append((prev, n))
            prev, n = n, n + 1
    if rng.random() < 0.5:  # a cycle hanging at one vertex
        t = rng.randrange(n)
        edges += [(t, n), (n, n + 1), (n + 1, t)]
        n += 2
    edges.append(rng.choice(edges))
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    return build([(label[u], label[v]) for u, v in edges], vertices=range(n))


def grid_with_diagonals(k: int) -> Multigraph:
    """The k x k grid plus both corner-to-corner diagonals: cr = 1.

    The grid is 3-connected, so both diagonals lie in its outer face, where
    their ends interleave.
    """
    at = lambda r, c: r * k + c  # noqa: E731
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < k:
                edges.append((at(r, c), at(r + 1, c)))
    return build(edges + [(at(0, 0), at(k - 1, k - 1)), (at(0, k - 1), at(k - 1, 0))])
