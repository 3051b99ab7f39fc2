"""Named graphs and the graph atlas, used by the CLI, the test suite and docs."""

from __future__ import annotations

from itertools import combinations

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from .graph import Multigraph, build


def path_graph(n: int) -> Multigraph:
    return build([(i, i + 1) for i in range(n - 1)], vertices=range(n))


def cycle_graph(n: int) -> Multigraph:
    return build([(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Multigraph:
    return build(list(combinations(range(n), 2)), vertices=range(n))


def complete_bipartite(a: int, b: int) -> Multigraph:
    return build([(i, a + j) for i in range(a) for j in range(b)])


def moebius_ladder(n: int) -> Multigraph:
    """V_{2n}: a 2n-cycle plus the n diameter chords.

    Rim edge i joins (i, i+1 mod 2n) and has id i; chord i has id 2n+i.
    """
    rim = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    chords = [(i, i + n) for i in range(n)]
    return build(rim + chords)


def v8() -> Multigraph:
    return moebius_ladder(4)


def cube_graph() -> Multigraph:
    """Q3 with vertices 0..7 read as binary triples."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return build(edges)


def siran_graph() -> Multigraph:
    """K3,3 on parts {u,v,w} = {0,1,2} and {x,y,z} = {3,4,5}, plus edges uv and yz.

    Within K3,3 the edge between part-one vertex i and part-two vertex j has
    id 3*i + (j-3); edge uv has id 9 and edge yz has id 10.
    """
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    return build(k33 + [(0, 1), (4, 5)])


SIRAN_LABELS = {"u": 0, "v": 1, "w": 2, "x": 3, "y": 4, "z": 5}


def siran_edge(a: str, b: str) -> int:
    """Edge id in siran_graph() for a two-letter name like 'ux' or 'yz'."""
    i, j = sorted((SIRAN_LABELS[a], SIRAN_LABELS[b]))
    if i < 3 <= j:
        return 3 * i + (j - 3)
    if (i, j) == (0, 1):
        return 9
    if (i, j) == (4, 5):
        return 10
    raise ValueError(f"no edge {a}{b} in the Siran graph")


def atlas_connected(max_n: int) -> list[Multigraph]:
    """Connected graphs of the networkx atlas, in atlas order, with 1..max_n vertices."""
    out = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > max_n or not nx.is_connected(G):
            continue
        out.append(build(sorted(tuple(sorted(e)) for e in G.edges()), vertices=range(n)))
    return out
