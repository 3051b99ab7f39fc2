"""Loop-free multigraph with stable integer edge ids, plus path/cycle vocabulary.

Every other module consumes these types. Graphs are immutable after build;
all operations return new values. Edge ids are assigned in input order and
survive edge deletion, so certificates can always reference original edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence, Set
from dataclasses import dataclass

from .errors import LoopEdge, NotACycle, SearchBudgetExceeded, UnknownEdge, UnknownVertex


class Multigraph:
    """Undirected loop-free multigraph. Parallel edges carry distinct ids."""

    __slots__ = ("_vertices", "_endpoints", "_adjacency")

    def __init__(
        self,
        vertices: frozenset[int],
        endpoints: dict[int, tuple[int, int]],
        adjacency: dict[int, tuple[int, ...]],
    ) -> None:
        self._vertices = vertices
        self._endpoints = endpoints
        self._adjacency = adjacency

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._endpoints)

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._endpoints))

    def has_edge(self, e: int) -> bool:
        return e in self._endpoints

    def endpoints(self, e: int) -> tuple[int, int]:
        try:
            return self._endpoints[e]
        except KeyError:
            raise UnknownEdge(e) from None

    def other_end(self, e: int, v: int) -> int:
        a, b = self.endpoints(e)
        if v == a:
            return b
        if v == b:
            return a
        raise UnknownVertex(v)

    def edges_at(self, v: int) -> tuple[int, ...]:
        try:
            return self._adjacency[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def degree(self, v: int) -> int:
        return len(self.edges_at(v))

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(e for e in self.edges_at(u) if self.other_end(e, u) == v)

    def are_adjacent(self, u: int, v: int) -> bool:
        return bool(self.edges_between(u, v))

    def edge_items(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        return tuple(sorted(self._endpoints.items()))

    def max_vertex(self) -> int:
        return max(self._vertices) if self._vertices else -1

    def max_edge_id(self) -> int:
        return max(self._endpoints) if self._endpoints else -1

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        if self._vertices != other._vertices:
            return False
        if set(self._endpoints) != set(other._endpoints):
            return False
        norm = lambda p: (min(p), max(p))
        return all(norm(self._endpoints[e]) == norm(other._endpoints[e]) for e in self._endpoints)

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(sorted((e, min(p), max(p)) for e, p in self._endpoints.items()))))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


def build(edges: Sequence[tuple[int, int]], vertices: Iterable[int] = ()) -> Multigraph:
    """Build a multigraph from endpoint pairs; edge ids follow input order."""
    endpoint_map: dict[int, tuple[int, int]] = {}
    vertex_set: set[int] = set(vertices)
    for index, (u, v) in enumerate(edges):
        if u == v:
            raise LoopEdge(index, u)
        endpoint_map[index] = (u, v)
        vertex_set.add(u)
        vertex_set.add(v)
    return _assemble(frozenset(vertex_set), endpoint_map)


def _assemble(vertices: frozenset[int], endpoints: dict[int, tuple[int, int]]) -> Multigraph:
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for e in sorted(endpoints):
        u, v = endpoints[e]
        adjacency[u].append(e)
        adjacency[v].append(e)
    return Multigraph(vertices, endpoints, {v: tuple(es) for v, es in adjacency.items()})


def delete_edges(g: Multigraph, edge_ids: Iterable[int]) -> Multigraph:
    """Remove the listed edges; vertices and surviving edge ids are unchanged."""
    doomed = set(edge_ids)
    for e in doomed:
        if not g.has_edge(e):
            raise UnknownEdge(e)
    endpoints = {e: p for e, p in g.edge_items() if e not in doomed}
    return _assemble(g.vertices, endpoints)


def extend(
    g: Multigraph,
    new_vertices: Iterable[int] = (),
    new_edges: Sequence[tuple[int, int]] = (),
) -> tuple[Multigraph, tuple[int, ...]]:
    """Add vertices/edges; new edge ids continue past the current maximum."""
    endpoints = dict(g.edge_items())
    vertex_set = set(g.vertices) | set(new_vertices)
    next_id = g.max_edge_id() + 1
    new_ids = []
    for u, v in new_edges:
        if u == v:
            raise LoopEdge(next_id, u)
        vertex_set.add(u)
        vertex_set.add(v)
        endpoints[next_id] = (u, v)
        new_ids.append(next_id)
        next_id += 1
    return _assemble(frozenset(vertex_set), endpoints), tuple(new_ids)


def restrict(g: Multigraph, edge_ids: Iterable[int], vertices: Iterable[int] = ()) -> Multigraph:
    """The subgraph on the given edges (ids preserved) plus any extra isolated vertices."""
    keep = set(edge_ids)
    endpoints = {}
    vertex_set = set(vertices)
    for e in keep:
        u, v = g.endpoints(e)
        endpoints[e] = (u, v)
        vertex_set.add(u)
        vertex_set.add(v)
    return _assemble(frozenset(vertex_set), endpoints)


def subdivide_edge(g: Multigraph, e: int) -> tuple[Multigraph, int, tuple[int, int]]:
    """Replace edge e=(a,b) by a-m-b with a fresh vertex m; returns (g', m, half ids)."""
    a, b = g.endpoints(e)
    m = g.max_vertex() + 1
    g2 = delete_edges(g, [e])
    g3, halves = extend(g2, [m], [(a, m), (m, b)])
    return g3, m, (halves[0], halves[1])


def simplify(g: Multigraph) -> tuple[Multigraph, dict[int, int]]:
    """Drop parallel duplicates, keeping the lowest id of each class.

    Returns the simple graph and a map edge id -> representative id.
    """
    to_rep = {e: es[0] for es in parallel_classes(g).values() for e in es}
    return restrict(g, set(to_rep.values()), g.vertices), to_rep


def parallel_classes(g: Multigraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Map each adjacent pair (u, v) with u < v to its sorted parallel class."""
    classes: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in g.edge_items():
        classes.setdefault((min(u, v), max(u, v)), []).append(e)
    return {pair: tuple(sorted(es)) for pair, es in classes.items()}


def connected_components(g: Multigraph) -> list[frozenset[int]]:
    """Vertex sets of connected components, ordered by smallest vertex."""
    seen: set[int] = set()
    comps = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in g.edges_at(v):
                w = g.other_end(e, v)
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Multigraph) -> bool:
    return len(connected_components(g)) <= 1


def degree2_chains(g: Multigraph) -> list[PathInGraph]:
    """The maximal walks of g whose interior vertices have degree 2.

    An open chain runs from one end to the other; a component that is a cycle
    is one closed chain, starting at its least edge's first end and running
    through that edge. Every edge lies in exactly one chain, and chains come
    in order of their least edge id.
    """
    seen: set[int] = set()
    chains = []
    for first in g.edge_ids():
        if first in seen:
            continue
        seen.add(first)
        a, b = g.endpoints(first)
        walks = []
        # ahead from b first: round a cycle it comes back to a, leaving no walk back from a
        for v in (b, a):
            verts, edges, prev = [v], [], first
            while g.degree(v) == 2:
                nxt = next(x for x in g.edges_at(v) if x != prev)
                if nxt in seen:  # walked all the way round a cycle
                    break
                seen.add(nxt)
                prev, v = nxt, g.other_end(nxt, v)
                verts.append(v)
                edges.append(nxt)
            walks.append((verts, edges))
        (ahead_vs, ahead_es), (back_vs, back_es) = walks
        chains.append(PathInGraph(tuple(back_vs[::-1] + ahead_vs), tuple(back_es[::-1] + [first] + ahead_es)))
    return chains


def kernel(g: Multigraph) -> tuple[Multigraph, dict[int, PathInGraph]]:
    """g with each degree-2 chain smoothed to one edge, and each kernel edge's walk in g.

    Chains that close on themselves are dropped, and smoothing repeats until
    no vertex has degree 2. A kernel edge keeps its walk's least id and ends.
    Without a degree-2 vertex the kernel is g itself.
    """
    k, walks = g, {e: PathInGraph(ends, (e,)) for e, ends in g.edge_items()}
    while any(k.degree(v) == 2 for v in k.vertices):
        open_chains = [c for c in degree2_chains(k) if not c.is_cycle]
        walks = {min(c.edges): expand_path(c, walks) for c in open_chains}
        k = _assemble(frozenset(v for v in k.vertices if k.degree(v) != 2),
                      {e: (w.vertices[0], w.vertices[-1]) for e, w in walks.items()})
    return k, walks


def expand_path(path: PathInGraph, walks: dict[int, PathInGraph]) -> PathInGraph:
    """A path of a kernel, each edge replaced by its walk."""
    verts, edges = [path.vertices[0]], []
    for e in path.edges:
        w = walks[e]
        if w.vertices[0] != verts[-1]:
            w = PathInGraph(w.vertices[::-1], w.edges[::-1])
        verts += w.vertices[1:]
        edges += w.edges
    return PathInGraph(tuple(verts), tuple(edges))


# ---------------------------------------------------------------------------
# Paths and cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgePair:
    """Unordered pair of distinct edge ids, normalized so e < f."""

    e: int
    f: int

    def __post_init__(self) -> None:
        if self.e == self.f:
            raise ValueError("edge pair must contain two distinct edges")
        if self.e > self.f:
            lo, hi = self.f, self.e
            object.__setattr__(self, "e", lo)
            object.__setattr__(self, "f", hi)

    def __iter__(self) -> Iterator[int]:
        return iter((self.e, self.f))


def make_pair(a: int, b: int) -> EdgePair:
    return EdgePair(a, b)


@dataclass(frozen=True)
class PathInGraph:
    """Alternating vertex/edge sequence; a cycle repeats only its first vertex."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def is_cycle(self) -> bool:
        return len(self.vertices) > 1 and self.vertices[0] == self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def validate(self, g: Multigraph) -> None:
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("vertex/edge sequences out of step")
        interior = self.vertices[:-1] if self.is_cycle else self.vertices
        if len(set(interior)) != len(interior):
            raise ValueError("repeated vertex in simple path")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("repeated edge in path")
        for i, e in enumerate(self.edges):
            a, b = g.endpoints(e)
            if {a, b} != {self.vertices[i], self.vertices[i + 1]}:
                raise ValueError(f"edge {e} does not join consecutive path vertices")


def require_cycle(g: Multigraph, c: PathInGraph) -> None:
    if not c.is_cycle:
        raise NotACycle("path is not closed")
    try:
        c.validate(g)
    except ValueError as exc:
        raise NotACycle(str(exc)) from exc


# ---------------------------------------------------------------------------
# Enumeration primitives
# ---------------------------------------------------------------------------


class _StepBudget:
    __slots__ = ("remaining",)

    def __init__(self, budget: int | None) -> None:
        self.remaining = budget

    def spend(self) -> None:
        if self.remaining is None:
            return
        if self.remaining <= 0:
            raise SearchBudgetExceeded("search step budget exhausted")
        self.remaining -= 1


def simple_paths(
    g: Multigraph,
    s: int,
    t: int,
    blocked_vertices: Set[int] = frozenset(),
    blocked_edges: frozenset[int] = frozenset(),
    length: int | None = None,
    budget: _StepBudget | None = None,
) -> Iterator[PathInGraph]:
    """Simple st-paths (s != t) in lexicographic order of edge ids.

    No path enters a blocked vertex or uses a blocked edge; t must not be
    blocked, s may be. With `length`, only paths of exactly that many edges are
    yielded. The budget is spent once per vertex entered, s included. The
    search keeps an explicit stack, so path length is not bounded by recursion.
    """
    endpoints = g._endpoints
    adjacency = g._adjacency
    spend = budget.spend if budget is not None else None
    if spend is not None:
        spend()
    # edges the path may still take; without a length it never drops to 1
    left = length if length is not None else g.n + 1
    verts = [s]
    edges: list[int] = []
    on_path = {s}
    stack = [iter(adjacency[s])]
    v = s
    while True:
        for e in stack[-1]:
            if e in blocked_edges:
                continue
            a, b = endpoints[e]
            w = b if a == v else a
            if w in on_path or w in blocked_vertices:
                continue
            if w == t:
                if left == 1 or length is None:
                    yield PathInGraph(tuple(verts) + (t,), tuple(edges) + (e,))
                continue
            if left <= 1:
                continue
            if spend is not None:
                spend()
            verts.append(w)
            edges.append(e)
            on_path.add(w)
            stack.append(iter(adjacency[w]))
            v = w
            left -= 1
            break
        else:
            if not edges:
                return
            stack.pop()
            edges.pop()
            on_path.discard(verts.pop())
            v = verts[-1]
            left += 1


def paths_by_length(
    g: Multigraph,
    s: int,
    t: int,
    forbidden_vertices: frozenset[int] = frozenset(),
    forbidden_edges: frozenset[int] = frozenset(),
    budget: _StepBudget | None = None,
) -> Iterator[PathInGraph]:
    """Simple st-paths ordered by length then lexicographic edge ids."""
    if s in forbidden_vertices or t in forbidden_vertices:
        return
    counter = budget or _StepBudget(None)
    for depth in range(1, g.n):
        yield from simple_paths(g, s, t, forbidden_vertices, forbidden_edges, depth, counter)


def cycles_through_edge(
    g: Multigraph,
    e: int,
    forbidden_vertices: Iterable[int] = (),
    budget: _StepBudget | None = None,
    min_edge_id: int | None = None,
) -> Iterator[PathInGraph]:
    """Cycles containing edge e, shortest first; optionally only edges >= min_edge_id."""
    a, b = g.endpoints(e)
    banned_v = frozenset(forbidden_vertices)
    banned_e = frozenset({e} | ({x for x in g.edge_ids() if x < min_edge_id} if min_edge_id is not None else set()))
    for path in paths_by_length(g, b, a, banned_v, banned_e, budget):
        yield PathInGraph((a,) + path.vertices, (e,) + path.edges)


def all_cycles(g: Multigraph, budget: _StepBudget | None = None) -> Iterator[PathInGraph]:
    """All cycles of g, each exactly once (anchored at its minimum edge id)."""
    for e in g.edge_ids():
        yield from cycles_through_edge(g, e, budget=budget, min_edge_id=e)
