"""Crossing pairs of a nonplanar graph: oracle, equivalent conditions, builder.

Three independently computed conditions must always agree:

  (i)   the gadget oracle: replace the pair by a degree-4 crossing vertex and
        test planarity of the result;
  (ii)  the pair is a crossing pair of every Kuratowski subdivision and is not
        separated by cycles;
  (iii) the pair is not separated, both single-edge deletions are planar, and
        some Kuratowski subdivision has the pair as a crossing pair.

A disagreement can only be an implementation bug: `onecross pairs` aborts
loudly on it and `onecross corpus` counts it.
The constructive builder produces a one-crossing drawing by embedding the two
sides of a detaching cycle on the planarization, each with the cycle through
the crossing vertex bounding a face and its own half of e, and gluing them.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .bridges import decompose, overlap, side_of_bridge
from .errors import EnumerationBudgetExceeded, InconsistencyDetected, PlanarInput, PreconditionViolated
from .graph import (
    EdgePair,
    Multigraph,
    PathInGraph,
    _assemble,
    degree2_chains,
    delete_edges,
    expand_path,
    extend,
    kernel,
    make_pair,
    restrict,
)
from .kuratowski import branch_structure, enumerate_kuratowski, is_crossing_pair_in_kuratowski
from .planarity import (
    KuratowskiCert,
    PlanarityResult,
    RotationSystem,
    embed_with_outer_cycle,
    parse_subdivision,
    test_planarity,
)
from .separation import SeparationVerdict, separated_by_cycles


# ---------------------------------------------------------------------------
# Planarization and one-crossing drawings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Planarization:
    """g with the pair {e,f} replaced by a degree-4 crossing vertex w."""

    graph: Multigraph
    pair: EdgePair
    w: int
    e_ends: tuple[int, int]
    f_ends: tuple[int, int]
    e_halves: tuple[int, int]
    f_halves: tuple[int, int]


def planarize(g: Multigraph, p: EdgePair) -> Planarization:
    u, v = g.endpoints(p.e)
    x, y = g.endpoints(p.f)
    w = g.max_vertex() + 1
    g2 = delete_edges(g, [p.e, p.f])
    g3, ids = extend(g2, [w], [(u, w), (w, v), (x, w), (w, y)])
    return Planarization(g3, p, w, (u, v), (x, y), (ids[0], ids[1]), (ids[2], ids[3]))


def unplanarize(pz: Planarization) -> Multigraph:
    """Reconstruct the original graph exactly (ids included)."""
    doomed = set(pz.e_halves) | set(pz.f_halves)
    endpoints = {e: ends for e, ends in pz.graph.edge_items() if e not in doomed}
    endpoints[pz.pair.e] = pz.e_ends
    endpoints[pz.pair.f] = pz.f_ends
    return _assemble(pz.graph.vertices - {pz.w}, endpoints)


@dataclass(frozen=True)
class OneDrawing:
    """Certificate for cr(g) = 1: a planar embedding of the planarization."""

    planarization: Planarization
    rotation: RotationSystem

    @property
    def crossing_pair(self) -> EdgePair:
        return self.planarization.pair

    def alternates_at_crossing(self) -> bool:
        pz = self.planarization
        kinds = []
        for e in self.rotation.rotation[pz.w]:
            if e in pz.e_halves:
                kinds.append("e")
            elif e in pz.f_halves:
                kinds.append("f")
            else:
                return False
        if len(kinds) != 4:
            return False
        return all(kinds[i] != kinds[(i + 1) % 4] for i in range(4))

    def validate(self, host: Multigraph) -> None:
        if self.rotation.graph != self.planarization.graph:
            raise InconsistencyDetected("drawing rotation is not over the planarized graph")
        if not self.rotation.is_planar_embedding():
            raise InconsistencyDetected("drawing rotation fails the Euler check")
        if not self.alternates_at_crossing():
            raise InconsistencyDetected("crossing vertex rotation does not alternate")
        if unplanarize(self.planarization) != host:
            raise InconsistencyDetected("un-planarizing does not reproduce the input graph")


# ---------------------------------------------------------------------------
# Condition (i): the independent gadget oracle
# ---------------------------------------------------------------------------


def oracle_crossing_pair(g: Multigraph, p: EdgePair) -> OneDrawing | None:
    """A verified OneDrawing with the pair crossing, or None.

    Never consults the equivalence conditions: the answer is the planarity of
    the planarized graph, the only graph tested. Crossing pairs are defined
    for nonplanar g only, and the caller decides that: on planar g the gadget
    verdict is returned all the same.
    """
    if set(g.endpoints(p.e)) & set(g.endpoints(p.f)):
        return None
    pz = planarize(g, p)
    res = test_planarity(pz.graph)
    if not res.planar:
        return None
    drawing = OneDrawing(pz, res.embedding)
    drawing.validate(g)
    return drawing


def vertex_disjoint_pairs(g: Multigraph) -> list[EdgePair]:
    ids = g.edge_ids()
    out = []
    for i, e in enumerate(ids):
        ue = set(g.endpoints(e))
        for f in ids[i + 1 :]:
            if not (ue & set(g.endpoints(f))):
                out.append(make_pair(e, f))
    return out


# ---------------------------------------------------------------------------
# Conditions (ii) and (iii)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CondII:
    holds: bool
    failing_cert: KuratowskiCert | None
    certs_checked: int
    separation: SeparationVerdict | None


@dataclass(frozen=True)
class CondIII:
    holds: bool
    separation: SeparationVerdict
    planar_minus_e: bool
    planar_minus_f: bool
    witness_cert: KuratowskiCert | None


def _pair_crosses_cert(cert: KuratowskiCert, p: EdgePair) -> bool:
    if p.e not in cert.edges or p.f not in cert.edges:
        return False
    return is_crossing_pair_in_kuratowski(branch_structure(cert), p.e, p.f)


def condition_ii(p: EdgePair, certs: Iterable[KuratowskiCert], sep: SeparationVerdict) -> CondII:
    """Crossing pair of every Kuratowski subdivision, and not separated.

    `certs` are all Kuratowski subdivisions of g, read in order up to the first
    one the pair does not cross; `sep` is the pair's separation verdict.
    """
    checked = 0
    for cert in certs:
        checked += 1
        if not _pair_crosses_cert(cert, p):
            return CondII(False, cert, checked, None)
    return CondII(not sep.separated, None, checked, sep)


def condition_iii(
    p: EdgePair,
    certs: Iterable[KuratowskiCert],
    sep: SeparationVerdict,
    planar_minus_e: bool,
    planar_minus_f: bool,
) -> CondIII:
    """Not separated, both deletions planar, and some subdivision crosses the pair.

    `certs` are the Kuratowski subdivisions of g, read only when the other
    conjuncts hold and only up to the first that crosses the pair.
    """
    witness = None
    if not sep.separated and planar_minus_e and planar_minus_f:
        witness = next((cert for cert in certs if _pair_crosses_cert(cert, p)), None)
    return CondIII(witness is not None, sep, planar_minus_e, planar_minus_f, witness)


@dataclass(frozen=True)
class ConditionReport:
    pair: EdgePair
    cond_i: bool
    drawing: OneDrawing | None
    cond_ii: CondII
    cond_iii: CondIII

    @property
    def consistent(self) -> bool:
        return self.cond_i == self.cond_ii.holds == self.cond_iii.holds


def _deletion_tests(g: Multigraph) -> Callable[[int], PlanarityResult]:
    """Planarity of g - x for an edge x, tested at most once per edge."""
    return functools.cache(lambda x: test_planarity(delete_edges(g, [x])))


def check_equivalence(
    g: Multigraph, budget: int | None = None
) -> tuple[list[KuratowskiCert], Iterator[ConditionReport]]:
    """All Kuratowski subdivisions of g and a lazy report per vertex-disjoint pair.

    g is tested once (PlanarInput if planar) and its subdivisions enumerated
    once; each G - x is decided at most once, however many pairs contain x.
    Each report, in `vertex_disjoint_pairs` order, computes the three
    conditions independently from that shared evidence; a disagreement shows
    as `not report.consistent` and is the caller's to raise. `budget` bounds
    each pair's separation search.
    """
    if test_planarity(g).planar:
        raise PlanarInput("the equivalence concerns nonplanar graphs")
    certs = list(enumerate_kuratowski(g))
    deletion = _deletion_tests(g)

    def reports() -> Iterator[ConditionReport]:
        for p in vertex_disjoint_pairs(g):
            sep = separated_by_cycles(g, p, budget=budget)
            drawing = oracle_crossing_pair(g, p)
            two = condition_ii(p, certs, sep)
            three = condition_iii(p, certs, sep, deletion(p.e).planar, deletion(p.f).planar)
            yield ConditionReport(p, drawing is not None, drawing, two, three)

    return certs, reports()


# ---------------------------------------------------------------------------
# The decision: cr(g) in {0, 1, >= 2}
# ---------------------------------------------------------------------------


PLANAR = "planar"
EXACTLY_ONE = "one"
AT_LEAST_TWO = "two_plus"


@dataclass(frozen=True)
class PairFailure:
    pair: EdgePair
    reason: str  # "separated" | "deletion_nonplanar"
    separation: SeparationVerdict | None


@dataclass(frozen=True)
class CrossingDecision:
    kind: str
    embedding: RotationSystem | None
    drawing: OneDrawing | None
    failures: tuple[PairFailure, ...]


def crossing_number_le_1(g: Multigraph, budget: int | None = None) -> CrossingDecision:
    """Planar / exactly one crossing (with drawing) / at least two (with evidence).

    Any crossing pair of g is a crossing pair of one fixed Kuratowski
    subdivision, so only those candidates are tried, in id order and generated
    one at a time:

      * a candidate with an edge whose deletion stays nonplanar fails;
      * otherwise the gadget oracle decides it, and its first hit is the
        `one` verdict with the oracle's drawing;
      * otherwise the oracle's refusal is held back.

    Subdividing edges and dropping cycles that hang at one vertex do not
    change a deletion's planarity, so the deletions are tested on g's kernel,
    once per kernel edge.

    Only when every candidate fails is the evidence for cr >= 2 built, in
    candidate order. A deletion g - x that stays nonplanar is covered by a
    validated Kuratowski subdivision that avoids x, since that is a subgraph
    of g - x: one built for an earlier edge if any avoids x, else the kernel
    deletion's own, expanded to g, so one subdivision covers many deletions.
    A refused pair gets a separation witness. By the equivalence of (i) and
    (iii) such a witness exists; a NOT_SEPARATED verdict is an inconsistency.
    `budget` bounds each of these separation searches.
    """
    res = test_planarity(g)
    if res.planar:
        return CrossingDecision(PLANAR, res.embedding, None, ())

    k, walks = kernel(g)
    kernel_edge = {x: e for e, walk in walks.items() for x in walk.edges}
    deletion = _deletion_tests(k)
    # each failed pair, with its edge x if g - x stays nonplanar
    held: list[tuple[EdgePair, int | None]] = []
    for pair in _candidate_pairs(res.kuratowski):
        x = next((y for y in pair if not deletion(kernel_edge[y]).planar), None)
        if x is not None:
            held.append((pair, x))
            continue
        drawing = oracle_crossing_pair(g, pair)
        if drawing is not None:
            return CrossingDecision(EXACTLY_ONE, None, drawing, ())
        held.append((pair, None))

    failures = []
    covers: list[KuratowskiCert] = []
    for pair, x in held:
        if x is not None:
            if all(x in cover.edges for cover in covers):
                sub = deletion(kernel_edge[x]).kuratowski
                covers.append(parse_subdivision(g, {y for e in sub.edges for y in walks[e].edges}))
                if x in covers[-1].edges:
                    raise InconsistencyDetected(f"the subdivision of g - {x} contains {x}")
            failures.append(PairFailure(pair, "deletion_nonplanar", None))
            continue
        sep = separated_by_cycles(g, pair, budget=budget)
        if not sep.separated:
            raise InconsistencyDetected(
                f"condition (iii) holds for ({pair.e},{pair.f}) but the oracle refuses it"
            )
        failures.append(PairFailure(pair, "separated", sep))
    return CrossingDecision(AT_LEAST_TWO, None, None, tuple(failures))


def _candidate_pairs(cert: KuratowskiCert) -> Iterator[EdgePair]:
    """The crossing pairs of one Kuratowski subdivision, in id order."""
    bs = branch_structure(cert)
    ids = sorted(cert.edges)
    for i, e in enumerate(ids):
        for f in ids[i + 1 :]:
            if is_crossing_pair_in_kuratowski(bs, e, f):
                yield make_pair(e, f)


# ---------------------------------------------------------------------------
# The constructive builder (embed each side on the planarization, glue)
# ---------------------------------------------------------------------------


def build_one_drawing_constructive(g: Multigraph, p: EdgePair) -> OneDrawing:
    """Construct a drawing with {e,f} crossing without consulting the gadget.

    Route: g-e must be planar, and the witness is g's first Kuratowski
    subdivision H, enumerated or, above the enumeration's gate, extracted; by
    (i) => (ii) every subdivision crosses a crossing pair. The edges of H that
    cross e form the one cycle C of H-e detaching e's ends, and f lies on C.
    Embed g-e and split the bridges by side of C. On the planarization, where
    f runs through the crossing vertex w, each side takes its half of e and
    is embedded with C through w bounding a face; glued along that face, the
    two sides are the drawing, which also embeds g-f.

    No search runs. Every step is checked, and only a failed step consults
    the gadget: a nonplanar gadget graph raises PreconditionViolated;
    otherwise the step's InconsistencyDetected stands.
    """
    e, f = p.e, p.f
    u, v = g.endpoints(e)
    g_minus_e = delete_edges(g, [e])
    minus_e = test_planarity(g_minus_e)
    witness = None
    if minus_e.planar:
        try:
            witness = next(enumerate_kuratowski(g), None)
        except EnumerationBudgetExceeded:
            witness = test_planarity(g).kuratowski
    if witness is None or not _pair_crosses_cert(witness, p):
        raise PreconditionViolated("g - e is nonplanar or a Kuratowski subdivision does not cross the pair")

    try:
        bs = branch_structure(witness)
        crossing_e = [x for x in witness.edges if is_crossing_pair_in_kuratowski(bs, e, x)]
        cycle = _walk_cycle(g, crossing_e)
        if f not in cycle.edge_set() or u in cycle.vertex_set() or v in cycle.vertex_set():
            raise InconsistencyDetected("detaching cycle must carry f and avoid the ends of e")

        emb = minus_e.embedding
        all_bridges = decompose(g_minus_e, cycle)
        bridge_u = next(b for b in all_bridges if u in b.nucleus)
        bridge_v = next(b for b in all_bridges if v in b.nucleus)
        if bridge_u == bridge_v:
            raise InconsistencyDetected("ends of e in one bridge would yield separating cycles")
        if not overlap(bridge_u, bridge_v, cycle).overlapping:
            raise InconsistencyDetected("the end bridges of e must overlap on the detaching cycle")

        sides = {b: side_of_bridge(emb, cycle, b) for b in all_bridges}
        if sides[bridge_u] == sides[bridge_v]:
            raise InconsistencyDetected("overlapping bridges embedded on one side")

        pz = planarize(g, p)
        walks = {x: PathInGraph(g.endpoints(x), (x,)) for x in cycle.edges}
        walks[f] = PathInGraph((pz.f_ends[0], pz.w, pz.f_ends[1]), pz.f_halves)
        cycle_w = expand_path(cycle, walks)
        u_edges, v_edges = {pz.e_halves[0], *cycle_w.edges}, {pz.e_halves[1], *cycle_w.edges}
        u_verts, v_verts = set(cycle_w.vertices), set(cycle_w.vertices)
        for b in all_bridges:
            target_e, target_v = (v_edges, v_verts) if sides[b] == sides[bridge_v] else (u_edges, u_verts)
            target_e |= b.edges
            target_v |= b.nucleus | b.attachments

        # each side's half of e ends at w on the cycle, so it is drawn on the
        # far side of the cycle's face, between the two halves of f
        emb_u = embed_with_outer_cycle(restrict(pz.graph, u_edges, u_verts), cycle_w)
        emb_v = embed_with_outer_cycle(restrict(pz.graph, v_edges, v_verts), cycle_w)
        if emb_u is None or emb_v is None:
            raise InconsistencyDetected("side embedding with prescribed face must exist")
        drawing = OneDrawing(pz, _glue_along_cycle(emb_u, emb_v, cycle_w, pz.graph))
        drawing.validate(g)
    except InconsistencyDetected as err:
        if oracle_crossing_pair(g, p) is None:
            raise PreconditionViolated("the gadget graph is nonplanar: not a crossing pair") from err
        raise
    return drawing


def _walk_cycle(g: Multigraph, edges: Iterable[int]) -> PathInGraph:
    """The cycle that `edges` form, walked a -> b -> ... -> a from its least edge (a, b).

    InconsistencyDetected unless they are one closed degree-2 chain.
    """
    chains = degree2_chains(restrict(g, edges))
    if len(chains) != 1 or not chains[0].is_cycle:
        raise InconsistencyDetected("the edges crossing e do not form one cycle")
    return chains[0]


def _glue_along_cycle(
    emb_u: RotationSystem, emb_v: RotationSystem, cycle: PathInGraph, host: Multigraph
) -> RotationSystem:
    """Join two one-sided embeddings along their shared cycle face.

    Both come from `embed_with_outer_cycle`, so at each cycle vertex the
    rotation runs from one cycle edge to the other and the cycle's face is the
    corner from the last back to the first. Once v is mirrored, if need be, to
    start where u ends, v's edges between its two cycle edges fill that
    corner of u at every cycle vertex.
    """
    q0 = cycle.vertices[0]
    if emb_v.rotation[q0][0] == emb_u.rotation[q0][0]:
        emb_v = emb_v.mirrored()
    rotation = {q: () for q in host.vertices} | emb_u.rotation | emb_v.rotation
    for q in cycle.vertices:
        rotation[q] = emb_u.rotation[q] + emb_v.rotation[q][1:-1]
    glued = RotationSystem(host, rotation)
    if not glued.is_planar_embedding():
        raise InconsistencyDetected("glued embedding fails the Euler check")
    return glued
