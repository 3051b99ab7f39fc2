"""The separated-by-cycles predicate: disjoint cycles through each of two edges.

Exhaustive search over cycle pairs, shortest candidate cycle first, so the
returned witness is small and deterministic. A step budget makes long
searches cancellable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistencyDetected
from .graph import (
    Multigraph,
    EdgePair,
    PathInGraph,
    _StepBudget,
    cycles_through_edge,
    restrict,
)


@dataclass(frozen=True)
class SeparationWitness:
    cycle_e: PathInGraph
    cycle_f: PathInGraph


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    witness: SeparationWitness | None


NOT_SEPARATED = SeparationVerdict(False, None)


def verify_separation_witness(g: Multigraph, p: EdgePair, w: SeparationWitness) -> bool:
    """Pure re-check of a separation witness; independent of the search."""
    for cyc, edge in ((w.cycle_e, p.e), (w.cycle_f, p.f)):
        if not cyc.is_cycle:
            return False
        try:
            cyc.validate(g)
        except ValueError:
            return False
        if edge not in cyc.edge_set():
            return False
    return not (w.cycle_e.vertex_set() & w.cycle_f.vertex_set())


def separated_by_cycles(g: Multigraph, p: EdgePair, budget: int | None = None) -> SeparationVerdict:
    """Search for vertex-disjoint cycles C_e containing e and C_f containing f.

    Edges sharing an endpoint are never separated. A NotSeparated verdict is
    exhaustive: no witness exists (given the search completed its budget).
    """
    e_ends = set(g.endpoints(p.e))
    f_ends = set(g.endpoints(p.f))
    if e_ends & f_ends:
        return NOT_SEPARATED

    counter = _StepBudget(budget)
    for cycle_e in cycles_through_edge(g, p.e, forbidden_vertices=f_ends, budget=counter):
        # f's ends are forbidden to cycle_e, so f is among the edges off it
        on_e = cycle_e.vertex_set()
        h = restrict(g, [x for x in g.edge_ids() if on_e.isdisjoint(g.endpoints(x))])
        cycle_f = next(cycles_through_edge(h, p.f, budget=counter), None)
        if cycle_f is None:
            continue
        witness = SeparationWitness(cycle_e, cycle_f)
        if not verify_separation_witness(g, p, witness):
            raise InconsistencyDetected(f"separation witness for ({p.e},{p.f}) fails its own check")
        return SeparationVerdict(True, witness)
    return NOT_SEPARATED
