"""Decide whether a graph has crossing number at most one, with certificates.

The public surface re-exports the main operations; see README for the CLI.
"""

from .bridges import (
    Bridge,
    Cofacial,
    Detached,
    OverlapVerdict,
    decompose,
    detaching_cycle_ve,
    detaching_cycle_vv,
    overlap,
)
from .characterize import (
    AT_LEAST_TWO,
    EXACTLY_ONE,
    PLANAR,
    ConditionReport,
    CrossingDecision,
    OneDrawing,
    Planarization,
    build_one_drawing_constructive,
    check_equivalence,
    condition_ii,
    condition_iii,
    crossing_number_le_1,
    oracle_crossing_pair,
    planarize,
    unplanarize,
    vertex_disjoint_pairs,
)
from .graph import (
    EdgePair,
    Multigraph,
    PathInGraph,
    build,
    delete_edges,
    make_pair,
)
from .kuratowski import (
    branch_structure,
    enumerate_kuratowski,
    is_crossing_pair_in_kuratowski,
)
from .planarity import (
    KuratowskiCert,
    PlanarityResult,
    RotationSystem,
    embed_with_outer_cycle,
    test_planarity,
)
from .separation import (
    SeparationVerdict,
    SeparationWitness,
    separated_by_cycles,
    verify_separation_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
