"""The constructive builder on every vertex-disjoint pair of the small atlas.

One sha256 pins, for each connected nonplanar atlas graph on at most seven
vertices and each of its vertex-disjoint pairs, the builder's outcome class
and, for a drawing, the rotation at every vertex. A change to the builder
that alters any outcome or any drawing shows here.
"""

from __future__ import annotations

import hashlib

from onecross import families
from onecross.characterize import build_one_drawing_constructive, vertex_disjoint_pairs
from onecross.errors import PreconditionViolated
from onecross.planarity import test_planarity as run_planarity

# 221 graphs, 10,065 pairs: 1,822 drawings and 8,243 PreconditionViolated
ATLAS_DIGEST = "e9cb8d421671fb5c2000c2e4e287b53090cee37e29a208ff39e6d96ba54b5c3a"


def _outcome(g, p) -> str:
    try:
        drawing = build_one_drawing_constructive(g, p)
    except PreconditionViolated:
        return "PreconditionViolated"
    return f"drawing {sorted(drawing.rotation.rotation.items())}"


def test_builder_outcomes_and_rotations_on_the_atlas():
    graphs = [g for g in families.atlas_connected(7) if not run_planarity(g).planar]
    digest = hashlib.sha256()
    pairs = drawings = 0
    for i, g in enumerate(graphs):
        for p in vertex_disjoint_pairs(g):
            outcome = _outcome(g, p)
            digest.update(f"{i} {p.e} {p.f} {outcome}\n".encode())
            pairs += 1
            drawings += outcome.startswith("drawing")
    assert (len(graphs), pairs, drawings) == (221, 10_065, 1_822)
    assert digest.hexdigest() == ATLAS_DIGEST
