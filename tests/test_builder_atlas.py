"""The constructive builder on every vertex-disjoint pair of the small atlas.

For each connected nonplanar atlas graph on at most seven vertices and each
of its vertex-disjoint pairs, one sha256 pins the builder's outcome class
and, for a drawing, the rotation at every vertex. It is taken twice: with
the side construction alone, where drawing e across f is declined on every
pair, and with the public builder, which draws e across f where it can. A
change to either route that alters any outcome or any drawing shows here.
"""

from __future__ import annotations

import hashlib

import onecross.characterize as characterize
from onecross import families
from onecross.characterize import build_one_drawing_constructive, vertex_disjoint_pairs
from onecross.errors import PreconditionViolated
from onecross.planarity import test_planarity as run_planarity

# 221 graphs, 10,065 pairs: 1,822 drawings and 8,243 PreconditionViolated
ATLAS_DIGEST = "e9cb8d421671fb5c2000c2e4e287b53090cee37e29a208ff39e6d96ba54b5c3a"
# the same outcomes, 1,460 of the drawings by drawing e across f
PUBLIC_DIGEST = "0d157ef6b9c2761caaa3c7037988198171beb599db56e9f69b8ffa08c2073d4c"


def _outcome(g, p) -> str:
    try:
        drawing = build_one_drawing_constructive(g, p)
    except PreconditionViolated:
        return "PreconditionViolated"
    return f"drawing {sorted(drawing.rotation.rotation.items())}"


def _atlas_digest() -> tuple[int, int, int, str]:
    graphs = [g for g in families.atlas_connected(7) if not run_planarity(g).planar]
    digest = hashlib.sha256()
    pairs = drawings = 0
    for i, g in enumerate(graphs):
        for p in vertex_disjoint_pairs(g):
            outcome = _outcome(g, p)
            digest.update(f"{i} {p.e} {p.f} {outcome}\n".encode())
            pairs += 1
            drawings += outcome.startswith("drawing")
    return len(graphs), pairs, drawings, digest.hexdigest()


def test_side_route_outcomes_and_rotations_on_the_atlas(monkeypatch):
    monkeypatch.setattr(characterize, "_draw_across", lambda g, p, emb: None)
    assert _atlas_digest() == (221, 10_065, 1_822, ATLAS_DIGEST)


def test_builder_outcomes_and_rotations_on_the_atlas(monkeypatch):
    across = characterize._draw_across
    drawn_across = []

    def counting(g, p, emb):
        drawing = across(g, p, emb)
        drawn_across.append(drawing is not None)
        return drawing

    monkeypatch.setattr(characterize, "_draw_across", counting)
    assert _atlas_digest() == (221, 10_065, 1_822, PUBLIC_DIGEST)
    assert sum(drawn_across) == 1_460
