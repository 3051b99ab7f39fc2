from __future__ import annotations

import math

from onecross import families
from onecross.characterize import oracle_crossing_pair
from onecross.graph import make_pair
from onecross.layout import to_dot, to_svg, tutte_layout


def _v8_drawing():
    v8 = families.v8()
    return v8, oracle_crossing_pair(v8, make_pair(0, 4))


def test_tutte_layout_places_every_vertex():
    _, drawing = _v8_drawing()
    pos = tutte_layout(drawing.rotation)
    assert set(pos) == set(drawing.rotation.graph.vertices)
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in pos.values())


def test_dot_mentions_crossing_and_all_edges():
    _, drawing = _v8_drawing()
    dot = to_dot(drawing, [f"v{i}" for i in range(8)])
    assert dot.count("--") == drawing.planarization.graph.m
    assert "crossing [shape=point" in dot
    assert '"v3"' in dot


def test_svg_renders_crossing_marker():
    _, drawing = _v8_drawing()
    svg = to_svg(drawing, [f"v{i}" for i in range(8)])
    assert svg.startswith("<svg")
    assert svg.count("<line") == drawing.planarization.graph.m
    assert "<path" in svg  # the x marker


def test_k33_drawing_renders():
    k33 = families.complete_bipartite(3, 3)
    drawing = oracle_crossing_pair(k33, make_pair(0, 4))
    assert to_svg(drawing).startswith("<svg")
