from __future__ import annotations

import math
import re
from xml.dom import minidom

from onecross import families
from onecross.characterize import oracle_crossing_pair, vertex_disjoint_pairs
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


def test_labels_cannot_merge_nodes_or_break_the_svg():
    k5 = families.complete_graph(5)
    labels = ["crossing", 'a"b', "x<y&z", "n0", "back\\slash"]
    drawing = oracle_crossing_pair(k5, vertex_disjoint_pairs(k5)[0])
    dot = to_dot(drawing, labels)
    declared = re.findall(r'^  (n\d+) \[label="((?:[^"\\]|\\.)*)"\];$', dot, re.MULTILINE)
    assert [re.sub(r"\\(.)", r"\1", label) for _, label in declared] == labels
    ends = re.findall(r"^  (\w+) -- (\w+)\b", dot, re.MULTILINE)
    assert len(ends) == drawing.planarization.graph.m
    assert {v for pair in ends for v in pair} == {node for node, _ in declared} | {"crossing"}
    svg = minidom.parseString(to_svg(drawing, labels))
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert texts == labels


def test_svg_replaces_characters_xml_forbids():
    k5 = families.complete_graph(5)
    labels = ["a\x01b", "\x00", "esc\x1b", "\ufffe", "ok"]
    svg = minidom.parseString(to_svg(oracle_crossing_pair(k5, vertex_disjoint_pairs(k5)[0]), labels))
    texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
    assert texts == ["a\ufffdb", "\ufffd", "esc\ufffd", "\ufffd", "ok"]
