from __future__ import annotations

import re
from xml.dom import minidom

import onecross.layout as layout
from onecross import families
from onecross.characterize import oracle_crossing_pair, vertex_disjoint_pairs
from onecross.graph import build, make_pair
from onecross.layout import planar_layout, to_dot, to_svg
from helpers import subdivided


def _v8_drawing():
    v8 = families.v8()
    return v8, oracle_crossing_pair(v8, make_pair(0, 4))


def test_planar_layout_draws_no_degenerate_picture():
    # the second graph is one where a barycentric layout put vertex 6 on vertex 1
    atlas = build([(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (3, 4), (4, 5)])
    for g in (families.v8(), atlas):
        rs = oracle_crossing_pair(g, make_pair(0, 4)).rotation
        pos = planar_layout(rs)
        assert set(pos) == set(rs.graph.vertices)
        assert all(isinstance(c, int) for point in pos.values() for c in point)
        assert len(set(pos.values())) == len(pos)
        for _, (a, b) in rs.graph.edge_items():
            (ax, ay), (bx, by) = pos[a], pos[b]
            for v, (x, y) in pos.items():
                on_line = (bx - ax) * (y - ay) == (by - ay) * (x - ax)
                between = min(ax, bx) <= x <= max(ax, bx) and min(ay, by) <= y <= max(ay, by)
                assert v in (a, b) or not (on_line and between), (a, b, v)


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


def test_svg_takes_the_minima_once(monkeypatch):
    # the offsets of the picture are computed once, not once per point
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return min(*args, **kwargs)

    monkeypatch.setattr(layout, "min", counting, raising=False)
    k33 = families.complete_bipartite(3, 3)
    counts = []
    for s in (5, 20):
        g = subdivided(k33, [s] * 9)
        to_svg(oracle_crossing_pair(g, make_pair(0, 4 * s)))
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1]


def test_svg_draws_each_parallel_edge_apart():
    # K5 with a second 0-1 edge: 13 edges, of which two join 0 and 1
    g = build([ends for _, ends in families.complete_graph(5).edge_items()] + [(0, 1)])
    drawing = oracle_crossing_pair(g, make_pair(1, 5))
    svg = minidom.parseString(to_svg(drawing))
    lines = [
        frozenset(((el.getAttribute("x1"), el.getAttribute("y1")), (el.getAttribute("x2"), el.getAttribute("y2"))))
        for el in svg.getElementsByTagName("line")
    ]
    curves = [el.getAttribute("d") for el in svg.getElementsByTagName("path") if " Q " in el.getAttribute("d")]
    assert len(lines) + len(curves) == drawing.planarization.graph.m == 13
    assert len(set(lines)) == len(lines) and len(set(curves)) == len(curves) == 1
