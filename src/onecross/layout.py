"""Straight-line layouts and renderers for one-crossing drawings.

Coordinates are cosmetic: the rotation system is the certificate. The layout
is networkx's planar straight-line grid drawing of that rotation system, so no
two vertices share a point and no edge runs through a vertex.
"""

from __future__ import annotations

import html
import math
import re

import networkx as nx

from .characterize import OneDrawing
from .graph import parallel_classes
from .planarity import RotationSystem

Point = tuple[int, int]
SVG_SIZE = 480  # width and height of the SVG canvas
# what XML 1.0's Char production leaves out; no escape can write it
_XML_FORBIDDEN = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def planar_layout(rs: RotationSystem) -> dict[int, Point]:
    """Integer grid positions of a straight-line drawing of the rotation.

    Each parallel class is placed by its least id, at that edge's place in
    both rotations.
    """
    drawn = {ids[0] for ids in parallel_classes(rs.graph).values()}
    emb = nx.PlanarEmbedding()
    emb.add_nodes_from(rs.rotation)
    emb.set_data(
        {v: [rs.graph.other_end(e, v) for e in rot if e in drawn] for v, rot in rs.rotation.items()}
    )
    return nx.combinatorial_embedding_to_pos(emb)


def _label(labels: list[str] | None, v: int) -> str:
    return labels[v] if labels and v < len(labels) else str(v)


def to_dot(drawing: OneDrawing, labels: list[str] | None = None) -> str:
    """DOT text of the planarized graph with the crossing vertex marked.

    Vertex v is the node `n{v}`, its label quoted, so no label can name
    another node or the crossing point.
    """
    pz = drawing.planarization
    p = pz.pair

    def node(v: int) -> str:
        return "crossing" if v == pz.w else f"n{v}"

    lines = [
        "graph onedrawing {",
        f'  // crossing pair: edges {p.e} and {p.f}',
        f'  crossing [shape=point, width=0.12, xlabel="e{p.e} x e{p.f}"];',
    ]
    for v in sorted(pz.graph.vertices):
        if v != pz.w:
            quoted = _label(labels, v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{v} [label="{quoted}"];')
    for e, (u, v) in pz.graph.edge_items():
        style = ' [style=dashed]' if e in pz.e_halves + pz.f_halves else ""
        lines.append(f"  {node(u)} -- {node(v)}{style};  // edge {e}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_svg(drawing: OneDrawing, labels: list[str] | None = None) -> str:
    """SVG of the drawing; the crossing vertex is drawn as an x.

    The least edge of each parallel class is a straight line; the k-th after
    it is a quadratic curve bent to alternating sides, further out as k grows.
    """
    pz = drawing.planarization
    pos = planar_layout(drawing.rotation)
    xs = [x for x, _ in pos.values()]
    ys = [y for _, y in pos.values()]
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0, 1e-6)
    pad = 30.0
    scale = (SVG_SIZE - 2 * pad) / span

    def pt(v: int) -> tuple[float, float]:
        x, y = pos[v]
        return (pad + (x - x0) * scale, pad + (y - y0) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    rank = {e: k for ids in parallel_classes(pz.graph).values() for k, e in enumerate(ids)}
    for e, (u, v) in pz.graph.edge_items():
        (x1, y1), (x2, y2) = pt(u), pt(v)
        colour = "#c02020" if e in pz.e_halves + pz.f_halves else "#333333"
        stroke = f'stroke="{colour}" stroke-width="1.5"'
        k = rank[e]
        if k == 0:
            parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" {stroke}/>')
            continue
        # sides alternate as seen from the class's lesser end
        side = (1 if k % 2 else -1) * (1 if u < v else -1)
        bend = side * 16.0 * ((k + 1) // 2) / math.hypot(x2 - x1, y2 - y1)
        cx, cy = (x1 + x2) / 2 - (y2 - y1) * bend, (y1 + y2) / 2 + (x2 - x1) * bend
        parts.append(f'<path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} {cy:.1f} {x2:.1f} {y2:.1f}" {stroke} fill="none"/>')
    for v in sorted(pz.graph.vertices):
        x, y = pt(v)
        if v == pz.w:
            d = 5.0
            parts.append(
                f'<path d="M {x-d:.1f} {y-d:.1f} L {x+d:.1f} {y+d:.1f} '
                f'M {x-d:.1f} {y+d:.1f} L {x+d:.1f} {y-d:.1f}" '
                'stroke="#c02020" stroke-width="2" fill="none"/>'
            )
        else:
            text = html.escape(_XML_FORBIDDEN.sub("\ufffd", _label(labels, v)))
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#1f4e9c"/>')
            parts.append(
                f'<text x="{x+6:.1f}" y="{y-6:.1f}" font-size="11" '
                f'font-family="sans-serif">{text}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
