"""Independent checks of the certificates the library returns.

These re-verify each answer with code that shares nothing with the library:
face tracing and Euler's formula for embeddings, a direct walk for cycles,
and networkx for the planarity of single-edge deletions. Each check raises
`Unverified` with a reason on the first defect it finds.
"""

from __future__ import annotations

from collections import defaultdict

import networkx as nx

from workloads import Edges


class Unverified(Exception):
    """A certificate failed re-verification."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Unverified(reason)


def check_planar_rotation(edges: dict[int, tuple[int, int]], rotation: dict[int, list[int]]) -> None:
    """A rotation system whose face count satisfies Euler's formula per component."""
    incident: dict[int, list[int]] = defaultdict(list)
    for eid, (u, v) in edges.items():
        _require(u != v, f"edge {eid} is a loop")
        incident[u].append(eid)
        incident[v].append(eid)
    for v, eids in incident.items():
        _require(sorted(rotation.get(v, ())) == sorted(eids), f"rotation at {v} is not its incident edges")
    position = {(v, e): i for v, rot in rotation.items() for i, e in enumerate(rot)}

    def other(e: int, v: int) -> int:
        a, b = edges[e]
        return b if v == a else a

    comp = {}
    for start in incident:
        if start in comp:
            continue
        comp[start] = start
        stack = [start]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                w = other(e, v)
                if w not in comp:
                    comp[w] = start
                    stack.append(w)

    faces: dict[int, int] = defaultdict(int)
    seen = set()
    for v, rot in rotation.items():
        for e in rot:
            if (v, e) in seen:
                continue
            faces[comp[v]] += 1
            dart = (v, e)
            while dart not in seen:
                seen.add(dart)
                w = other(dart[1], dart[0])
                rot_w = rotation[w]
                dart = (w, rot_w[(position[(w, dart[1])] + 1) % len(rot_w)])
    verts: dict[int, int] = defaultdict(int)
    for v in incident:
        verts[comp[v]] += 1
    m: dict[int, int] = defaultdict(int)
    for u, _ in edges.values():
        m[comp[u]] += 1
    for c in verts:
        _require(verts[c] - m[c] + faces[c] == 2, "embedding fails Euler's formula")


def check_drawing(edges: Edges, e: int, f: int, w: int, e_halves, f_halves,
                  drawn: dict[int, tuple[int, int]], rotation: dict[int, list[int]]) -> None:
    """A planar embedding of the input with e and f replaced by a crossing vertex w."""
    _require(not set(edges[e]) & set(edges[f]), "crossing edges share an endpoint")
    _require(all(w not in uv for uv in edges), "crossing vertex is an input vertex")
    want = {eid: frozenset(uv) for eid, uv in enumerate(edges) if eid not in (e, f)}
    for hid, end in zip((*e_halves, *f_halves), (*edges[e], *edges[f])):
        _require(hid not in want, "half-edge id collides with an input edge")
        want[hid] = frozenset((end, w))
    _require({eid: frozenset(uv) for eid, uv in drawn.items()} == want,
             "drawing is not the input with the pair replaced by the crossing vertex")
    check_planar_rotation(drawn, rotation)
    kinds = ["e" if h in e_halves else "f" if h in f_halves else "?" for h in rotation[w]]
    _require(len(kinds) == 4 and all(kinds[i] != kinds[(i + 1) % 4] for i in range(4)),
             "rotation at the crossing vertex does not alternate between e and f")


def check_cycle(edges: dict[int, tuple[int, int]], through: int, vertices: list[int], eids: list[int]) -> set[int]:
    """A simple closed cycle of the graph containing edge `through`; returns its vertices."""
    _require(len(eids) >= 2 and len(vertices) == len(eids) + 1 and vertices[0] == vertices[-1],
             "separation cycle is not closed")
    _require(len(set(vertices[:-1])) == len(eids) and len(set(eids)) == len(eids), "separation cycle is not simple")
    for i, eid in enumerate(eids):
        _require(eid in edges and set(edges[eid]) == {vertices[i], vertices[i + 1]},
                 "separation cycle uses a non-edge")
    _require(through in eids, "separation cycle misses its edge")
    return set(vertices)


def check_decide_report(n: int, edges: Edges, report: dict) -> None:
    """Re-verify the certificate in a `onecross decide` report.

    The inputs are written so that the CLI numbers vertices and edges as we do.
    """
    _require(report.get("verified") is True, "report was not verified by --verify")
    _require(report["input"]["vertices"] == n and report["input"]["edges"] == len(edges), "report is on another graph")
    ours = dict(enumerate(edges))
    verdict = report["verdict"]
    if verdict == "planar":
        emb = report["embedding"]
        _require({int(k): tuple(v) for k, v in emb["edges"].items()} == ours, "embedding is over another graph")
        check_planar_rotation(ours, {int(k): v for k, v in emb["rotation"].items()})
    elif verdict == "one":
        d = report["drawing"]
        e, f = d["crossing_pair"]
        check_drawing(edges, e, f, d["crossing_vertex"], d["e_halves"], d["f_halves"],
                      {int(k): tuple(v) for k, v in d["embedding"]["edges"].items()},
                      {int(k): v for k, v in d["embedding"]["rotation"].items()})
    else:
        _require(bool(report["rejected_pairs"]), "two_plus verdict without rejected pairs")
        for entry in report["rejected_pairs"]:
            e, f = entry["pair"]
            if entry["reason"] == "separated":
                sep = entry["separation"]
                ce = check_cycle(ours, e, sep["cycle_e"]["vertices"], sep["cycle_e"]["edges"])
                cf = check_cycle(ours, f, sep["cycle_f"]["vertices"], sep["cycle_f"]["edges"])
                _require(not ce & cf, "separation cycles meet")
            else:
                _require(entry["reason"] == "deletion_nonplanar", f"unknown reason {entry['reason']!r}")
                _require(any(not is_planar(n, [uv for k, uv in ours.items() if k != gone]) for gone in (e, f)),
                         "both single-edge deletions are planar")


def check_pairs_report(report: dict) -> None:
    """A `onecross pairs` report that --verify re-checked and whose conditions agree."""
    _require(report.get("verified") is True, "report was not verified by --verify")
    _require(all(r["agree"] for r in report["crossing_pairs"] + report["rejected_pairs"]),
             "conditions disagree on some pair")
    _require(report["kuratowski_count"] >= 1, "nonplanar graph without a Kuratowski subgraph")


def is_planar(n: int, edges) -> bool:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return nx.check_planarity(G)[0]
