"""Input/output formats: graph6 for simple graphs, edge lists for multigraphs."""

from __future__ import annotations

from .errors import OnecrossError
from .graph import Multigraph, build, parallel_classes

GRAPH6_HEADER = ">>graph6<<"


class FormatError(OnecrossError):
    """Unparseable graph input."""


def parse_graph6(text: str) -> Multigraph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise FormatError("empty graph6 string")
    n = ord(s[0]) - 63
    if n < 0 or n > 62:
        raise FormatError("only graph6 strings with up to 62 vertices are supported")
    bits_needed = n * (n - 1) // 2
    payload = s[1:]
    chars_needed = -(-bits_needed // 6)
    if len(payload) != chars_needed:
        raise FormatError(f"graph6 payload for {n} vertices has {chars_needed} characters, got {len(payload)}")
    bits = []
    for ch in payload:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise FormatError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build(edges, vertices=range(n))


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph; raises on parallel edges or non-dense vertices."""
    n = g.n
    if n > 62:
        raise FormatError("only graphs with up to 62 vertices are supported")
    if g.vertices != frozenset(range(n)):
        raise FormatError("graph6 output requires vertices 0..n-1")
    if any(len(cls) > 1 for cls in parallel_classes(g).values()):
        raise FormatError("graph6 cannot encode parallel edges")
    adjacent = {frozenset(p) for _, p in g.edge_items()}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if frozenset((i, j)) in adjacent else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_edge_list(text: str) -> tuple[Multigraph, list[str]]:
    """Parse `u v` lines ('#' comments allowed); returns the graph and labels.

    Labels are arbitrary tokens mapped to dense vertex ids in order of first
    appearance; repeated lines become parallel edges.
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def vid(token: str) -> int:
        if token not in index:
            index[token] = len(labels)
            labels.append(token)
        return index[token]

    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((vid(parts[0]), vid(parts[1])))
    return build(edges), labels


def detect_format(text: str) -> str:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        return "graph6"
    lines = [ln for ln in s.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) == 1:
        token = lines[0].strip()
        if " " not in token and all(63 <= ord(ch) <= 126 for ch in token):
            return "graph6"
    return "edgelist"


def parse_input(text: str, fmt: str = "auto") -> tuple[Multigraph, list[str]]:
    """Parse either format; returns the graph and vertex labels."""
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "graph6":
        g = parse_graph6(text)
        return g, [str(v) for v in range(g.n)]
    if fmt == "edgelist":
        return parse_edge_list(text)
    raise FormatError(f"unknown format {fmt!r}")
