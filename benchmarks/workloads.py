"""Workload members: fixed graph families, graph6 coding and seeded selection.

Graphs are plain edge lists here: vertices are 0..n-1 and an edge's id is its
index in the list, which is also the id `onecross.graph.build` and the CLI's
parsers give it. Nothing in this module imports the library, so the inputs do
not change when the library does.

Random members are drawn from pools that `gen_expected.py` generated once and
stored, with their expected answers, in `expected.json`. The seed only chooses
members: the same seed gives the same members, and every member has an answer
that was fixed before the code under test ran.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

Edges = list[tuple[int, int]]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Random members per decide run: seeded planar graphs (n 20-60), small sparse
# nonplanar graphs (n <= 9), and subdivisions with cr = 1 and with cr >= 2.
# The family members are always all present.
DECIDE_RANDOM = {"random_planar": 32, "random_nonplanar": 32, "subdivided_one": 8, "subdivided_two_plus": 16}

# Work per measured second at the seed commit, used to size the sweep and
# build runs from --seconds: atlas graphs, random graphs and drawings.
SWEEP_ATLAS_PER_S = 1.0
SWEEP_RANDOM_PER_S = 0.3
BUILD_PAIRS_PER_S = 25.0


# ---------------------------------------------------------------------------
# Graph constructions
# ---------------------------------------------------------------------------


def moebius_ladder(n: int) -> Edges:
    """V_{2n}: a 2n-cycle plus its n diameter chords."""
    return [(i, (i + 1) % (2 * n)) for i in range(2 * n)] + [(i, i + n) for i in range(n)]


def complete(n: int) -> Edges:
    return list(combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Edges:
    return [(i, a + j) for i in range(a) for j in range(b)]


def siran() -> Edges:
    """K3,3 on {0,1,2} x {3,4,5} plus the edges 01 and 45."""
    return complete_bipartite(3, 3) + [(0, 1), (4, 5)]


def cube() -> Edges:
    return [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]


def subdivide(edges: Edges, lengths: list[int]) -> Edges:
    """Replace each edge by a path of the given length; crossing numbers do not change."""
    out: Edges = []
    fresh = vertex_count(edges)
    for (a, b), s in zip(edges, lengths):
        prev = a
        for _ in range(s - 1):
            out.append((prev, fresh))
            prev, fresh = fresh, fresh + 1
        out.append((prev, b))
    return out


def grid_with_diagonals(k: int) -> Edges:
    """k x k grid plus both corner-to-corner diagonals.

    The grid is 3-connected, so both diagonals must be drawn in its outer face,
    where their ends interleave: they cross exactly once, and cr = 1.
    """
    at = lambda r, c: r * k + c  # noqa: E731
    edges: Edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((at(r, c), at(r, c + 1)))
            if r + 1 < k:
                edges.append((at(r, c), at(r + 1, c)))
    return edges + [(at(0, 0), at(k - 1, k - 1)), (at(0, k - 1), at(k - 1, 0))]


# name -> edge list; gen_expected.py holds their crossing numbers
FAMILY_BUILDERS = {
    "V8": lambda: moebius_ladder(4),
    "V16": lambda: moebius_ladder(8),
    "V32": lambda: moebius_ladder(16),
    "V64": lambda: moebius_ladder(32),
    "K5": lambda: complete(5),
    "K3,3": lambda: complete_bipartite(3, 3),
    "Siran": siran,
    "Q3": cube,
    "K6": lambda: complete(6),
    "K7": lambda: complete(7),
    "K3,4": lambda: complete_bipartite(3, 4),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K5/s10": lambda: subdivide(complete(5), [10] * 10),
    "K5/s30": lambda: subdivide(complete(5), [30] * 10),
    "K5/s300": lambda: subdivide(complete(5), [300] * 10),
    "grid6+2": lambda: grid_with_diagonals(6),
    "grid10+2": lambda: grid_with_diagonals(10),
}

BUILD_FAMILIES = ("V8", "K5", "K3,3", "Siran")


def family(name: str) -> Edges:
    return FAMILY_BUILDERS[name]()


# ---------------------------------------------------------------------------
# graph6 (simple graphs, n <= 62) and small helpers
# ---------------------------------------------------------------------------


def to_graph6(n: int, edges: Edges) -> str:
    adjacent = {frozenset(e) for e in edges}
    bits = [1 if frozenset((i, j)) in adjacent else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def from_graph6(s: str) -> tuple[int, Edges]:
    """Vertex count and edges, in the order the library's parser numbers them."""
    n = ord(s[0]) - 63
    bits = [(ord(ch) - 63 >> k) & 1 for ch in s[1:] for k in range(5, -1, -1)]
    it = iter(bits)
    return n, [(i, j) for j in range(1, n) for i in range(j) if next(it)]


def in_appearance_order(edges: Edges) -> Edges:
    """Renumber vertices by first appearance, as the edge-list parser numbers them."""
    order: dict[int, int] = {}
    for e in edges:
        for v in e:
            order.setdefault(v, len(order))
    return [(order[u], order[v]) for u, v in edges]


def vertex_count(edges: Edges) -> int:
    return 1 + max(max(e) for e in edges)


def disjoint_pair_count(edges: Edges) -> int:
    return sum(1 for a, b in combinations(edges, 2) if not set(a) & set(b))


def edge_list_text(edges: Edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


# ---------------------------------------------------------------------------
# Members and seeded selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    """One graph of a workload with its expected answer."""

    name: str
    n: int
    edges: Edges = field(repr=False)
    text: str = field(repr=False)  # the file body the CLI reads
    expected: dict = field(repr=False)
    random: bool = False


@dataclass(frozen=True)
class Op:
    """One call into the public surface: a member, plus a pair for `build`."""

    member: Member
    pair: tuple[int, int] | None = None

    @property
    def label(self) -> str:
        return self.member.name + (f" pair {self.pair[0]},{self.pair[1]}" if self.pair else "")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def stratified(rng: random.Random, pool: list, count: int, key) -> list:
    """One pick from each of `count` equal slices of the pool sorted by `key`.

    Sorting by a cost proxy first keeps the total work of a run close to the
    same for every seed, while the members themselves still change.
    """
    ordered = sorted(pool, key=key)
    count = min(count, len(ordered))
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def _g6_member(name: str, entry: dict, expected: dict) -> Member:
    n, edges = from_graph6(entry["graph6"])
    return Member(name, n, edges, entry["graph6"] + "\n", expected, random=True)


def decide_ops(data: dict, rng: random.Random) -> list[Op]:
    ops = []
    for fam in data["decide"]["families"]:
        edges = in_appearance_order(family(fam["name"]))
        ops.append(Op(Member(fam["name"], vertex_count(edges), edges, edge_list_text(edges),
                             {"verdict": fam["verdict"]})))
    pools = dict(data["decide"])
    for verdict in ("one", "two_plus"):
        pools[f"subdivided_{verdict}"] = [e for e in pools["random_subdivided"] if e["verdict"] == verdict]
    for kind, count in DECIDE_RANDOM.items():
        for entry in stratified(rng, pools[kind], count, key=lambda e: (e["m"], e["graph6"])):
            ops.append(Op(_g6_member(f"{kind}:{entry['graph6']}", entry, {"verdict": entry["verdict"]})))
    rng.shuffle(ops)
    return ops


def sweep_ops(data: dict, rng: random.Random, seconds: float) -> list[Op]:
    ops = []
    for kind, per_s in (("atlas", SWEEP_ATLAS_PER_S), ("random", SWEEP_RANDOM_PER_S)):
        pool = data["sweep"][kind]
        count = max(1, round(seconds * per_s))
        for entry in stratified(rng, pool, count, key=lambda e: (e["m"], e["pairs"], e["graph6"])):
            expected = {"pairs": entry["pairs"], "crossing": entry["crossing"]}
            ops.append(Op(_g6_member(f"{kind}:{entry['graph6']}", entry, expected)))
    rng.shuffle(ops)
    return ops


def build_ops(data: dict, rng: random.Random, seconds: float) -> list[Op]:
    ops = []
    for fam in data["build"]["families"]:
        edges = family(fam["name"])
        member = Member(fam["name"], vertex_count(edges), edges, "", {})
        ops.extend(Op(member, tuple(p)) for p in fam["pairs"])
    pool = [
        (_g6_member(f"random:{entry['graph6']}", entry, {}), tuple(p))
        for entry in data["build"]["random"]
        for p in entry["pairs"]
    ]
    count = max(1, round(seconds * BUILD_PAIRS_PER_S))
    picked = stratified(rng, pool, count, key=lambda mp: (len(mp[0].edges), mp[0].text, mp[1]))
    ops.extend(Op(member, pair) for member, pair in picked)
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, seconds: float, data: dict) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decide":
        return decide_ops(data, rng)
    if workload == "sweep":
        return sweep_ops(data, rng, seconds)
    return build_ops(data, rng, seconds)


def digest(ops: list[Op]) -> str:
    """Membership digest: which graphs (and pairs) a run contains, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.member.name}|{op.member.text}|{op.pair}\n".encode())
    return h.hexdigest()[:16]
