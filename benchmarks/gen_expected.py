"""Generate expected.json: the benchmark's members and their expected answers.

    python3 benchmarks/gen_expected.py          # rewrites benchmarks/expected.json

Answers never come from the code under test:

* decide families: closed forms (Moebius ladders, K5 and K3,3 have cr 1,
  K3,4 has 2, K6 has 3, K4,4 has 4, K7 has 9) or constructions (subdividing
  edges keeps cr; a grid plus two crossing corner diagonals has cr 1). Siran
  and Q3 are small enough to confirm with the brute-force oracle.
* decide random members: planar by construction (subgraphs of stacked
  triangulations), subdivisions of K5, K3,3, V8, K6 and K3,4 with random path
  lengths (cr of the base), or decided by
  `onecross.bruteforce.exhaustive_crossing_le_1` (small sparse graphs).
* sweep and build: pair totals by counting, crossing pairs by the gadget test
  (replace the pair by a degree-4 vertex, test planarity) run directly in
  networkx.

The pools are generated from fixed seeds, so rerunning reproduces the file.
"""

from __future__ import annotations

import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import is_planar  # noqa: E402
from workloads import (  # noqa: E402
    BUILD_FAMILIES,
    EXPECTED_PATH,
    disjoint_pair_count,
    family,
    subdivide,
    to_graph6,
    vertex_count,
)

# crossing numbers known without running the code under test
FAMILY_CR = {
    "V8": 1, "V16": 1, "V32": 1, "V64": 1, "K5": 1, "K3,3": 1,
    "K6": 3, "K7": 9, "K3,4": 2, "K4,4": 4,
    "K5/s10": 1, "K5/s30": 1, "K5/s300": 1, "grid6+2": 1, "grid10+2": 1,
}
BRUTE_FORCE_FAMILIES = ("Siran", "Q3")
BRUTE_FORCE_BUDGET = 1_000_000  # rotation systems per planarity call

POOL_SEED = 1901_09955
DECIDE_PLANAR_POOL = 96
DECIDE_NONPLANAR_POOL = 48
DECIDE_SUBDIVIDED_POOL = 32  # of each verdict
# cr 1: every edge of the base becomes a path of 2-5 edges; cr >= 2: a few
# edges of the base are subdivided once (this keeps those decisions near 0.2 s)
SUBDIVISION_BASES = {
    "one": [("K5", 1, 5, None), ("K3,3", 1, 5, None), ("V8", 1, 5, None)],
    "two_plus": [("K6", 3, 2, 4), ("K3,4", 2, 2, 3)],
}
SWEEP_RANDOM_POOL = 48
BUILD_RANDOM_POOL = 48


def verdict_of(cr: int) -> str:
    return "planar" if cr == 0 else "one" if cr == 1 else "two_plus"


def nx_graph(n: int, edges) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


def crossing_pairs(n: int, edges) -> list[list[int]]:
    """Index pairs whose gadget (the pair replaced by one crossing vertex) is planar."""
    out = []
    for i, j in combinations(range(len(edges)), 2):
        (u, v), (x, y) = edges[i], edges[j]
        if {u, v} & {x, y}:
            continue
        rest = [e for k, e in enumerate(edges) if k not in (i, j)]
        if is_planar(n + 1, rest + [(u, n), (n, v), (x, n), (n, y)]):
            out.append([i, j])
    return out


def brute_verdict(n: int, edges) -> str | None:
    from onecross.bruteforce import exhaustive_crossing_le_1
    from onecross.errors import SearchBudgetExceeded
    from onecross.graph import build

    try:
        return exhaustive_crossing_le_1(build(edges, vertices=range(n)), BRUTE_FORCE_BUDGET)[0]
    except SearchBudgetExceeded:
        return None


def random_sparse(rng: random.Random, n_lo: int, n_hi: int, extra_lo: int, extra_hi: int):
    """Random tree plus a few extra edges, relabelled; (n, edges)."""
    n = rng.randint(n_lo, n_hi)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randint(extra_lo, extra_hi)
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return n, sorted(edges)


def random_nonplanar(rng: random.Random, n_hi: int, extra_hi: int):
    while True:
        n, edges = random_sparse(rng, 6, n_hi, 3, extra_hi)
        if not is_planar(n, edges):
            return n, edges


def random_planar(rng: random.Random, n: int):
    """A stacked triangulation with some edges removed (staying connected)."""
    edges = {(0, 1), (1, 2), (0, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    edges = sorted(edges)
    rng.shuffle(edges)
    keep = set(edges)
    for e in edges[: rng.randrange(len(edges) // 2)]:
        keep.discard(e)
        if not nx.is_connected(nx_graph(n, keep)):
            keep.add(e)
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in keep)


def canonical(n: int, edges):
    """Edges as the graph6 parser orders them, so list index = library edge id."""
    return sorted((tuple(sorted(e)) for e in edges), key=lambda e: (e[1], e[0]))


def decide_section(rng: random.Random) -> dict:
    families = []
    for name in (*FAMILY_CR, *BRUTE_FORCE_FAMILIES):
        if name in FAMILY_CR:
            families.append({"name": name, "cr": FAMILY_CR[name], "verdict": verdict_of(FAMILY_CR[name])})
            continue
        edges = family(name)
        verdict = brute_verdict(vertex_count(edges), edges)
        families.append({"name": name, "verdict": verdict, "source": "bruteforce"})

    planar = []
    while len(planar) < DECIDE_PLANAR_POOL:
        n, edges = random_planar(rng, rng.randint(20, 60))
        if not is_planar(n, edges):
            raise AssertionError("stacked triangulation subgraph must be planar")
        planar.append({"graph6": to_graph6(n, edges), "m": len(edges), "verdict": "planar"})

    nonplanar = []
    skipped = 0
    while len(nonplanar) < DECIDE_NONPLANAR_POOL:
        n, edges = random_nonplanar(rng, 9, 6)
        edges = canonical(n, edges)
        t0 = time.perf_counter()
        verdict = brute_verdict(n, edges)
        print(f"brute force n={n} m={len(edges)}: {verdict} in {time.perf_counter() - t0:.1f} s", flush=True)
        if verdict is None:
            skipped += 1
            continue
        if (verdict == "one") != bool(crossing_pairs(n, edges)):
            raise AssertionError("brute force and the networkx gadget disagree")
        nonplanar.append({"graph6": to_graph6(n, edges), "m": len(edges), "verdict": verdict})

    return {"families": families, "random_planar": planar, "random_nonplanar": nonplanar,
            "random_nonplanar_skipped_over_brute_force_budget": skipped}


def subdivided_pool(rng: random.Random) -> list[dict]:
    pool = []
    for verdict, bases in SUBDIVISION_BASES.items():
        for i in range(DECIDE_SUBDIVIDED_POOL):
            name, cr, longest, count = bases[i % len(bases)]
            base = family(name)
            chosen = set(rng.sample(range(len(base)), count)) if count else set(range(len(base)))
            lengths = [rng.randint(2, longest) if k in chosen else 1 for k in range(len(base))]
            edges = subdivide(base, lengths)
            pool.append({"graph6": to_graph6(vertex_count(edges), edges), "m": len(edges), "base": name, "cr": cr,
                         "verdict": verdict})
    return pool


def sweep_entry(n: int, edges) -> dict:
    edges = canonical(n, edges)
    return {
        "graph6": to_graph6(n, edges),
        "m": len(edges),
        "pairs": disjoint_pair_count(edges),
        "crossing": len(crossing_pairs(n, edges)),
    }


def sweep_section(rng: random.Random) -> dict:
    atlas = []
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if 0 < n <= 7 and nx.is_connected(G) and not nx.is_planar(G):
            atlas.append(sweep_entry(n, list(G.edges())))
    if len(atlas) != 221:
        raise AssertionError(f"expected 221 atlas graphs, got {len(atlas)}")
    randoms = [sweep_entry(*random_nonplanar(rng, 10, 6)) for _ in range(SWEEP_RANDOM_POOL)]
    return {"atlas": atlas, "random": randoms}


def build_section(rng: random.Random) -> dict:
    families = []
    for name in BUILD_FAMILIES:
        edges = family(name)
        families.append({"name": name, "pairs": crossing_pairs(vertex_count(edges), edges)})
    randoms = []
    while len(randoms) < BUILD_RANDOM_POOL:
        n, edges = random_nonplanar(rng, 10, 6)
        edges = canonical(n, edges)
        pairs = crossing_pairs(n, edges)
        if pairs:
            randoms.append({"graph6": to_graph6(n, edges), "pairs": pairs})
    return {"families": families, "random": randoms}


def main() -> None:
    t0 = time.perf_counter()
    data = {
        "about": "Members and expected answers of the onecross benchmark; see gen_expected.py.",
        "pool_seed": POOL_SEED,
        "decide": {
            **decide_section(random.Random(f"decide:{POOL_SEED}")),
            "random_subdivided": subdivided_pool(random.Random(f"subdivided:{POOL_SEED}")),
        },
        "sweep": sweep_section(random.Random(f"sweep:{POOL_SEED}")),
        "build": build_section(random.Random(f"build:{POOL_SEED}")),
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
