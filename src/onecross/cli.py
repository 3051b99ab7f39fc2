"""Command-line surface: decide, pairs, draw, corpus.

Reports are JSON on stdout, deterministic for a fixed input and seed (timing
is only included when explicitly requested). Exit codes: decide returns 0 for
planar, 1 for exactly one crossing, 2 for at least two; 64 marks unparseable
input, a usage error or an unusable option value, 65 a planar input where
pairs were requested, 66 a non-crossing pair, 69 an exhausted search budget
(from pairs, with the report of the pairs settled before it ran out) and 70
an internal inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Any

from .characterize import (
    AT_LEAST_TWO,
    EXACTLY_ONE,
    PLANAR,
    ConditionReport,
    OneDrawing,
    check_equivalence,
    crossing_number_le_1,
    oracle_crossing_pair,
)
from .errors import BudgetExceeded, InconsistencyDetected, OnecrossError, PlanarInput
from .formats import FormatError, parse_input, write_graph6
from .graph import EdgePair, Multigraph, build, make_pair
from .kuratowski import ENUMERATION_VERTEX_GATE
from .planarity import KuratowskiCert, RotationSystem, test_planarity
from .separation import SeparationVerdict, verify_separation_witness

EXIT_PARSE = 64
EXIT_PLANAR_INPUT = 65
EXIT_NOT_CROSSING_PAIR = 66
EXIT_BUDGET = 69
EXIT_INCONSISTENT = 70

SCHEMA = 1


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _digest(g: Multigraph) -> str:
    canon = ";".join(f"{e}:{min(p)}-{max(p)}" for e, p in g.edge_items())
    canon = f"n={g.n};" + canon
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _edges_json(g: Multigraph) -> dict[str, list[int]]:
    return {str(e): [u, v] for e, (u, v) in g.edge_items()}


def _rotation_json(r: RotationSystem) -> dict[str, Any]:
    return {
        "rotation": {str(v): list(r.rotation[v]) for v in sorted(r.rotation)},
        "edges": _edges_json(r.graph),
    }


def _kuratowski_json(c: KuratowskiCert) -> dict[str, Any]:
    return {
        "kind": c.kind,
        "branch_vertices": list(c.branch_vertices),
        "parts": [list(p) for p in c.parts] if c.parts else None,
        "branches": [
            {"vertices": list(b.vertices), "edges": list(b.edges)} for b in c.branches
        ],
    }


def _separation_json(s: SeparationVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"separated": s.separated}
    if s.witness:
        out["cycle_e"] = {"vertices": list(s.witness.cycle_e.vertices), "edges": list(s.witness.cycle_e.edges)}
        out["cycle_f"] = {"vertices": list(s.witness.cycle_f.vertices), "edges": list(s.witness.cycle_f.edges)}
    return out


def _drawing_json(d: OneDrawing) -> dict[str, Any]:
    pz = d.planarization
    return {
        "crossing_pair": [pz.pair.e, pz.pair.f],
        "crossing_vertex": pz.w,
        "e_halves": list(pz.e_halves),
        "f_halves": list(pz.f_halves),
        "embedding": _rotation_json(d.rotation),
    }


def _report(command: str, g: Multigraph | None, body: dict[str, Any], timing: float | None) -> str:
    payload: dict[str, Any] = {"schema": SCHEMA, "command": command}
    if g is not None:
        payload["input"] = {"digest": _digest(g), "vertices": g.n, "edges": g.m}
    payload.update(body)
    if timing is not None:
        payload["timing_seconds"] = round(timing, 3)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _verify_report(g: Multigraph, drawing: OneDrawing | None,
                   embedding: RotationSystem | None,
                   certs: list[KuratowskiCert] = (),
                   witnessed_pairs: list[tuple[EdgePair, SeparationVerdict]] = ()) -> None:
    """Re-check every certificate embedded in a report; raises on any failure."""
    if embedding is not None and not embedding.is_planar_embedding():
        raise InconsistencyDetected("report embedding failed re-verification")
    for cert in certs:
        cert.validate(g)
    if drawing is not None:
        drawing.validate(g)
    for pair, verdict in witnessed_pairs:
        if verdict.witness is not None and not verify_separation_witness(g, pair, verdict.witness):
            raise InconsistencyDetected("report separation witness failed re-verification")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load(args: argparse.Namespace) -> tuple[Multigraph, list[str]]:
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8: {exc}") from exc
    return parse_input(text, args.format)


def cmd_decide(args: argparse.Namespace) -> int:
    g, _labels = _load(args)
    t0 = time.perf_counter()
    decision = crossing_number_le_1(g, budget=args.budget_steps)
    elapsed = time.perf_counter() - t0
    body: dict[str, Any] = {"verdict": decision.kind}
    if decision.embedding is not None:
        body["embedding"] = _rotation_json(decision.embedding)
    if decision.drawing is not None:
        body["drawing"] = _drawing_json(decision.drawing)
    if decision.kind == AT_LEAST_TWO:
        body["rejected_pairs"] = [
            {
                "pair": [f.pair.e, f.pair.f],
                "reason": f.reason,
                **({"separation": _separation_json(f.separation)} if f.separation else {}),
            }
            for f in decision.failures
        ]
    if args.verify:
        witnessed = [(f.pair, f.separation) for f in decision.failures if f.separation]
        _verify_report(g, decision.drawing, decision.embedding, witnessed_pairs=witnessed)
        body["verified"] = True
    sys.stdout.write(_report("decide", g, body, elapsed if args.timing else None))
    return {PLANAR: 0, EXACTLY_ONE: 1, AT_LEAST_TWO: 2}[decision.kind]


def _condition_report_json(r: ConditionReport) -> dict[str, Any]:
    out: dict[str, Any] = {
        "pair": [r.pair.e, r.pair.f],
        "crossing_pair": r.cond_i,
        "cond_i": r.cond_i,
        "cond_ii": r.cond_ii.holds,
        "cond_iii": r.cond_iii.holds,
        "agree": r.consistent,
        "separation": _separation_json(r.cond_iii.separation),
        "planar_minus_e": r.cond_iii.planar_minus_e,
        "planar_minus_f": r.cond_iii.planar_minus_f,
        "kuratowski_checked": r.cond_ii.certs_checked,
    }
    if r.cond_ii.failing_cert is not None:
        out["failing_kuratowski"] = _kuratowski_json(r.cond_ii.failing_cert)
    return out


def cmd_pairs(args: argparse.Namespace) -> int:
    g, _labels = _load(args)
    t0 = time.perf_counter()
    try:
        certs, reports = check_equivalence(g, budget=args.budget_steps)
    except PlanarInput:
        sys.stderr.write("planar: no crossing pairs\n")
        return EXIT_PLANAR_INPUT
    crossing = []
    rejected = []
    witnessed = []
    exhausted = None
    try:
        for r in reports:
            if not r.consistent:
                raise InconsistencyDetected(
                    f"equivalence conditions disagree on pair ({r.pair.e},{r.pair.f}): "
                    f"i={r.cond_i} ii={r.cond_ii.holds} iii={r.cond_iii.holds}"
                )
            (crossing if r.cond_i else rejected).append(_condition_report_json(r))
            witnessed.append((r.pair, r.cond_iii.separation))
    except BudgetExceeded as exc:
        exhausted = exc
    elapsed = time.perf_counter() - t0
    body: dict[str, Any] = {
        "crossing_pairs": crossing,
        "rejected_pairs": rejected,
        "kuratowski_count": len(certs),
    }
    if exhausted is not None:
        body["partial"] = True
    if args.verify:
        # every report agreed; re-check the certificates that ended up in it
        _verify_report(g, None, None, certs=certs, witnessed_pairs=witnessed)
        body["verified"] = True
    sys.stdout.write(_report("pairs", g, body, elapsed if args.timing else None))
    if exhausted is not None:
        sys.stderr.write(f"budget exceeded: {exhausted}\n")
        return EXIT_BUDGET
    return 1 if crossing else 2


def _resolve_edge(g: Multigraph, labels: list[str], spec: str) -> int:
    try:
        a_str, b_str = spec.split(",")
    except ValueError as exc:
        raise FormatError(f"--pair arguments look like 'u,v' (got {spec!r})") from exc
    index = {lab: i for i, lab in enumerate(labels)}
    if a_str not in index or b_str not in index:
        raise FormatError(f"unknown vertex in {spec!r}")
    between = g.edges_between(index[a_str], index[b_str])
    if not between:
        raise FormatError(f"no edge {spec!r} in the input graph")
    return min(between)


def cmd_draw(args: argparse.Namespace) -> int:
    from .layout import to_dot, to_svg

    g, labels = _load(args)
    e = _resolve_edge(g, labels, args.pair[0])
    f = _resolve_edge(g, labels, args.pair[1])
    if e == f:
        sys.stderr.write("the two pair edges coincide\n")
        return EXIT_NOT_CROSSING_PAIR
    if test_planarity(g).planar:
        sys.stderr.write("planar input: no crossing pairs\n")
        return EXIT_NOT_CROSSING_PAIR
    drawing = oracle_crossing_pair(g, make_pair(e, f))
    if drawing is None:
        sys.stderr.write(f"({args.pair[0]}) x ({args.pair[1]}) is not a crossing pair\n")
        return EXIT_NOT_CROSSING_PAIR
    dot = to_dot(drawing, labels)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(to_svg(drawing, labels))
    return 0


# ---------------------------------------------------------------------------
# Corpus sweep
# ---------------------------------------------------------------------------


SweepTotals = tuple[int, int, int, dict[str, Any] | None]


def _sweep_graph(g: Multigraph, budget: int | None) -> tuple[SweepTotals | None, float]:
    """`_sweep_totals` of one graph and its seconds, timed where the sweep runs."""
    t0 = time.perf_counter()
    totals = _sweep_totals(g, budget)
    return totals, time.perf_counter() - t0


def _sweep_totals(g: Multigraph, budget: int | None) -> SweepTotals | None:
    """Pair totals of one graph, or None when the budget ran out on it."""
    try:
        _certs, reports = check_equivalence(g, budget=budget)
    except PlanarInput:
        return 0, 0, 0, None
    pairs = crossing = bad = 0
    failing = None
    try:
        for r in reports:
            pairs += 1
            if not r.consistent:
                bad += 1
                if failing is None:
                    failing = {"graph6": _try_graph6(g), "pair": [r.pair.e, r.pair.f]}
            elif r.cond_i:
                crossing += 1
    except BudgetExceeded:
        return None
    return pairs, crossing, bad, failing


def _try_graph6(g: Multigraph) -> str | None:
    try:
        return write_graph6(g)
    except FormatError:
        return None


def _random_graphs(count: int, max_n: int, max_edges: int | None, seed: int) -> list[Multigraph]:
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, max_n)
        cap = max_edges if max_edges is not None else min(3 * n - 5, n * (n - 1) // 2)
        m = rng.randint(n, cap)
        seen: set[tuple[int, int]] = set()
        edges = []
        guard = 0
        while len(edges) < m and guard < 10 * m:
            guard += 1
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v)))
        out.append(build(edges, vertices=range(n)))
    return out


def cmd_corpus(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.max_n > ENUMERATION_VERTEX_GATE:
        sys.stderr.write(f"corpus sweeps are gated to max-n <= {ENUMERATION_VERTEX_GATE}\n")
        return EXIT_BUDGET
    if args.jobs < 1:
        sys.stderr.write("--jobs must be at least 1\n")
        return EXIT_PARSE
    if args.count < 0:
        sys.stderr.write("--count must be positive, or 0 for the atlas\n")
        return EXIT_PARSE
    if args.count:
        if args.max_n < 5:
            sys.stderr.write("random graphs have at least 5 vertices: pass --max-n 5 or more\n")
            return EXIT_PARSE
        if args.max_edges is not None and args.max_edges < args.max_n:
            sys.stderr.write("random graphs have at least as many edges as vertices: pass --max-edges >= --max-n\n")
            return EXIT_PARSE
        graphs = _random_graphs(args.count, args.max_n, args.max_edges, args.seed)
    else:
        from .families import atlas_connected

        if args.max_n > 7:
            sys.stderr.write("exhaustive sweeps use the 7-vertex atlas; pass --count for random mode\n")
            return EXIT_BUDGET
        graphs = atlas_connected(args.max_n)

    jobs = min(args.jobs, len(graphs))
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            timed = pool.starmap(_sweep_graph, [(g, args.budget_steps) for g in graphs])
    else:
        timed = [_sweep_graph(g, args.budget_steps) for g in graphs]

    results = [result for result, _seconds in timed]
    skipped = [_try_graph6(g) for g, result in zip(graphs, results) if result is None]
    swept = [result for result in results if result is not None]
    pairs, crossing, bad = (sum(result[i] for result in swept) for i in range(3))
    failing = next((result[3] for result in swept if result[3]), None)

    body: dict[str, Any] = {
        "graphs_checked": len(swept),
        "pairs_checked": pairs,
        "crossing_pairs": crossing,
        "inconsistencies": bad,
        "seed": args.seed,
        "max_n": args.max_n,
        "partial": bool(skipped),
    }
    if skipped:
        body["skipped"] = skipped
    if failing:
        body["minimal_failing"] = failing
    if args.timing and graphs:
        slowest = max(range(len(graphs)), key=lambda i: timed[i][1])
        body["slowest"] = {"graph6": _try_graph6(graphs[slowest]), "seconds": round(timed[slowest][1], 3)}
    sys.stdout.write(_report("corpus", None, body, (time.perf_counter() - t0) if args.timing else None))
    if skipped:
        return EXIT_BUDGET
    if bad:
        return EXIT_INCONSISTENT
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="path to a graph file, or '-' for stdin")
    p.add_argument("--format", choices=["auto", "graph6", "edgelist"], default="auto")


def _report_options(p: argparse.ArgumentParser) -> None:
    _input_options(p)
    p.add_argument("--budget-steps", type=int, default=None)
    p.add_argument("--verify", action="store_true", help="re-check certificates before printing")
    p.add_argument("--timing", action="store_true", help="include timing (breaks byte-determinism)")


def _draw_options(p: argparse.ArgumentParser) -> None:
    _input_options(p)
    p.add_argument("--pair", nargs=2, required=True, metavar=("U,V", "X,Y"))
    p.add_argument("-o", "--output", default=None, help="write DOT here instead of stdout")
    p.add_argument("--svg", default=None, help="also write an SVG rendering here")


def _corpus_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--count", type=int, default=0, help="random graphs instead of the atlas")
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget-steps", type=int, default=None)
    p.add_argument("--timing", action="store_true")


# command -> (its function, its summary, the options it takes)
COMMANDS = {
    "decide": (cmd_decide, "planar / one crossing / at least two", _report_options),
    "pairs": (cmd_pairs, "all crossing pairs with condition reports", _report_options),
    "draw": (cmd_draw, "DOT/SVG of a one-crossing drawing", _draw_options),
    "corpus": (cmd_corpus, "three-way equivalence sweep over a graph corpus", _corpus_options),
}


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: when argv[0] names a command, with only its subparser.

    Every `add_argument` builds a help formatter, so the other commands'
    subparsers would cost more than parsing does. The one subparser's
    metavar keeps the top usage line the full parser's, for errors such as
    an unrecognized argument.
    """
    top = argparse.ArgumentParser(prog="onecross", description=__doc__)
    if argv[:1] and argv[0] in COMMANDS:
        names = argv[:1]
        sub = top.add_subparsers(dest="cmd", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = list(COMMANDS)
        sub = top.add_subparsers(dest="cmd", required=True)
    for name in names:
        func, summary, options = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        options(p)
        p.set_defaults(func=func)
    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_PARSE if exc.code else 0
    budget = getattr(args, "budget_steps", None)
    if budget is not None and budget < 0:
        sys.stderr.write("--budget-steps must not be negative\n")
        return EXIT_PARSE
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_PARSE
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except InconsistencyDetected as exc:
        sys.stderr.write(f"INCONSISTENCY: {exc}\n")
        return EXIT_INCONSISTENT
    except OnecrossError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
