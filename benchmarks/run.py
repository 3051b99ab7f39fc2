"""The onecross benchmark: one workload per run, one closed-loop client.

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from `src/`. All
work happens in this one process, on its main thread.

Workloads (see README.md in this directory for why each was chosen):

* decide - `onecross decide --verify` on one graph file per op, in process
  through `cli.main`, with a 2,000,000-step search budget;
* sweep  - `onecross pairs --verify` on one graph file per op;
* build  - `characterize.build_one_drawing_constructive(g, p)` followed by
  `OneDrawing.validate(g)` per op, one known crossing pair p each.

Every op runs under a wall-clock cap. An op fails as `budget` (exit 69),
`timeout` (cap hit) or `crash` (any other exit code or exception); those
count against `solved_frac`. A `wrong` answer (verdict or pair totals differ
from expected.json) or an `unverified` certificate aborts the run with exit
code 1: a faster wrong answer is never a gain.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs the same ops under the per-layer tracer and prints the layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Spans of a traced run go to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import networkx  # noqa: E402,F401  (the library's dependency; imported before set-up is timed)
import numpy  # noqa: E402,F401

from check import Unverified, check_decide_report, check_drawing, check_pairs_report  # noqa: E402
from workloads import (  # noqa: E402
    Op,
    complete_bipartite,
    digest,
    edge_list_text,
    load_expected,
    make_ops,
)

WORKLOADS = ("decide", "sweep", "build")
DECIDE_BUDGET_STEPS = 2_000_000
# Every op at the seed commit either ends well inside this cap (the slowest
# finisher, grid6+2 running out of its step budget, takes 10-14 s) or is
# known to run far past it (grid10+2: 166 s, K5/s300: 405 s).
OP_CAP_S = 22.0
SETUP_REPEATS = 4  # before the ops, and as many again after them
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
WORK_DIR = ".bench_work"
EXIT_CODES = {"planar": 0, "one": 1, "two_plus": 2}
EXIT_BUDGET = 69
EXIT_INCONSISTENT = 70


class OpDeadline(BaseException):
    """Raised by the alarm at the cap.

    A BaseException, so no library handler catches it: cli.main would turn the
    built-in TimeoutError, an OSError, into an input error.
    """


class Abort(Exception):
    """A wrong or unverified answer: the run stops and reports incorrect."""

    def __init__(self, kind: str, op: Op, reason: str) -> None:
        super().__init__(f"{kind}: {op.label}: {reason}")
        self.outcomes: list[Outcome] = []  # the ops before this one


@dataclass
class Outcome:
    label: str
    latency: float
    status: str  # "ok" | "budget" | "timeout" | "crash"
    pairs: int = 0  # edge pairs whose verdict the op's report certifies
    detail: str = ""


def _on_alarm(signum, frame):
    raise OpDeadline()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    ops: list[Op]
    inputs: dict  # per op index: a file path (decide, sweep) or (graph, pair) (build)


def _import_library(src: Path) -> None:
    """A fresh import of onecross (its cli imports every layer the workloads use)."""
    for name in [m for m in sys.modules if m == "onecross" or m.startswith("onecross.")]:
        del sys.modules[name]
    origin = Path(importlib.import_module("onecross.cli").__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"onecross was imported from {origin}, not from {src}")


def prepare(workload: str, seed: int, seconds: float, root: Path) -> Prepared:
    """Import the library and generate the workload's inputs."""
    _import_library(root / "src")
    return materialize(workload, make_ops(workload, seed, seconds, load_expected()), root)


def materialize(workload: str, ops: list[Op], root: Path) -> Prepared:
    """Turn ops into what the runners take: graph files, or graphs and pairs."""
    inputs = {}
    if workload == "build":
        graph = sys.modules["onecross.graph"]
        built = {}
        for i, op in enumerate(ops):
            m = op.member
            if m.name not in built:
                built[m.name] = graph.build(m.edges, vertices=range(m.n))
            inputs[i] = (built[m.name], graph.make_pair(*op.pair))
    else:
        work = root / WORK_DIR / workload
        work.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            path = work / f"op{i:04d}.txt"
            path.write_text(op.member.text, encoding="utf-8")
            inputs[i] = str(path)
    return Prepared(ops, inputs)


def warm_up(workload: str, root: Path) -> None:
    """One untimed op on K3,3, so lazy set-up in the library and networkx is done."""
    edges = complete_bipartite(3, 3)
    if workload == "build":
        graph = sys.modules["onecross.graph"]
        inputs = {0: (graph.build(edges), graph.make_pair(0, 4))}
    else:
        path = root / WORK_DIR / "warm-up.txt"
        path.write_text(edge_list_text(edges), encoding="utf-8")
        inputs = {0: str(path)}
    RUNNERS[workload](Prepared([], inputs), 0)


def timed_setups(workload: str, seed: int, seconds: float, root: Path, times: list[float]) -> Prepared:
    """Set up SETUP_REPEATS times, appending each set-up time; returns the last set-up."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prepared = prepare(workload, seed, seconds, root)
        times.append(time.perf_counter() - t0)
    return prepared


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["onecross.cli"].main(argv)  # looked up per call: the tracer rebinds it
    return code, out.getvalue(), err.getvalue()


def _run_decide(p: Prepared, i: int) -> tuple[int, str, str]:
    return _cli(["decide", p.inputs[i], "--verify", "--budget-steps", str(DECIDE_BUDGET_STEPS)])


def _run_sweep(p: Prepared, i: int) -> tuple[int, str, str]:
    return _cli(["pairs", p.inputs[i], "--verify"])


def _run_build(p: Prepared, i: int):
    g, pair = p.inputs[i]
    drawing = sys.modules["onecross.characterize"].build_one_drawing_constructive(g, pair)
    drawing.validate(g)
    return drawing


RUNNERS = {"decide": _run_decide, "sweep": _run_sweep, "build": _run_build}


def _judge_cli(workload: str, op: Op, code: int, out: str, err: str) -> tuple[str, int, str]:
    """Status, settled pairs and detail of a finished CLI op; raises Abort."""
    if code == EXIT_BUDGET:
        return "budget", 0, err.strip()
    if code == EXIT_INCONSISTENT:
        raise Abort("unverified", op, err.strip())
    if code not in (0, 1, 2):
        return "crash", 0, f"exit {code}: {err.strip()}"
    report = json.loads(out)
    expected = op.member.expected
    if workload == "decide":
        if report["verdict"] != expected["verdict"] or code != EXIT_CODES[report["verdict"]]:
            raise Abort("wrong", op, f"verdict {report['verdict']} (exit {code}), expected {expected['verdict']}")
        _verified(op, check_decide_report, op.member.n, op.member.edges, report)
        certified = {"planar": 0, "one": 1, "two_plus": len(report.get("rejected_pairs", ()))}
        return "ok", certified[report["verdict"]], ""
    crossing, rejected = len(report["crossing_pairs"]), len(report["rejected_pairs"])
    if (crossing, crossing + rejected) != (expected["crossing"], expected["pairs"]) or code != (1 if crossing else 2):
        raise Abort("wrong", op, f"{crossing} crossing of {crossing + rejected} pairs (exit {code}), "
                                 f"expected {expected['crossing']} of {expected['pairs']}")
    _verified(op, check_pairs_report, report)
    return "ok", expected["pairs"], ""


def _judge_build(op: Op, g, pair, drawing) -> tuple[str, int, str]:
    got = drawing.crossing_pair
    if (got.e, got.f) != (pair.e, pair.f):
        raise Abort("wrong", op, f"drawing crosses ({got.e},{got.f})")
    pz = drawing.planarization
    _verified(op, check_drawing, op.member.edges, pair.e, pair.f, pz.w, pz.e_halves, pz.f_halves,
              dict(pz.graph.edge_items()), {v: list(r) for v, r in drawing.rotation.rotation.items()})
    return "ok", 1, ""


def _verified(op: Op, check, *args) -> None:
    try:
        check(*args)
    except Unverified as exc:
        raise Abort("unverified", op, str(exc)) from None


def run_ops(workload: str, p: Prepared, tracer=None) -> list[Outcome]:
    runner = RUNNERS[workload]
    inconsistency = sys.modules["onecross.errors"].InconsistencyDetected
    outcomes = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i, op in enumerate(p.ops):
            if tracer:
                tracer.begin_op(i)
            result = exc = None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            try:
                result = runner(p, i)
            except OpDeadline:
                exc = "timeout"
            except inconsistency as err:  # only build sees these: cli.main turns them into exit 70
                raise Abort("unverified", op, str(err)) from None
            except Exception as err:  # the boundary: any other failure is a crash of this op
                exc = f"crash: {type(err).__name__}: {str(err)[:200]}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                latency = time.perf_counter() - t0
            if tracer:
                tracer.end_op(keep_counts=exc != "timeout")
            if exc is not None:
                status, _, detail = exc.partition(": ")
                outcomes.append(Outcome(op.label, latency, status, 0, detail))
            elif workload == "build":
                g, pair = p.inputs[i]
                outcomes.append(Outcome(op.label, latency, *_judge_build(op, g, pair, result)))
            else:
                outcomes.append(Outcome(op.label, latency, *_judge_cli(workload, op, *result)))
    except Abort as abort:
        abort.outcomes = outcomes
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return outcomes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_rank(ops_per_run: int) -> tuple[float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its 0-based rank."""
    if ops_per_run <= TAIL_BEYOND:
        return 100.0, ops_per_run - 1
    return 100.0 * (ops_per_run - TAIL_BEYOND) / ops_per_run, ops_per_run - TAIL_BEYOND - 1


def end_to_end(outcomes: list[Outcome], setup_s: float) -> tuple[dict, dict]:
    """Metrics and the side facts printed beside them (tail percentile, samples)."""
    busy = sum(o.latency for o in outcomes)
    ok = [o for o in outcomes if o.status == "ok"]
    # a failed op misses any latency limit: rank it at the cap
    ranked = sorted(o.latency if o.status == "ok" else max(o.latency, OP_CAP_S) for o in outcomes)
    pct, rank = tail_rank(len(ranked))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "latency_p50_s": (statistics.median(ranked), "s"),
        "latency_tail_s": (ranked[rank], "s"),
        "solved_frac": (len(ok) / len(outcomes), "fraction"),
        "pairs_per_s": (sum(o.pairs for o in ok) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": round(pct, 2), "samples": len(ranked), "busy_s": round(busy, 2)}


def report(workload: str, outcomes: list[Outcome]) -> None:
    """Human-readable lines: failures by class, and the slowest op."""
    for status in ("budget", "timeout", "crash"):
        failed = [o for o in outcomes if o.status == status]
        print(f"{workload} {status}: {len(failed)}" + "".join(f"\n  {o.label} ({o.latency:.2f} s) {o.detail}"
                                                              for o in failed))
    slowest = max(outcomes, key=lambda o: o.latency)
    print(f"{workload} slowest op: {slowest.label} {slowest.latency:.3f} s ({slowest.status})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[int, int, dict]:
    """Set up, warm up, run and measure one workload; raises Abort on a wrong answer.

    Returns the ops attempted, the ops failed and the metrics, each with its unit.
    """
    setup_times: list[float] = []
    prepared = timed_setups(workload, seed, seconds, root, setup_times)
    print(f"{workload}: seed {seed}, {len(prepared.ops)} ops, members {digest(prepared.ops)}")
    warm_up(workload, root)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        outcomes = run_ops(workload, prepared, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    # more set-ups after the ops, so that setup_s samples the machine at both ends of the run
    timed_setups(workload, seed, seconds, root, setup_times)
    report(workload, outcomes)
    e2e, facts = end_to_end(outcomes, statistics.median(setup_times))
    if tracer:
        layer = tracer.metrics()
        layer["trace.ops_per_s"] = e2e["ops_per_s"][0]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
        spans = root / WORK_DIR / f"spans-{workload}-{seed}.jsonl"
        tracer.write_spans(spans)
        print(f"{sum(1 for s in tracer.spans if s)} spans written to {spans}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        print(f"latency_tail_s is the p{facts['tail_percentile']} of {facts['samples']} ops; "
              f"{facts['busy_s']} s busy")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    return len(outcomes), sum(o.status != "ok" for o in outcomes), metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                    help="'all' runs the three in turn and prefixes each metric with its workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "onecross" / "__init__.py").is_file():
        print(f"no library at {root / 'src' / 'onecross'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    try:
        for workload in workloads:
            ran, lost, measured = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
            attempted += ran
            failed += lost
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in measured.items()})
    except Abort as abort:
        print(f"ABORT {abort}", file=sys.stderr)
        attempted += len(abort.outcomes) + 1
        failed += 1 + sum(o.status != "ok" for o in abort.outcomes)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
