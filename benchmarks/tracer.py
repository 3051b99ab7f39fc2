"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public entry points of each onecross layer and
rebinds every `onecross.*` module attribute that refers to them, because the
modules import each other's functions by name. No library file changes.

* Calls into `graph` are counted, not timed (they are many and cheap), except
  `paths_by_length`, whose iteration time is recorded as `graph.paths_s`
  without making it a child span: path search stays in its caller's self time.
* Every other wrapped call is a span: layer, name, start, end, parent, op.
  Generator functions get one span per `next()`, so their whole iteration is
  timed, not just their creation. A layer's self time is the sum over its
  spans of duration minus the time covered by child spans.
* `PlanarityResult`s are handed out behind a proxy that records whether the
  caller read `.kuratowski` (nonplanar) or `.embedding` (planar).

Counts of an op that hit the wall-clock cap are dropped, since where the
timer fires is not reproducible; its spans and times are kept. Spans stay in
memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer); `characterize.OneDrawing.validate` is a method
SPANNED = [
    ("cli", "main", "cli"),
    ("formats", "parse_input", "formats"),
    ("characterize", "crossing_number_le_1", "characterize"),
    ("characterize", "check_equivalence", "characterize"),
    ("characterize", "condition_ii", "characterize"),
    ("characterize", "condition_iii", "characterize"),
    ("characterize", "oracle_crossing_pair", "characterize"),
    ("characterize", "build_one_drawing_constructive", "characterize"),
    ("characterize", "vertex_disjoint_pairs", "characterize"),
    ("characterize", "planarize", "characterize"),
    ("characterize", "unplanarize", "characterize"),
    ("planarity", "test_planarity", "planarity"),
    ("planarity", "embed_with_outer_cycle", "planarity"),
    ("planarity", "cycle_face_walk", "planarity"),
    ("planarity", "face_with_vertices", "planarity"),
    ("planarity", "face_with_vertex_and_edge", "planarity"),
    ("planarity", "embedding_delete_edges", "planarity"),
    ("planarity", "embedding_subdivide_edge", "planarity"),
    ("planarity", "embedding_smooth_vertex", "planarity"),
    ("planarity", "embedding_add_edge_in_face", "planarity"),
    ("kuratowski", "enumerate_kuratowski", "kuratowski"),
    ("separation", "separated_by_cycles", "separation"),
    ("separation", "verify_separation_witness", "separation"),
    ("bridges", "decompose", "bridges"),
    ("bridges", "overlap", "bridges"),
    ("bridges", "side_of_bridge", "bridges"),
    ("bridges", "detaching_cycle_vv", "bridges"),
    ("bridges", "detaching_cycle_ve", "bridges"),
]
GENERATORS = {"enumerate_kuratowski"}
COUNTED = [
    ("graph", "delete_edges", "graph.copies"),
    ("graph", "restrict", "graph.copies"),
    ("graph", "extend", "graph.copies"),
    ("kuratowski", "branch_structure", "kuratowski.branch_structure_calls"),
]
# counts of calls (and of results) by function name
CALLS = {
    "test_planarity": "planarity.calls",
    "embed_with_outer_cycle": "planarity.outer_cycle_calls",
    "enumerate_kuratowski": "kuratowski.enum_calls",
    "separated_by_cycles": "separation.calls",
    "oracle_crossing_pair": "characterize.oracle_calls",
    "detaching_cycle_vv": "bridges.detaching_calls",
    "detaching_cycle_ve": "bridges.detaching_calls",
    "decompose": "bridges.decompose_calls",
}
# inclusive time of one function, beside the per-layer self times
INCLUSIVE = {
    "embed_with_outer_cycle": "planarity.outer_cycle_s",
    "enumerate_kuratowski": "kuratowski.enum_s",
    "oracle_crossing_pair": "characterize.oracle_s",
}


class _ReadRecorder:
    """A PlanarityResult that remembers whether its certificate was read."""

    __slots__ = ("_result", "_watched", "read")

    def __init__(self, result, watched: str) -> None:
        self._result = result
        self._watched = watched
        self.read = False

    def __getattr__(self, name):
        if name == self._watched:
            self.read = True
        return getattr(self._result, name)


class _CountingNetworkx:
    """Stands in for `networkx` inside onecross.planarity to count planarity tests."""

    def __init__(self, nx, counts: Counter) -> None:
        self._nx = nx
        self._counts = counts

    def check_planarity(self, *args, **kwargs):
        self._counts["planarity.nx_tests"] += 1
        return self._nx.check_planarity(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._nx, name)


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()  # ops that ended without hitting the cap
        self.op_counts: Counter = Counter()  # the op in progress
        self.times: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._child_time: defaultdict[int, float] = defaultdict(float)
        self._results: list[_ReadRecorder] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, start: float, layer: str, name: str) -> float:
        end = time.perf_counter()
        while self._stack and self._stack.pop() != sid:
            pass  # an exception unwound spans that could not close themselves
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            self._child_time[parent] += duration
        self.times[f"{layer}.self_s"] += duration - self._child_time.pop(sid, 0.0)
        self.spans[sid] = (self.op, sid, parent, layer, name, start, end)
        return duration

    def begin_op(self, index: int) -> None:
        self.op = index
        self._stack.clear()
        self._child_time.clear()

    def end_op(self, keep_counts: bool) -> None:
        """Fold the op's counts into the totals, or drop them (cap hit)."""
        for rec in self._results:
            kind = "cert" if rec._watched == "kuratowski" else "embed"
            self.op_counts[f"planarity.{kind}_results"] += 1
            self.op_counts[f"planarity.{kind}_reads"] += rec.read
        self._results.clear()
        if keep_counts:
            self.counts.update(self.op_counts)
        self.op_counts.clear()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        after = getattr(self, f"_after_{name}", None)
        calls, inclusive = CALLS.get(name), INCLUSIVE.get(name)
        budget_error = sys.modules["onecross.errors"].SearchBudgetExceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                self.op_counts[calls] += 1
            sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if name == "separated_by_cycles":
                    self.op_counts["separation.budget_hits"] += 1
                raise
            finally:
                duration = self._close(sid, start, layer, name)
                if inclusive:
                    self.times[inclusive] += duration
            return after(result, duration) if after else result

        return wrapper

    def _generator_wrapper(self, fn, layer: str, name: str):
        calls, inclusive = CALLS[name], INCLUSIVE[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_counts[calls] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid, start = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.times[inclusive] += self._close(sid, start, layer, name)
                    self.op_counts["kuratowski.enum_certs"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _paths_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op_counts["graph.path_searches"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.times["graph.paths_s"] += time.perf_counter() - start
                    yield item
            finally:
                inner.close()

        return wrapper

    def _counter_wrapper(self, fn, key: str):
        counts = self.op_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_test_planarity(self, result, duration):
        if result.planar:
            rec = _ReadRecorder(result, "embedding")
        else:
            self.op_counts["planarity.nonplanar_calls"] += 1
            self.times["planarity.nonplanar_s"] += duration
            rec = _ReadRecorder(result, "kuratowski")
        self._results.append(rec)
        return rec

    def _after_separated_by_cycles(self, verdict, duration):
        self.op_counts["separation.separated"] += verdict.separated
        return verdict

    def _after_oracle_crossing_pair(self, drawing, duration):
        self.op_counts["characterize.oracle_hits"] += drawing is not None
        return drawing

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "onecross" or modname.startswith("onecross."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        mod = lambda name: sys.modules[f"onecross.{name}"]  # noqa: E731
        for modname, name, layer in SPANNED:
            fn = getattr(mod(modname), name)
            make = self._generator_wrapper if name in GENERATORS else self._span_wrapper
            self._rebind(fn, make(fn, layer, name))
        for modname, name, key in COUNTED:
            fn = getattr(mod(modname), name)
            self._rebind(fn, self._counter_wrapper(fn, key))
        paths = mod("graph").paths_by_length
        self._rebind(paths, self._paths_wrapper(paths))
        drawing_cls = mod("characterize").OneDrawing
        self._set(drawing_cls, "validate", self._span_wrapper(drawing_cls.validate, "characterize", "validate"))
        budget_cls = mod("graph")._StepBudget
        self._set(budget_cls, "spend", self._counter_wrapper(budget_cls.spend, "graph.path_steps"))
        planarity = mod("planarity")
        self._set(planarity, "nx", _CountingNetworkx(planarity.nx, self.op_counts))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, t = self.counts, self.times

        def frac(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "planarity.calls": c["planarity.calls"],
            "planarity.self_s": t["planarity.self_s"],
            "planarity.nx_tests": c["planarity.nx_tests"],
            "planarity.nonplanar_calls": c["planarity.nonplanar_calls"],
            "planarity.nonplanar_s": t["planarity.nonplanar_s"],
            "planarity.cert_read_frac": frac("planarity.cert_reads", "planarity.cert_results"),
            "planarity.embed_read_frac": frac("planarity.embed_reads", "planarity.embed_results"),
            "planarity.outer_cycle_calls": c["planarity.outer_cycle_calls"],
            "planarity.outer_cycle_s": t["planarity.outer_cycle_s"],
            "kuratowski.enum_calls": c["kuratowski.enum_calls"],
            "kuratowski.enum_certs": c["kuratowski.enum_certs"],
            "kuratowski.enum_s": t["kuratowski.enum_s"],
            "kuratowski.branch_structure_calls": c["kuratowski.branch_structure_calls"],
            "separation.calls": c["separation.calls"],
            "separation.self_s": t["separation.self_s"],
            "separation.separated_frac": frac("separation.separated", "separation.calls"),
            "separation.budget_hits": c["separation.budget_hits"],
            "graph.path_steps": c["graph.path_steps"],
            "graph.path_searches": c["graph.path_searches"],
            "graph.paths_s": t["graph.paths_s"],
            "graph.copies": c["graph.copies"],
            "characterize.oracle_calls": c["characterize.oracle_calls"],
            "characterize.oracle_hit_frac": frac("characterize.oracle_hits", "characterize.oracle_calls"),
            "characterize.oracle_s": t["characterize.oracle_s"],
            "characterize.self_s": t["characterize.self_s"],
            "bridges.detaching_calls": c["bridges.detaching_calls"],
            "bridges.decompose_calls": c["bridges.decompose_calls"],
            "bridges.self_s": t["bridges.self_s"],
            "formats.parse_s": t["formats.self_s"],
            "cli.self_s": t["cli.self_s"],
        }
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, layer, name, start, end in filter(None, self.spans):
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "layer": layer,
                                     "name": name, "start": start, "end": end}) + "\n")
