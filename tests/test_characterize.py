from __future__ import annotations

import importlib
import pkgutil
import random
from itertools import islice

import networkx as nx
import pytest

import onecross
import onecross.bridges as bridges
import onecross.characterize as characterize
import onecross.cli as cli
import onecross.graph as graph
import onecross.planarity as planarity
from onecross import families
from onecross.bridges import detaching_cycle_vv
from onecross.characterize import (
    AT_LEAST_TWO,
    EXACTLY_ONE,
    PLANAR,
    build_one_drawing_constructive,
    check_equivalence,
    condition_ii,
    condition_iii,
    crossing_number_le_1,
    oracle_crossing_pair,
    planarize,
    unplanarize,
    vertex_disjoint_pairs,
)
from onecross.cli import main
from onecross.errors import InconsistencyDetected, PlanarInput, PreconditionViolated
from onecross.formats import parse_graph6, write_graph6
from onecross.graph import Multigraph, PathInGraph, build, delete_edges, extend, make_pair, paths_by_length
from onecross.kuratowski import enumerate_kuratowski, is_crossing_pair_in_kuratowski
from onecross.planarity import test_planarity as run_planarity
from onecross.separation import NOT_SEPARATED, separated_by_cycles
from helpers import (
    decorated_subdivision,
    grid_with_diagonals,
    nx_to_multigraph,
    potential_crossing_pairs,
    random_nonplanar_graph,
    subdivided,
)

# V8 edge ids: rim i = (v_i, v_{i+1}) for i in 0..7, chord 8+i = (v_i, v_{i+4}).
# Crossing pairs computed by the gadget oracle on first verified run and
# confirmed by exhaustive rotation search of every planarization.
V8_CROSSING_PAIRS = [
    (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6),
    (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7),
]


def _sedge(a, b):
    return families.siran_edge(a, b)


# ---------------------------------------------------------------------------
# planarize / unplanarize
# ---------------------------------------------------------------------------


def test_planarize_shape(v8):
    pz = planarize(v8, make_pair(0, 4))
    assert pz.w == 8
    assert pz.graph.n == 9 and pz.graph.m == 14
    assert pz.graph.degree(pz.w) == 4


def test_unplanarize_roundtrip(v8, k5, siran):
    for g in (v8, k5, siran):
        for p in vertex_disjoint_pairs(g)[:10]:
            assert unplanarize(planarize(g, p)) == g


# ---------------------------------------------------------------------------
# the gadget oracle
# ---------------------------------------------------------------------------


def test_v8_fig1_pair_crosses(v8):
    drawing = oracle_crossing_pair(v8, make_pair(0, 4))
    assert drawing is not None
    drawing.validate(v8)
    assert drawing.alternates_at_crossing()


def test_v8_frozen_pair_list(v8):
    got = [(p.e, p.f) for p in vertex_disjoint_pairs(v8)
           if oracle_crossing_pair(v8, p) is not None]
    assert got == V8_CROSSING_PAIRS


def test_v8_no_pair_contains_any_chord(v8):
    chords = {8, 9, 10, 11}
    assert all(e not in chords and f not in chords for e, f in V8_CROSSING_PAIRS)


def test_oracle_tests_only_the_gadget(v8, lr_tests):
    pairs = vertex_disjoint_pairs(v8)
    for p in pairs:
        oracle_crossing_pair(v8, p)
    assert len(lr_tests) == len(pairs)
    lr_tests.clear()
    assert oracle_crossing_pair(v8, make_pair(0, 1)) is None
    assert lr_tests == []


def test_oracle_rejects_adjacent_edges(v8):
    assert oracle_crossing_pair(v8, make_pair(0, 1)) is None


def test_siran_pairs(siran):
    assert oracle_crossing_pair(siran, make_pair(_sedge("u", "x"), _sedge("w", "z"))) is None
    drawing = oracle_crossing_pair(siran, make_pair(_sedge("u", "y"), _sedge("w", "z")))
    assert drawing is not None
    drawing.validate(siran)


# ---------------------------------------------------------------------------
# conditions (ii) and (iii)
# ---------------------------------------------------------------------------


def _evidence(g, p):
    """What conditions (ii) and (iii) read about one pair: certificates,
    separation verdict, and the planarity of g - e and of g - f."""
    certs = list(enumerate_kuratowski(g))
    planar_minus = [run_planarity(delete_edges(g, [x])).planar for x in (p.e, p.f)]
    return certs, separated_by_cycles(g, p), *planar_minus


def _sweep_report(g, p):
    _certs, reports = check_equivalence(g)
    return next(r for r in reports if r.pair == p)


def test_condition_ii_siran_separated_pair(siran):
    two = _sweep_report(siran, make_pair(_sedge("u", "x"), _sedge("w", "z"))).cond_ii
    assert not two.holds
    assert two.failing_cert is None  # first conjunct passes: only one Kuratowski
    assert two.separation is not None and two.separation.separated


def test_condition_ii_v8_true_pair(v8):
    two = _sweep_report(v8, make_pair(0, 4)).cond_ii
    assert two.holds and two.certs_checked > 0


def test_condition_ii_k5_adjacent_pair(k5):
    p = make_pair(0, 1)
    certs, sep, *_ = _evidence(k5, p)
    two = condition_ii(p, certs, sep)
    assert not two.holds
    assert two.failing_cert is not None


def test_condition_iii_v8(v8):
    three = _sweep_report(v8, make_pair(0, 4)).cond_iii
    assert three.holds
    assert three.witness_cert is not None and three.witness_cert.kind == "K33"
    assert three.planar_minus_e and three.planar_minus_f


def test_condition_iii_v8_adjacent_pair(v8):
    p = make_pair(0, 9)  # v0v1 and v1v5 share v1
    three = condition_iii(p, *_evidence(v8, p))
    assert not three.holds
    assert not three.separation.separated
    assert three.witness_cert is None  # no subdivision crosses an adjacent pair


def test_condition_iii_k34_clause_evidence(k34):
    _certs, reports = check_equivalence(k34)
    for r in islice(reports, 6):
        three = r.cond_iii
        assert not three.holds
        assert not three.separation.separated
        assert not (three.planar_minus_e or three.planar_minus_f)


# ---------------------------------------------------------------------------
# check_equivalence
# ---------------------------------------------------------------------------


def test_equivalence_v8_all_true(v8):
    rep = _sweep_report(v8, make_pair(0, 4))
    assert rep.cond_i and rep.cond_ii.holds and rep.cond_iii.holds and rep.consistent


def test_equivalence_v8_chord_pair(v8):
    rep = _sweep_report(v8, make_pair(0, 10))  # v0v1 with chord v2v6
    assert rep.consistent and not rep.cond_i


def test_equivalence_k6_sample(k6):
    _certs, reports = check_equivalence(k6)
    for rep in islice(reports, 12):
        assert rep.consistent and not rep.cond_i


def test_equivalence_sweep_decides_each_deletion_once(v8, lr_tests):
    # V8 has 12 edges and 42 vertex-disjoint pairs, and no edge count here
    # refutes planarity: one test of V8, the oracle's gadget per pair, one
    # test of V8 - x per edge
    certs, reports = check_equivalence(v8)
    assert len(lr_tests) == 1
    assert sum(1 for _ in reports) == 42
    assert len(lr_tests) == 1 + 42 + 12
    assert len(certs) == len(list(enumerate_kuratowski(v8)))


def test_equivalence_sweep_on_k6_is_counted(k6, lr_tests):
    # K6, each gadget (7 vertices, 17 edges) and each K6 - x (6, 14) exceed
    # 3n - 6 edges, so Euler's count decides them all
    certs, reports = check_equivalence(k6)
    assert sum(1 for rep in reports if rep.consistent and not rep.cond_i) == 45
    assert lr_tests == []
    assert len(certs) == len(list(enumerate_kuratowski(k6)))


def test_equivalence_rejects_planar(q3):
    with pytest.raises(PlanarInput):
        check_equivalence(q3)


# ---------------------------------------------------------------------------
# crossing_number_le_1
# ---------------------------------------------------------------------------


def test_decide_v8(v8):
    decision = crossing_number_le_1(v8)
    assert decision.kind == EXACTLY_ONE
    decision.drawing.validate(v8)


@pytest.fixture()
def extractions(monkeypatch) -> list:
    """Records each Kuratowski extraction: the simple graph and its subdivision."""
    built = []
    extract = planarity._extract_kuratowski

    def recording(gs):
        cert = extract(gs)
        built.append((gs, cert))
        return cert

    monkeypatch.setattr(planarity, "_extract_kuratowski", recording)
    return built


def test_decide_k6(k6, extractions):
    decision = crossing_number_le_1(k6)
    assert decision.kind == AT_LEAST_TWO
    assert decision.failures
    assert all(f.reason in ("separated", "deletion_nonplanar") for f in decision.failures)
    deletions = [f for f in decision.failures if f.reason == "deletion_nonplanar"]
    assert deletions
    failing_edges = {
        next(x for x in (f.pair.e, f.pair.f) if not run_planarity(delete_edges(k6, [x])).planar)
        for f in deletions
    }
    # besides k6's own, each extraction is of some k6 - y and valid there
    covers = []
    for gs, cert in extractions[1:]:
        missing = set(k6.edge_ids()) - set(gs.edge_ids())
        assert len(missing) == 1
        cert.validate(delete_edges(k6, missing))
        covers.append(cert)
    # each failing deletion is certified: by Euler's edge bound, or by a
    # subdivision that avoids its edge and so is one of k6 - x
    for x in failing_edges:
        assert run_planarity(delete_edges(k6, [x])).counted or any(x not in c.edges for c in covers)


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(families.complete_graph(6), id="K6"),
        pytest.param(families.complete_graph(7), id="K7"),
        pytest.param(families.complete_bipartite(3, 4), id="K3,4"),
        pytest.param(families.complete_bipartite(4, 4), id="K4,4"),
    ],
)
def test_decide_two_plus_extractions_cover_the_failing_deletions(g, extractions):
    # g's own subdivision alone: Euler's edge bound proves every failing
    # deletion nonplanar, so none needs a cover (5, 5, 4 and 4 extractions
    # with shared covers, 8, 8, 7 and 7 with one per failing edge)
    assert crossing_number_le_1(g).kind == AT_LEAST_TWO
    assert len(extractions) == 1


K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def test_decide_covers_the_deletions_within_the_euler_bound(extractions):
    # two K3,3 joined by the edge 0-6 (n = 12, m = 19): no deletion meets
    # Euler's edge bound, so the failing deletions keep their extracted cover
    g = build(K33 + [(a + 6, b + 6) for a, b in K33] + [(0, 6)])
    decision = crossing_number_le_1(g)
    assert decision.kind == AT_LEAST_TWO
    failing_edges = {
        next(x for x in (f.pair.e, f.pair.f) if not run_planarity(delete_edges(g, [x])).planar)
        for f in decision.failures
    }
    assert failing_edges
    assert not any(run_planarity(delete_edges(g, [x])).counted for x in failing_edges)
    assert len(extractions) == 2
    covers = []
    for gs, cert in extractions[1:]:
        (y,) = set(g.edge_ids()) - set(gs.edge_ids())
        cert.validate(g)
        assert y not in cert.edges
        covers.append(cert)
    assert all(any(x not in c.edges for c in covers) for x in failing_edges)


@pytest.mark.parametrize(
    "g,holds",
    [
        pytest.param(delete_edges(families.complete_graph(6), [0]), True, id="K6-e"),
        pytest.param(delete_edges(families.complete_graph(7), [0]), True, id="K7-e"),
        pytest.param(delete_edges(families.complete_bipartite(3, 4), [0]), True, id="K3,4-e"),
        pytest.param(delete_edges(families.complete_bipartite(4, 4), [0]), True, id="K4,4-e"),
        pytest.param(delete_edges(families.complete_graph(5), [0]), False, id="K5-e"),
        pytest.param(delete_edges(families.complete_bipartite(3, 3), [0]), False, id="K3,3-e"),
        pytest.param(nx_to_multigraph(nx.petersen_graph()), False, id="Petersen"),
        # 2n - 4 = 8 edges once the doubled edge counts once; 9 if it counted twice
        pytest.param(build(K33[1:] + [K33[1]]), False, id="K3,3-e+parallel"),
        pytest.param(build([(0, 1), (0, 1), (0, 1)]), False, id="two-vertices"),
        pytest.param(families.complete_graph(4), False, id="K4"),
        pytest.param(families.cube_graph(), False, id="Q3"),
        pytest.param(grid_with_diagonals(4), False, id="grid4+2"),
    ],
)
def test_euler_bound(g, holds, lr_tests):
    res = run_planarity(g)
    assert res.counted == holds
    if holds:
        assert not res.planar and lr_tests == []


def test_euler_bound_only_on_nonplanar_deletions():
    # every connected atlas graph, planar or not, less each of its edges:
    # wherever the count decides, networkx finds the deletion nonplanar
    held = 0
    for g in families.atlas_connected(7):
        for x in g.edge_ids():
            h = delete_edges(g, [x])
            if run_planarity(h).counted:
                held += 1
                assert not nx.check_planarity(nx.Graph([ends for _, ends in h.edge_items()]))[0]
    assert held > 0


def test_decide_planar(q3):
    decision = crossing_number_le_1(q3)
    assert decision.kind == PLANAR
    assert decision.embedding.is_planar_embedding()


def test_decide_k5_and_k33(k5, k33):
    for g in (k5, k33):
        decision = crossing_number_le_1(g)
        assert decision.kind == EXACTLY_ONE
        decision.drawing.validate(g)


def test_decide_k34(k34):
    assert crossing_number_le_1(k34).kind == AT_LEAST_TWO


@pytest.fixture()
def separation_calls(monkeypatch) -> list:
    """Records each separation search that the decision makes."""
    calls = []

    def counting(g, p, budget=None):
        calls.append(p)
        return separated_by_cycles(g, p, budget=budget)

    monkeypatch.setattr(characterize, "separated_by_cycles", counting)
    return calls


@pytest.mark.parametrize("g", [families.moebius_ladder(32), grid_with_diagonals(6)], ids=["V64", "grid6+2"])
def test_decide_one_searches_no_separation(g, separation_calls):
    # the oracle decides every candidate whose deletions are planar, so a
    # `one` verdict never needs the exhaustive proof of non-separation
    decision = crossing_number_le_1(g)
    assert decision.kind == EXACTLY_ONE
    decision.drawing.validate(g)
    assert separation_calls == []


@pytest.mark.parametrize(
    "g,kind,tests",
    [
        pytest.param(families.v8(), EXACTLY_ONE, 15, id="V8"),
        pytest.param(families.complete_graph(6), AT_LEAST_TWO, 2, id="K6"),
        pytest.param(families.complete_graph(7), AT_LEAST_TWO, 2, id="K7"),
        pytest.param(families.complete_bipartite(3, 4), AT_LEAST_TWO, 7, id="K3,4"),
        pytest.param(families.complete_bipartite(4, 4), AT_LEAST_TWO, 7, id="K4,4"),
        pytest.param(grid_with_diagonals(6), EXACTLY_ONE, 59, id="grid6+2"),
    ],
)
def test_decide_counts_left_right_tests(g, kind, tests, lr_tests):
    # the extractions stop once their kept chains are one subdivision and
    # drop pendant edges untested, and Euler's edge count decides dense
    # graphs untested: V8 took 18 and K6 121, then K6 66, K7 96, K3,4 34,
    # K4,4 62 and grid6+2 75, then K6 5, K7 10, K3,4 9 and K4,4 12 while the
    # count was decide's alone
    assert crossing_number_le_1(g).kind == kind
    assert len(lr_tests) == tests


def test_decide_long_subdivision_in_few_tests(lr_tests, monkeypatch):
    # K5 with each edge a path of 300 edges: the extraction tests one edge
    # per chain, and of the 1,350,000 candidates only those up to the first
    # hit are generated
    probed = []

    def counting(bs, e, f):
        probed.append(1)
        return is_crossing_pair_in_kuratowski(bs, e, f)

    monkeypatch.setattr(characterize, "is_crossing_pair_in_kuratowski", counting)
    g = subdivided(families.complete_graph(5), [300] * 10)
    decision = crossing_number_le_1(g)
    assert decision.kind == EXACTLY_ONE
    decision.drawing.validate(g)
    assert len(lr_tests) <= 30
    assert len(probed) <= 10_000


def test_decide_long_subdivision_tests_the_full_graph_twice(lr_tests):
    # K5 with each edge a path of 300 edges: the deletions run on the kernel
    # K5, so only g's own test and the oracle's gadget test the 3,000 edges
    # (4 such tests before)
    g = subdivided(families.complete_graph(5), [300] * 10)
    assert crossing_number_le_1(g).kind == EXACTLY_ONE
    assert sum(1 for m in lr_tests if m > 1000) <= 2


def test_decide_long_subdivision_of_k6_on_its_kernel(lr_tests, extractions):
    # K6 with each edge a path of 60 edges decides like K6, on its kernel:
    # Euler's edge bound proves each K6 less a kernel edge nonplanar, so the
    # only extraction is g's own (483 tests before the kernel; 5 extractions,
    # 4 of them covers of K6 less a kernel edge, before the bound)
    g = subdivided(families.complete_graph(6), [60] * 15)
    decision = crossing_number_le_1(g)
    assert decision.kind == AT_LEAST_TWO
    assert len(decision.failures) == 54_000
    assert len(lr_tests) <= 100
    assert len(extractions) == 1


def test_decide_is_invariant_under_subdivision():
    # every connected nonplanar atlas graph, each edge a path of 1-3 edges:
    # the same verdict, and a `one` drawing crosses the paths of the atlas
    # graph's own pair
    rng = random.Random(2301)
    graphs = 0
    for g in families.atlas_connected(7):
        if run_planarity(g).planar:
            continue
        graphs += 1
        lengths = [rng.randint(1, 3) for _ in range(g.m)]
        h = subdivided(g, lengths)
        want, got = crossing_number_le_1(g), crossing_number_le_1(h)
        assert got.kind == want.kind
        if got.kind == EXACTLY_ONE:
            got.drawing.validate(h)
            first = [sum(lengths[:i]) for i in range(g.m + 1)]
            path = {e: range(first[e], first[e + 1]) for e in g.edge_ids()}
            pair = want.drawing.crossing_pair
            assert got.drawing.crossing_pair.e in path[pair.e]
            assert got.drawing.crossing_pair.f in path[pair.f]
    assert graphs == 221


def _decision_json(d):
    return (d.kind, d.drawing and cli._drawing_json(d.drawing),
            [(f.pair, f.reason, f.separation and cli._separation_json(f.separation)) for f in d.failures])


def test_decide_on_the_kernel_matches_the_per_edge_path(monkeypatch):
    # decorated subdivisions of the connected nonplanar atlas graphs, with
    # hanging cycles, pendant paths, chords, a parallel edge and shuffled
    # ids: the same decision as with g as its own kernel, which tests every
    # deletion g - x on g
    rng = random.Random(2302)
    graphs = [decorated_subdivision(rng, g) for g in families.atlas_connected(7) if not run_planarity(g).planar]
    on_kernel = [_decision_json(crossing_number_le_1(h)) for h in graphs]
    monkeypatch.setattr(characterize, "kernel", lambda g: (g, {e: PathInGraph(ends, (e,)) for e, ends in g.edge_items()}))
    assert [_decision_json(crossing_number_le_1(h)) for h in graphs] == on_kernel
    # some kernels take two smoothing rounds: a cycle hangs at a chain's
    # interior vertex, which has degree 2 once the cycle is dropped
    assert any(c.is_cycle and h.degree(c.vertices[0]) == 4 for h in graphs for c in graph.degree2_chains(h))


# the triangular prism with an apex joined to all six vertices: cr >= 2, and
# two of the candidates of its first subdivision have planar deletions
PRISM_APEX = parse_graph6("FtTnw")


def test_decide_two_plus_separates_the_refused_pairs(separation_calls):
    decision = crossing_number_le_1(PRISM_APEX)
    assert decision.kind == AT_LEAST_TWO
    separated = [f.pair for f in decision.failures if f.reason == "separated"]
    assert separated == [make_pair(0, 7), make_pair(5, 7)] == separation_calls
    assert all(f.separation.separated for f in decision.failures if f.reason == "separated")


def test_decide_unseparated_refused_pair_is_an_inconsistency(monkeypatch, tmp_path, capsys):
    # the oracle refused the pair, so by (i) <=> (iii) a separation witness
    # must exist; a search that finds none is an implementation bug: exit 70
    monkeypatch.setattr(characterize, "separated_by_cycles", lambda g, p, budget=None: NOT_SEPARATED)
    with pytest.raises(InconsistencyDetected):
        crossing_number_le_1(PRISM_APEX)
    path = tmp_path / "prism_apex.g6"
    path.write_text(write_graph6(PRISM_APEX) + "\n")
    assert main(["decide", str(path)]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("INCONSISTENCY: condition (iii) holds for (0,7)")


# ---------------------------------------------------------------------------
# the constructive builder
# ---------------------------------------------------------------------------


@pytest.fixture()
def side_route(monkeypatch) -> None:
    """The builder with drawing e across f declined, so every pair takes the side route."""
    monkeypatch.setattr(characterize, "_draw_across", lambda g, p, emb: None)


def _canon(rs):
    def norm(rot):
        if not rot:
            return rot
        i = rot.index(min(rot))
        return rot[i:] + rot[:i]

    return tuple(sorted((v, norm(rot)) for v, rot in rs.rotation.items()))


def test_constructive_v8_matches_oracle_up_to_reflection(v8):
    p = make_pair(0, 4)
    built = build_one_drawing_constructive(v8, p)
    built.validate(v8)
    gadget = oracle_crossing_pair(v8, p)
    assert _canon(built.rotation) in (_canon(gadget.rotation), _canon(gadget.rotation.mirrored()))


def test_constructive_siran(siran):
    p = make_pair(_sedge("u", "y"), _sedge("w", "z"))
    built = build_one_drawing_constructive(siran, p)
    built.validate(siran)


def test_constructive_k33(k33):
    p = make_pair(0, 4)  # (0,3) and (1,4): disjoint branches
    built = build_one_drawing_constructive(k33, p)
    built.validate(k33)


def test_constructive_rejects_bad_pair(v8):
    with pytest.raises(PreconditionViolated):
        build_one_drawing_constructive(v8, make_pair(8, 10))  # two chords


def _drawable_cases(v8, siran, k33):
    disconnected, _ = extend(v8, [20, 21, 22], [(20, 21), (21, 22), (22, 20)])
    return [
        (v8, make_pair(0, 4)),
        (siran, make_pair(_sedge("u", "y"), _sedge("w", "z"))),
        (k33, make_pair(0, 4)),
        (disconnected, make_pair(0, 4)),
    ]


def test_constructive_builder_does_no_embedding_surgery(monkeypatch, v8, siran, k33):
    # each side is embedded on the planarization itself, so no edge is
    # subdivided, anchored, smoothed or routed after an embedding exists
    def refuse(*_args, **_kwargs):
        raise AssertionError("the builder performed embedding surgery")

    for info in pkgutil.iter_modules(onecross.__path__, "onecross."):
        module = importlib.import_module(info.name)
        for name in ("embedding_subdivide_edge", "embedding_add_edge_in_face",
                     "embedding_smooth_vertex", "embedding_delete_edges"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for g, p in _drawable_cases(v8, siran, k33):
        build_one_drawing_constructive(g, p).validate(g)


def test_constructive_builder_makes_no_separation_search(monkeypatch, separation_calls, v8, siran, k33):
    # the detaching cycle is read off the witness, and a failed step is
    # classified by the gadget, not by a search
    detaching_calls = []

    def counting(g, x, y):
        detaching_calls.append((x, y))
        return detaching_cycle_vv(g, x, y)

    monkeypatch.setattr(bridges, "detaching_cycle_vv", counting)
    monkeypatch.setattr(characterize, "detaching_cycle_vv", counting, raising=False)
    for g, p in _drawable_cases(v8, siran, k33):
        build_one_drawing_constructive(g, p).validate(g)
    assert separation_calls == [] and detaching_calls == []

    separated = make_pair(_sedge("u", "x"), _sedge("w", "z"))
    with pytest.raises(PreconditionViolated):
        build_one_drawing_constructive(siran, separated)
    assert separation_calls == [] and detaching_calls == []


# pairs whose ends face f from both sides in g - e's embedding
DRAWN_ACROSS = [
    pytest.param(families.v8(), make_pair(0, 4), id="V8"),
    pytest.param(families.siran_graph(), make_pair(_sedge("u", "y"), _sedge("w", "z")), id="Siran"),
    pytest.param(families.complete_bipartite(3, 3), make_pair(0, 4), id="K33"),
]


@pytest.mark.parametrize("g,p", DRAWN_ACROSS)
def test_constructive_builder_makes_three_left_right_tests(g, p, side_route, lr_tests):
    # g - e and the two sides' embeddings; g - f is not tested, since the
    # validated drawing embeds it
    build_one_drawing_constructive(g, p).validate(g)
    assert len(lr_tests) == 3


@pytest.mark.parametrize("g,p", DRAWN_ACROSS)
def test_constructive_builder_draws_across_f_in_one_left_right_test(g, p, lr_tests, extractions):
    # g - e's embedding has e's ends on the two faces beside f: e is drawn
    # across f there, with no witness and no side embedding
    emb = run_planarity(delete_edges(g, [p.e])).embedding
    assert characterize._draw_across(g, p, emb) is not None
    lr_tests.clear()
    build_one_drawing_constructive(g, p).validate(g)
    assert len(lr_tests) == 1 and extractions == []


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(families.moebius_ladder(64), id="V128"),
        pytest.param(subdivided(families.complete_graph(5), [300] * 10), id="K5/s300"),
    ],
)
def test_constructive_builder_draws_the_decided_pair_of_a_large_graph_across(g, monkeypatch, lr_tests, extractions):
    # above the enumeration gate the side route would extract a witness and
    # embed both sides; drawing e across f tests g - e alone
    decision = crossing_number_le_1(g)
    assert decision.kind == EXACTLY_ONE
    lr_tests.clear()
    extractions.clear()
    monkeypatch.setattr(characterize, "embed_with_outer_cycle", None)
    build_one_drawing_constructive(g, decision.drawing.crossing_pair).validate(g)
    assert len(lr_tests) == 1 and extractions == []


def test_constructive_builder_embeds_the_sides_of_a_declined_pair(lr_tests):
    # an atlas graph (graph6 E^NG): in g - (0,5)'s embedding the faces beside
    # (2,4) do not hold 0 and 5 one each, so the sides are embedded and glued
    g = build([(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    p = make_pair(2, 7)
    assert (g.endpoints(p.e), g.endpoints(p.f)) == ((0, 5), (2, 4))
    assert oracle_crossing_pair(g, p) is not None
    assert characterize._draw_across(g, p, run_planarity(delete_edges(g, [p.e])).embedding) is None
    lr_tests.clear()
    build_one_drawing_constructive(g, p).validate(g)
    assert len(lr_tests) == 3


def test_constructive_builder_makes_no_path_search(monkeypatch, v8, siran, k33):
    # the detaching cycle is walked, not searched
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return paths_by_length(*args, **kwargs)

    monkeypatch.setattr(graph, "paths_by_length", counting)
    for g, p in _drawable_cases(v8, siran, k33)[:3]:
        build_one_drawing_constructive(g, p).validate(g)
    assert searches == []


def test_walk_cycle_refuses_what_is_not_one_cycle():
    two_triangles = graph.build([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    path = graph.build([(0, 1), (1, 2), (2, 3)])
    figure_eight = graph.build([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    theta = graph.build([(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)])
    for g in (two_triangles, path, figure_eight, theta):
        with pytest.raises(InconsistencyDetected):
            characterize._walk_cycle(g, g.edge_ids())
    square = graph.build([(0, 1), (2, 3), (1, 2), (3, 0)])
    assert characterize._walk_cycle(square, square.edge_ids()).vertices == (0, 1, 2, 3, 0)


def test_constructive_failed_step_on_unseparated_pair_is_an_inconsistency(
    monkeypatch, separation_calls, side_route, v8
):
    # V8 (0,4) is a crossing pair, so the gadget graph is planar and the
    # failed step's error stands
    monkeypatch.setattr(characterize, "embed_with_outer_cycle", lambda g, c: None)
    with pytest.raises(InconsistencyDetected):
        build_one_drawing_constructive(v8, make_pair(0, 4))
    assert separation_calls == []


@pytest.mark.parametrize("n", [8, 16], ids=["V16", "V32"])
def test_constructive_builds_above_the_enumeration_gate(n):
    # above 12 vertices the witness is the subdivision extracted from g's
    # planarity test; every pair the oracle accepts is built, and on V16
    # every other pair is refused
    g = families.moebius_ladder(n)
    built = 0
    for p in vertex_disjoint_pairs(g):
        if oracle_crossing_pair(g, p) is None:
            if n == 8:
                with pytest.raises(PreconditionViolated):
                    build_one_drawing_constructive(g, p)
            continue
        build_one_drawing_constructive(g, p).validate(g)
        built += 1
    assert built == 3 * n


def test_constructive_builds_long_subdivision_pairs():
    # K5 with each edge a path of 10 edges (95 vertices): its crossing pairs
    # are the edges of disjoint branches, 15 branch pairs of 10 x 10 edges;
    # every 100th of them in pair order is built
    k5 = families.complete_graph(5)
    g = subdivided(k5, [10] * 10)
    branch_ends = [set(k5.endpoints(b)) for b in k5.edge_ids()]
    crossing = [
        p for p in vertex_disjoint_pairs(g)
        if not branch_ends[p.e // 10] & branch_ends[p.f // 10]
    ]
    assert len(crossing) == 1500
    for p in crossing[::100]:
        assert oracle_crossing_pair(g, p) is not None
        build_one_drawing_constructive(g, p).validate(g)


def test_constructive_agrees_with_oracle_random():
    rng = random.Random(31)
    built = 0
    for _ in range(12):
        g = random_nonplanar_graph(rng, 9)
        _certs, reports = check_equivalence(g)
        for r in reports:
            holds = r.cond_iii.holds
            assert holds == (r.drawing is not None)
            if holds:
                drawing = build_one_drawing_constructive(g, r.pair)
                drawing.validate(g)
                built += 1
    assert built >= 5


# ---------------------------------------------------------------------------
# potential crossing pairs
# ---------------------------------------------------------------------------


def test_k6_minus_edge_no_potential_pairs(k6):
    assert potential_crossing_pairs(delete_edges(k6, [0])) == []


def test_k6_minus_two_edges_has_potential_pairs(k6):
    got = potential_crossing_pairs(delete_edges(k6, [0, 14]))
    assert got
    assert all(not sep.separated for _, sep in got)


def test_siran_potential_pairs(siran):
    got = {(p.e, p.f): sep.separated for p, sep in potential_crossing_pairs(siran)}
    ux_wz = tuple(sorted((_sedge("u", "x"), _sedge("w", "z"))))
    uy_wz = tuple(sorted((_sedge("u", "y"), _sedge("w", "z"))))
    assert got[ux_wz] is True
    assert got[uy_wz] is False


# ---------------------------------------------------------------------------
# cross-cutting facts from the discussion of crossing pairs
# ---------------------------------------------------------------------------


def test_fact_one_crossing_pair_deletions_planar():
    checked = 0
    for g in families.atlas_connected(6):
        if run_planarity(g).planar:
            continue
        for p in vertex_disjoint_pairs(g):
            if oracle_crossing_pair(g, p) is not None:
                assert run_planarity(delete_edges(g, [p.e])).planar
                assert run_planarity(delete_edges(g, [p.f])).planar
                checked += 1
    assert checked > 20


def test_fact_two_implies_fact_one():
    # crossing pair of every Kuratowski subgraph forces both deletions planar,
    # independently of the separation conjunct
    for g in families.atlas_connected(6):
        if run_planarity(g).planar:
            continue
        _certs, reports = check_equivalence(g)
        for r in reports:
            first_conjunct = r.cond_ii.failing_cert is None
            if first_conjunct:
                assert run_planarity(delete_edges(g, [r.pair.e])).planar
                assert run_planarity(delete_edges(g, [r.pair.f])).planar


def test_disconnected_input_end_to_end(v8):
    from onecross.graph import extend

    g, _ = extend(v8, [20, 21, 22], [(20, 21), (21, 22), (22, 20)])
    decision = crossing_number_le_1(g)
    assert decision.kind == EXACTLY_ONE
    decision.drawing.validate(g)
    built = build_one_drawing_constructive(g, make_pair(0, 4))
    built.validate(g)


# ---------------------------------------------------------------------------
# multigraph behaviour
# ---------------------------------------------------------------------------


def test_equivalence_on_random_multigraphs():
    rng = random.Random(424242)
    from onecross.graph import build

    graphs = 0
    while graphs < 15:
        n = rng.randint(5, 7)
        m = rng.randint(n + 2, min(2 * n + 2, n * (n - 1) // 2 + 3))
        edges = [(u, v) for _ in range(m)
                 for u, v in [(rng.randrange(n), rng.randrange(n))] if u != v]
        if len(edges) < 4:
            continue
        g = build(edges, vertices=range(n))
        if run_planarity(g).planar:
            continue
        graphs += 1
        _certs, reports = check_equivalence(g)
        assert all(r.consistent for r in reports)


def _decorated_nonplanar_multigraph(rng: random.Random) -> Multigraph:
    """A random nonplanar graph with a parallel edge, a pendant path and a
    hanging triangle added, on at most 12 vertices."""
    g = random_nonplanar_graph(rng, 8)
    g, _ = extend(g, [], [g.endpoints(rng.choice(g.edge_ids()))])
    a, b = g.max_vertex() + 1, g.max_vertex() + 2
    g, _ = extend(g, [a, b], [(rng.randrange(g.n), a), (a, b)])
    x, y = g.max_vertex() + 1, g.max_vertex() + 2
    t = rng.randrange(g.n)
    g, _ = extend(g, [x, y], [(t, x), (x, y), (y, t)])
    assert g.n <= 12
    return g


def test_constructive_on_random_multigraphs():
    rng = random.Random(2024)
    built = refused = 0
    for _ in range(40):
        g = _decorated_nonplanar_multigraph(rng)
        for p in vertex_disjoint_pairs(g):
            if oracle_crossing_pair(g, p) is None:
                with pytest.raises(PreconditionViolated):
                    build_one_drawing_constructive(g, p)
                refused += 1
            else:
                build_one_drawing_constructive(g, p).validate(g)
                built += 1
    assert built >= 20 and refused >= 20


def test_v8_with_doubled_rim_edge(v8):
    # an edge with a parallel twin is in no crossing pair: the subdivision
    # built from the twin omits it, so the universal condition fails
    from onecross.graph import extend

    g, (twin,) = extend(v8, [], [v8.endpoints(0)])
    _certs, reports = check_equivalence(g)
    crossing = []
    for r in reports:
        assert r.consistent
        if r.cond_i:
            crossing.append((r.pair.e, r.pair.f))
    assert crossing == [(1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7)]
    assert all(0 not in pair and twin not in pair for pair in crossing)
    assert crossing_number_le_1(g).kind == EXACTLY_ONE


# ---------------------------------------------------------------------------
# conjecture probing: cr >= 2 graphs should exhibit no potential pair
# ---------------------------------------------------------------------------


def test_no_potential_pairs_on_known_cr2_graphs(k34):
    assert potential_crossing_pairs(k34) == []
    assert potential_crossing_pairs(families.complete_bipartite(4, 4)) == []


def test_no_potential_pairs_on_random_cr2_graphs():
    import networkx as nx
    from helpers import nx_to_multigraph

    rng = random.Random(99)
    probed = 0
    while probed < 10:
        n = rng.randint(6, 8)
        G = nx.gnm_random_graph(n, rng.randint(n + 4, min(3 * n, n * (n - 1) // 2)),
                                seed=rng.randrange(10 ** 9))
        g = nx_to_multigraph(G)
        if run_planarity(g).planar or crossing_number_le_1(g).kind != AT_LEAST_TWO:
            continue
        probed += 1
        assert potential_crossing_pairs(g) == []
