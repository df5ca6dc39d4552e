"""Validation happens once, where a value is built.

A ``Graph`` checks itself as it is built, while graphs from ``make_graph``,
the parsers and the toolkit's own derivations are filled in by
``_trusted_graph`` without the check; these tests hold that trust to
account. Every derived graph passes the constructor's check and equals what
``make_graph`` builds from the same data, a broken hand-built ``Graph(...)``
cannot be built, so neither ``validate`` nor any solver or derivation ever
sees one, and one public solve 2-colors its input once and checks no graph.
A parsed clique instance is built without ``make_graph`` and equals the
``make_mcq`` build.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pvckit
from helpers import check_graph_reference
from pvckit import (Graph, InputError, Variant, WpvcInstance, bipartition, edge_subgraph,
                    expand, generators, infer_variant, make_graph, make_mcq, parse_mcq,
                    parse_wpvc, pendantize,
                    prune_unaffordable, rebalance_sections, reduce_mcq_to_wpvcbd, residual,
                    solve_epvcbd, solve_pvcbm, solve_wpvc_bounded_degree, solve_wpvc_by_L,
                    solve_wpvcbfd, validate, weighted_degrees, write_wpvc)
from pvckit.branching import _force_free
from pvckit.oracle import oracle_fractional, oracle_pvcbm, oracle_wpvc
from test_graph_core import malformed_graphs


def assert_trusted_sound(g):
    assert type(g) is Graph
    assert Graph(g.n, g.edges, g.costs, g.adjacency) == g  # passes the constructor's check
    assert g == make_graph(g.n, g.edges, g.costs)


@st.composite
def instances(draw, bipartite=False, cost_min=0):
    n = draw(st.integers(min_value=1, max_value=7))
    if bipartite:
        left = draw(st.integers(min_value=0, max_value=n))
        slots = [(i, j) for i in range(left) for j in range(left, n)]
    else:
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
                  if slots else st.just([]))
    edges = [(u, v, draw(st.integers(min_value=0, max_value=4))) for u, v in picked]
    costs = draw(st.lists(st.integers(min_value=cost_min, max_value=4),
                          min_size=n, max_size=n))
    g = make_graph(n, edges, costs)
    budget = draw(st.integers(min_value=0, max_value=6))
    target = draw(st.integers(min_value=0, max_value=g.total_profit() + 1))
    return WpvcInstance(g, budget, target, infer_variant(g), bipartite)


def _gadget_sample():
    """Every other k=2 case of the criterion-6 corpus and its first k=3 case,
    one vertex per class (a gadget of about 20k vertices)."""
    from test_acceptance import _reduction_corpus

    corpus = _reduction_corpus()
    return [mcq for mcq in corpus if mcq.k == 2][::2] + [next(m for m in corpus if m.k == 3)]


class TestDerivedGraphsAreValid:
    @settings(max_examples=150)
    @given(instances())
    def test_residual_and_prune(self, inst):
        for v in inst.graph.vertices():
            if inst.graph.costs[v] <= inst.budget:
                assert_trusted_sound(residual(inst, v).graph)
        assert_trusted_sound(prune_unaffordable(inst).graph)

    @settings(max_examples=150)
    @given(instances(), st.data())
    def test_edge_subgraph(self, inst, data):
        g = inst.graph
        ids = data.draw(st.sets(st.integers(min_value=0, max_value=g.m - 1))
                        if g.m else st.just(set()))
        sub, back = edge_subgraph(g, ids)
        assert_trusted_sound(sub)
        assert [g.edges[e] for e in back] == list(sub.edges)

    @settings(max_examples=150)
    @given(instances(bipartite=True, cost_min=1))
    def test_expand_with_and_without_sides(self, inst):
        expanded, smap = expand(inst)
        assert_trusted_sound(expanded.graph)
        bp = bipartition(inst.graph)
        side = tuple(bp.side[v] for v in smap.origin)
        assert all(side[a] != side[b] for a, b, _ in expanded.graph.edges)

    @settings(max_examples=150)
    @given(instances())
    def test_text_round_trip(self, inst):
        text = write_wpvc(inst)
        whole = parse_wpvc(text, prune=False)
        assert_trusted_sound(whole.graph)
        assert whole.graph == inst.graph
        assert_trusted_sound(parse_wpvc(text).graph)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
    def test_pendantize(self, seed, plant):
        mcq = generators.random_mcq(seed, 2, 2, edge_prob=0.5, plant=plant)
        assert_trusted_sound(pendantize(reduce_mcq_to_wpvcbd(mcq)).instance.graph)

    def test_pendantize_on_the_gadget_corpus(self):
        # pendantize builds the adjacency as it emits the edges.
        for mcq in _gadget_sample():
            assert_trusted_sound(pendantize(reduce_mcq_to_wpvcbd(mcq)).instance.graph)

    @settings(max_examples=150)
    @given(instances())
    def test_free_pass_matches_residual_chain(self, inst):
        taken, cur = [], inst
        while True:
            wdeg = weighted_degrees(cur.graph)
            v = next((u for u in cur.graph.vertices()
                      if cur.graph.costs[u] == 0 and wdeg[u] > 0), None)
            if v is None:
                break
            taken.append(v)
            cur = residual(cur, v)
        g = inst.graph
        left = [1] * g.n
        assert _force_free(g, left) == taken
        forced = [not k for k in left]
        assert forced == [v in taken for v in g.vertices()]
        kept = [(u, w, p) for u, w, p in g.edges if not (forced[u] or forced[w])]
        assert kept == list(cur.graph.edges)
        gain = g.total_profit() - sum(p for _, _, p in kept)
        assert max(0, inst.target - gain) == cur.target


@st.composite
def clique_texts(draw):
    """An mcq text whose edges, in either orientation, may join one class."""
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=n, max_size=n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
                  if slots else st.just([]))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in picked]
    lines = ["p mcq %d %d %d" % (n, len(edges), k)]
    lines += ["c %d %d" % (v, c) for v, c in enumerate(colors)]
    lines += ["e %d %d" % e for e in edges]
    return "\n".join(lines) + "\n", (n, k, colors, edges)


class TestParsedCliqueGraphs:
    @settings(max_examples=150)
    @given(clique_texts())
    def test_parse_mcq_equals_make_mcq(self, case):
        text, (n, k, colors, edges) = case
        parsed = parse_mcq(text)
        assert_trusted_sound(parsed.graph)
        built = make_mcq(n, k, colors, edges)
        assert parsed == built
        assert parsed.dropped_intra_class_edges == built.dropped_intra_class_edges

    def test_parse_mcq_builds_trusted(self, monkeypatch, caplog):
        # Edge (0, 1) joins class 1 and is dropped with a warning.
        text = "p mcq 3 2 2\nc 0 1\nc 1 1\nc 2 2\ne 1 0\ne 2 0\n"
        builds = count_calls(monkeypatch, "make_graph")
        checks = count_calls(monkeypatch, "check_graph")
        with caplog.at_level("WARNING", logger="pvckit.reduction"):
            mcq = parse_mcq(text)
        assert builds == [] and checks == []
        assert "dropped 1 intra-class edge(s)" in caplog.text
        assert mcq.graph.edges == ((0, 2, 1),) and mcq.dropped_intra_class_edges == 1


class TestGadgetPendantizeGuard:
    def test_rejects_a_second_pendantize(self):
        out = pendantize(reduce_mcq_to_wpvcbd(generators.random_mcq(3, 2, 2)))
        with pytest.raises(InputError):
            pendantize(out)

    def test_rejects_edge_between_hubs(self):
        out = reduce_mcq_to_wpvcbd(generators.random_mcq(3, 2, 2))
        g = out.instance.graph
        z1 = 2 * out.source_n
        joined = make_graph(g.n, list(g.edges) + [(z1, z1 + 1, 1)], g.costs)
        forged = dataclasses.replace(out, instance=dataclasses.replace(out.instance,
                                                                       graph=joined))
        with pytest.raises(InputError):
            pendantize(forged)

    def test_hand_built_source_with_a_parallel_copy_edge_is_rejected(self):
        out = reduce_mcq_to_wpvcbd(make_mcq(2, 2, [1, 2], []))
        g = out.instance.graph
        copy_edge = next(edge for edge in g.edges if max(edge[:2]) < 2 * out.source_n)
        edges = g.edges + (copy_edge,)
        adjacency = [[] for _ in range(g.n)]
        for e, (u, v, _) in enumerate(edges):
            adjacency[u].append(e)
            adjacency[v].append(e)
        # The forged source cannot be built, so pendantize never sees it.
        with pytest.raises(InputError, match="parallel edge"):
            Graph(g.n, edges, g.costs, tuple(map(tuple, adjacency)))


class TestHandBuiltSourcesAreChecked:
    """A broken hand-built source raises as it is built, so no public
    function that derives a graph can carry one into a trusted build."""

    @settings(max_examples=300)
    @given(malformed_graphs())
    def test_every_derivation_rejects(self, fields):
        # A copy through dataclasses.replace is built, and checked, the same way.
        problems = check_graph_reference(**fields)
        assume(problems)
        for build in (lambda: Graph(**fields),
                      lambda: dataclasses.replace(make_graph(0, []), **fields)):
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == "; ".join(problems)

    def test_rebalance_sections_of_a_foreign_adjacency_entry(self):
        # Vertex 0 lists edge 5, which does not exist; the gain pass would
        # index past the edges.
        with pytest.raises(InputError, match="adjacency of vertex 0 lists foreign edge 5"):
            rebalance_sections(Graph(n=2, edges=((0, 1, 1),), costs=(2, 2),
                                     adjacency=((0, 5), (0,))), [1, 1])

    def test_residual_of_an_unlisted_edge(self):
        # Vertex 0 does not list edge 0, so forcing it would keep the edge
        # and the whole target.
        with pytest.raises(InputError, match="edge 0 missing from an endpoint adjacency list"):
            residual(WpvcInstance(Graph(n=2, edges=((0, 1, 1),), costs=(1, 1),
                                        adjacency=((), (0,))), 1, 1, Variant.PVC), 0)


class TestEdgeSubgraphIds:
    def test_rejects_repeated_and_out_of_range_ids(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        for ids in ([0, 0], [2], [-1]):
            with pytest.raises(InputError):
                edge_subgraph(g, ids)


class TestHandBuiltGraphs:
    """A broken graph raises InputError as it is built, with the problems
    ``validate`` and the solvers used to report, so no call on it is made."""

    def test_copy_by_hand_is_checked_and_equal(self, monkeypatch):
        g = make_graph(3, [(0, 1), (1, 2)])
        checks = count_calls(monkeypatch, "check_graph")
        copies = [Graph(g.n, g.edges, g.costs, g.adjacency), dataclasses.replace(g),
                  Graph(g.n, list(g.edges), list(g.costs), [list(a) for a in g.adjacency])]
        assert len(checks) == len(copies)
        for h in copies:
            assert h == g and hash(h) == hash(g)
        with pytest.raises(TypeError):
            Graph(g.n, g.edges, g.costs, g.adjacency, True)

    @settings(max_examples=200)
    @given(malformed_graphs())
    def test_validate_and_every_solver_reject(self, fields):
        problems = check_graph_reference(**fields)
        assume(problems)
        for variant in Variant:
            for bipartite in (False, True):
                for solve in (validate, solve_epvcbd, solve_wpvc_by_L, solve_wpvcbfd,
                              lambda inst: solve_wpvc_bounded_degree(inst, 8)):
                    with pytest.raises(InputError) as info:
                        solve(WpvcInstance(Graph(**fields), 1, 1, variant, bipartite))
                    assert str(info.value) == "; ".join(problems)
        with pytest.raises(InputError):
            solve_pvcbm(Graph(**fields), 1, 1, 1)

    @pytest.mark.parametrize("entry", [(0,), (0, 1), (0, 1, 1, 0), [0, 1, 1], 0, None],
                             ids=["one", "pair", "four", "list", "int", "none"])
    def test_edge_entry_that_is_no_triple_is_reported(self, entry):
        # Unpacking such an entry used to raise ValueError or TypeError from
        # validate, every solver and the oracles. Now the graph cannot be
        # built; the cost of 2 adds nothing, since no tag is read.
        def graph():
            return Graph(n=2, edges=(entry,), costs=(1, 2), adjacency=((0,), (0,)))

        def inst():
            return WpvcInstance(graph(), 1, 1, Variant.PVC, True)

        for call in (lambda: validate(inst()), lambda: solve_epvcbd(inst()),
                     lambda: solve_wpvc_by_L(inst()), lambda: solve_wpvcbfd(inst()),
                     lambda: solve_wpvc_bounded_degree(inst(), 1),
                     lambda: solve_pvcbm(graph(), 1, 1, 1),
                     lambda: oracle_wpvc(inst()), lambda: oracle_fractional(inst()),
                     lambda: oracle_pvcbm(graph(), 1, 1, 1), lambda: expand(inst()),
                     lambda: prune_unaffordable(inst()), lambda: residual(inst(), 0),
                     lambda: edge_subgraph(graph(), ()),
                     lambda: rebalance_sections(graph(), [1, 1])):
            with pytest.raises(InputError, match=r"^edge 0 is not a \(u, v, profit\) triple$"):
                call()

    def test_adjacency_that_lists_an_edge_twice_is_rejected(self):
        # Vertex 2 lists edge 3 twice. A search that trusted it would take
        # edge 3's profit twice on forcing vertex 2 and answer no, where the
        # built graph's {3, 5} covers all four edges.
        g = make_graph(6, [(2, 3), (0, 3), (4, 5), (2, 5)])
        assert solve_epvcbd(WpvcInstance(g, 2, 4, Variant.PVC, True)).verdict
        with pytest.raises(InputError) as info:
            Graph(g.n, g.edges, g.costs, ((1,), (), (0, 3, 3), (0, 1), (2,), (2, 3)))
        assert str(info.value) == "adjacency of vertex 2 lists edge 3 twice"

    def test_float_profits_are_rejected(self):
        # Taking vertex 0 covers both edges, profit 3, so the answer is yes;
        # a solver that took the float profits in would answer otherwise.
        with pytest.raises(InputError) as info:
            Graph(3, ((0, 1, 1.5), (0, 2, 1.5)), (1, 1, 1), ((0, 1), (0,), (1,)))
        assert str(info.value) == ("edge 0 has profit 1.5, not a non-negative integer; "
                                   "edge 1 has profit 1.5, not a non-negative integer")

    @pytest.mark.parametrize("fields, problem", [
        ((2, ((0, 1, 1),), (1.5, 1), ((0,), (0,))),
         "vertex 0 has cost 1.5, not a non-negative integer"),
        ((2, ((0.0, 1, 1),), (1, 1), ((0,), (0,))),
         "edge 0 has non-integer endpoint"),
        ((2, ((0, 1, 1),), (1, 1), ((0,), (0.0,))),
         "edge 0 missing from an endpoint adjacency list; "
         "adjacency of vertex 1 lists foreign edge 0.0"),
    ], ids=["cost", "endpoint", "adjacency"])
    def test_other_non_integer_values_are_rejected(self, fields, problem):
        with pytest.raises(InputError) as info:
            Graph(*fields)
        assert str(info.value) == problem


def count_calls(monkeypatch, name):
    """Count calls to the pvckit function ``name`` through every module binding."""
    calls = []
    original = getattr(pvckit.graph, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (pvckit, pvckit.graph, pvckit.instance, pvckit.branching,
                   pvckit.fractional, pvckit.pvcbm, pvckit.formats, pvckit.reduction):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


class TestOnePassPerSolve:
    def fractional_instance(self, bipartite_required):
        # Vertex 5 costs 0 and is taken free; edge (1, 2) has zero profit.
        g = make_graph(6, [(0, 1, 2), (1, 2, 0), (2, 3, 3), (3, 4, 1), (4, 5, 2)],
                       costs=[1, 2, 3, 1, 2, 0])
        return WpvcInstance(g, 3, 6, infer_variant(g), bipartite_required)

    @pytest.mark.parametrize("bipartite_required", [False, True])
    def test_epvcbd_bipartitions_once(self, monkeypatch, bipartite_required):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = WpvcInstance(g, 2, 4, Variant.PVC, bipartite_required)
        sides = count_calls(monkeypatch, "bipartition")
        checks = count_calls(monkeypatch, "check_graph")
        assert solve_epvcbd(inst).verdict
        assert len(sides) == 1 and checks == []

    @pytest.mark.parametrize("bipartite_required", [False, True])
    def test_wpvcbfd_bipartitions_once(self, monkeypatch, bipartite_required):
        inst = self.fractional_instance(bipartite_required)
        sides = count_calls(monkeypatch, "bipartition")
        checks = count_calls(monkeypatch, "check_graph")
        rep = solve_wpvcbfd(inst)
        assert rep.verdict and 5 in rep.witness.vertices
        assert len(sides) == 1 and checks == []

    @pytest.mark.parametrize("k2, k3", [(4, 2), (0, 3)])
    def test_pvcbm_validates_and_bipartitions_once(self, monkeypatch, k2, k3):
        # (4, 2): the plain witness suffices; (0, 3): it is empty, and the
        # edges it covers (none) are grown until they hold a 3-matching.
        g = make_graph(6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)])
        sides = count_calls(monkeypatch, "bipartition")
        checks = count_calls(monkeypatch, "check_graph")
        validations = []
        original = pvckit.instance._validate

        def counted(inst):
            validations.append(inst)
            return original(inst)

        monkeypatch.setattr(pvckit.instance, "_validate", counted)
        assert solve_pvcbm(g, 3, k2, k3).verdict
        assert len(sides) == 1 and checks == [] and len(validations) == 1

    @pytest.mark.parametrize("zero_cost, zero_profit", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_wpvcbfd_derives_in_one_pass(self, monkeypatch, zero_cost, zero_profit):
        # Vertex 5 costing 0 is taken free; edge (1, 2) of profit 0 is dropped.
        # One graph is built either way: the searched one, holding the kept
        # edges with their copy-pair shares. No expansion is built.
        g = make_graph(6, [(0, 1, 2), (1, 2, 0 if zero_profit else 1), (2, 3, 3),
                           (3, 4, 1), (4, 5, 2)],
                       costs=[1, 2, 3, 1, 2, 0 if zero_cost else 1])
        inst = WpvcInstance(g, 3, 6, infer_variant(g), True)
        graphs = count_calls(monkeypatch, "_trusted_graph")
        sides = count_calls(monkeypatch, "bipartition")
        rechecks = count_calls(monkeypatch, "_check_bipartition")
        assert solve_wpvcbfd(inst).verdict
        assert len(graphs) == 1 and len(sides) == 1 and rechecks == []

    def test_hand_built_graph_is_checked_once(self, monkeypatch):
        # Once, as it is built; no solve checks it again.
        g = self.fractional_instance(True).graph
        checks = count_calls(monkeypatch, "check_graph")
        hand = Graph(g.n, g.edges, g.costs, g.adjacency)
        assert checks == [(hand,)]
        rep = solve_wpvcbfd(WpvcInstance(hand, 3, 6, Variant.WPVC, True))
        assert rep == dataclasses.replace(
            solve_wpvcbfd(self.fractional_instance(True)), wall_time=rep.wall_time)
        unit = Graph(2, ((0, 1, 1),), (1, 1), ((0,), (0,)))
        assert len(checks) == 2
        assert solve_pvcbm(unit, 1, 1, 1).verdict and oracle_pvcbm(unit, 1, 1, 1).verdict
        assert len(checks) == 2
