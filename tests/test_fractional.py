import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvckit.fractional
from helpers import random_instance, rebalance_sections_reference, triangle
from pvckit import (InputError, NotBipartiteError, Variant, WpvcInstance, expand,
                    infer_variant, make_graph, make_instance, rebalance_sections,
                    solve_epvcbd, solve_wpvcbfd)
from pvckit.branching import _force_free
from pvckit.fractional import _copy_shares, _expanded_profit
from pvckit.generators import fractional_case
from pvckit.oracle import oracle_fractional


class TestExpand:
    def test_unit_costs_expand_to_themselves(self):
        inst = make_instance(3, [(0, 1, 2), (1, 2, 3)], budget=2, target=4,
                             bipartite_required=True)
        expanded, smap = expand(inst)
        assert expanded.graph.n == 3 and expanded.graph.m == 2
        assert expanded.target == inst.target  # scale is 1
        assert smap.sections == ((0,), (1,), (2,))

    def test_cost_two_edge_splits_into_four_copies(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=1, target=2)
        expanded, smap = expand(inst)
        assert expanded.graph.m == 4
        assert all(p == 4 for _, _, p in expanded.graph.edges)  # scale 4, share 4*4/4
        assert expanded.target == 8
        assert all(c == 1 for c in expanded.graph.costs)
        assert smap.sections == ((0, 1), (2, 3))

    def test_full_section_covers_scaled_weighted_degree(self):
        from math import lcm

        from pvckit import coverage, weighted_degree

        inst = make_instance(4, [(0, 2, 3), (0, 3, 5), (1, 2, 1)],
                             costs=[2, 1, 3, 2], budget=3, target=4)
        expanded, smap = expand(inst)
        g = inst.graph
        scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges))
        assert expanded.target == inst.target * scale
        _, got = coverage(expanded.graph, smap.sections[0])
        assert got == weighted_degree(g, 0) * scale

    def test_per_edge_profit_identity(self):
        from math import lcm

        for seed in range(40):
            inst = random_instance(seed, n_max=6, bipartite=True, profit_min=1)
            g = inst.graph
            expanded, smap = expand(inst)
            scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges)) if g.edges else 1
            index = {}
            for a, b, p in expanded.graph.edges:
                key = (smap.origin[a], smap.origin[b])
                index[key] = index.get(key, 0) + p
            for u, v, p in g.edges:
                total = index.get((u, v), 0) + index.get((v, u), 0)
                assert total == p * scale

    def test_rejects_odd_cycle(self):
        with pytest.raises(NotBipartiteError):
            expand(WpvcInstance(triangle(), 1, 1, Variant.PVC))

    def test_rejects_zero_cost_with_edges(self):
        g = make_graph(2, [(0, 1, 2)], costs=[0, 1])
        with pytest.raises(InputError):
            expand(WpvcInstance(g, 1, 1, Variant.WPVC))

    @pytest.mark.parametrize("budget, target", [(-1, 1), (1, -4), (2.5, 1)])
    def test_rejects_what_the_solver_rejects(self, budget, target):
        inst = WpvcInstance(make_graph(2, [(0, 1, 2)], costs=[2, 1]), budget, target,
                            Variant.WPVC)
        for entry in (expand, solve_wpvcbfd):
            with pytest.raises(InputError, match="non-negative integer"):
                entry(inst)


class TestRebalance:
    def test_two_partial_sections_merge_into_one(self):
        g = make_graph(4, [(0, 1, 3), (2, 3, 3)], costs=[2, 1, 2, 1])
        counts = rebalance_sections(g, [1, 0, 1, 0])
        partial = [v for v in range(4) if 0 < counts[v] < g.costs[v]]
        assert len(partial) <= 1
        assert sum(counts) == 2  # mass preserved

    def test_profit_never_drops(self):
        for seed in range(80):
            rng = random.Random(seed)
            inst = random_instance(seed, n_max=6, bipartite=True, profit_min=1)
            g = inst.graph
            counts = [rng.randint(0, g.costs[v]) for v in range(g.n)]
            _, share = _copy_shares(g.edges, g.costs)
            before = _expanded_profit(g, g.costs, share, counts)
            after_counts = rebalance_sections(g, counts)
            after = _expanded_profit(g, g.costs, share, after_counts)
            assert after >= before
            assert sum(after_counts) == sum(counts)
            partial = [v for v in range(g.n) if 0 < after_counts[v] < g.costs[v]]
            assert len(partial) <= 1

    def test_rejects_count_outside_section(self):
        g = make_graph(2, [(0, 1)], costs=[2, 2])
        with pytest.raises(InputError):
            rebalance_sections(g, [3, 0])

    def test_rejects_fractional_count(self):
        g = make_graph(2, [(0, 1)], costs=[2, 2])
        with pytest.raises(InputError, match="vertex 1 is not an integer"):
            rebalance_sections(g, [1, 1.5])

    def test_rejects_edge_with_zero_cost_endpoint(self):
        # Such an edge has no copy edges, so there is no share to rebalance by.
        g = make_graph(4, [(0, 1, 1), (2, 3, 1)], [2, 0, 2, 1])
        with pytest.raises(InputError, match="zero-cost"):
            rebalance_sections(g, [1, 0, 1, 0])


class TestSolveFractional:
    def test_half_vertex_witness(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=1, target=2)
        rep = solve_wpvcbfd(inst)
        assert rep.verdict
        assert rep.witness.fractional == (0, Fraction(1, 2))
        assert rep.witness.cost == 1 and rep.witness.profit == 2

    def test_no_when_target_three(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=1, target=3)
        assert not solve_wpvcbfd(inst).verdict

    def test_unit_costs_match_plain_solver_with_no_fraction(self):
        for seed in range(40):
            inst = random_instance(seed, n_max=7, cost_max=1, bipartite=True,
                                   profit_min=1)
            frac = solve_wpvcbfd(inst)
            plain = solve_epvcbd(inst)
            assert frac.verdict == plain.verdict
            if frac.verdict:
                assert frac.witness.fractional is None

    def test_matches_oracle_with_solution_checks(self):
        for seed in range(120):
            inst = fractional_case(seed)
            rep = solve_wpvcbfd(inst)
            orc = oracle_fractional(inst)
            assert rep.verdict == orc.verdict
            if rep.verdict:
                w = rep.witness
                assert w.cost <= inst.budget and w.profit >= inst.target
                if w.fractional is not None:
                    _, extent = w.fractional
                    assert 0 < extent < 1

    @pytest.mark.parametrize("extra, verdict", [(0, True), (1, False)])
    def test_free_pass_is_one_sweep(self, monkeypatch, extra, verdict):
        # A 2000-vertex path whose odd vertices cost 0: the free pass alone
        # covers every edge, and it must take the 1000 free vertices in one
        # sweep, not rebuild the instance through residual() after each.
        import pvckit

        n = 2000
        g = make_graph(n, [(i, i + 1, 1) for i in range(n - 1)],
                       costs=[(i + 1) % 2 for i in range(n)])
        inst = WpvcInstance(g, 0, n - 1 + extra, Variant.VPVC, True)
        calls = []
        original = pvckit.instance.residual

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(pvckit.instance, "residual", counted)
        monkeypatch.setattr(pvckit.branching, "residual", counted)
        rep = solve_wpvcbfd(inst)
        assert len(calls) <= 1
        assert rep.verdict is verdict
        if verdict:
            assert rep.witness.vertices == frozenset(range(1, n, 2))
            assert rep.witness.fractional is None
            assert rep.witness.cost == 0 and rep.witness.profit == n - 1


def solve_on_the_expansion(inst):
    """The fractional solve on the explicit expansion: the free pass and edge
    filter of :func:`solve_wpvcbfd`, then :func:`solve_epvcbd` on
    :func:`expand` of what is left, with the section counts read off the
    witness's copies and rebalanced. Returns the verdict, the integral
    vertices, the fractional part and the node count."""
    g = inst.graph
    left = [1] * g.n
    prefix = _force_free(g, left)
    forced = [not k for k in left]
    kept = [(u, w, p) for u, w, p in g.edges if p > 0 and not (forced[u] or forced[w])]
    cur = make_graph(g.n, kept, g.costs)
    target = max(0, inst.target - (g.total_profit() - cur.total_profit()))
    expanded, smap = expand(WpvcInstance(cur, inst.budget, target, infer_variant(cur), True))
    rep = solve_epvcbd(expanded)
    if not rep.verdict:
        return False, None, None, rep.nodes_expanded
    counts = [0] * g.n
    for copy in rep.witness.vertices:
        counts[smap.origin[copy]] += 1
    counts = rebalance_sections(cur, counts)
    vertices = frozenset(prefix).union(v for v in g.vertices()
                                       if g.costs[v] and counts[v] == g.costs[v])
    partial = [(v, Fraction(counts[v], g.costs[v]))
               for v in g.vertices() if 0 < counts[v] < g.costs[v]]
    return True, vertices, partial[0] if partial else None, rep.nodes_expanded


class TestSectionSearchMatchesTheExpansion:
    def test_verdict_witness_and_fraction_equal_with_no_more_nodes(self):
        # Costs 0-6 and profits 0-4: zero-cost vertices and zero-profit edges
        # occur, and sections hold up to 6 copies. Budgets up to 11 and the
        # whole profit as target make the searches backtrack.
        fewer = 0
        for seed in range(900):
            inst = random_instance(seed, n_max=7, cost_min=0, cost_max=6, bipartite=True)
            for target, budget in product((inst.target, inst.graph.total_profit()),
                                          (inst.budget, inst.budget + 6)):
                case = replace(inst, target=target, budget=budget)
                rep = solve_wpvcbfd(case)
                verdict, vertices, fractional, nodes = solve_on_the_expansion(case)
                assert rep.verdict == verdict, seed
                if verdict:
                    assert rep.witness.vertices == vertices, seed
                    assert rep.witness.fractional == fractional, seed
                assert rep.nodes_expanded <= nodes, seed
                fewer += rep.nodes_expanded < nodes
        assert fewer > 0


class TestLargeSections:
    """The search's time and memory follow the budget and the graph, not the
    costs: the expansion of a cost-c path has c copies per vertex and c**2
    copy edges per edge."""

    @staticmethod
    def path(c, target):
        # Six vertices of cost c, profit 5 per edge, budget 2c: two whole
        # vertices cover at most 4 edges.
        g = make_graph(6, [(i, i + 1, 5) for i in range(5)], [c] * 6)
        return WpvcInstance(g, 2 * c, target, infer_variant(g), True)

    @pytest.mark.parametrize("target, verdict", [(20, True), (21, False)])
    def test_million_copy_sections(self, target, verdict):
        start = time.perf_counter()
        rep = solve_wpvcbfd(self.path(10 ** 6, target))
        assert time.perf_counter() - start < 1
        assert rep.verdict is verdict
        if verdict:
            assert rep.witness.cost == 2 * 10 ** 6 and rep.witness.profit == 20

    def test_peak_memory_does_not_follow_the_costs(self):
        peaks = {}
        for c in (10, 10 ** 6):
            tracemalloc.start()
            for target in (20, 21):
                solve_wpvcbfd(self.path(c, target))
            peaks[c] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[10 ** 6] <= 2 * peaks[10]


@st.composite
def sectioned_bipartite_graphs(draw):
    """A bipartite graph with costs 1..100 and a count per vertex in 0..c(v)."""
    n = draw(st.integers(1, 7))
    left = draw(st.integers(0, n))
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    picked = draw(st.lists(st.sampled_from(slots), unique=True) if slots else st.just([]))
    edges = [(u, v, draw(st.integers(0, 5))) for u, v in sorted(picked)]
    g = make_graph(n, edges, [draw(st.integers(1, 100)) for _ in range(n)])
    return g, [draw(st.integers(0, g.costs[v])) for v in range(n)]


class TestRebalanceInBatches:
    @settings(max_examples=200, deadline=None)
    @given(sectioned_bipartite_graphs())
    def test_matches_unit_at_a_time_reference(self, case):
        g, counts = case
        assert rebalance_sections(g, counts) == rebalance_sections_reference(g, counts)

    def test_one_batch_checks_profit_twice(self, monkeypatch):
        # Two disjoint edges with vertices 0 and 2 half full: one batch of 100
        # units fills vertex 0 and empties vertex 2. A unit-at-a-time loop
        # would recompute the expanded profit 200 times.
        calls = []
        original = pvckit.fractional._expanded_profit

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pvckit.fractional, "_expanded_profit", counted)
        g = make_graph(4, [(0, 1, 1), (2, 3, 1)], [200] * 4)
        assert rebalance_sections(g, [100, 0, 100, 0]) == [200, 0, 0, 0]
        assert len(calls) <= 2


class TestExpandPrecondition:
    """The solver's free pass and edge filter leave no edge with a zero-cost
    endpoint, the precondition of :func:`expand`, so every edge the section
    search sees has copies at both ends."""

    @pytest.fixture
    def searches(self, monkeypatch):
        seen = []
        original = pvckit.fractional._solve_epvcbd

        def checked(inst, side, copies):
            g = inst.graph
            assert all(copies[u] and copies[v] for u, v, _ in g.edges)
            seen.append(g.n)
            return original(inst, side, copies)

        monkeypatch.setattr(pvckit.fractional, "_solve_epvcbd", checked)
        return seen

    def test_criterion_4_seeds(self, searches):
        for seed in range(300):
            solve_wpvcbfd(fractional_case(seed))
        assert len(searches) == 300

    @pytest.mark.parametrize("extra", [0, 1])
    def test_free_pass_path(self, searches, extra):
        n = 2000
        g = make_graph(n, [(i, i + 1, 1) for i in range(n - 1)],
                       costs=[(i + 1) % 2 for i in range(n)])
        solve_wpvcbfd(WpvcInstance(g, 0, n - 1 + extra, Variant.VPVC, True))
        assert searches == [n]

    def test_zero_costs_and_zero_profits(self, searches):
        # The criterion 4 recipe draws neither; here a third of the vertices
        # cost 0 and a fifth of the edges earn 0.
        for seed in range(200):
            solve_wpvcbfd(random_instance(seed, n_max=7, cost_min=0, cost_max=2,
                                          bipartite=True))
        assert len(searches) == 200
