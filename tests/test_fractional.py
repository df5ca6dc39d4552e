import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvckit.fractional
from helpers import random_instance, rebalance_sections_reference, triangle
from pvckit import (InputError, NotBipartiteError, Variant, WpvcInstance, expand,
                    make_graph, make_instance, rebalance_sections, solve_epvcbd,
                    solve_wpvcbfd)
from pvckit.fractional import _expanded_profit
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
            from math import lcm
            scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges)) if g.edges else 1
            before = _expanded_profit(g, scale, counts)
            after_counts = rebalance_sections(g, counts)
            after = _expanded_profit(g, scale, after_counts)
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
    """The solver's free pass and edge filter leave no zero-cost endpoint, so
    the private expansion never needs the public one's check."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        seen = []
        original = pvckit.fractional._expand

        def checked(inst):
            g = inst.graph
            assert all(g.costs[u] and g.costs[v] for u, v, _ in g.edges)
            seen.append(g.n)
            return original(inst)

        monkeypatch.setattr(pvckit.fractional, "_expand", checked)
        return seen

    def test_criterion_4_seeds(self, expansions):
        for seed in range(300):
            solve_wpvcbfd(fractional_case(seed))
        assert len(expansions) == 300

    @pytest.mark.parametrize("extra", [0, 1])
    def test_free_pass_path(self, expansions, extra):
        n = 2000
        g = make_graph(n, [(i, i + 1, 1) for i in range(n - 1)],
                       costs=[(i + 1) % 2 for i in range(n)])
        solve_wpvcbfd(WpvcInstance(g, 0, n - 1 + extra, Variant.VPVC, True))
        assert expansions == [n]

    def test_zero_costs_and_zero_profits(self, expansions):
        # The criterion 4 recipe draws neither; here a third of the vertices
        # cost 0 and a fifth of the edges earn 0.
        for seed in range(200):
            solve_wpvcbfd(random_instance(seed, n_max=7, cost_min=0, cost_max=2,
                                          bipartite=True))
        assert len(expansions) == 200
