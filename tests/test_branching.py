from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c4, path3, relabeled, star, triangle
from test_trust import instances
from pvckit import (InputError, NotBipartiteError, SolveReport, Variant, VariantError,
                    WpvcInstance, coverage, infer_variant, make_graph, make_instance,
                    make_solution, solve_epvcbd, solve_pvcbm, solve_wpvc_bounded_degree,
                    solve_wpvc_by_L, solve_wpvcbfd)
from pvckit.branching import _copy_prefix, _search
from pvckit.generators import (bounded_degree_case, general_graph_case,
                               unit_cost_bipartite_case)
from pvckit.oracle import oracle_wpvc


def check_yes_witness(inst, rep):
    assert rep.witness is not None
    _, profit = coverage(inst.graph, rep.witness.vertices)
    cost = sum(inst.graph.costs[v] for v in rep.witness.vertices)
    assert cost <= inst.budget and profit >= inst.target


class TestEpvcbd:
    def test_path_yes(self):
        rep = solve_epvcbd(path3(budget=1, target=2))
        assert rep.verdict and sorted(rep.witness.vertices) == [1]

    def test_path_no(self):
        assert not solve_epvcbd(path3(budget=1, target=3)).verdict

    def test_k22_settled_without_branching(self):
        inst = make_instance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], budget=1, target=2,
                             bipartite_required=True)
        rep = solve_epvcbd(inst)
        assert rep.verdict and oracle_wpvc(inst).verdict
        assert rep.nodes_expanded == 0  # the large-pool construction fired
        check_yes_witness(inst, rep)

    def test_rejects_weighted_costs(self):
        g = make_graph(2, [(0, 1)], costs=[2, 1])
        with pytest.raises(VariantError):
            solve_epvcbd(WpvcInstance(g, 2, 1, Variant.VPVC))

    @pytest.mark.parametrize("variant", [Variant.VPVC, Variant.WPVC])
    def test_unit_costs_are_read_from_the_costs_not_the_tag(self, variant):
        # Every cost is 1, so the solver decides the instance whatever its tag.
        for budget, target, verdict in ((2, 4, True), (1, 3, False)):
            inst = WpvcInstance(c4(), budget, target, variant)
            rep = solve_epvcbd(inst)
            assert rep.verdict is verdict is oracle_wpvc(inst).verdict
            if verdict:
                check_yes_witness(inst, rep)
        heavy = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], costs=[1, 1, 2, 1])
        with pytest.raises(VariantError,
                           match="^solver needs unit vertex costs, but vertex 2 has cost 2$"):
            solve_epvcbd(WpvcInstance(heavy, 2, 4, variant))

    def test_rejects_odd_cycle(self):
        inst = WpvcInstance(triangle(), 1, 1, Variant.PVC)
        with pytest.raises(NotBipartiteError):
            solve_epvcbd(inst)

    def test_matches_oracle_with_verified_witnesses(self):
        for seed in range(120):
            inst = unit_cost_bipartite_case(seed)
            rep = solve_epvcbd(inst)
            assert rep.verdict == oracle_wpvc(inst).verdict
            assert rep.max_depth <= inst.budget
            if rep.verdict:
                check_yes_witness(inst, rep)

    def test_deep_unit_path(self):
        # Covering all 1999 edges of a 2000-vertex path takes 1000 picks, and
        # the search goes one level deeper per pick: past the default
        # recursion limit of 1000, which must not matter.
        def path(budget):
            return make_instance(2000, [(i, i + 1) for i in range(1999)], budget=budget,
                                 target=1999, bipartite_required=True)

        inst = path(1100)
        yes = solve_epvcbd(inst)
        assert yes.verdict and yes.max_depth <= 1100
        check_yes_witness(inst, yes)
        no = solve_epvcbd(path(999))
        assert not no.verdict and no.max_depth <= 999

    def test_relabeling_invariance(self):
        for seed in range(40):
            inst = unit_cost_bipartite_case(seed)
            other, _ = relabeled(inst, 97 * seed + 5)
            assert solve_epvcbd(inst).verdict == solve_epvcbd(other).verdict


class TestBoundedDegree:
    def test_triangle_yes(self):
        inst = WpvcInstance(triangle(), 1, 2, Variant.PVC)
        rep = solve_wpvc_bounded_degree(inst, 2)
        assert rep.verdict
        check_yes_witness(inst, rep)

    def test_triangle_no(self):
        inst = WpvcInstance(triangle(), 1, 3, Variant.PVC)
        assert not solve_wpvc_bounded_degree(inst, 2).verdict

    def test_heavy_vertex_beats_two_cheap_ones(self):
        # star center of cost 2 covering profit 5 vs cost-1 leaves covering 2
        g = make_graph(4, [(0, 1, 2), (0, 2, 2), (0, 3, 1)], costs=[2, 1, 1, 1])
        inst = WpvcInstance(g, 2, 5, Variant.WPVC)
        rep = solve_wpvc_bounded_degree(inst, 3)
        assert rep.verdict == oracle_wpvc(inst).verdict is True
        assert rep.witness.vertices == frozenset({0})

    def test_degree_violation_is_input_error(self):
        inst = WpvcInstance(star((1, 1, 1)), 1, 1, Variant.PVC)
        with pytest.raises(InputError):
            solve_wpvc_bounded_degree(inst, 2)

    def test_zero_cost_vertices_are_taken_for_free(self):
        g = make_graph(3, [(0, 1, 2), (1, 2, 2)], costs=[0, 3, 3])
        inst = WpvcInstance(g, 0, 2, Variant.WPVC)
        rep = solve_wpvc_bounded_degree(inst, 2)
        assert rep.verdict
        assert 0 in rep.witness.vertices

    def test_zero_profit_edge_does_not_spread_the_kernel(self):
        # The kernel pick 1 has a zero-profit edge to the zero-cost vertex 0.
        # Branching on 0 would spend no budget, so the search would go deeper
        # than the budget; the kernel spreads over positive-profit edges only.
        g = make_graph(3, [(0, 1, 0), (1, 2, 3)], costs=[0, 1, 1])
        inst = WpvcInstance(g, 1, 1, Variant.WPVC)
        rep = solve_wpvc_bounded_degree(inst, 2)
        assert rep.verdict and rep.witness.vertices == frozenset({1})
        assert rep.max_depth <= inst.budget
        assert oracle_wpvc(inst).witness == rep.witness

    def test_matches_oracle_with_depth_bound(self):
        for seed in range(120):
            inst = bounded_degree_case(seed)
            rep = solve_wpvc_bounded_degree(inst, 3)
            assert rep.verdict == oracle_wpvc(inst).verdict
            assert rep.max_depth <= inst.budget
            if rep.verdict:
                check_yes_witness(inst, rep)


class TestByProfitTarget:
    def test_star_single_vertex_exit(self):
        inst = WpvcInstance(star((1, 1, 1)), 1, 3, Variant.PVC)
        rep = solve_wpvc_by_L(inst)
        assert rep.verdict and rep.witness.vertices == frozenset({0})
        assert rep.nodes_expanded == 0

    def test_two_disjoint_edges(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        yes = solve_wpvc_by_L(WpvcInstance(g, 2, 2, Variant.PVC))
        assert yes.verdict and len(yes.witness.vertices) == 2
        no = solve_wpvc_by_L(WpvcInstance(g, 1, 2, Variant.PVC))
        assert not no.verdict

    def test_unaffordable_heavy_vertex_is_not_the_exit(self):
        # center covers the target alone but costs too much; leaves must do it
        g = make_graph(4, [(0, 1, 2), (0, 2, 2), (0, 3, 2)], costs=[9, 1, 1, 1])
        inst = WpvcInstance(g, 3, 6, Variant.WPVC)
        rep = solve_wpvc_by_L(inst)
        assert rep.verdict == oracle_wpvc(inst).verdict is True
        assert 0 not in rep.witness.vertices

    def test_matches_oracle_with_depth_bound(self):
        for seed in range(120):
            inst = general_graph_case(seed)
            rep = solve_wpvc_by_L(inst)
            assert rep.verdict == oracle_wpvc(inst).verdict
            assert inst.target == 0 or rep.max_depth < 2 * inst.target
            if rep.verdict:
                check_yes_witness(inst, rep)

    def test_relabeling_invariance(self):
        for seed in range(40):
            inst = general_graph_case(seed)
            other, _ = relabeled(inst, 13 * seed + 3)
            assert solve_wpvc_by_L(inst).verdict == solve_wpvc_by_L(other).verdict


class TestCopyPrefix:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["left", "right", "out"]), max_size=14),
           st.integers(min_value=1, max_value=10))
    def test_one_copy_each_is_a_prefix_of_the_longer_side(self, sides, budget):
        # The epvcbd rule's large-pool pick on a unit-cost search: the first
        # budget vertices of the side with more pool vertices, the left on a tie.
        # Copies left given as all ones or, as a unit-cost search passes them,
        # as None: the same map.
        lefts = [v for v, s in enumerate(sides) if s == "left"]
        rights = [v for v, s in enumerate(sides) if s == "right"]
        prefix = (lefts if len(lefts) >= len(rights) else rights)[:budget]
        for left in ([1] * len(sides), None):
            assert list(_copy_prefix(lefts, rights, left, budget).items()) \
                == [(v, 1) for v in prefix]


class TestSearchState:
    """The search keeps weighted degrees and live profit across nodes; at
    every node they must equal a recompute from scratch."""

    @staticmethod
    def check_search(inst):
        g = inst.graph
        nodes = []

        def rule(wdeg, budget, target, left, view):
            forced = [not k for k in left]
            want = [0] * g.n
            live = 0
            for u, w, p in g.edges:
                if not (forced[u] or forced[w]):
                    want[u] += p
                    want[w] += p
                    live += p
            assert wdeg == want
            assert target == max(0, inst.target - (g.total_profit() - live))
            assert budget == inst.budget - sum(g.costs[v] for v in g.vertices() if forced[v])
            nodes.append(target)
            # Branch on everything that still covers profit: an exhaustive
            # search that backtracks through every affordable set.
            return None, [v for v, w in enumerate(wdeg) if w > 0]

        chain, nodes_expanded, _ = _search(inst, rule, g.n)
        assert (chain is not None) == oracle_wpvc(inst).verdict
        assert nodes_expanded == len(nodes)
        if chain is not None:
            check_yes_witness(inst, SolveReport(True, make_solution(g, chain), 0, 0, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_live_state_matches_recompute(self, inst):
        # Zero-cost vertices, zero-profit edges and costs above 1 all occur.
        # The drawn target is often met on the first path; the whole profit
        # as target makes the search backtrack until the budget covers every
        # positive edge, or through every affordable set.
        self.check_search(inst)
        self.check_search(replace(inst, target=inst.graph.total_profit()))


@st.composite
def unit_cost_bounded_degree(draw):
    """A unit-cost bipartite instance of max degree d, and d."""
    n = draw(st.integers(min_value=1, max_value=9))
    left = draw(st.integers(min_value=0, max_value=n))
    d = draw(st.integers(min_value=1, max_value=3))
    profit_max = draw(st.sampled_from([1, 3]))
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    picked = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
                  if slots else st.just([]))
    degree = [0] * n
    edges = []
    for u, v in picked:
        if degree[u] < d and degree[v] < d:
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v, draw(st.integers(min_value=1, max_value=profit_max))))
    g = make_graph(n, edges)
    budget = draw(st.integers(min_value=0, max_value=4))
    target = draw(st.integers(min_value=0, max_value=g.total_profit() + 1))
    return WpvcInstance(g, budget, target, infer_variant(g), True), d


class TestCrossSolverAgreement:
    @settings(max_examples=150, deadline=None)
    @given(unit_cost_bounded_degree())
    def test_all_solvers_agree_with_the_oracle(self, case):
        # With unit costs a fractional vertex never helps, and with k3 = 0
        # the matching constraint is void; every solver decides one question.
        inst, d = case
        g = inst.graph
        reports = {"epvcbd": solve_epvcbd(inst),
                   "bounded-degree": solve_wpvc_bounded_degree(inst, d),
                   "by-L": solve_wpvc_by_L(inst),
                   "fractional": solve_wpvcbfd(inst)}
        if all(p == 1 for _, _, p in g.edges):
            reports["pvcbm"] = solve_pvcbm(g, inst.budget, inst.target, 0)
        want = oracle_wpvc(inst).verdict
        for name, rep in reports.items():
            assert rep.verdict == want, name
            if rep.verdict:
                assert rep.witness.fractional is None, name
                check_yes_witness(inst, rep)
