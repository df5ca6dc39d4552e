import pytest

from helpers import path3, relabeled, star, triangle
from pvckit import (InputError, NotBipartiteError, Variant, VariantError, WpvcInstance,
                    coverage, make_graph, make_instance, solve_epvcbd,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L)
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
