import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_verdict, path3, random_instance, star, triangle
from pvckit import (InputError, Variant, WpvcInstance, infer_variant, make_graph,
                    make_solution, prune_unaffordable, residual, validate)
from pvckit.instance import _require_valid
from pvckit.oracle import oracle_wpvc


class TestVariantInference:
    def test_all_unit_is_pvc(self):
        assert infer_variant(make_graph(2, [(0, 1)])) is Variant.PVC

    def test_unit_costs_is_epvc(self):
        assert infer_variant(make_graph(2, [(0, 1, 3)])) is Variant.EPVC

    def test_unit_profits_is_vpvc(self):
        assert infer_variant(make_graph(2, [(0, 1)], costs=[2, 1])) is Variant.VPVC

    def test_general_is_wpvc(self):
        assert infer_variant(make_graph(2, [(0, 1, 3)], costs=[2, 1])) is Variant.WPVC


class TestValidate:
    def test_unit_cost_instance_tagged_epvc_is_ok(self):
        g = make_graph(2, [(0, 1, 5)])
        assert validate(WpvcInstance(g, 1, 1, Variant.EPVC)) == []

    def test_epvc_tag_with_heavy_vertex_is_flagged(self):
        g = make_graph(2, [(0, 1, 5)], costs=[2, 1])
        problems = validate(WpvcInstance(g, 1, 1, Variant.EPVC))
        assert any("variant/weight mismatch" in p for p in problems)

    def test_bipartite_required_with_triangle_reports_odd_cycle(self):
        inst = WpvcInstance(triangle(), 1, 1, Variant.PVC, bipartite_required=True)
        problems = validate(inst)
        assert any("odd cycle" in p for p in problems)

    def test_make_instance_raises_on_violation(self):
        # make_instance infers its tag, so a tag that does not fit the
        # weights can only be built by hand; the check it runs rejects it.
        g = make_graph(2, [(0, 1, 5)], costs=[2, 1])
        with pytest.raises(InputError, match="variant/weight mismatch"):
            _require_valid(WpvcInstance(g, 1, 1, Variant.EPVC))


P3 = make_graph(3, [(0, 1), (1, 2)])


class TestInstanceChecksItself:
    """A WpvcInstance checks its own fields as it is built, so no function
    that takes one checks them again."""

    @pytest.mark.parametrize("fields, problem", [
        ((None, 1, 1, Variant.PVC), "graph must be a Graph"),
        ((P3, "x", 1, Variant.PVC), "budget must be a non-negative integer"),
        ((P3, -1, 1, Variant.PVC), "budget must be a non-negative integer"),
        ((P3, 1, 1.5, Variant.PVC), "target must be a non-negative integer"),
        ((P3, 1, 1, "junk"), "variant must be a Variant, not 'junk'"),
        ((P3, 1, 1, "pvc"), "variant must be a Variant, not 'pvc'"),
    ], ids=["graph-none", "budget-str", "budget-negative", "target-float", "variant-junk",
            "variant-value"])
    def test_broken_fields_raise_on_construction(self, fields, problem):
        # Budget 'x' used to reach residual, prune_unaffordable and write_wpvc,
        # which raised TypeError; the tag 'junk' was solved, and write_wpvc
        # raised AttributeError on it.
        with pytest.raises(InputError) as info:
            WpvcInstance(*fields)
        assert str(info.value) == problem

    def test_replace_checks_again(self):
        with pytest.raises(InputError, match="budget must be a non-negative integer"):
            dataclasses.replace(path3(), budget="x")


class TestResidual:
    def test_forcing_path_center_clears_edges(self):
        inst = path3(budget=2, target=2)
        res = residual(inst, 1)
        assert res.graph.m == 0
        assert res.budget == 1 and res.target == 0
        assert res.graph.n == inst.graph.n

    def test_forcing_star_leaf(self):
        inst = WpvcInstance(star((1, 1, 1)), 1, 3, Variant.PVC)
        res = residual(inst, 1)
        assert res.budget == 0 and res.target == 2
        assert res.graph.m == 2

    def test_target_clamps_at_zero(self):
        inst = WpvcInstance(star((5, 5, 5)), 2, 4, Variant.EPVC)
        res = residual(inst, 0)
        assert res.target == 0

    def test_budget_error(self):
        inst = WpvcInstance(star((1, 1, 1)), 0, 1, Variant.PVC)
        with pytest.raises(InputError):
            residual(inst, 0)

    def test_soundness_against_restricted_brute_force(self):
        for seed in range(120):
            inst = random_instance(seed, n_max=8)
            for v in range(inst.graph.n):
                if inst.graph.costs[v] > inst.budget:
                    continue
                res = residual(inst, v)
                assert validate(res) == []
                assert oracle_wpvc(res).verdict == brute_force_verdict(
                    inst, must_contain=(v,))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_variant_tag_survives(self, seed, data):
        inst = random_instance(seed, n_max=6)
        affordable = [v for v in range(inst.graph.n)
                      if inst.graph.costs[v] <= inst.budget]
        if not affordable:
            return
        v = data.draw(st.sampled_from(affordable))
        assert validate(residual(inst, v)) == []


class TestPruneUnaffordable:
    def test_drops_edges_between_two_heavy_vertices(self):
        g = make_graph(3, [(0, 1, 2), (1, 2, 3)], costs=[9, 9, 1])
        inst = WpvcInstance(g, 2, 3, Variant.WPVC)
        slim = prune_unaffordable(inst)
        assert slim.graph.m == 1
        assert slim.graph.edges[0][:2] == (1, 2)
        assert slim.graph.n == 3  # ids stay put

    def test_identity_when_nothing_to_drop(self):
        inst = path3()
        assert prune_unaffordable(inst) is inst

    def test_verdict_preserved(self):
        for seed in range(60):
            inst = random_instance(seed, n_max=7, cost_max=6)
            slim = prune_unaffordable(inst)
            assert oracle_wpvc(slim).verdict == oracle_wpvc(inst).verdict


class TestMakeSolution:
    def test_integral_cost_and_profit(self):
        sol = make_solution(star((1, 2, 3)), {0})
        assert sol.cost == 1 and sol.profit == 6

    def test_fractional_counts_sole_edges_only(self):
        from fractions import Fraction
        g = make_graph(3, [(0, 1, 4), (1, 2, 2)], costs=[1, 2, 1])
        sol = make_solution(g, {0}, (1, Fraction(1, 2)))
        # edge (0,1) already covered integrally; only (1,2) scales
        assert sol.profit == 4 + Fraction(1, 2) * 2
        assert sol.cost == 1 + Fraction(1, 2) * 2

    def test_rejects_extent_outside_open_interval(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(InputError):
            make_solution(g, set(), (0, 1))

    @pytest.mark.parametrize("w", [-1, 3])
    def test_rejects_fractional_vertex_out_of_range(self, w):
        from fractions import Fraction
        g = make_graph(3, [(0, 1, 4), (1, 2, 2)], costs=[1, 2, 1])
        with pytest.raises(InputError, match="invalid vertex id"):
            make_solution(g, {0}, (w, Fraction(1, 2)))
