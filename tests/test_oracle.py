from fractions import Fraction

import pytest

from helpers import c4, path3, random_instance, relabeled, star
from pvckit import (Graph, InputError, OracleScaleError, Variant, WpvcInstance, make_graph,
                    make_instance, solve_pvcbm, solve_wpvc_by_L, solve_wpvcbfd)
from pvckit.generators import random_mcq
from pvckit.oracle import (oracle_fractional, oracle_mcq, oracle_pvcbm, oracle_wpvc)
from pvckit.reduction import make_mcq


class TestOracleWpvc:
    def test_path_yes_with_canonical_witness(self):
        rep = oracle_wpvc(path3(budget=1, target=2))
        assert rep.verdict and sorted(rep.witness.vertices) == [1]

    def test_path_no_when_target_three(self):
        assert not oracle_wpvc(path3(budget=1, target=3)).verdict

    def test_empty_graph_zero_target(self):
        inst = make_instance(0, [], budget=0, target=0)
        rep = oracle_wpvc(inst)
        assert rep.verdict and rep.witness.vertices == frozenset()

    def test_cap_counts_selectable_vertices(self):
        g = make_graph(30, [], costs=[1] * 30)
        with pytest.raises(OracleScaleError):
            oracle_wpvc(WpvcInstance(g, 2, 0, Variant.EPVC))
        heavy = make_graph(30, [], costs=[9] * 29 + [1])
        # only one vertex is affordable, so the cap is satisfied
        assert oracle_wpvc(WpvcInstance(heavy, 2, 0, Variant.WPVC)).verdict

    def test_witness_is_size_then_lex_least(self):
        # both {0} and {1} reach the target; 0 wins
        g = make_graph(3, [(0, 2), (1, 2)])
        rep = oracle_wpvc(make_instance(3, [(0, 2), (1, 2)], budget=2, target=1))
        assert sorted(rep.witness.vertices) == [0]
        del g

    def test_relabeling_invariance(self):
        for seed in range(40):
            inst = random_instance(seed, n_max=7)
            other, _ = relabeled(inst, seed * 31 + 1)
            assert oracle_wpvc(inst).verdict == oracle_wpvc(other).verdict


class TestOracleFractional:
    def test_half_vertex_reaches_two(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=1, target=2)
        rep = oracle_fractional(inst)
        assert rep.verdict
        assert rep.witness.vertices == frozenset()
        assert rep.witness.fractional == (0, Fraction(1, 2))
        assert rep.witness.profit == 2

    def test_no_when_target_three(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=1, target=3)
        assert not oracle_fractional(inst).verdict

    def test_full_budget_reduces_to_integral(self):
        inst = make_instance(2, [(0, 1, 4)], costs=[2, 2], budget=2, target=4)
        rep = oracle_fractional(inst)
        assert rep.verdict and rep.witness.fractional is None

    def test_disabled_candidates_match_plain_oracle(self):
        # With unit costs any leftover budget affords a whole vertex, so no
        # vertex is a fractional candidate and the two oracles coincide.
        for seed in range(60):
            inst = random_instance(seed, n_max=7, cost_max=1)
            plain = oracle_wpvc(inst)
            crippled = oracle_fractional(inst)
            assert plain.verdict == crippled.verdict
            if plain.verdict:
                assert plain.witness == crippled.witness


class TestOraclePvcbm:
    def test_c4_opposite_corners(self):
        rep = oracle_pvcbm(c4(), 2, 4, 2)
        assert rep.verdict
        assert len(rep.matching_edge_ids) >= 2

    def test_star_cannot_match_twice(self):
        assert not oracle_pvcbm(star((1, 1, 1)), 1, 3, 2).verdict

    def test_zero_requirements_hold_vacuously(self):
        rep = oracle_pvcbm(star((1, 1, 1)), 0, 0, 0)
        assert rep.verdict and rep.witness.vertices == frozenset()


# Hand-built graphs the solvers reject: an edge endpoint out of range, and an
# edge missing from one endpoint's adjacency list.
MALFORMED = [
    (Graph(n=2, edges=((0, 5, 1),), costs=(1, 1), adjacency=((0,), ())),
     "edge 0 has endpoint out of range"),
    (Graph(n=2, edges=((0, 1, 1),), costs=(1, 1), adjacency=((0,), ())),
     "edge 0 missing from an endpoint adjacency list"),
]


class TestOracleInputs:
    """The oracles reject the graphs, budgets and targets the solvers reject."""

    @pytest.mark.parametrize("g, problem", MALFORMED, ids=["out-of-range", "unlisted"])
    def test_wpvc_oracle_rejects_malformed_graphs(self, g, problem):
        inst = WpvcInstance(g, 1, 1, Variant.PVC)
        for decide in (oracle_wpvc, solve_wpvc_by_L):
            with pytest.raises(InputError, match=problem):
                decide(inst)

    @pytest.mark.parametrize("g, problem", MALFORMED, ids=["out-of-range", "unlisted"])
    def test_fractional_oracle_rejects_malformed_graphs(self, g, problem):
        inst = WpvcInstance(g, 1, 1, Variant.PVC, bipartite_required=True)
        for decide in (oracle_fractional, solve_wpvcbfd):
            with pytest.raises(InputError, match=problem):
                decide(inst)

    @pytest.mark.parametrize("g, problem", MALFORMED, ids=["out-of-range", "unlisted"])
    def test_matching_oracle_rejects_malformed_graphs(self, g, problem):
        for decide in (oracle_pvcbm, solve_pvcbm):
            with pytest.raises(InputError, match=problem):
                decide(g, 1, 1, 1)

    @pytest.mark.parametrize("oracle", [oracle_wpvc, oracle_fractional])
    @pytest.mark.parametrize("budget, target", [(1, -4), (2.5, 1), (-1, 0), (1, 1.5)])
    def test_cover_oracles(self, oracle, budget, target):
        with pytest.raises(InputError, match="non-negative integers"):
            oracle(WpvcInstance(c4(), budget, target, Variant.PVC))

    @pytest.mark.parametrize("ks", [(1.5, 1, 1), (1, 1.5, 1), (1, 1, 1.5), (1, -1, 1)])
    def test_matching_oracle(self, ks):
        with pytest.raises(InputError, match="non-negative integers"):
            oracle_pvcbm(c4(), *ks)


def _raised(decide, *args):
    with pytest.raises(InputError) as info:
        decide(*args)
    return type(info.value), str(info.value)


ODD_CYCLE = make_graph(3, [(0, 1), (1, 2), (0, 2)])
PVCBM_REJECTS = [
    ("k-float", c4(), (1.5, 1, 1)),
    ("k-negative", c4(), (1, -1, 1)),
    ("cost", make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], costs=[5, 1, 1, 1]), (2, 4, 2)),
    ("profit", make_graph(4, [(0, 1, 3), (1, 2), (2, 3), (0, 3)]), (2, 4, 2)),
    ("out-of-range", MALFORMED[0][0], (1, 1, 1)),
    ("unlisted", MALFORMED[1][0], (1, 1, 1)),
    ("odd-cycle", ODD_CYCLE, (1, 1, 1)),
]


@pytest.mark.parametrize("g, ks", [case[1:] for case in PVCBM_REJECTS],
                         ids=[case[0] for case in PVCBM_REJECTS])
def test_matching_oracle_rejects_what_its_solver_rejects(g, ks):
    # One entry check: the same exception type and message from both.
    assert _raised(oracle_pvcbm, g, *ks) == _raised(solve_pvcbm, g, *ks)


class TestOracleMcq:
    def test_edge_makes_clique(self):
        mcq = make_mcq(2, 2, [1, 2], [(0, 1)])
        verdict = oracle_mcq(mcq)
        assert verdict.yes and set(verdict.clique) == {0, 1}

    def test_no_edge_no_clique(self):
        assert not oracle_mcq(make_mcq(2, 2, [1, 2], [])).yes

    def test_planted_clique_is_recovered(self):
        mcq = random_mcq(5, k=3, class_size=2, edge_prob=0.0, plant=True)
        verdict = oracle_mcq(mcq)
        assert verdict.yes
        pairs = {(u, v) for u, v, _ in mcq.graph.edges}
        pairs |= {(v, u) for u, v in pairs}
        a, b, c = verdict.clique
        assert {(a, b), (a, c), (b, c)} <= pairs

    def test_caps(self):
        mcq = random_mcq(0, k=5, class_size=1, edge_prob=1.0, plant=False)
        with pytest.raises(OracleScaleError):
            oracle_mcq(mcq)
