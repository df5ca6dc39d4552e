import pytest

from helpers import c4, long_augmenting_path, star
from pvckit import (NotBipartiteError, VariantError, coverage, edge_subgraph,
                    bipartition, make_graph, max_matching, solve_epvcbd, solve_pvcbm,
                    Variant, WpvcInstance)
from pvckit.generators import matching_constrained_case
from pvckit.oracle import oracle_pvcbm


def check_witness(g, rep, k1, k2, k3):
    verts = rep.witness.vertices
    assert len(verts) <= k1
    covered, _ = coverage(g, verts)
    assert len(covered) >= k2
    sub, _ = edge_subgraph(g, covered)
    assert max_matching(sub, bipartition(g)).size >= k3
    # the reported matching itself is disjoint, covered, and large enough
    assert rep.matching_edge_ids is not None
    assert len(rep.matching_edge_ids) >= k3
    assert rep.matching_edge_ids <= covered
    seen = set()
    for e in rep.matching_edge_ids:
        u, v, _ = g.edges[e]
        assert u not in seen and v not in seen
        seen.update((u, v))


class TestSolvePvcbm:
    def test_c4_two_corners_give_a_two_matching(self):
        g = c4()
        rep = solve_pvcbm(g, 2, 4, 2)
        assert rep.verdict
        check_witness(g, rep, 2, 4, 2)

    def test_star_lacks_a_two_matching(self):
        assert not solve_pvcbm(star((1, 1, 1)), 1, 3, 2).verdict

    def test_k3_above_k1_is_immediately_no(self):
        rep = solve_pvcbm(c4(), 1, 0, 2)
        assert not rep.verdict and rep.nodes_expanded == 0

    def test_zero_k3_reduces_to_plain_cover(self):
        for seed in range(60):
            g, k1, k2, _ = matching_constrained_case(seed)
            rep = solve_pvcbm(g, k1, k2, 0)
            plain = solve_epvcbd(WpvcInstance(g, k1, k2, Variant.PVC, True))
            assert rep.verdict == plain.verdict

    def test_rejects_weighted_graphs(self):
        g = make_graph(2, [(0, 1, 2)])
        with pytest.raises(VariantError):
            solve_pvcbm(g, 1, 1, 1)

    def test_rejects_odd_cycle(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotBipartiteError):
            solve_pvcbm(g, 1, 1, 1)

    def test_growth_path_produces_checked_witness(self):
        # k2 small so the least budget is tiny, but k3 demands a bigger matching:
        # the edge-growing stage has to run.
        g = make_graph(6, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)])
        rep = solve_pvcbm(g, 3, 2, 3)
        assert rep.verdict
        check_witness(g, rep, 3, 2, 3)

    def test_probe_monotonicity(self):
        for seed in range(30):
            g, k1, k2, _ = matching_constrained_case(seed)
            verdicts = [solve_epvcbd(WpvcInstance(g, r, k2, Variant.PVC, True)).verdict
                        for r in range(k1 + 1)]
            # once yes, always yes for larger budgets
            assert verdicts == sorted(verdicts)

    def test_matches_oracle_with_witness_recheck(self):
        for seed in range(120):
            g, k1, k2, k3 = matching_constrained_case(seed)
            rep = solve_pvcbm(g, k1, k2, k3)
            assert rep.verdict == oracle_pvcbm(g, k1, k2, k3).verdict
            if rep.verdict:
                check_witness(g, rep, k1, k2, k3)

    def test_augmenting_path_longer_than_recursion_limit(self):
        # Matching all 1500 right vertices takes one augmenting path through
        # the whole graph, 1500 left vertices deep.
        g = long_augmenting_path(1500)
        rep = solve_pvcbm(g, 1500, g.m, 1500)
        assert rep.verdict
        check_witness(g, rep, 1500, g.m, 1500)
