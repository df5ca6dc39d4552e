import json
import random
import sys
from dataclasses import replace

import pytest

import pvckit.pvcbm
from helpers import c4, long_augmenting_path, star
from make_golden_search import GOLDEN, GROWTH_CASES, GROWTH_SEED, grows
from pvckit import (NotBipartiteError, VariantError, coverage, edge_subgraph,
                    bipartition, make_graph, make_solution, max_matching, solve_epvcbd,
                    solve_pvcbm, Variant, WpvcInstance)
from pvckit.generators import matching_constrained_case
from pvckit.graph import Graph, Matching, _matching
from pvckit.instance import _witness_problem
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


class TestNoSubgraphs:
    """The growth stage matches over sets of edge ids of the input graph, so
    a solve builds no subgraph and no graph at all, whether its first check
    is a yes or its witness has to grow."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Count the calls of ``edge_subgraph``, of ``_trusted_graph`` (which
        every graph derived from another goes through) and of the check of a
        graph built by hand, wherever the package looks them up."""
        calls = []
        modules = [pvckit] + [m for name, m in sys.modules.items() if name.startswith("pvckit.")]
        for name in ("edge_subgraph", "_trusted_graph"):
            for module in modules:
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        check = Graph.__post_init__

        def checked(self):
            calls.append("Graph")
            check(self)

        monkeypatch.setattr(Graph, "__post_init__", checked)
        return calls

    def test_the_counts_see_every_build(self, built):
        g = c4()
        Graph(g.n, g.edges, g.costs, g.adjacency)
        pvckit.edge_subgraph(g, {0, 2})
        assert built == ["_trusted_graph", "Graph", "edge_subgraph", "_trusted_graph"]

    def test_a_first_check_yes_builds_no_graph(self, built):
        g = c4()
        built.clear()
        rep = solve_pvcbm(g, 2, 4, 2)
        assert rep.verdict and built == []

    def test_growth_cases_build_no_graph(self, built):
        sources = [case["source"] for case in json.loads(GOLDEN.read_text())["cases"]]
        seeds = [src[2] for src in sources if src[0] == "pvcbm" and src[2] >= GROWTH_SEED]
        assert len(seeds) == GROWTH_CASES
        for seed in seeds:
            assert grows(seed)
            g, *ks = matching_constrained_case(seed)
            built.clear()
            rep = solve_pvcbm(g, *ks)
            assert rep.verdict and built == [], seed


def _too_few(g, side, ids):
    mat = _matching(g, side, ids)
    return Matching(mat.edge_ids - {max(mat.edge_ids)}, mat.size)


def _overlapping(g, side, ids):
    # One matched edge swapped for an edge that shares an end with another.
    mat = _matching(g, side, ids)
    keep = min(mat.edge_ids)
    ends = set(g.edges[keep][:2])
    extra = next(f for f in sorted(ids)
                 if f not in mat.edge_ids and ends & set(g.edges[f][:2]))
    return Matching(mat.edge_ids - {max(mat.edge_ids)} | {extra}, mat.size)


class TestWitnessCheck:
    """Every yes is checked through the matching it reports, not through a
    second Hopcroft-Karp run that would trust the same code."""

    @pytest.mark.parametrize("fake", [_too_few, _overlapping])
    def test_a_matching_that_misreports_its_size_fails_the_solve(self, monkeypatch, fake):
        monkeypatch.setattr(pvckit.pvcbm, "_matching", fake)
        with pytest.raises(AssertionError, match="matching"):
            solve_pvcbm(c4(), 2, 4, 2)

    def test_whole_graph_matching_is_the_search_top(self, monkeypatch):
        # The plain witness covers nothing (k2 = 0), and the one uncovered
        # edge brings the matching number to k3 only in the whole graph.
        g, k1, k2, k3 = matching_constrained_case(334)
        assert (g.m, k1, k2, k3) == (1, 1, 0, 1)
        calls = []

        def counted(g, side, ids):
            calls.append(len(ids))
            return _matching(g, side, ids)

        monkeypatch.setattr(pvckit.pvcbm, "_matching", counted)
        rep = solve_pvcbm(g, k1, k2, k3)
        assert rep.verdict and rep.matching_edge_ids == {0}
        assert calls == [0, 1]  # the covered edges, then the whole graph once
        check_witness(g, rep, k1, k2, k3)

    def test_agrees_with_the_reference_check(self):
        rng = random.Random(7)
        outcomes = set()
        for seed in range(150):
            g, *ks = matching_constrained_case(seed)
            rep = solve_pvcbm(g, *ks)
            if not rep.verdict:
                continue
            for tamper in range(6):
                vertices, matching = set(rep.witness.vertices), set(rep.matching_edge_ids)
                asked = list(ks)
                if tamper == 1 and vertices:
                    vertices.discard(rng.choice(sorted(vertices)))
                elif tamper == 2:
                    vertices.add(rng.randrange(g.n))
                elif tamper in (3, 4) and g.m:
                    matching ^= {rng.randrange(g.m)}
                elif tamper == 5:
                    asked[rng.randrange(3)] += 1
                told = replace(rep, witness=make_solution(g, vertices),
                               matching_edge_ids=frozenset(matching))
                try:
                    check_witness(g, told, *asked)
                    passes = True
                except AssertionError:
                    passes = False
                problem = _witness_problem(g, asked[0], asked[1], told.witness,
                                           told.matching_edge_ids, asked[2])
                assert (problem is None) == passes, (seed, tamper, problem)
                outcomes.add(passes)
        assert outcomes == {True, False}
