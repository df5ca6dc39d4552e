"""Forest gate: verdicts on forests checked against a dynamic program.

Every other oracle in the suite is brute force, capped at 20 selectable
vertices, so on its own the suite never checks a verdict where the search
works hard. On a forest, ``perfbench/truth.py`` decides the integral, the
one-fractional-vertex and the matching-constrained questions with a tree
dynamic program that uses no pvckit code. It is loaded from its file, not
copied.

Each solver runs on forests of 50 to 300 vertices at the optimum (a yes,
whose witness is re-checked here) and one step past it (a no). Explicit
examples add seeded 200-vertex forests at the largest budgets drawn: one
past their optimum, a search that did not ban failed siblings expanded about
10^5 nodes or ran for more than 10 s. Each cover oracle runs on small
forests against the same functions. Zero-cost vertices and zero-profit
edges are drawn, except where ``fractional_best`` divides by vertex costs.
"""

import importlib.util
import random
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvckit import (WpvcInstance, infer_variant, make_graph, oracle_fractional,
                    oracle_pvcbm, oracle_wpvc, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd)

_spec = importlib.util.spec_from_file_location(
    "truth", Path(__file__).resolve().parent.parent / "perfbench" / "truth.py")
truth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(truth)

SOLVER_RUNS = settings(max_examples=20, deadline=None)
ORACLE_RUNS = settings(max_examples=50, deadline=None)


@st.composite
def forests(draw, n_min, n_max, **weights):
    """A forest of ``n_min`` to ``n_max`` vertices (see :func:`forest`)."""
    n = draw(st.integers(n_min, n_max))
    return forest(draw(st.randoms(use_true_random=False)), n, **weights)


def forest(rng, n, cost_min=0, cost_max=3, profit_min=0, profit_max=4, max_degree=None):
    """A forest: each vertex joins an earlier one with room, or starts a tree."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        if rng.random() < 0.1 or (max_degree is not None and degree[u] >= max_degree):
            continue
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v, rng.randint(profit_min, profit_max)))
    return make_graph(n, edges, [rng.randint(cost_min, cost_max) for _ in range(n)])


def instance(g, budget, target, bipartite=False):
    return WpvcInstance(g, budget, target, infer_variant(g), bipartite)


def assert_witness(inst, sol):
    """Cost within the budget and profit up to the target, summed from the
    graph's edges: an integral vertex covers its edges in full, the
    fractional one only the rest, at its extent."""
    g = inst.graph
    chosen = sol.vertices
    cost = sum(g.costs[v] for v in chosen)
    profit = sum(p for u, v, p in g.edges if u in chosen or v in chosen)
    if sol.fractional is not None:
        w, extent = sol.fractional
        assert 0 < extent < 1 and w not in chosen
        cost += extent * g.costs[w]
        profit += extent * sum(p for u, v, p in g.edges
                               if w in (u, v) and not (u in chosen or v in chosen))
    assert cost <= inst.budget and profit >= inst.target
    assert (sol.cost, sol.profit) == (cost, profit)


def at_the_optimum(solve, inst):
    """``inst`` is a yes with the least target beyond reach one step above."""
    rep = solve(inst)
    assert rep.verdict
    assert_witness(inst, rep.witness)
    assert not solve(replace(inst, target=inst.target + 1)).verdict


def integral_optimum(g, budget):
    return truth.integral_best(g.n, g.edges, g.costs, budget)[budget]


def fractional_optimum(g, budget):
    """The largest target a one-fractional-vertex cover within ``budget`` meets."""
    best = truth.fractional_best(g.n, g.edges, g.costs, budget)
    return best // truth.expansion_scale(g.edges, g.costs)


class TestSolvers:
    @SOLVER_RUNS
    @given(forests(50, 300, cost_min=1, cost_max=1), st.integers(0, 11))
    # One past the optimum of these two forests, a search without sibling
    # bans expanded 134,194 and 94,486 nodes (11 s and 4 s); with them it
    # expands 21 and 5.
    @example(forest(random.Random(13), 200, 1, 1, 1, 4), 11)
    @example(forest(random.Random(50), 200, 1, 1, 1, 4), 11)
    def test_epvcbd(self, g, budget):
        inst = instance(g, budget, integral_optimum(g, budget), bipartite=True)
        at_the_optimum(solve_epvcbd, inst)

    @SOLVER_RUNS
    @given(forests(50, 300, max_degree=3), st.integers(0, 3))
    def test_bounded_degree(self, g, budget):
        inst = instance(g, budget, integral_optimum(g, budget))
        at_the_optimum(lambda inst: solve_wpvc_bounded_degree(inst, 3), inst)

    @SOLVER_RUNS
    @given(forests(50, 300, cost_max=2, profit_max=2), st.integers(0, 3))
    def test_by_L(self, g, budget):
        inst = instance(g, budget, integral_optimum(g, budget))
        at_the_optimum(solve_wpvc_by_L, inst)

    @SOLVER_RUNS
    @given(forests(50, 300, cost_min=1, cost_max=3, profit_max=3), st.integers(0, 4))
    def test_fractional(self, g, budget):
        inst = instance(g, budget, fractional_optimum(g, budget), bipartite=True)
        at_the_optimum(solve_wpvcbfd, inst)

    @SOLVER_RUNS
    @given(forests(50, 300, cost_min=1, cost_max=20, profit_max=3), st.integers(0, 16))
    # One past the optimum of these two forests, a search without sibling
    # bans did not finish in 90 s and 10 s; with them it expands 9 and 13
    # nodes.
    @example(forest(random.Random(13), 200, 1, 20, 1, 3), 16)
    @example(forest(random.Random(15), 200, 1, 20, 1, 3), 16)
    def test_fractional_large_sections(self, g, budget):
        # Sections of up to 20 copies, searched as counts, not copies.
        inst = instance(g, budget, fractional_optimum(g, budget), bipartite=True)
        at_the_optimum(solve_wpvcbfd, inst)

    @SOLVER_RUNS
    @given(forests(50, 300, cost_min=1, cost_max=1, profit_min=1, profit_max=1),
           st.integers(0, 5), st.integers(0, 6))
    def test_pvcbm(self, g, k1, k3):
        # Past the optimum in either direction: one more covered edge, or one
        # more matched edge.
        best = integral_optimum(g, k1)
        for k2, k3 in ((best, k3), (best + 1, k3), (best, k3 + 1)):
            rep = solve_pvcbm(g, k1, k2, k3)
            assert rep.verdict == truth.pvcbm_verdict(g.n, g.edges, k1, k2, k3)
            if rep.verdict:
                assert_witness(instance(g, k1, k2), rep.witness)


class TestOracles:
    @ORACLE_RUNS
    @given(forests(1, 16), st.integers(0, 4), st.integers(0, 2))
    def test_oracle_wpvc(self, g, budget, past):
        best = integral_optimum(g, budget)
        assert oracle_wpvc(instance(g, budget, best + past)).verdict == (past == 0)

    @ORACLE_RUNS
    @given(forests(1, 12, cost_min=1), st.integers(0, 4), st.integers(0, 2))
    def test_oracle_fractional(self, g, budget, past):
        best = fractional_optimum(g, budget)
        rep = oracle_fractional(instance(g, budget, best + past))
        assert rep.verdict == (past == 0)
        if rep.verdict:
            assert_witness(instance(g, budget, best), rep.witness)

    @ORACLE_RUNS
    @given(forests(1, 16, cost_min=1, cost_max=1, profit_min=1, profit_max=1),
           st.integers(0, 4), st.integers(0, 2), st.integers(0, 5))
    def test_oracle_pvcbm(self, g, k1, past, k3):
        k2 = integral_optimum(g, k1) + past
        assert oracle_pvcbm(g, k1, k2, k3).verdict == truth.pvcbm_verdict(
            g.n, g.edges, k1, k2, k3)
