"""Metamorphic laws: transformations that must leave every solver's verdict alone.

A case is a small bipartite instance with its sides spelled out. It is drawn
with zero-cost vertices and zero-profit edges wherever the solver admits them,
so that ``solve_wpvcbfd`` takes free vertices and drops edges before it
expands. A law transforms the case, and the solver must give the transformed
case the verdict it gave the original. ``solve_epvcbd`` needs unit costs and
``solve_pvcbm`` unit costs and profits, so they get only the laws that keep
them.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvckit import (WpvcInstance, infer_variant, make_graph, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd)


@dataclass(frozen=True)
class Case:
    side: tuple[int, ...]  # 0 or 1 per vertex; every edge joins the two
    edges: tuple[tuple[int, int, int], ...]
    costs: tuple[int, ...]
    budget: int
    target: int
    k3: int  # read by solve_pvcbm only

    def instance(self):
        g = make_graph(len(self.side), self.edges, self.costs)
        return WpvcInstance(g, self.budget, self.target, infer_variant(g), True)


@dataclass(frozen=True)
class Solver:
    decide: object  # Case -> bool
    costs: st.SearchStrategy
    profits: st.SearchStrategy
    laws: tuple[str, ...]


def bounded_degree(case):
    inst = case.instance()
    return solve_wpvc_bounded_degree(inst, inst.graph.max_degree()).verdict


WEIGHTED = ("relabel", "isolated", "profits", "zero_edges")
UNIT = st.just(1)
SOLVERS = {
    "epvcbd": Solver(lambda c: solve_epvcbd(c.instance()).verdict,
                     UNIT, st.integers(0, 3), WEIGHTED),
    "bounded-degree": Solver(bounded_degree, st.integers(0, 2), st.integers(0, 3), WEIGHTED),
    "by-L": Solver(lambda c: solve_wpvc_by_L(c.instance()).verdict,
                   st.integers(0, 2), st.integers(0, 3), WEIGHTED),
    "fractional": Solver(lambda c: solve_wpvcbfd(c.instance()).verdict,
                         st.integers(0, 2), st.integers(0, 3), WEIGHTED + ("costs",)),
    "pvcbm": Solver(lambda c: solve_pvcbm(c.instance().graph, c.budget, c.target,
                                          c.k3).verdict,
                    UNIT, UNIT, ("relabel", "isolated")),
}


@st.composite
def cases(draw, solver):
    n = draw(st.integers(min_value=1, max_value=6))
    side = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    picked = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
                  if slots else st.just([]))
    edges = tuple((u, v, draw(solver.profits)) for u, v in sorted(picked))
    costs = tuple(draw(solver.costs) for _ in range(n))
    target = draw(st.integers(min_value=0, max_value=sum(p for _, _, p in edges) + 1))
    return Case(side, edges, costs, draw(st.integers(0, 4)), target, draw(st.integers(0, 3)))


def relabel(case, data, solver):
    n = len(case.side)
    perm = data.draw(st.permutations(range(n)))
    side = [0] * n
    costs = [0] * n
    for v in range(n):
        side[perm[v]] = case.side[v]
        costs[perm[v]] = case.costs[v]
    edges = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), p)
                         for u, v, p in case.edges))
    return replace(case, side=tuple(side), edges=edges, costs=tuple(costs))


def isolated(case, data, solver):
    extra = data.draw(st.lists(st.tuples(st.integers(0, 1), solver.costs),
                               min_size=1, max_size=3))
    return replace(case, side=case.side + tuple(s for s, _ in extra),
                   costs=case.costs + tuple(c for _, c in extra))


def profits(case, data, solver):
    f = data.draw(st.sampled_from([2, 3]))
    return replace(case, edges=tuple((u, v, f * p) for u, v, p in case.edges),
                   target=f * case.target)


def zero_edges(case, data, solver):
    n = len(case.side)
    present = {(u, v) for u, v, _ in case.edges}
    free = [(u, v) for u in range(n) for v in range(u + 1, n)
            if case.side[u] != case.side[v] and (u, v) not in present]
    added = data.draw(st.lists(st.sampled_from(free), unique=True, max_size=len(free))
                      if free else st.just([]))
    return replace(case, edges=tuple(sorted(case.edges + tuple((u, v, 0) for u, v in added))))


def costs(case, data, solver):
    f = data.draw(st.sampled_from([2, 3]))
    return replace(case, costs=tuple(f * c for c in case.costs), budget=f * case.budget)


LAWS = {"relabel": relabel, "isolated": isolated, "profits": profits,
        "zero_edges": zero_edges, "costs": costs}


@pytest.mark.parametrize("name, law", [(name, law) for name, solver in SOLVERS.items()
                                       for law in solver.laws])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_law_keeps_the_verdict(name, law, data):
    solver = SOLVERS[name]
    case = data.draw(cases(solver))
    moved = LAWS[law](case, data, solver)
    assert solver.decide(moved) == solver.decide(case)
