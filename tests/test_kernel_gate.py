"""Node-level gate for the three branching rules.

A test of the final verdict cannot see a kernel that misses every feasible
cover at one node, since a sibling branch may still find the right answer.
So each rule is wrapped, the way ``TestSearchState`` hands ``_search`` its own
rule, and every node it settles or branches on is checked by brute force
against the node's feasible completions: sets of unforced vertices within the
residual budget that cover the residual target of live profit. Only vertices
on a live positive-profit edge are enumerated; dropping any other vertex from
a completion keeps it feasible. Three checks:

* a rule that returns None is right that the node has no feasible completion;
* every ``take`` a rule returns is a feasible completion;
* when the node has a feasible completion, the affordable part of the branch
  list meets at least one of them.

The instances have at most 9 vertices and draw zero-cost vertices and
zero-profit edges.
"""

import random
from itertools import combinations

import pytest

from pvckit import (Variant, WpvcInstance, branching, infer_variant, make_graph,
                    solve_epvcbd, solve_wpvc_bounded_degree, solve_wpvc_by_L)

CASES = 1500


def completions(g, forced, budget, target):
    """The node's feasible completions, smallest first."""
    live = [(u, w, p) for u, w, p in g.edges if p and not (forced[u] or forced[w])]
    useful = sorted({v for u, w, _ in live for v in (u, w) if g.costs[v] <= budget})
    found = []
    for size in range(len(useful) + 1):
        for pick in combinations(useful, size):
            chosen = set(pick)
            if (sum(g.costs[v] for v in chosen) <= budget
                    and sum(p for u, w, p in live if u in chosen or w in chosen) >= target):
                found.append(chosen)
    return found


def gated(inst, rule, calls):
    g = inst.graph

    def checked(wdeg, budget, target, forced):
        found = rule(wdeg, budget, target, forced)
        feasible = completions(g, forced, budget, target)
        calls.append(found)
        if found is None:
            assert not feasible, "rule said no at a node with a feasible completion"
            return found
        take, branch = found
        if take is not None:
            chosen = set(take)
            assert not any(forced[v] for v in chosen)
            assert sum(g.costs[v] for v in chosen) <= budget
            assert sum(p for u, w, p in g.edges if not (forced[u] or forced[w])
                       and (u in chosen or w in chosen)) >= target
            return found
        affordable = {v for v in branch if g.costs[v] <= budget}
        assert not feasible or any(s & affordable for s in feasible), \
            "branch %s misses every feasible completion" % (branch,)
        return found

    return checked


@pytest.fixture
def rule_calls(monkeypatch):
    """Route every search through the gate; yields the rules' results."""
    calls = []
    search = branching._search

    def search_with_gate(inst, rule, depth_bound, t0):
        return search(inst, gated(inst, rule, calls), depth_bound, t0)

    monkeypatch.setattr(branching, "_search", search_with_gate)
    return calls


def random_case(rng, unit_costs=False, bipartite=False, degree_cap=None):
    n = rng.randint(1, 9)
    if bipartite:
        left = rng.randint(0, n)
        slots = [(i, j) for i in range(left) for j in range(left, n)]
    else:
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(slots)
    degree = [0] * n
    edges = []
    for u, v in slots[:rng.randint(0, len(slots))]:
        if degree_cap is None or (degree[u] < degree_cap and degree[v] < degree_cap):
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v, rng.randint(0, 3)))
    costs = [1] * n if unit_costs else [rng.randint(0, 2) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(0, 4)
    # The whole profit as target makes the search backtrack through more nodes.
    target = rng.choice([rng.randint(0, g.total_profit() + 1), g.total_profit()])
    return WpvcInstance(g, budget, target, infer_variant(g), bipartite)


# Found by this gate: the bounded-degree kernel spread across a zero-profit
# edge to a zero-cost vertex, and branching on it spent no budget.
ZERO_PROFIT_SPREAD = WpvcInstance(make_graph(3, [(0, 1, 0), (1, 2, 3)], [0, 1, 1]), 1, 1,
                                  Variant.WPVC)


def test_unit_cost_pool(rule_calls):
    rng = random.Random(101)
    for _ in range(CASES):
        inst = random_case(rng, unit_costs=True, bipartite=True)
        assert solve_epvcbd(inst).max_depth <= inst.budget
    assert len(rule_calls) > 300


def test_bounded_degree_kernel(rule_calls):
    rng = random.Random(102)
    cases = [ZERO_PROFIT_SPREAD] + [random_case(rng, degree_cap=3) for _ in range(CASES)]
    for inst in cases:
        rep = solve_wpvc_bounded_degree(inst, max(inst.graph.max_degree(), 1))
        assert rep.max_depth <= inst.budget
    assert len(rule_calls) > 300


def test_profit_target_kernel(rule_calls):
    rng = random.Random(103)
    for _ in range(CASES):
        inst = random_case(rng)
        rep = solve_wpvc_by_L(inst)
        assert inst.target == 0 or rep.max_depth < 2 * inst.target
    assert len(rule_calls) > 300
