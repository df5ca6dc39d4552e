"""Node-level gate for the three branching rules and the section search.

A test of the final verdict cannot see a kernel that misses every feasible
cover at one node, since a sibling branch may still find the right answer.
So each rule is wrapped, the way ``TestSearchState`` hands ``_search`` its own
rule, and every node it settles or branches on is checked by brute force
against the node's feasible completions: sets of unforced vertices within the
residual budget that cover the residual target of live profit. Only vertices
on a live positive-profit edge are enumerated; dropping any other vertex from
a completion keeps it feasible. Two checks:

* every ``take`` a rule returns is a feasible completion;
* when the node has a feasible completion, the affordable part of the branch
  list meets at least one of them.

The search's profit bound settles, before any rule runs, every node on which
a rule's kernel would be empty (no affordable vertex of positive residual
degree, or with unit costs none reaching target/budget). So the rules never
return None; they assert that their kernel is not empty. The gate cannot see
the nodes the bound cuts, so the bound has its own gate below: it admits
every node that has a feasible completion, and it equals an independent LP
value.

The fractional solver's search runs over sections: a count of copies left
per vertex, every copy of cost 1, in the scaled units of the copy-pair
shares. Its gate enumerates completions as counts of the copies left per
vertex, and checks its takes and branch lists the same way, and its profit
bound at every node it computes: the bound reaches the most live profit
that any completion within the budget covers.

The search bans each child whose subtree found no witness from its later
siblings, and the bound leaves banned vertices out. A ban is sound only if
no feasible completion of the node takes the banned vertex (with sections,
another copy of it). The ban gate reads the bans of the running search at
every node where it computes its bound, and each time a frame takes its
next child, and checks that by brute force on boundary trees, where the
search backtracks. It also checks that the bound, over the weights with
banned vertices zeroed, reaches the most live profit that a completion
avoiding them covers; the bound's own gate checks the same on random bans.

The instances have at most 9 vertices (6 for the section search, with costs
up to 3) and draw zero-cost vertices and zero-profit edges; the ban gate's
trees have at most 12 (9 for the section search).
"""

import random
import sys
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from pvckit import (Variant, WpvcInstance, branching, infer_variant, make_graph,
                    oracle_fractional, oracle_wpvc, solve_epvcbd, solve_wpvc_bounded_degree,
                    solve_wpvc_by_L, solve_wpvcbfd)

CASES = 1500
SECTION_CASES = 3000
BAN_CASES = 600
SEARCH = branching._search.__code__


def covered(g, forced, chosen):
    """The live profit the set ``chosen`` covers."""
    return sum(p for u, w, p in g.edges
               if not (forced[u] or forced[w]) and (u in chosen or w in chosen))


def completions(g, forced, budget, target):
    """The node's feasible completions, smallest first."""
    live = [(u, w, p) for u, w, p in g.edges if p and not (forced[u] or forced[w])]
    useful = sorted({v for u, w, _ in live for v in (u, w) if g.costs[v] <= budget})
    # No set has more vertices than the most of the cheapest ones that fit.
    sizes = sum(1 for spent in accumulate(sorted(g.costs[v] for v in useful)) if spent <= budget)
    found = []
    for size in range(sizes + 1):
        for pick in combinations(useful, size):
            chosen = set(pick)
            if sum(g.costs[v] for v in chosen) <= budget and covered(g, forced, chosen) >= target:
                found.append(chosen)
    return found


def gated(inst, rule, calls):
    g = inst.graph

    def checked(wdeg, budget, target, left):
        found = rule(wdeg, budget, target, left)
        forced = [not k for k in left]
        feasible = completions(g, forced, budget, target)
        calls.append(found)
        take, branch = found
        if take is not None:
            chosen = set(take)
            assert not any(forced[v] for v in chosen)
            assert sum(g.costs[v] for v in chosen) <= budget
            assert covered(g, forced, chosen) >= target
            return found
        affordable = {v for v in branch if g.costs[v] <= budget}
        assert not feasible or any(s & affordable for s in feasible), \
            "branch %s misses every feasible completion" % (branch,)
        return found

    return checked


def section_completions(g, left, budget, target):
    """A section search node's feasible completions, as maps from vertex to
    the number of its ``left`` copies to take: at most ``budget`` copies (each
    costs 1) that cover ``target`` of the live profit, in the scaled units of
    the shares on ``g``'s edges. Taking k_u of u's l_u copies left and k_w of
    w's l_w covers l_u l_w - (l_u - k_u)(l_w - k_w) live copy pairs of uw."""
    live = [(u, w, p) for u, w, p in g.edges if p and left[u] and left[w]]
    useful = sorted({v for u, w, _ in live for v in (u, w)})
    # Every count vector within the budget, as (copies spent, counts).
    picks = [(0, ())]
    for v in useful:
        picks = [(spent + c, ks + (c,)) for spent, ks in picks
                 for c in range(min(left[v], budget - spent) + 1)]
    found = []
    for _, ks in picks:
        k = dict(zip(useful, ks))
        covered = sum(p * (left[u] * left[w] - (left[u] - k[u]) * (left[w] - k[w]))
                      for u, w, p in live)
        if covered >= target:
            found.append(({v: kv for v, kv in k.items() if kv}, covered))
    return found


def section_gated(inst, rule, copies, calls):
    g = inst.graph

    def checked(wdeg, budget, target, left):
        found = rule(wdeg, budget, target, left)
        feasible = [k for k, _ in section_completions(g, left, budget, target)]
        calls.append(found)
        take, branch = found
        if take is not None:
            assert take in feasible, "take %s is not feasible" % (take,)
            return found
        assert not feasible or any(set(k) & set(branch) for k in feasible), \
            "branch %s misses every feasible completion" % (branch,)
        return found

    return checked


@pytest.fixture
def rule_calls(monkeypatch):
    """Route every search through the gate; yields the rules' results. A
    section search's profit bound is gated too: at every node it is computed,
    it must reach the most live profit any completion within the budget
    covers."""
    calls = []
    search = branching._search
    section_bound = branching._section_bound

    def search_with_gate(inst, rule, depth_bound, copies=None):
        if copies is None:
            return search(inst, gated(inst, rule, calls), depth_bound)

        def bound_with_gate(wdeg, left, budget):
            bound = section_bound(wdeg, left, budget)
            best = max(covered for _, covered in
                       section_completions(inst.graph, left, budget, 0))
            assert bound >= best, "the bound cuts a node with a feasible completion"
            return bound

        monkeypatch.setattr(branching, "_section_bound", bound_with_gate)
        return search(inst, section_gated(inst, rule, copies, calls), depth_bound, copies)

    monkeypatch.setattr(branching, "_search", search_with_gate)
    return calls


def node_state():
    """The locals of the innermost running search, read from a function it
    calls: its graph, copies left, ``wdeg``, bans and the rest of its state."""
    frame = sys._getframe()
    while frame.f_code is not SEARCH:
        frame = frame.f_back
    return frame.f_locals


def check_bans(state, budget, target):
    """Check by brute force that at the search node ``state`` describes,
    taking a banned vertex (with sections, one more copy of it) leaves no
    feasible completion; returns the banned vertices."""
    g, left, wdeg = state["g"], state["left"], state["wdeg"]
    bans = {v for v, b in enumerate(state["banned"]) if b}
    for v in bans:
        assert left[v]
        if state["copies"] is None:
            after = [not k for k in left]
            after[v] = True
            feasible = g.costs[v] <= budget and completions(
                g, after, budget - g.costs[v], target - wdeg[v])
        else:
            after = left[:]
            after[v] -= 1
            feasible = section_completions(g, after, budget - 1, target - wdeg[v])
        assert not feasible, "a feasible completion takes banned vertex %d" % v
    return bans


@pytest.fixture
def ban_gate(monkeypatch):
    """Check the bans of every search: at each node where it computes its
    bound, and each time a frame takes its next child, no feasible
    completion takes a banned vertex (see :func:`check_bans`). At the bound,
    also check that it reads ``wdeg`` with the banned vertices zeroed and
    reaches the most live profit a completion avoiding them covers. Yields
    the number of bans at each node where the bound was computed."""
    nodes = []
    search = branching._search
    profit_bound, section_bound = branching._profit_bound, branching._section_bound

    def bound_gate(items, budget, bound):
        state = node_state()
        g, left = state["g"], state["left"]
        bans = check_bans(state, budget, state["target"])
        assert items == [0 if v in bans else w for v, w in enumerate(state["wdeg"])]
        if state["copies"] is None:
            forced = [not k for k in left]
            best = max(covered(g, forced, chosen)
                       for chosen in completions(g, forced, budget, 0) if not chosen & bans)
        else:
            best = max(cover for k, cover in section_completions(g, left, budget, 0)
                       if not bans & k.keys())
        assert bound >= best, "the bound cuts a node with a completion avoiding the bans"
        nodes.append(len(bans))
        return bound

    def picks_with_gate(branch):
        # The search pulls the next child with its frame's state restored.
        for v in branch:
            state = node_state()
            check_bans(state, state["budget"], max(0, state["live"] - state["slack"]))
            yield v
        state = node_state()
        check_bans(state, state["budget"], max(0, state["live"] - state["slack"]))

    def search_with_gate(inst, rule, depth_bound, copies=None):
        def rule_with_gate(wdeg, budget, target, left):
            take, branch = rule(wdeg, budget, target, left)
            return take, None if branch is None else picks_with_gate(branch)

        return search(inst, rule_with_gate, depth_bound, copies)

    monkeypatch.setattr(branching, "_search", search_with_gate)
    monkeypatch.setattr(branching, "_profit_bound",
                        lambda items, costs, scale, budget:
                        bound_gate(items, budget, profit_bound(items, costs, scale, budget)))
    monkeypatch.setattr(branching, "_section_bound",
                        lambda items, left, budget:
                        bound_gate(items, budget, section_bound(items, left, budget)))
    return nodes


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


def test_section_search(rule_calls):
    # Costs up to 3 give sections of up to 3 copies; costs of 0 and profits
    # of 0 exercise the free pass and the edge filter.
    rng = random.Random(106)
    sections = 0
    for _ in range(SECTION_CASES):
        n = rng.randint(1, 6)
        left = rng.randint(0, n)
        slots = [(i, j) for i in range(left) for j in range(left, n)]
        picked = rng.sample(slots, rng.randint(0, len(slots)))
        edges = [(u, v, rng.randint(0, 3)) for u, v in picked]
        g = make_graph(n, edges, [rng.randint(0, 3) for _ in range(n)])
        target = rng.choice([rng.randint(0, g.total_profit() + 1), g.total_profit()])
        inst = WpvcInstance(g, rng.randint(0, 5), target, infer_variant(g), True)
        rep = solve_wpvcbfd(inst)
        assert rep.verdict == oracle_fractional(inst).verdict
        assert rep.max_depth <= inst.budget
        sections += max(g.costs) > 1
    assert len(rule_calls) > 500 and sections > SECTION_CASES // 2
    assert any(take is not None for take, _ in rule_calls)


BAN_SOLVERS = {
    "epvcbd": (solve_epvcbd, oracle_wpvc),
    "bounded-degree": (lambda inst: solve_wpvc_bounded_degree(inst, 3), oracle_wpvc),
    "by-L": (solve_wpvc_by_L, oracle_wpvc),
    "fractional": (solve_wpvcbfd, oracle_fractional),
}


def boundary_tree(rng, solver):
    """A random tree at the optimum its solver's oracle finds at a random
    budget, or one past it. Trees make the profit bound loose, so the search
    backtracks and bans; on the graphs of :func:`random_case` it seldom does.
    Up to 12 vertices, or 9 for the section search, with costs up to 3."""
    sections = solver == "fractional"
    n = rng.randint(3, 9 if sections else 12)
    degree = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if solver != "bounded-degree" or degree[u] < 3])
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v, rng.randint(1, 6)))
    costs = [1] * n if solver == "epvcbd" else [rng.randint(sections, 3) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(1, 6)
    oracle = BAN_SOLVERS[solver][1]
    lo, hi = 0, g.total_profit() + 1  # a yes at lo, a no at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        yes = oracle(WpvcInstance(g, budget, mid, infer_variant(g), sections)).verdict
        lo, hi = (mid, hi) if yes else (lo, mid)
    return WpvcInstance(g, budget, rng.choice([lo, hi]), infer_variant(g), sections)


@pytest.mark.parametrize("solver", list(BAN_SOLVERS))
def test_no_feasible_completion_takes_a_banned_vertex(ban_gate, solver):
    rng = random.Random("ban-gate:" + solver)
    solve, oracle = BAN_SOLVERS[solver]
    for _ in range(BAN_CASES):
        inst = boundary_tree(rng, solver)
        assert solve(inst).verdict == oracle(inst).verdict
    # The gate saw many nodes below a failed sibling.
    assert sum(map(bool, ban_gate)) > 100


def random_node(rng, unit_costs):
    """A search node of a random instance with positive budget: random
    copies left (1, or 0 for a forced vertex), then the free pass, as at the
    search's root. Returns the graph, the forced mask, the live ``wdeg``, the
    instance's ratio scale and a node budget up to the instance budget."""
    inst = random_case(rng, unit_costs=unit_costs)
    while inst.budget == 0:
        inst = random_case(rng, unit_costs=unit_costs)
    g = inst.graph
    left = [int(rng.random() >= 0.3) for _ in range(g.n)]
    branching._force_free(g, left)
    forced = [not k for k in left]
    wdeg = [0] * g.n
    for u, w, p in g.edges:
        if not (forced[u] or forced[w]):
            wdeg[u] += p
            wdeg[w] += p
    scale = branching._ratio_scale(g.costs, inst.budget)
    return g, forced, wdeg, scale, rng.randint(1, inst.budget)


def lp_value(wdeg, costs, budget):
    """The knapsack LP optimum by brute force: some optimal point takes a set
    of items whole and at most one more in part, so try every set within the
    budget with every extra item, in ``Fraction`` ratios."""
    items = [(w, costs[v]) for v, w in enumerate(wdeg) if w and costs[v] <= budget]
    best = Fraction(0)
    for size in range(len(items) + 1):
        for pick in combinations(range(len(items)), size):
            room = budget - sum(items[i][1] for i in pick)
            if room < 0:
                continue
            whole = sum(items[i][0] for i in pick)
            best = max([best, Fraction(whole)]
                       + [whole + min(Fraction(1), Fraction(room, c)) * w
                          for i, (w, c) in enumerate(items) if i not in pick])
    return best


@pytest.mark.parametrize("unit_costs", [True, False], ids=["unit", "weighted"])
def test_profit_bound_admits_feasible_nodes_and_is_the_lp_value(unit_costs):
    rng = random.Random(104 + unit_costs)
    ban_rng = random.Random(107 + unit_costs)
    for _ in range(CASES):
        g, forced, wdeg, scale, budget = random_node(rng, unit_costs)
        assert scale is None or not unit_costs
        bound = branching._profit_bound(wdeg, g.costs, scale, budget)
        assert bound == int(lp_value(wdeg, g.costs, budget))
        feasible = completions(g, forced, budget, 0)
        assert bound >= max(covered(g, forced, chosen) for chosen in feasible), \
            "the bound cuts a node with a feasible completion"
        # The search's bound over wdeg with the banned vertices zeroed.
        bans = {v for v in range(g.n) if ban_rng.random() < 0.3}
        masked = [0 if v in bans else w for v, w in enumerate(wdeg)]
        bound = branching._profit_bound(masked, g.costs, scale, budget)
        assert bound == int(lp_value(masked, g.costs, budget))
        assert bound >= max(covered(g, forced, chosen) for chosen in feasible
                            if not chosen & bans), \
            "the masked bound cuts a node with a completion avoiding the bans"


def test_profit_bound_is_exact_past_float_range():
    # Profits near 10**400 overflow a float key, and the ratios big + 1 and
    # big differ far below a float's precision. Taking vertex 0 (ratio big)
    # before vertex 2 (ratio big + 1) at budget 2 would give 2*big + 1.
    big = 10 ** 400
    g = make_graph(4, [(0, 1, big), (2, 3, 2 * big + 2)], [1, 3, 2, 3])
    wdeg = [big, big, 2 * big + 2, 2 * big + 2]
    with pytest.raises(OverflowError):
        big / 1
    for budget in range(1, 7):
        scale = branching._ratio_scale(g.costs, budget)
        bound = branching._profit_bound(wdeg, g.costs, scale, budget)
        assert bound == int(lp_value(wdeg, g.costs, budget))
    assert branching._profit_bound(wdeg, g.costs, branching._ratio_scale(g.costs, 2), 2) \
        == 2 * big + 2
    for target, yes in ((2 * big + 2, True), (2 * big + 3, False)):
        inst = WpvcInstance(g, 2, target, Variant.WPVC)
        assert solve_wpvc_bounded_degree(inst, 1).verdict is yes
        assert solve_wpvc_by_L(inst).verdict is yes
        assert oracle_wpvc(inst).verdict is yes
