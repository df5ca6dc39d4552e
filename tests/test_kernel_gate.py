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
value. Besides the random graphs, each rule gate runs on boundary trees (see
below), where the search backtracks, so it also checks nodes below a failed
sibling.

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
search backtracks. It also checks that the bound reaches the most live
profit that a completion avoiding the bans covers; the bound's own gate
checks the same on random bans.

Every search reads its bound off an ordered view of the live weighted
degrees, in order of value per unit of cost, that it keeps up to date. At
every node where a gated search takes its bound, the gate checks that view
against one built afresh from the weights with the banned vertices zeroed,
the bound against the sort of ``profit_bound_reference`` or
``section_bound_reference`` (``tests/helpers.py``) over those weights, and
that the bound reaches the most live profit a completion within the budget
covers without a banned vertex (see :func:`checked_bound`). A test of the
view on its own moves, bans and lifts keys in random order, with unit and
other costs, another checks the view and the sort on trees of 100 to 160
vertices for all four searches, and another that each search builds its
view once, and only when its root takes a bound. The profit-target search
tries its one-vertex finish before the bound; the rule gate checks each
take the finish returns as it checks a rule's.

The instances have at most 9 vertices (6 for the section search, with costs
up to 3) and draw zero-cost vertices and zero-profit edges; the boundary
trees of the rule and ban gates have at most 12 (9 for the section search).
"""

import random
import sys
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from helpers import profit_bound_reference, section_bound_reference
from pvckit import (Variant, WpvcInstance, branching, infer_variant, make_graph,
                    oracle_fractional, oracle_wpvc, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd)

CASES = 1500
SECTION_CASES = 3000
BOUNDARY_CASES = 600
BAN_CASES = 600
VIEW_CASES = 300
VIEW_STEPS = 30
LARGE_VIEW_CASES = 100
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


def check_take(g, forced, take, budget, target):
    """``take`` is a feasible completion of the node."""
    chosen = set(take)
    assert not any(forced[v] for v in chosen)
    assert sum(g.costs[v] for v in chosen) <= budget
    assert covered(g, forced, chosen) >= target


def gated(inst, rule, calls):
    g = inst.graph

    def checked(wdeg, budget, target, left, view):
        found = rule(wdeg, budget, target, left, view)
        forced = [not k for k in left]
        feasible = completions(g, forced, budget, target)
        calls.append((*found, len(node_state()["bans"])))
        take, branch = found
        if take is not None:
            check_take(g, forced, take, budget, target)
            return found
        affordable = {v for v in branch if g.costs[v] <= budget}
        assert not feasible or any(s & affordable for s in feasible), \
            "branch %s misses every feasible completion" % (branch,)
        return found

    return checked


def finish_gated(inst, finish, calls):
    """The one-vertex finish of the profit-target search, which it tries
    before the bound: each take it returns is checked like a rule's and
    recorded in ``calls`` as the rule's was when the rule made it."""
    g = inst.graph

    def checked(wdeg, budget, target):
        found = finish(wdeg, budget, target)
        if found is not None:
            state = node_state()
            check_take(g, [not k for k in state["left"]], found[0], budget, target)
            calls.append((*found, len(state["bans"])))
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

    def checked(wdeg, budget, target, left, view):
        found = rule(wdeg, budget, target, left, view)
        feasible = [k for k, _ in section_completions(g, left, budget, target)]
        calls.append((*found, len(node_state()["bans"])))
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
    """Route every search through the gate; yields, per rule call or
    ``finish`` take, the ``take`` and ``branch`` and the number of bans at
    its node. The profit bound is gated too, at every node that takes it
    (see :func:`checked_bound`)."""
    calls = []
    search = branching._search

    def search_with_gate(inst, rule, depth_bound, copies=None, finish=None):
        if copies is not None:
            return search(inst, section_gated(inst, rule, copies, calls), depth_bound, copies)
        return search(inst, gated(inst, rule, calls), depth_bound,
                      finish=finish and finish_gated(inst, finish, calls))

    monkeypatch.setattr(branching, "_search", search_with_gate)
    monkeypatch.setattr(branching._OrderedView, "bound", checked_bound([]))
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


def checked_bound(nodes, brute_force=True):
    """A stand-in for :meth:`pvckit.branching._OrderedView.bound` that
    checks, at the search node it is called from, that the view equals one
    built afresh from ``wdeg`` with the banned vertices zeroed, and that the
    bound equals :func:`profit_bound_reference` or
    :func:`section_bound_reference` over those weights. With
    ``brute_force``, it also checks that the bound reaches the most live
    profit that a completion within the budget covers without a banned
    vertex (no feasible completion has one, see :func:`check_bans`). Appends
    the number of bans at each such node to ``nodes``."""
    view_bound = branching._OrderedView.bound

    def bound_with_gate(view, left, budget):
        state = node_state()
        assert view is state["view"] and view.bans is state["bans"]
        assert left is (None if state["copies"] is None else state["left"])
        masked = [0 if b else w for w, b in zip(state["wdeg"], state["banned"])]
        costs, most = state["costs"], state["inst"].budget
        scale = branching._ratio_scale(costs, most)
        assert view.keys == branching._OrderedView(masked, most, costs, scale).keys
        bound = view_bound(view, left, budget)
        assert bound == (profit_bound_reference(masked, costs, scale, budget) if left is None
                         else section_bound_reference(masked, left, budget))
        bans = {v for v, b in enumerate(state["banned"]) if b}
        if brute_force:
            g, left = state["g"], state["left"]
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

    return bound_with_gate


@pytest.fixture
def ban_gate(monkeypatch):
    """Check the bans of every search: at each node where it takes its
    bound, and each time a frame takes its next child, no feasible
    completion takes a banned vertex (see :func:`check_bans`). The bound is
    gated too (see :func:`checked_bound`). Yields, per node where the bound
    was taken, the number of bans."""
    nodes = []
    search = branching._search
    bound = checked_bound(nodes)

    def bound_with_bans(view, left, budget):
        state = node_state()
        check_bans(state, budget, state["target"])
        return bound(view, left, budget)

    def picks_with_gate(branch):
        # The search pulls the next child with its frame's state restored.
        for v in branch:
            state = node_state()
            check_bans(state, state["budget"], max(0, state["live"] - state["slack"]))
            yield v
        state = node_state()
        check_bans(state, state["budget"], max(0, state["live"] - state["slack"]))

    def search_with_gate(inst, rule, depth_bound, copies=None, finish=None):
        def rule_with_gate(wdeg, budget, target, left, view):
            take, branch = rule(wdeg, budget, target, left, view)
            return take, None if branch is None else picks_with_gate(branch)

        return search(inst, rule_with_gate, depth_bound, copies, finish)

    monkeypatch.setattr(branching, "_search", search_with_gate)
    monkeypatch.setattr(branching._OrderedView, "bound", bound_with_bans)
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


def boundary_cases(solver):
    """:data:`BOUNDARY_CASES` boundary trees for ``solver``, on which the
    search backtracks, so the rule gates also see nodes below a failed
    sibling."""
    rng = random.Random("rule-gate:" + solver)
    return [boundary_tree(rng, solver) for _ in range(BOUNDARY_CASES)]


def below_a_ban(rule_calls):
    """The rule calls made at nodes below a failed sibling."""
    return sum(1 for *_, bans in rule_calls if bans)


def test_unit_cost_pool(rule_calls):
    rng = random.Random(101)
    cases = [random_case(rng, unit_costs=True, bipartite=True) for _ in range(CASES)]
    for inst in cases + boundary_cases("epvcbd"):
        assert solve_epvcbd(inst).max_depth <= inst.budget
    assert len(rule_calls) > 300 and below_a_ban(rule_calls) > 40


def test_bounded_degree_kernel(rule_calls):
    rng = random.Random(102)
    cases = [ZERO_PROFIT_SPREAD] + [random_case(rng, degree_cap=3) for _ in range(CASES)]
    for inst in cases + boundary_cases("bounded-degree"):
        rep = solve_wpvc_bounded_degree(inst, max(inst.graph.max_degree(), 1))
        assert rep.max_depth <= inst.budget
    assert len(rule_calls) > 300 and below_a_ban(rule_calls) > 40


def test_profit_target_kernel(rule_calls):
    rng = random.Random(103)
    for inst in [random_case(rng) for _ in range(CASES)] + boundary_cases("by-L"):
        rep = solve_wpvc_by_L(inst)
        assert inst.target == 0 or rep.max_depth < 2 * inst.target
    assert len(rule_calls) > 300 and below_a_ban(rule_calls) > 40


def test_section_search(rule_calls):
    # Costs up to 3 give sections of up to 3 copies; costs of 0 and profits
    # of 0 exercise the free pass and the edge filter.
    rng = random.Random(106)
    sections = 0
    for inst in boundary_cases("fractional"):
        rep = solve_wpvcbfd(inst)
        assert rep.verdict == oracle_fractional(inst).verdict
        assert rep.max_depth <= inst.budget
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
    assert any(take is not None for take, *_ in rule_calls)
    assert below_a_ban(rule_calls) > 40


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
    assert sum(1 for bans in ban_gate if bans) > 100


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


def node_bound(g, forced, wdeg, scale, budget, bans=frozenset()):
    """The bound the search takes at a node with these bans: the walk down
    an ordered view built for the node, with the bans set on it. Check that
    it equals :func:`profit_bound_reference` over ``wdeg`` with the banned
    vertices zeroed."""
    masked = [0 if v in bans else w for v, w in enumerate(wdeg)]
    bound = profit_bound_reference(masked, g.costs, scale, budget)
    view = branching._OrderedView(wdeg, budget, g.costs, scale)
    for v in bans:
        view.move(v, wdeg[v], 0)
    assert view.bound(None, budget) == bound
    return bound


@pytest.mark.parametrize("unit_costs", [True, False], ids=["unit", "weighted"])
def test_profit_bound_admits_feasible_nodes_and_is_the_lp_value(unit_costs):
    rng = random.Random(104 + unit_costs)
    ban_rng = random.Random(107 + unit_costs)
    for _ in range(CASES):
        g, forced, wdeg, scale, budget = random_node(rng, unit_costs)
        assert scale is None or not unit_costs
        bound = node_bound(g, forced, wdeg, scale, budget)
        assert bound == int(lp_value(wdeg, g.costs, budget))
        feasible = completions(g, forced, budget, 0)
        assert bound >= max(covered(g, forced, chosen) for chosen in feasible), \
            "the bound cuts a node with a feasible completion"
        # The search's bound with the banned vertices left out.
        bans = {v for v in range(g.n) if ban_rng.random() < 0.3}
        masked = [0 if v in bans else w for v, w in enumerate(wdeg)]
        bound = node_bound(g, forced, wdeg, scale, budget, bans)
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
    forced = [False] * g.n
    for budget in range(1, 7):
        scale = branching._ratio_scale(g.costs, budget)
        bound = node_bound(g, forced, wdeg, scale, budget)
        assert bound == int(lp_value(wdeg, g.costs, budget))
    assert node_bound(g, forced, wdeg, branching._ratio_scale(g.costs, 2), 2) == 2 * big + 2
    for target, yes in ((2 * big + 2, True), (2 * big + 3, False)):
        inst = WpvcInstance(g, 2, target, Variant.WPVC)
        assert solve_wpvc_bounded_degree(inst, 1).verdict is yes
        assert solve_wpvc_by_L(inst).verdict is yes
        assert oracle_wpvc(inst).verdict is yes


@pytest.mark.parametrize("big", [1, 10 ** 400], ids=["small", "past-float"])
@pytest.mark.parametrize("kind", ["one-copy", "sections", "weighted"])
def test_ordered_view_follows_moves_bans_and_lifts(kind, big):
    """Random weight changes, bans and lifts, each lift of any ban still
    set, on weights 0 to 3 times ``big``, so many are equal, and with
    ``weighted`` costs 1 to 4, some above the budget. After each one the view
    holds one key per unbanned vertex of positive weight and affordable cost,
    in the order of the pairs (weight times its cost's scale, vertex), and
    each key decodes to its pair; its walk at every budget it was built for
    equals the sum of the largest copy weights of the unbanned vertices, or
    with ``weighted`` costs :func:`profit_bound_reference` over the weights
    with the banned ones zeroed. With unit costs, the vertices of
    weight at least w, for each w, are those of the scan of the epvcbd rule's
    pool."""
    sections, weighted = kind == "sections", kind == "weighted"
    rng = random.Random("ordered-view:%d:%d" % (sections, big > 1) + ":weighted" * weighted)
    for _ in range(VIEW_CASES):
        n = rng.randint(1, 9)
        wdeg = [big * rng.randint(0, 3) for _ in range(n)]
        budget = rng.randint(1, 6)
        costs = [rng.randint(1, 4) if weighted else 1 for _ in range(n)]
        scale = branching._ratio_scale(costs, budget)
        unit = [1] * n if scale is None else [scale.get(c, 0) for c in costs]
        banned, bans = [0] * n, []
        view = branching._OrderedView(wdeg, budget, costs, scale, bans)
        for _ in range(VIEW_STEPS):
            step, v = rng.randrange(3), rng.randrange(n)
            if step == 0:
                new = big * rng.randint(0, 3)
                if not banned[v]:
                    view.move(v, wdeg[v], new)
                wdeg[v] = new
            elif step == 1:
                banned[v] += 1
                if banned[v] == 1:
                    view.move(v, wdeg[v], 0)
                bans.append(v)
            elif bans:
                v = bans.pop(rng.randrange(len(bans)))
                banned[v] -= 1
                if not banned[v]:
                    view.move(v, 0, wdeg[v])
            pairs = sorted((w * unit[v], v) for v, w in enumerate(wdeg)
                           if w * unit[v] and not banned[v])
            assert [divmod(key, view.radix) for key in view.keys] == pairs
            assert view.keys == sorted(view.keys)
            if weighted:
                masked = [0 if b else w for w, b in zip(wdeg, banned)]
                for b in range(1, budget + 1):
                    assert view.bound(None, b) == profit_bound_reference(masked, costs, scale, b)
                continue
            # Copies left per vertex: a vertex of positive weight has one.
            left = [rng.randint(1, 3) if sections else 1 for _ in range(n)]
            weights = sorted((w for w, v in pairs for _ in range(left[v])), reverse=True)
            for b in range(1, budget + 1):
                assert view.bound(left if sections else None, b) == sum(weights[:b])
            for least in range(1, 4):
                assert view.heavy(wdeg, least * big) == \
                    [v for v, w in enumerate(wdeg) if w >= least * big]


def large_tree(rng, solver):
    """A tree of 100 to 160 vertices for ``solver``, and a budget. The
    bounded-degree and profit-target trees keep every degree within 3 and
    have costs 1 to 3, and the profit-target tree has unit profits."""
    n = rng.randint(100, 160)
    if solver in ("bounded-degree", "by-L"):
        edges = [(u, v, 1 if solver == "by-L" else rng.randint(1, 4))
                 for u, v in tree_with_degree_cap(rng, n, 3)]
    else:
        edges = [(rng.randrange(v), v, rng.randint(1, 4)) for v in range(1, n)]
    top = 2 if solver == "fractional" else 3
    costs = [1] * n if solver == "epvcbd" else [rng.randint(1, top) for _ in range(n)]
    return make_graph(n, edges, costs), rng.randint(2, 6)


def tree_with_degree_cap(rng, n, cap):
    """A random tree on n vertices whose degrees stay within ``cap``."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if degree[u] < cap])
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v))
    return edges


@pytest.mark.parametrize("solver", ["epvcbd", "fractional", "bounded-degree", "by-L"])
def test_ordered_view_matches_the_sort_on_large_trees(monkeypatch, solver):
    """On trees of 100 to 160 vertices, at every node where the search takes
    its bound, the view equals one built afresh from ``wdeg`` with the
    banned vertices zeroed, and the bound equals
    :func:`profit_bound_reference` or :func:`section_bound_reference` over
    those weights (see :func:`checked_bound`). The profit-target search runs
    at a target of 8 to 12 near the least budget that reaches it, and the
    others near the optimum of their budget, so the search branches and
    bans."""
    rng = random.Random("large-view:" + solver)
    checked = []
    monkeypatch.setattr(branching._OrderedView, "bound", checked_bound(checked, brute_force=False))
    solve = BAN_SOLVERS[solver][0]
    for _ in range(LARGE_VIEW_CASES):
        g, budget = large_tree(rng, solver)
        sections = solver == "fractional"
        if solver == "by-L":
            # A no at budget lo, a yes at hi: the whole graph covers the target.
            target, lo, hi = rng.randint(8, 12), 0, sum(g.costs)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                yes = solve(WpvcInstance(g, mid, target, infer_variant(g))).verdict
                lo, hi = (lo, mid) if yes else (mid, hi)
            continue
        # Near the optimum, so the search branches and bans.
        lo, hi = 0, g.total_profit() + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            yes = solve(WpvcInstance(g, budget, mid, infer_variant(g), sections)).verdict
            lo, hi = (mid, hi) if yes else (lo, mid)
    assert len(checked) > 1000 and sum(1 for bans in checked if bans) > 100


LAZY_SOLVERS = {
    "epvcbd": solve_epvcbd,
    "bounded-degree": lambda inst: solve_wpvc_bounded_degree(inst, 3),
    "by-L": solve_wpvc_by_L,
    "fractional": solve_wpvcbfd,
    "pvcbm": lambda inst: solve_pvcbm(inst.graph, inst.budget, inst.target, 1),
}


@pytest.mark.parametrize("solver", list(LAZY_SOLVERS))
def test_a_search_builds_its_view_once_when_its_root_takes_a_bound(monkeypatch, solver):
    """No ordered view is built by a search whose root settles before its
    bound: at target 0, at budget 0, or, in the profit-target search, by one
    vertex that covers the target alone. Every other search builds exactly
    one, on a 5-vertex path and on a 120-vertex tree with unit weights."""
    builds = []  # per search run, the views it built
    init, search = branching._OrderedView.__init__, branching._search

    def counted_init(self, *args):
        builds[-1] += 1
        init(self, *args)

    def counted_search(*args, **kwargs):
        builds.append(0)
        return search(*args, **kwargs)

    monkeypatch.setattr(branching._OrderedView, "__init__", counted_init)
    monkeypatch.setattr(branching, "_search", counted_search)
    solve = LAZY_SOLVERS[solver]
    path = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    tree = make_graph(120, tree_with_degree_cap(random.Random("lazy-view"), 120, 3))
    settled = [(path, 2, 0), (path, 0, 3), (tree, 3, 0), (tree, 0, 10)]
    if solver == "by-L":
        settled += [(path, 1, 2), (tree, 1, tree.max_degree())]
    for g, budget, target in settled:
        solve(WpvcInstance(g, budget, target, infer_variant(g), True))
    assert builds and not any(builds)
    builds.clear()
    # No vertex covers the target alone, so each root takes its bound.
    for g, budget, target in [(path, 2, 3), (tree, 4, 10)]:
        solve(WpvcInstance(g, budget, target, infer_variant(g), True))
    assert builds == [1, 1]
