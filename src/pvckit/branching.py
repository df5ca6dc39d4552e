"""Bounded-search-tree solvers for three decision variants.

The three solvers share one depth-first search and differ only in their rule:
how a node's kernel (the small set some feasible cover must intersect) is
computed from the residual weighted degrees. A search node is the input graph
plus the number of copies left of each vertex: one copy per vertex, so 1 or
0, for these solvers, and a section of several unit-cost copies per vertex
for the fractional solver. An edge is live while both endpoints have copies
left. Branching is on kernel members in ascending vertex id, and a rule that
settles a node returns a map from vertex to the number of copies it takes.
Before the rule runs, a fractional-knapsack bound on the live profit settles
every node whose budget cannot reach its target, so the rules only see nodes
that may still have a feasible completion. A child whose subtree finds no
witness is banned from its later siblings and their subtrees: no feasible
completion of the node takes it, so neither the branch lists nor the bound
need it there. Every search keeps the live weighted degrees of its unbanned
vertices in order of value per unit of cost as it steps. Each bound comes
off the top of that view, and so does the epvcbd rule's pool, so no node
sorts or scans every vertex for them. The search keeps its frames
on an explicit stack, so its depth is bounded by memory, not by Python's
recursion limit. Depth and fan-out bounds are hard assertions, not hopes.

A search with sections differs from one without in three places, the bound,
the epvcbd rule's pool (its size and its large-pool pick) and the result (see
:func:`_search`).

A search returns only what it took and its node statistics. A yes is built
and checked in one place, :func:`pvckit.instance._report`, which each public
solver calls once, as it returns.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from itertools import count, repeat
from operator import add, mul

from .errors import InputError
from .graph import LEFT, RIGHT, Graph
from .instance import SolveReport, WpvcInstance, _report, _require_bipartite, _require_valid
from .instance import residual  # noqa: F401  perfbench/tracing.py checks this binding


def _force_free(g: Graph, left) -> list[int]:
    """Force every zero-cost vertex that still covers positive live profit.

    Free coverage can never hurt, and clearing such vertices up front is what
    makes the zero-budget base case sound. One ascending pass finds them:
    forcing a vertex only lowers the others' live profit, so a vertex passed
    over never qualifies later, not even after more vertices are forced.
    ``left[v]`` is the number of copies of v left, 0 once v is forced; the
    pass sets it to 0 for the vertices it forces and returns them in the
    order taken.
    """
    if 0 not in g.costs:
        return []
    freed = []
    for v in g.vertices():
        if g.costs[v] == 0 and any(g.profit(e) and left[g.other_end(e, v)]
                                   for e in g.adjacency[v]):
            left[v] = 0
            freed.append(v)
    return freed


class _OrderedView:
    """The live weights of a search node in order of value per unit of cost.

    ``keys`` holds ``wdeg[v] * unit[v] * radix + v``, ascending, for every
    vertex v with no ban and a positive product, where ``unit[v]`` is
    ``scale[costs[v]]`` of :func:`_ratio_scale` for the costs from 1 to the
    budget the view was built for, and 0 for any other cost. ``unit`` is None
    when every cost is 1, a factor of 1 for each vertex. So keys order
    exactly as the pairs ``(wdeg[v] / costs[v], v)`` do, and a vertex of
    weight 0 or of a cost no node can afford, which adds nothing to a bound,
    has no key. ``radix`` is ``n * (budget + 1)``, so with unit costs the sum
    of at most ``budget`` keys, floor-divided by ``radix``, is the sum of
    their weights. :meth:`move` keeps the keys exact as a weight changes or a
    ban is set or lifted, by bisection, so no step sorts anything.

    ``bans`` is the search's stack of banned vertices, read by :meth:`heavy`.
    """

    __slots__ = ("radix", "keys", "unit", "costs", "bans")

    def __init__(self, wdeg, budget: int, costs=None, scale=None, bans=()):
        """The view of a node with no ban; ``scale`` is :func:`_ratio_scale`
        of ``costs`` and ``budget``, None when every cost is 1."""
        self.radix = radix = len(wdeg) * (budget + 1)
        self.costs, self.bans = costs, bans
        if scale is None:
            self.unit = None
            values = wdeg
        else:
            self.unit = unit = list(map(scale.get, costs, repeat(0)))
            values = map(mul, wdeg, unit)
        self.keys = keys = sorted(map(add, map(mul, values, repeat(radix)), count()))
        del keys[:bisect_left(keys, radix)]  # the keys of value 0

    def move(self, v: int, old: int, new: int) -> None:
        """Move the key of v from weight ``old`` to weight ``new``, where
        weight 0 stands for no key, as for a banned vertex."""
        keys, radix = self.keys, self.radix
        if self.unit is not None:
            old *= self.unit[v]
            new *= self.unit[v]
        if old:
            del keys[bisect_left(keys, old * radix + v)]
        if new:
            insort(keys, new * radix + v)

    def bound(self, left, budget: int) -> int:
        """The most live profit an affordable set of the vertices with a key
        could cover, rounded down, at a positive ``budget`` up to the one the
        view was built for: the LP relaxation of the knapsack whose items are
        those vertices, of value ``wdeg[v]`` and weight ``costs[v]``, at
        capacity ``budget`` (Dantzig 1957), or with ``left`` one item per
        copy left. A set covers at most the sum of its members' ``wdeg``, so
        a node whose bound is below its target has no feasible completion.
        ``profit_bound_reference`` and ``section_bound_reference`` in
        ``tests/helpers.py`` compute the same value by sorting every vertex.

        With costs other than 1, it hands the keys from the top to
        :func:`_greedy`, so it reads at most ``budget + 1`` affordable keys.
        Vertices of one value per unit of cost may come in any order: each
        order gives the same LP value, and the whole items sum to an integer,
        so the rounded bound is the same. With unit costs and
        ``left`` None, one copy per vertex, the bound is the sum of the top
        ``budget`` keys over ``radix``, with no loop in Python. With
        ``left``, the copies left per vertex, it walks the keys from the
        top, taking min(copies left, budget left) copies of each vertex, so
        it reads at most ``budget`` keys."""
        keys, radix, unit = self.keys, self.radix, self.unit
        if unit is not None:
            costs = self.costs
            return _greedy(((value, value // unit[v], costs[v])
                            for value, v in map(divmod, reversed(keys), repeat(radix))), budget)
        if left is None:
            return sum(keys[-budget:]) // radix
        bound = 0
        for key in reversed(keys):
            w, v = divmod(key, radix)
            k = min(left[v], budget)
            bound += k * w
            budget -= k
            if not budget:
                break
        return bound

    def heavy(self, wdeg, least: int) -> list[int]:
        """The vertices v with ``wdeg[v] >= least``, in ascending id, for a
        positive ``least`` on a view of unit costs: those whose key is at
        least ``least * radix``, and the banned ones, read in ``wdeg``."""
        keys, radix = self.keys, self.radix
        pool = {key % radix for key in keys[bisect_left(keys, least * radix):]}
        pool.update(v for v in self.bans if wdeg[v] >= least)
        return sorted(pool)


def _search(inst: WpvcInstance, rule, depth_bound: int, copies=None, finish=None):
    """Depth-first search over the copies left per vertex; returns
    ``(chosen, nodes, depth)``: what the first witness found takes (None on a
    no), the number of nodes that branched, and the largest depth reached. It
    builds no report and checks no witness: the public solver on top reads
    its vertices off ``chosen`` and hands them to
    :func:`pvckit.instance._report`, which does both on the solver's input.

    Vertex v has ``copies[v]`` interchangeable copies (its section), each of
    cost ``costs[v]``, and an edge of profit p joins every copy of one end to
    every copy of the other by a copy edge of profit p. Without ``copies``
    every vertex has one copy. The one per-vertex state is ``left``, the
    copies of each vertex left: forcing a vertex takes one of its copies, and
    the copies of one vertex that are left are twins, so a branch tries each
    vertex once. With ``copies``, every cost must be 1, and the search decides
    the unit-cost expansion of the sections without building it.

    The root first forces the zero-cost vertices that cover positive profit
    (see :func:`_force_free`). No node below it has another such vertex,
    since forcing only lowers live profit, and backtracking never un-forces
    the root's vertices, which sit below every frame's chain base.

    The weighted degrees ``wdeg`` of one copy of each vertex and the live
    profit (over copy edges with both ends left) are computed once, after the
    root's free vertices are forced, and then kept up to date. Taking a copy
    of v lowers the live profit by ``wdeg[v]`` and ``wdeg[x]`` by the edge
    profit for each neighbor x with copies left; ``wdeg[v]`` drops to 0 only
    when v's last copy is taken. Backtracking undoes the steps as it pops
    them off the chain, in reverse chain order. So a step costs O(deg v), and
    with one copy per vertex every node sees exactly what :func:`residual`
    would give. The target is the instance target less the profit already
    covered. A zero target is a yes; a zero budget or a target above the live
    profit is a no, and so is a node whose profit bound is below its target:
    no affordable set of the copies left can cover the target, so the bound
    never cuts a node that has a feasible completion, and the depth-first
    order reaches the same first witness with no more nodes. Only nodes the
    bound admits reach ``rule(wdeg, budget, target, left, view)``, which
    returns ``(take, None)`` when ``take``, a map from vertex to a number of
    its copies left, finishes the cover, or ``(None, branch)`` to try one
    copy of each vertex of ``branch`` in turn, skipping those the node cannot
    afford and those it bans (below). ``view`` is the search's ordered view
    (below).
    Rules read ``wdeg``, ``left`` and ``view`` and must not write to any of
    them: the search owns that state across nodes.

    With ``finish``, each node whose budget and live profit admit it first
    calls ``finish(wdeg, budget, target)``. A ``(take, None)`` it returns
    settles the node before the bound and the rule; None leaves the node to
    them. Such a take must be one the rule would make once the bound admits
    the node, as the profit-target solver's one vertex that covers the
    target alone is: it is affordable and never banned, so the bound reaches
    the target with it. The results are the same either way.

    The ordered view. ``view`` is an :class:`_OrderedView` of ``wdeg`` over
    the unbanned vertices, built from the root's state when the root first
    needs its bound, so a search that its root settles before the bound
    builds none. The root is the one node without a frame, and every step
    comes after it took its bound, so every step above moves the key of each
    neighbor whose weight it changes, in O(log n) each. Each node's bound is
    :meth:`_OrderedView.bound`, which walks down from the top of the view, so
    no node sorts its weights.

    Sibling exclusion. When the subtree of a node's child v finds no witness,
    no feasible completion of the node takes v (with ``copies``, one more
    copy of v), since the search below v is complete. So the node bans v
    before it tries its next child, and lifts its bans when its frame pops:
    ``bans`` is a stack of the banned vertices, kept like the chain, and
    ``banned[v]`` counts the entries of v in it. Below a ban, branch lists
    skip v, and the bound leaves v out: ``view`` holds no key of v while it
    is banned. A banned vertex is in no feasible completion, so the bound
    still admits every node that has one, the rules, which read the exact
    ``wdeg``, return the same kernels, and a ``take`` never holds a banned
    vertex. The depth-first order is unchanged and only subtrees without a
    feasible completion are cut, so the first witness found is the same, and
    only the node count and depth can fall.

    A search with ``copies`` differs from one without in three places only:
    the bound (a walk down the view that reads the copies left), the pool of
    the epvcbd rule (its size counts copies left rather than vertices, and
    its large-pool pick :func:`_copy_prefix` reads them), and ``chosen``,
    which is the count taken per vertex rather than the forced vertices in
    the order taken.
    """
    g = inst.graph
    edges, costs, adjacency = g.edges, g.costs, g.adjacency
    assert copies is None or costs.count(1) == g.n
    left = [1] * g.n if copies is None else list(copies)
    chain = _force_free(g, left)
    wdeg = [0] * g.n
    for u, w, p in edges:
        lu, lw = left[u], left[w]
        if lu and lw:
            wdeg[u] += p * lw
            wdeg[w] += p * lu
    # Each live copy pair is counted once from either end.
    live = sum(map(mul, wdeg, left)) // 2
    # Every copy pair is live unless the free pass took a vertex, and it only
    # finds one without copies, where the pairs are the edges.
    total = g.total_profit() if chain else live
    # No zero-cost vertex keeps positive live profit past the free pass, and
    # forcing only lowers wdeg, so every item of the profit bound costs >= 1.
    assert 0 not in costs or not any(w and not costs[v] for v, w in enumerate(wdeg))
    slack = total - inst.target  # live profit that may stay uncovered
    # One frame per branching node: (branch iterator, chain length, budget,
    # bans length).
    stack = []
    bans = []  # the children whose subtrees failed, each above its frame's base
    banned = [0] * g.n  # per vertex, its entries in bans
    budget = inst.budget
    nodes = deepest = 0
    while True:
        assert len(stack) <= depth_bound
        deepest = max(deepest, len(stack))
        target = max(0, live - slack)
        if target == 0:
            break
        found = None
        if 0 < budget and target <= live:
            if finish is not None:
                found = finish(wdeg, budget, target)
            if found is None:
                if not stack:  # the root, where the view is built
                    view = _OrderedView(wdeg, inst.budget, costs,
                                        _ratio_scale(costs, inst.budget), bans)
                if view.bound(None if copies is None else left, budget) >= target:
                    found = rule(wdeg, budget, target, left, view)
        if found is not None:
            take, branch = found
            if take is not None:
                # A take is a feasible completion, so it holds no banned vertex.
                assert not any(banned[v] for v in take)
                for v, k in take.items():
                    left[v] -= k
                chain += take
                break
            nodes += 1
            stack.append((iter(branch), len(chain), budget, len(bans)))
        while stack:
            branch, base, budget, ban_base = stack[-1]
            if len(chain) > base:
                # The subtree of the child chain[base] found no witness.
                v = chain[base]
                bans.append(v)
                banned[v] += 1
                if banned[v] == 1:
                    view.move(v, wdeg[v], 0)
            while len(chain) > base:
                v = chain.pop()
                left[v] += 1
                weight = 0  # of one copy of v
                for e in adjacency[v]:
                    u, w, p = edges[e]
                    x = w if u == v else u
                    if left[x]:
                        wdeg[x] += p
                        weight += p * left[x]
                        if p and not banned[x]:
                            view.move(x, wdeg[x] - p, wdeg[x])
                # v is the child just banned, so its key waits for the lift.
                wdeg[v] = weight
                live += weight
            v = next((v for v in branch if costs[v] <= budget and not banned[v]), None)
            if v is not None:
                assert left[v]
                weight = wdeg[v]  # the live pairs of one copy of v
                live -= weight
                for e in adjacency[v]:
                    u, w, p = edges[e]
                    x = w if u == v else u
                    if left[x]:
                        wdeg[x] -= p
                        if p and not banned[x]:
                            view.move(x, wdeg[x] + p, wdeg[x])
                left[v] -= 1
                if not left[v]:
                    wdeg[v] = 0
                    if weight:
                        view.move(v, weight, 0)
                chain.append(v)
                budget -= costs[v]
                break
            while len(bans) > ban_base:
                v = bans.pop()
                banned[v] -= 1
                if not banned[v]:
                    view.move(v, 0, wdeg[v])
            stack.pop()
        else:
            return None, nodes, deepest
    return chain if copies is None else [c - k for c, k in zip(copies, left)], nodes, deepest


def _ratio_scale(costs, budget: int) -> dict[int, int] | None:
    """None when every cost is 1. Otherwise a map from each cost c of 1 to
    ``budget`` that some vertex has to the factor lcm // c, where lcm is the
    lcm of those costs."""
    if costs.count(1) == len(costs):
        return None
    affordable = [c for c in set(costs) if 0 < c <= budget]
    lcm = math.lcm(*affordable)
    return {c: lcm // c for c in affordable}


def _greedy(items, budget: int) -> int:
    """Dantzig's greedy for the LP relaxation of a knapsack at capacity
    ``budget``, rounded down. ``items`` yields ``(ratio, value, cost)``
    triples, each cost at least 1, by value per unit of cost, highest first;
    ``ratio`` is ``value * scale[cost]``, the value part of the item's key
    in :class:`_OrderedView`, and is not read. Items that cost more than
    ``budget`` are skipped; the others are taken whole until the first that
    does not fit, which is taken in part. So it reads at most ``budget + 1``
    items that cost at most ``budget``."""
    bound, room = 0, budget
    for _, w, c in items:
        if c > budget:
            continue
        if c > room:
            return bound + room * w // c
        bound += w
        room -= c
    return bound


def _copy_prefix(lefts, rights, left, budget: int) -> dict[int, int]:
    """The ``budget`` lowest-id copies on the side with more copies left, as
    a map from vertex to a count: the sides ``lefts`` and ``rights`` list
    vertices in ascending id, and vertex v has ``left[v]`` copies left, so
    the copies come as a prefix of whole sections and a part of one more.
    ``left`` None means one copy per vertex: the map is then the first
    ``budget`` vertices of the longer side, ``lefts`` on a tie, each taken
    once."""
    if left is None:
        return dict.fromkeys((lefts if len(lefts) >= len(rights) else rights)[:budget], 1)
    count = left.__getitem__
    picks = lefts if sum(map(count, lefts)) >= sum(map(count, rights)) else rights
    take = {}
    for v in picks:
        take[v] = min(left[v], budget)
        budget -= take[v]
        if not budget:
            break
    return take


def _with_live_neighbors(g: Graph, kernel, left) -> list[int]:
    """The kernel plus every vertex joined to it by a live edge of positive
    profit. A neighbor across a zero-profit edge adds nothing to either
    rule's swap argument, and spreading to one could branch on a zero-cost
    vertex that covers nothing, a step that spends no budget."""
    spread = set(kernel)
    for u in kernel:
        for e in g.adjacency[u]:
            v = g.other_end(e, u)
            if g.profit(e) and left[v]:
                spread.add(v)
    return sorted(spread)


def solve_epvcbd(inst: WpvcInstance) -> SolveReport:
    """Decide a unit-cost instance on a bipartite graph, parameterized by budget.

    At each node, collect the pool of vertices whose residual weighted degree
    times the remaining budget reaches the remaining target (exact integer
    cross-multiplication, no division). A pool of at least twice the budget
    means one side of the bipartition holds budget-many independent high-yield
    vertices whose joint coverage settles the node. A smaller pool must be hit
    by any feasible cover, so we branch on it. Depth stays within the budget
    and fan-out below twice the residual budget. A node whose budget largest
    residual degrees sum below the target is a no before the pool is built,
    so the pool is never empty.
    """
    t0 = time.perf_counter()
    return _report(inst, t0, *_solve_epvcbd(inst, _require_bipartite(inst, unit_costs=True).side))


def _solve_epvcbd(inst: WpvcInstance, side, copies=None):
    """The search of :func:`solve_epvcbd` on a valid unit-cost instance whose
    bipartition sides ``side`` the caller already holds; returns what
    :func:`_search` returns. With ``copies``, the section sizes of
    :func:`_search`, it decides the unit-cost expansion of the sections, each
    copy on its vertex's side: the pool counts each vertex once per copy it
    has left, and branches on each vertex once."""

    def rule(wdeg, budget, target, left, view):
        pool = view.heavy(wdeg, -(-target // budget))
        # The budget largest copy weights reach the target, so the largest
        # reaches target/budget.
        assert pool
        # With sections, each pool vertex counts once per copy it has left.
        if (len(pool) if copies is None else sum(map(left.__getitem__, pool))) >= 2 * budget:
            lefts = [v for v in pool if side[v] == LEFT]
            rights = [v for v in pool if side[v] == RIGHT]
            take = _copy_prefix(lefts, rights, None if copies is None else left, budget)
            # Independent picks: their profits add up.
            assert sum(wdeg[v] * k for v, k in take.items()) >= target
            return take, None
        assert len(pool) < 2 * budget
        return None, pool

    return _search(inst, rule, inst.budget, copies)


def solve_wpvc_bounded_degree(inst: WpvcInstance, degree_bound: int) -> SolveReport:
    """Decide a weighted instance on a degree-bounded graph, parameterized by budget.

    The kernel keeps, for each cost value up to the residual budget, the vertex
    of that cost with the largest residual coverage, plus every vertex joined
    to those picks by a live positive-profit edge. A feasible cover avoiding
    the kernel could swap any member for its cost class's top pick without
    losing coverage or raising cost, so the kernel intersects some feasible
    cover. Kernel size stays within (degree_bound + 1) times the residual
    budget. A node whose fractional-knapsack bound on the residual coverage
    (value per unit of cost, greedily, within the budget) is below the target
    is a no before the kernel is built, so the kernel is never empty.
    """
    t0 = time.perf_counter()
    _require_valid(inst)
    if not isinstance(degree_bound, int) or degree_bound < 0:
        raise InputError("degree bound must be a non-negative integer")
    g = inst.graph
    top = g.max_degree()
    if top > degree_bound:
        raise InputError("graph has a vertex of degree %d, above the bound %d"
                         % (top, degree_bound))

    def rule(wdeg, budget, target, left, view):
        best_per_cost: dict[int, int] = {}
        for v, w in enumerate(wdeg):
            c = g.costs[v]
            if 1 <= c <= budget and w > 0:
                # Vertices come in ascending id, so a tie keeps the lower one.
                held = best_per_cost.get(c)
                if held is None or w > wdeg[held]:
                    best_per_cost[c] = v
        assert best_per_cost  # the bound saw an affordable vertex of positive wdeg
        branch = _with_live_neighbors(g, best_per_cost.values(), left)
        assert len(branch) <= (degree_bound + 1) * budget
        return None, branch

    return _report(inst, t0, *_search(inst, rule, inst.budget))


def solve_wpvc_by_L(inst: WpvcInstance) -> SolveReport:
    """Decide a weighted instance on any graph, parameterized by the profit target.

    An affordable vertex whose residual coverage reaches the whole remaining
    target ends the node on its own (the lowest such id), before the
    profit bound. Otherwise the kernel keeps, per residual coverage value from
    1 to target-1, the cheapest vertex attaining it, plus every vertex
    reachable from those picks over a positive-profit edge. Swapping any
    cover member for its coverage class's cheapest pick preserves
    feasibility, so the kernel intersects some feasible cover. Fan-out stays
    below the residual target squared and depth within max(2 * target - 1, 0)
    for the root target: below twice it, and 0 when it is 0.
    A node whose fractional-knapsack bound on the residual coverage is below
    the target is a no before the rule runs, so the kernel is never empty.
    """
    t0 = time.perf_counter()
    _require_valid(inst)
    g = inst.graph
    costs = g.costs

    def finish(wdeg, budget, target):
        if max(wdeg) >= target:
            for v, w in enumerate(wdeg):
                if w >= target and costs[v] <= budget:
                    return {v: 1}, None
        return None

    def rule(wdeg, budget, target, left, view):
        cheapest_per_value: dict[int, int] = {}
        for v, w in enumerate(wdeg):
            if 1 <= w < target:
                # Vertices come in ascending id, so a tie keeps the lower one.
                held = cheapest_per_value.get(w)
                if held is None or costs[v] < costs[held]:
                    cheapest_per_value[w] = v
        # The bound saw an affordable vertex of positive wdeg, and finish
        # saw none that covers the target alone.
        assert cheapest_per_value
        branch = _with_live_neighbors(g, cheapest_per_value.values(), left)
        assert len(branch) < target * target
        return None, branch

    return _report(inst, t0, *_search(inst, rule, max(2 * inst.target - 1, 0), finish=finish))
