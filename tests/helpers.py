"""Shared test helpers: tiny graphs, brute-force oracles independent of the
library's algorithms, and instance relabeling."""

import random
from collections import deque
from itertools import combinations
from math import lcm

from pvckit import (LEFT, RIGHT, Bipartition, Matching, NotBipartite, WpvcInstance, coverage,
                    infer_variant, make_graph)
from pvckit.branching import _greedy
from pvckit.graph import _check_bipartition, _odd_cycle


def path3(budget=1, target=2):
    """Path a-b-c with unit weights as an instance."""
    g = make_graph(3, [(0, 1), (1, 2)])
    return WpvcInstance(g, budget, target, infer_variant(g), True)


def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def star(leaf_profits=(1, 1, 1)):
    """Star with center 0 and one leaf per profit."""
    edges = [(0, i + 1, p) for i, p in enumerate(leaf_profits)]
    return make_graph(len(leaf_profits) + 1, edges)


def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


def brute_force_matching_size(g):
    """Maximum matching size by memoized include/exclude over the edge list."""
    edges = [(u, v) for u, v, _ in g.edges]
    memo = {}

    def grow(i, used):
        if i == len(edges):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        u, v = edges[i]
        best = grow(i + 1, used)
        if not (used >> u) & 1 and not (used >> v) & 1:
            best = max(best, 1 + grow(i + 1, used | (1 << u) | (1 << v)))
        memo[key] = best
        return best

    return grow(0, 0)


def brute_force_cover_number(g):
    """Minimum vertex cover size by subset enumeration."""
    if g.m == 0:
        return 0
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v, _ in g.edges):
                return size
    raise AssertionError("unreachable")


def brute_force_verdict(inst, must_contain=()):
    """Feasibility by raw subset enumeration, optionally forcing some vertices."""
    g = inst.graph
    forced = set(must_contain)
    free = [v for v in range(g.n) if v not in forced]
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            chosen = forced | set(combo)
            if sum(g.costs[v] for v in chosen) > inst.budget:
                continue
            if coverage(g, chosen)[1] >= inst.target:
                return True
    return False


def _is_triple(edge):
    return isinstance(edge, tuple) and len(edge) == 3


def _is_sequence(x):
    return isinstance(x, (tuple, list, range, str))


def check_graph_reference(n, edges, costs, adjacency):
    """Quadratic reference for ``check_graph`` on the fields of a graph under
    construction: scans each adjacency list per edge."""
    if type(n) not in (int, bool) or n < 0:
        return ["vertex count must be a non-negative integer"]
    if not (_is_sequence(edges) and _is_sequence(costs) and _is_sequence(adjacency)):
        return ["edges, costs and adjacency must be sequences"]
    problems = []
    if len(costs) != n or len(adjacency) != n:
        problems.append("per-vertex arrays do not match vertex count")
        return problems
    m = len(edges)
    # An adjacency entry that is not an int names no edge, even if equal to
    # one, and an adjacency list that is no sequence names none at all.
    ints = [[e for e in adj if type(e) in (int, bool)] if _is_sequence(adj) else []
            for adj in adjacency]
    seen_pairs = set()
    for e, edge in enumerate(edges):
        if not _is_triple(edge):
            problems.append("edge %d is not a (u, v, profit) triple" % e)
            continue
        u, v, p = edge
        if type(u) not in (int, bool) or type(v) not in (int, bool):
            problems.append("edge %d has non-integer endpoint" % e)
            continue
        if not (0 <= u < n and 0 <= v < n):
            problems.append("edge %d has endpoint out of range" % e)
            continue
        if u == v:
            problems.append("edge %d is a self-loop" % e)
        if u > v:
            problems.append("edge %d is not normalized (u < v)" % e)
        if type(p) not in (int, bool) or p < 0:
            problems.append("edge %d has profit %r, not a non-negative integer" % (e, p))
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            problems.append("parallel edge %s" % (key,))
        seen_pairs.add(key)
        if e not in ints[u] or e not in ints[v]:
            problems.append("edge %d missing from an endpoint adjacency list" % e)
    for v, c in enumerate(costs):
        if type(c) not in (int, bool) or c < 0:
            problems.append("vertex %d has cost %r, not a non-negative integer" % (v, c))
    for v, adj in enumerate(adjacency):
        if not _is_sequence(adj):
            problems.append("adjacency of vertex %d is not a sequence" % v)
            continue
        for i, e in enumerate(adj):
            if type(e) not in (int, bool) or not (0 <= e < m):
                problems.append("adjacency of vertex %d lists foreign edge %r" % (v, e))
            elif not _is_triple(edges[e]):
                continue  # reported with the edges
            elif v not in edges[e][:2]:
                problems.append("adjacency of vertex %d lists foreign edge %r" % (v, e))
            elif e in [f for f in adj[:i] if type(f) in (int, bool)]:
                problems.append("adjacency of vertex %d lists edge %d twice" % (v, e))
    return problems


def max_matching_reference(g, bp):
    """Recursive Hopcroft-Karp, the form ``max_matching`` had before its path
    search moved to an explicit stack; paths of more than about 1000 edges
    raise RecursionError."""
    _check_bipartition(g, bp)
    left = [v for v in range(g.n) if bp.side[v] == LEFT]
    adj = {u: sorted(g.neighbors(u)) for u in left}
    pair = [-1] * g.n
    INF = g.n + 1
    dist = {}

    def bfs():
        queue = deque()
        for u in left:
            if pair[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for w in adj[u]:
                if pair[w] == -1:
                    found = min(found, dist[u] + 1)
                elif dist[pair[w]] == INF:
                    dist[pair[w]] = dist[u] + 1
                    queue.append(pair[w])
        return found != INF

    def dfs(u):
        for w in adj[u]:
            if pair[w] == -1 or (dist[pair[w]] == dist[u] + 1 and dfs(pair[w])):
                pair[u] = w
                pair[w] = u
                return True
        dist[u] = INF
        return False

    size = 0
    while bfs():
        for u in left:
            if pair[u] == -1 and dfs(u):
                size += 1

    index = {(u, v): e for e, (u, v, _) in enumerate(g.edges)}
    ids = set()
    for u in left:
        if pair[u] != -1:
            a, b = (u, pair[u]) if u < pair[u] else (pair[u], u)
            ids.add(index[(a, b)])
    return Matching(edge_ids=frozenset(ids), size=size)


def bipartition_reference(g):
    """``bipartition`` as it was before its BFS unpacked edges itself: one
    ``other_end`` call per edge."""
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = LEFT
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in g.adjacency[v]:
                w = g.other_end(e, v)
                if side[w] == -1:
                    side[w] = RIGHT if side[v] == LEFT else LEFT
                    parent[w] = v
                    queue.append(w)
                elif side[w] == side[v]:
                    return NotBipartite(odd_cycle=_odd_cycle(parent, v, w))
    return Bipartition(side=tuple(side))


def long_augmenting_path(k):
    """A path of 2k-1 edges whose maximum matching (size k) needs an augmenting
    path through all of it, so a recursive path search goes k calls deep.

    Left vertex i has id i and right vertex j has id R(j) = 2k - j, for i, j
    in 0..k-1, with edges (i, R(i)) and, for i < k-1, (i, R(i+1)); vertex k
    is isolated.
    Each left vertex prefers its lower-id neighbor R(i+1), so the greedy first
    phase leaves left vertex k-1 and right vertex R(0) unmatched at the two
    ends of the path.
    """
    edges = [(i, 2 * k - i) for i in range(k)] + [(i, 2 * k - i - 1) for i in range(k - 1)]
    return make_graph(2 * k + 1, edges)


def relabeled(inst, seed):
    """The same instance under a random vertex permutation; returns (inst, perm)."""
    rng = random.Random(seed)
    perm = list(range(inst.graph.n))
    rng.shuffle(perm)
    g = inst.graph
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), p)
                   for u, v, p in g.edges)
    costs = [0] * g.n
    for v in range(g.n):
        costs[perm[v]] = g.costs[v]
    g2 = make_graph(g.n, edges, costs)
    return WpvcInstance(g2, inst.budget, inst.target, inst.variant,
                        inst.bipartite_required), perm


def random_instance(seed, n_max=8, cost_max=3, profit_max=4, bipartite=False,
                    profit_min=0, cost_min=1):
    """Small random instance for property tests (not one of the fixed suites)."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    if bipartite and n >= 2:
        left = rng.randint(1, n - 1)
        slots = [(i, j) for i in range(left) for j in range(left, n)]
    else:
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, len(slots))
    edges = [(u, v, rng.randint(profit_min, profit_max))
             for u, v in sorted(rng.sample(slots, m))]
    costs = [rng.randint(cost_min, cost_max) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(0, 5)
    target = rng.randint(0, g.total_profit() + 1)
    return WpvcInstance(g, budget, target, infer_variant(g), bipartite)


def rebalance_sections_reference(g, counts):
    """Section rebalancing one unit at a time, re-checking the expanded
    profit after every unit; :func:`pvckit.rebalance_sections` moves each
    donor-to-receiver batch at once and must end at the same counts."""
    counts = list(counts)
    scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges)) if g.edges else 1

    def share(u, v, p):
        return scale * p // (g.costs[u] * g.costs[v])

    def expanded_profit():
        return sum(share(u, v, p) * (counts[u] * g.costs[v] + counts[v] * g.costs[u]
                                     - counts[u] * counts[v])
                   for u, v, p in g.edges)

    def per_copy_gain(v):
        gain = 0
        for e in g.adjacency[v]:
            u = g.other_end(e, v)
            gain += share(u, v, g.profit(e)) * (g.costs[u] - counts[u])
        return gain

    while True:
        partial = [v for v in g.vertices() if 0 < counts[v] < g.costs[v]]
        if len(partial) <= 1:
            return counts
        receiver = max(partial, key=lambda v: (per_copy_gain(v), -v))
        donor = min((v for v in partial if v != receiver),
                    key=lambda v: (per_copy_gain(v), v))
        moves = min(g.costs[receiver] - counts[receiver], counts[donor])
        for _ in range(moves):
            before = expanded_profit()
            counts[donor] -= 1
            counts[receiver] += 1
            assert expanded_profit() >= before


def random_bipartite_graph_reference(seed, n, m, cost_max=1, profit_max=1):
    """``random_bipartite_graph`` as it was when it sampled from the full list
    of slot pairs: the same draws in the same order, with memory that grows
    with n squared. Keep n small."""
    rng = random.Random(seed)
    left = rng.randint(1, n - 1) if n >= 2 else n
    if m > left * (n - left):
        left = n // 2
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    assert m <= len(slots)
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, rng.randint(1, profit_max)) for u, v in chosen]
    costs = [rng.randint(1, cost_max) for _ in range(n)]
    return make_graph(n, edges, costs)


def profit_bound_reference(wdeg, costs, scale, budget: int) -> int:
    """The most live profit an affordable set of unforced vertices could
    cover, rounded down: the LP relaxation of the knapsack whose items are the
    vertices with ``0 < wdeg[v]`` and ``costs[v] <= budget``, of value
    ``wdeg[v]`` and weight ``costs[v]``, at capacity ``budget`` (Dantzig
    1957). A set covers at most the sum of its members' ``wdeg``, so a node
    whose bound is below its target has no feasible completion. The search
    reads this bound off its :class:`pvckit.branching._OrderedView`, whatever
    its costs, without a sort.

    ``scale`` is None when every cost is 1; the bound is then the sum of the
    ``budget`` largest ``wdeg``. Otherwise ``scale[c] * c``
    is one common multiple of the affordable costs, so ``wdeg[v] *
    scale[costs[v]]`` orders the items by value per unit of cost exactly, in
    integers, and :func:`pvckit.branching._greedy` takes them in that order.
    """
    if scale is None:
        return sum(sorted(wdeg)[-budget:])
    items = sorted(((w * scale[c], w, c) for w, c in zip(wdeg, costs)
                    if w and c <= budget), reverse=True)
    return _greedy(items, budget)


def section_bound_reference(wdeg, left, budget: int) -> int:
    """:func:`profit_bound_reference` when every copy costs 1 and a vertex
    may have several: the sum of the ``budget`` largest weights among the
    copies left, ``left[v]`` copies of weight ``wdeg[v]`` for each vertex v.
    Vertices are walked in ``wdeg`` order, taking min(copies left, budget
    left) copies of each. The search walks its
    :class:`pvckit.branching._OrderedView` instead, without the sort."""
    bound = 0
    for v in sorted(range(len(wdeg)), key=wdeg.__getitem__, reverse=True):
        if not wdeg[v]:
            break
        k = min(left[v], budget)
        bound += k * wdeg[v]
        budget -= k
        if not budget:
            break
    return bound
