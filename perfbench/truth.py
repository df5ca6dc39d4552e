"""Ground truth for the benchmark's instances, computed without pvckit's solvers.

The search-hard instances are trees (or paths), where maximum partial cover is a
small dynamic program over the tree: each vertex picks one option (how much of
it is taken, at what cost) and each edge scores a value that depends only on
the options of its two endpoints. The same program decides the integral
question (take a vertex or not) and the one-fractional-vertex question (take
k of the c(v) unit copies of v, as in the expanded instance). The clique check
is plain enumeration.
"""

from __future__ import annotations

import itertools
from math import lcm

UNREACHABLE = -1


def _rooted(n, edges):
    """BFS order from vertex 0, each vertex's parent, and its child edges."""
    adj = [[] for _ in range(n)]
    for e, (u, v, _) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    parent = [-1] * n
    seen = [False] * n
    order = []
    children = [[] for _ in range(n)]
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            x = order[i]
            i += 1
            for y, e in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    children[x].append((y, e))
                    order.append(y)
    return order, parent, children


def forest_best(n, edges, options, edge_value, budget) -> list[int]:
    """Best total edge value per spend limit 0..budget on a forest.

    ``options[v]`` lists (choice, cost) pairs for vertex v; ``edge_value(e,
    cu, cv)`` scores edge e = edges[e] = (u, v, p) when u picks cu and v picks
    cv. Returns ``best[b]`` = the maximum over all choices costing at most b.
    """
    if len(edges) >= n and n > 0:
        raise ValueError("not a forest: %d edges on %d vertices" % (len(edges), n))
    order, parent, children = _rooted(n, edges)
    table = [None] * n
    for v in reversed(order):
        mine = {}
        for choice, cost in options[v]:
            if cost <= budget:
                row = [UNREACHABLE] * (budget + 1)
                row[cost] = 0
                mine[choice] = row
        for c, e in children[v]:
            u_is_first = edges[e][0] == v
            merged = {}
            for cv, row_v in mine.items():
                out = [UNREACHABLE] * (budget + 1)
                for cc, row_c in table[c].items():
                    w = edge_value(e, cv, cc) if u_is_first else edge_value(e, cc, cv)
                    for b1, x in enumerate(row_v):
                        if x == UNREACHABLE:
                            continue
                        for b2 in range(budget + 1 - b1):
                            y = row_c[b2]
                            if y != UNREACHABLE and x + y + w > out[b1 + b2]:
                                out[b1 + b2] = x + y + w
                merged[cv] = out
            mine = merged
            table[c] = None
        table[v] = mine
    # Roots of different components share the budget: combine them knapsack-style.
    total = [0] + [UNREACHABLE] * budget
    for v in order:
        if parent[v] != -1:
            continue
        best_v = [max(row[b] for row in table[v].values()) for b in range(budget + 1)]
        out = [UNREACHABLE] * (budget + 1)
        for b1, x in enumerate(total):
            if x == UNREACHABLE:
                continue
            for b2 in range(budget + 1 - b1):
                y = best_v[b2]
                if y != UNREACHABLE and x + y > out[b1 + b2]:
                    out[b1 + b2] = x + y
        total = out
    best = []
    running = UNREACHABLE
    for x in total:
        running = max(running, x)
        best.append(running)
    return best


def integral_best(n, edges, costs, budget) -> list[int]:
    """Largest covered profit with vertex cost at most b, for b = 0..budget."""
    options = [[(0, 0), (1, costs[v])] for v in range(n)]
    return forest_best(n, edges, options,
                       lambda e, cu, cv: edges[e][2] if cu or cv else 0, budget)


def expansion_scale(edges, costs) -> int:
    return lcm(*(costs[u] * costs[v] for u, v, _ in edges)) if edges else 1


def fractional_best(n, edges, costs, budget) -> int:
    """Largest scaled profit of the unit-copy expansion within the budget.

    Taking k_u of u's c(u) copies and k_v of v's covers k_u c(v) + k_v c(u) -
    k_u k_v of the c(u) c(v) copy pairs of edge uv, each worth scale * p /
    (c(u) c(v)). A one-fractional-vertex instance is a yes exactly when this
    reaches scale * target.
    """
    scale = expansion_scale(edges, costs)
    options = [[(k, k) for k in range(costs[v] + 1)] for v in range(n)]

    def value(e, ku, kv):
        u, v, p = edges[e]
        share = scale * p // (costs[u] * costs[v])
        return share * (ku * costs[v] + kv * costs[u] - ku * kv)

    return forest_best(n, edges, options, value, budget)[budget]


def forest_matching_size(n, edges) -> int:
    """Maximum matching of a forest: match each vertex to its parent, leaves first."""
    order, parent, _ = _rooted(n, [(u, v, 1) for u, v, *_ in edges])
    matched = [False] * n
    size = 0
    for v in reversed(order):
        p = parent[v]
        if p != -1 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            size += 1
    return size


def pvcbm_verdict(n, edges, k1, k2, k3) -> bool:
    """Matching-constrained cover on a unit-weight forest.

    Necessary: each chosen vertex meets at most one edge of a matching, so
    k3 <= k1 and k3 <= the matching number; and k1 vertices must cover k2
    edges. The solver's construction shows these together are sufficient.
    """
    unit = [(u, v, 1) for u, v, *_ in edges]
    cover = integral_best(n, unit, [1] * n, k1)[k1]
    return k3 <= k1 and cover >= k2 and forest_matching_size(n, edges) >= k3


def clique_exists(n, colors, k, edges) -> bool:
    """Is there one vertex per color class, pairwise adjacent?"""
    classes = [[v for v in range(n) if colors[v] == c] for c in range(1, k + 1)]
    adjacent = set()
    for u, v, *_ in edges:
        adjacent.add((u, v))
        adjacent.add((v, u))
    return any(all((a, b) in adjacent for a, b in itertools.combinations(pick, 2))
               for pick in itertools.product(*classes))
