"""Seeded random instances for tests, the CLI and the bench harness.

All sampling goes through ``random.Random`` (Mersenne Twister, MT19937) with
the exact call sequence fixed by the code below, so a given seed reproduces the
same instance byte for byte anywhere. Samplers ending in ``_case`` are the
fixed recipes behind the acceptance and bench suites.
"""

from __future__ import annotations

import random

from .errors import InputError
from .graph import Graph, make_graph
from .instance import WpvcInstance, infer_variant
from .reduction import McqInstance, make_mcq


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _require_weight_caps(cost_max, profit_max) -> None:
    # Checked before the first draw, so valid caps draw what they always drew.
    if cost_max < 1 or profit_max < 1:
        raise InputError("cost and profit caps must be at least 1")


def random_bipartite_graph(seed, n, m, cost_max=1, profit_max=1) -> Graph:
    """Random bipartite graph; vertices 0..left-1 on one side, the rest opposite.

    Draws, in order: the left size, the m edge slots (sorted sample), one
    profit per edge, one cost per vertex. When the drawn split is too lopsided
    for m edges, the balanced split is used instead, so feasibility depends
    only on n and m. Slots are sampled as indices into the row-major list of
    ``(left vertex, right vertex)`` pairs, so that list is never built: the
    draws are the same, and memory grows with m, not with n squared.
    """
    rng = _rng(seed)
    _require_weight_caps(cost_max, profit_max)
    if n < 0 or m < 0:
        raise InputError("n and m must be non-negative")
    if n < 2 and m > 0:
        raise InputError("cannot place edges on fewer than two vertices")
    left = rng.randint(1, n - 1) if n >= 2 else n
    if m > left * (n - left):
        left = n // 2
    width = n - left
    if m > left * width:
        raise InputError("m=%d exceeds the %d bipartite slots of the balanced split"
                         % (m, left * width))
    chosen = sorted(rng.sample(range(left * width), m))
    edges = [(i, left + j, rng.randint(1, profit_max))
             for i, j in (divmod(x, width) for x in chosen)]
    costs = [rng.randint(1, cost_max) for _ in range(n)]
    return make_graph(n, edges, costs)


def random_bounded_degree_graph(seed, n, m, degree_bound, cost_max=1, profit_max=1,
                                exact=True) -> Graph:
    """Random graph with all degrees within the bound; not necessarily bipartite.

    Shuffles all vertex pairs and keeps the first m that respect the bound.
    When ``exact`` the bound failing to fit m edges is an error; otherwise the
    graph simply ends up with fewer edges.
    """
    rng = _rng(seed)
    _require_weight_caps(cost_max, profit_max)
    if degree_bound < 0:
        raise InputError("degree bound must be non-negative")
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(slots)
    degree = [0] * n
    chosen = []
    for u, v in slots:
        if len(chosen) == m:
            break
        if degree[u] < degree_bound and degree[v] < degree_bound:
            chosen.append((u, v))
            degree[u] += 1
            degree[v] += 1
    if exact and len(chosen) < m:
        raise InputError("degree bound %d cannot accommodate %d edges on %d vertices"
                         % (degree_bound, m, n))
    chosen.sort()
    edges = [(u, v, rng.randint(1, profit_max)) for u, v in chosen]
    costs = [rng.randint(1, cost_max) for _ in range(n)]
    return make_graph(n, edges, costs)


def random_mcq(seed, k, class_size, edge_prob=0.5, plant=True) -> McqInstance:
    """Random k-partite instance; optionally plants a guaranteed clique.

    Color classes are contiguous blocks of ``class_size`` vertices (an int or a
    per-class sequence). Draws, in order: one planted vertex per class (when
    planting), then one uniform draw per non-planted cross pair.
    """
    rng = _rng(seed)
    sizes = [class_size] * k if isinstance(class_size, int) else list(class_size)
    if len(sizes) != k or any(s < 1 for s in sizes):
        raise InputError("need one positive class size per color")
    if not 0 <= edge_prob <= 1:  # also rejects nan
        raise InputError("edge probability must lie in [0, 1], got %r" % (edge_prob,))
    starts = [sum(sizes[:i]) for i in range(k)]
    n = sum(sizes)
    colors = []
    for c, s in enumerate(sizes, start=1):
        colors.extend([c] * s)
    planted = [starts[c] + rng.randrange(sizes[c]) for c in range(k)] if plant else []
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if colors[u] == colors[v]:
                continue
            if plant and u in planted and v in planted:
                edges.append((u, v))
            elif rng.random() < edge_prob:
                edges.append((u, v))
    return make_mcq(n, k, colors, edges)


# ---------------------------------------------------------------------------
# Fixed recipes behind the acceptance criteria and the bench grids.

def unit_cost_bipartite_case(seed) -> WpvcInstance:
    """Unit-cost bipartite instance: n <= 12, profits 1..4, budget <= 5."""
    rng = random.Random(7_000_003 * 1 + seed)
    n = rng.randint(2, 12)
    left = rng.randint(1, n - 1)
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    m = rng.randint(0, len(slots))
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, rng.randint(1, 4)) for u, v in chosen]
    g = make_graph(n, edges, costs=(1,) * n)
    budget = rng.randint(0, 5)
    target = rng.randint(0, g.total_profit() + 1)
    return WpvcInstance(g, budget, target, infer_variant(g), True)


def bounded_degree_case(seed) -> WpvcInstance:
    """Degree-bounded weighted instance: n <= 12, max degree 3, costs 1..3, profits 1..4."""
    rng = random.Random(7_000_003 * 2 + seed)
    n = rng.randint(2, 12)
    m = rng.randint(0, (n * 3) // 2)
    g = random_bounded_degree_graph(rng, n, m, 3, cost_max=3, profit_max=4,
                                    exact=False)
    budget = rng.randint(0, 5)
    target = rng.randint(0, g.total_profit() + 1)
    return WpvcInstance(g, budget, target, infer_variant(g), False)


def general_graph_case(seed) -> WpvcInstance:
    """General weighted instance with target <= 8; profits may be zero."""
    rng = random.Random(7_000_003 * 3 + seed)
    n = rng.randint(2, 12)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(0, min(len(slots), 2 * n))
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, rng.randint(0, 4)) for u, v in chosen]
    costs = [rng.randint(1, 3) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(0, 5)
    target = rng.randint(0, 8)
    return WpvcInstance(g, budget, target, infer_variant(g), False)


def fractional_case(seed) -> WpvcInstance:
    """Weighted bipartite instance for the one-fractional-vertex solver."""
    rng = random.Random(7_000_003 * 4 + seed)
    n = rng.randint(2, 8)
    left = rng.randint(1, n - 1)
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    m = rng.randint(0, len(slots))
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, rng.randint(1, 4)) for u, v in chosen]
    costs = [rng.randint(1, 3) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(0, 4)
    target = rng.randint(0, g.total_profit() + 2)
    return WpvcInstance(g, budget, target, infer_variant(g), True)


def matching_constrained_case(seed):
    """Unit bipartite graph plus (k1, k2, k3) for the matching-constrained solver."""
    rng = random.Random(7_000_003 * 5 + seed)
    n = rng.randint(2, 12)
    left = rng.randint(1, n - 1)
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    m = rng.randint(0, min(len(slots), 2 * n))
    chosen = sorted(rng.sample(slots, m))
    g = make_graph(n, [(u, v, 1) for u, v in chosen], costs=(1,) * n)
    k1 = rng.randint(0, 4)
    k2 = rng.randint(0, min(m, 3 * k1) + 1)
    k3 = rng.randint(0, 5)
    return g, k1, k2, k3


def grid_unit_cost_case(seed, budget) -> WpvcInstance:
    """Bench row: unit-cost bipartite instance at a fixed budget."""
    rng = random.Random(9_000_011 * 1 + 31 * budget + seed)
    n = rng.randint(6, 12)
    left = rng.randint(1, n - 1)
    slots = [(i, j) for i in range(left) for j in range(left, n)]
    m = rng.randint(min(4, len(slots)), len(slots))
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, rng.randint(1, 4)) for u, v in chosen]
    g = make_graph(n, edges, costs=(1,) * n)
    target = rng.randint(1, max(1, g.total_profit()))
    return WpvcInstance(g, budget, target, infer_variant(g), True)


def grid_bounded_degree_case(seed, budget, degree_bound=3) -> WpvcInstance:
    """Bench row: degree-bounded weighted instance at a fixed budget."""
    rng = random.Random(9_000_011 * 2 + 31 * budget + seed)
    n = rng.randint(6, 12)
    m = rng.randint(n // 2, (n * degree_bound) // 2)
    g = random_bounded_degree_graph(rng, n, m, degree_bound, cost_max=3, profit_max=4,
                                    exact=False)
    target = rng.randint(1, max(1, g.total_profit()))
    return WpvcInstance(g, budget, target, infer_variant(g), False)


def grid_profit_target_case(seed, target) -> WpvcInstance:
    """Bench row: sparse unit-profit instance at a fixed profit target.

    Sparse and unit-profit so no single vertex reaches the target and the
    solver actually branches.
    """
    rng = random.Random(9_000_011 * 3 + 31 * target + seed)
    n = rng.randint(6, 12)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = rng.randint(n // 2, min(len(slots), n))
    chosen = sorted(rng.sample(slots, m))
    edges = [(u, v, 1) for u, v in chosen]
    costs = [rng.randint(1, 3) for _ in range(n)]
    g = make_graph(n, edges, costs)
    budget = rng.randint(1, 5)
    return WpvcInstance(g, budget, target, infer_variant(g), False)
