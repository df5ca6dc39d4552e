"""Multicolored-clique gadget construction and its empirical verification.

A multicolored-clique question on a k-partitioned graph is turned into a
weighted bipartite cover instance whose budget and target are met exactly when
one vertex per color class can be picked independently in the gadget, which
happens exactly when the picks trace a clique in the source graph. A second
transformation trades the heavy hub-edge profits for unit-profit pendant legs.
Verification is empirical: brute-force both sides on small instances.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat

from .errors import InputError, OracleScaleError
from .graph import Graph, _trusted_graph, coverage, make_graph
from .instance import WpvcInstance, infer_variant
from .oracle import McqVerdict, oracle_mcq, oracle_wpvc

log = logging.getLogger(__name__)

_VERIFY_K_CAP = 3
_VERIFY_N_CAP = 6


@dataclass(frozen=True)
class McqInstance:
    """A graph with a k-part vertex coloring; every class is an independent set.

    The constructor raises InputError unless ``graph`` is a :class:`Graph`,
    ``k`` an int of at least 1 and ``colors`` a tuple or list of one color in
    1..k per vertex, stored as a tuple, with no edge inside a class.
    """

    graph: Graph
    k: int
    colors: tuple[int, ...]
    dropped_intra_class_edges: int = 0

    def __post_init__(self):
        g, k, colors = self.graph, self.k, self.colors
        if not isinstance(g, Graph):
            raise InputError("graph must be a Graph")
        if not isinstance(k, int) or k < 1:
            raise InputError("k must be a positive integer")
        if not isinstance(colors, (tuple, list)) or len(colors) != g.n:
            raise InputError("expected one color per vertex, %d in all" % g.n)
        for v, c in enumerate(colors):
            if not isinstance(c, int) or not 1 <= c <= k:
                raise InputError("color of vertex %d must lie in 1..%d" % (v, k))
        for u, v, _ in g.edges:
            if colors[u] == colors[v]:
                raise InputError("edge (%d, %d) lies inside color class %d" % (u, v, colors[u]))
        object.__setattr__(self, "colors", tuple(colors))


def make_mcq(n, k, colors, edges) -> McqInstance:
    """Build a multicolored-clique instance, normalizing away intra-class edges.

    Edges inside one color class can never sit in a valid clique, so they are
    dropped (with a warning), not rejected. An edge that is not a pair (u, v)
    of vertex ids raises InputError before any color is read; ``k`` and the
    colors are checked by :class:`McqInstance`.
    """
    colors = tuple(colors)
    if len(colors) != n:
        raise InputError("expected %d colors, got %d" % (n, len(colors)))
    edges = list(edges)
    for item in edges:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise InputError("edge must be a pair (u, v): %r" % (item,)) from None
        if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
            raise InputError("edge endpoint out of range: %r" % (item,))
    return _normalized_mcq(n, k, colors, edges, make_graph)


def _normalized_mcq(n, k, colors, edges, build) -> McqInstance:
    """The instance of ``k`` and ``colors`` (a tuple of one color per
    vertex): intra-class edges dropped with a warning, the rest handed to
    ``build`` (a graph builder such as ``make_graph``) with unit costs and
    profits."""
    kept = []
    dropped = 0
    for item in edges:
        u, v = item[0], item[1]
        if colors[u] == colors[v]:
            dropped += 1
        else:
            kept.append((u, v, 1))
    if dropped:
        log.warning("dropped %d intra-class edge(s) during normalization", dropped)
    g = build(n, kept, (1,) * n)
    return McqInstance(graph=g, k=k, colors=colors, dropped_intra_class_edges=dropped)


@dataclass(frozen=True)
class ReductionOutput:
    """The produced cover instance plus provenance back to the source graph.

    ``roles[x]`` names gadget vertex x: ``v<i>``/``u<i>`` for the two copies of
    source vertex i, ``z1``/``z2`` for the hubs, ``pendant(<role>)`` for legs.
    """

    instance: WpvcInstance
    roles: tuple[str, ...]
    v_copies: tuple[int, ...]
    u_copies: tuple[int, ...]
    k: int
    source_n: int


def class_weight(color: int) -> int:
    return 2 ** color


def class_yield(color: int, n: int) -> int:
    """Required total incident profit for a gadget vertex of the given class."""
    return (2 ** color) * (n + 1) + 5 ** color


def gadget_budget(k: int) -> int:
    return sum(2 ** i for i in range(1, 2 * k + 1))


def gadget_target(k: int, n: int) -> int:
    return sum(class_yield(i, n) for i in range(1, 2 * k + 1))


def reduce_mcq_to_wpvcbd(mcq: McqInstance) -> ReductionOutput:
    """Build the weighted bipartite gadget for a multicolored-clique question.

    Layout: gadget ids 0..n-1 are the v-copies, n..2n-1 the u-copies, then the
    two hubs z1 (on the u side) and z2 (on the v side). The v-copy of source
    vertex i sits in class colors[i], its u-copy in class colors[i]+k, and a
    class-c vertex costs 2**c. Copies are joined by a unit edge when they share
    a class (distinct sources) or belong to different classes of nonadjacent
    sources; a hub edge then tops every copy's incident profit up to its class
    yield. Budget and target are the per-class sums of weights and yields.
    """
    g = mcq.graph
    n = g.n
    k = mcq.k
    v_ids = tuple(range(n))
    u_ids = tuple(range(n, 2 * n))
    z1 = 2 * n
    z2 = 2 * n + 1
    hub_cost = 2 ** (2 * k + 1)
    adjacent = set()
    for a, b, _ in g.edges:
        adjacent.add((a, b))
        adjacent.add((b, a))
    edges = []
    for i in range(n):
        for j in range(n):
            same_class = mcq.colors[i] == mcq.colors[j]
            if (same_class and i != j) or (not same_class and (i, j) not in adjacent):
                edges.append((u_ids[i], v_ids[j], 1))
    degree = [0] * (2 * n)
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    for j in range(n):
        top_up = class_yield(mcq.colors[j], n) - degree[v_ids[j]]
        if top_up <= 0:
            raise RuntimeError("internal: hub edge profit must stay positive")
        edges.append((z1, v_ids[j], top_up))
    for i in range(n):
        top_up = class_yield(mcq.colors[i] + k, n) - degree[u_ids[i]]
        if top_up <= 0:
            raise RuntimeError("internal: hub edge profit must stay positive")
        edges.append((u_ids[i], z2, top_up))
    costs = ([class_weight(mcq.colors[j]) for j in range(n)]
             + [class_weight(mcq.colors[i] + k) for i in range(n)]
             + [hub_cost, hub_cost])
    graph = make_graph(2 * n + 2, edges, costs)
    instance = WpvcInstance(
        graph=graph,
        budget=gadget_budget(k),
        target=gadget_target(k, n),
        variant=infer_variant(graph),
        bipartite_required=True,
    )
    roles = tuple(["v%d" % j for j in range(n)]
                  + ["u%d" % i for i in range(n)]
                  + ["z1", "z2"])
    return ReductionOutput(instance=instance, roles=roles, v_copies=v_ids,
                           u_copies=u_ids, k=k, source_n=n)


def pendantize(out: ReductionOutput) -> ReductionOutput:
    """Trade each hub edge of profit w for w unit-profit pendant legs.

    Pendants inherit the hub cost (far beyond the budget, so they can never be
    selected), the hubs disappear, and the instance becomes unit-profit while
    keeping the same budget, target and verdict.
    """
    inst = out.instance
    g = inst.graph
    z1 = 2 * out.source_n
    hubs = {z1, z1 + 1}
    # The new graph is built unchecked, so reject any shape the construction
    # cannot produce: the hubs last and not adjacent, and a positive k.
    if (len(out.roles) != g.n or out.roles[-2:] != ("z1", "z2") or g.n != z1 + 2
            or z1 + 1 in g.neighbors(z1) or not (isinstance(out.k, int) and out.k >= 1)):
        raise InputError("output was not produced by the gadget construction")
    pend_cost = 2 ** (2 * out.k + 1)
    edges = []
    costs = list(g.costs[: 2 * out.source_n])
    roles = list(out.roles[: 2 * out.source_n])
    # Built as the edges are emitted, so each list holds its edge ids in order.
    adjacency = [[] for _ in costs]
    for u, v, p in g.edges:
        e0 = len(edges)
        if u in hubs or v in hubs:
            # p legs for x, with the next p ids; a leg's list is its one edge.
            x = v if u in hubs else u
            edges += zip(repeat(x), range(len(costs), len(costs) + p), repeat(1))
            adjacency[x] += range(e0, e0 + p)
            adjacency += zip(range(e0, e0 + p))
            costs += repeat(pend_cost, p)
            roles += repeat("pendant(%s)" % out.roles[x], p)
        else:
            assert p == 1  # copy edges are already unit profit
            edges.append((u, v, p))
            adjacency[u].append(e0)
            adjacency[v].append(e0)
    # Pendant ids lie above every copy, so each pendant edge (x, pendant) is
    # normalized and new; the copy edges come from g, which is sound.
    graph = _trusted_graph(len(costs), edges, costs, adjacency)
    instance = WpvcInstance(
        graph=graph,
        budget=inst.budget,
        target=inst.target,
        variant=infer_variant(graph),
        bipartite_required=True,
    )
    return ReductionOutput(instance=instance, roles=tuple(roles),
                           v_copies=out.v_copies, u_copies=out.u_copies,
                           k=out.k, source_n=out.source_n)


@dataclass(frozen=True)
class ReductionCheck:
    """Outcome of the empirical equivalence check on one small instance."""

    source: McqVerdict
    reduced_yes: bool
    equivalent: bool
    clique_cost_exact: bool | None
    clique_profit_exact: bool | None
    output: ReductionOutput

    @property
    def ok(self) -> bool:
        if not self.equivalent:
            return False
        if self.source.yes:
            return bool(self.clique_cost_exact and self.clique_profit_exact)
        return True


def verify_reduction(mcq: McqInstance) -> ReductionCheck:
    """Brute-force both sides of the reduction and compare verdicts.

    On a yes-instance the clique's copies are additionally checked to spend the
    budget and hit the target exactly.
    """
    if mcq.k > _VERIFY_K_CAP or mcq.graph.n > _VERIFY_N_CAP:
        raise OracleScaleError("equivalence check capped at k <= %d, n <= %d"
                               % (_VERIFY_K_CAP, _VERIFY_N_CAP))
    out = reduce_mcq_to_wpvcbd(mcq)
    source = oracle_mcq(mcq)
    reduced = oracle_wpvc(out.instance)
    cost_ok = profit_ok = None
    if source.yes:
        picks = set()
        for i in source.clique:
            picks.add(out.v_copies[i])
            picks.add(out.u_copies[i])
        cost = sum(out.instance.graph.costs[x] for x in picks)
        _, profit = coverage(out.instance.graph, picks)
        cost_ok = cost == out.instance.budget
        profit_ok = profit == out.instance.target
    return ReductionCheck(
        source=source,
        reduced_yes=reduced.verdict,
        equivalent=source.yes == reduced.verdict,
        clique_cost_exact=cost_ok,
        clique_profit_exact=profit_ok,
        output=out,
    )
