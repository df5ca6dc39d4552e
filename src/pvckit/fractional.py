"""Solver for the bipartite variant that may take a single vertex fractionally.

Every vertex is expanded into cost-many unit-cost copies (its section) and the
edge profits are split across copy pairs, scaled to integers by a common
denominator. The unit-cost solver decides the expanded instance; a partial
section then means a fractionally-taken vertex, and a rebalancing pass moves
section mass around until at most one partial section remains, never losing
profit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .branching import _force_free, _require_bipartite, _solve_epvcbd
from .errors import InputError, NotBipartiteError
from .graph import Graph, NotBipartite, _derived_graph, bipartition
from .instance import SolveReport, WpvcInstance, infer_variant, make_solution


@dataclass(frozen=True)
class SectionMap:
    """Copies created per original vertex, and the reverse lookup."""

    sections: tuple[tuple[int, ...], ...]
    origin: tuple[int, ...]


def expand(inst: WpvcInstance) -> tuple[WpvcInstance, SectionMap]:
    """Blow the instance up into a unit-cost one, section per vertex.

    For an edge uv of profit p the expansion holds one copy-edge per pair of
    copies, each worth p / (c(u) * c(v)); scaling every profit (and the target)
    by the lcm of those denominators keeps all arithmetic integral. Isolated
    zero-cost vertices get an empty section; a zero-cost vertex with edges is
    rejected, callers take those for free beforehand. Raises NotBipartiteError
    for an odd cycle.
    """
    bp = bipartition(inst.graph)
    if isinstance(bp, NotBipartite):
        raise NotBipartiteError(bp.odd_cycle)
    return _expand(inst)


def _expand(inst: WpvcInstance) -> tuple[WpvcInstance, SectionMap]:
    """The expansion of :func:`expand`, for a caller that already knows the
    graph is bipartite. Every copy can take its origin's side, so a
    bipartition of the graph 2-colors the expansion through
    ``SectionMap.origin``."""
    g = inst.graph
    for u, v, _ in g.edges:
        if g.costs[u] == 0 or g.costs[v] == 0:
            raise InputError("edge (%d, %d) touches a zero-cost vertex; "
                             "take such vertices for free before expanding" % (u, v))
    scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges)) if g.edges else 1
    sections = []
    origin = []
    next_id = 0
    for v in g.vertices():
        sections.append(tuple(range(next_id, next_id + g.costs[v])))
        origin.extend([v] * g.costs[v])
        next_id += g.costs[v]
    copy_edges = []
    for u, v, p in g.edges:
        share = scale * p // (g.costs[u] * g.costs[v])
        for a in sections[u]:
            for b in sections[v]:
                copy_edges.append((a, b, share))
    # Sections are numbered in vertex order, so u < v puts every copy of u
    # below every copy of v: copy edges come out normalized and distinct.
    expanded_graph = _derived_graph(g, next_id, copy_edges, (1,) * next_id)
    expanded = WpvcInstance(
        graph=expanded_graph,
        budget=inst.budget,
        target=inst.target * scale,
        variant=infer_variant(expanded_graph),
        bipartite_required=True,
    )
    return expanded, SectionMap(tuple(sections), tuple(origin))


def _expanded_profit(g: Graph, scale: int, counts) -> int:
    """Profit of a section selection in the expanded instance, without building it."""
    total = 0
    for u, v, p in g.edges:
        share = scale * p // (g.costs[u] * g.costs[v])
        ku, kv = counts[u], counts[v]
        total += share * (ku * g.costs[v] + kv * g.costs[u] - ku * kv)
    return total


def rebalance_sections(g: Graph, counts) -> list[int]:
    """Concentrate partial sections until at most one remains partial.

    ``counts[v]`` is how many of the c(v) copies of v are selected. One unit at
    a time moves from the partial vertex with the smallest per-copy marginal
    gain to the one with the largest (ties to the lowest id); removing the
    donor copy first only raises the receiver's gain, so each move keeps the
    expanded profit from dropping, which is asserted. Total mass, and with it
    the cost, is untouched.
    """
    counts = list(counts)
    if len(counts) != g.n:
        raise InputError("counts must have one entry per vertex")
    for v in g.vertices():
        if not 0 <= counts[v] <= g.costs[v]:
            raise InputError("count of vertex %d is outside its section" % v)
    scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges)) if g.edges else 1

    def per_copy_gain(v: int) -> int:
        gain = 0
        for e in g.adjacency[v]:
            u = g.other_end(e, v)
            share = scale * g.profit(e) // (g.costs[u] * g.costs[v])
            gain += share * (g.costs[u] - counts[u])
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
            before = _expanded_profit(g, scale, counts)
            counts[donor] -= 1
            counts[receiver] += 1
            after = _expanded_profit(g, scale, counts)
            assert after >= before


def solve_wpvcbfd(inst: WpvcInstance) -> SolveReport:
    """Decide a weighted bipartite instance with at most one fractional vertex.

    One pass derives the instance to expand: zero-cost vertices that cover
    positive profit are taken for free, and the edges they cover go together
    with the zero-profit ones, lowering the target by the profit won (the
    graph is rebuilt only when an edge goes). That instance is expanded to
    unit costs and decided exactly, and the section counts are rebalanced
    back into an at-most-one-fractional solution. The input is 2-colored
    once; every copy in the expansion keeps its origin's side.
    """
    t0 = time.perf_counter()
    bp = _require_bipartite(inst)
    g = inst.graph
    forced = [False] * g.n
    prefix = _force_free(g, forced)
    # Zero-profit edges are irrelevant to feasibility, and any zero-cost
    # vertex the free pass left has only such edges; dropping them with the
    # covered ones keeps the expansion free of zero-cost endpoints.
    kept = [(u, w, p) for u, w, p in g.edges if p > 0 and not (forced[u] or forced[w])]
    cur = inst
    if len(kept) < g.m:
        gain = g.total_profit() - sum(p for _, _, p in kept)
        cur = replace(inst, graph=_derived_graph(g, g.n, kept, g.costs),
                      target=max(0, inst.target - gain))
    expanded, smap = _expand(cur)
    rep = _solve_epvcbd(expanded, tuple(bp.side[v] for v in smap.origin), t0)
    if not rep.verdict:
        return SolveReport(False, None, rep.nodes_expanded, rep.max_depth,
                           time.perf_counter() - t0)
    counts = [0] * cur.graph.n
    for copy in rep.witness.vertices:
        counts[smap.origin[copy]] += 1
    counts = rebalance_sections(cur.graph, counts)
    costs = cur.graph.costs
    whole = [v for v in cur.graph.vertices() if costs[v] > 0 and counts[v] == costs[v]]
    partial = [(v, Fraction(counts[v], costs[v]))
               for v in cur.graph.vertices() if 0 < counts[v] < costs[v]]
    assert len(partial) <= 1
    sol = make_solution(inst.graph, set(prefix) | set(whole),
                        partial[0] if partial else None)
    assert sol.cost <= inst.budget and sol.profit >= inst.target
    return SolveReport(True, sol, rep.nodes_expanded, rep.max_depth,
                       time.perf_counter() - t0)
