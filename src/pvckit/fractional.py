"""Solver for the bipartite variant that may take a single vertex fractionally.

Every vertex is expanded into cost-many unit-cost copies (its section) and the
edge profits are split across copy pairs, scaled to integers by a common
denominator. The unit-cost solver decides the expanded instance; a partial
section then means a fractionally-taken vertex, and a rebalancing pass moves
section mass around until at most one partial section remains, never losing
profit. The search returns only the copies it took; the section counts are
read off their ids, and no witness is built on the expansion. The one yes
witness is built and checked on the input graph, by
:func:`pvckit.instance._report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .branching import _force_free, _require_bipartite, _solve_epvcbd
from .errors import InputError
from .graph import Graph, _derived_graph
from .instance import SolveReport, WpvcInstance, _report, infer_variant


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
    zero-cost vertices get an empty section. Raises InputError for an instance
    the solvers reject, NotBipartiteError for an odd cycle, then InputError for
    an edge with a zero-cost endpoint: callers take such vertices for free
    beforehand.
    """
    _require_bipartite(inst)
    _require_positive_ends(inst.graph)
    return _expand(inst)


def _require_positive_ends(g: Graph) -> None:
    """Raise InputError for an edge with a zero-cost endpoint: such an edge
    has no copy edges to expand into or rebalance by."""
    for u, v, _ in g.edges:
        if g.costs[u] == 0 or g.costs[v] == 0:
            raise InputError("edge (%d, %d) touches a zero-cost vertex; "
                             "take such vertices for free first" % (u, v))


def _copy_shares(g: Graph) -> tuple[int, list[int]]:
    """The expansion's scale, the lcm of c(u) * c(v) over the edges uv, and
    per edge the scaled profit of each of its c(u) * c(v) copy edges. Every
    edge endpoint must have a positive cost."""
    scale = lcm(*(g.costs[u] * g.costs[v] for u, v, _ in g.edges))
    return scale, [scale * p // (g.costs[u] * g.costs[v]) for u, v, p in g.edges]


def _expand(inst: WpvcInstance) -> tuple[WpvcInstance, SectionMap]:
    """The expansion of :func:`expand`, for a caller that already knows the
    graph is bipartite and that no edge has a zero-cost endpoint (the solver's
    free pass and edge filter leave none). Every copy can take its origin's
    side, so a bipartition of the graph 2-colors the expansion through
    ``SectionMap.origin``."""
    g = inst.graph
    scale, share = _copy_shares(g)
    origin = [v for v in g.vertices() for _ in range(g.costs[v])]
    start = list(accumulate(g.costs, initial=0))
    sections = [tuple(range(start[v], start[v + 1])) for v in g.vertices()]
    copy_edges = []
    for (u, v, _), s in zip(g.edges, share):
        for a in sections[u]:
            for b in sections[v]:
                copy_edges.append((a, b, s))
    # Sections are numbered in vertex order, so u < v puts every copy of u
    # below every copy of v: copy edges come out normalized and distinct.
    expanded_graph = _derived_graph(g, len(origin), copy_edges, (1,) * len(origin))
    expanded = WpvcInstance(
        graph=expanded_graph,
        budget=inst.budget,
        target=inst.target * scale,
        variant=infer_variant(expanded_graph),
        bipartite_required=True,
    )
    return expanded, SectionMap(tuple(sections), tuple(origin))


def _expanded_profit(g: Graph, scale: int, counts) -> int:
    """Profit of a section selection in the expanded instance, without
    building it, with profits scaled by ``scale`` (a multiple of the
    expansion's own scale)."""
    own, share = _copy_shares(g)
    total = sum(s * (counts[u] * g.costs[v] + counts[v] * g.costs[u] - counts[u] * counts[v])
                for (u, v, _), s in zip(g.edges, share))
    return total * scale // own


def rebalance_sections(g: Graph, counts) -> list[int]:
    """Concentrate partial sections until at most one remains partial.

    ``counts[v]`` is how many of the c(v) copies of v are selected; as in
    :func:`expand`, an edge with a zero-cost endpoint is an InputError. Each
    copy of v is worth gain(v) = sum over edges uv of
    share_uv * (c(u) - counts[u]), share_uv being the profit of one copy edge
    of uv. Each step takes the partial vertex r of largest gain and, among
    the others, the partial vertex d of smallest gain (ties to the lowest id),
    and moves t = min(c(r) - counts[r], counts[d]) units from d to r at once,
    which fills r or empties d. Moving t units changes the expanded profit by
    t * (gain(r) - gain(d)) + share_rd * t**2 (share_rd is 0 unless rd is an
    edge), which never falls as t grows, since gain(r) >= gain(d). So neither
    the batch nor any unit of it lowers the profit; that is asserted once per
    batch. Total mass, and with it the cost, is untouched.
    """
    counts = list(counts)
    if len(counts) != g.n:
        raise InputError("counts must have one entry per vertex")
    for v in g.vertices():
        if not (isinstance(counts[v], int) and 0 <= counts[v] <= g.costs[v]):
            raise InputError("count of vertex %d is not an integer within its section" % v)
    _require_positive_ends(g)
    partial = [v for v in g.vertices() if 0 < counts[v] < g.costs[v]]
    if len(partial) <= 1:
        return counts
    scale, share = _copy_shares(g)

    def per_copy_gain(v: int) -> int:
        return sum(share[e] * (g.costs[u] - counts[u])
                   for e in g.adjacency[v] for u in g.edges[e][:2] if u != v)

    while len(partial) > 1:
        receiver = max(partial, key=lambda v: (per_copy_gain(v), -v))
        donor = min((v for v in partial if v != receiver),
                    key=lambda v: (per_copy_gain(v), v))
        moves = min(g.costs[receiver] - counts[receiver], counts[donor])
        before = _expanded_profit(g, scale, counts)
        counts[donor] -= moves
        counts[receiver] += moves
        assert _expanded_profit(g, scale, counts) >= before
        # Only the donor and the receiver changed, and one of them filled or emptied.
        partial = [v for v in partial if 0 < counts[v] < g.costs[v]]
    return counts


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
    chain, *stats = _solve_epvcbd(expanded, tuple(bp.side[v] for v in smap.origin))
    vertices = fractional = None
    if chain is not None:
        counts = [0] * cur.graph.n
        for copy in chain:  # distinct copy ids: the search forces each at most once
            counts[smap.origin[copy]] += 1
        counts = rebalance_sections(cur.graph, counts)
        costs = cur.graph.costs
        vertices = prefix + [v for v in cur.graph.vertices()
                             if costs[v] > 0 and counts[v] == costs[v]]
        partial = [(v, Fraction(counts[v], costs[v]))
                   for v in cur.graph.vertices() if 0 < counts[v] < costs[v]]
        assert len(partial) <= 1
        fractional = partial[0] if partial else None
    return _report(inst, t0, vertices, *stats, fractional)
