"""Solver for the bipartite variant that may take a single vertex fractionally.

The variant is decided on the unit-cost expansion: every vertex becomes
cost-many unit-cost copies (its section), and the profit of each edge is
split across its copy pairs, scaled to integers by a common denominator. The
solver never builds that expansion. It searches sections: the unit-cost
search of :func:`pvckit.branching._solve_epvcbd` keeps a count of copies
left per vertex, with one share of each edge's profit per copy pair, so its
time and memory follow the budget and the graph, not the costs. A partial
section then means a fractionally-taken vertex, and a rebalancing pass moves
section mass around until at most one partial section remains, never losing
profit. The one yes witness is built and checked on the input graph, by
:func:`pvckit.instance._report`. :func:`expand` builds the expansion itself,
as a reference for tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .branching import _force_free, _solve_epvcbd
from .errors import InputError
from .graph import Graph, _require_sound, _trusted_graph
from .instance import (SolveReport, Variant, WpvcInstance, _report, _require_bipartite,
                       infer_variant)


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
    beforehand. Sections are numbered in vertex order, and every copy can
    take its origin's side, so a bipartition of the graph 2-colors the
    expansion through ``SectionMap.origin``.
    """
    _require_bipartite(inst)
    g = inst.graph
    _require_positive_ends(g)
    scale, share = _copy_shares(g.edges, g.costs)
    origin = [v for v in g.vertices() for _ in range(g.costs[v])]
    start = list(accumulate(g.costs, initial=0))
    sections = [tuple(range(start[v], start[v + 1])) for v in g.vertices()]
    copy_edges = []
    for (u, v, _), s in zip(g.edges, share):
        for a in sections[u]:
            for b in sections[v]:
                copy_edges.append((a, b, s))
    # u < v puts every copy of u below every copy of v: copy edges come out
    # normalized and distinct.
    expanded_graph = _trusted_graph(len(origin), copy_edges, (1,) * len(origin))
    expanded = WpvcInstance(
        graph=expanded_graph,
        budget=inst.budget,
        target=inst.target * scale,
        variant=infer_variant(expanded_graph),
        bipartite_required=True,
    )
    return expanded, SectionMap(tuple(sections), tuple(origin))


def _require_positive_ends(g: Graph) -> None:
    """Raise InputError for an edge with a zero-cost endpoint: such an edge
    has no copy edges to expand into or rebalance by."""
    for u, v, _ in g.edges:
        if g.costs[u] == 0 or g.costs[v] == 0:
            raise InputError("edge (%d, %d) touches a zero-cost vertex; "
                             "take such vertices for free first" % (u, v))


def _copy_shares(edges, costs) -> tuple[int, list[int]]:
    """The expansion's scale, the lcm of c(u) * c(v) over the edges uv, and
    per edge the scaled profit of each of its c(u) * c(v) copy edges. Every
    edge endpoint must have a positive cost."""
    scale = lcm(*(costs[u] * costs[v] for u, v, _ in edges))
    return scale, [scale * p // (costs[u] * costs[v]) for u, v, p in edges]


def _expanded_profit(g: Graph, sizes, share, counts) -> int:
    """Profit of a section selection in the expansion, without building it:
    ``counts[v]`` of the ``sizes[v]`` copies of each vertex v of ``g``, and
    ``share[e]`` the profit of one copy edge of edge e."""
    return sum(s * (counts[u] * sizes[v] + counts[v] * sizes[u] - counts[u] * counts[v])
               for (u, v, _), s in zip(g.edges, share))


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
    batch. Total mass, and with it the cost, is untouched. A graph built by
    hand is checked on entry, and a broken one is an InputError.
    """
    _require_sound(g)
    counts = list(counts)
    if len(counts) != g.n:
        raise InputError("counts must have one entry per vertex")
    for v in g.vertices():
        if not (isinstance(counts[v], int) and 0 <= counts[v] <= g.costs[v]):
            raise InputError("count of vertex %d is not an integer within its section" % v)
    _require_positive_ends(g)
    return _rebalance(g, g.costs, _copy_shares(g.edges, g.costs)[1], counts)


def _rebalance(g: Graph, sizes, share, counts: list[int]) -> list[int]:
    """The loop of :func:`rebalance_sections` on valid ``counts``, which it
    updates in place and returns: ``sizes[v]`` is the section size of vertex v
    of ``g`` and ``share[e]`` the profit of one copy edge of edge e, so the
    profits of ``g``'s own edges are not read."""
    partial = [v for v in g.vertices() if 0 < counts[v] < sizes[v]]

    def per_copy_gain(v: int) -> int:
        return sum(share[e] * (sizes[u] - counts[u])
                   for e in g.adjacency[v] for u in g.edges[e][:2] if u != v)

    while len(partial) > 1:
        receiver = max(partial, key=lambda v: (per_copy_gain(v), -v))
        donor = min((v for v in partial if v != receiver),
                    key=lambda v: (per_copy_gain(v), v))
        moves = min(sizes[receiver] - counts[receiver], counts[donor])
        before = _expanded_profit(g, sizes, share, counts)
        counts[donor] -= moves
        counts[receiver] += moves
        assert _expanded_profit(g, sizes, share, counts) >= before
        # Only the donor and the receiver changed, and one of them filled or emptied.
        partial = [v for v in partial if 0 < counts[v] < sizes[v]]
    return counts


def solve_wpvcbfd(inst: WpvcInstance) -> SolveReport:
    """Decide a weighted bipartite instance with at most one fractional vertex.

    Zero-cost vertices that cover positive profit are taken for free, and
    the edges they cover go together with the zero-profit ones, lowering the
    target by the profit won. What is left is decided exactly as its
    unit-cost expansion (see :func:`expand`) without building it: one graph
    on the same vertices, with unit costs and each kept edge's profit replaced
    by the share of one of its copy pairs, is searched by section, with the
    vertex costs as section sizes and the target times the expansion's scale.
    The search's section counts are rebalanced into an at-most-one-fractional
    solution. The input is 2-colored once; every copy keeps its vertex's
    side.
    """
    t0 = time.perf_counter()
    bp = _require_bipartite(inst)
    g = inst.graph
    left = [1] * g.n
    prefix = _force_free(g, left)
    # Zero-profit edges are irrelevant to feasibility, and any zero-cost
    # vertex the free pass left has only such edges; dropping them with the
    # covered ones leaves no zero-cost endpoint to expand.
    kept = [(u, w, p) for u, w, p in g.edges if p > 0 and left[u] and left[w]]
    gain = g.total_profit() - sum(p for _, _, p in kept)
    costs = g.costs
    scale, share = _copy_shares(kept, costs)
    # With no edge dropped, the edge ids and so the adjacency stay the same.
    per_copy = _trusted_graph(g.n, [(u, w, s) for (u, w, _), s in zip(kept, share)],
                              (1,) * g.n, g.adjacency if len(kept) == g.m else None)
    target = max(0, inst.target - gain) * scale
    searched = WpvcInstance(per_copy, inst.budget, target, Variant.EPVC, True)
    counts, *stats = _solve_epvcbd(searched, bp.side, costs)
    vertices = fractional = None
    if counts is not None:
        counts = _rebalance(per_copy, costs, share, counts)
        vertices = prefix + [v for v in g.vertices() if costs[v] > 0 and counts[v] == costs[v]]
        partial = [(v, Fraction(counts[v], costs[v]))
                   for v in g.vertices() if 0 < counts[v] < costs[v]]
        assert len(partial) <= 1
        fractional = partial[0] if partial else None
    return _report(inst, t0, vertices, *stats, fractional)
