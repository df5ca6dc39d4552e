"""Solver for the matching-constrained partial cover on bipartite graphs.

Find a set of at most k1 vertices covering at least k2 edges such that the
covered edges contain a matching of size at least k3. The plan: solve the
plain cover question at budget k1 and read off the subgraph its witness
covers. If that subgraph's matching number already reaches k3, the witness is
the answer. Otherwise we grow the subgraph edge by edge until its matching
number reaches k3 exactly; a minimum vertex cover of the grown subgraph then
has k3 <= k1 vertices (matching number equals cover number on bipartite
graphs) and covers every edge the witness covered.

A consequence of the growth stage: once the plain cover question at budget k1
is a yes, the whole graph has a matching of size k3, and k3 <= k1, the answer
is always yes. The construction is still carried out in full so that every
yes comes with an explicit, independently re-checked witness.
"""

from __future__ import annotations

import time
from bisect import insort

from .errors import InputError, NotBipartiteError, VariantError
from .graph import (LEFT, Graph, NotBipartite, bipartition, coverage, edge_subgraph,
                    max_matching, min_vertex_cover)
from .instance import SolveReport, Variant, WpvcInstance, make_solution
from .branching import _require_valid, solve_epvcbd


def _recheck(g: Graph, bp, vertices, k1: int, k2: int, k3: int) -> None:
    # Independent verification of every yes witness with the core primitives.
    assert len(vertices) <= k1
    covered, _ = coverage(g, vertices)
    assert len(covered) >= k2
    sub, _ = edge_subgraph(g, covered)
    assert max_matching(sub, bp).size >= k3


def _augment(adj, mate, seen, u):
    # Alternating DFS over the grown subgraph; adj maps left vertices to
    # sorted right neighbors, mate maps matched vertices both ways.
    for w in adj.get(u, ()):
        if w in seen:
            continue
        seen.add(w)
        back = mate.get(w)
        if back is None or _augment(adj, mate, seen, back):
            mate[w] = u
            mate[u] = w
            return True
    return False


def solve_pvcbm(g: Graph, k1: int, k2: int, k3: int) -> SolveReport:
    """Decide the matching-constrained cover; unit weights, bipartite only."""
    t0 = time.perf_counter()
    if not all(isinstance(k, int) and k >= 0 for k in (k1, k2, k3)):
        raise InputError("k1, k2, k3 must be non-negative integers")
    if any(c != 1 for c in g.costs) or any(p != 1 for _, _, p in g.edges):
        raise VariantError("matching-constrained solver needs unit costs and profits")
    _require_valid(WpvcInstance(g, k1, k2, Variant.PVC))
    bp = bipartition(g)
    if isinstance(bp, NotBipartite):
        raise NotBipartiteError(bp.odd_cycle)

    nodes = depth = 0

    def report(vertices, matching_ids) -> SolveReport:
        _recheck(g, bp, vertices, k1, k2, k3)
        sol = make_solution(g, vertices)
        return SolveReport(True, sol, nodes, depth, time.perf_counter() - t0,
                           matching_edge_ids=frozenset(matching_ids))

    def fail() -> SolveReport:
        return SolveReport(False, None, nodes, depth, time.perf_counter() - t0)

    if k3 > k1:
        return fail()  # k3 matched edges would need k3 distinct cover vertices
    plain = solve_epvcbd(WpvcInstance(g, k1, k2, Variant.PVC, True))
    nodes, depth = plain.nodes_expanded, plain.max_depth
    if not plain.verdict:
        return fail()
    chosen = plain.witness.vertices
    covered, _ = coverage(g, chosen)
    sub, back = edge_subgraph(g, covered)
    mat = max_matching(sub, bp)
    if mat.size >= k3:
        return report(chosen, (back[e] for e in mat.edge_ids))

    if max_matching(g, bp).size < k3:
        return fail()

    # Grow the covered subgraph one edge at a time; each addition moves the
    # matching number up by at most one, and adding everything would reach the
    # whole graph's matching number, which is at least k3.
    grown = set(covered)
    mate = {}
    for e in mat.edge_ids:
        u, v, _ = sub.edges[e]
        mate[u] = v
        mate[v] = u
    size = len(mate) // 2
    assert size == mat.size
    adj = {}
    for e in grown:
        u, v, _ = g.edges[e]
        l, r = (u, v) if bp.side[u] == LEFT else (v, u)
        insort(adj.setdefault(l, []), r)
    order = sorted(range(g.m), key=lambda e: g.edges[e][:2])
    for e in order:
        if e in grown:
            continue
        grown.add(e)
        u, v, _ = g.edges[e]
        l, r = (u, v) if bp.side[u] == LEFT else (v, u)
        insort(adj.setdefault(l, []), r)
        # One augmentation settles the new matching number.
        prev = size
        for root in sorted(adj):
            if root not in mate and _augment(adj, mate, set(), root):
                size += 1
                break
        assert size - prev in (0, 1)
        if size == k3:
            break
    else:
        raise RuntimeError("internal invariant broken: cover number never reached k3")

    sub, back = edge_subgraph(g, grown)
    mat = max_matching(sub, bp)
    assert mat.size == k3
    cover = min_vertex_cover(sub, bp, mat)
    assert len(cover) == k3
    return report(cover, (back[e] for e in mat.edge_ids))
