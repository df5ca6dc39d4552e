"""Solver for the matching-constrained partial cover on bipartite graphs.

Find a set of at most k1 vertices covering at least k2 edges such that the
covered edges contain a matching of size at least k3. The plan: run the
plain cover search at budget k1, which returns its vertices and builds no
witness, and read off the set of edge ids they cover. If the matching
number of those edges already reaches k3, those vertices are the answer.
Otherwise we grow the id set by a prefix of the uncovered edges sorted by
endpoints. The matching number of the covered edges plus the first j sorted
ones never decreases as j grows and rises by at most one per step, so at the
least j where it reaches k3 it is exactly k3. A binary search over j finds
that prefix with Hopcroft-Karp on O(log m) id sets; the whole graph (all
uncovered edges added) falling short of k3 is a no. A minimum vertex cover
of the grown edges (Konig) then has k3 <= k1 vertices (matching number
equals cover number on bipartite graphs) and covers every edge the witness
covered. Each of these steps runs the cores :func:`pvckit.graph._matching`
and :func:`pvckit.graph._cover` over an id set of the input graph, which
read only the vertices those edges touch, so no subgraph is built.

A consequence of the growth stage: once the plain cover question at budget k1
is a yes, the whole graph has a matching of size k3, and k3 <= k1, the answer
is always yes. The construction is still carried out in full so that every
yes comes with an explicit witness. The witness is built and checked once, as
the solver returns, by :func:`pvckit.instance._report`, through the matching
it reports: at most k1 vertices covering at least k2 edges, and at least k3
reported edges that are pairwise disjoint and each covered by the witness.
Such a matching proves the yes on its own, so no second Hopcroft-Karp run is
needed. The whole graph's matching, computed for the no test, doubles as the
binary search's upper end.

The entry check, :func:`pvckit.instance._require_pvcbm`, is the one the
oracle runs too, so both reject the same input with the same error.
"""

from __future__ import annotations

import time

from .graph import Graph, _cover, _matching, coverage
from .instance import SolveReport, _report, _require_pvcbm
from .branching import _solve_epvcbd


def solve_pvcbm(g: Graph, k1: int, k2: int, k3: int) -> SolveReport:
    """Decide the matching-constrained cover; unit weights, bipartite only."""
    t0 = time.perf_counter()
    inst, bp = _require_pvcbm(g, k1, k2, k3)
    # k3 matched edges would need k3 distinct cover vertices.
    chain, *stats = _solve_epvcbd(inst, bp.side) if k3 <= k1 else (None, 0, 0)
    vertices, matching = (None, None) if chain is None else _grow(g, bp.side, chain, k3)
    return _report(inst, t0, vertices, *stats, matching=matching, k3=k3)


def _grow(g: Graph, side, chosen, k3: int):
    """The growth stage on a plain witness ``chosen``: the witness and its
    matching's edge ids, or ``(None, None)`` when the whole graph's matching
    number is below ``k3``. Every step matches over a set of edge ids of
    ``g``, and no subgraph is built."""
    covered, _ = coverage(g, chosen)
    mat = _matching(g, side, covered)
    if mat.size >= k3:
        return chosen, mat.edge_ids
    every = range(g.m)
    full = _matching(g, side, every)
    if full.size < k3:
        return None, None
    order = sorted(set(every) - covered, key=lambda e: g.edges[e][:2])
    # The covered edges plus the first hi uncovered ones, and a maximum
    # matching: at hi = len(order) that is the whole graph.
    lo, hi, top = 0, len(order), (every, full)
    while hi - lo > 1:  # matching number below k3 at lo, at least k3 at hi
        mid = (lo + hi) // 2
        ids = covered.union(order[:mid])
        mat = _matching(g, side, ids)
        if mat.size >= k3:
            hi, top = mid, (ids, mat)
        else:
            lo = mid
    ids, mat = top
    assert mat.size == k3
    cover = _cover(g, side, ids, mat.edge_ids)
    assert len(cover) == k3
    return cover, mat.edge_ids
