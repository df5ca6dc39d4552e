"""A frozen copy of the matching-constrained oracle as it stood when it ran
Hopcroft-Karp on every subset that covers k2 edges: ``oracle_pvcbm`` with
the enumerator ``_covers`` and ``_edge_ids``, word for word.
``test_oracle_pvcbm`` checks that the current oracle returns the same
report on many instances. Do not edit it to follow the current oracle."""

import itertools
import time

from pvckit.errors import InputError, NotBipartiteError, OracleScaleError
from pvckit.graph import Graph, NotBipartite, bipartition, edge_subgraph, max_matching
from pvckit.instance import CoverSolution, SolveReport

DEFAULT_CAP = 20


def _covers(g: Graph, cands, costs, budget):
    """Yield ``(subset, mask)`` for each subset of ``cands`` whose total cost
    is within ``budget``, by (size, lex); ``mask`` has bit e set for every
    edge e the subset covers."""
    # Per-vertex incidence masks; unions and popcounts stay cheap even for the
    # 20k-edge pendantized gadgets.
    nbytes = (g.m + 7) // 8
    masks = {}
    for v in cands:
        buf = bytearray(nbytes)
        for e in g.adjacency[v]:
            buf[e >> 3] |= 1 << (e & 7)
        masks[v] = int.from_bytes(buf, "little")
    cheapest = min((costs[v] for v in cands), default=0)
    max_size = min(len(cands), budget // cheapest) if cheapest > 0 else len(cands)
    for size in range(max_size + 1):
        for combo in itertools.combinations(cands, size):
            if sum(costs[v] for v in combo) <= budget:
                mask = 0
                for v in combo:
                    mask |= masks[v]
                yield combo, mask


def _edge_ids(mask: int) -> list[int]:
    """The ids of the edges in ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def oracle_pvcbm(g: Graph, k1: int, k2: int, k3: int, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision of the matching-constrained cover on a bipartite graph.

    Yes iff some set of at most k1 vertices covers at least k2 edges whose
    subgraph has a matching of size at least k3 (checked with Hopcroft-Karp).
    Every vertex counts once against k1, whatever its cost.
    """
    t0 = time.perf_counter()
    if not all(isinstance(k, int) and k >= 0 for k in (k1, k2, k3)):
        raise InputError("k1, k2, k3 must be non-negative integers")
    if g.n > cap:
        raise OracleScaleError("graph has %d vertices, oracle cap is %d" % (g.n, cap))
    bp = bipartition(g)
    if isinstance(bp, NotBipartite):
        raise NotBipartiteError(bp.odd_cycle)
    examined, combo = 0, ()
    for examined, (combo, mask) in enumerate(_covers(g, g.vertices(), (1,) * g.n, k1), 1):
        if mask.bit_count() < k2:
            continue
        sub, back = edge_subgraph(g, _edge_ids(mask))
        mat = max_matching(sub, bp)
        if mat.size >= k3:
            sol = CoverSolution(frozenset(combo), None, len(combo), mask.bit_count())
            return SolveReport(True, sol, examined, len(combo), time.perf_counter() - t0,
                               matching_edge_ids=frozenset(back[e] for e in mat.edge_ids))
    return SolveReport(False, None, examined, len(combo), time.perf_counter() - t0)
