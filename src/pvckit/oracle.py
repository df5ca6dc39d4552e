"""Brute-force deciders used as ground truth in tests and for `--verify`.

Subsets are enumerated by increasing size, then lexicographically, so witnesses
are canonical. Only vertices the budget can afford are ever enumerated; the
size caps below count those selectable vertices, which keeps pendant-heavy
gadget instances (thousands of unaffordable degree-1 vertices) in reach.

In oracle reports, ``nodes_expanded`` is the number of subsets examined and
``max_depth`` the largest subset size tried.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NotBipartiteError, OracleScaleError
from .graph import Graph, NotBipartite, bipartition, coverage, edge_subgraph, max_matching
from .instance import CoverSolution, SolveReport, WpvcInstance, make_solution

DEFAULT_CAP = 20
_MCQ_K_CAP = 4
_MCQ_CLASS_CAP = 8


def _candidates(inst: WpvcInstance, cap: int) -> list[int]:
    cands = [v for v in inst.graph.vertices() if inst.graph.costs[v] <= inst.budget]
    if len(cands) > cap:
        raise OracleScaleError(
            "instance has %d selectable vertices, oracle cap is %d" % (len(cands), cap))
    return cands


def _incidence_masks(g: Graph, vertices) -> dict[int, int]:
    # One bit per edge id; unions and popcounts stay cheap even for the
    # 20k-edge pendantized gadgets.
    nbytes = (g.m + 7) // 8
    masks = {}
    for v in vertices:
        buf = bytearray(nbytes)
        for e in g.adjacency[v]:
            buf[e >> 3] |= 1 << (e & 7)
        masks[v] = int.from_bytes(buf, "little")
    return masks


def _mask_profit(mask: int, profits, uniform) -> int:
    if uniform is not None:
        return uniform * mask.bit_count()
    total = 0
    while mask:
        low = mask & -mask
        total += profits[low.bit_length() - 1]
        mask ^= low
    return total


def _subsets(cands, costs, budget):
    """Subsets of cands with total cost within budget, by (size, lex)."""
    if cands and min(costs[v] for v in cands) > 0:
        max_size = min(len(cands), budget // min(costs[v] for v in cands))
    else:
        max_size = len(cands)
    for size in range(max_size + 1):
        for combo in itertools.combinations(cands, size):
            if sum(costs[v] for v in combo) <= budget:
                yield combo


def oracle_wpvc(inst: WpvcInstance, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision of a weighted instance.

    Witness is the first feasible subset in (size, lex) order.
    """
    t0 = time.perf_counter()
    cands = _candidates(inst, cap)
    g = inst.graph
    profits = [p for _, _, p in g.edges]
    uniform = profits[0] if profits and all(p == profits[0] for p in profits) else None
    masks = _incidence_masks(g, cands)
    examined = 0
    deepest = 0
    found = None
    if g.total_profit() >= inst.target:
        for combo in _subsets(cands, g.costs, inst.budget):
            examined += 1
            deepest = max(deepest, len(combo))
            mask = 0
            for v in combo:
                mask |= masks[v]
            if _mask_profit(mask, profits, uniform) >= inst.target:
                found = combo
                break
    elapsed = time.perf_counter() - t0
    if found is None:
        return SolveReport(False, None, examined, deepest, elapsed)
    sol = make_solution(g, found)
    return SolveReport(True, sol, examined, deepest, elapsed)


def oracle_fractional(inst: WpvcInstance, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision allowing at most one fractionally-taken vertex.

    For an integral set S and a candidate w outside it, profit grows linearly
    with the extent, so the best extent is the whole leftover budget spent on
    w, capped at 1. Extents of 0 or 1 add nothing over plain enumeration and
    are skipped.
    """
    t0 = time.perf_counter()
    cands = _candidates(inst, cap)
    g = inst.graph
    examined = 0
    deepest = 0
    for combo in _subsets(cands, g.costs, inst.budget):
        examined += 1
        deepest = max(deepest, len(combo))
        covered, profit = coverage(g, combo)
        if profit >= inst.target:
            sol = make_solution(g, combo)
            return SolveReport(True, sol, examined, deepest, time.perf_counter() - t0)
        spare = inst.budget - sum(g.costs[v] for v in combo)
        if spare <= 0:
            continue
        for w in g.vertices():
            if w in combo or g.costs[w] <= spare:
                continue  # affordable vertices are covered by integral enumeration
            extent = Fraction(spare, g.costs[w])
            sole = sum(g.profit(e) for e in g.adjacency[w] if e not in covered)
            if profit + extent * sole >= inst.target:
                sol = make_solution(g, combo, (w, extent))
                return SolveReport(True, sol, examined, deepest, time.perf_counter() - t0)
    return SolveReport(False, None, examined, deepest, time.perf_counter() - t0)


def oracle_pvcbm(g: Graph, k1: int, k2: int, k3: int, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision of the matching-constrained cover on a bipartite graph.

    Yes iff some set of at most k1 vertices covers at least k2 edges whose
    subgraph has a matching of size at least k3 (checked with Hopcroft-Karp).
    """
    t0 = time.perf_counter()
    if min(k1, k2, k3) < 0:
        raise InputError("parameters must be non-negative")
    if g.n > cap:
        raise OracleScaleError("graph has %d vertices, oracle cap is %d" % (g.n, cap))
    bp = bipartition(g)
    if isinstance(bp, NotBipartite):
        raise NotBipartiteError(bp.odd_cycle)
    examined = 0
    for size in range(min(k1, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            examined += 1
            covered, _ = coverage(g, combo)
            if len(covered) < k2:
                continue
            sub, back = edge_subgraph(g, covered)
            mat = max_matching(sub, bp)
            if mat.size >= k3:
                sol = CoverSolution(frozenset(combo), None, len(combo), len(covered))
                ids = frozenset(back[e] for e in mat.edge_ids)
                return SolveReport(True, sol, examined, size,
                                   time.perf_counter() - t0, matching_edge_ids=ids)
    return SolveReport(False, None, examined, min(k1, g.n), time.perf_counter() - t0)


@dataclass(frozen=True)
class McqVerdict:
    yes: bool
    clique: tuple[int, ...] | None


def oracle_mcq(mcq) -> McqVerdict:
    """Exhaustive multicolored-clique check: one vertex per color class.

    ``mcq`` needs ``graph``, ``k`` and per-vertex ``colors`` in 1..k.
    """
    g = mcq.graph
    classes = [[] for _ in range(mcq.k)]
    for v, color in enumerate(mcq.colors):
        classes[color - 1].append(v)
    if mcq.k > _MCQ_K_CAP:
        raise OracleScaleError("k=%d exceeds oracle cap %d" % (mcq.k, _MCQ_K_CAP))
    if any(len(cls) > _MCQ_CLASS_CAP for cls in classes):
        raise OracleScaleError("a color class exceeds the oracle cap %d" % _MCQ_CLASS_CAP)
    if any(not cls for cls in classes):
        return McqVerdict(False, None)
    adjacent = {(u, v) for u, v, _ in g.edges}
    adjacent |= {(v, u) for u, v in adjacent}
    for pick in itertools.product(*classes):
        if all((a, b) in adjacent for a, b in itertools.combinations(pick, 2)):
            return McqVerdict(True, tuple(pick))
    return McqVerdict(False, None)
