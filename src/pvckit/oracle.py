"""Brute-force deciders used as ground truth in tests and for `--verify`.

The three cover oracles share one enumerator, :func:`_covers`. It yields each
subset of the selectable vertices whose total cost is within the budget, by
increasing size and then lexicographically, so witnesses are canonical, and
with each subset the bitmask of the edges it covers (one bit per edge id).
It builds only those subsets: each size is walked depth-first, and a prefix
that cannot be completed within the budget is never extended. It stops at
the largest size whose cheapest members fit the budget. Each oracle keeps
only its own test of one subset. The fractional oracle's test is integer
cross-multiplication, and it builds a ``Fraction`` only for the extent of
the witness it returns. Only vertices the budget can afford are
enumerated; the size caps below count those selectable vertices, which keeps
pendant-heavy gadget instances (thousands of unaffordable degree-1 vertices)
in reach.

The matching-constrained oracle runs the very entry check of its solver,
:func:`pvckit.instance._require_pvcbm`. Each cover oracle makes its report
the way the solvers do, through :func:`pvckit.instance._report`, which
builds every yes witness on the oracle's input graph and checks it there.

In oracle reports, ``nodes_expanded`` is the number of subsets examined (the
affordable subsets yielded until the oracle decides; the prefixes the walk
builds do not count) and ``max_depth`` the largest subset size tried, which
is the size of the last one, since sizes never fall.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleScaleError
from .graph import Graph, edge_subgraph, max_matching, weighted_degrees
from .instance import SolveReport, WpvcInstance, _report, _require_pvcbm

DEFAULT_CAP = 20
_MCQ_K_CAP = 4
_MCQ_CLASS_CAP = 8


def _candidates(inst: WpvcInstance, cap: int) -> list[int]:
    cands = [v for v, c in enumerate(inst.graph.costs) if c <= inst.budget]
    if len(cands) > cap:
        raise OracleScaleError(
            "instance has %d selectable vertices, oracle cap is %d" % (len(cands), cap))
    return cands


def _covers(g: Graph, cands, costs, budget):
    """Yield ``(subset, mask)`` for each subset of ``cands`` whose total cost
    is within ``budget``, by (size, lex); ``mask`` has bit e set for every
    edge e the subset covers.

    Each size is walked depth-first over candidate positions, on a stack of
    prefixes that carry their cost and mask. A candidate is skipped when the
    prefix cost, its own cost and the picks still needed at the least price
    after it exceed the budget, so only prefixes of affordable subsets are
    built; sizes stop at the largest one whose cheapest members fit."""
    # Per-vertex incidence masks; unions and popcounts stay cheap even for the
    # 20k-edge pendantized gadgets.
    nbytes = (g.m + 7) // 8
    masks = []
    for v in cands:
        buf = bytearray(nbytes)
        for e in g.adjacency[v]:
            buf[e >> 3] |= 1 << (e & 7)
        masks.append(int.from_bytes(buf, "little"))
    price = [costs[v] for v in cands]
    n = len(price)
    # least[i]: the least price at position i or later.
    least = list(itertools.accumulate(reversed(price), min))[::-1]
    largest = sum(1 for spent in itertools.accumulate(sorted(price), initial=0)
                  if spent <= budget) - 1
    for size in range(largest + 1):
        stack = [(0, 0, 0, ())]
        while stack:
            start, cost, mask, combo = stack.pop()
            left = size - len(combo) - 1  # picks still needed after the next one
            room = budget - cost
            if left < 0:
                yield combo, mask
            elif left == 0:
                for i in range(start, n):
                    if least[i] > room:
                        break
                    if price[i] <= room:
                        yield combo + (cands[i],), mask | masks[i]
            else:
                children = []
                for i in range(start, n - left):
                    if (left + 1) * least[i] > room:
                        break
                    if price[i] + left * least[i + 1] <= room:
                        children.append((i + 1, cost + price[i], mask | masks[i],
                                         combo + (cands[i],)))
                stack.extend(reversed(children))


def _edge_ids(mask: int) -> list[int]:
    """The ids of the edges in ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _profits(g: Graph):
    """Per-edge profits, and the common profit when all edges share one."""
    profits = [p for _, _, p in g.edges]
    return profits, profits[0] if profits and profits.count(profits[0]) == len(profits) else None


def _mask_profit(mask: int, profits, uniform) -> int:
    if uniform is not None:
        return uniform * mask.bit_count()
    total = 0
    while mask:
        low = mask & -mask
        total += profits[low.bit_length() - 1]
        mask ^= low
    return total


def oracle_wpvc(inst: WpvcInstance, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision of a weighted instance.

    Witness is the first feasible subset in (size, lex) order. When the whole
    graph's profit is below the target, no subset is examined.
    """
    t0 = time.perf_counter()
    cands = _candidates(inst, cap)
    g = inst.graph
    profits, uniform = _profits(g)
    examined, combo = 0, ()
    if sum(profits) >= inst.target:
        for examined, (combo, mask) in enumerate(_covers(g, cands, g.costs, inst.budget), 1):
            if _mask_profit(mask, profits, uniform) >= inst.target:
                return _report(inst, t0, combo, examined, len(combo))
    return _report(inst, t0, None, examined, len(combo))


def oracle_fractional(inst: WpvcInstance, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision allowing at most one fractionally-taken vertex.

    For an integral set S and a candidate w outside it, profit grows linearly
    with the extent, so the best extent is the whole leftover budget spent on
    w, capped at 1. Extents of 0 or 1 add nothing over plain enumeration and
    are skipped. The test is integer cross-multiplication: with ``spare``
    budget left, w of cost c > spare passes when ``profit * c + spare * sole
    >= target * c`` (tested as ``spare * sole >= need * c``, ``need`` being
    the target minus the profit), where ``sole`` is the profit of w's edges S
    leaves uncovered, and the first such w in id order is the fractional
    vertex. A :class:`~fractions.Fraction` is built only for that witness's
    extent ``spare / c``. A vertex of S has no uncovered edge, so it never
    passes.
    """
    t0 = time.perf_counter()
    cands = _candidates(inst, cap)
    g = inst.graph
    profits, uniform = _profits(g)
    budget, costs = inst.budget, g.costs
    # (w, cost, weighted degree) of every vertex a partial take could help,
    # built on the first subset that needs it: c > spare >= 1, and the
    # weighted degree bounds sole.
    partial = None
    examined, combo = 0, ()
    for examined, (combo, mask) in enumerate(_covers(g, cands, costs, budget), 1):
        need = inst.target - _mask_profit(mask, profits, uniform)
        if need <= 0:
            return _report(inst, t0, combo, examined, len(combo))
        spare = budget - sum(map(costs.__getitem__, combo))
        if spare <= 0:
            continue
        if partial is None:
            partial = [(w, c, t) for w, c, t in zip(g.vertices(), costs, weighted_degrees(g))
                       if c > 1 and t]
        covered = None
        for w, c, total in partial:
            # Affordable vertices are covered by integral enumeration.
            if c <= spare or spare * total < need * c:
                continue
            if covered is None:  # bytes, so a bit test builds no big int
                covered = mask.to_bytes((g.m + 7) // 8, "little")
            sole = sum(profits[e] for e in g.adjacency[w]
                       if not covered[e >> 3] >> (e & 7) & 1)
            if spare * sole >= need * c:
                return _report(inst, t0, combo, examined, len(combo), (w, Fraction(spare, c)))
    return _report(inst, t0, None, examined, len(combo))


def oracle_pvcbm(g: Graph, k1: int, k2: int, k3: int, cap: int = DEFAULT_CAP) -> SolveReport:
    """Exhaustive decision of the matching-constrained cover on a bipartite graph.

    Yes iff some set of at most k1 vertices covers at least k2 edges whose
    subgraph has a matching of size at least k3 (checked with Hopcroft-Karp).
    It takes the input its solver takes: unit costs and profits, or a
    VariantError, and a bipartite graph.

    A subset of fewer than k3 vertices is passed over without a matching
    run: every covered edge touches it, so no matching among its covered
    edges has more edges than it has vertices. It still counts as examined.
    """
    t0 = time.perf_counter()
    inst, bp = _require_pvcbm(g, k1, k2, k3)
    if g.n > cap:
        raise OracleScaleError("graph has %d vertices, oracle cap is %d" % (g.n, cap))
    examined, combo = 0, ()
    for examined, (combo, mask) in enumerate(_covers(g, g.vertices(), g.costs, k1), 1):
        if len(combo) < k3 or mask.bit_count() < k2:
            continue
        sub, back = edge_subgraph(g, _edge_ids(mask))
        mat = max_matching(sub, bp)
        if mat.size >= k3:
            return _report(inst, t0, combo, examined, len(combo),
                           matching=frozenset(back[e] for e in mat.edge_ids), k3=k3)
    return _report(inst, t0, None, examined, len(combo))


@dataclass(frozen=True)
class McqVerdict:
    yes: bool
    clique: tuple[int, ...] | None


def oracle_mcq(mcq) -> McqVerdict:
    """Exhaustive multicolored-clique check: one vertex per color class.

    ``mcq`` is a :class:`pvckit.reduction.McqInstance`, which checked on
    construction that its ``colors`` lie in 1..k with no edge inside a class.
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
