"""A frozen copy of the one-fractional-vertex oracle as it stood when it
tested each candidate vertex with ``fractions.Fraction`` arithmetic:
``oracle_fractional`` with the helpers it called (``_candidates``,
``_covers``, ``_edge_ids``, ``_profits``, ``_mask_profit``) and the report
path it went through (``make_solution`` and ``_report``, which summed a
fractional witness's cost and profit in Fractions), word for word.
``test_oracle_fractional`` checks that the current oracle returns the same
report on many instances. Do not edit it to follow the current oracle."""

import itertools
import time
from fractions import Fraction

from pvckit.errors import InputError, OracleScaleError
from pvckit.graph import Graph, _require_sound, coverage
from pvckit.instance import CoverSolution, SolveReport, WpvcInstance, _witness_problem

DEFAULT_CAP = 20


def _candidates(inst: WpvcInstance, cap: int) -> list[int]:
    _require_sound(inst.graph)
    if not (isinstance(inst.budget, int) and isinstance(inst.target, int)
            and inst.budget >= 0 and inst.target >= 0):
        raise InputError("budget and target must be non-negative integers")
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
    profits, uniform = _profits(g)
    examined, combo = 0, ()
    for examined, (combo, mask) in enumerate(_covers(g, cands, g.costs, inst.budget), 1):
        profit = _mask_profit(mask, profits, uniform)
        if profit >= inst.target:
            return _report(inst, t0, combo, examined, len(combo))
        spare = inst.budget - sum(g.costs[v] for v in combo)
        if spare <= 0:
            continue
        covered = set(_edge_ids(mask))
        for w in g.vertices():
            if w in combo or g.costs[w] <= spare:
                continue  # affordable vertices are covered by integral enumeration
            extent = Fraction(spare, g.costs[w])
            sole = sum(profits[e] for e in g.adjacency[w] if e not in covered)
            if profit + extent * sole >= inst.target:
                return _report(inst, t0, combo, examined, len(combo), (w, extent))
    return _report(inst, t0, None, examined, len(combo))


def make_solution(g: Graph, vertices, fractional=None) -> CoverSolution:
    """Assemble a :class:`CoverSolution`, computing cost and profit exactly."""
    vertices = frozenset(vertices)
    covered, profit = coverage(g, vertices)
    cost = sum(g.costs[v] for v in vertices)
    if fractional is not None:
        w, extent = fractional
        extent = Fraction(extent)
        if not 0 < extent < 1:
            raise InputError("fractional extent must lie strictly between 0 and 1")
        if not (isinstance(w, int) and 0 <= w < g.n):
            raise InputError("invalid vertex id %r" % (w,))
        if w in vertices:
            raise InputError("vertex %d is both integral and fractional" % w)
        sole = sum(g.profit(e) for e in g.adjacency[w] if e not in covered)
        profit = profit + extent * sole
        cost = cost + extent * g.costs[w]
        fractional = (w, extent)
    return CoverSolution(vertices=vertices, fractional=fractional, cost=cost, profit=profit)


def _report(inst: WpvcInstance, t0: float, vertices, nodes: int, depth: int, fractional=None,
            matching=None, k3: int = 0) -> SolveReport:
    """The one place a :class:`SolveReport` is made, called once at the end of
    each public solver and cover oracle, with ``t0`` taken on its entry.

    ``vertices`` None is a no. Otherwise the witness is built from them (and
    ``fractional``) by :func:`make_solution` on the input graph, and checked
    by :func:`_witness_problem` at the instance's budget and target (and
    against ``k3`` with ``matching``, edge ids): a witness that fails raises
    AssertionError, under ``python -O`` too, and is never a yes.
    """
    if vertices is None:
        return SolveReport(False, None, nodes, depth, time.perf_counter() - t0)
    sol = make_solution(inst.graph, vertices, fractional)
    problem = _witness_problem(inst.graph, inst.budget, inst.target, sol, matching, k3)
    if problem is not None:  # raised, not asserted, so that ``python -O`` keeps the check
        raise AssertionError(problem)
    return SolveReport(True, sol, nodes, depth, time.perf_counter() - t0, matching)
