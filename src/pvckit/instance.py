"""Problem instances for the partial-cover variants, residual construction,
and solution/report records. :func:`_report` is the only place a report is
made: each public solver and each cover oracle calls it once, as it
returns, and it builds and checks the yes witness there.

Instances are frozen; ``residual`` returns a fresh instance with the same
vertex-id universe (the forced vertex simply loses all its edges), so a
witness of the residual plus the forced vertex is a witness of the original.
The solvers do not call it: their search keeps the residual weighted degrees
as live state (see :func:`pvckit.branching._search`), and ``residual`` stays
the public reference for what each search node sees.

Graphs are validated once, where they enter: ``make_instance`` builds through
``make_graph``, and ``residual`` and ``prune_unaffordable`` check a graph
built by hand as ``Graph(...)`` on entry (see
:func:`pvckit.graph._require_sound`) and build their graphs trusted.
``validate`` runs ``check_graph`` only on graphs that lack the checked mark.
The solvers' entry checks live here too: :func:`_require_bipartite` for the
bipartite solvers and :func:`_require_pvcbm`, which the matching-constrained
solver and its oracle share.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InputError, NotBipartiteError, VariantError
from .graph import (Graph, NotBipartite, _require_sound, _trusted_graph, bipartition,
                    check_graph, coverage, make_graph, weighted_degree)


class Variant(str, enum.Enum):
    WPVC = "wpvc"  # arbitrary costs, arbitrary profits
    EPVC = "epvc"  # unit costs
    VPVC = "vpvc"  # unit profits
    PVC = "pvc"    # unit costs and profits


def infer_variant(g: Graph) -> Variant:
    """Most specific variant tag consistent with the weights."""
    unit_costs = all(c == 1 for c in g.costs)
    unit_profits = all(p == 1 for _, _, p in g.edges)
    if unit_costs and unit_profits:
        return Variant.PVC
    if unit_costs:
        return Variant.EPVC
    if unit_profits:
        return Variant.VPVC
    return Variant.WPVC


@dataclass(frozen=True)
class WpvcInstance:
    """A graph plus a vertex-cost budget and a covered-profit target."""

    graph: Graph
    budget: int
    target: int
    variant: Variant
    bipartite_required: bool = False


@dataclass(frozen=True)
class CoverSolution:
    """Chosen vertices, optionally one fractionally-taken vertex.

    ``fractional`` is ``(vertex, extent)`` with extent strictly between 0 and
    1. Cost is the sum of integral costs plus extent times the fractional
    vertex's cost. Profit counts edges covered by integral vertices at full
    value and edges covered solely by the fractional vertex at extent value.
    """

    vertices: frozenset[int]
    fractional: tuple[int, Fraction] | None
    cost: int | Fraction
    profit: int | Fraction


@dataclass(frozen=True)
class SolveReport:
    """Verdict, witness, and branching statistics of one solve call.

    ``nodes_expanded`` counts search nodes that actually branched; nodes
    settled by a base case or a direct construction count zero.
    ``matching_edge_ids`` is only populated by the matching-constrained
    solver and oracle.
    """

    verdict: bool
    witness: CoverSolution | None
    nodes_expanded: int
    max_depth: int
    wall_time: float
    matching_edge_ids: frozenset[int] | None = None


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
        # In integers over the extent's denominator, then one Fraction each.
        num, den = extent.numerator, extent.denominator
        profit = Fraction(profit * den + num * sole, den)
        cost = Fraction(cost * den + num * g.costs[w], den)
        fractional = (w, extent)
    return CoverSolution(vertices=vertices, fractional=fractional, cost=cost, profit=profit)


def _witness_problem(g: Graph, budget, target, sol, matching=None, k3=0) -> str | None:
    """Why ``sol``, a :func:`make_solution` result on ``g``, is no yes witness,
    or None when it is one. Its cost must be within ``budget`` and its profit
    reach ``target``. ``matching`` (edge ids), needed when ``k3`` is positive,
    must hold at least ``k3`` pairwise disjoint edges of ``g``, each with an
    end in ``sol.vertices``."""
    if sol.cost > budget or sol.profit < target:
        return "cost=%s profit=%s" % (sol.cost, sol.profit)
    if matching is None:
        return "no matching reported" if k3 else None
    pairs = [g.edges[e][:2] for e in matching if isinstance(e, int) and 0 <= e < g.m]
    if len(pairs) < len(matching) or any(sol.vertices.isdisjoint(pair) for pair in pairs):
        return "a matching edge id is not an edge the witness covers"
    if len({v for pair in pairs for v in pair}) < 2 * len(pairs):
        return "matching edges share a vertex"
    if len(pairs) < k3:
        return "matching has %d edges, below k3=%d" % (len(pairs), k3)
    return None


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


def make_instance(n, edges, costs=None, *, budget, target,
                  bipartite_required=False) -> WpvcInstance:
    """Build a validated instance, tagged by :func:`infer_variant`."""
    g = make_graph(n, edges, costs)
    inst = WpvcInstance(g, budget, target, infer_variant(g), bipartite_required)
    _require_valid(inst)
    return inst


def validate(inst: WpvcInstance) -> list[str]:
    """Check every instance invariant; returns violations instead of raising.

    The graph's structure is re-checked with ``check_graph`` only when the
    graph lacks the checked mark (see :mod:`pvckit.graph`).
    """
    return _validate(inst)[0]


def _validate(inst: WpvcInstance):
    """The problems :func:`validate` reports, plus the bipartition it computed
    (None unless the instance requires a bipartite graph)."""
    problems = [] if inst.graph._checked else check_graph(inst.graph)
    # The weights of a graph with broken structure cannot be read safely,
    # nor can it be 2-colored meaningfully.
    sound = not problems
    if not isinstance(inst.budget, int) or inst.budget < 0:
        problems.append("budget must be a non-negative integer")
    if not isinstance(inst.target, int) or inst.target < 0:
        problems.append("target must be a non-negative integer")
    if sound and inst.variant in (Variant.EPVC, Variant.PVC):
        bad = [v for v, c in enumerate(inst.graph.costs) if c != 1]
        if bad:
            problems.append("variant/weight mismatch: variant %s requires unit costs "
                            "but vertex %d has cost %d"
                            % (inst.variant.value, bad[0], inst.graph.costs[bad[0]]))
    if sound and inst.variant in (Variant.VPVC, Variant.PVC):
        bad = [e for e, (_, _, p) in enumerate(inst.graph.edges) if p != 1]
        if bad:
            problems.append("variant/weight mismatch: variant %s requires unit profits "
                            "but edge %d has profit %d"
                            % (inst.variant.value, bad[0], inst.graph.edges[bad[0]][2]))
    bp = None
    if inst.bipartite_required and sound:
        bp = bipartition(inst.graph)
        if isinstance(bp, NotBipartite):
            problems.append("graph must be bipartite but contains odd cycle %s"
                            % (list(bp.odd_cycle),))
    return problems, bp


def _require_valid(inst: WpvcInstance):
    """Raise InputError unless ``inst`` is valid; return the bipartition the
    check computed, or None when the instance does not require one."""
    problems, bp = _validate(inst)
    if problems:
        raise InputError("; ".join(problems))
    return bp


def _require_bipartite(inst: WpvcInstance, unit_costs: bool = False):
    """Validate ``inst`` and 2-color its graph, once; return the Bipartition.

    Raises InputError for an invalid instance (an odd cycle is one when the
    instance requires a bipartite graph), then VariantError if ``unit_costs``
    is set and a vertex costs other than 1, whatever the variant tag says,
    then NotBipartiteError for an odd cycle.
    """
    bp = _require_valid(inst)
    if unit_costs and inst.graph.costs.count(1) != inst.graph.n:
        v, c = next((v, c) for v, c in enumerate(inst.graph.costs) if c != 1)
        raise VariantError("solver needs unit vertex costs, but vertex %d has cost %d" % (v, c))
    if bp is None:
        bp = bipartition(inst.graph)
    if isinstance(bp, NotBipartite):
        raise NotBipartiteError(bp.odd_cycle)
    return bp


def _require_pvcbm(g: Graph, k1, k2, k3):
    """The entry check of the matching-constrained cover, shared by its solver
    and its oracle: InputError unless k1, k2 and k3 are non-negative ints,
    then VariantError unless every cost and profit is 1, then the checks of
    :func:`_require_bipartite`. A graph built by hand is checked for sound
    structure before any weight is read. Returns the instance (budget k1,
    target k2) and the Bipartition."""
    if not all(isinstance(k, int) and k >= 0 for k in (k1, k2, k3)):
        raise InputError("k1, k2, k3 must be non-negative integers")
    _require_sound(g)
    if g.costs.count(1) != len(g.costs) or any(p != 1 for _, _, p in g.edges):
        raise VariantError("matching-constrained solver needs unit costs and profits")
    inst = WpvcInstance(g, k1, k2, Variant.PVC)
    # The weights were read above: validating a WPVC-tagged copy reads none.
    return inst, _require_bipartite(replace(inst, variant=Variant.WPVC))


def residual(inst: WpvcInstance, v: int) -> WpvcInstance:
    """The instance left after forcing ``v`` into the solution.

    ``v`` keeps its id but loses all incident edges; the budget drops by its
    cost and the target by its weighted degree (clamped at zero). Solving the
    residual with S is equivalent to solving ``inst`` with S plus v.
    """
    g = inst.graph
    _require_sound(g)
    if not (isinstance(v, int) and 0 <= v < g.n):
        raise InputError("invalid vertex id %r" % (v,))
    if g.costs[v] > inst.budget:
        raise InputError("vertex %d costs %d, which exceeds the remaining budget %d"
                         % (v, g.costs[v], inst.budget))
    gain = weighted_degree(g, v)
    drop = set(g.adjacency[v])
    kept = [g.edges[e] for e in range(g.m) if e not in drop]
    return replace(inst, graph=_trusted_graph(g.n, kept, g.costs),
                   budget=inst.budget - g.costs[v], target=max(0, inst.target - gain))


def prune_unaffordable(inst: WpvcInstance) -> WpvcInstance:
    """Drop edges whose endpoints are both too expensive to ever select.

    Vertices costing more than the budget keep their ids (so witnesses still
    line up with the input) but can never enter a solution; an edge between two
    of them is dead weight and is removed. Applied once at load time.
    """
    g = inst.graph
    _require_sound(g)
    dead = [g.costs[v] > inst.budget for v in range(g.n)]
    kept = [edge for edge in g.edges if not (dead[edge[0]] and dead[edge[1]])]
    if len(kept) == g.m:
        return inst
    return replace(inst, graph=_trusted_graph(g.n, kept, g.costs))
