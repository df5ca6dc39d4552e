"""The benchmark's three workloads, built from a seed.

Each workload is a list of items. An item holds the instance, the verdict it
must get, and the timed steps that decide it. Steps look pvckit functions up
on the package at call time, so a traced run sees them through its wrappers.
Checks run outside the timed steps and use function references taken at
import, before any wrapper exists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import pvckit
from pvckit import generators
from pvckit.graph import coverage as _coverage

import truth

WORKLOADS = ("search-hard", "gadget-pipeline", "crosscheck-small")


@dataclass
class Item:
    """One instance and the calls that decide it.

    ``steps`` are (stage, thunk) pairs run in order. With ``per_step`` each
    step is a verdict call of its own (solver, then oracle); otherwise the
    steps form one pipeline whose verdict comes from the last step.
    ``check(results, expect)`` returns None or the reason the answer is
    wrong. ``expect`` is the verdict the instance must get, or None when only
    the oracle among the steps decides it (a stored reference may fill it in).
    ``subject`` is what is decided: a WpvcInstance, a (graph, k1, k2, k3)
    tuple, or an McqInstance. A timed run decides the item on every
    ``every``-th pass over the workload only.
    """

    family: str
    key: str
    expect: bool | None
    steps: list[tuple[str, Callable]]
    check: Callable
    subject: object
    per_step: bool = False
    every: int = 1


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Witness checks, with graph.coverage and the vertex costs.

def _cover_problem(inst, rep, expect):
    if expect is not None and rep.verdict != expect:
        return "verdict %s, expected %s" % (rep.verdict, expect)
    if not rep.verdict:
        return None
    w = rep.witness
    if w is None:
        return "yes without a witness"
    g = inst.graph
    covered, profit = _coverage(g, w.vertices)
    cost = sum(g.costs[v] for v in w.vertices)
    if w.fractional is not None:
        v, extent = w.fractional
        if not 0 < extent < 1 or v in w.vertices:
            return "bad fractional vertex %r" % (w.fractional,)
        profit += extent * sum(g.profit(e) for e in g.adjacency[v] if e not in covered)
        cost += extent * g.costs[v]
    if cost > inst.budget or profit < inst.target:
        return "witness fails re-verification (cost %s > %s or profit %s < %s)" % (
            cost, inst.budget, profit, inst.target)
    return None


def _pvcbm_problem(g, k1, k2, k3, rep, expect):
    if expect is not None and rep.verdict != expect:
        return "verdict %s, expected %s" % (rep.verdict, expect)
    if not rep.verdict:
        return None
    verts = rep.witness.vertices
    covered, _ = _coverage(g, verts)
    ids = rep.matching_edge_ids or frozenset()
    ends = [x for e in ids for x in g.edges[e][:2]]
    if (len(verts) > k1 or len(covered) < k2 or not ids <= covered
            or len(ends) != len(set(ends)) or len(ids) < k3):
        return "pvcbm witness fails re-verification"
    return None


# ---------------------------------------------------------------------------
# search-hard: boundary instances on trees, where truth.py knows the optimum.

def random_tree(rng, n, max_degree=None):
    """Random attachment tree; each new vertex joins an earlier one with room."""
    degree = [0] * n
    room = [0]
    pairs = []
    for v in range(1, n):
        i = rng.randrange(len(room))
        u = room[i]
        pairs.append((u, v))
        degree[u] += 1
        degree[v] += 1
        if max_degree is not None and degree[u] >= max_degree:
            room[i] = room[-1]
            room.pop()
        room.append(v)
    return pairs


def _wpvc(n, edges, costs, budget, target, bipartite):
    g = pvckit.make_graph(n, edges, costs)
    return pvckit.WpvcInstance(g, budget, target, pvckit.infer_variant(g), bipartite)


def _solver_item(family, inst, expect, call):
    g = inst.graph
    return Item(family=family,
                key=_digest(g.n, g.edges, g.costs, inst.budget, inst.target),
                expect=expect,
                steps=[("solve", lambda: call(inst))],
                check=lambda res, expect: _cover_problem(inst, res[0], expect),
                subject=inst)


def _pair(family, n, edges, costs, budget, best, bipartite, call, scale=1):
    """The yes instance at the optimum and the no instance just above it."""
    items = []
    for target, expect in ((best // scale, True), (best // scale + 1, False)):
        inst = _wpvc(n, edges, costs, budget, target, bipartite)
        items.append(_solver_item("%s:%s" % (family, "yes" if expect else "no"),
                                  inst, expect, call))
    return items


def _epvcbd_pair(rng):
    n = 120
    edges = [(u, v, rng.randint(1, 4)) for u, v in random_tree(rng, n)]
    budget = 6
    best = truth.integral_best(n, edges, [1] * n, budget)[budget]
    return _pair("epvcbd", n, edges, [1] * n, budget, best, True,
                 lambda inst: pvckit.solve_epvcbd(inst))


def _bounded_degree_pair(rng):
    n = 160
    edges = [(u, v, rng.randint(1, 4)) for u, v in random_tree(rng, n, 3)]
    costs = [rng.randint(1, 3) for _ in range(n)]
    budget = 3
    best = truth.integral_best(n, edges, costs, budget)[budget]
    return _pair("bounded-degree", n, edges, costs, budget, best, False,
                 lambda inst: pvckit.solve_wpvc_bounded_degree(inst, 3))


def _by_L_pair(rng):
    """Target L fixed at BY_L_TARGET: yes at the least budget that reaches it,
    no at one less. Search time grows fast with L, so a fixed L keeps the
    seed from moving the workload's cost."""
    n = 100
    edges = [(u, v, 1) for u, v in random_tree(rng, n)]
    costs = [rng.randint(1, 3) for _ in range(n)]
    best = truth.integral_best(n, edges, costs, 3 * BY_L_TARGET)
    budget = next(b for b, x in enumerate(best) if x >= BY_L_TARGET)
    items = []
    for b, expect in ((budget, True), (budget - 1, False)):
        inst = _wpvc(n, edges, costs, b, BY_L_TARGET, False)
        items.append(_solver_item("by-L:%s" % ("yes" if expect else "no"), inst, expect,
                                  lambda inst: pvckit.solve_wpvc_by_L(inst)))
    return items


def _fractional_pair(rng):
    n = 100
    edges = [(u, v, rng.randint(1, 3)) for u, v in random_tree(rng, n)]
    costs = [rng.randint(1, 2) for _ in range(n)]
    budget = 6
    scale = truth.expansion_scale(edges, costs)
    best = truth.fractional_best(n, edges, costs, budget)
    return _pair("fractional", n, edges, costs, budget, best, True,
                 lambda inst: pvckit.solve_wpvcbfd(inst), scale)


def _pvcbm_pair(rng):
    n = 100
    pairs = random_tree(rng, n)
    g = pvckit.make_graph(n, pairs)
    k1 = 6
    best = truth.integral_best(n, g.edges, [1] * n, k1)[k1]
    k3 = min(k1, truth.forest_matching_size(n, g.edges))
    items = []
    for k2 in (best, best + 1):
        expect = truth.pvcbm_verdict(n, g.edges, k1, k2, k3)
        items.append(Item(
            family="pvcbm:%s" % ("yes" if expect else "no"),
            key=_digest(n, g.edges, k1, k2, k3),
            expect=expect,
            steps=[("solve", lambda k2=k2: pvckit.solve_pvcbm(g, k1, k2, k3))],
            check=lambda res, expect, k2=k2: _pvcbm_problem(g, k1, k2, k3, res[0],
                                                            expect),
            subject=(g, k1, k2, k3)))
    return items


def _path_item(n, budget):
    """Unit path covering all n-1 edges: yes iff budget >= floor(n/2).

    With 2 * budget above the n-2 inner vertices the solver branches once per
    chosen vertex, so its recursion is about n/2 deep.
    """
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    inst = _wpvc(n, edges, [1] * n, budget, n - 1, True)
    return _solver_item("deep-path", inst, budget >= n // 2,
                        lambda inst: pvckit.solve_epvcbd(inst))


BY_L_TARGET = 10
SEARCH_FAMILIES = (_epvcbd_pair, _bounded_degree_pair, _by_L_pair, _fractional_pair,
                   _pvcbm_pair)
SEARCH_BLOCKS = 90
DEEP_PATHS = {1: (200, 100), 3: (300, 150)}
# Decided once per run, after timing and outside it: this path needs about
# 1000 nested calls, above the default recursion limit, so it shows the
# depth defect on every run without putting a crash into the timed loop.
DEEP_PROBE = (2000, 1100)


def search_hard(seed):
    """Blocks of one yes/no pair per family; two early blocks add a deep path."""
    rng = random.Random("search-hard:%d" % seed)
    blocks = []
    for b in range(SEARCH_BLOCKS):
        block = []
        for make in SEARCH_FAMILIES:
            block.extend(make(rng))
        if b in DEEP_PATHS:
            block.append(_path_item(*DEEP_PATHS[b]))
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# gadget-pipeline: multicolored-clique inputs through reduce, pendantize, the
# text round trip and the oracle, plus small equivalence checks.

def _gadget_item(mcq, label):
    g = mcq.graph
    expect = truth.clique_exists(g.n, mcq.colors, mcq.k, g.edges)
    box = {}

    def reduce():
        box["out"] = pvckit.reduce_mcq_to_wpvcbd(mcq)
        return box["out"]

    def pendantize():
        box["out"] = pvckit.pendantize(box["out"])
        return box["out"]

    def write():
        box["text"] = pvckit.write_wpvc(box["out"].instance)
        return box["text"]

    def parse():
        box["inst"] = pvckit.parse_wpvc(box["text"])
        return box["inst"]

    def oracle():
        rep = pvckit.oracle_wpvc(box["inst"])
        box.clear()  # keep no gadget alive between repeats
        return rep

    def check(res, expect):
        out, parsed, rep = res[1], res[3], res[4]
        src = out.instance
        if (parsed.graph.n, parsed.graph.m, parsed.budget, parsed.target) != (
                src.graph.n, src.graph.m, src.budget, src.target):
            return "text round trip changed the instance"
        return _cover_problem(parsed, rep, expect)

    return Item(family=label, key=_digest(g.n, g.edges, mcq.colors, mcq.k),
                expect=expect,
                steps=[("reduce", reduce), ("pendantize", pendantize), ("write", write),
                       ("parse", parse), ("oracle", oracle)],
                check=check, subject=mcq)


def _equivalence_item(mcq):
    g = mcq.graph
    expect = truth.clique_exists(g.n, mcq.colors, mcq.k, g.edges)

    def check(res, expect):
        rc = res[0]
        if rc.source.yes != expect:
            return "clique oracle says %s, expected %s" % (rc.source.yes, expect)
        return None if rc.ok else "reduction equivalence check failed"

    return Item(family="verify-reduction", key=_digest(g.n, g.edges, mcq.colors, mcq.k),
                expect=expect,
                steps=[("verify", lambda: pvckit.verify_reduction(mcq))],
                check=check, subject=mcq)


K2_ROUNDS = 40
GADGET_BLOCKS = 4
# The k=3 gadget takes seconds and the rest of the workload about as long
# together, so it runs on every K3_EVERY-th pass: the light calls then get
# many repeats in a run and the k=3 gadget several.
K3_EVERY = 2


# Edge density of inputs without a planted clique, chosen so that about half
# of them have no clique at all.
SPARSE = {2: 0.05, 3: 0.3}


def _mcq(rng, k, class_size):
    plant = rng.random() < 0.5
    return generators.random_mcq(rng.getrandbits(32), k, class_size,
                                 edge_prob=0.5 if plant else SPARSE[k], plant=plant)


def gadget_pipeline(seed):
    """GADGET_BLOCKS blocks of rounds of two k=2 gadgets and one small check;
    the first block starts with a k=3 gadget.

    Gadget size hardly depends on the input's edges (the hub top-ups of
    5**class dominate it), so the seed moves the verdicts more than the cost.
    """
    rng = random.Random("gadget-pipeline:%d" % seed)
    # Class size 1: about 20k vertices, copy vertices of degree about 15.6k.
    k3 = _gadget_item(_mcq(rng, 3, 1), "k3-class1")
    k3.every = K3_EVERY
    blocks = [[k3]]
    for b in range(GADGET_BLOCKS):
        if b:
            blocks.append([])
        for _ in range(K2_ROUNDS // GADGET_BLOCKS):
            # One size of k=2 gadget: two sizes would put the median in the
            # gap between their times.
            for _ in range(2):
                blocks[b].append(_gadget_item(_mcq(rng, 2, 3), "k2-class3"))
            k = rng.randint(2, 3)
            blocks[b].append(_equivalence_item(_mcq(rng, k, 2 if k == 3 else 3)))
    return blocks


# ---------------------------------------------------------------------------
# crosscheck-small: the five acceptance recipes, solver then oracle.

def _crosscheck_cover(family, inst, solve, oracle):
    def check(res, expect):
        rep, orc = res
        if rep.verdict != orc.verdict:
            return "solver says %s, oracle says %s" % (rep.verdict, orc.verdict)
        return _cover_problem(inst, rep, expect) or _cover_problem(inst, orc, expect)

    g = inst.graph
    return Item(family=family, key=_digest(g.n, g.edges, g.costs, inst.budget, inst.target),
                expect=None,
                steps=[("solve", lambda: solve(inst)), ("oracle", lambda: oracle(inst))],
                check=check, subject=inst, per_step=True)


def _crosscheck_pvcbm(case):
    g, k1, k2, k3 = case

    def check(res, expect):
        rep, orc = res
        if rep.verdict != orc.verdict:
            return "solver says %s, oracle says %s" % (rep.verdict, orc.verdict)
        return (_pvcbm_problem(g, k1, k2, k3, rep, expect)
                or _pvcbm_problem(g, k1, k2, k3, orc, expect))

    return Item(family="pvcbm", key=_digest(g.n, g.edges, k1, k2, k3), expect=None,
                steps=[("solve", lambda: pvckit.solve_pvcbm(g, k1, k2, k3)),
                       ("oracle", lambda: pvckit.oracle_pvcbm(g, k1, k2, k3))],
                check=check, subject=case, per_step=True)


CROSSCHECK_BLOCKS = 3200


def crosscheck_small(seed):
    """Blocks of one instance per acceptance recipe.

    Recipe seeds start at 10**6, far from the test suite's 0..499.
    """
    rng = random.Random("crosscheck-small:%d" % seed)
    blocks = []
    for _ in range(CROSSCHECK_BLOCKS):
        s = [rng.randrange(10 ** 6, 10 ** 12) for _ in range(5)]
        items = []
        blocks.append(items)
        items.append(_crosscheck_cover(
            "unit-cost", generators.unit_cost_bipartite_case(s[0]),
            lambda inst: pvckit.solve_epvcbd(inst), lambda inst: pvckit.oracle_wpvc(inst)))
        items.append(_crosscheck_cover(
            "bounded-degree", generators.bounded_degree_case(s[1]),
            lambda inst: pvckit.solve_wpvc_bounded_degree(inst, 3),
            lambda inst: pvckit.oracle_wpvc(inst)))
        items.append(_crosscheck_cover(
            "profit-target", generators.general_graph_case(s[2]),
            lambda inst: pvckit.solve_wpvc_by_L(inst), lambda inst: pvckit.oracle_wpvc(inst)))
        items.append(_crosscheck_cover(
            "fractional", generators.fractional_case(s[3]),
            lambda inst: pvckit.solve_wpvcbfd(inst),
            lambda inst: pvckit.oracle_fractional(inst)))
        items.append(_crosscheck_pvcbm(generators.matching_constrained_case(s[4])))
    return blocks


# Probe builders, called after timing: set-up does not build the probes.
PROBES = {"search-hard": lambda: [_path_item(*DEEP_PROBE)]}

BUILDERS = {"search-hard": search_hard, "gadget-pipeline": gadget_pipeline,
            "crosscheck-small": crosscheck_small}
