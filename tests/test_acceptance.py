"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see them
all); a failure prints nothing and fails the suite. All expected values are
exact integers or rationals; there are no floating-point tolerances anywhere.
"""

import random
import time

from helpers import brute_force_matching_size
from pvckit import (bipartition, coverage, edge_subgraph, gadget_budget, gadget_target,
                    make_graph, make_mcq, max_matching, min_vertex_cover, pendantize,
                    reduce_mcq_to_wpvcbd, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd,
                    verify_reduction)
from pvckit.bench import default_config, run_config
from pvckit.generators import (bounded_degree_case, fractional_case,
                               general_graph_case, matching_constrained_case,
                               unit_cost_bipartite_case)
from pvckit.oracle import oracle_fractional, oracle_pvcbm, oracle_wpvc


def _announce(name, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (name, detail))


def _witness_ok(inst, rep):
    cost = sum(inst.graph.costs[v] for v in rep.witness.vertices)
    _, profit = coverage(inst.graph, rep.witness.vertices)
    return cost <= inst.budget and profit >= inst.target


def test_criterion_1_unit_cost_solver_matches_oracle_500():
    t0 = time.perf_counter()
    yes = 0
    for seed in range(500):
        inst = unit_cost_bipartite_case(seed)
        rep = solve_epvcbd(inst)
        orc = oracle_wpvc(inst)
        assert rep.verdict == orc.verdict, "seed %d" % seed
        assert rep.max_depth <= inst.budget
        if rep.verdict:
            yes += 1
            assert _witness_ok(inst, rep), "seed %d" % seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, "suite took %.1fs, budget is 60s" % elapsed
    _announce("1 unit-cost bipartite solver",
              "500/500 oracle agreement, %d yes, %.1fs" % (yes, elapsed))


def test_criterion_2_bounded_degree_solver_matches_oracle_500():
    yes = 0
    for seed in range(500):
        inst = bounded_degree_case(seed)
        rep = solve_wpvc_bounded_degree(inst, 3)  # fan-out asserted per node inside
        orc = oracle_wpvc(inst)
        assert rep.verdict == orc.verdict, "seed %d" % seed
        assert rep.max_depth <= inst.budget
        if rep.verdict:
            yes += 1
            assert _witness_ok(inst, rep), "seed %d" % seed
    _announce("2 bounded-degree solver", "500/500 oracle agreement, %d yes" % yes)


def test_criterion_3_profit_target_solver_matches_oracle_500():
    yes = 0
    for seed in range(500):
        inst = general_graph_case(seed)
        rep = solve_wpvc_by_L(inst)  # fan-out < target^2 asserted per node inside
        orc = oracle_wpvc(inst)
        assert rep.verdict == orc.verdict, "seed %d" % seed
        assert inst.target == 0 or rep.max_depth < 2 * inst.target
        if rep.verdict:
            yes += 1
            assert _witness_ok(inst, rep), "seed %d" % seed
    _announce("3 profit-target solver", "500/500 oracle agreement, %d yes" % yes)


def test_criterion_4_fractional_solver_matches_oracle_300():
    yes = 0
    for seed in range(300):
        inst = fractional_case(seed)
        rep = solve_wpvcbfd(inst)  # rebalance swaps assert profit monotonicity inside
        orc = oracle_fractional(inst)
        assert rep.verdict == orc.verdict, "seed %d" % seed
        if rep.verdict:
            yes += 1
            w = rep.witness
            assert w.cost <= inst.budget and w.profit >= inst.target
            if w.fractional is not None:
                _, extent = w.fractional
                assert 0 < extent < 1
    _announce("4 fractional solver", "300/300 oracle agreement, %d yes" % yes)


def test_criterion_5_matching_solver_matches_oracle_300():
    yes = 0
    for seed in range(300):
        g, k1, k2, k3 = matching_constrained_case(seed)
        rep = solve_pvcbm(g, k1, k2, k3)
        orc = oracle_pvcbm(g, k1, k2, k3)
        assert rep.verdict == orc.verdict, "seed %d" % seed
        if rep.verdict:
            yes += 1
            verts = rep.witness.vertices
            assert len(verts) <= k1
            covered, _ = coverage(g, verts)
            assert len(covered) >= k2
            sub, _ = edge_subgraph(g, covered)
            assert max_matching(sub, bipartition(g)).size >= k3
    _announce("5 matching-constrained solver", "300/300 oracle agreement, %d yes" % yes)


def _reduction_corpus():
    """k in {2, 3}, at most 2 vertices per class: exhaustive edge subsets for the
    small profiles, seeded distinct samples for the two largest."""
    cases = []

    def profile(k, sizes, sample=None):
        colors = []
        for c, s in enumerate(sizes, start=1):
            colors.extend([c] * s)
        n = len(colors)
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if colors[u] != colors[v]]
        masks = range(2 ** len(slots)) if sample is None \
            else random.Random(424242 + n).sample(range(2 ** len(slots)), sample)
        for mask in masks:
            edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
            cases.append(make_mcq(n, k, colors, edges))

    profile(2, (1, 1))
    profile(2, (1, 2))
    profile(2, (2, 2))
    profile(3, (1, 1, 1))
    profile(3, (1, 1, 2))
    profile(3, (1, 2, 2), sample=70)
    profile(3, (2, 2, 2), sample=70)
    return cases


def test_criterion_6_reduction_equivalence_200():
    cases = _reduction_corpus()
    assert len(cases) >= 200
    yes = 0
    for idx, mcq in enumerate(cases):
        chk = verify_reduction(mcq)
        assert chk.ok, "corpus case %d" % idx
        out = chk.output
        n = out.source_n
        k = out.k
        assert out.instance.budget == 2 ** (2 * k + 1) - 2
        assert out.instance.target == (n + 1) * out.instance.budget \
            + 5 * (5 ** (2 * k) - 1) // 4
        legs = pendantize(out)
        assert oracle_wpvc(legs.instance).verdict == chk.reduced_yes, "case %d" % idx
        yes += chk.source.yes
    _announce("6 reduction equivalence",
              "%d/%d equivalent incl. pendantized, %d yes" % (len(cases), len(cases), yes))


def test_criterion_7_matching_and_cover_against_brute_force_500():
    for seed in range(500):
        rng = random.Random(5_500_000 + seed)
        n = rng.randint(2, 14)
        left = rng.randint(1, n - 1)
        slots = [(i, j) for i in range(left) for j in range(left, n)]
        m = rng.randint(0, min(len(slots), 18))
        g = make_graph(n, sorted(rng.sample(slots, m)))
        bp = bipartition(g)
        mat = max_matching(g, bp)
        assert mat.size == brute_force_matching_size(g), "seed %d" % seed
        cover = min_vertex_cover(g, bp, mat)
        assert len(cover) == mat.size, "seed %d" % seed
        assert all(u in cover or v in cover for u, v, _ in g.edges), "seed %d" % seed
    _announce("7 matching and cover", "500/500 brute-force agreement")


def test_criterion_8_bench_grids_within_node_bounds():
    rows = run_config(default_config())
    assert rows, "default suite must not be empty"
    for r in rows:
        base, exponent = r.bound
        assert r.ok, "row %s seed=%d %s=%d: %d nodes above bound %d^%d" % (
            r.alg, r.seed, r.param, r.value, r.nodes_expanded, base, exponent)
        assert r.nodes_expanded <= base ** exponent
    _announce("8 bound conformance", "%d bench rows within bounds" % len(rows))


def test_criterion_9_worked_gadget_example_exact():
    mcq = make_mcq(2, 2, [1, 2], [(0, 1)])
    out = reduce_mcq_to_wpvcbd(mcq)
    g = out.instance.graph
    assert g.costs == (2, 4, 8, 16, 32, 32)
    assert sorted(p for _, _, p in g.edges) == [11, 37, 149, 673]
    assert out.instance.budget == 30
    assert out.instance.target == 870
    assert gadget_budget(2) == 30 and gadget_target(2, 2) == 870
    _announce("9 worked gadget example",
              "costs (2,4,8,16,32,32), profits (11,37,149,673), budget 30, target 870")
