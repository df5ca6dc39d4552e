import itertools

import pytest

from pvckit import (Graph, InputError, OracleScaleError, Variant, coverage, gadget_budget,
                    gadget_target, make_graph, make_mcq, pendantize, reduce_mcq_to_wpvcbd,
                    verify_reduction, weighted_degree)
from pvckit.generators import random_mcq
from pvckit.oracle import oracle_mcq, oracle_wpvc
from pvckit.reduction import McqInstance, class_yield


def two_class_pair(with_edge):
    return make_mcq(2, 2, [1, 2], [(0, 1)] if with_edge else [])


class TestWorkedExample:
    """k=2, n=2, one vertex per class, edge between them."""

    def test_costs_profits_and_budgets(self):
        out = reduce_mcq_to_wpvcbd(two_class_pair(True))
        g = out.instance.graph
        assert g.costs == (2, 4, 8, 16, 32, 32)
        assert sorted(p for _, _, p in g.edges) == [11, 37, 149, 673]
        assert g.m == 4  # adjacency in the source kills both cross edges
        assert out.instance.budget == 30
        assert out.instance.target == 870
        assert 11 + 37 + 149 + 673 == 870

    def test_missing_edge_flips_adjacency_rule(self):
        out = reduce_mcq_to_wpvcbd(two_class_pair(False))
        g = out.instance.graph
        unit = [(u, v) for u, v, p in g.edges if p == 1]
        # u0-v1 and u1-v0 appear; ids: v0=0 v1=1 u0=2 u1=3
        assert sorted(unit) == [(0, 3), (1, 2)]
        assert sorted(p for _, _, p in g.edges if p > 1) == [10, 36, 148, 672]

    def test_equivalence_both_ways(self):
        yes = verify_reduction(two_class_pair(True))
        assert yes.ok and yes.source.yes and yes.reduced_yes
        assert yes.clique_cost_exact and yes.clique_profit_exact
        no = verify_reduction(two_class_pair(False))
        assert no.ok and not no.source.yes and not no.reduced_yes


class TestMakeMcqEndpoints:
    # An endpoint at or above n used to raise a bare IndexError, and a
    # negative one was read as a color from the end of the tuple, which made
    # (-1, 1) look like an intra-class edge that was silently dropped.
    @pytest.mark.parametrize("edge", [(0, 5), (-1, 1)])
    def test_rejects_endpoint_out_of_range(self, edge):
        with pytest.raises(InputError, match="edge endpoint out of range"):
            make_mcq(2, 2, [1, 2], [edge])


class TestMakeMcqEdgeShape:
    # Indexing or unpacking such an item raises a bare IndexError, TypeError
    # or ValueError, or (for (0, 1, 2, 3)) quietly reads only (0, 1).
    @pytest.mark.parametrize("edge", [(0,), 5, (0, 1, 2, 3)])
    def test_rejects_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(InputError, match=r"edge must be a pair \(u, v\)"):
            make_mcq(2, 2, [1, 2], [edge])


class TestHandBuiltMcq:
    # A color outside 1..k used to land in a class through negative indexing
    # (color 0 in class k), so the oracle said no while the gadget and the
    # reduction check went through; an intra-class edge reached a RuntimeError.
    @pytest.mark.parametrize("k, colors, match", [
        (3, (0, 2, 3), "color of vertex 0 must lie in 1..3"),
        (3, (1, 2, 4), "color of vertex 2 must lie in 1..3"),
        (3, (1, 2, 3.0), "color of vertex 2 must lie in 1..3"),
        (3, (1, 1, 2), r"edge \(0, 1\) lies inside color class 1"),
        (3, (1, 2), "expected one color per vertex, 3 in all"),
        (0, (1, 1, 1), "k must be a positive integer"),
    ], ids=["color-0", "color-above-k", "float-color", "intra-class-edge", "short-colors",
            "k-0"])
    def test_oracle_reduce_and_check_reject(self, k, colors, match):
        triangle = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        mcq = McqInstance(triangle, k, colors)
        for call in (oracle_mcq, reduce_mcq_to_wpvcbd, verify_reduction):
            with pytest.raises(InputError, match=match):
                call(mcq)

    @pytest.mark.parametrize("k", ["3", None, 2.0])
    def test_k_that_is_no_int_is_rejected(self, k):
        mcq = McqInstance(make_graph(2, [(0, 1)]), k, (1, 2))
        for call in (oracle_mcq, reduce_mcq_to_wpvcbd):
            with pytest.raises(InputError, match="k must be a positive integer"):
                call(mcq)

    def test_hand_built_graph_is_checked(self):
        broken = Graph(2, ((0, 1),), (1, 1), ((0,), (0,)))
        for call in (oracle_mcq, reduce_mcq_to_wpvcbd):
            with pytest.raises(InputError, match=r"edge 0 is not a \(u, v, profit\) triple"):
                call(McqInstance(broken, 2, (1, 2)))

    def test_valid_hand_built_instance_equals_make_mcq(self):
        built = make_mcq(3, 3, [1, 2, 3], [(0, 1), (1, 2), (0, 2)])
        hand = McqInstance(make_graph(3, [(0, 1), (1, 2), (0, 2)]), 3, [1, 2, 3])
        assert oracle_mcq(hand) == oracle_mcq(built)
        assert reduce_mcq_to_wpvcbd(hand).instance == reduce_mcq_to_wpvcbd(built).instance


class TestStructuralInvariants:
    def test_budget_identities(self):
        for k in (1, 2, 3, 4):
            assert gadget_budget(k) == 2 ** (2 * k + 1) - 2
            for n in (1, 2, 5):
                assert gadget_target(k, n) == (n + 1) * gadget_budget(k) \
                    + 5 * (5 ** (2 * k) - 1) // 4

    def test_incident_profit_identity(self):
        for seed in range(12):
            mcq = random_mcq(seed, k=2, class_size=2, edge_prob=0.5, plant=False)
            out = reduce_mcq_to_wpvcbd(mcq)
            g = out.instance.graph
            n = out.source_n
            for j in range(n):
                assert weighted_degree(g, out.v_copies[j]) == class_yield(mcq.colors[j], n)
            for i in range(n):
                assert weighted_degree(g, out.u_copies[i]) == class_yield(
                    mcq.colors[i] + out.k, n)

    def test_bipartition_separates_copies_and_hubs(self):
        from pvckit import Bipartition, bipartition

        out = reduce_mcq_to_wpvcbd(random_mcq(3, k=2, class_size=2, edge_prob=0.5))
        bp = bipartition(out.instance.graph)
        assert isinstance(bp, Bipartition)

    def test_independent_selection_matches_clique(self):
        # one pick per gadget class is independent iff it doubles a clique
        mcq = random_mcq(11, k=2, class_size=2, edge_prob=0.5, plant=False)
        out = reduce_mcq_to_wpvcbd(mcq)
        g = out.instance.graph
        adj = {(u, v) for u, v, _ in g.edges} | {(v, u) for u, v, _ in g.edges}
        classes = [[] for _ in range(2 * mcq.k)]
        for i, c in enumerate(mcq.colors):
            classes[c - 1].append(out.v_copies[i])
            classes[c - 1 + mcq.k].append(out.u_copies[i])
        src_adj = {(u, v) for u, v, _ in mcq.graph.edges}
        src_adj |= {(v, u) for u, v in src_adj}
        for pick in itertools.product(*classes):
            independent = all((a, b) not in adj
                              for a, b in itertools.combinations(pick, 2))
            vs = sorted(x for x in pick if x in set(out.v_copies))
            us = sorted(x - out.source_n for x in pick if x in set(out.u_copies))
            doubled = vs == us and all(
                (a, b) in src_adj for a, b in itertools.combinations(vs, 2))
            assert independent == doubled

    def test_roles_cover_all_vertices(self):
        out = reduce_mcq_to_wpvcbd(two_class_pair(True))
        assert out.roles == ("v0", "v1", "u0", "u1", "z1", "z2")


class TestPendantize:
    def test_worked_example_counts(self):
        out = pendantize(reduce_mcq_to_wpvcbd(two_class_pair(True)))
        g = out.instance.graph
        assert g.n == 4 + 870 and g.m == 870
        assert all(p == 1 for _, _, p in g.edges)
        assert all(g.costs[x] == 32 for x in range(4, g.n))
        assert out.instance.budget == 30 and out.instance.target == 870

    def test_legs_take_consecutive_ids_per_hub_edge(self):
        out = reduce_mcq_to_wpvcbd(two_class_pair(True))
        legs = pendantize(out)
        # Leg at a time: the hubs z1 = 4 and z2 = 5 carry the largest ids, so
        # a hub edge is (x, hub).
        edges, roles, next_id = [], [], 4
        for x, z, p in out.instance.graph.edges:
            if z < 4:
                edges.append((x, z, p))
                continue
            for _ in range(p):
                edges.append((x, next_id, 1))
                roles.append("pendant(%s)" % out.roles[x])
                next_id += 1
        assert legs.instance.graph.edges == tuple(edges)
        assert legs.roles == out.roles[:4] + tuple(roles)
        assert legs.instance.graph.costs == out.instance.graph.costs[:4] + (32,) * len(roles)

    def test_empty_source_pendantizes_to_pvc(self):
        # No vertex and no edge: unit costs and profits hold vacuously.
        legs = pendantize(reduce_mcq_to_wpvcbd(make_mcq(0, 1, [], [])))
        assert legs.instance.graph.n == 0 and legs.instance.variant is Variant.PVC

    def test_copy_edges_survive_unpendantized(self):
        out = pendantize(reduce_mcq_to_wpvcbd(two_class_pair(False)))
        g = out.instance.graph
        copy_edges = [(u, v) for u, v, _ in g.edges if u < 4 and v < 4]
        assert sorted(copy_edges) == [(0, 3), (1, 2)]

    def test_verdict_preserved(self):
        for with_edge in (True, False):
            mcq = two_class_pair(with_edge)
            plain = oracle_wpvc(reduce_mcq_to_wpvcbd(mcq).instance)
            legs = oracle_wpvc(pendantize(reduce_mcq_to_wpvcbd(mcq)).instance)
            assert plain.verdict == legs.verdict == with_edge


class TestVerifyReduction:
    def test_planted_k3(self):
        mcq = random_mcq(19, k=3, class_size=2, edge_prob=0.3, plant=True)
        chk = verify_reduction(mcq)
        assert chk.ok and chk.source.yes and chk.reduced_yes

    def test_scale_cap(self):
        mcq = random_mcq(4, k=3, class_size=3, edge_prob=0.2, plant=False)
        with pytest.raises(OracleScaleError):
            verify_reduction(mcq)

    def test_clique_copies_spend_budget_exactly(self):
        mcq = random_mcq(23, k=2, class_size=2, edge_prob=0.6, plant=True)
        out = reduce_mcq_to_wpvcbd(mcq)
        clique = oracle_mcq(mcq).clique
        picks = {out.v_copies[i] for i in clique} | {out.u_copies[i] for i in clique}
        cost = sum(out.instance.graph.costs[x] for x in picks)
        _, profit = coverage(out.instance.graph, picks)
        assert cost == out.instance.budget
        assert profit == out.instance.target
