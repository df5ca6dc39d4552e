import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bipartition_reference, brute_force_cover_number,
                     brute_force_matching_size, c4, check_graph_reference,
                     long_augmenting_path, max_matching_reference, star)
from pvckit import (LEFT, RIGHT, Bipartition, Graph, InputError, NotBipartite, bipartition,
                    coverage, edge_subgraph, make_graph, max_matching, min_vertex_cover,
                    weighted_degree, weighted_degrees)
from pvckit.graph import check_graph


def small_graphs():
    """Hypothesis strategy for small graphs with weights."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=7))
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots))
                      if slots else st.just([]))
        profits = draw(st.lists(st.integers(min_value=0, max_value=5),
                                min_size=len(picked), max_size=len(picked)))
        costs = draw(st.lists(st.integers(min_value=0, max_value=4),
                              min_size=n, max_size=n))
        edges = [(u, v, p) for (u, v), p in zip(picked, profits)]
        return make_graph(n, edges, costs)
    return build()


@st.composite
def malformed_graphs(draw):
    """Hand-built graphs that skip ``make_graph``: endpoints out of range,
    self-loops, unnormalized and parallel edges, edge entries that are no
    ``(u, v, profit)`` tuple, negative weights, and adjacency lists with
    missing, duplicated and foreign entries."""
    n = draw(st.integers(min_value=0, max_value=6))
    ends = st.integers(min_value=-1, max_value=n)
    edges = draw(st.lists(st.tuples(ends, ends, st.integers(min_value=-1, max_value=3)),
                          max_size=8))
    adjacency = [[] for _ in range(n)]
    for e, (u, v, _) in enumerate(edges):
        for x in ((u,) if u == v else (u, v)):
            if 0 <= x < n and draw(st.integers(min_value=0, max_value=9)):
                adjacency[x].append(e)
    for adj in adjacency:
        adj += draw(st.lists(st.integers(min_value=-1, max_value=len(edges)), max_size=2))
    adjacency = [tuple(draw(st.permutations(adj))) for adj in adjacency]
    # About one entry in ten loses its shape; adjacency lists may still name it.
    edges = [draw(st.sampled_from([edge[:1], edge[:2], edge + (0,), list(edge), edge[0], None]))
             if not draw(st.integers(min_value=0, max_value=9)) else edge for edge in edges]
    costs = draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=n, max_size=n))
    if not draw(st.integers(min_value=0, max_value=19)):
        costs.append(1)
    return Graph(n=n, edges=tuple(edges), costs=tuple(costs), adjacency=tuple(adjacency))


@st.composite
def mistyped_graphs(draw):
    """``malformed_graphs`` with one endpoint, profit, cost or adjacency entry
    made a float, which ``make_graph`` would refuse."""
    g = draw(malformed_graphs())
    triples = [e for e, edge in enumerate(g.edges) if isinstance(edge, tuple) and len(edge) == 3]
    edges, costs = list(g.edges), list(g.costs)
    for e in triples:
        edges[e] = list(edges[e])
    adjacency = [list(adj) for adj in g.adjacency]
    slots = ([(edges[e], i) for e in triples for i in range(3)]
             + [(costs, v) for v in range(len(costs))]
             + [(adj, i) for adj in adjacency for i in range(len(adj))])
    if slots:
        row, i = draw(st.sampled_from(slots))
        row[i] = row[i] + draw(st.sampled_from([0.0, 0.5]))
    for e in triples:
        edges[e] = tuple(edges[e])
    return Graph(n=g.n, edges=tuple(edges), costs=tuple(costs),
                 adjacency=tuple(map(tuple, adjacency)))


class TestCheckGraph:
    @settings(max_examples=300)
    @given(malformed_graphs())
    def test_matches_quadratic_reference(self, g):
        assert check_graph(g) == check_graph_reference(g)

    @settings(max_examples=300)
    @given(mistyped_graphs())
    def test_matches_quadratic_reference_on_non_integer_values(self, g):
        assert check_graph(g) == check_graph_reference(g)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            make_graph(2, [(0, 0)])

    def test_rejects_parallel_edges_either_orientation(self):
        with pytest.raises(InputError):
            make_graph(2, [(0, 1), (1, 0)])

    def test_rejects_negative_weights(self):
        with pytest.raises(InputError):
            make_graph(2, [(0, 1, -1)])
        with pytest.raises(InputError):
            make_graph(2, [], costs=[1, -2])

    # Unpacking such an item raises a bare ValueError; the builder must name
    # the item as malformed input.
    @pytest.mark.parametrize("item", [(0,), (0, 1, 2, 3)])
    def test_rejects_edge_of_wrong_shape(self, item):
        with pytest.raises(InputError, match=r"edge must be \(u, v\) or \(u, v, profit\)"):
            make_graph(2, [item])

    def test_adjacency_lists_both_endpoints(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert g.adjacency == ((0,), (0, 1), (1,))


class TestWeightedDegree:
    def test_isolated_vertex_is_zero(self):
        g = make_graph(2, [])
        assert weighted_degree(g, 0) == 0

    def test_path_center(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert weighted_degree(g, 1) == 2

    def test_star_center_sums_profits(self):
        g = star((1, 2, 3))
        assert weighted_degree(g, 0) == 1 + 2 + 3

    def test_invalid_vertex(self):
        g = make_graph(2, [])
        with pytest.raises(InputError):
            weighted_degree(g, 5)

    def test_bulk_matches_single(self):
        g = star((1, 2, 3))
        assert weighted_degrees(g) == [weighted_degree(g, v) for v in range(g.n)]


class TestCoverage:
    def test_empty_selection(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert coverage(g, set()) == (frozenset(), 0)

    def test_path_center_covers_both(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        covered, profit = coverage(g, {1})
        assert covered == frozenset({0, 1}) and profit == 2

    def test_each_edge_counted_once(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        covered, profit = coverage(g, {0, 1})
        assert profit == 2 and covered == frozenset({0, 1})

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_monotone_and_marginal_bound(self, g, data):
        smaller = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        _, p_small = coverage(g, smaller)
        _, p_big = coverage(g, smaller | extra)
        assert p_small <= p_big
        v = data.draw(st.integers(0, g.n - 1))
        covered, base = coverage(g, smaller)
        _, with_v = coverage(g, smaller | {v})
        gain = with_v - base
        assert gain <= weighted_degree(g, v)
        # equality exactly when the already-covered edges at v carry no profit
        overlap = sum(g.profit(e) for e in g.adjacency[v] if e in covered)
        assert (gain == weighted_degree(g, v)) == (overlap == 0)


class TestBipartition:
    def test_single_edge(self):
        bp = bipartition(make_graph(2, [(0, 1)]))
        assert isinstance(bp, Bipartition)
        assert bp.side[0] != bp.side[1]

    def test_triangle_returns_odd_cycle(self):
        out = bipartition(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert isinstance(out, NotBipartite)
        assert len(out.odd_cycle) == 3
        assert set(out.odd_cycle) == {0, 1, 2}

    def test_c4_alternates(self):
        bp = bipartition(c4())
        assert isinstance(bp, Bipartition)
        assert sorted([len(bp.left()), len(bp.right())]) == [2, 2]
        for u, v, _ in c4().edges:
            assert bp.side[u] != bp.side[v]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_deterministic_and_witness_valid(self, g):
        first = bipartition(g)
        second = bipartition(g)
        assert first == second
        if isinstance(first, Bipartition):
            for u, v, _ in g.edges:
                assert first.side[u] != first.side[v]
        else:
            cyc = first.odd_cycle
            assert len(cyc) % 2 == 1
            assert len(set(cyc)) == len(cyc)
            pairs = {(u, v) for u, v, _ in g.edges} | {(v, u) for u, v, _ in g.edges}
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert (a, b) in pairs

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        # Mostly bipartite by construction, so the labeling is compared too;
        # a few extra edges may close odd cycles.
        n = data.draw(st.integers(min_value=0, max_value=30))
        side = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        cross = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j]]
        rest = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] == side[j]]
        picked = data.draw(st.lists(st.sampled_from(cross), unique=True, max_size=40)
                           if cross else st.just([]))
        picked += data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=2)
                            if rest else st.just([]))
        g = make_graph(n, data.draw(st.permutations(picked)))
        assert bipartition(g) == bipartition_reference(g)


class TestMatchingAndCover:
    def test_empty_graph(self):
        g = make_graph(3, [])
        bp = bipartition(g)
        mat = max_matching(g, bp)
        assert mat.size == 0 and mat.edge_ids == frozenset()
        assert min_vertex_cover(g, bp, mat) == frozenset()

    def test_c4_perfect_matching(self):
        g = c4()
        bp = bipartition(g)
        mat = max_matching(g, bp)
        assert mat.size == 2 == brute_force_matching_size(g)
        cover = min_vertex_cover(g, bp, mat)
        assert len(cover) == 2
        assert all(u in cover or v in cover for u, v, _ in g.edges)

    def test_star_matches_once_covers_center(self):
        g = star((1, 1, 1))
        bp = bipartition(g)
        mat = max_matching(g, bp)
        assert mat.size == 1
        assert min_vertex_cover(g, bp, mat) == frozenset({0})

    def test_matching_edges_disjoint(self):
        g = c4()
        mat = max_matching(g, bipartition(g))
        seen = set()
        for e in mat.edge_ids:
            u, v, _ = g.edges[e]
            assert u not in seen and v not in seen
            seen.update((u, v))

    def test_konig_on_random_bipartite(self):
        import random
        for seed in range(120):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            left = rng.randint(1, n - 1)
            slots = [(i, j) for i in range(left) for j in range(left, n)]
            m = rng.randint(0, len(slots))
            g = make_graph(n, sorted(rng.sample(slots, m)))
            bp = bipartition(g)
            mat = max_matching(g, bp)
            assert mat.size == brute_force_matching_size(g)
            assert mat.size == brute_force_cover_number(g)
            cover = min_vertex_cover(g, bp, mat)
            assert len(cover) == mat.size
            assert all(u in cover or v in cover for u, v, _ in g.edges)


    @settings(max_examples=300)
    @given(st.data())
    def test_matches_recursive_reference(self, data):
        # Sides drawn per vertex, so left and right ids interleave and the
        # greedy first phase leaves augmenting paths of several edges.
        n = data.draw(st.integers(min_value=0, max_value=14))
        side = data.draw(st.lists(st.sampled_from([LEFT, RIGHT]), min_size=n, max_size=n))
        slots = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
        keep = data.draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        g = make_graph(n, [slot for slot, kept in zip(slots, keep) if kept])
        bp = Bipartition(side=tuple(side))
        assert max_matching(g, bp) == max_matching_reference(g, bp)

    def test_augmenting_path_longer_than_recursion_limit(self):
        g = long_augmenting_path(1500)
        mat = max_matching(g, bipartition(g))
        assert mat.size == 1500
        assert mat.edge_ids == frozenset(range(1500))  # every (i, R(i)) edge


class TestEdgeSubgraph:
    def test_maps_edge_ids_back(self):
        g = c4()
        sub, back = edge_subgraph(g, {1, 3})
        assert sub.n == g.n and sub.m == 2
        assert [g.edges[b] for b in back] == list(sub.edges)
