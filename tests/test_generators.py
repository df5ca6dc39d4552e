import random
import tracemalloc

import pytest

from helpers import random_bipartite_graph_reference

from pvckit import InputError, validate, write_mcq, write_wpvc
from pvckit.generators import (bounded_degree_case, fractional_case,
                               general_graph_case, matching_constrained_case,
                               random_bipartite_graph, random_bounded_degree_graph,
                               random_mcq, unit_cost_bipartite_case)
from pvckit.instance import WpvcInstance, infer_variant
from pvckit.oracle import oracle_mcq
from pvckit.graph import Bipartition, bipartition


def test_bipartite_generator_is_deterministic():
    a = random_bipartite_graph(7, 8, 12)
    b = random_bipartite_graph(7, 8, 12)
    assert a == b
    inst = WpvcInstance(a, 3, 5, infer_variant(a), True)
    assert write_wpvc(inst) == write_wpvc(WpvcInstance(b, 3, 5, infer_variant(b), True))


def test_bipartite_generator_output_is_bipartite():
    for seed in range(20):
        g = random_bipartite_graph(seed, 9, 8, cost_max=3, profit_max=4)
        assert isinstance(bipartition(g), Bipartition)


def test_bipartite_generator_rejects_overfull():
    with pytest.raises(InputError):
        random_bipartite_graph(0, 2, 2)  # one slot only


def test_bipartite_generator_draws_as_the_slot_list_did():
    rng = random.Random(2024)
    for _ in range(2500):
        n = rng.randint(0, 40)
        m = rng.randint(0, (n // 2) * (n - n // 2))
        args = (rng.randrange(10**6), n, m, rng.randint(1, 4), rng.randint(1, 4))
        assert random_bipartite_graph(*args) == random_bipartite_graph_reference(*args), args


def test_bipartite_generator_memory_does_not_grow_with_the_slots():
    # Seed 0 splits off 1578 left vertices: a list of all 2.2 million slot
    # pairs would peak at about 200 MiB.
    tracemalloc.start()
    try:
        g = random_bipartite_graph(0, 3000, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 10
    assert peak < 5 * 2**20


def test_degree_bound_is_respected():
    for seed in range(20):
        g = random_bounded_degree_graph(seed, 10, 12, 3)
        assert g.max_degree() <= 3
        assert g.m == 12


def test_degree_bound_infeasible_is_error():
    with pytest.raises(InputError):
        random_bounded_degree_graph(0, 3, 4, 1)


@pytest.mark.parametrize("caps", [(0, 1), (1, 0), (-2, 3)])
def test_weight_caps_below_one_are_errors(caps):
    cost_max, profit_max = caps
    with pytest.raises(InputError):
        random_bipartite_graph(0, 6, 4, cost_max=cost_max, profit_max=profit_max)
    with pytest.raises(InputError):
        random_bounded_degree_graph(0, 6, 4, 3, cost_max=cost_max, profit_max=profit_max)


@pytest.mark.parametrize("edge_prob", [2.0, -0.1, float("nan"), float("inf")])
def test_mcq_edge_probability_outside_unit_interval_is_error(edge_prob):
    with pytest.raises(InputError):
        random_mcq(0, k=2, class_size=2, edge_prob=edge_prob)


def test_mcq_planted_is_yes():
    for seed in range(10):
        mcq = random_mcq(seed, k=3, class_size=2, edge_prob=0.2, plant=True)
        assert oracle_mcq(mcq).yes
        assert write_mcq(mcq) == write_mcq(random_mcq(seed, k=3, class_size=2,
                                                      edge_prob=0.2, plant=True))


def test_case_samplers_produce_valid_instances():
    for seed in range(25):
        for sampler in (unit_cost_bipartite_case, bounded_degree_case,
                        general_graph_case, fractional_case):
            inst = sampler(seed)
            assert validate(inst) == []
        g, k1, k2, k3 = matching_constrained_case(seed)
        assert min(k1, k2, k3) >= 0
        assert isinstance(bipartition(g), Bipartition)
