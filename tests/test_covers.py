"""The cover oracles' subset enumerator against a frozen copy of the one that
filtered every combination by cost: the same subsets, with the same edge
masks, in the same (size, lex) order. Every oracle report field (verdict,
witness, subsets examined, largest size tried) follows from that sequence."""

import random

import frozen_oracle
import pytest

from pvckit import make_graph, pendantize, reduce_mcq_to_wpvcbd
from pvckit.generators import random_mcq
from pvckit.oracle import _covers

SEEDS = 20_000
BLOCK = 5_000
# Zero costs twice as likely as any other: they keep every size affordable.
COSTS = (0, 0, 1, 2, 3, 5, 9)


def random_case(seed):
    """A graph on at most 10 vertices, a candidate list and a budget. The
    candidates are sometimes every vertex, unaffordable ones included (as
    ``oracle_pvcbm`` passes them), and otherwise a random ascending subset."""
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, rng.randint(0, 3)) for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
    g = make_graph(n, edges, [rng.choice(COSTS) for _ in range(n)])
    cands = g.vertices() if rng.random() < 0.3 else [v for v in g.vertices()
                                                      if rng.random() < 0.8]
    return g, cands, rng.randint(0, 12)


def differs(covers, g, cands, budget) -> bool:
    return list(covers(g, cands, g.costs, budget)) != list(
        frozen_oracle._covers(g, cands, g.costs, budget))


@pytest.mark.parametrize("first", range(0, SEEDS, BLOCK))
def test_random_graphs_enumerate_as_the_frozen_copy(first):
    bad = [seed for seed in range(first, first + BLOCK) if differs(_covers, *random_case(seed))]
    assert bad == []


def _gadgets():
    """Pendantized k=2 gadgets with and without a planted clique, and one
    before pendantizing (hub edges of large profit)."""
    out = []
    for seed, plant in ((0, True), (1, False), (2, False), (3, True)):
        red = reduce_mcq_to_wpvcbd(random_mcq(seed, 2, 3, edge_prob=0.5 if plant else 0.05,
                                              plant=plant))
        out.append(pytest.param(pendantize(red).instance,
                                id="seed%d-%s" % (seed, "planted" if plant else "sparse")))
    out.append(pytest.param(red.instance, id="seed3-hubs"))
    return out


@pytest.mark.parametrize("inst", _gadgets())
def test_k2_gadgets_enumerate_as_the_frozen_copy(inst):
    g = inst.graph
    for budget in (inst.budget, inst.budget // 2):
        cands = [v for v, c in enumerate(g.costs) if c <= budget]
        assert 0 < len(cands) <= 20
        assert not differs(_covers, g, cands, budget), budget


def _drops_the_empty_subset(g, cands, costs, budget):
    return (item for item in _covers(g, cands, costs, budget) if item[0])


def _walks_sizes_in_reverse(g, cands, costs, budget):
    return sorted(_covers(g, cands, costs, budget), key=lambda item: -len(item[0]))


def _misses_subsets_at_the_budget(g, cands, costs, budget):
    return (item for item in _covers(g, cands, costs, budget)
            if sum(costs[v] for v in item[0]) < budget)


def _drops_the_last_vertex_edges(g, cands, costs, budget):
    for combo, mask in _covers(g, cands, costs, budget):
        if combo:
            mask &= ~sum(1 << e for e in g.adjacency[combo[-1]])
        yield combo, mask


@pytest.mark.parametrize("mutant", [_drops_the_empty_subset, _walks_sizes_in_reverse,
                                    _misses_subsets_at_the_budget, _drops_the_last_vertex_edges])
def test_the_gate_rejects_a_broken_enumerator(mutant):
    assert any(differs(mutant, *random_case(seed)) for seed in range(500))
