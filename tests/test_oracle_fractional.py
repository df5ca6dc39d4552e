"""The one-fractional-vertex oracle: its reports against a frozen copy of the
version that tested every candidate in Fraction arithmetic, tie cases that
must be a yes, and a guard that a Fraction is built only for a witness."""

from fractions import Fraction

import frozen_fractional
import pytest

from helpers import random_instance
from pvckit import make_instance, pendantize, reduce_mcq_to_wpvcbd
from pvckit import oracle
from pvckit.generators import fractional_case, random_mcq
from pvckit.oracle import oracle_fractional


def _fields(rep):
    """Every report field but the wall time, with the witness's number types:
    ``Fraction(2) == 2``, so a cost or profit that changed type would still
    compare equal."""
    sol = rep.witness
    types = None if sol is None else (type(sol.cost), type(sol.profit))
    return rep.verdict, sol, types, rep.nodes_expanded, rep.max_depth, rep.matching_edge_ids


def differs(inst) -> bool:
    return _fields(oracle_fractional(inst)) != _fields(frozen_fractional.oracle_fractional(inst))


def weighted_case(seed):
    """A weighted bipartite graph on at most 9 vertices with costs 0-9, so
    that most vertices cost more than what a subset leaves of the budget."""
    return random_instance(seed, n_max=9, cost_min=0, cost_max=9, profit_max=5, bipartite=True)


@pytest.mark.parametrize("first", range(0, 2000, 500))
def test_recipe_seeds_report_as_the_frozen_oracle(first):
    assert [seed for seed in range(first, first + 500) if differs(fractional_case(seed))] == []


@pytest.mark.parametrize("first", range(0, 3000, 1000))
def test_weighted_graphs_report_as_the_frozen_oracle(first):
    assert [seed for seed in range(first, first + 1000) if differs(weighted_case(seed))] == []


# (name, n, edges, costs, budget, target)
EDGE_CASES = [
    ("budget-0", 3, [(0, 1, 2), (1, 2, 3)], [1, 2, 3], 0, 1),
    ("budget-0-free-vertex", 3, [(0, 1, 2), (1, 2, 3)], [1, 0, 3], 0, 5),
    ("target-0", 2, [(0, 1, 4)], [2, 2], 1, 0),
    ("target-0-budget-0", 2, [(0, 1, 4)], [2, 2], 0, 0),
    ("zero-costs-then-fraction", 4, [(0, 2, 1), (1, 3, 6), (0, 3, 2)], [0, 3, 0, 5], 2, 7),
    ("all-zero-costs", 3, [(0, 1, 1), (1, 2, 1)], [0, 0, 0], 0, 2),
    ("zero-profit-edges", 3, [(0, 1, 0), (1, 2, 0)], [2, 3, 2], 1, 1),
    ("no-edges", 3, [], [2, 3, 4], 2, 0),
    ("no-edges-positive-target", 3, [], [2, 3, 4], 2, 1),
    ("fraction-cannot-reach", 2, [(0, 1, 4)], [2, 2], 1, 3),
]


@pytest.mark.parametrize("n, edges, costs, budget, target",
                         [case[1:] for case in EDGE_CASES], ids=[case[0] for case in EDGE_CASES])
def test_edge_cases_report_as_the_frozen_oracle(n, edges, costs, budget, target):
    assert not differs(make_instance(n, edges, costs, budget=budget, target=target))


# Each case reaches its target exactly: profit * c + spare * sole == target * c
# for the witness, and no earlier subset or vertex gets there.
# (name, n, edges, costs, budget, target, integral part, fractional part)
# (A tie on the empty subset is TestOracleFractional.test_half_vertex_reaches_two.)
TIES = [
    # {0} covers 2 and leaves 2 of budget; two thirds of vertex 2's edge of
    # 6 reach 6: 2 * 3 + 2 * 6 == 6 * 3. The integral {2} comes later.
    ("after-one-vertex", 3, [(0, 1, 2), (1, 2, 6)], [1, 10, 3], 3, 6, {0}, (2, Fraction(2, 3))),
    # {0} covers the edge {0, 1}, so a fifth of vertex 1 adds only its edge
    # to 2: 7 * 5 + 1 * 5 == 8 * 5.
    ("sole-profit-only", 3, [(0, 1, 7), (1, 2, 5)], [1, 5, 9], 2, 8, {0}, (1, Fraction(1, 5))),
]


@pytest.mark.parametrize("n, edges, costs, budget, target, integral, fractional",
                         [case[1:] for case in TIES], ids=[case[0] for case in TIES])
def test_an_exact_tie_is_a_yes(n, edges, costs, budget, target, integral, fractional):
    inst = make_instance(n, edges, costs, budget=budget, target=target)
    rep = oracle_fractional(inst)
    assert rep.verdict and rep.witness.profit == target
    assert (rep.witness.vertices, rep.witness.fractional) == (integral, fractional)
    assert _fields(rep) == _fields(frozen_fractional.oracle_fractional(inst))


def test_pendantized_gadget_reports_as_the_frozen_oracle():
    # About 2,900 vertices, nearly all pendants too dear to take even in
    # part: a fractional yes, with one copy vertex whole and one in part.
    inst = pendantize(reduce_mcq_to_wpvcbd(random_mcq(1, 2, 3, edge_prob=0.05,
                                                      plant=False))).instance
    rep = oracle_fractional(inst)
    assert rep.verdict and rep.witness.fractional is not None
    assert _fields(rep) == _fields(frozen_fractional.oracle_fractional(inst))


def test_a_fraction_is_built_only_for_a_fractional_witness(monkeypatch):
    built = 0

    def counting(*args):
        nonlocal built
        built += 1
        return Fraction(*args)

    monkeypatch.setattr(oracle, "Fraction", counting)
    cases = [fractional_case(seed) for seed in range(500)]
    cases += [weighted_case(seed) for seed in range(500)]
    fractional_yes = 0
    for inst in cases:
        built = 0
        rep = oracle_fractional(inst)
        assert built == (rep.verdict and rep.witness.fractional is not None)
        fractional_yes += built
    assert fractional_yes > 50  # the guard sees many fractional witnesses
