"""The matching-constrained oracle: its reports against a frozen copy of the
version that ran Hopcroft-Karp on every subset covering k2 edges, the subsets
it passes over, and the laws its verdict obeys when the parameters move."""

import itertools

import frozen_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import c4, long_augmenting_path, star
from pvckit import make_graph, max_matching, solve_pvcbm
from pvckit import oracle
from pvckit.generators import matching_constrained_case
from pvckit.oracle import oracle_pvcbm


def _fields(rep):
    return (rep.verdict, rep.witness, rep.nodes_expanded, rep.max_depth,
            rep.matching_edge_ids)


def test_reports_equal_the_frozen_oracle_on_recipe_seeds():
    differ = [seed for seed in range(2000)
              if _fields(oracle_pvcbm(*matching_constrained_case(seed)))
              != _fields(frozen_oracle.oracle_pvcbm(*matching_constrained_case(seed)))]
    assert differ == []


# (name, graph, k1, k2, k3, verdict, subsets examined, largest subset tried)
HAND_MADE = [
    # k3 > k1 with k2 = 0: every subset of at most one vertex is examined.
    ("k3-above-k1", c4(), 1, 0, 2, False, 5, 1),
    ("k3-above-k1-star", star((1, 1, 1)), 2, 0, 3, False, 11, 2),
    ("k3-zero", star((1, 1, 1)), 1, 3, 0, True, 2, 1),
    ("k3-zero-k2-zero", c4(), 2, 0, 0, True, 1, 0),
    ("no-edges-yes", make_graph(4, []), 2, 0, 0, True, 1, 0),
    ("no-edges-k2", make_graph(4, []), 2, 1, 0, False, 11, 2),
    ("no-edges-k3", make_graph(4, []), 4, 0, 1, False, 16, 4),
    # The whole star has matching number 1, so no subset reaches k3 = 2.
    ("matching-number-below-k3", star((1, 1, 1)), 4, 0, 2, False, 16, 4),
    ("c4-two-corners", c4(), 2, 4, 2, True, 7, 2),
    ("long-path", long_augmenting_path(4), 4, 7, 4, True, 131, 4),
]


@pytest.mark.parametrize("g, k1, k2, k3, verdict, examined, depth",
                         [case[1:] for case in HAND_MADE], ids=[case[0] for case in HAND_MADE])
def test_hand_made_cases_equal_the_frozen_oracle(g, k1, k2, k3, verdict, examined, depth):
    rep = oracle_pvcbm(g, k1, k2, k3)
    assert _fields(rep) == _fields(frozen_oracle.oracle_pvcbm(g, k1, k2, k3))
    assert (rep.verdict, rep.nodes_expanded, rep.max_depth) == (verdict, examined, depth)


def test_hopcroft_karp_runs_only_on_subsets_that_can_reach_k3(monkeypatch):
    runs = 0

    def counting(g, bp):
        nonlocal runs
        runs += 1
        return max_matching(g, bp)

    monkeypatch.setattr(oracle, "max_matching", counting)
    for seed in range(300):
        g, k1, k2, k3 = matching_constrained_case(seed)
        runs = 0
        rep = oracle_pvcbm(g, k1, k2, k3)
        tried = itertools.islice(frozen_oracle._covers(g, g.vertices(), (1,) * g.n, k1),
                                 rep.nodes_expanded)
        expected = sum(1 for combo, mask in tried
                       if len(combo) >= k3 and mask.bit_count() >= k2)
        assert runs == expected, seed
        if k3 > k1:
            assert runs == 0 and not rep.verdict


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), more=st.integers(1, 3), fewer=st.integers(1, 5))
def test_a_yes_survives_looser_parameters(seed, more, fewer):
    g, k1, k2, k3 = matching_constrained_case(seed)
    rep = oracle_pvcbm(g, k1, k2, k3)
    assert rep.verdict == solve_pvcbm(g, k1, k2, k3).verdict
    if rep.verdict:
        assert oracle_pvcbm(g, k1 + more, k2, k3).verdict
        assert oracle_pvcbm(g, k1, max(0, k2 - fewer), k3).verdict
        assert oracle_pvcbm(g, k1, k2, max(0, k3 - fewer)).verdict

