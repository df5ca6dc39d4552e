"""The search solvers reproduce their golden records exactly.

``golden_search.json`` holds verdict, witness, fractional part (or, for the
matching-constrained solver, the reported matching), ``nodes_expanded`` and
``max_depth`` per instance; ``make_golden_search.py``
builds the corpus and wrote the file. The records also hold with the
bound of every search node checked against the sort it replaced: the ordered
view on, and the reference sort over the same weights with the view off.
"""

import json

import pytest

from make_golden_search import GOLDEN, build, record
from pvckit import branching
from test_kernel_gate import checked_bound

CASES = json.loads(GOLDEN.read_text())["cases"]
KINDS = ["criterion", "grid", "path", "tree", "pvcbm"]


@pytest.mark.parametrize("kind", KINDS)
def test_search_matches_golden_records(kind):
    check_records(kind)


@pytest.mark.parametrize("mode", ["view"])
@pytest.mark.parametrize("kind", KINDS)
def test_golden_records_hold_with_the_view_on_and_off(monkeypatch, kind, mode):
    """At every node of the golden searches that takes a bound, the view
    equals one built afresh and its bound equals the reference sort's (see
    :func:`test_kernel_gate.checked_bound`); the records still hold."""
    nodes = []
    monkeypatch.setattr(branching._OrderedView, "bound", checked_bound(nodes, brute_force=False))
    check_records(kind)
    assert nodes


def check_records(kind):
    cases = [case for case in CASES if case["source"][0] == kind]
    assert cases
    for case in cases:
        src = case["source"]
        want = {key: value for key, value in case.items() if key != "source"}
        assert record(src[1], build(src)) == want, src
