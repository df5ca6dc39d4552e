"""The search solvers reproduce their golden records exactly.

``golden_search.json`` holds verdict, witness, fractional part (or, for the
matching-constrained solver, the reported matching), ``nodes_expanded`` and
``max_depth`` per instance; ``make_golden_search.py``
builds the corpus and wrote the file. The records also hold with the
ordered view of the search kept on every search, and on none.
"""

import json
import sys

import pytest

from make_golden_search import GOLDEN, build, record
from pvckit import branching

CASES = json.loads(GOLDEN.read_text())["cases"]
KINDS = ["criterion", "grid", "path", "tree", "pvcbm"]


@pytest.mark.parametrize("kind", KINDS)
def test_search_matches_golden_records(kind):
    check_records(kind)


@pytest.mark.parametrize("keep_view_min_n", [0, sys.maxsize], ids=["view", "sort"])
@pytest.mark.parametrize("kind", KINDS)
def test_golden_records_hold_with_the_view_on_and_off(monkeypatch, kind, keep_view_min_n):
    monkeypatch.setattr(branching, "KEEP_VIEW_MIN_N", keep_view_min_n)
    check_records(kind)


def check_records(kind):
    cases = [case for case in CASES if case["source"][0] == kind]
    assert cases
    for case in cases:
        src = case["source"]
        want = {key: value for key, value in case.items() if key != "source"}
        assert record(src[1], build(src)) == want, src
