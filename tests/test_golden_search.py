"""The search solvers reproduce their golden records exactly.

``golden_search.json`` holds verdict, witness, fractional part (or, for the
matching-constrained solver, the reported matching), ``nodes_expanded`` and
``max_depth`` per instance; ``make_golden_search.py``
builds the corpus and wrote the file.
"""

import json

import pytest

from make_golden_search import GOLDEN, build, record

CASES = json.loads(GOLDEN.read_text())["cases"]


@pytest.mark.parametrize("kind", ["criterion", "grid", "path", "tree", "pvcbm"])
def test_search_matches_golden_records(kind):
    cases = [case for case in CASES if case["source"][0] == kind]
    assert cases
    for case in cases:
        src = case["source"]
        want = {key: value for key, value in case.items() if key != "source"}
        assert record(src[1], build(src)) == want, src
