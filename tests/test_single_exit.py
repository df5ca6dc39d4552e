"""Each public solver makes its report in one place, once.

A search returns only the vertices it forced; ``instance._report`` builds the
witness with ``make_solution``, checks it with ``_witness_problem`` and makes
the ``SolveReport``. So on every solve, each of the two runs once on a yes,
on the solver's own input graph, and never on a no, inside a nested search
or on the fractional solver's expansion. The cover oracles report through
the same helper, on their own input graph. The AST guard keeps the solver
and oracle modules from building or checking a report themselves again.
"""

import ast
from pathlib import Path

import pytest

from pvckit import (branching, fractional, instance, pvcbm, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd)
from pvckit.generators import (bounded_degree_case, fractional_case, general_graph_case,
                               matching_constrained_case, unit_cost_bipartite_case)
from pvckit.oracle import oracle_fractional, oracle_pvcbm, oracle_wpvc

SRC = Path(__file__).resolve().parent.parent / "src" / "pvckit"
SOLVER_MODULES = (instance, branching, fractional, pvcbm)
REPORT_CALLS = ("SolveReport", "make_solution", "_witness_problem")

# Per recipe at seeds 0-299: the solve, as (graph, call), and its yes count.
RECIPES = {
    "epvcbd": (lambda s: _on(unit_cost_bipartite_case(s), solve_epvcbd), 212),
    "bounded-degree": (lambda s: _on(bounded_degree_case(s), solve_wpvc_bounded_degree, 3), 184),
    "by-L": (lambda s: _on(general_graph_case(s), solve_wpvc_by_L), 170),
    "fractional": (lambda s: _on(fractional_case(s), solve_wpvcbfd), 147),
    "pvcbm": (lambda s: _on_pvcbm(*matching_constrained_case(s)), 58),
}


def _on(inst, solve, *args):
    return inst.graph, lambda: solve(inst, *args)


def _on_pvcbm(g, k1, k2, k3):
    return g, lambda: solve_pvcbm(g, k1, k2, k3)


@pytest.fixture
def calls(monkeypatch):
    """Wrap each name where the solver modules look it up; yields a map from
    name to the graphs it was called on, in order."""
    seen = {name: [] for name in ("make_solution", "_witness_problem", "coverage")}
    for name, graphs in seen.items():
        for module in SOLVER_MODULES:
            if hasattr(module, name):
                fn = getattr(module, name)

                def counted(g, *args, _fn=fn, _graphs=graphs, **kwargs):
                    _graphs.append(g)
                    return _fn(g, *args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return seen


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_witness_built_and_checked_once_per_yes(recipe, calls):
    case, want_yes = RECIPES[recipe]
    yes = 0
    for seed in range(300):
        g, solve = case(seed)
        for graphs in calls.values():
            graphs.clear()
        rep = solve()
        yes += rep.verdict
        for name in ("make_solution", "_witness_problem"):
            assert len(calls[name]) == rep.verdict, "%s seed %d: %s" % (recipe, seed, name)
            assert all(h is g for h in calls[name]), "%s seed %d: %s" % (recipe, seed, name)
        if recipe == "pvcbm":
            # One coverage for the covered edge ids, one in the report's witness.
            assert len(calls["coverage"]) <= 1 + rep.verdict, "seed %d" % seed
    assert yes == want_yes


# The oracles report through the same helper: per recipe, the oracle and the
# solver's yes count, which the oracle must match.
ORACLE_RECIPES = {
    "unit-cost": (lambda s: _on(unit_cost_bipartite_case(s), oracle_wpvc), 212),
    "fractional": (lambda s: _on(fractional_case(s), oracle_fractional), 147),
    "matching": (lambda s: _on_oracle_pvcbm(*matching_constrained_case(s)), 58),
}


def _on_oracle_pvcbm(g, k1, k2, k3):
    return g, lambda: oracle_pvcbm(g, k1, k2, k3)


@pytest.mark.parametrize("recipe", sorted(ORACLE_RECIPES))
def test_oracle_witness_built_and_checked_once_per_yes(recipe, calls):
    case, want_yes = ORACLE_RECIPES[recipe]
    yes = 0
    for seed in range(300):
        g, decide = case(seed)
        for graphs in calls.values():
            graphs.clear()
        rep = decide()
        yes += rep.verdict
        for name in ("make_solution", "_witness_problem"):
            assert len(calls[name]) == rep.verdict, "%s seed %d: %s" % (recipe, seed, name)
            assert all(h is g for h in calls[name]), "%s seed %d: %s" % (recipe, seed, name)
    assert yes == want_yes


def report_calls(source, filename="<source>"):
    """(name, line) of each call to a report-building name in ``source``,
    whether called bare or as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in REPORT_CALLS:
                found.append((name, node.lineno))
    return found


@pytest.mark.parametrize("filename", ["branching.py", "fractional.py", "oracle.py", "pvcbm.py"])
def test_solver_modules_leave_reports_to_instance(filename):
    assert report_calls((SRC / filename).read_text(), filename) == []


def test_guard_sees_bare_and_attribute_calls():
    source = '''
from . import instance
from .instance import SolveReport, make_solution


def solve(g) -> SolveReport:
    sol = make_solution(g, [])
    problem = instance._witness_problem(g, 0, 0, sol)
    return SolveReport(True, sol, 0, 0, 0.0) if problem is None else None
'''
    assert report_calls(source) == [("make_solution", 7), ("_witness_problem", 8),
                                    ("SolveReport", 9)]
