"""Bench harness: run solver grids and hold node counts to their theoretical bounds.

Each row records the branching statistics of one seeded run next to the node
bound its parameterization promises. A row above its bound is a correctness
failure of the suite; wall time is reported but never gated. A bound is kept
as a ``(base, exponent)`` pair and printed as ``base^exponent``: expanded, it
would have thousands of digits at moderate grid values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branching import solve_epvcbd, solve_wpvc_bounded_degree, solve_wpvc_by_L
from .errors import InputError
from .generators import (grid_bounded_degree_case, grid_profit_target_case,
                         grid_unit_cost_case)


def unit_cost_node_bound(budget: int) -> tuple[int, int]:
    return 2 * budget, budget


def bounded_degree_node_bound(budget: int, degree_bound: int) -> tuple[int, int]:
    return (degree_bound + 1) * budget, budget


def profit_target_node_bound(target: int) -> tuple[int, int]:
    return target, 4 * target


def _at_most_power(nodes: int, base: int, exponent: int) -> bool:
    """Whether ``nodes <= base ** exponent``, exactly. The power is expanded
    only when its exponent is below the bit length of ``nodes``; otherwise a
    base of at least 2 settles it."""
    if base >= 2 and exponent >= nodes.bit_length():
        return True
    return nodes <= base ** exponent


@dataclass(frozen=True)
class BenchRow:
    alg: str
    seed: int
    n: int
    m: int
    param: str
    value: int
    verdict: bool
    nodes_expanded: int
    max_depth: int
    wall_ms: float
    bound: tuple[int, int]
    ok: bool


def default_config() -> dict:
    return {
        "runs": [
            {"alg": "epvcbd", "grid": [1, 2, 3, 4], "seeds": [0, 1, 2]},
            {"alg": "bounded-degree", "grid": [1, 2, 3, 4], "seeds": [0, 1, 2],
             "degree_bound": 3},
            {"alg": "by-L", "grid": [2, 3, 4, 5], "seeds": [0, 1, 2]},
        ]
    }


def _run_one(alg: str, seed: int, value: int, degree_bound: int) -> BenchRow:
    if alg == "epvcbd":
        inst = grid_unit_cost_case(seed, value)
        rep = solve_epvcbd(inst)
        param = "budget"
        bound = unit_cost_node_bound(value)
        depth_ok = rep.max_depth <= value
    elif alg == "bounded-degree":
        inst = grid_bounded_degree_case(seed, value, degree_bound)
        rep = solve_wpvc_bounded_degree(inst, degree_bound)
        param = "budget"
        bound = bounded_degree_node_bound(value, degree_bound)
        depth_ok = rep.max_depth <= value
    elif alg == "by-L":
        inst = grid_profit_target_case(seed, value)
        rep = solve_wpvc_by_L(inst)
        param = "target"
        bound = profit_target_node_bound(value)
        depth_ok = rep.max_depth <= max(2 * value - 1, 0)
    else:
        raise InputError("unknown bench algorithm %r" % alg)
    return BenchRow(
        alg=alg,
        seed=seed,
        n=inst.graph.n,
        m=inst.graph.m,
        param=param,
        value=value,
        verdict=rep.verdict,
        nodes_expanded=rep.nodes_expanded,
        max_depth=rep.max_depth,
        wall_ms=rep.wall_time * 1000.0,
        bound=bound,
        ok=_at_most_power(rep.nodes_expanded, *bound) and depth_ok,
    )


def _check_run(entry) -> None:
    """Raise InputError unless ``entry`` is a run of a suite config."""
    if not isinstance(entry, dict) or "alg" not in entry:
        raise InputError("each bench run must be an object with an 'alg'")
    for key in ("grid", "seeds"):
        if not (isinstance(entry.get(key), list) and all(type(x) is int for x in entry[key])):
            raise InputError("bench run needs %r, a list of integers" % key)
    bound = entry.get("degree_bound", 3)
    if type(bound) is not int or bound < 1:
        raise InputError("bench run 'degree_bound' must be a positive integer")


def run_config(config: dict) -> list[BenchRow]:
    runs = config.get("runs", []) if isinstance(config, dict) else None
    if not isinstance(runs, list):
        raise InputError("bench config must be an object whose 'runs' is a list")
    for entry in runs:
        _check_run(entry)
    rows = []
    for entry in runs:
        alg = entry["alg"]
        degree_bound = entry.get("degree_bound", 3)
        for value in entry["grid"]:
            for seed in entry["seeds"]:
                rows.append(_run_one(alg, seed, value, degree_bound))
    return rows


def format_table(rows) -> str:
    headers = ["alg", "seed", "n", "m", "param", "value", "verdict",
               "nodes", "depth", "bound", "wall_ms", "ok"]
    table = [headers]
    for r in rows:
        table.append([r.alg, str(r.seed), str(r.n), str(r.m), r.param,
                      str(r.value), "yes" if r.verdict else "no",
                      str(r.nodes_expanded), str(r.max_depth), "%d^%d" % r.bound,
                      "%.2f" % r.wall_ms, "ok" if r.ok else "VIOLATION"])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines)
