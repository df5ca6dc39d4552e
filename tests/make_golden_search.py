"""Golden records for the search-based solvers: verdict, witness and search counts.

Writes ``tests/golden_search.json``. Run it from the root of a checkout:

    PYTHONPATH=src python3 tests/make_golden_search.py

``test_golden_search.py`` rebuilds the same corpus from the recorded sources,
re-solves every instance and compares the records exactly, so any change to
a verdict, a witness, ``nodes_expanded`` or ``max_depth`` shows as a diff.

The corpus is the criterion 1-4 acceptance instances, the bench grids, deep
unit paths, and seeded trees of 30-100 vertices at the yes/no boundary. The
acceptance instances hardly branch; the trees are kept only if the solve
expands at least ``MIN_NODES`` nodes, so the corpus exercises backtracking.
The recorded trees were picked by the node counts of the search before its
profit bound, and only their node fields were recorded again after it; so
running this script now would pick other trees, not just rewrite counts.
The fractional records' node fields were recorded once more when the
fractional solver began to search sections instead of the expansion's
copies (fewer nodes; every other field unchanged).

The matching-constrained solver has its own records, which also hold the
reported matching: the criterion 5 instances, and the first ``GROWTH_CASES``
instances from seed ``GROWTH_SEED`` on where the plain cover witness's
covered edges hold no matching of size k3 but the whole graph does, so the
solver has to grow them.
"""

import json
import random
from pathlib import Path

from pvckit import (Variant, WpvcInstance, bipartition, coverage, edge_subgraph,
                    infer_variant, make_graph, max_matching, solve_epvcbd, solve_pvcbm,
                    solve_wpvc_bounded_degree, solve_wpvc_by_L, solve_wpvcbfd)
from pvckit.bench import default_config
from pvckit.generators import (bounded_degree_case, fractional_case, general_graph_case,
                               grid_bounded_degree_case, grid_profit_target_case,
                               grid_unit_cost_case, matching_constrained_case,
                               unit_cost_bipartite_case)

GOLDEN = Path(__file__).with_name("golden_search.json")
SOLVERS = {
    "epvcbd": solve_epvcbd,
    "bounded-degree": lambda inst: solve_wpvc_bounded_degree(inst, 3),
    "by-L": solve_wpvc_by_L,
    "fractional": solve_wpvcbfd,
}
CRITERIA = {"epvcbd": (unit_cost_bipartite_case, 500),
            "bounded-degree": (bounded_degree_case, 500),
            "by-L": (general_graph_case, 500),
            "fractional": (fractional_case, 300)}
GRIDS = {"epvcbd": grid_unit_cost_case,
         "bounded-degree": grid_bounded_degree_case,
         "by-L": grid_profit_target_case}
PATHS = ((200, 100), (200, 99), (300, 150), (300, 149))
MIN_NODES = 20
TREES_PER_ALG = 13
BUDGETS = {"epvcbd": 6, "bounded-degree": 3, "fractional": 5}
PVCBM_CRITERION = 300
GROWTH_SEED = 1_000_000
GROWTH_CASES = 60


def tree(alg, seed):
    """Seeded random tree with weights for ``alg``: 40-100 vertices, or 30-50
    for the fractional solver, whose unit-copy expansion is larger.

    Bounded-degree and by-L trees keep every degree at most 3. The weighted
    solvers get two or three zero-cost vertices, so their free pass runs; by-L
    trees have unit profits with some zero-profit edges.
    """
    rng = random.Random("golden-tree:%s:%d" % (alg, seed))
    n = rng.randint(40, 100) if alg != "fractional" else rng.randint(30, 50)
    degree = [0] * n
    room = [0]
    pairs = []
    for v in range(1, n):
        i = rng.randrange(len(room))
        u = room[i]
        pairs.append((u, v))
        degree[u] += 1
        degree[v] += 1
        if alg in ("bounded-degree", "by-L") and degree[u] >= 3:
            room[i] = room[-1]
            room.pop()
        room.append(v)
    costs = [1 if alg == "epvcbd" else rng.randint(1, 2 if alg == "by-L" else 3)
             for _ in range(n)]
    if alg != "epvcbd":
        for v in rng.sample(range(n), 2 if alg == "by-L" else 3):
            costs[v] = 0
    profits = (0, 1, 1, 1) if alg == "by-L" else (1, 2, 3, 4)
    edges = [(u, v, rng.choice(profits)) for u, v in pairs]
    return make_graph(n, edges, costs)


def build(source):
    """The instance a recorded source names."""
    kind, alg = source[0], source[1]
    if kind == "pvcbm":
        return matching_constrained_case(source[2])
    if kind == "criterion":
        return CRITERIA[alg][0](source[2])
    if kind == "grid":
        return GRIDS[alg](source[2], source[3])
    if kind == "path":
        n, budget = source[2], source[3]
        g = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        return WpvcInstance(g, budget, n - 1, infer_variant(g), True)
    g = tree(alg, source[2])
    return WpvcInstance(g, source[3], source[4], infer_variant(g),
                        alg in ("epvcbd", "fractional"))


def record(alg, inst):
    if alg == "pvcbm":
        rep = solve_pvcbm(*inst)
        return {"verdict": rep.verdict,
                "witness": sorted(rep.witness.vertices) if rep.verdict else None,
                "matching_edge_ids": sorted(rep.matching_edge_ids) if rep.verdict else None,
                "nodes_expanded": rep.nodes_expanded,
                "max_depth": rep.max_depth}
    rep = SOLVERS[alg](inst)
    frac = None
    if rep.witness is not None and rep.witness.fractional is not None:
        v, extent = rep.witness.fractional
        frac = [v, str(extent)]
    return {"verdict": rep.verdict,
            "witness": sorted(rep.witness.vertices) if rep.verdict else None,
            "fractional": frac,
            "nodes_expanded": rep.nodes_expanded,
            "max_depth": rep.max_depth}


def grows(seed):
    """Whether the matching-constrained case ``seed`` grows its cover: k3 <= k1,
    the plain cover at budget k1 is a yes, the edges its witness covers hold no
    matching of size k3, and the whole graph does."""
    g, k1, k2, k3 = matching_constrained_case(seed)
    plain = solve_epvcbd(WpvcInstance(g, k1, k2, Variant.PVC, True))
    if k3 > k1 or not plain.verdict:
        return False
    bp = bipartition(g)
    sub, _ = edge_subgraph(g, coverage(g, plain.witness.vertices)[0])
    return max_matching(sub, bp).size < k3 <= max_matching(g, bp).size


def _boundary(alg, seed):
    """Yes/no sources at the boundary: best target at a fixed budget, or for
    by-L the least budget at a fixed target."""
    g = tree(alg, seed)
    bip = alg in ("epvcbd", "fractional")

    def yes(budget, target):
        return SOLVERS[alg](WpvcInstance(g, budget, target, infer_variant(g), bip)).verdict

    if alg == "by-L":
        target = 12 + seed % 3
        budget = next(b for b in range(1, 4 * target) if yes(b, target))
        return [("tree", alg, seed, budget, target), ("tree", alg, seed, budget - 1, target)]
    budget = BUDGETS[alg] + seed % 3
    lo, hi = 0, g.total_profit() + 1  # yes(lo), not yes(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if yes(budget, mid) else (lo, mid)
    return [("tree", alg, seed, budget, lo), ("tree", alg, seed, budget, hi)]


def sources():
    """Every source of the corpus except the boundary trees."""
    out = []
    for alg, (_, count) in CRITERIA.items():
        out += [("criterion", alg, seed) for seed in range(count)]
    for run in default_config()["runs"]:
        out += [("grid", run["alg"], seed, value)
                for value in run["grid"] for seed in run["seeds"]]
    out += [("path", "epvcbd", n, budget) for n, budget in PATHS]
    return out


def main():
    cases = [{"source": list(src), **record(src[1], build(src))} for src in sources()]
    for alg in SOLVERS:
        kept = []
        for seed in range(200):
            for src in _boundary(alg, seed):
                rec = record(alg, build(src))
                if rec["nodes_expanded"] >= MIN_NODES:
                    kept.append({"source": list(src), **rec})
            if len(kept) >= TREES_PER_ALG:
                break
        cases += kept[:TREES_PER_ALG]
    seeds = list(range(PVCBM_CRITERION))
    seed = GROWTH_SEED
    while len(seeds) < PVCBM_CRITERION + GROWTH_CASES:
        if grows(seed):
            seeds.append(seed)
        seed += 1
    for src in (("pvcbm", "pvcbm", seed) for seed in seeds):
        cases.append({"source": list(src), **record("pvcbm", build(src))})
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    GOLDEN.write_text('{"cases": [\n%s\n]}\n' % lines)
    print("wrote %d records to %s" % (len(cases), GOLDEN))


if __name__ == "__main__":
    main()
