"""Write the stored reference verdicts in perfbench/refs/.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py [workload ...]

With no workload named, it writes the references of all of them.

For the default seed and the held-out seed of every workload, this builds the
instances exactly as run.py does, decides each one twice by independent means,
runs pvckit once on it, and writes the verdict to
refs/<workload>-seed<seed>.json only when all of them agree:

* search-hard: the forest dynamic program in truth.py (itself checked against
  pvckit's brute-force oracles on small forests first), or the closed form for
  paths, against the pvckit solver's verdict and re-verified witness;
* gadget-pipeline: clique enumeration in truth.py against pvckit's clique
  oracle and the verdict at the end of the pipeline;
* crosscheck-small: brute force written here against pvckit's oracle and the
  pvckit solver.

A pvckit call that raises is recorded with the exception name. The verdict
stored is the independent one, so a known crash (the deep path) keeps its
expected "yes". Exits 1 without writing anything when any check disagrees.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

import run

SEEDS = (0, 1)  # the default seed and the held-out seed


def _require(ok, what):
    if not ok:
        raise AssertionError("truth.py disagrees with pvckit's oracle: %s" % (what,))


def truth_self_test(cases=300):
    """truth.py against pvckit's oracles on small random forests."""
    import pvckit
    import truth
    from pvckit.oracle import oracle_fractional, oracle_pvcbm, oracle_wpvc
    for s in range(cases):
        rng = random.Random("truth-self-test:%d" % s)
        n = rng.randint(1, 11)
        edges = [(rng.randrange(v), v, rng.randint(1, 4)) for v in range(1, n)]
        if n > 2 and rng.random() < 0.3:
            edges.pop()
        costs = [rng.randint(1, 3) for _ in range(n)]
        budget = rng.randint(0, 5)
        g = pvckit.make_graph(n, edges, costs)
        best = truth.integral_best(n, g.edges, costs, budget)
        for b in range(budget + 1):
            for target in (best[b], best[b] + 1):
                inst = pvckit.WpvcInstance(g, b, target, pvckit.infer_variant(g))
                _require(oracle_wpvc(inst).verdict == (target <= best[b]), ("integral", s))
        frac = truth.fractional_best(n, g.edges, costs, budget)
        scale = truth.expansion_scale(g.edges, costs)
        for target in range(frac // scale + 2):
            inst = pvckit.WpvcInstance(g, budget, target, pvckit.infer_variant(g))
            _require(oracle_fractional(inst).verdict == (target * scale <= frac), ("frac", s))
        unit = pvckit.make_graph(n, [(u, v) for u, v, _ in g.edges])
        k1, k3 = rng.randint(0, 4), rng.randint(0, 4)
        for k2 in range(n + 1):
            _require(oracle_pvcbm(unit, k1, k2, k3).verdict
                     == truth.pvcbm_verdict(n, unit.edges, k1, k2, k3), ("pvcbm", s))
    return "truth.py matches pvckit oracles on %d small forests" % cases


# Brute force for the crosscheck recipes, sharing no code with pvckit.

def _covered(edges, chosen):
    return [i for i, (u, v, _) in enumerate(edges) if u in chosen or v in chosen]


def brute_cover(inst, fractional):
    g = inst.graph
    edges, costs = g.edges, g.costs
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            spent = sum(costs[v] for v in combo)
            if spent > inst.budget:
                continue
            chosen = set(combo)
            covered = set(_covered(edges, chosen))
            profit = sum(edges[i][2] for i in covered)
            if profit >= inst.target:
                return True
            if not fractional:
                continue
            for w in range(g.n):
                if w in chosen or costs[w] == 0:
                    continue
                extent = min(Fraction(1), Fraction(inst.budget - spent, costs[w]))
                sole = sum(p for i, (u, v, p) in enumerate(edges)
                           if w in (u, v) and i not in covered)
                if profit + extent * sole >= inst.target:
                    return True
    return False


def _matching_size(pairs):
    best = 0

    def grow(i, used, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(pairs)):
            u, v = pairs[j]
            if u not in used and v not in used:
                grow(j + 1, used | {u, v}, size + 1)

    grow(0, frozenset(), 0)
    return best


def brute_pvcbm(g, k1, k2, k3):
    for size in range(min(k1, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            covered = _covered(g.edges, set(combo))
            if len(covered) >= k2 and _matching_size(
                    [g.edges[i][:2] for i in covered]) >= k3:
                return True
    return False


def second_opinion(workload, item):
    """The verdict from independent code, and what produced it."""
    import pvckit
    import truth
    subject = item.subject
    if workload == "search-hard":
        if item.family == "deep-path":
            g = subject.graph
            best = truth.integral_best(g.n, g.edges, g.costs, subject.budget)
            return best[subject.budget] >= subject.target, "truth.py"
        return None, None  # the pvckit solver is the second opinion
    if workload == "gadget-pipeline":
        return pvckit.oracle_mcq(subject).yes, "pvckit.oracle_mcq"
    if item.family == "pvcbm":
        return brute_pvcbm(*subject), "brute force"
    return brute_cover(subject, item.family == "fractional"), "brute force"


FIRST_METHOD = {"search-hard": "truth.py", "gadget-pipeline": "truth.py clique enumeration",
                "crosscheck-small": "pvckit oracle"}


def reference(workload, seed, stamp):
    """Decide every instance of one workload and seed; return (record, disagreements)."""
    import workloads
    items = [it for block in workloads.BUILDERS[workload](seed) for it in block]
    verdicts = []
    checked_by = {}
    observed = []
    bad = []
    for item in items:
        expect = item.expect
        methods = []
        if expect is not None:
            methods.append("closed form" if item.family == "deep-path"
                           else FIRST_METHOD[workload])
        try:
            results = [step() for _, step in item.steps]
        except Exception as exc:
            results = None
            observed.append([item.family, item.key, type(exc).__name__])
        if expect is None and results is not None:
            expect = results[-1].verdict  # the oracle step
            methods.append(FIRST_METHOD[workload])
        second, method = second_opinion(workload, item)
        if method is not None:
            methods.append(method)
            if second != expect:
                bad.append("%s %s: %s says %s, expected %s"
                           % (item.family, item.key, method, second, expect))
        if results is not None:
            problem = item.check(results, expect)
            if problem is not None:
                bad.append("%s %s: %s" % (item.family, item.key, problem))
            methods.append("pvckit")
        if expect is None:
            bad.append("%s %s: no verdict" % (item.family, item.key))
        checked_by.setdefault(item.family, set()).add(" + ".join(methods))
        verdicts.append(expect)
    record = {"workload": workload, "seed": seed, "stamp": stamp,
              "checked_by": {f: sorted(m) for f, m in sorted(checked_by.items())},
              "pvckit_failures": observed, "instances": len(items),
              "keys_sha256": run.keys_digest(items),
              "verdicts": "".join("Y" if e else "N" for e in verdicts)}
    return record, bad


def main():
    run.load_pvckit()
    import workloads
    print(truth_self_test(), flush=True)
    stamp = run.stamp()
    records = []
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        for seed in SEEDS:
            record, bad = reference(workload, seed, stamp)
            print("%s seed %d: %d instances, %d yes, pvckit failures %s, checked by %s"
                  % (workload, seed, record["instances"], record["verdicts"].count("Y"),
                     [f[2] for f in record["pvckit_failures"]], record["checked_by"]),
                  flush=True)
            for line in bad:
                print("DISAGREE: %s" % line)
            if bad:
                return 1
            records.append(record)
    run.REFS.mkdir(exist_ok=True)
    for record in records:
        path = run.REFS / ("%s-seed%d.json" % (record["workload"], record["seed"]))
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
