"""Command-line front end: solve, oracle, reduce, gen, bench.

Exit codes for solve and oracle: 0 for a yes verdict, 1 for no, 2 for any
error (parse, variant mismatch, non-bipartite input, oracle scale). Internal
errors (any other exception, such as MemoryError or a failed assertion) print
``internal error: <type>: <message>`` on stderr and also exit 2. Reports
are line-oriented key=value text; ``--json-like`` switches to a single JSON
object per run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import bench as bench_mod
from .branching import solve_epvcbd, solve_wpvc_bounded_degree, solve_wpvc_by_L
from .errors import (FormatError, InputError, NotBipartiteError, OracleScaleError,
                     PvckitError, VariantError)
from .fractional import solve_wpvcbfd
from .formats import parse_mcq, parse_wpvc, sniff_format, write_mcq, write_wpvc
from .generators import random_bipartite_graph, random_bounded_degree_graph, random_mcq
from .graph import coverage
from .instance import Variant, WpvcInstance, infer_variant, make_solution
from .oracle import DEFAULT_CAP, oracle_fractional, oracle_mcq, oracle_pvcbm, oracle_wpvc
from .pvcbm import solve_pvcbm
from .reduction import pendantize, reduce_mcq_to_wpvcbd


def _num(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return str(x)
    return int(x)


def _report_dict(rep, g=None):
    out = {
        "verdict": "yes" if rep.verdict else "no",
        "nodes_expanded": rep.nodes_expanded,
        "max_depth": rep.max_depth,
        "wall_ms": round(rep.wall_time * 1000.0, 3),
    }
    if rep.witness is not None:
        out["witness"] = sorted(rep.witness.vertices)
        if rep.witness.fractional is not None:
            w, extent = rep.witness.fractional
            out["fractional"] = {"vertex": w, "extent": str(extent)}
        out["cost"] = _num(rep.witness.cost)
        out["profit"] = _num(rep.witness.profit)
    if rep.matching_edge_ids is not None and g is not None:
        out["matching"] = sorted(g.edges[e][:2] for e in rep.matching_edge_ids)
    return out


def _print_report(rep, g=None, json_like=False, extra=()):
    data = _report_dict(rep, g)
    if json_like:
        print(json.dumps(data, sort_keys=True))
        return
    print("verdict=%s" % data["verdict"])
    if "witness" in data:
        print("witness=%s" % " ".join(str(v) for v in data["witness"]))
        if "fractional" in data:
            print("fractional=%s extent=%s"
                  % (data["fractional"]["vertex"], data["fractional"]["extent"]))
        print("cost=%s" % data["cost"])
        print("profit=%s" % data["profit"])
    if "matching" in data:
        print("matching=%s" % " ".join("%d-%d" % (u, v) for u, v in data["matching"]))
    print("nodes_expanded=%d" % data["nodes_expanded"])
    print("max_depth=%d" % data["max_depth"])
    print("wall_ms=%s" % data["wall_ms"])
    for line in extra:
        print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _verify_witness(inst: WpvcInstance, rep, k3: int | None = None) -> None:
    """Re-check a yes witness against the graph: cost within the budget,
    profit up to the target and, given ``k3``, at least k3 pairwise disjoint
    reported matching edges, all of them covered by the witness."""
    if rep.witness is None:
        return
    w = rep.witness
    g = inst.graph
    sol = make_solution(g, w.vertices, w.fractional)
    ok = sol.cost <= inst.budget and sol.profit >= inst.target
    if k3 is not None:
        matched = rep.matching_edge_ids or frozenset()
        ends = [v for e in matched & coverage(g, w.vertices)[0] for v in g.edges[e][:2]]
        # Every matched edge covered, no endpoint shared, and k3 of them.
        ok = ok and len(set(ends)) == len(ends) == 2 * len(matched) >= 2 * k3
    if not ok:
        raise InputError("witness failed re-verification (cost=%s profit=%s)"
                         % (sol.cost, sol.profit))


def _cmd_solve(args) -> int:
    # Load-time pruning keys off the header budget; only apply it when that
    # budget is what the solver runs with.
    inst = parse_wpvc(_read(args.file), variant=args.variant,
                      prune=args.alg in ("epvcbd", "bounded-degree", "by-L"))
    extra = []
    if args.alg == "epvcbd":
        rep = solve_epvcbd(inst)
    elif args.alg == "bounded-degree":
        bound = args.degree_bound if args.degree_bound is not None else inst.graph.max_degree()
        rep = solve_wpvc_bounded_degree(inst, bound)
    elif args.alg == "by-L":
        rep = solve_wpvc_by_L(inst)
    elif args.alg == "fractional":
        rep = solve_wpvcbfd(inst)
    else:  # pvcbm
        k1 = args.k1 if args.k1 is not None else inst.budget
        k2 = args.k2 if args.k2 is not None else inst.target
        if args.k3 is None:
            raise InputError("--k3 is required for --alg pvcbm")
        rep = solve_pvcbm(inst.graph, k1, k2, args.k3)
    if args.verify:
        if args.alg == "pvcbm":
            _verify_witness(replace(inst, budget=k1, target=k2), rep, args.k3)
            check = (oracle_pvcbm(inst.graph, k1, k2, args.k3)
                     if inst.graph.n <= DEFAULT_CAP else None)
        else:
            _verify_witness(inst, rep)
            selectable = sum(1 for c in inst.graph.costs if c <= inst.budget)
            oracle = oracle_fractional if args.alg == "fractional" else oracle_wpvc
            check = oracle(inst) if selectable <= DEFAULT_CAP else None
        if check is not None and check.verdict != rep.verdict:
            raise InputError("verdict disagrees with the brute-force oracle")
        extra.append("verify=ok")
    _print_report(rep, inst.graph, args.json_like, extra)
    return 0 if rep.verdict else 1


def _cmd_oracle(args) -> int:
    text = _read(args.file)
    kind = args.kind
    if kind == "auto":
        kind = "mcq" if sniff_format(text) == "mcq" else "wpvc"
    if kind == "mcq":
        verdict = oracle_mcq(parse_mcq(text))
        if args.json_like:
            print(json.dumps({"verdict": "yes" if verdict.yes else "no",
                              "clique": list(verdict.clique) if verdict.clique else None},
                             sort_keys=True))
        else:
            print("verdict=%s" % ("yes" if verdict.yes else "no"))
            if verdict.clique:
                print("clique=%s" % " ".join(str(v) for v in verdict.clique))
        return 0 if verdict.yes else 1
    inst = parse_wpvc(text, variant=args.variant, prune=kind == "wpvc")
    if kind == "fractional":
        rep = oracle_fractional(inst, cap=args.cap)
    elif kind == "pvcbm":
        if args.k3 is None:
            raise InputError("--k3 is required for --kind pvcbm")
        k1 = args.k1 if args.k1 is not None else inst.budget
        k2 = args.k2 if args.k2 is not None else inst.target
        rep = oracle_pvcbm(inst.graph, k1, k2, args.k3, cap=args.cap)
    else:
        rep = oracle_wpvc(inst, cap=args.cap)
    _print_report(rep, inst.graph, args.json_like)
    return 0 if rep.verdict else 1


def _cmd_reduce(args) -> int:
    mcq = parse_mcq(_read(args.file))
    out = reduce_mcq_to_wpvcbd(mcq)
    if args.pendantize:
        out = pendantize(out)
    comments = ["reduced from a multicolored-clique instance (k=%d, n=%d)"
                % (out.k, out.source_n)]
    comments += ["src v%d -> u%d,v%d (gadget ids %d,%d)"
                 % (i, i, i, out.u_copies[i], out.v_copies[i])
                 for i in range(out.source_n)]
    comments += ["role %d %s" % (x, role) for x, role in enumerate(out.roles)
                 if not role.startswith("pendant")]
    text = write_wpvc(out.instance, comments)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "mcq-planted":
        mcq = random_mcq(args.seed, args.k, args.class_size, args.edge_prob,
                         plant=not args.no_plant)
        text = write_mcq(mcq, ["seed %d" % args.seed])
    else:
        if args.kind == "bipartite-random":
            g = random_bipartite_graph(args.seed, args.n, args.m,
                                       cost_max=args.cost_max, profit_max=args.profit_max)
        else:
            g = random_bounded_degree_graph(args.seed, args.n, args.m, args.degree_bound,
                                            cost_max=args.cost_max,
                                            profit_max=args.profit_max)
        inst = WpvcInstance(g, args.budget, args.target, infer_variant(g), False)
        text = write_wpvc(inst, ["seed %d" % args.seed])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args) -> int:
    if args.config:
        config = json.loads(_read(args.config))
    else:
        config = bench_mod.default_config()
    rows = bench_mod.run_config(config)
    print(bench_mod.format_table(rows))
    bad = [r for r in rows if not r.ok]
    if bad:
        print("bound violations: %d row(s)" % len(bad), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvckit",
        description="Exact parameterized solvers for partial vertex cover variants.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one of the exact solvers on an instance file")
    solve.add_argument("file")
    solve.add_argument("--alg", required=True,
                       choices=["epvcbd", "bounded-degree", "by-L", "fractional", "pvcbm"])
    solve.add_argument("--degree-bound", type=int, default=None,
                       help="degree bound for --alg bounded-degree (default: graph maximum)")
    solve.add_argument("--k1", type=int, default=None)
    solve.add_argument("--k2", type=int, default=None)
    solve.add_argument("--k3", type=int, default=None)
    solve.add_argument("--variant", choices=[v.value for v in Variant], default=None,
                       help="override the variant tag inferred from the weights")
    solve.add_argument("--verify", action="store_true",
                       help="re-check the witness and, on small instances, the verdict")
    solve.add_argument("--json-like", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="run a brute-force oracle on an instance file")
    oracle.add_argument("file")
    oracle.add_argument("--kind", choices=["auto", "wpvc", "fractional", "pvcbm", "mcq"],
                        default="auto")
    oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
    oracle.add_argument("--k1", type=int, default=None)
    oracle.add_argument("--k2", type=int, default=None)
    oracle.add_argument("--k3", type=int, default=None)
    oracle.add_argument("--variant", choices=[v.value for v in Variant], default=None)
    oracle.add_argument("--json-like", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    reduce_p = sub.add_parser("reduce",
                              help="turn a multicolored-clique file into a cover instance")
    reduce_p.add_argument("file")
    reduce_p.add_argument("--pendantize", action="store_true",
                          help="also rewrite hub profits as unit-profit pendants")
    reduce_p.add_argument("--out", default=None)
    reduce_p.set_defaults(func=_cmd_reduce)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("kind", choices=["bipartite-random", "bounded-degree", "mcq-planted"])
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--m", type=int, default=10)
    gen.add_argument("--degree-bound", type=int, default=3)
    gen.add_argument("--cost-max", type=int, default=1)
    gen.add_argument("--profit-max", type=int, default=1)
    gen.add_argument("--budget", type=int, default=3)
    gen.add_argument("--target", type=int, default=5)
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--class-size", type=int, default=2)
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--no-plant", action="store_true")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="run solver grids and check node-count bounds")
    bench.add_argument("--config", default=None,
                       help="JSON suite config; defaults to the built-in grids")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
    except VariantError as exc:
        print("variant error: %s" % exc, file=sys.stderr)
    except NotBipartiteError as exc:
        print("not bipartite: %s" % exc, file=sys.stderr)
    except OracleScaleError as exc:
        print("oracle refused: %s" % exc, file=sys.stderr)
    except (InputError, PvckitError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
    except Exception as exc:  # a crash must never read as a "no" verdict
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
