"""Command-line front end: solve, oracle, reduce, gen, bench.

Nothing about an instance is declared on the command line: its variant is
read from the file's weights, and ``solve --alg bounded-degree`` takes the
graph's maximum degree as its bound.

Exit codes for solve and oracle: 0 for a yes verdict, 1 for no, 2 for any
error (parse, weights the solver does not take, non-bipartite input, oracle
scale). Internal errors (any other exception, such as MemoryError or a
failed assertion) print ``internal error: <type>: <message>`` on stderr and
also exit 2. Reports are line-oriented key=value text; ``--json-like``
switches to a single JSON object per run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bench as bench_mod
from .branching import solve_epvcbd, solve_wpvc_bounded_degree, solve_wpvc_by_L
from .errors import (FormatError, InputError, NotBipartiteError, OracleScaleError,
                     PvckitError, VariantError)
from .fractional import solve_wpvcbfd
from .formats import parse_mcq, parse_wpvc, sniff_format, write_mcq, write_wpvc
from .generators import random_bipartite_graph, random_bounded_degree_graph, random_mcq
from .instance import WpvcInstance, _witness_problem, infer_variant, make_solution
from .oracle import DEFAULT_CAP, oracle_fractional, oracle_mcq, oracle_pvcbm, oracle_wpvc
from .pvcbm import solve_pvcbm
from .reduction import pendantize, reduce_mcq_to_wpvcbd


# The brute-force oracle that checks each solver's verdict.
_ORACLE_KIND = {"epvcbd": "wpvc", "bounded-degree": "wpvc", "by-L": "wpvc",
                "fractional": "fractional", "pvcbm": "pvcbm"}


def _num(x):
    return str(x) if isinstance(x, Fraction) and x.denominator != 1 else int(x)


def _report_dict(rep, g, verified=False):
    """The report as an ordered record: text prints it in this order."""
    out = {"verdict": "yes" if rep.verdict else "no"}
    if rep.witness is not None:
        out["witness"] = sorted(rep.witness.vertices)
        if rep.witness.fractional is not None:
            w, extent = rep.witness.fractional
            out["fractional"] = {"vertex": w, "extent": str(extent)}
        out["cost"] = _num(rep.witness.cost)
        out["profit"] = _num(rep.witness.profit)
    if rep.matching_edge_ids is not None:
        out["matching"] = sorted(g.edges[e][:2] for e in rep.matching_edge_ids)
    out["nodes_expanded"] = rep.nodes_expanded
    out["max_depth"] = rep.max_depth
    out["wall_ms"] = round(rep.wall_time * 1000.0, 3)
    if verified:
        out["verify"] = "ok"
    return out


def _text(value) -> str:
    """A record value as text: lists space-joined, with pairs as ``u-v``, and
    the fractional vertex as ``w extent=e``."""
    if isinstance(value, list):
        return " ".join("%d-%d" % x if isinstance(x, tuple) else str(x) for x in value)
    if isinstance(value, dict):
        return "%(vertex)s extent=%(extent)s" % value
    return str(value)


def _print_record(record, json_like: bool) -> None:
    """One JSON object, or one ``key=value`` line per field that is not None."""
    if json_like:
        print(json.dumps(record, sort_keys=True))
        return
    for key, value in record.items():
        if value is not None:
            print("%s=%s" % (key, _text(value)))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(text: str, kind: str) -> WpvcInstance:
    # Load-time pruning keys off the header budget; only apply it when that
    # budget is what the solver or oracle runs with.
    return parse_wpvc(text, prune=kind == "wpvc")


def _ks(args, kind: str, flag: str, inst: WpvcInstance | None = None):
    """k1, k2, k3 for the matching-constrained cover; k1 and k2 default to
    the header's budget and target. Every other kind takes none of the
    three: giving one is an error, and the result is None."""
    if kind != "pvcbm":
        given = [k for k in ("k1", "k2", "k3") if getattr(args, k) is not None]
        if given:
            raise InputError("--%s applies only to %s pvcbm; the instance header"
                             " gives the budget and target" % (given[0], flag))
        return None
    if args.k3 is None:
        raise InputError("--k3 is required for %s pvcbm" % flag)
    return (inst.budget if args.k1 is None else args.k1,
            inst.target if args.k2 is None else args.k2, args.k3)


def _oracle(kind: str, inst: WpvcInstance, ks, cap: int):
    if kind == "pvcbm":
        return oracle_pvcbm(inst.graph, *ks, cap=cap)
    return (oracle_fractional if kind == "fractional" else oracle_wpvc)(inst, cap=cap)


def _verify_witness(inst: WpvcInstance, rep, ks=None) -> None:
    """Re-check a yes witness against the graph with the solvers' own check,
    :func:`pvckit.instance._witness_problem`: at the header's budget and
    target or, given pvcbm's ``ks``, at k1 and k2 and with the reported
    matching against k3."""
    if rep.witness is None:
        return
    budget, target, k3 = ks or (inst.budget, inst.target, 0)
    sol = make_solution(inst.graph, rep.witness.vertices, rep.witness.fractional)
    problem = _witness_problem(inst.graph, budget, target, sol, rep.matching_edge_ids, k3)
    if problem is not None:
        raise InputError("witness failed re-verification (%s)" % problem)


def _cmd_solve(args) -> int:
    kind = _ORACLE_KIND[args.alg]
    inst = _load(_read(args.file), kind)
    ks = _ks(args, kind, "--alg", inst)
    if args.alg == "epvcbd":
        rep = solve_epvcbd(inst)
    elif args.alg == "bounded-degree":
        rep = solve_wpvc_bounded_degree(inst, inst.graph.max_degree())
    elif args.alg == "by-L":
        rep = solve_wpvc_by_L(inst)
    elif args.alg == "fractional":
        rep = solve_wpvcbfd(inst)
    else:  # pvcbm
        rep = solve_pvcbm(inst.graph, *ks)
    if args.verify:
        _verify_witness(inst, rep, ks)
        try:
            if _oracle(kind, inst, ks, DEFAULT_CAP).verdict != rep.verdict:
                raise InputError("verdict disagrees with the brute-force oracle")
        except OracleScaleError:
            pass  # too big to brute-force; the witness check above stands
    _print_record(_report_dict(rep, inst.graph, args.verify), args.json_like)
    return 0 if rep.verdict else 1


def _cmd_oracle(args) -> int:
    text = _read(args.file)
    kind = args.kind
    if kind == "auto":
        kind = "mcq" if sniff_format(text) == "mcq" else "wpvc"
    if kind == "mcq":
        _ks(args, kind, "--kind")
        verdict = oracle_mcq(parse_mcq(text))
        _print_record({"verdict": "yes" if verdict.yes else "no",
                       "clique": list(verdict.clique) if verdict.clique else None},
                      args.json_like)
        return 0 if verdict.yes else 1
    inst = _load(text, kind)
    ks = _ks(args, kind, "--kind", inst)
    rep = _oracle(kind, inst, ks, args.cap)
    _print_record(_report_dict(rep, inst.graph), args.json_like)
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
    _write(write_wpvc(out.instance, comments), args.out)
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
        # A negative budget or target is an InputError here: gen writes only what solve loads.
        inst = WpvcInstance(g, args.budget, args.target, infer_variant(g), False)
        text = write_wpvc(inst, ["seed %d" % args.seed])
    _write(text, args.out)
    return 0


def _cmd_bench(args) -> int:
    config = json.loads(_read(args.config)) if args.config else bench_mod.default_config()
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

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file")
    shared.add_argument("--k1", type=int, default=None)
    shared.add_argument("--k2", type=int, default=None)
    shared.add_argument("--k3", type=int, default=None)
    shared.add_argument("--json-like", action="store_true")

    solve = sub.add_parser("solve", parents=[shared],
                           help="run one of the exact solvers on an instance file")
    solve.add_argument("--alg", required=True, choices=list(_ORACLE_KIND))
    solve.add_argument("--verify", action="store_true",
                       help="re-check the witness and, on small instances, the verdict")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", parents=[shared],
                            help="run a brute-force oracle on an instance file")
    oracle.add_argument("--kind", default="auto",
                        choices=["auto", *dict.fromkeys(_ORACLE_KIND.values()), "mcq"])
    oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
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
