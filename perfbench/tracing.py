"""Spans around pvckit's public functions, installed from outside the package.

``install`` rebinds every module-level name that refers to a traced function
(in every loaded ``pvckit`` module, the package itself included) to a wrapper
that records a span: id, name, start, end, parent id, and an optional count
taken from the arguments or result. Spans stay in memory; ``summarize`` turns
them into calls, self time and counts per function. ``uninstall`` restores
the original bindings, and ``assert_unpatched`` checks that nothing is left.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import pvckit

LAYERS = {
    "formats": ("parse_wpvc", "write_wpvc"),
    "graph": ("make_graph", "check_graph", "bipartition", "weighted_degrees", "coverage",
              "max_matching", "edge_subgraph"),
    "instance": ("validate", "residual", "prune_unaffordable", "make_solution"),
    "branching": ("solve_epvcbd", "solve_wpvc_bounded_degree", "solve_wpvc_by_L"),
    "fractional": ("expand", "rebalance_sections", "solve_wpvcbfd"),
    "pvcbm": ("solve_pvcbm",),
    "oracle": ("oracle_wpvc", "oracle_fractional", "oracle_pvcbm", "oracle_mcq"),
    "reduction": ("reduce_mcq_to_wpvcbd", "pendantize", "verify_reduction"),
}
TRACED = tuple("%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns)
SOLVERS = ("branching.solve_epvcbd", "branching.solve_wpvc_bounded_degree",
           "branching.solve_wpvc_by_L")
ORACLES = ("oracle.oracle_wpvc", "oracle.oracle_fractional", "oracle.oracle_pvcbm")

# What each span counts, from (args, result).
_COUNTS = {
    "formats.parse_wpvc": lambda args, res: len(args[0]),
    "graph.make_graph": lambda args, res: res.m,
    "fractional.expand": lambda args, res: res[0].graph.m,
    "reduction.pendantize": lambda args, res: res.instance.graph.n - 2 * res.source_n,
}
for _name in SOLVERS:
    _COUNTS[_name] = lambda args, res: (res.nodes_expanded, res.max_depth)
for _name in ORACLES:
    _COUNTS[_name] = lambda args, res: res.nodes_expanded

_MARK = "__perfbench_original__"


class Tracer:
    """Span store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self._saved = []

    def _wrap(self, name, fn):
        count = _COUNTS.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = count(args, result) if returned and count is not None else None
                spans.append((sid, name, start, end, parent, value))

        setattr(traced, _MARK, fn)
        return traced

    def install(self):
        wrappers = {}
        for name in TRACED:
            layer, fn_name = name.split(".")
            fn = getattr(sys.modules["pvckit." + layer], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in _pvckit_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []


def _pvckit_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "pvckit" or key.startswith("pvckit."))]


def assert_unpatched():
    """Fail unless every pvckit binding is the original function."""
    for module in _pvckit_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                raise AssertionError("pvckit is still traced: %s.%s"
                                     % (module.__name__, attr))
    for name in TRACED:
        layer, fn_name = name.split(".")
        fn = getattr(sys.modules["pvckit." + layer], fn_name)
        if getattr(pvckit, fn_name, fn) is not fn:
            raise AssertionError("pvckit.%s is not pvckit.%s" % (fn_name, name))
    if pvckit.branching.residual is not pvckit.instance.residual:
        raise AssertionError("pvckit.branching.residual is not pvckit.instance.residual")


def summarize(spans) -> dict:
    """Calls, self time and counts per traced function, plus the derived counts.

    Self time is a span's duration minus the durations of its direct children;
    spans on one thread nest, so the children never overlap.
    """
    child_time = defaultdict(float)
    names = {}
    for sid, name, start, end, parent, _ in spans:
        names[sid] = name
        child_time[parent] += end - start
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    total = defaultdict(int)
    nodes = depth = rebuilt = epvcbd_in_pvcbm = 0
    for sid, name, start, end, parent, value in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        if value is None:
            continue
        if name in SOLVERS:
            nodes += value[0]
            depth += value[1]
        else:
            total[name] += value
        if name == "graph.make_graph" and names.get(parent) == "instance.residual":
            rebuilt += value
        if name == "branching.solve_epvcbd" and names.get(parent) == "pvcbm.solve_pvcbm":
            epvcbd_in_pvcbm += 1
    out = {}
    for name in TRACED:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    for layer, fns in LAYERS.items():
        out[layer + ".self_s"] = (sum(self_s["%s.%s" % (layer, f)] for f in fns), "s")
    pvcbm_calls = calls["pvcbm.solve_pvcbm"]
    out.update({
        "formats.bytes_parsed": (total["formats.parse_wpvc"], "bytes"),
        "graph.make_graph.edges_built": (total["graph.make_graph"], "count"),
        "branching.nodes_expanded": (nodes, "count"),
        "branching.max_depth": (depth, "count"),
        "branching.rebuilt_edges_per_node": (rebuilt / nodes if nodes else 0.0,
                                             "edges/node"),
        "fractional.expanded_edges": (total["fractional.expand"], "count"),
        "pvcbm.epvcbd_calls_per_solve": (epvcbd_in_pvcbm / pvcbm_calls if pvcbm_calls
                                         else 0.0, "calls/solve"),
        "oracle.subsets_examined": (sum(total[n] for n in ORACLES), "count"),
        "reduction.pendant_edges": (total["reduction.pendantize"], "count"),
    })
    return out


# Counts that must repeat exactly for the same seed and the same code.
DETERMINISTIC = ("branching.nodes_expanded", "branching.max_depth",
                 "oracle.subsets_examined", "pvcbm.epvcbd_calls_per_solve",
                 "graph.make_graph.edges_built")

# Per-layer metrics in the JSON result line. Self times are listed only for
# functions every workload calls: a function a workload never calls reads a
# constant 0 s there. The printed table and the results file hold them all.
JSON_LAYERS = tuple(name + ".calls" for name in TRACED) + (
    "formats.bytes_parsed", "graph.make_graph.edges_built", "branching.nodes_expanded",
    "branching.max_depth", "branching.rebuilt_edges_per_node", "fractional.expanded_edges",
    "pvcbm.epvcbd_calls_per_solve", "oracle.subsets_examined", "reduction.pendant_edges",
    "graph.self_s", "instance.self_s", "graph.make_graph.self_s", "graph.check_graph.self_s",
    "graph.coverage.self_s", "instance.validate.self_s", "instance.make_solution.self_s",
    "trace.overhead_ratio")
