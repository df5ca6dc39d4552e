"""Line-oriented text formats for cover and clique instances.

Cover instances::

    # optional comments
    p wpvc <n> <m> <budget> <target>
    v <id> <cost>          one line per vertex; omitted vertices cost 1
    e <u> <v> [profit]     profit defaults to 1

Clique instances::

    p mcq <n> <m> <k>
    c <vertex> <color>     color in 1..k, required for every vertex
    e <u> <v>

Vertex ids must be 0..n-1 and are used as-is. Duplicate vertex or edge lines
(in either orientation) are hard errors, as are self-loops. Loading a cover
instance drops edges both of whose endpoints cost more than the budget; such
vertices can never be selected, so those edges are dead weight.

Both formats are read by one loop, :func:`_read`. It checks the header, every
vertex and edge line and the announced edge count, and reports the first
fault with its line number (lines are those of ``str.splitlines``; comments
and blank lines count). ``parse_wpvc`` and ``parse_mcq`` only build their
instance from what it returns.

The loop makes one pass over the lines and stops at the first faulty one. It
converts the tokens of an edge or vertex line with ``int()`` and accepts the
line by a single condition that holds exactly when all of the line's checks
pass; edges are told apart by the int ``u * n + v``. A line that fails the
condition, or whose tokens ``int()`` refuses, goes to :func:`_explain`,
which runs the line's checks one at a time in a fixed order, the token
count first, and raises the message of the first that fails. So a line with
two faults reports the earlier check, and a text with two faulty lines
reports the earlier line. The writers put each line of a comment on its own
``#`` line.
"""

from __future__ import annotations

from .errors import FormatError
from .graph import _trusted_graph
from .instance import WpvcInstance, infer_variant, prune_unaffordable
from .reduction import McqInstance, _normalized_mcq


def _first_line(lines):
    """The line number and tokens of the first line of ``lines`` (an
    enumeration of text lines) that is neither blank nor a comment, or None."""
    for lineno, raw in lines:
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            return lineno, tokens
    return None


def _int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FormatError("line %d: %s must be an integer, got %r" % (lineno, what, token))
    if value < 0:
        raise FormatError("line %d: %s must be non-negative" % (lineno, what))
    return value


# Per format: header fields, the vertex line's tag, value name and usage, the
# edge line's usage and its largest token count.
_LAYOUTS = {
    "wpvc": (("n", "m", "budget", "target"), "v", "cost", "'v <id> <cost>'",
             "'e <u> <v> [profit]'", 4),
    "mcq": (("n", "m", "k"), "c", "color", "'c <vertex> <color>'", "'e <u> <v>'", 3),
}


def _read(text: str, fmt: str):
    """Check every line of a ``p <fmt>`` instance; the one reader of both formats.

    Returns the header values, a dict from vertex id to the value of its
    vertex line (a cost, or a color already checked against 1..k) in file
    order, and the edges as ``(u, v, profit)`` with ``u < v`` in file order
    (profit 1 when the line gives none, as clique edge lines never do).
    A line that fails its one acceptance condition goes to :func:`_explain`.
    """
    fields, vtag, _, _, _, most = _LAYOUTS[fmt]
    lines = enumerate(text.splitlines(), start=1)
    first = _first_line(lines)
    if first is None:
        raise FormatError("missing 'p %s' header" % fmt)
    lineno, tokens = first
    if tokens[0] != "p" or len(tokens) != 2 + len(fields) or tokens[1] != fmt:
        raise FormatError("line %d: expected header 'p %s %s'"
                          % (lineno, fmt, " ".join("<%s>" % f for f in fields)))
    header = tuple(_int(t, lineno, f) for t, f in zip(tokens[2:], fields))
    n = header[0]
    # Vertex values lie in low..top: costs are unbounded, colors lie in 1..k.
    low, top = (1, header[2]) if fmt == "mcq" else (0, None)
    values = {}
    edges = []
    seen = {}  # u * n + v of each edge (u < v) -> the line that gave it
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            if kind == "e":
                u = int(tokens[1])
                v = int(tokens[2])
                p = int(tokens[3]) if len(tokens) == 4 else 1
                if u > v:
                    u, v = v, u
                key = u * n + v
                if 0 <= u < v < n and p >= 0 and len(tokens) <= most and key not in seen:
                    seen[key] = lineno
                    edges.append((u, v, p))
                    continue
            elif kind == vtag:
                vid = int(tokens[1])
                value = int(tokens[2])
                if (len(tokens) == 3 and 0 <= vid < n and vid not in values
                        and low <= value and (top is None or value <= top)):
                    values[vid] = value
                    continue
            elif kind[0] == "#":
                continue
        except (ValueError, IndexError):
            pass
        _explain(fmt, lineno, tokens, n, top, values, seen)
    if len(edges) != header[1]:
        raise FormatError("header announces %d edges but %d were given"
                          % (header[1], len(edges)))
    return header, values, edges


def _explain(fmt, lineno, tokens, n, top, values, seen):
    """Raise the FormatError of a line :func:`_read` refused: its checks run
    one by one, in the order their faults are reported."""
    _, vtag, vname, vusage, eusage, most = _LAYOUTS[fmt]
    kind = tokens[0]
    if kind == "e":
        if not 3 <= len(tokens) <= most:
            raise FormatError("line %d: expected %s" % (lineno, eusage))
        u = _int(tokens[1], lineno, "endpoint")
        v = _int(tokens[2], lineno, "endpoint")
        if u >= n or v >= n:
            raise FormatError("line %d: edge endpoint outside 0..%d" % (lineno, n - 1))
        if u == v:
            raise FormatError("line %d: self-loop at vertex %d" % (lineno, u))
        pair = (u, v) if u < v else (v, u)
        first = seen.get(pair[0] * n + pair[1])
        if first is not None:
            raise FormatError("line %d: duplicate edge %s (first seen on line %d)"
                              % (lineno, pair, first))
        if len(tokens) == 4:
            _int(tokens[3], lineno, "profit")
    elif kind == vtag:
        if len(tokens) != 3:
            raise FormatError("line %d: expected %s" % (lineno, vusage))
        vid = _int(tokens[1], lineno, "vertex id")
        if vid >= n:
            raise FormatError("line %d: vertex id %d outside 0..%d" % (lineno, vid, n - 1))
        if vid in values:
            raise FormatError("line %d: duplicate %s line for vertex %d"
                              % (lineno, vname, vid))
        value = _int(tokens[2], lineno, vname)
        if top is not None and not 1 <= value <= top:
            raise FormatError("line %d: color %d outside 1..%d" % (lineno, value, top))
    else:
        raise FormatError("line %d: unknown line type %r" % (lineno, kind))
    raise AssertionError("line %d passed every check" % lineno)


def parse_wpvc(text: str, prune: bool = True) -> WpvcInstance:
    """Parse a cover instance, tagged with the variant its weights fit.

    Every line is checked by the reader, so the graph is built from the
    checked, normalized edges without a second validation pass, and the tag
    is :func:`pvckit.instance.infer_variant`'s, which always fits the weights.

    ``prune`` controls the load-time removal of edges between two vertices the
    budget cannot afford. Keep it off when the instance is meant for the
    fractional solver: there an expensive vertex can still be taken partially,
    so those edges matter.
    """
    (n, _, budget, target), costs, edges = _read(text, "wpvc")
    g = _trusted_graph(n, edges, [costs.get(v, 1) for v in range(n)])
    inst = WpvcInstance(g, budget, target, infer_variant(g))
    return prune_unaffordable(inst) if prune else inst


def _comment_lines(comments) -> list[str]:
    """One ``# `` line per line of each comment, so that a comment holding a
    line break cannot end its line early."""
    return ["# %s" % part for c in comments for part in ("%s" % c).splitlines() or [""]]


def write_wpvc(inst: WpvcInstance, comments=()) -> str:
    lines = ["# variant: %s" % inst.variant.value]
    lines += _comment_lines(comments)
    g = inst.graph
    lines.append("p wpvc %d %d %d %d" % (g.n, g.m, inst.budget, inst.target))
    for v in range(g.n):
        lines.append("v %d %d" % (v, g.costs[v]))
    for u, v, p in g.edges:
        lines.append("e %d %d %d" % (u, v, p))
    return "\n".join(lines) + "\n"


def parse_mcq(text: str) -> McqInstance:
    """Parse a multicolored-clique instance; intra-class edges are normalized away.

    As in ``parse_wpvc``, the graph is built from the reader's checked edges
    without a second validation pass.
    """
    (n, _, k), colors, edges = _read(text, "mcq")
    # The reader keeps distinct ids below n, so fewer than n means one is missing.
    if len(colors) < n:
        raise FormatError("vertex %d has no color line"
                          % next(v for v in range(n) if v not in colors))
    if k < 1:
        raise FormatError("k must be a positive integer")
    return _normalized_mcq(n, k, tuple(colors[v] for v in range(n)), edges, _trusted_graph)


def write_mcq(mcq: McqInstance, comments=()) -> str:
    lines = _comment_lines(comments)
    g = mcq.graph
    lines.append("p mcq %d %d %d" % (g.n, g.m, mcq.k))
    for v in range(g.n):
        lines.append("c %d %d" % (v, mcq.colors[v]))
    for u, v, _ in g.edges:
        lines.append("e %d %d" % (u, v))
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """Return 'wpvc' or 'mcq' from the header of an instance file."""
    first = _first_line(enumerate(text.splitlines(), start=1))
    if first is not None:
        tokens = first[1]
        if tokens[0] == "p" and len(tokens) >= 2 and tokens[1] in ("wpvc", "mcq"):
            return tokens[1]
    raise FormatError("could not find a recognizable 'p wpvc' or 'p mcq' header")
