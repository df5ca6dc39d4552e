"""A frozen copy of the instance-text reader as it stood before it became a
single lean loop: ``_tokenized``, ``_int``, ``_LAYOUTS`` and ``_read``, word
for word. ``test_format_reader`` checks on generated texts that the current
reader returns what this one returns or raises its exact message. Do not
edit it to follow the current reader."""

from pvckit.errors import FormatError


def _tokenized(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


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
    """
    fields, vtag, vname, vusage, eusage, most = _LAYOUTS[fmt]
    header = None
    values = {}
    edges = []
    seen_pairs = {}
    for lineno, tokens in _tokenized(text):
        kind = tokens[0]
        if header is None:
            if kind != "p" or len(tokens) != 2 + len(fields) or tokens[1] != fmt:
                raise FormatError("line %d: expected header 'p %s %s'"
                                  % (lineno, fmt, " ".join("<%s>" % f for f in fields)))
            header = tuple(_int(t, lineno, f) for t, f in zip(tokens[2:], fields))
            n = header[0]
            k = header[2] if fmt == "mcq" else None  # colors lie in 1..k
        elif kind == "e":
            if not 3 <= len(tokens) <= most:
                raise FormatError("line %d: expected %s" % (lineno, eusage))
            u = _int(tokens[1], lineno, "endpoint")
            v = _int(tokens[2], lineno, "endpoint")
            if u >= n or v >= n:
                raise FormatError("line %d: edge endpoint outside 0..%d" % (lineno, n - 1))
            if u == v:
                raise FormatError("line %d: self-loop at vertex %d" % (lineno, u))
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise FormatError("line %d: duplicate edge %s (first seen on line %d)"
                                  % (lineno, pair, seen_pairs[pair]))
            seen_pairs[pair] = lineno
            profit = _int(tokens[3], lineno, "profit") if len(tokens) == 4 else 1
            edges.append((pair[0], pair[1], profit))
        elif kind == vtag:
            if len(tokens) != 3:
                raise FormatError("line %d: expected %s" % (lineno, vusage))
            vid = _int(tokens[1], lineno, "vertex id")
            if vid >= n:
                raise FormatError("line %d: vertex id %d outside 0..%d" % (lineno, vid, n - 1))
            if vid in values:
                raise FormatError("line %d: duplicate %s line for vertex %d"
                                  % (lineno, vname, vid))
            value = values[vid] = _int(tokens[2], lineno, vname)
            if k is not None and not 1 <= value <= k:
                raise FormatError("line %d: color %d outside 1..%d" % (lineno, value, k))
        else:
            raise FormatError("line %d: unknown line type %r" % (lineno, kind))
    if header is None:
        raise FormatError("missing 'p %s' header" % fmt)
    if len(edges) != header[1]:
        raise FormatError("header announces %d edges but %d were given"
                          % (header[1], len(edges)))
    return header, values, edges
