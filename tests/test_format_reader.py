"""The line checks of both instance formats: one single-fault input per
``FormatError`` raised in ``pvckit.formats``, with its exact message, a
fuzz test that no line soup makes a parser raise anything but a toolkit
error, and a differential test of the reader against a frozen copy of its
earlier version."""

import tracemalloc

import frozen_reader
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvckit import FormatError, PvckitError, Variant, parse_mcq, parse_wpvc
from pvckit import formats
from pvckit.formats import sniff_format

WPVC_HEADER = "line 1: expected header 'p wpvc <n> <m> <budget> <target>'"
MCQ_HEADER = "line 1: expected header 'p mcq <n> <m> <k>'"

WPVC_FAULTS = [
    ("header-kind", "e 0 1\n", WPVC_HEADER),
    ("header-length", "p wpvc 3 2\n", WPVC_HEADER),
    ("header-format", "p mcq 3 2 1 2\n", WPVC_HEADER),
    ("header-not-int", "p wpvc 3 x 1 1\n", "line 1: m must be an integer, got 'x'"),
    ("header-negative", "p wpvc 3 0 -1 1\n", "line 1: budget must be non-negative"),
    ("header-float", "p wpvc 3 0 1 1.5\n", "line 1: target must be an integer, got '1.5'"),
    ("vertex-length", "p wpvc 2 0 1 0\nv 0\n", "line 2: expected 'v <id> <cost>'"),
    ("vertex-id-not-int", "p wpvc 2 0 1 0\nv a 1\n",
     "line 2: vertex id must be an integer, got 'a'"),
    ("vertex-id-negative", "p wpvc 2 0 1 0\nv -1 1\n", "line 2: vertex id must be non-negative"),
    ("vertex-id-range", "p wpvc 2 0 1 0\nv 2 1\n", "line 2: vertex id 2 outside 0..1"),
    ("vertex-duplicate", "p wpvc 2 0 1 0\nv 1 1\nv 1 2\n",
     "line 3: duplicate cost line for vertex 1"),
    ("cost-not-int", "p wpvc 2 0 1 0\nv 0 y\n", "line 2: cost must be an integer, got 'y'"),
    ("cost-negative", "p wpvc 2 0 1 0\nv 0 -3\n", "line 2: cost must be non-negative"),
    ("edge-short", "p wpvc 2 1 1 1\ne 0\n", "line 2: expected 'e <u> <v> [profit]'"),
    ("edge-long", "p wpvc 2 1 1 1\ne 0 1 1 1\n", "line 2: expected 'e <u> <v> [profit]'"),
    ("endpoint-not-int", "p wpvc 2 1 1 1\ne 0 z\n", "line 2: endpoint must be an integer, got 'z'"),
    ("endpoint-negative", "p wpvc 2 1 1 1\ne -1 0\n", "line 2: endpoint must be non-negative"),
    ("endpoint-range", "p wpvc 2 1 1 1\ne 0 2\n", "line 2: edge endpoint outside 0..1"),
    ("self-loop", "p wpvc 2 1 1 1\ne 1 1\n", "line 2: self-loop at vertex 1"),
    ("edge-duplicate", "p wpvc 3 2 1 1\ne 1 2\ne 2 1\n",
     "line 3: duplicate edge (1, 2) (first seen on line 2)"),
    ("profit-not-int", "p wpvc 2 1 1 1\ne 0 1 p\n", "line 2: profit must be an integer, got 'p'"),
    ("profit-negative", "p wpvc 2 1 1 1\ne 0 1 -2\n", "line 2: profit must be non-negative"),
    ("unknown-line", "p wpvc 2 1 1 1\nc 0 1\ne 0 1\n", "line 2: unknown line type 'c'"),
    ("missing-header", "# only a comment\n\n", "missing 'p wpvc' header"),
    ("edge-count", "p wpvc 3 2 1 1\ne 0 1\n", "header announces 2 edges but 1 were given"),
    ("comments-count-as-lines", "# c\n\np wpvc 2 1 1 1\n# c\ne 0 0\n",
     "line 5: self-loop at vertex 0"),
]

MCQ_FAULTS = [
    ("header-kind", "c 0 1\n", MCQ_HEADER),
    ("header-length", "p mcq 2 1\n", MCQ_HEADER),
    ("header-format", "p wpvc 2 1 2\n", MCQ_HEADER),
    ("header-not-int", "p mcq two 1 2\n", "line 1: n must be an integer, got 'two'"),
    ("header-negative", "p mcq 2 1 -2\n", "line 1: k must be non-negative"),
    ("vertex-length", "p mcq 2 0 2\nc 0 1 1\n", "line 2: expected 'c <vertex> <color>'"),
    ("vertex-id-not-int", "p mcq 2 0 2\nc b 1\n", "line 2: vertex id must be an integer, got 'b'"),
    ("vertex-id-negative", "p mcq 2 0 2\nc -4 1\n", "line 2: vertex id must be non-negative"),
    ("vertex-id-range", "p mcq 2 0 2\nc 5 1\n", "line 2: vertex id 5 outside 0..1"),
    ("vertex-duplicate", "p mcq 2 0 2\nc 0 1\nc 0 2\n",
     "line 3: duplicate color line for vertex 0"),
    ("color-not-int", "p mcq 2 0 2\nc 0 red\n", "line 2: color must be an integer, got 'red'"),
    ("color-negative", "p mcq 2 0 2\nc 0 -1\n", "line 2: color must be non-negative"),
    ("color-zero", "p mcq 2 0 2\nc 0 0\n", "line 2: color 0 outside 1..2"),
    ("color-above-k", "p mcq 2 0 2\nc 0 3\n", "line 2: color 3 outside 1..2"),
    ("edge-short", "p mcq 2 1 2\nc 0 1\nc 1 2\ne 0\n", "line 4: expected 'e <u> <v>'"),
    ("edge-with-profit", "p mcq 2 1 2\nc 0 1\nc 1 2\ne 0 1 1\n", "line 4: expected 'e <u> <v>'"),
    ("endpoint-not-int", "p mcq 2 1 2\ne 1.0 1\n", "line 2: endpoint must be an integer, got '1.0'"),
    ("endpoint-negative", "p mcq 2 1 2\ne 0 -1\n", "line 2: endpoint must be non-negative"),
    ("endpoint-range", "p mcq 2 1 2\ne 3 0\n", "line 2: edge endpoint outside 0..1"),
    ("self-loop", "p mcq 2 1 2\ne 0 0\n", "line 2: self-loop at vertex 0"),
    ("edge-duplicate", "p mcq 3 2 2\ne 2 0\ne 0 2\n",
     "line 3: duplicate edge (0, 2) (first seen on line 2)"),
    ("unknown-line", "p mcq 2 1 2\nv 0 1\n", "line 2: unknown line type 'v'"),
    ("missing-header", "", "missing 'p mcq' header"),
    ("edge-count", "p mcq 2 0 2\nc 0 1\nc 1 2\ne 0 1\n",
     "header announces 0 edges but 1 were given"),
    ("missing-color", "p mcq 3 0 2\nc 0 1\nc 2 2\n", "vertex 1 has no color line"),
    ("k-zero", "p mcq 0 0 0\n", "k must be a positive integer"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in WPVC_FAULTS],
                         ids=[case[0] for case in WPVC_FAULTS])
def test_wpvc_fault_message(text, message):
    with pytest.raises(FormatError) as info:
        parse_wpvc(text)
    assert type(info.value) is FormatError and str(info.value) == message


@pytest.mark.parametrize("text, message", [case[1:] for case in MCQ_FAULTS],
                         ids=[case[0] for case in MCQ_FAULTS])
def test_mcq_fault_message(text, message):
    with pytest.raises(FormatError) as info:
        parse_mcq(text)
    assert type(info.value) is FormatError and str(info.value) == message


def test_missing_color_line_is_named_without_listing_the_vertices():
    # A list of every id below n peaks near 200 MiB at this n.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            parse_mcq("p mcq 5000000 0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "vertex 0 has no color line"
    assert peak < 2**20


def test_sniff_fault_message():
    with pytest.raises(FormatError) as info:
        sniff_format("# nothing\ne 0 1\n")
    assert str(info.value) == "could not find a recognizable 'p wpvc' or 'p mcq' header"


def test_valid_texts_parse_as_before():
    inst = parse_wpvc("# c\np wpvc 4 3 2 3\nv 3 0\nv 0 2\ne 1 0 2\ne 3 2\ne 0 3 0\n",
                      prune=False)
    assert inst.graph.edges == ((0, 1, 2), (2, 3, 1), (0, 3, 0))
    assert inst.graph.costs == (2, 1, 1, 0) and inst.variant is Variant.WPVC
    assert (inst.budget, inst.target) == (2, 3)
    mcq = parse_mcq("p mcq 4 3 2\nc 3 2\nc 0 1\nc 1 2\nc 2 1\ne 1 0\ne 2 0\ne 3 2\n")
    assert mcq.graph.edges == ((0, 1, 1), (2, 3, 1))
    assert mcq.colors == (1, 2, 1, 2) and mcq.dropped_intra_class_edges == 1


SMALL = st.integers(0, 4).map(str)
JUNK = st.sampled_from(["-1", "x", "1.5", "", "#", "p", "wpvc", "mcq", "v", "c", "e", "q"])
TOKEN = st.one_of(SMALL, JUNK)
HEADER = st.one_of(st.builds("p wpvc {} {} {} {}".format, SMALL, SMALL, SMALL, SMALL),
                   st.builds("p mcq {} {} {}".format, SMALL, SMALL, SMALL))
LINE = st.one_of(
    HEADER,
    st.builds("v {} {}".format, TOKEN, TOKEN),
    st.builds("c {} {}".format, TOKEN, TOKEN),
    st.builds("e {} {}".format, TOKEN, TOKEN),
    st.builds("e {} {} {}".format, TOKEN, TOKEN, TOKEN),
    st.lists(TOKEN, max_size=5).map(" ".join),
    st.sampled_from(["", "   ", "# a comment", "  # indented comment"]),
)
# Most soups open with a header, so that the lines after it get read too.
SOUP = st.builds(lambda first, rest: "\n".join([first] + rest),
                 st.one_of(HEADER, LINE), st.lists(LINE, max_size=12))


def _returns_or_raises_toolkit_error(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except PvckitError:
        pass


@settings(max_examples=400, deadline=None)
@given(SOUP, st.booleans())
def test_line_soup_raises_only_toolkit_errors(text, prune):
    _returns_or_raises_toolkit_error(parse_wpvc, text, prune=prune)
    _returns_or_raises_toolkit_error(parse_mcq, text)
    _returns_or_raises_toolkit_error(sniff_format, text)


# Differential check against a frozen copy of the reader before it became one
# lean loop: on any text the current reader returns the same header, vertex
# values (in file order) and edges, or raises a FormatError with the same
# message.

def _outcome(read, text, fmt):
    try:
        header, values, edges = read(text, fmt)
    except FormatError as err:
        assert type(err) is FormatError
        return "error", str(err)
    return header, list(values.items()), edges


def assert_reads_as_frozen(text):
    for fmt in ("wpvc", "mcq"):
        assert _outcome(formats._read, text, fmt) == _outcome(frozen_reader._read, text, fmt)
    first = next(frozen_reader._tokenized(text), (0, [""]))[1]
    if first[0] == "p" and len(first) >= 2 and first[1] in ("wpvc", "mcq"):
        assert sniff_format(text) == first[1]
    else:
        with pytest.raises(FormatError):
            sniff_format(text)


ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spellings(value):
    """Tokens that int() reads as ``value``: plain, signed, zero-padded,
    with an underscore, and in Arabic-Indic digits."""
    digits = str(abs(value))
    forms = [digits, "0" + digits, "00" + digits, digits.translate(ARABIC_DIGITS)]
    if len(digits) > 1:
        forms.append(digits[0] + "_" + digits[1:])
    signs = ["-"] if value < 0 else ["", "+"]
    return st.sampled_from([sign + form for sign in signs for form in forms])


# Mostly small values, so that many lines pass; costs and profits above 2**64.
ODD_VALUES = st.sampled_from([-1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 3 ** 80])
NUMBER = st.integers(0, 9).flatmap(
    lambda roll: st.integers(0, 4) if roll else ODD_VALUES).flatmap(spellings)
ANY = st.one_of(NUMBER, NUMBER, JUNK)
SPACE = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\u3000"])
BREAK = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])
COMMENTS = [[], ["#"], ["#", "note"], ["#note"], ["##", "e", "0", "1"]]
ROW = st.one_of(
    st.lists(NUMBER, min_size=2, max_size=3).map(lambda ends: ["e"] + ends),
    st.lists(NUMBER, min_size=2, max_size=2).map(lambda pair: ["v"] + pair),
    st.lists(NUMBER, min_size=2, max_size=2).map(lambda pair: ["c"] + pair),
    st.builds(lambda kind, rest: [kind] + rest,
              st.sampled_from(["e", "v", "c", "#", "#x", "p", "q"]), st.lists(ANY, max_size=4)),
    st.sampled_from(COMMENTS),
)
FIELDS = {"wpvc": 4, "mcq": 3}


def _render(draw, rows):
    """The rows of tokens as text: each line indented or not, its tokens
    joined by runs of spaces and tabs, and ended by any line break
    ``str.splitlines`` knows."""
    out = []
    for row in rows:
        out.append(draw(st.sampled_from(["", "", " ", "\t"])))
        out.append("".join(tok + draw(SPACE) for tok in row[:-1]) + "".join(row[-1:]))
        out.append(draw(BREAK))
    return "".join(out)


@st.composite
def line_soups(draw):
    """A header that usually fits one format over lines of any kind, odd
    integer spellings and huge values."""
    rows = draw(st.lists(ROW, max_size=10))
    fmt = draw(st.sampled_from(["wpvc", "mcq"]))
    m = sum(row[:1] == ["e"] for row in rows) + draw(st.sampled_from([0, 0, 0, 1]))
    header = ["p", fmt, draw(st.sampled_from([5, 3, 0]).flatmap(spellings)), str(m)]
    header += draw(st.lists(NUMBER, min_size=FIELDS[fmt] - 2, max_size=FIELDS[fmt] - 2))
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.lists(ANY, max_size=6))
    rows.insert(0 if draw(st.integers(0, 9)) else len(rows) // 2, header)
    rows[0:0] = draw(st.lists(st.sampled_from(COMMENTS), max_size=2))
    return _render(draw, rows)


@st.composite
def spaced_instances(draw):
    """A valid instance of either format, then at most one spoiled line: a
    stray token, a repeated line, a stray line or a last value of 0 or k + 1."""
    fmt = draw(st.sampled_from(["wpvc", "mcq"]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    value = st.integers(0, 4) | ODD_VALUES.filter(lambda x: x >= 0) if fmt == "wpvc" \
        else st.integers(1, k)
    ids = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if fmt == "wpvc" \
        else draw(st.permutations(range(n)))

    def number(x):
        return draw(spellings(x))

    rows = [["p", fmt] + [number(x) for x in [n, len(picked), k, k][:FIELDS[fmt]]]]
    rows += [["cv"[fmt == "wpvc"], number(v), number(draw(value))] for v in ids]
    for u, v in picked:
        ends = [number(u), number(v)][::draw(st.sampled_from([1, -1]))]
        profit = [number(draw(value))] if fmt == "wpvc" and draw(st.booleans()) else []
        rows.append(["e"] + ends + profit)
    spoil = draw(st.integers(0, 4))
    if spoil == 1:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(ANY)
    elif spoil == 2:
        rows.append(list(draw(st.sampled_from(rows))))
    elif spoil == 3:
        rows.insert(draw(st.integers(0, len(rows))), draw(ROW))
    elif spoil == 4 and len(rows) > 1:
        # A cost or color at the edge of its range.
        rows[draw(st.integers(1, len(rows) - 1))][-1] = number(draw(st.sampled_from([0, k + 1])))
    return _render(draw, rows)


@settings(max_examples=600, deadline=None)
@given(st.one_of(line_soups(), spaced_instances(), SOUP))
def test_reader_matches_frozen_reader(text):
    assert_reads_as_frozen(text)


# 'v 0 1' and 'e 1 0' repeat lines of the valid text and are faults only
# after them.
REPEATS = ["v 0 1", "e 1 0"]
LINE_FAULTS = ["e 0 0", "e 1 9", "e 0", "e 0 1 1 1", "e x 1", "e -1 2", "e 0 1 -3",
               "v 9 1", "v 1", "v 2 y", "v 3 -1", "q 1", "c 0 1"] + REPEATS


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LINE_FAULTS), st.sampled_from(LINE_FAULTS), st.data())
def test_first_of_two_faulty_lines_is_reported(first, second, data):
    lines = ["p wpvc 4 2 3 2", "v 0 1", "v 1 2", "v 2 3", "e 0 1 2", "e 2 3 1"]
    lowest = lines.index("e 0 1 2") + 1 if first in REPEATS else 1
    i = data.draw(st.integers(lowest, len(lines)), label="first at")
    j = data.draw(st.integers(i + 1, len(lines) + 1), label="second at")
    lines.insert(i, first)
    lines.insert(j, second)
    text = "\n".join(lines) + "\n"
    assert_reads_as_frozen(text)
    with pytest.raises(FormatError) as info:
        parse_wpvc(text)
    assert str(info.value).startswith("line %d: " % (i + 1))
