"""The line checks of both instance formats: one single-fault input per
``FormatError`` raised in ``pvckit.formats``, with its exact message, and a
fuzz test that no line soup makes a parser raise anything but a toolkit
error."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvckit import FormatError, InputError, PvckitError, Variant, parse_mcq, parse_wpvc
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


def test_variant_override_that_does_not_fit_is_input_error():
    with pytest.raises(InputError) as info:
        parse_wpvc("p wpvc 2 1 1 1\nv 0 2\ne 0 1\n", variant=Variant.PVC)
    assert type(info.value) is InputError
    assert str(info.value) == ("variant/weight mismatch: variant pvc requires unit costs "
                               "but vertex 0 has cost 2")


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
@given(SOUP, st.booleans(), st.sampled_from(list(Variant)))
def test_line_soup_raises_only_toolkit_errors(text, prune, variant):
    _returns_or_raises_toolkit_error(parse_wpvc, text, prune=prune)
    _returns_or_raises_toolkit_error(parse_wpvc, text, variant=variant, prune=prune)
    _returns_or_raises_toolkit_error(parse_mcq, text)
    _returns_or_raises_toolkit_error(sniff_format, text)
