import pytest

from pvckit import FormatError, Variant, make_mcq, parse_mcq, parse_wpvc, write_mcq, write_wpvc
from pvckit.formats import sniff_format
from pvckit.generators import random_mcq
from helpers import random_instance

PATH3 = """
# three vertices in a path, unit weights
p wpvc 3 2 1 2
e 0 1
e 1 2
"""


class TestParseWpvc:
    def test_minimal_instance(self):
        inst = parse_wpvc(PATH3)
        assert inst.graph.n == 3 and inst.graph.m == 2
        assert inst.budget == 1 and inst.target == 2
        assert inst.variant is Variant.PVC
        assert inst.graph.costs == (1, 1, 1)

    def test_costs_and_profits(self):
        inst = parse_wpvc("p wpvc 2 1 3 4\nv 0 2\ne 0 1 5\n")
        assert inst.graph.costs == (2, 1)
        assert inst.graph.edges[0][2] == 5
        assert inst.variant is Variant.WPVC

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_wpvc("e 0 1\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            parse_wpvc("p wpvc 3 2\n")

    def test_duplicate_edge_is_hard_error(self):
        with pytest.raises(FormatError):
            parse_wpvc("p wpvc 2 2 1 1\ne 0 1\ne 1 0\n")

    def test_wrong_edge_count(self):
        with pytest.raises(FormatError):
            parse_wpvc("p wpvc 2 2 1 1\ne 0 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(FormatError):
            parse_wpvc("p wpvc 2 1 1 1\ne 0 5\n")

    def test_unknown_line_type(self):
        with pytest.raises(FormatError):
            parse_wpvc("p wpvc 2 1 1 1\nq 0 1\ne 0 1\n")

    def test_load_prunes_doubly_unaffordable_edges(self):
        text = "p wpvc 3 2 2 3\nv 0 9\nv 1 9\ne 0 1 5\ne 1 2 1\n"
        inst = parse_wpvc(text)
        assert inst.graph.m == 1

    def test_round_trip(self):
        from pvckit import prune_unaffordable

        for seed in range(30):
            inst = prune_unaffordable(random_instance(seed, n_max=7, profit_min=1))
            again = parse_wpvc(write_wpvc(inst))
            assert again.graph.edges == inst.graph.edges
            assert again.graph.costs == inst.graph.costs
            assert (again.budget, again.target) == (inst.budget, inst.target)


class TestParseMcq:
    def test_minimal(self):
        mcq = parse_mcq("p mcq 2 1 2\nc 0 1\nc 1 2\ne 0 1\n")
        assert mcq.k == 2 and mcq.graph.m == 1
        assert mcq.colors == (1, 2)

    def test_missing_color_line(self):
        with pytest.raises(FormatError):
            parse_mcq("p mcq 2 1 2\nc 0 1\ne 0 1\n")

    def test_color_out_of_range(self):
        with pytest.raises(FormatError):
            parse_mcq("p mcq 2 1 2\nc 0 1\nc 1 3\ne 0 1\n")

    def test_intra_class_edges_dropped_not_rejected(self):
        mcq = parse_mcq("p mcq 3 2 2\nc 0 1\nc 1 1\nc 2 2\ne 0 1\ne 0 2\n")
        assert mcq.graph.m == 1
        assert mcq.dropped_intra_class_edges == 1

    def test_round_trip(self):
        mcq = random_mcq(3, k=3, class_size=2, edge_prob=0.4)
        again = parse_mcq(write_mcq(mcq))
        assert again.graph.edges == mcq.graph.edges
        assert again.colors == mcq.colors and again.k == mcq.k


def test_sniff_format():
    assert sniff_format(PATH3) == "wpvc"
    assert sniff_format("p mcq 1 0 1\nc 0 1\n") == "mcq"
    with pytest.raises(FormatError):
        sniff_format("nonsense\n")


# A comment holding a line break is written as one '#' line per part, so the
# text still parses and the instance survives the round trip.
BROKEN_COMMENTS = ["two\nlines", "a\r\nb", "x\ry", "c\x1cd", "e\u2028f", "tail\n", ""]


@pytest.mark.parametrize("comment", BROKEN_COMMENTS)
def test_wpvc_comment_with_line_breaks_round_trips(comment):
    inst = parse_wpvc("p wpvc 3 2 2 3\nv 0 2\ne 0 1 2\ne 1 2\n")
    text = write_wpvc(inst, comments=[comment, "after"])
    assert parse_wpvc(text) == inst
    assert text.splitlines()[1:] == (["# %s" % part for part in comment.splitlines() or [""]]
                                     + ["# after"] + write_wpvc(inst).splitlines()[1:])


@pytest.mark.parametrize("comment", BROKEN_COMMENTS)
def test_mcq_comment_with_line_breaks_round_trips(comment):
    mcq = make_mcq(3, 2, [1, 2, 1], [(0, 1), (1, 2)])
    text = write_mcq(mcq, comments=[comment])
    assert parse_mcq(text) == mcq
    assert text.splitlines() == (["# %s" % part for part in comment.splitlines() or [""]]
                                 + write_mcq(mcq).splitlines())
