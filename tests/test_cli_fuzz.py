"""Argv soup over every subcommand: no input crashes a command.

Every run exits with 0, 1 or 2, and ``bench`` never with 1, which there
means a bound violation; none prints ``internal error``, which is kept for
faults of the program, not of its input; and every instance file
``gen`` writes with exit 0 loads again. Sizes stay small (n <= 10, bench
grids of at most two values), so each run takes milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pvckit import parse_mcq
from pvckit.cli import main
from test_format_reader import SOUP

# Mostly small integers; the odd token argparse rejects.
NUMBER = st.sampled_from([str(i) for i in range(-2, 11)] + ["x", "1.5"])
PROB = st.one_of(st.sampled_from(["nan", "inf", "-inf", "2", "-0.5", "x"]),
                 st.floats(0, 1).map(str))
FILES = ["weighted.wpvc", "unit.wpvc", "good.mcq", "soup.txt", "missing.wpvc",
         "bench.json"]
WEIGHTED_WPVC = "p wpvc 4 3 2 3\nv 0 0\nv 3 2\ne 0 1 0\ne 1 2 3\ne 2 3 1\n"
UNIT_WPVC = "p wpvc 5 4 2 3\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
GOOD_MCQ = "p mcq 4 3 2\nc 0 1\nc 1 1\nc 2 2\nc 3 2\ne 0 2\ne 1 3\ne 0 3\n"

RUN = st.fixed_dictionaries(
    {}, optional={"alg": st.sampled_from(["epvcbd", "bounded-degree", "by-L", "x", 3]),
                  "grid": st.one_of(st.lists(st.integers(-1, 4), max_size=2),
                                    st.just("1"), st.just([1.5])),
                  "seeds": st.one_of(st.lists(st.integers(0, 3), max_size=2),
                                     st.just(["0"]), st.just(0)),
                  "degree_bound": st.one_of(st.integers(-1, 3), st.just("3"))})
CONFIG = st.one_of(st.fixed_dictionaries({}, optional={"runs": st.lists(RUN, max_size=2)}),
                   st.lists(RUN, max_size=2), st.just({"runs": {}}), st.just("runs"))


def _flags(pairs):
    """Up to three of the flags, in drawn order; a pair with value None is a switch."""
    return st.lists(st.sampled_from(pairs), unique_by=lambda pair: pair[0],
                    max_size=3).flatmap(
        lambda chosen: st.tuples(*[st.just([flag]) if value is None
                                   else value.map(lambda v, flag=flag: [flag, v])
                                   for flag, value in chosen]))


FILE = st.sampled_from(FILES)
# Half the time, a file the subcommand reads.
WPVC_FILE = st.one_of(st.sampled_from(["weighted.wpvc", "unit.wpvc", "soup.txt"]), FILE)
MCQ_FILE = st.one_of(st.sampled_from(["good.mcq", "soup.txt"]), FILE)
SHARED = [("--k1", NUMBER), ("--k2", NUMBER), ("--k3", NUMBER), ("--json-like", None)]
ALG = st.sampled_from(["epvcbd", "bounded-degree", "by-L", "fractional", "pvcbm"])
# Per subcommand: its positional and required arguments, then its options.
COMMANDS = {
    "solve": (st.tuples(WPVC_FILE, st.just("--alg"), ALG), SHARED + [("--verify", None)]),
    "oracle": (st.tuples(st.one_of(WPVC_FILE, MCQ_FILE)), SHARED + [
        ("--kind", st.sampled_from(["auto", "wpvc", "fractional", "pvcbm", "mcq", "x"])),
        ("--cap", NUMBER)]),
    "reduce": (st.tuples(MCQ_FILE), [("--pendantize", None), ("--out", st.just("out.txt"))]),
    "gen": (st.tuples(st.sampled_from(["bipartite-random", "bounded-degree", "mcq-planted"]),
                      st.just("--seed"), NUMBER), [
        ("--n", NUMBER), ("--m", NUMBER), ("--degree-bound", NUMBER),
        ("--cost-max", NUMBER), ("--profit-max", NUMBER), ("--budget", NUMBER),
        ("--target", NUMBER), ("--k", st.integers(-1, 3).map(str)),
        ("--class-size", st.integers(-1, 3).map(str)), ("--edge-prob", PROB),
        ("--no-plant", None), ("--out", st.just("gen.out"))]),
    "bench": (st.tuples(), [("--config", FILE)]),
}
ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda name: st.tuples(st.just([name]), COMMANDS[name][0].map(list),
                           _flags(COMMANDS[name][1]))).map(
    lambda parts: parts[0] + parts[1] + [token for flag in parts[2] for token in flag])


def run(argv, cwd):
    """Exit code, stdout and stderr of one in-process run in ``cwd``."""
    out, err = io.StringIO(), io.StringIO()
    argv = [str(cwd / a) if a in FILES + ["gen.out", "out.txt"] else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(ARGV, SOUP, CONFIG)
def test_argv_soup_never_crashes(argv, soup, config):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "weighted.wpvc").write_text(WEIGHTED_WPVC)
        (cwd / "unit.wpvc").write_text(UNIT_WPVC)
        (cwd / "good.mcq").write_text(GOOD_MCQ)
        (cwd / "soup.txt").write_text(soup)
        (cwd / "bench.json").write_text(json.dumps(config))
        code, out, err = run(argv, cwd)
        assert code in (0, 1, 2), (argv, code, err)
        # bench exits 1 only on a node or depth bound violation, a fault of the program.
        assert not (argv[0] == "bench" and code == 1), (argv, config, out)
        assert "internal error" not in err, (argv, err)
        if argv[0] == "gen" and code == 0:
            written = cwd / "gen.out"
            text = written.read_text() if "--out" in argv else out
            if argv[1] == "mcq-planted":
                parse_mcq(text)
            else:
                written.write_text(text)
                code, _, err = run(["solve", "--alg", "by-L", "--verify", "gen.out"], cwd)
                assert code in (0, 1), (argv, err)
