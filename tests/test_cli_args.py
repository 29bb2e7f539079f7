"""The CLI's argument reader against argparse.

``cli._read_args`` settles the command lines that the option table
``cli.OPTIONS`` fully determines and returns None for every other one,
which ``cli.build_parser`` -- argparse, over the same table -- then reads.
Over drawn argument lists: wherever the reader returns a namespace, its
``vars()`` equal argparse's, and wherever argparse exits (help, or a usage
error), the reader returns None.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optpaths import cli

#: values by the kind of option that takes them: valid ones, invalid ones,
#: ``-``-prefixed ones and the empty string
INTS = ["0", "3", "12", "+2", "007", "-1", "-", "1_0", "５", "x", "", "1.0"]
INT_LISTS = ["1", "1,17", "3 5", "2,,4", "-1,2", ",", "1,x", "", "--1", "1_0"]
ALGO_LISTS = ["eom,ht", "ht", "hda eom2", "eom,bogus", "", ",", "-ht"]
TEXTS = ["a.txt", "-", "x y", "a=b", "", "-x", "--out", "solve", "-5", "é"]


def values_for(kw):
    if "choices" in kw:
        return list(kw["choices"]) + ["bad", "", "-"]
    return {cli._int: INTS, cli._int_list: INT_LISTS,
            cli._algo_list: ALGO_LISTS}.get(kw.get("type"), TEXTS)


OPTION_STRINGS = sorted({s for options in cli.OPTIONS.values()
                         for strings, _ in options for s in strings})
#: tokens that are no option of any command, or only a prefix of one
JUNK = ["-h", "--help", "--", "-", "--inst", "--so", "--n", "--s", "--x",
        "x", "", "grid", "solve", "gen", "-1", "--out=", "--debug"]


@st.composite
def option_items(draw, options):
    """One option of ``options`` as its argv tokens, in any form."""
    strings, kw = draw(st.sampled_from(options))
    opt = draw(st.sampled_from(strings))
    value = draw(st.sampled_from(values_for(kw)))
    if kw.get("action") == "store_true":
        return draw(st.sampled_from([[opt], [opt], [opt, value],
                                     [f"{opt}={value}"]]))
    return draw(st.sampled_from([[opt, value], [opt, value], [opt, value],
                                 [f"{opt}={value}"], [opt], [opt[:-1], value],
                                 [opt, "-h"]]))


@st.composite
def argvs(draw):
    """A command line: mostly a command of the table with its options, each
    maybe repeated, left out or spoiled, with junk tokens mixed in."""
    key = draw(st.sampled_from(sorted(cli.OPTIONS)))
    options = cli.OPTIONS[key]
    head = list(key)
    if draw(st.integers(0, 9)) == 0:
        head = draw(st.sampled_from([[], ["gen"], ["gen", "solve"], ["sol"],
                                     ["-h"], ["x"], ["bench", "grid"]]))
    items = []
    for strings, kw in options:  # most lines give every required option
        if kw.get("required") and draw(st.integers(0, 5)):
            items.append([strings[-1] if len(strings) > 1 and draw(
                st.booleans()) else strings[0],
                draw(st.sampled_from(values_for(kw)[:3]))])
    items += draw(st.lists(option_items(options), max_size=4))
    items += draw(st.lists(st.sampled_from(JUNK).map(lambda t: [t]),
                           max_size=1))
    order = draw(st.permutations(range(len(items))))
    return head + [tok for i in order for tok in items[i]]


def argparse_outcome(argv):
    """argparse's namespace as a dict, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=1500, deadline=None)
@given(argv=argvs())
def test_the_reader_agrees_with_argparse(argv):
    args = cli._read_args(argv)
    want = argparse_outcome(argv)
    if args is not None:
        assert vars(args) == want
    if not isinstance(want, dict):
        assert args is None


#: the command lines of the benchmark and the README, which the reader
#: settles without argparse
SETTLED = [
    "gen grid --rows 200 --cols 200 --seed 3 --out grid.txt",
    "gen grid --rows 6 --cols 5 --hzp --out -",
    "gen random --n 20000 --arcs 100000 --directed --seed 5 --out rand.txt",
    "solve --instance grid.txt --algo ht --out res.txt",
    "solve --instance rand.txt --algo multi --sources 5,900 --out res.txt",
    "solve --instance g.txt --algo eom --source 2 --format csv "
    "--debug-invariants",
    "verify --instance rand.txt --results res.txt --fixpoint",
    "compare --instance grid.txt --format csv --out -",
    "bench --n-total 600 --kc 10,20,40 --algos eom,eom2,hrp,fr,ht --out b.csv",
]


@pytest.mark.parametrize("line", SETTLED)
def test_the_reader_settles_well_formed_lines(line):
    args = cli._read_args(line.split())
    assert args is not None
    assert vars(args) == argparse_outcome(line.split())
