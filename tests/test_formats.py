"""Property tests for the text formats: round-trips and malformed fields."""

import contextlib
import io
import re
import string
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polymorph import cli
from polymorph import funcspace as fs
from polymorph import predicates as pr
from polymorph.errors import DomainError, PolymorphError, ValidationError


@st.composite
def tables(draw):
    codomain = draw(st.sampled_from(fs.CODOMAINS))
    s = 2 if codomain == "bit" else draw(st.integers(2, 4))
    n = draw(st.integers(1, 4 if s == 2 else 3))
    size = s ** n
    if codomain == "real":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                               max_size=size))
    else:
        top = 1 if codomain == "bit" else s - 1
        values = draw(st.lists(st.integers(0, top), min_size=size,
                               max_size=size))
    return fs.FunctionTable(n, s, codomain, values)


@st.composite
def predicates(draw):
    m = draw(st.integers(1, 3))
    s = draw(st.integers(2, 4))
    points = sorted(fs.points_in_index_order(m, s))
    members = draw(st.lists(st.sampled_from(points), min_size=1, unique=True))
    raw = draw(st.lists(st.integers(1, 50), min_size=len(members),
                        max_size=len(members)))
    return pr.Predicate(m, s, members,
                        [Fraction(w, sum(raw)) for w in raw])


@settings(max_examples=60, deadline=None)
@given(tables())
def test_function_format_round_trip(f):
    assert fs.parse_function(fs.format_function(f)).equals(f)


@settings(max_examples=60, deadline=None)
@given(predicates())
def test_predicate_format_round_trip(P):
    Q = pr.parse_predicate(pr.format_predicate(P))
    assert (Q.m, Q.s) == (P.m, P.s)
    assert Q.members == P.members and Q.weights == P.weights


# each template holds one numeric field, "{}", and a value that parses there
FN = "fn n={n} sigma={s} codomain={c}\n{body}\n"
CHAIN = "chain y={y} factors={k}\nfactor\n0.5 {a}\n0.5 0.5\nassign {j}\n"
RUN = ("[run a]\npipeline = general\npred = p.pred\nn = 4\n"
       "plant = dictator:1\neps = 0.1\n")
TEMPLATES = [
    ("fn", FN.format(n="{}", s=2, c="bit", body="table 0 1"), "1"),
    ("fn", FN.format(n=1, s="{}", c="bit", body="table 0 1"), "2"),
    ("fn", FN.format(n=1, s=2, c="bit", body="table {} 1"), "0"),
    ("fn", FN.format(n=1, s=2, c="real", body="table 0.5 {}"), "0.25"),
    ("fn", FN.format(n=3, s=2, c="bit", body="char S=1,{} b=0"), "2"),
    ("fn", FN.format(n=3, s=2, c="bit", body="char S=1 b={}"), "1"),
    ("fn", FN.format(n=3, s=2, c="bit", body="dictator i={}"), "3"),
    ("fn", FN.format(n=3, s=2, c="real", body="const {}"), "0.5"),
    ("pred", "pred m={} sigma=2\nw=00 p=1\n", "2"),
    ("pred", "pred m=2 sigma={}\nw=00 p=1\n", "2"),
    ("pred", "pred m=2 sigma=2\nw={} p=1\n", "01"),
    ("pred", "pred m=2 sigma=2\nw=00 p={}\n", "1"),
    ("chain", CHAIN.format(y="{}", k=1, a=0.5, j=1), "2"),
    ("chain", CHAIN.format(y=2, k="{}", a=0.5, j=1), "1"),
    ("chain", CHAIN.format(y=2, k=1, a="{}", j=1), "0.5"),
    ("chain", CHAIN.format(y=2, k=1, a=0.5, j="{}"), "1"),
    ("config", "seed = {}\n", "7"),
] + [("config", RUN + f"{key} = {{}}\n", good)
     for key, good in (("n", "4"), ("flip", "0.1"), ("repeats", "2"),
                       ("eps", "0.2"), ("eta", "0.1"), ("d", "3"),
                       ("tau", "0.2"), ("attempts", "5"))]

# no digits, so no junk token reads as a number; nan and inf spellings
# still come through and must be refused as non-finite
JUNK = st.text(alphabet=string.ascii_letters + "!$%&*+-./:;?@^_|~,",
               min_size=1, max_size=8)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    pr.save_predicate(d / "p.pred", pr.nand_predicate(2))
    fs.save_function(d / "f.fn", fs.dictator(4, 0))
    return d


def _parse(kind, text, config_dir):
    if kind == "fn":
        return fs.parse_function(text)
    if kind == "pred":
        return pr.parse_predicate(text)
    if kind == "chain":
        return cli.parse_chain(text)
    if kind == "plant":
        return cli._parse_plant(text, pr.nand_predicate(2), 4)
    if kind == "measure":
        return cli._parse_measure(text, 4, 2)
    path = config_dir / "junk.cfg"
    path.write_text(text)
    return cli.parse_experiment_config(path)


def test_templates_parse_when_filled_with_a_number(config_dir):
    for kind, template, good in TEMPLATES:
        _parse(kind, template.replace("{}", good), config_dir)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TEMPLATES), JUNK)
def test_junk_fields_raise_validation_error_only(config_dir, template, junk):
    kind, text, _ = template
    with pytest.raises(ValidationError):
        _parse(kind, text.replace("{}", junk), config_dir)


@pytest.mark.parametrize("body, error, message", [
    # 1-based in the file, so the message is too
    ("dictator i=9", DomainError, "coordinate 9 outside 1..3"),
    ("dictator i=0", DomainError, "coordinate 0 outside 1..3"),
    ("char S=1,4 b=0", DomainError, "coordinate 4 outside 1..3"),
    # x_1 xor x_1 is a constant, not x_1
    ("char S=1,1 b=0", ValidationError, "coordinate 1 repeats"),
    ("char S=3,2,03", ValidationError, "coordinate 03 repeats"),
])
def test_constructor_coordinates_are_checked_as_written(body, error, message):
    with pytest.raises(error, match=message):
        fs.parse_function(FN.format(n=3, s=2, c="bit", body=body))


# each of these read as if the misspelt key were absent
@pytest.mark.parametrize("kind, text, key", [
    ("fn", "fn n=1 sigma=2 codomain=bit sigam=3\ntable 0 1\n", "sigam"),
    ("fn", FN.format(n=3, s=2, c="bit", body="char S=1 bb=1"), "bb"),
    ("fn", FN.format(n=3, s=2, c="bit", body="dictator i=1 j=2"), "j"),
    ("fn", FN.format(n=3, s=2, c="bit", body="and x=1"), "x"),
    ("pred", "pred m=1 sigma=2 sgima=3\nw=0 p=1/2\nw=1 p=1/2\n", "sgima"),
    ("pred", "pred m=1 sigma=2\nw=0 p=1/2 q=1\nw=1 p=1/2\n", "q"),
    ("chain", CHAIN.format(y=2, k=1, a=0.5, j=1).replace(
        "factors=1", "factors=1 factor=1"), "factor"),
    ("config", "seed = 1\nsed = 2\n", "sed"),
    ("config", RUN + "attempt = 3\n", "attempt"),
], ids=["fn-header", "fn-char", "fn-dictator", "fn-and", "pred-header",
        "pred-member", "chain-header", "config-global", "config-run"])
def test_unknown_keys_are_refused_by_name(config_dir, kind, text, key):
    with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
        _parse(kind, text, config_dir)


@pytest.mark.parametrize("kind, text", [
    ("fn", "fnx n=1 sigma=2 codomain=bit\ntable 0 1\n"),
    ("pred", "predicate m=1 sigma=2\nw=0 p=1\n"),
    ("chain", CHAIN.format(y=2, k=1, a=0.5, j=1).replace("chain ",
                                                         "chainfoo ")),
    ("chain", CHAIN.format(y=2, k=1, a=0.5, j=1).replace("assign ",
                                                         "assignx ")),
    # the body is the last line
    ("fn", "fn n=1 sigma=2 codomain=bit\ntable 0 1\ntable 1 0\n"),
], ids=["fn-header", "pred-header", "chain-header", "chain-assign",
        "fn-second-body"])
def test_line_words_must_be_the_format_words(config_dir, kind, text):
    with pytest.raises(ValidationError):
        _parse(kind, text, config_dir)


# each of these used to parse to a binary bit table whatever the header said
@pytest.mark.parametrize("s, c, body", [
    (3, "sym", "and"), (3, "real", "char S=1"), (2, "real", "dictator i=1"),
    (2, "sym", "or")])
def test_the_header_names_what_the_constructor_builds(s, c, body):
    with pytest.raises(ValidationError, match="header says"):
        fs.parse_function(FN.format(n=2, s=s, c=c, body=body))


def test_a_comment_runs_to_the_end_of_any_line():
    f = fs.parse_function("fn n=2 sigma=2 codomain=bit # xor\n"
                          "table 0 1 1 0  # index order\n")
    assert f.equals(fs.character(2, [0, 1]))
    P = pr.parse_predicate("pred m=1 sigma=2 # fair\nw=0 p=1/2 # zero\n"
                           "w=1 p=1/2\n")
    assert P.weights == (Fraction(1, 2), Fraction(1, 2))
    chain = cli.parse_chain("chain y=2 factors=1 #\nfactor # lazy\n"
                            "0.9 0.1 # stay\n0.1 0.9\nassign 1 1 # both\n")
    assert chain.assignment == (0, 0) and chain.factors[0][0, 0] == 0.9


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_format_examples_parse(tmp_path):
    # the documented grammar cannot drift from the tokenizer: every fenced
    # example under "File formats" parses, the config against stub files
    section = README.read_text().split("\n## File formats\n")[1]
    blocks = re.findall(r"^```\n(.*?)^```", section.split("\n## ")[0],
                        re.M | re.S)
    pr.save_predicate(tmp_path / "nand2.pred", pr.nand_predicate(2))
    pr.save_predicate(tmp_path / "par3.pred", pr.parity_predicate(3, 0))
    for j in (1, 2, 3):
        fs.save_function(tmp_path / f"f{j}.fn", fs.dictator(4, j - 1))
    words = []
    for text in blocks:
        words.append(text.split()[0])
        if words[-1] == "seed":
            (tmp_path / "example.cfg").write_text(text)
            config = cli.parse_experiment_config(tmp_path / "example.cfg")
            assert [r.label for r in config.runs] == ["nand-mono",
                                                      "from-files"]
        else:
            parse = {"fn": fs.parse_function, "pred": pr.parse_predicate,
                     "chain": cli.parse_chain}[words[-1]]
            parse(text)
    assert sorted(words) == ["chain", "fn", "pred", "seed"]


def test_constructor_coordinates_read_one_based():
    f = fs.parse_function(FN.format(n=3, s=2, c="bit", body="char S=3,1 b=1"))
    assert f.equals(fs.character(3, [0, 2], 1))
    d = fs.parse_function(FN.format(n=3, s=3, c="sym", body="dictator i=3"))
    assert d.equals(fs.dictator(3, 2, 3))


# -- grammar-mutation fuzz of the six text entry points ----------------------
#
# Valid texts are cut into tokens (separators kept), and a few tokens are
# replaced, inserted, deleted or swapped, new ones drawn from every seed
# and from a list of extreme values; one operation puts an extreme value
# in place of a number.  Inputs so stay close to the grammar and reach
# past the header lines.

FUZZ_SEEDS = {
    "fn": ["fn n=3 sigma=2 codomain=bit\ntable 0 1 1 0 1 0 0 1\n",
           "fn n=2 sigma=3 codomain=sym\ntable 0 1 2 2 1 0 0 0 1\n",
           "fn n=2 sigma=2 codomain=real\ntable 0.5 1 0 0.25\n",
           "fn n=4 sigma=2 codomain=bit\nchar S=1,3 b=1\n",
           "fn n=3 sigma=3 codomain=sym\ndictator i=2\n",
           "fn n=4 sigma=2 codomain=bit\nhybrid\n",
           "fn n=3 sigma=2 codomain=bit\nand\n",
           "fn n=3 sigma=2 codomain=bit\nor\n",
           "fn n=2 sigma=4 codomain=sym\nconst 3\n",
           "fn n=2 sigma=2 codomain=real\nconst 0.5\n",
           "fn n=2 sigma=2 codomain=bit  # xor\ntable 0 1 1 0 # by index\n"],
    "pred": ["pred m=2 sigma=2\nw=00 p=1/3\nw=01 p=1/3\nw=10 p=1/3\n",
             "pred m=3 sigma=3\nw=012 p=0.5\nw=120 p=1/4\nw=201 p=25e-2\n",
             "pred m=1 sigma=2 # fair\nw=0 p=1/2 # zero\nw=1 p=1/2\n"],
    "chain": [CHAIN.format(y=2, k=1, a=0.5, j="1 1 1"),
              "chain y=2 factors=2\nfactor\n0.5 0.5\n0.5 0.5\nfactor\n"
              "0.9 0.1\n0.1 0.9\nassign 1 2\n",
              "chain y=2 factors=1 # lazy\nfactor # one\n0.9 0.1 # stay\n"
              "0.1 0.9\nassign 1 1 # both\n"],
    "config": ["seed = 3\n" + RUN,
               "seed = 1\n[run b]\npipeline = polytest\npred = p.pred\n"
               "fn = f.fn,f.fn\nflip = 0.1\n",
               "seed = 2 # root\n[run c] # one run\npipeline = polytest # no "
               "correction\npred = p.pred\nfn = f.fn,f.fn\n"],
    "plant": ["dictator:2", "character:1,3:0,1", "character:2", "constant:0"],
    "measure": ["uniform", "p:0.3", "probs:0.25,0.75"],
}
EXTREMES = ["0", "-1", "1000000000", "4194305", "300", "1e999", "1e99999999",
            "-1e-99999999", "nan", "-inf", "1/0", "9" * 30, "#", "[run c]",
            "\n", ""]
FUZZ_SECONDS = 2.0


def _tokens(text):
    return [t for t in re.split(r"(\s+|[=,:/\[\]])", text) if t]


SEED_TOKENS = sorted({t for seeds in FUZZ_SEEDS.values() for text in seeds
                      for t in _tokens(text)})


@st.composite
def mutated(draw, kinds=tuple(sorted(FUZZ_SEEDS))):
    kind = draw(st.sampled_from(kinds))
    tokens = _tokens(draw(st.sampled_from(FUZZ_SEEDS[kind])))
    new = st.one_of(st.sampled_from(SEED_TOKENS), st.sampled_from(EXTREMES))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("number", "replace", "insert", "delete",
                                   "swap")))
        numbers = [i for i, t in enumerate(tokens) if t[:1].isdigit()]
        if op == "number" and numbers:
            tokens[draw(st.sampled_from(numbers))] = draw(
                st.sampled_from(EXTREMES))
            continue
        i = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if op == "insert" or not tokens:
            tokens.insert(i, draw(new))
        elif op == "replace":
            tokens[i] = draw(new)
        elif op == "delete":
            del tokens[i]
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return kind, "".join(tokens)


def test_fuzz_seeds_parse(config_dir):
    for kind, seeds in FUZZ_SEEDS.items():
        for text in seeds:
            _parse(kind, text, config_dir)


@settings(max_examples=1000, deadline=None)
@given(mutated())
# each of these once hung for minutes or raised outside PolymorphError
@example(("fn", "fn n=1000000000 sigma=3 codomain=sym\ndictator i=2\n"))
@example(("pred", "pred m=2 sigma=2\nw=00 p=1e999\nw=11 p=1/2\n"))
@example(("pred", "pred m=2 sigma=2\nw=00 p=1e99999999\n"))
def test_mutated_text_parses_or_raises_a_polymorph_error(config_dir, case):
    kind, text = case
    start = time.perf_counter()
    try:
        _parse(kind, text, config_dir)
    except PolymorphError:
        pass
    assert time.perf_counter() - start < FUZZ_SECONDS


# -- the same mutations through the command line ------------------------------

CLI_FILES = {"fn": ("f_fuzz.fn", "analyze", "--fn"),
             "pred": ("p_fuzz.pred", "validate", "--pred"),
             "config": ("fuzz.cfg", "experiment", "--config")}


@settings(max_examples=300, deadline=None)
@given(mutated(tuple(sorted(CLI_FILES))))
@example(("fn", "fn n=1000000000 sigma=3 codomain=sym\ndictator i=2\n"))
@example(("config", "seed = 3\n" + RUN.replace("n = 4", "n = 300")))
def test_mutated_files_exit_0_or_1_with_one_error_line(config_dir, case):
    kind, text = case
    name, command, flag = CLI_FILES[kind]
    path = config_dir / name
    path.write_text(text)
    argv = [command, flag, str(path)]
    if kind == "config":
        argv += ["--csv", str(config_dir / "fuzz.csv")]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < FUZZ_SECONDS
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err.getvalue()
