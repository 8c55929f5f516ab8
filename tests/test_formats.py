"""Property tests for the text formats: round-trips and malformed fields."""

import string
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polymorph import cli
from polymorph import funcspace as fs
from polymorph import predicates as pr
from polymorph.errors import ValidationError


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
    return d


def _parse(kind, text, config_dir):
    if kind == "fn":
        return fs.parse_function(text)
    if kind == "pred":
        return pr.parse_predicate(text)
    if kind == "chain":
        return cli.parse_chain(text)
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
