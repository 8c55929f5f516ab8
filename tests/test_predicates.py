"""Predicates, relations, flexibility, maxterms, and star laws."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from polymorph.errors import (DomainError, UnsupportedError, ValidationError)
from polymorph import predicates as pr


def test_constructor_validation():
    with pytest.raises(ValidationError):
        pr.Predicate(2, 2, [])
    with pytest.raises(ValidationError):
        pr.Predicate(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(DomainError):
        pr.Predicate(2, 2, [(0, 2)])
    with pytest.raises(ValidationError):
        pr.Predicate(2, 2, [(0, 0), (1, 1)], [Fraction(1, 2), Fraction(0)])
    with pytest.raises(ValidationError):
        pr.Predicate(2, 2, [(0, 0), (1, 1)], [0.6, 0.5])


def test_marginals_and_min_weight():
    P = pr.nand_predicate(2)
    assert P.marginal(0) == [Fraction(2, 3), Fraction(1, 3)]
    assert P.marginal(1) == [Fraction(2, 3), Fraction(1, 3)]
    assert P.min_weight == Fraction(1, 3)
    Q = pr.nand_predicate(3)
    assert Q.marginal(0) == [Fraction(4, 7), Fraction(3, 7)]


def test_validate_reports_degenerate_coordinates():
    P = pr.Predicate(2, 2, [(0, 0), (0, 1)])
    rep = pr.validate(P)
    assert rep.degenerate_coordinates == (0,)
    assert rep.min_weight == pytest.approx(0.5)


def test_nae3_projection_weights():
    P = pr.nae_predicate(3)
    Q = P.project([0, 1])
    want = {(0, 0): Fraction(1, 6), (0, 1): Fraction(1, 3),
            (1, 0): Fraction(1, 3), (1, 1): Fraction(1, 6)}
    got = {w: Q.weight(w) for w in Q.members}
    assert got == want


def test_affine_relations_parity_equality_nand():
    P = pr.parity_predicate(3, 0)
    assert pr.affine_relations(P) == [(frozenset({0, 1, 2}), 0)]
    P1 = pr.parity_predicate(3, 1)
    assert pr.affine_relations(P1) == [(frozenset({0, 1, 2}), 1)]
    eq = pr.Predicate(2, 2, [(0, 0), (1, 1)])
    assert pr.affine_relations(eq) == [(frozenset({0, 1}), 0)]
    assert pr.affine_relations(pr.nand_predicate(2)) == []


def test_affine_relations_closed_under_symmetric_difference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        size = int(rng.integers(1, 2 ** m))
        pts = sorted(itertools.product((0, 1), repeat=m))
        chosen = [pts[i] for i in rng.choice(len(pts), size, replace=False)]
        P = pr.Predicate(m, 2, chosen)
        rels = dict(pr.affine_relations(P))
        for (S1, b1), (S2, b2) in itertools.product(rels.items(), repeat=2):
            S = S1 ^ S2
            if S:
                assert rels[S] == b1 ^ b2


def test_classify_short_relations():
    # P_{3,0} has no short relations
    cls = pr.classify_short_relations(pr.parity_predicate(3, 0))
    assert cls.constants == {}
    assert cls.representatives == (0, 1, 2)
    # constant coordinate, duplicate, and anti-duplicate
    members = [(0, a, b, a, 1 - a) for a in (0, 1) for b in (0, 1)]
    P = pr.Predicate(5, 2, members)
    cls = pr.classify_short_relations(P)
    assert cls.constants == {0: 0}
    assert cls.classes == {1: {1: 0, 3: 0, 4: 1}, 2: {2: 0}}
    assert cls.representatives == (1, 2)
    proj = P.project(cls.representatives)
    assert all(len(S) >= 3 for S, _ in pr.affine_relations(proj))


def test_flexible_coordinates_one_hot_all_inflexible():
    P = pr.one_hot_predicate(3)
    assert all(not fc.flexible for fc in pr.flexible_coordinates(P))


def test_flexible_coordinates_functional_predicate():
    from polymorph import funcspace as fs
    P = pr.functional_predicate(fs.and_all(2))
    flex = pr.flexible_coordinates(P)
    assert flex[0].flexible and flex[1].flexible
    assert not flex[2].flexible
    # witness bases are normalized to 0 at the coordinate
    assert flex[0].witnesses[0][0] == 0
    assert flex[0].witnesses[0] in P and flex[0].witnesses[1] in P


def test_monotone_without_constants_is_all_flexible():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        # random monotone predicate: downward closure of random points
        seeds = [tuple(int(v) for v in rng.integers(0, 2, m))
                 for _ in range(int(rng.integers(1, 4)))]
        members = set()
        for w in seeds:
            ones = [j for j in range(m) if w[j]]
            for sub in itertools.chain.from_iterable(
                    itertools.combinations(ones, r) for r in range(len(ones) + 1)):
                x = tuple(1 if j in sub else 0 for j in range(m))
                members.add(x)
        P = pr.Predicate(m, 2, sorted(members))
        constant = {j for j in range(m) if len({w[j] for w in P.members}) == 1}
        flex = pr.flexible_coordinates(P)
        for j in range(m):
            if j not in constant:
                assert flex[j].flexible


def test_maxterms():
    assert pr.maxterms(pr.nand_predicate(2)) == [frozenset({0, 1})]
    assert pr.maxterms(pr.nand_predicate(3)) == [frozenset({0, 1, 2})]
    members = [w for w in itertools.product((0, 1), repeat=4)
               if not (w[0] and w[1]) and not (w[2] and w[3])]
    P = pr.Predicate(4, 2, sorted(members))
    assert pr.maxterms(P) == [frozenset({0, 1}), frozenset({2, 3})]
    with pytest.raises(ValidationError):
        pr.maxterms(pr.parity_predicate(3, 0))


def test_star_law_nand2_probabilities():
    P = pr.nand_predicate(2)
    law = pr.star_law(P, mode="monotone_nand")
    assert law.q == Fraction(1, 6)
    got = dict(zip(law.patterns, law.probs))
    # the residual member probabilities follow (1-q) mu(e_j) and
    # (1-q) mu(0) - q for the zero pattern
    q = Fraction(1, 6)
    assert got[(0, 0)] == (1 - q) * Fraction(1, 3) - q
    assert got[(1, 0)] == (1 - q) * Fraction(1, 3)
    assert got[(0, 1)] == (1 - q) * Fraction(1, 3)
    assert got[(None, 0)] == q and got[(0, None)] == q
    assert set(law.patterns) == {(0, 0), (1, 0), (0, 1), (None, 0), (0, None)}


def test_star_law_general_matches_monotone_mode_on_nand():
    P = pr.nand_predicate(3)
    a = pr.star_law(P, mode="general")
    b = pr.star_law(P, mode="monotone_nand")
    assert dict(zip(a.patterns, a.probs)) == dict(zip(b.patterns, b.probs))


def test_star_law_composition_reproduces_mu_exactly():
    cases = [
        pr.nand_predicate(2),
        pr.nand_predicate(3, weights=[Fraction(1, 7)] * 7),
        pr.nae_predicate(3),
        pr.exclude_point_predicate(2, 3, (0, 0)),
        pr.full_predicate(2, 2, [Fraction(1, 10), Fraction(2, 10),
                                 Fraction(3, 10), Fraction(4, 10)]),
    ]
    for P in cases:
        for q in (None, P.min_weight / (2 * P.m)):
            law = pr.star_law(P, q=q)
            composed = law.compose()
            want = {w: p for w, p in zip(P.members, P.weights)}
            assert composed == want
            assert sum(law.probs) == 1


def test_star_law_rejects_oversized_q():
    P = pr.nand_predicate(2)
    with pytest.raises(ValidationError) as exc:
        pr.star_law(P, q=Fraction(1, 2))
    assert "(0, 0)" in str(exc.value)


def test_star_law_skips_inflexible_coordinates():
    P = pr.one_hot_predicate(3)
    law = pr.star_law(P)
    assert all(j is None for j in law.star_coords)
    from polymorph import funcspace as fs
    P2 = pr.functional_predicate(fs.and_all(2))
    law2 = pr.star_law(P2)
    assert set(law2.star_coords) == {None, 0, 1}


def test_predicate_file_roundtrip():
    P = pr.nand_predicate(3)
    text = pr.format_predicate(P)
    Q = pr.parse_predicate(text)
    assert Q.members == P.members and Q.weights == P.weights
    text2 = "pred m=2 sigma=3\nw=01 p=0.25\nw=12 p=1/4\nw=20 p=0.5\n"
    R = pr.parse_predicate(text2)
    assert R.weight((1, 2)) == Fraction(1, 4)
    assert R.weight((0, 1)) == Fraction(1, 4)
    assert R.weight((2, 0)) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        pr.parse_predicate("nonsense")


def test_affine_relations_need_binary():
    P = pr.exclude_point_predicate(2, 3, (0, 0))
    with pytest.raises(UnsupportedError):
        pr.affine_relations(P)
    with pytest.raises(UnsupportedError):
        pr.classify_short_relations(P)
    with pytest.raises(UnsupportedError):
        pr.maxterms(P)
