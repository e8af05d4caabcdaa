import random

from hypothesis import given, settings
from hypothesis import strategies as st

from omegasem import (PairSet, Recognizer, UPWord, buchi_accepts_lasso,
                      close_under_conjugation, inclusion_test, langops,
                      language_equivalent, language_included, linked_pairs,
                      member, morphism_to_buchi, parse, universal,
                      weak_to_strong)
from omegasem.mso import And, Exists, In, Less, Not, Or, Succ

from conftest import random_pair_set, random_recognizer, section5_morphism
from test_cli import format_formula

letters = st.sampled_from("ab")
words = st.lists(letters, min_size=1, max_size=12)


@given(words, words)
def test_evaluate_is_a_homomorphism(u, v):
    h = section5_morphism()
    table = h.semigroup.table
    assert h.evaluate(u + v) == table[h.evaluate(u), h.evaluate(v)]


@given(words, st.lists(letters, min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_member_invariant_under_unrolling(prefix, period, repeat, shift):
    # u (v)^w, u v^s (v)^w and u (v^r)^w are all the same word
    h = section5_morphism()
    rec = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    w = UPWord(tuple(prefix), tuple(period))
    unrolled = UPWord(tuple(prefix) + tuple(period) * shift,
                      tuple(period) * repeat)
    assert member(rec, w) == member(rec, unrolled)


fo_vars = st.sampled_from(("x", "y", "z"))
so_vars = st.sampled_from(("X", "Y", "X1"))
atoms = st.one_of(
    st.builds(Less, fo_vars, fo_vars),
    st.builds(Succ, fo_vars, fo_vars),
    st.builds(In, fo_vars, so_vars),
)
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Exists, fo_vars, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=200)
@given(formulas)
def test_parse_inverts_formatting(phi):
    assert parse(format_formula(phi)) == phi


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def draw(seed):
    return random_recognizer(random.Random(seed), max_size=6,
                             alphabet=("a", "b"))


def agrees_with_the_search(h, r1, r2, p1, p2):
    """language_included and language_equivalent of r1, r2 give the
    triple search's verdicts on their sets p1, p2 over h, with witnesses
    that ``member`` confirms on the original recognizers."""
    fwd = inclusion_test(h, p1, p2).included
    res = language_included(r1, r2)
    assert res.included == fwd
    if not res.included:
        assert member(r1, res.witness) and not member(r2, res.witness)
    equal, witness = language_equivalent(r1, r2)
    assert equal == (fwd and inclusion_test(h, p2, p1).included)
    if not equal:
        assert member(r1, witness) != member(r2, witness)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_subset_route_agrees_with_the_triple_search(seed1, seed2):
    # across two morphisms, against a strong right side; the oracle's sets
    # are both closed, as they were before inclusion kept r1 weak
    r1 = draw(seed1)
    r2 = weak_to_strong(draw(seed2))
    h, (p1, p2) = langops._pullback_pair(weak_to_strong(r1), r2)
    agrees_with_the_search(h, r1, r2, p1, p2)
    # over one shared morphism: a weak left side against its own closure
    h = r1.morphism
    closed = Recognizer(h, close_under_conjugation(h, r1.accepting),
                        "strong")
    agrees_with_the_search(h, r1, closed, r1.accepting, closed.accepting)
    agrees_with_the_search(h, closed, r1, closed.accepting, r1.accepting)
    # universality of a strong recognizer
    for rec in (r2, closed):
        lp = linked_pairs(rec.morphism.semigroup)
        res = universal(rec)
        assert res.included == inclusion_test(rec.morphism, lp,
                                              rec.accepting).included
        if not res.included:
            assert not member(rec, res.witness)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, st.booleans())
def test_weak_left_side_agrees_with_its_upgrade(seed1, seed2, strong2):
    # across two morphisms language_included pulls back r1 as it is and the
    # strong form of r2; the oracle upgrades r1 instead and searches triples
    # against r2 as it is
    r1, r2 = draw(seed1), draw(seed2)
    if strong2:
        r2 = weak_to_strong(r2)
    h, (p1, p2) = langops._pullback_pair(weak_to_strong(r1), r2)
    res = language_included(r1, r2)
    assert res.included == inclusion_test(h, p1, p2).included
    if not res.included:
        for rec, inside in ((r1, True), (r2, False)):
            assert member(rec, res.witness) == inside
            assert buchi_accepts_lasso(morphism_to_buchi(rec),
                                       res.witness) == inside


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, st.sampled_from(("weak", "strong", "mixed", "shared")))
def test_equivalence_of_the_given_sets_agrees_with_both_inclusions(
        seed1, seed2, kind):
    # language_equivalent upgrades no side; the inclusions it is checked
    # against still make a right side across morphisms strong
    r1, r2 = draw(seed1), draw(seed2)
    if kind == "shared":
        rng = random.Random(seed2)
        r2 = Recognizer(r1.morphism,
                        random_pair_set(rng, r1.morphism.semigroup), "weak")
    elif kind != "weak":
        r2 = weak_to_strong(r2)
        if kind == "strong":
            r1 = weak_to_strong(r1)
    equal, witness = language_equivalent(r1, r2)
    assert equal == (language_included(r1, r2).included
                     and language_included(r2, r1).included)
    if not equal:
        inside = [member(rec, witness) for rec in (r1, r2)]
        assert inside[0] != inside[1]
        assert [buchi_accepts_lasso(morphism_to_buchi(rec), witness)
                for rec in (r1, r2)] == inside
