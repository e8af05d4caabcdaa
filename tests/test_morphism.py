import itertools

import numpy as np
import pytest

from omegasem import (EmptyPeriod, Morphism, NotLinkedPair, PairSet,
                      Recognizer, Semigroup, UPWord, UnknownLetter, is_empty,
                      linked_pairs, member, minimize, universal_recognizer)
from omegasem.formats import dumps_recognizer, loads_recognizer

from conftest import (random_recognizer, random_transformation_morphism,
                      random_upword, section5_morphism)


def test_upword_requires_period():
    with pytest.raises(EmptyPeriod):
        UPWord(("a",), ())


def test_upword_str_and_letters():
    w = UPWord(("a", "b"), ("c",))
    assert str(w) == "ab(c)^w"
    assert [w.letter_at(i) for i in range(5)] == ["a", "b", "c", "c", "c"]


def test_morphism_evaluate_and_rep_word():
    h = section5_morphism()
    assert h.evaluate("ab") == 0          # (1,2)(2,1) = (1,1)
    assert h.evaluate("ba") == 3          # (2,1)(1,2) = (2,2)
    assert h.evaluate("aba") == 1         # (1,1)(1,2) = (1,2)
    with pytest.raises(UnknownLetter):
        h.evaluate("ax")
    with pytest.raises(ValueError):
        h.evaluate("")
    for s in range(h.semigroup.size):
        assert h.evaluate(h.rep_word(s)) == s


def test_morphism_rejects_images_missing_a_generator():
    # the images generate only {0}, so rep_word(1) would have no letter
    with pytest.raises(ValueError):
        Morphism(("a",), Semigroup([[0, 1], [1, 0]], [1]), [0])


@pytest.mark.parametrize("image", [-1, 7])
def test_morphism_rejects_images_out_of_range(image):
    # -1 would be read as the last element, and 7 fail only when used
    with pytest.raises(ValueError):
        Morphism(("a", "b"), Semigroup([[0, 1], [1, 0]], [1]), [1, image])


def same_tables(h1, h2):
    """Equal letters, images and full tables."""
    return (h1.alphabet == h2.alphabet and h1.images == h2.images
            and np.array_equal(h1.semigroup.table, h2.semigroup.table))


def test_same_as_agrees_with_the_tables(rng):
    # same_as reads generators and right Cayley rows, not the tables
    outcomes = set()
    for _ in range(200):
        h1, h2 = (random_transformation_morphism(rng, degree=2,
                                                 alphabet=("a", "b"))
                  for _ in range(2))
        outcomes.add(h1.same_as(h2))
        assert h1.same_as(h2) == same_tables(h1, h2)
    assert outcomes == {True, False}
    for _ in range(20):
        rec = random_recognizer(rng, max_size=12, alphabet=("a", "b"))
        for generated in (False, True):
            back = loads_recognizer(dumps_recognizer(
                rec, generated=generated)).morphism
            assert back.same_as(rec.morphism)
            assert same_tables(back, rec.morphism)
        small = minimize(rec)
        again = minimize(small).morphism
        assert again.same_as(small.morphism)
        assert same_tables(again, small.morphism)


def test_linked_pairs_definition(rng):
    for _ in range(15):
        h = random_transformation_morphism(rng, max_size=40)
        sg = h.semigroup
        lp = linked_pairs(sg)
        expected = {(s, e)
                    for e in range(sg.size) if sg.mul(e, e) == e
                    for s in range(sg.size) if sg.mul(s, e) == s}
        assert set(lp.pairs()) == expected
        assert linked_pairs(sg) is sg.linked is lp
        assert isinstance(lp, frozenset)
        with pytest.raises(AttributeError):
            lp.add((0, 0))


def test_pairset_algebra():
    a = PairSet.from_pairs(3, [(0, 0), (1, 2)])
    b = PairSet.from_pairs(3, [(1, 2), (2, 2)])
    assert len(a) == 2 and (1, 2) in a and (2, 2) not in a
    assert (a | b).pairs() == [(0, 0), (1, 2), (2, 2)]
    assert (a & b).pairs() == [(1, 2)]
    assert (a - b).pairs() == [(0, 0)]
    assert all(type(c) is PairSet for c in (a | b, a & b, a - b))
    assert (a & b).issubset(a) and not a.issubset(b)


def test_recognizer_rejects_non_linked_pairs():
    h = section5_morphism()
    bad = PairSet.from_pairs(4, [(0, 1)])  # (1,1)(1,2) = (1,2) != (1,1)
    with pytest.raises(NotLinkedPair):
        Recognizer(h, bad)


def test_member_on_known_language():
    # P = {((1,1), (1,1))} recognizes (a^+ b^+)^omega over the 2x2 band
    h = section5_morphism()
    rec = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    assert member(rec, UPWord((), ("a", "b")))
    assert member(rec, UPWord(("a", "b"), ("a", "a", "b")))
    assert member(rec, UPWord((), ("a", "b", "a", "b")))
    assert not member(rec, UPWord((), ("a",)))
    assert not member(rec, UPWord(("b",), ("a", "a", "b")))  # starts with b
    assert not member(rec, UPWord(("a", "b"), ("a",)))


def test_member_strong_weak_agree(rng):
    # on conjugation-closed sets, the strong shortcut equals the weak scan
    from omegasem import close_under_conjugation
    for _ in range(10):
        rec = random_recognizer(rng, max_size=12)
        closed = close_under_conjugation(rec.morphism, rec.accepting)
        weak = Recognizer(rec.morphism, closed, "weak")
        strong = Recognizer(rec.morphism, closed, "strong")
        for _ in range(50):
            w = random_upword(rng, rec.alphabet)
            assert member(weak, w) == member(strong, w)


def cyclic_morphism(index, period):
    """a -> a and b -> a^2 onto the cyclic semigroup <a | a^(index+period)
    = a^index>; element k is a^(k+1)."""
    n = index + period - 1

    def reduce(k):  # the element a^k
        return k if k <= n else index + (k - index) % period

    table = [[reduce(i + j) - 1 for j in range(1, n + 1)]
             for i in range(1, n + 1)]
    return Morphism(("a", "b"), Semigroup(table, [0]), [0, reduce(2) - 1])


def test_weak_member_finds_the_exponent_of_its_period():
    # periods whose image needs m > 1: index 3 and period 4, where a^4 is
    # the idempotent, and Z_6, where a^6 is; the weak scan agrees with the
    # strong shortcut on every closed set
    from omegasem import close_under_conjugation
    words = [UPWord(u, v) for k in range(3) for j in range(1, 4)
             for u in itertools.product("ab", repeat=k)
             for v in itertools.product("ab", repeat=j)]
    for index, period, omega in ((3, 4, 4), (1, 6, 6)):
        h = cyclic_morphism(index, period)
        assert h.semigroup.idempotent_powers[0] == omega - 1  # a^omega
        lp = linked_pairs(h.semigroup).pairs()
        closed_sets = {close_under_conjugation(h, PairSet.from_pairs(
            h.semigroup.size, lp[:k])) for k in range(len(lp) + 1)}
        for closed in closed_sets:
            weak = Recognizer(h, closed, "weak")
            strong = Recognizer(h, closed, "strong")
            for w in words:
                assert member(weak, w) == member(strong, w), (closed, w)


def test_member_invariant_under_unrolling(rng):
    # u (v)^w, (u v) (v)^w and u (v v)^w denote the same word
    for _ in range(10):
        rec = random_recognizer(rng, max_size=12)
        for _ in range(30):
            w = random_upword(rng, rec.alphabet)
            got = member(rec, w)
            assert member(rec, UPWord(w.prefix + w.period, w.period)) == got
            assert member(rec, UPWord(w.prefix, w.period * 2)) == got


def test_universal_and_empty():
    h = section5_morphism()
    assert is_empty(Recognizer(h, PairSet(), "weak"))
    top = universal_recognizer(h)
    assert not is_empty(top)
    assert member(top, UPWord((), ("a",)))
    assert member(top, UPWord(("b", "b"), ("a", "b")))
