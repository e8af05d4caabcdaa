import random
import tracemalloc

from omegasem import (Morphism, PairSet, Recognizer, UPWord,
                      close_generators, close_under_conjugation,
                      inclusion_test, is_strong, language_equivalent,
                      linked_pairs, member, universal, universal_recognizer)

from conftest import (random_pair_set, random_transformation_morphism,
                      section5_morphism)


def test_section5_equal_languages_without_c():
    h = section5_morphism()
    p = PairSet.from_pairs(4, [(0, 0)])  # ((1,1), (1,1))
    q = PairSet.from_pairs(4, [(1, 3)])  # ((1,2), (2,2))
    assert inclusion_test(h, p, q).included
    assert inclusion_test(h, q, p).included


def test_section5_inclusion_breaks_with_c():
    # with h(c) = (1,1) the word c^w separates the two pair sets
    h = section5_morphism(with_c=True)
    p = PairSet.from_pairs(4, [(0, 0)])
    q = PairSet.from_pairs(4, [(1, 3)])
    res = inclusion_test(h, p, q)
    assert not res.included
    assert str(res.witness) == "c(c)^w"
    assert member(Recognizer(h, p, "weak"), res.witness)
    assert not member(Recognizer(h, q, "weak"), res.witness)
    # the reverse inclusion still holds
    assert inclusion_test(h, q, p).included


def test_witness_reverifies(rng):
    for _ in range(30):
        h = random_transformation_morphism(rng, max_size=16)
        p = random_pair_set(rng, h.semigroup)
        q = random_pair_set(rng, h.semigroup)
        res = inclusion_test(h, p, q)
        if not res.included:
            assert member(Recognizer(h, p, "weak"), res.witness)
            assert not member(Recognizer(h, q, "weak"), res.witness)


def test_triples_bound(rng):
    for _ in range(30):
        h = random_transformation_morphism(rng, max_size=16)
        p = random_pair_set(rng, h.semigroup)
        q = random_pair_set(rng, h.semigroup)
        res = inclusion_test(h, p, q)
        assert res.triples_visited <= (h.semigroup.size + 1) ** 3


def test_reflexive_and_subset_inclusions(rng):
    for _ in range(20):
        h = random_transformation_morphism(rng, max_size=16)
        p = random_pair_set(rng, h.semigroup)
        assert inclusion_test(h, p, p).included
        lp = linked_pairs(h.semigroup)
        assert inclusion_test(h, p, lp).included


def test_is_strong_iff_closure_gains_nothing(rng):
    for _ in range(25):
        h = random_transformation_morphism(rng, max_size=16)
        p = random_pair_set(rng, h.semigroup)
        closed = close_under_conjugation(h, p)
        assert is_strong(h, closed).included
        res = is_strong(h, p)
        if not res.included:
            # the witness is in the closed language but not in [P]
            assert member(Recognizer(h, closed, "weak"), res.witness)
            assert not member(Recognizer(h, p, "weak"), res.witness)


def test_band_single_pair_is_not_strong():
    # {((1,1),(1,1))} is not conjugation-closed over the band: the
    # conjugate ((1,2),(1,2)) contributes a^w, which (a^+b^+)^w misses
    h = section5_morphism()
    p = PairSet.from_pairs(4, [(0, 0)])
    res = is_strong(h, p)
    assert not res.included
    assert not member(Recognizer(h, p, "weak"), res.witness)


def test_equivalent_and_universal():
    h = section5_morphism()
    r1 = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    r2 = Recognizer(h, PairSet.from_pairs(4, [(1, 3)]), "weak")
    equal, witness = language_equivalent(r1, r2)
    assert equal and witness is None
    top = universal_recognizer(h)
    assert universal(top).included
    res = universal(r1)
    assert not res.included
    assert not member(r1, res.witness)


def test_visited_set_grows_with_the_search():
    # Z_300 on one letter: a visited set over all of S x S^1 x S^1 would
    # take 27 MB, while the search reaches a few hundred triples
    n = 300
    sg, seeds, elements = close_generators([1], lambda a: [(a + 1) % n])
    h = Morphism(("a",), sg, seeds)
    p = PairSet.from_pairs(n, [(seeds[0], elements.index(0))])
    linked_pairs(sg)  # cached before tracing
    tracemalloc.start()
    try:
        assert inclusion_test(h, p, p).included
        res = inclusion_test(h, p, PairSet())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.included
    assert member(Recognizer(h, p, "weak"), res.witness)
    assert peak < 4 << 20
