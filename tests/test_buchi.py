import random

import numpy as np
import pytest

from omegasem import (BuchiAutomaton, ClosureCapExceeded, PairSet,
                      Recognizer, UPWord, buchi, buchi_accepts_lasso,
                      buchi_to_strong, close_under_conjugation, inclusion,
                      is_conjugation_closed, is_strong, linked_pairs, member,
                      minimize, morphism_to_buchi, semigroup, weak_to_strong)
from omegasem.formats import dumps_recognizer

from conftest import (random_pair_set, random_recognizer,
                      random_transformation_morphism, random_upword,
                      s1_table, section5_morphism)


def random_buchi(rng, *, max_states=4, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    triples = []
    for p in range(n):
        for a in alphabet:
            for q in range(n):
                if rng.random() < 0.35:
                    triples.append((p, a, q))
    initial = [q for q in range(n) if rng.random() < 0.5] or [0]
    final = [q for q in range(n) if rng.random() < 0.5]
    return BuchiAutomaton.from_triples(n, alphabet, triples, initial, final)


def ab_infinitely_often_b():
    # accepts words over {a, b} with infinitely many b
    return BuchiAutomaton.from_triples(
        2, ("a", "b"),
        [(0, "a", 0), (0, "b", 1), (1, "a", 0), (1, "b", 1)],
        [0], [1])


def test_lasso_oracle_on_known_automaton():
    aut = ab_infinitely_often_b()
    assert buchi_accepts_lasso(aut, UPWord((), ("b",)))
    assert buchi_accepts_lasso(aut, UPWord(("a",), ("a", "b")))
    assert not buchi_accepts_lasso(aut, UPWord(("b", "b"), ("a",)))
    assert not buchi_accepts_lasso(aut, UPWord((), ("a",)))


@pytest.mark.parametrize("triples, initial, final", [
    ([(0, "a", -1)], [0], [1]),  # -1 would wrap to the last state
    ([(0, "a", 1)], [2], [1]),
    ([(0, "a", 1)], [0], [-1]),
], ids=["transition", "initial", "final"])
def test_from_triples_rejects_states_out_of_range(triples, initial, final):
    with pytest.raises(ValueError):
        BuchiAutomaton.from_triples(2, ("a",), triples, initial, final)


def test_buchi_to_strong_known_language():
    rec = buchi_to_strong(ab_infinitely_often_b())
    assert rec.mode == "strong"
    assert member(rec, UPWord((), ("a", "b")))
    assert not member(rec, UPWord(("b",), ("a",)))
    assert is_strong(rec.morphism, rec.accepting).included


def test_buchi_to_strong_is_conjugation_closed(rng):
    for _ in range(25):
        aut = random_buchi(rng)
        rec = buchi_to_strong(aut)
        assert is_conjugation_closed(rec.morphism, rec.accepting)
        assert is_strong(rec.morphism, rec.accepting).included


def test_buchi_to_strong_agrees_with_lasso_simulation(rng):
    for _ in range(30):
        aut = random_buchi(rng)
        rec = buchi_to_strong(aut)
        for _ in range(40):
            w = random_upword(rng, aut.alphabet)
            assert member(rec, w) == buchi_accepts_lasso(aut, w), str(w)


def test_morphism_to_buchi_roundtrip(rng):
    for _ in range(15):
        rec = random_recognizer(rng, max_size=8)
        aut = morphism_to_buchi(rec)
        for _ in range(40):
            w = random_upword(rng, rec.alphabet)
            assert buchi_accepts_lasso(aut, w) == member(rec, w), str(w)


def two_pass_trim(aut):
    """The states reachable from an initial state and co-reachable to a
    final one, each by its own fixpoint."""
    any_edge = np.logical_or.reduce(list(aut.edges.values()))

    def closure(start, step):
        seen = start.copy()
        while True:
            nxt = seen | step(seen)
            if np.array_equal(nxt, seen):
                return seen
            seen = nxt

    fwd = closure(aut.initial, lambda x: any_edge[x].any(axis=0))
    bwd = closure(aut.final, lambda x: any_edge[:, x].any(axis=1))
    keep = np.nonzero(fwd & bwd)[0]
    return BuchiAutomaton(len(keep), aut.alphabet,
                          {a: m[np.ix_(keep, keep)]
                           for a, m in aut.edges.items()},
                          aut.initial[keep], aut.final[keep])


def test_forward_trim_equals_the_two_pass_trim(monkeypatch):
    # every state of morphism_to_buchi is co-reachable to a final one, so
    # trimming forward alone keeps what the two fixpoints kept
    rng = random.Random(17)
    recs = [random_recognizer(rng, max_size=12) for _ in range(60)]
    for with_c in (False, True):
        h = section5_morphism(with_c)
        pairs = linked_pairs(h.semigroup).pairs()
        for mask in range(1 << len(pairs)):
            chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
            recs.append(Recognizer(h, PairSet.from_pairs(4, chosen)))
    trimmed = [morphism_to_buchi(rec) for rec in recs]
    monkeypatch.setattr(buchi, "_trim", lambda aut: aut)
    for rec, got in zip(recs, trimmed):
        want = two_pass_trim(morphism_to_buchi(rec))
        assert got.n_states == want.n_states
        assert np.array_equal(got.initial, want.initial)
        assert np.array_equal(got.final, want.final)
        assert all(np.array_equal(got.edges[a], want.edges[a])
                   for a in rec.alphabet)


def test_weak_to_strong_preserves_language(rng):
    for _ in range(10):
        rec = random_recognizer(rng, max_size=6)
        strong = weak_to_strong(rec)
        assert strong.mode == "strong"
        assert is_conjugation_closed(strong.morphism, strong.accepting)
        if is_strong(rec.morphism, rec.accepting).included:
            assert strong.morphism is rec.morphism
        for _ in range(40):
            w = random_upword(rng, rec.alphabet)
            assert member(strong, w) == member(rec, w), str(w)
        # both upgrade routes minimize to the same canonical recognizer
        round_trip = buchi_to_strong(morphism_to_buchi(rec))
        assert (dumps_recognizer(minimize(rec))
                == dumps_recognizer(minimize(round_trip)))


def test_band_language_via_buchi():
    h = section5_morphism()
    rec = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    aut = morphism_to_buchi(rec)
    assert buchi_accepts_lasso(aut, UPWord((), ("a", "b")))
    assert not buchi_accepts_lasso(aut, UPWord((), ("a",)))
    small = minimize(buchi_to_strong(aut))
    for _ in range(30):
        w = random_upword(random.Random(7), ("a", "b"))
        assert member(small, w) == member(rec, w)


def loop_morphism_to_buchi(rec):
    """The untrimmed automaton of ``morphism_to_buchi``, built edge by edge:
    states (s, e) in S^1 x E, and (s, e) -a-> (t, e) iff h(a) t is s or s e."""
    h = rec.morphism
    sg = h.semigroup
    mul = s1_table(sg).item
    one = sg.size
    idems = [int(e) for e in np.nonzero(sg.idempotents)[0]]
    states = {}
    for e in idems:
        for s in list(range(sg.size)) + [one]:
            states[(s, e)] = len(states)
    transitions = []
    for (s, e), i in states.items():
        se = mul(s, e)
        for a, ha in zip(h.alphabet, h.images):
            for t in list(range(sg.size)) + [one]:
                hat = mul(ha, t)
                if hat == s or hat == se:
                    transitions.append((i, a, states[(t, e)]))
    initial = [states[(s, e)] for (s, e) in rec.accepting.pairs()]
    final = [states[(one, e)] for e in idems]
    return BuchiAutomaton.from_triples(len(states), h.alphabet, transitions,
                                       initial, final)


def same_automaton(x, y):
    return (x.n_states == y.n_states and x.alphabet == y.alphabet
            and all(np.array_equal(x.edges[a], y.edges[a])
                    for a in x.alphabet)
            and np.array_equal(x.initial, y.initial)
            and np.array_equal(x.final, y.final))


def test_morphism_to_buchi_matches_the_loop_build(monkeypatch):
    rng = random.Random(16)
    recs = [random_recognizer(rng, max_size=10) for _ in range(50)]
    for with_c in (False, True):
        h = section5_morphism(with_c)
        lp = linked_pairs(h.semigroup).pairs()
        recs += [Recognizer(h, PairSet.from_pairs(4, [p]), "weak")
                 for p in lp]
        recs.append(Recognizer(h, linked_pairs(h.semigroup), "strong"))
    for rec in recs:
        ref = loop_morphism_to_buchi(rec)
        assert same_automaton(morphism_to_buchi(rec), buchi._trim(ref))
        with monkeypatch.context() as m:
            m.setattr(buchi, "_trim", lambda aut: aut)
            assert same_automaton(morphism_to_buchi(rec), ref)


def test_closed_weak_input_is_upgraded_without_a_search(monkeypatch):
    searches = []
    real = inclusion.inclusion_test

    def spy(*args):
        searches.append(args)
        return real(*args)

    for module in (buchi, inclusion):
        monkeypatch.setattr(module, "inclusion_test", spy)
    rng = random.Random(3)
    for _ in range(20):
        h = random_transformation_morphism(rng, max_size=12)
        closed = close_under_conjugation(h, random_pair_set(rng,
                                                            h.semigroup))
        rec = Recognizer(h, closed, "weak")
        strong = weak_to_strong(rec)
        assert strong.morphism is h and strong.accepting == closed
        assert strong.mode == "strong"
        assert is_strong(h, closed).included
    assert searches == []
    # a P that its closure grows still takes the search
    band = Recognizer(section5_morphism(), PairSet.from_pairs(4, [(0, 0)]),
                      "weak")
    weak_to_strong(band)
    assert len(searches) == 1


def test_morphism_to_buchi_checks_the_budget_first(monkeypatch):
    # the band has 4 idempotents, so 4 * 5 states and one 20 x 20 byte
    # matrix per letter: 800 bytes for two letters
    band = Recognizer(section5_morphism(), PairSet.from_pairs(4, [(0, 0)]),
                      "weak")
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 799)
    refused = "a 20-element table needs 800 bytes"
    with pytest.raises(ClosureCapExceeded, match=refused):
        morphism_to_buchi(band)
    # closing P adds words, so the upgrade takes the Büchi round trip
    with pytest.raises(ClosureCapExceeded, match=refused):
        weak_to_strong(band)
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 800)
    assert morphism_to_buchi(band).n_states <= 20
