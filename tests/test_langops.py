import random

import pytest

from omegasem import (AlphabetMismatch, ClosureCapExceeded, LetterMap,
                      PairSet, Recognizer, UPWord, UnknownLetter,
                      close_under_conjugation, complement, intersect,
                      inverse_project, is_empty, langops,
                      language_equivalent, language_included, linked_pairs,
                      member, minimize, project, semigroup, union,
                      universal_recognizer, weak_to_strong)
from omegasem.formats import dumps_recognizer

from conftest import (oversized_closure, oversized_pair, product_sizes,
                      random_pair_set, random_recognizer,
                      random_transformation_morphism, random_upword,
                      section5_morphism)


def test_oversized_product_table_is_refused(monkeypatch):
    # strong operands are pulled back as given, so under a limit that holds
    # the 17- and 8-element syntactic forms but not their 89-element
    # product, the product's closure is what stops
    left, right = (minimize(rec) for rec in oversized_pair())
    limit = 4 * 88 ** 2
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", limit)
    for operation in (union, intersect):
        with pytest.raises(ClosureCapExceeded,
                           match=oversized_closure(limit)):
            operation(left, right)


def test_oversized_pair_union_and_intersection_answer(monkeypatch):
    # the Büchi strong forms' product would take 107 GiB; the weak operands
    # are minimised and their syntactic forms pulled back
    sizes = product_sizes(monkeypatch)
    left, right = oversized_pair()
    u, i = union(left, right), intersect(left, right)
    assert len(sizes) == 2 and max(sizes) < 200
    rng = random.Random(23)
    for _ in range(100):
        w = random_upword(rng, ("a", "b"), max_prefix=3, max_period=3)
        m1, m2 = member(left, w), member(right, w)
        assert member(u, w) == (m1 or m2), str(w)
        assert member(i, w) == (m1 and m2), str(w)


def test_oversized_pair_equivalence_decides_the_given_sets(monkeypatch):
    # the strong forms' product would take 107 GiB; the sets as given are
    # pulled back onto one product of fewer than 200 elements
    sizes = product_sizes(monkeypatch)
    left, right = oversized_pair()
    equal, witness = language_equivalent(left, right)
    assert not equal
    assert member(left, witness) != member(right, witness)
    assert len(sizes) == 1 and sizes[0] < 200


def test_oversized_pair_inclusion_keeps_its_left_side_weak():
    # the strong forms' product would take 107 GiB; the weak left side
    # with the strong right one closes 2 709 elements
    left, right = oversized_pair()
    res = language_included(right, left)
    assert not res.included
    assert member(right, res.witness) and not member(left, res.witness)


def test_complement_membership(rng):
    for _ in range(12):
        rec = random_recognizer(rng, max_size=10)
        comp = complement(rec)
        assert comp.alphabet == rec.alphabet
        for _ in range(50):
            w = random_upword(rng, rec.alphabet)
            assert member(comp, w) != member(rec, w), str(w)


def test_complement_involution(rng):
    from omegasem import minimize
    for _ in range(10):
        rec = minimize(random_recognizer(rng, max_size=10))
        back = complement(complement(rec))
        assert back.morphism.same_as(rec.morphism)
        assert back.accepting == rec.accepting


def test_union_intersection_membership(rng):
    alphabet = ("a", "b")
    for _ in range(10):
        r1 = random_recognizer(rng, max_size=8, alphabet=alphabet)
        r2 = random_recognizer(rng, max_size=8, alphabet=alphabet)
        u = union(r1, r2)
        i = intersect(r1, r2)
        for _ in range(50):
            w = random_upword(rng, alphabet)
            m1, m2 = member(r1, w), member(r2, w)
            assert member(u, w) == (m1 or m2), str(w)
            assert member(i, w) == (m1 and m2), str(w)


def test_de_morgan(rng):
    alphabet = ("a", "b")
    r1 = random_recognizer(rng, max_size=8, alphabet=alphabet)
    r2 = random_recognizer(rng, max_size=8, alphabet=alphabet)
    lhs = complement(union(r1, r2))
    rhs = intersect(complement(r1), complement(r2))
    equal, witness = language_equivalent(lhs, rhs)
    assert equal, "witness %s" % witness


def test_union_with_complement_is_universal(rng):
    from omegasem import universal
    rec = random_recognizer(rng, max_size=10)
    top = union(rec, complement(rec))
    assert universal(top).included
    assert is_empty(intersect(rec, complement(rec)))


def test_alphabet_mismatch_rejected(rng):
    r1 = random_recognizer(rng, max_size=8, alphabet=("a", "b"))
    r2 = random_recognizer(rng, max_size=8, alphabet=("a", "c"))
    with pytest.raises(AlphabetMismatch):
        union(r1, r2)


def test_lettermap_validation():
    with pytest.raises(UnknownLetter):
        LetterMap(("a", "b"), ("x",), {"a": "x"})
    with pytest.raises(UnknownLetter):
        LetterMap(("a",), ("x",), {"a": "y"})


def erase_second_track():
    # letters are bit pairs; the map keeps the first bit
    return LetterMap(("00", "01", "10", "11"), ("0", "1"),
                     {"00": "0", "01": "0", "10": "1", "11": "1"})


def apply_map(lmap, word):
    return UPWord(tuple(lmap.mapping[a] for a in word.prefix),
                  tuple(lmap.mapping[a] for a in word.period))


def test_project_is_image_language(rng):
    lmap = erase_second_track()
    for _ in range(8):
        rec = random_recognizer(rng, max_size=6, alphabet=lmap.source)
        img = project(rec, lmap)
        assert img.alphabet == lmap.target
        # soundness: the image of every sampled source word is accepted
        for _ in range(40):
            w = random_upword(rng, lmap.source)
            if member(rec, w):
                assert member(img, apply_map(lmap, w)), str(w)


def test_project_completeness_via_inverse(rng):
    # [project(R)] is the least map-closed language containing [R]:
    # project(R) included in T  iff  R included in inverse_project(T)
    lmap = erase_second_track()
    for _ in range(6):
        rec = random_recognizer(rng, max_size=5, alphabet=lmap.source)
        tgt = random_recognizer(rng, max_size=5, alphabet=lmap.target)
        lhs = language_included(project(rec, lmap), tgt).included
        rhs = language_included(rec, inverse_project(tgt, lmap)).included
        assert lhs == rhs


def test_inverse_project_membership(rng):
    lmap = erase_second_track()
    for _ in range(8):
        rec = random_recognizer(rng, max_size=8, alphabet=lmap.target)
        pre = inverse_project(rec, lmap)
        assert pre.alphabet == lmap.source
        for _ in range(50):
            w = random_upword(rng, lmap.source)
            assert member(pre, w) == member(rec, apply_map(lmap, w)), str(w)


def test_project_inverse_project_galois(rng):
    # L included in inverse(project(L)) always holds
    lmap = erase_second_track()
    rec = random_recognizer(rng, max_size=5, alphabet=lmap.source)
    back = inverse_project(project(rec, lmap), lmap)
    assert language_included(rec, back).included


def test_project_accepting_set_matches_definition(monkeypatch):
    # before minimisation, (X, E) is accepting iff it is linked and some
    # accepting (t, f) has t in X and f in E; subsets are rebuilt here from
    # each element's word, pair by pair
    built = []
    monkeypatch.setattr(langops, "minimize",
                        lambda rec, audit=False: built.append(rec) or rec)
    rng = random.Random(40)
    for _ in range(40):
        source = ("a", "b", "c", "d", "e")[:rng.randint(2, 5)]
        h = random_transformation_morphism(rng, max_size=16, alphabet=source)
        p = random_pair_set(rng, h.semigroup, density=0.1)
        rec = Recognizer(h, close_under_conjugation(h, p), "strong")
        target = ("x", "y", "z")[:rng.randint(1, min(3, len(source) - 1))]
        images = list(target) + [rng.choice(target)
                                 for _ in source[len(target):]]
        rng.shuffle(images)
        lmap = LetterMap(source, target, dict(zip(source, images)))
        project(rec, lmap)
        out = built.pop()
        table = rec.morphism.semigroup.table
        fiber = {b: {rec.morphism.image(a) for a in source
                     if lmap.mapping[a] == b} for b in target}
        sg = out.morphism.semigroup
        gen_subsets = [fiber[target[out.morphism.images.index(g)]]
                       for g in sg.generators]
        subsets = []
        for s in range(sg.size):
            x = None
            for j in sg.word_of(s):
                x = gen_subsets[j] if x is None else \
                    {int(table[t, g]) for t in x for g in gen_subsets[j]}
            subsets.append(x)
        accepting = rec.accepting
        for s in range(sg.size):
            for e in range(sg.size):
                expected = (s, e) in linked_pairs(sg) and any(
                    (t, f) in accepting for t in subsets[s]
                    for f in subsets[e])
                assert ((s, e) in out.accepting) == expected


def test_pullback_accepting_sets_match_definition():
    # (sigma, eps) is in sets[i] iff it is linked and its component-i images,
    # rebuilt here from each element's word, form a pair of P_i
    rng = random.Random(41)
    alphabet = ("a", "b")
    for _ in range(30):
        recs = []
        for _ in range(2):
            h = random_transformation_morphism(rng, max_size=8,
                                               alphabet=alphabet)
            closed = close_under_conjugation(
                h, random_pair_set(rng, h.semigroup))
            recs.append(Recognizer(h, closed, "strong"))
        maps = [dict(zip(alphabet, alphabet)), {"a": "b", "b": "a"}]
        h, sets = langops.pullback(alphabet, list(zip(recs, maps)))
        sg = h.semigroup
        for rec, letters, got in zip(recs, maps, sets):
            comp = [rec.morphism.evaluate([letters[a] for a in h.rep_word(s)])
                    for s in range(sg.size)]
            for s in range(sg.size):
                for e in range(sg.size):
                    linked = sg.mul(e, e) == e and sg.mul(s, e) == s
                    expected = linked and (comp[s], comp[e]) in rec.accepting
                    assert ((s, e) in got) == expected


def test_project_minimises_weak_input_first(monkeypatch):
    # the Büchi round trip inflates this 7-element weak recognizer, and the
    # powerset of the inflated semigroup does not fit in memory
    rng = random.Random(7)
    recs = [random_recognizer(rng, max_size=14, alphabet=("a", "b", "c"))
            for _ in range(36)]
    closed = []
    close = langops.close_generators
    monkeypatch.setattr(langops, "close_generators", lambda *args, **kw:
                        closed.append(close(*args, **kw)) or closed[-1])
    lmap = LetterMap(("a", "b", "c"), ("x", "y"),
                     {"a": "y", "b": "x", "c": "x"})
    project(recs[35], lmap)
    assert [sg.size for sg, _, _ in closed] == [22]


def test_project_of_weak_input_is_unchanged_by_minimising(rng):
    # minimised output is canonical, so the shortcut changes no byte
    lmap = LetterMap(("a", "b", "c"), ("x", "y"),
                     {"a": "x", "b": "y", "c": "x"})
    for _ in range(40):
        rec = random_recognizer(rng, max_size=8, alphabet=lmap.source)
        assert (dumps_recognizer(project(rec, lmap))
                == dumps_recognizer(project(weak_to_strong(rec), lmap)))


def test_minimised_operands_change_no_output(rng):
    # minimised output is canonical: operating on the syntactic forms of
    # weak operands gives the bytes of operating on their Büchi strong
    # forms, and flipping a syntactic form those of minimising a flip
    inv = LetterMap(("a", "b", "c"), ("a", "b"),
                    {"a": "a", "b": "b", "c": "a"})
    for _ in range(30):
        r1, r2 = (random_recognizer(rng, max_size=8, alphabet=inv.target)
                  for _ in range(2))
        s1, s2 = weak_to_strong(r1), weak_to_strong(r2)
        for got, want in (
                (complement(r1), minimize(langops.flip(s1))),
                (union(r1, r2), union(s1, s2)),
                (intersect(r1, r2), intersect(s1, s2)),
                (inverse_project(r1, inv), inverse_project(s1, inv))):
            assert dumps_recognizer(got) == dumps_recognizer(want)


def test_language_included_cross_morphism():
    h = section5_morphism()
    r1 = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    top = universal_recognizer(h)
    from omegasem import minimize
    r1_min = minimize(r1)  # different morphism, same language
    assert language_included(r1, r1_min).included
    assert language_included(r1_min, r1).included
    assert language_included(r1_min, top).included
    res = language_included(top, r1_min)
    assert not res.included
    assert member(top, res.witness) and not member(r1_min, res.witness)


def test_inclusion_upgrades_its_right_side_only(monkeypatch):
    # across two morphisms an inclusion pulls back r1 as it is and the
    # strong form of r2; equivalence upgrades nothing and pulls back both
    # recognizers as they are given
    upgraded, pulled = [], []
    real_upgrade, real_pullback = langops.weak_to_strong, langops.pullback

    def upgrade(rec):
        upgraded.append(rec)
        return real_upgrade(rec)

    def pullback(alphabet, parts):
        pulled.append([rec for rec, _ in parts])
        return real_pullback(alphabet, parts)

    monkeypatch.setattr(langops, "weak_to_strong", upgrade)
    monkeypatch.setattr(langops, "pullback", pullback)
    rng = random.Random(19)
    for _ in range(10):
        r1, r2 = (random_recognizer(rng, max_size=8, alphabet=("a", "b"))
                  for _ in range(2))
        assert not r1.morphism.same_as(r2.morphism)
        upgraded.clear()
        pulled.clear()
        language_included(r1, r2)
        assert [id(r) for r in upgraded] == [id(r2)]
        assert pulled[0][0] is r1 and pulled[0][1].mode == "strong"
        upgraded.clear()
        pulled.clear()
        language_equivalent(r1, r2)
        assert upgraded == []
        assert len(pulled) == 1
        assert pulled[0][0] is r1 and pulled[0][1] is r2
    # over one shared morphism neither decision upgrades or pulls back
    upgraded.clear()
    pulled.clear()
    closed = Recognizer(r1.morphism, close_under_conjugation(
        r1.morphism, r1.accepting), "strong")
    for left, right in ((r1, closed), (closed, r1)):
        language_included(left, right)
        language_equivalent(left, right)
    assert upgraded == [] and pulled == []


def test_strong_sides_are_decided_without_a_search(monkeypatch):
    # two strong recognizers over different morphisms: one pull-back per
    # decision, no triple search and no S^1 table anywhere
    from omegasem import inclusion, universal
    searches, products = [], []
    real_search, real_pullback = inclusion.inclusion_test, langops.pullback

    def search(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(inclusion, "inclusion_test", search)

    def pullback(*args):
        out = real_pullback(*args)
        products.append(out[0].semigroup)
        return out

    monkeypatch.setattr(langops, "pullback", pullback)
    rng = random.Random(16)
    alphabet = ("a", "b")
    verdicts = set()
    crossed = 0
    for _ in range(20):
        recs = []
        for _ in range(2):
            h = random_transformation_morphism(rng, max_size=10,
                                               alphabet=alphabet)
            closed = close_under_conjugation(
                h, random_pair_set(rng, h.semigroup))
            recs.append(Recognizer(h, closed, "strong"))
        r1, r2 = recs
        crossed += not r1.morphism.same_as(r2.morphism)
        res = language_included(r1, r2)
        verdicts.add(res.included)
        if not res.included:
            assert member(r1, res.witness) and not member(r2, res.witness)
        equal, witness = language_equivalent(r1, r2)
        if not equal:
            assert member(r1, witness) != member(r2, witness)
        top = universal(r1)
        assert top.included == (r1.accepting
                                == linked_pairs(r1.morphism.semigroup))
        if not top.included:
            assert not member(r1, top.witness)
    assert verdicts == {True, False}
    assert searches == []
    # one per inclusion and one per equivalence across two morphisms
    assert crossed >= 15 and len(products) == 2 * crossed
