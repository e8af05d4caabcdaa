import hashlib
import math
import random

import numpy as np
import pytest

from omegasem import (NotClosed, PairSet, Recognizer, adversarial_fixture,
                      close_under_conjugation, conjugacy_classes,
                      is_conjugation_closed, is_strong, linked_pairs,
                      maximal_pair_set, member, minimize, syntactic_morphism,
                      universal_recognizer, weak_to_strong)
from omegasem.formats import dumps_recognizer, loads_recognizer
from omegasem.langops import language_equivalent
from omegasem import semigroup, syntactic
from omegasem.mso import FAMILIES, compile_formula
from omegasem.syntactic import (_MOORE_ROUNDS, _hopcroft, _moore,
                                initial_partition, t_semigroup_values,
                                _t_multiply)
from omegasem.semigroup import Semigroup, close_generators

from conftest import (random_recognizer, random_upword, section5_morphism,
                      shuffled)


def strongify(rec):
    """A strong recognizer built cheaply by closing the accepting set.

    This changes the language (unlike ``weak_to_strong``) but keeps the
    morphism, which is exactly what tests generating random strong
    recognizers need.
    """
    closed = close_under_conjugation(rec.morphism, rec.accepting)
    return Recognizer(rec.morphism, closed, "strong")


def dense_q(sg, qe):
    """Q from its idempotent columns, as a dense bool array: column t is
    that of t's idempotent power."""
    col = np.cumsum(sg.idempotents) - 1
    fpow = sg.idempotent_powers
    return qe[:, col[fpow]]


def q_test_inputs(rng):
    recs = [strongify(random_recognizer(rng, max_size=12))
            for _ in range(20)]
    return recs + [compile_formula(fam(2)) for fam in FAMILIES.values()]


def test_maximal_pair_set_matches_definition(rng):
    for rec in q_test_inputs(rng):
        sg = rec.morphism.semigroup
        qe = maximal_pair_set(rec.morphism, rec.accepting)
        assert qe.shape == (sg.size, int(sg.idempotents.sum()))
        q = dense_q(sg, qe)
        p = rec.accepting
        for s in range(sg.size):
            for t in range(sg.size):
                f = t
                while sg.mul(f, f) != f:
                    f = sg.mul(f, t)
                assert q[s, t] == ((sg.mul(s, f), f) in p)


def test_initial_partition_matches_dense_signatures(rng):
    # the classes of the dense signatures, each element's row of Q and
    # its column, numbered by first occurrence
    for rec in q_test_inputs(rng) + [closed_adversarial(2)]:
        sg = rec.morphism.semigroup
        bits = dense_q(sg, maximal_pair_set(rec.morphism, rec.accepting))
        first = {}
        dense = [first.setdefault((bits[s].tobytes(), bits[:, s].tobytes()),
                                  len(first)) for s in range(sg.size)]
        assert initial_partition(
            sg, maximal_pair_set(rec.morphism, rec.accepting)).tolist() \
            == dense


def test_maximal_pair_set_is_language_maximal(rng):
    # Q contains exactly the pairs whose single-pair language is inside [P]
    from omegasem import inclusion_test
    for _ in range(15):
        rec = strongify(random_recognizer(rng, max_size=10))
        h = rec.morphism
        full = dense_q(h.semigroup, maximal_pair_set(h, rec.accepting))
        lp = linked_pairs(h.semigroup)
        n = h.semigroup.size
        for pair in lp.pairs():
            single = PairSet.from_pairs(n, [pair])
            inside = inclusion_test(h, single, rec.accepting).included
            assert full[pair] == inside


def test_maximal_pair_set_of_closed_set_adds_no_linked_pair(rng):
    # on a linked pair (s, e) the idempotent power of e is e and s e = s, so
    # Q agrees with P there: the language operations read P itself
    recs = [weak_to_strong(random_recognizer(rng, max_size=12))
            for _ in range(20)]
    recs += [compile_formula(fam(2)) for fam in FAMILIES.values()]
    for rec in recs:
        sg = rec.morphism.semigroup
        q = dense_q(sg, maximal_pair_set(rec.morphism, rec.accepting,
                                         audit=True))
        assert {p for p in sg.linked if q[p]} == rec.accepting


def test_minimize_idempotent_and_smaller(rng):
    # the syntactic semigroup divides every strongly recognizing semigroup,
    # so on strong inputs minimization never grows (weak presentations of
    # the same language can be smaller than the syntactic one)
    for _ in range(20):
        rec = strongify(random_recognizer(rng, max_size=16))
        small = minimize(rec, audit=True)
        assert small.morphism.semigroup.size <= rec.morphism.semigroup.size
        again = minimize(small, audit=True)
        assert again.morphism.same_as(small.morphism)
        assert again.accepting == small.accepting


def test_minimize_preserves_language(rng):
    for _ in range(20):
        rec = random_recognizer(rng, max_size=14)
        small = minimize(rec)
        equal, witness = language_equivalent(rec, small)
        assert equal, "witness %s" % witness


def test_minimize_output_is_strong(rng):
    for _ in range(15):
        rec = random_recognizer(rng, max_size=14)
        small = minimize(rec)
        assert small.mode == "strong"
        assert is_conjugation_closed(small.morphism, small.accepting)
        assert is_strong(small.morphism, small.accepting).included
        # the congruence relation agrees with the accepting set on linked
        # pairs: nothing acceptable is left out
        q = dense_q(small.morphism.semigroup,
                    maximal_pair_set(small.morphism, small.accepting))
        lp = linked_pairs(small.morphism.semigroup)
        assert {p for p in lp if q[p]} == small.accepting


def test_equal_languages_minimize_identically(rng):
    # the syntactic recognizer is canonical: re-presenting the language
    # through its automaton and minimizing again gives the same size
    for _ in range(8):
        rec = minimize(strongify(random_recognizer(rng, max_size=6)))
        other = minimize(weak_to_strong(
            Recognizer(rec.morphism, rec.accepting, "weak")))
        assert other.morphism.semigroup.size == rec.morphism.semigroup.size
        assert len(other.accepting) == len(rec.accepting)
        equal, witness = language_equivalent(rec, other)
        assert equal, "witness %s" % witness


def test_minimize_universal_and_empty():
    h = section5_morphism()
    top = minimize(universal_recognizer(h))
    assert top.morphism.semigroup.size == 1
    assert len(top.accepting) == 1
    bottom = minimize(Recognizer(h, PairSet(), "weak"))
    assert bottom.morphism.semigroup.size == 1
    assert len(bottom.accepting) == 0


def test_audit_rejects_non_closed_strong_input():
    h = section5_morphism()
    band = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "strong")
    with pytest.raises(NotClosed):
        syntactic_morphism(band, audit=True)
    closed = strongify(band)
    assert syntactic_morphism(closed, audit=True).recognizer.accepting


def test_audit_catches_a_partition_that_is_no_congruence(monkeypatch):
    # Moore rounds that call the initial partition stable: the quotient is
    # then built from a partition that need not be a congruence, and the
    # audit's check by letter images must refuse it on some draw
    monkeypatch.setattr(syntactic, "_moore",
                        lambda right, left, class_of, rounds: (class_of,
                                                               True))
    rng = random.Random(21)
    refused = []
    for _ in range(10):
        rec = strongify(random_recognizer(rng, max_size=20))
        try:
            syntactic_morphism(rec, audit=True)
        except NotClosed as exc:
            refused.append(str(exc))
    assert any("congruence" in msg for msg in refused)


def test_projection_is_the_quotient_map(rng):
    for _ in range(15):
        rec = strongify(random_recognizer(rng, max_size=16))
        result = syntactic_morphism(rec)
        pr = result.projection
        table = rec.morphism.semigroup.table
        quotient = result.recognizer.morphism
        assert np.array_equal(pr[table], quotient.semigroup.table[pr][:, pr])
        assert tuple(pr[list(rec.morphism.images)]) == quotient.images
        image = PairSet.from_pairs(quotient.semigroup.size,
                                   ((pr[s], pr[e]) for s, e in rec.accepting))
        assert image == result.recognizer.accepting


def test_split_work_bound(rng):
    for _ in range(20):
        # a closed P over the same morphism: the bound depends only on it
        rec = strongify(random_recognizer(rng, max_size=20))
        result = syntactic_morphism(rec, audit=True)
        n = rec.morphism.semigroup.size
        a = len(rec.alphabet)
        bound = 2 * a * n * max(math.log2(n), 1)
        assert result.split_work <= bound


def refinement_input(rec):
    """``(right, left, initial)`` as ``syntactic_morphism`` refines them:
    the right and left rows of the letter images and the initial
    partition."""
    h = rec.morphism
    letters = sorted(set(h.images))
    initial = initial_partition(h.semigroup,
                                maximal_pair_set(h, rec.accepting))
    return (h.semigroup.right_rows(letters), h.semigroup.left_rows(letters),
            initial)


def closed_adversarial(n):
    """The adversarial fixture with its designated pairs closed."""
    h, designated = adversarial_fixture(n)
    return Recognizer(h, close_under_conjugation(h, designated), "strong")


def same_partition(a, b):
    """Whether two class-id arrays name the same partition."""
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) \
        == len(set(b.tolist()))


def test_hopcroft_split_work_bound(rng):
    # the inputs of test_split_work_bound, most of which the Moore rounds
    # settle before Hopcroft runs: the bound is checked on Hopcroft itself
    for _ in range(20):
        rec = strongify(random_recognizer(rng, max_size=20))
        _, split_work = _hopcroft(*refinement_input(rec))
        n = rec.morphism.semigroup.size
        a = len(rec.alphabet)
        assert split_work <= 2 * a * n * max(math.log2(n), 1)


def test_moore_rounds_agree_with_hopcroft(rng):
    recs = [strongify(random_recognizer(rng, max_size=20))
            for _ in range(20)]
    recs += [closed_adversarial(2), closed_adversarial(3)]
    for rec in recs:
        right, left, initial = refinement_input(rec)
        moore, stable = _moore(right, left, initial, len(initial) + 1)
        assert stable
        hopcroft, _ = _hopcroft(right, left, initial)
        assert same_partition(moore, hopcroft)


def test_adversarial_fixture_takes_hopcroft_fallback():
    # the pinned minimize-adversarial sizes and split work at n = 3 and 4:
    # the Moore rounds do not settle, and Hopcroft starts from the initial
    # partition
    pins = {3: (14, 359, "b5a3e2f047e1042ea80603b369b3cfb9"
                         "8f146cf7311e352d37ab2bf593cc2f99"),
            4: (22, 1195, "2fcfca620fea000f46140ac8841728d2"
                          "66fd63f69afef0eb74d44813d6aa9ee6")}
    for n, (size, split_work, want) in pins.items():
        rec = closed_adversarial(n)
        assert not _moore(*refinement_input(rec), _MOORE_ROUNDS)[1]
        result = syntactic_morphism(rec, audit=True)
        assert result.split_work == split_work
        assert result.recognizer.morphism.semigroup.size == size
        # Hopcroft's class ids are not numbered by first occurrence: they
        # are renumbered before the quotient is read off
        digest = hashlib.sha256(
            dumps_recognizer(result.recognizer).encode()).hexdigest()
        assert digest == want


def test_t_semigroup_sizes():
    # |T(n)| = n^2 2^n + n
    for n in (2, 3, 4):
        gens, mul = t_semigroup_values(n), _t_multiply(n)
        sg, _, _ = close_generators(gens,
                                    lambda x: [mul(x, g) for g in gens])
        assert sg.size == n ** 2 * 2 ** n + n
        Semigroup(sg.table, sg.generators)  # associativity, by Light's test


def test_adversarial_fixture_counts():
    # doubled semigroup: 2 (|T| + 1) - 2 elements; designated pairs
    # (t-bar, 1) x (1-bar, (0, X, 0)) with 0 in X, all pairwise non-conjugate
    for n in (2, 3):
        h, pairs = adversarial_fixture(n)
        t_size = n ** 2 * 2 ** n + n
        assert h.semigroup.size == 2 * t_size
        assert len(pairs) == t_size * 2 ** (n - 1)
        class_of = conjugacy_classes(h).class_of
        assert len({class_of[p] for p in pairs}) == len(pairs)


def test_adversarial_fixture_is_linked():
    h, pairs = adversarial_fixture(3)
    assert pairs.issubset(linked_pairs(h.semigroup))


def second_closure(rec, class_of, images):
    """The quotient closed a second time, from the classes of the letter
    images ``images`` (element ids, one per letter), the reference for the
    read-off: classes numbered by ``np.unique``, then closed from their
    representatives' rows at the images and renumbered in the order the
    closure finds them.  Returns ``(semigroup, images, projection)``."""
    _, reps, tmp_of = np.unique(class_of, return_index=True,
                                return_inverse=True)
    first = {}
    for x in images:
        first.setdefault(int(tmp_of[x]), x)
    right = rec.morphism.semigroup.right_rows(list(first.values()))
    rows = tmp_of[right[reps]].tolist()
    sg, seeds, elements = close_generators(tmp_of[list(images)].tolist(),
                                           rows.__getitem__)
    renum = np.empty(len(rows), dtype=np.int64)
    renum[elements] = np.arange(len(rows))
    return sg, tuple(seeds), renum[tmp_of]


def assert_same_semigroup(got, want):
    assert np.array_equal(got.table, want.table)
    assert np.array_equal(got.right_cayley, want.right_cayley)
    assert got.generators == want.generators
    assert np.array_equal(got.parent, want.parent)
    assert np.array_equal(got.parent_gen, want.parent_gen)


def test_quotient_read_off_matches_a_second_closure(rng):
    # inputs numbered in discovery order, as every library semigroup is:
    # the quotient read off the input equals the one closed again
    merged = 0
    for _ in range(200):
        rec = weak_to_strong(random_recognizer(rng, max_size=8))
        assert rec.morphism.semigroup.discovery_ordered
        right, left, initial = refinement_input(rec)
        class_of, _ = _moore(right, left, initial, len(initial) + 1)
        want, images, projection = second_closure(rec, class_of,
                                                  rec.morphism.images)
        result = syntactic_morphism(rec, audit=True)
        got = result.recognizer.morphism
        assert_same_semigroup(got.semigroup, want)
        assert got.images == images
        assert np.array_equal(result.projection, projection)
        assert result.recognizer.accepting == {
            (projection[s], projection[e]) for s, e in rec.accepting}
        merged += want.size < rec.morphism.semigroup.size
    assert merged > 100


def test_renaming_read_off_matches_a_second_closure(rng):
    # renaming letters is the read-off of the discrete partition at the
    # permuted letter images: it numbers the elements as a second closure
    # from those images does, and returns the input semigroup itself when
    # the distinct images keep their order
    kept = moved = 0
    for trial in range(100):
        rec = strongify(random_recognizer(rng, max_size=12,
                                          alphabet=("a", "b", "c")))
        h = rec.morphism
        assert h.semigroup.discovery_ordered
        perm = list(range(len(h.alphabet)))
        if trial % 4:
            rng.shuffle(perm)
        images = [h.images[i] for i in perm]
        labels = np.arange(h.semigroup.size)
        want, want_images, projection = second_closure(rec, labels, images)
        got, got_projection = syntactic.read_off(rec, labels, images)
        assert_same_semigroup(got.morphism.semigroup, want)
        assert got.morphism.alphabet == h.alphabet
        assert got.morphism.images == want_images
        assert np.array_equal(got_projection, projection)
        assert got.accepting == {(projection[s], projection[e])
                                 for s, e in rec.accepting}
        if list(dict.fromkeys(images)) == list(h.semigroup.generators):
            assert got.morphism.semigroup is h.semigroup
            if perm == sorted(perm):
                assert got.morphism is h
            kept += 1
        else:
            moved += 1
    assert kept > 25 and moved > 25


def test_an_ordered_input_is_neither_closed_nor_filled_again(monkeypatch):
    rng = random.Random(26)
    recs = [strongify(random_recognizer(rng, max_size=16))
            for _ in range(10)]
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def record(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, record)

    spy(syntactic, "close_generators")
    spy(semigroup, "close_generators")
    spy(semigroup, "_fill_table")
    spy(semigroup, "cayley_bfs")
    sizes = [(syntactic_morphism(rec).recognizer.morphism.semigroup.size,
              rec.morphism.semigroup.size) for rec in recs]
    assert calls == []
    assert any(out < size for out, size in sizes)


def test_a_discrete_partition_returns_the_input_morphism(rng, monkeypatch):
    # a syntactic recognizer minimises to itself: no two elements merge,
    # and the audit still runs both of its checks
    checked = []
    closed = syntactic.is_conjugation_closed

    def check(h, p):
        checked.append(h)
        return closed(h, p)

    monkeypatch.setattr(syntactic, "is_conjugation_closed", check)
    recs = [compile_formula(fam(2)) for fam in FAMILIES.values()]
    recs += [minimize(random_recognizer(rng, max_size=12))
             for _ in range(10)]
    for small in recs:
        checked.clear()
        result = syntactic_morphism(small, audit=True)
        assert result.recognizer.morphism is small.morphism
        assert result.recognizer.accepting == small.accepting
        assert result.projection.tolist() == list(
            range(small.morphism.semigroup.size))
        assert checked == [small.morphism, small.morphism]


def test_out_of_order_inputs_minimise_like_their_ordered_twin(rng):
    # a shuffled table from outside, and the same table loaded from a
    # full dump, give the dump of the ordered input's syntactic recognizer;
    # minimal inputs too, whose partition is discrete
    unordered = 0
    for trial in range(40):
        rec = weak_to_strong(random_recognizer(rng, max_size=12))
        if trial % 2:
            rec = minimize(rec)
        want = syntactic_morphism(rec)
        twin, perm = shuffled(rec, rng)
        unordered += not twin.morphism.semigroup.discovery_ordered
        got = syntactic_morphism(twin, audit=True)
        assert dumps_recognizer(got.recognizer) \
            == dumps_recognizer(want.recognizer)
        assert np.array_equal(got.projection[perm], want.projection)
        loaded = loads_recognizer(dumps_recognizer(twin))
        assert dumps_recognizer(minimize(loaded)) \
            == dumps_recognizer(want.recognizer)
    assert unordered > 10
