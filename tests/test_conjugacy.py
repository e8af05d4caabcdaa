import json
import pathlib
import random

import pytest

from omegasem import (Morphism, PairSet, Recognizer, Semigroup, UPWord,
                      adversarial_fixture, close_under_conjugation,
                      conjugacy_classes, is_conjugation_closed, is_strong,
                      linked_pairs, member, semigroup, weak_to_strong)
from omegasem.formats import dumps_recognizer, loads_recognizer

from conftest import (brute_force_conjugacy, random_recognizer,
                      random_transformation_morphism, random_upword,
                      section5_morphism)


def as_sorted_partition(classes):
    return sorted(sorted(cls) for cls in classes)


def test_matches_brute_force_on_band():
    h = section5_morphism()
    got = conjugacy_classes(h)
    assert as_sorted_partition(got.classes) == \
        as_sorted_partition(brute_force_conjugacy(h))


def test_matches_brute_force_randomized():
    rng = random.Random(101)
    for _ in range(40):
        h = random_transformation_morphism(rng, max_size=32)
        got = conjugacy_classes(h)
        assert as_sorted_partition(got.classes) == \
            as_sorted_partition(brute_force_conjugacy(h))


def test_counter_bounds(rng):
    # at most |F| - 1 unions and 2 |A| (|F| - 1) finds
    for _ in range(25):
        h = random_transformation_morphism(rng, max_size=32)
        got = conjugacy_classes(h)
        bound = len(got.pairs) - 1
        assert got.union_calls <= max(bound, 0)
        assert got.find_calls <= 2 * len(h.alphabet) * max(bound, 0)


PINS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "pins.json"


def test_adversarial_counters_match_the_benchmark_pins():
    # the fingerprint the minimize-adversarial workload pins for its
    # conjugacy op at n = 3: class count, exact counters, closed pairs
    want = json.loads(PINS.read_text())["minimize-adversarial"]["3"][0]
    h, designated = adversarial_fixture(3)
    got = conjugacy_classes(h)
    hit = {got.class_of[p] for p in designated}
    assert {"classes": len(got.classes), "unions": got.union_calls,
            "finds": got.find_calls,
            "closed_pairs": sum(len(got.classes[c]) for c in hit)} == want


def test_class_ids_canonical(rng):
    h = random_transformation_morphism(rng, max_size=24)
    got = conjugacy_classes(h)
    # class ids are numbered by first row-major occurrence
    seen = []
    for p in got.pairs:
        cid = got.class_of[p]
        if cid not in seen:
            assert cid == len(seen)
            seen.append(cid)
        assert p in got.classes[cid]


def test_close_under_conjugation_is_closure(rng):
    for _ in range(20):
        h = random_transformation_morphism(rng, max_size=24)
        lp = linked_pairs(h.semigroup)
        pairs = [p for p in lp.pairs() if rng.random() < 0.3]
        ps = PairSet.from_pairs(h.semigroup.size, pairs)
        closed = close_under_conjugation(h, ps)
        assert ps.issubset(closed)
        assert is_conjugation_closed(h, closed)
        # a closed set comes back as it is
        assert (closed is ps) == (closed == ps)
        assert close_under_conjugation(h, closed) is closed
        # closure adds whole conjugacy classes, nothing else
        cc = conjugacy_classes(h)
        expected = set()
        for p in pairs:
            expected.update(cc.classes[cc.class_of[p]])
        assert set(closed.pairs()) == expected


def test_non_conjugate_pairs_have_disjoint_languages(rng):
    # all factorizations of one word yield conjugate linked pairs, so
    # single-pair languages from different classes never share a word
    for _ in range(10):
        h = random_transformation_morphism(rng, max_size=12)
        cc = conjugacy_classes(h)
        n = h.semigroup.size
        if len(cc.classes) < 2:
            continue
        reps = [Recognizer(h, PairSet.from_pairs(n, [cls[0]]), "weak")
                for cls in cc.classes]
        for _ in range(60):
            w = random_upword(rng, h.alphabet)
            hits = sum(member(r, w) for r in reps)
            assert hits <= 1


def union_finds(monkeypatch):
    """The union-finds that conjugacy partitions build from now on."""
    built = []

    class Counted(semigroup.UnionFind):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr(semigroup, "UnionFind", Counted)
    return built


def fresh_copy(h):
    """``h`` onto a new, equal semigroup, which has no cached data yet."""
    sg = h.semigroup
    return Morphism(h.alphabet, Semigroup(sg.table, sg.generators), h.images)


def test_partition_is_computed_once_per_semigroup(monkeypatch):
    rng = random.Random(7)
    while True:  # an accepting set that closing changes
        rec = random_recognizer(rng, max_size=24)
        if not is_conjugation_closed(rec.morphism, rec.accepting):
            break
    h, p = fresh_copy(rec.morphism), rec.accepting
    built = union_finds(monkeypatch)
    conjugacy_classes(h)
    closed = close_under_conjugation(h, p)
    assert not is_conjugation_closed(h, p)
    is_strong(h, p)
    weak_to_strong(Recognizer(h, p, "weak"))
    assert len(built) == 1
    # a strong file: the loader's check and a later question share one
    text = dumps_recognizer(Recognizer(h, closed, "strong"))
    built.clear()
    loaded = loads_recognizer(text)
    assert is_strong(loaded.morphism, loaded.accepting).included
    assert len(built) == 1


def test_partition_depends_on_the_semigroup_only_and_is_read_only(rng):
    while True:  # a semigroup with an element that is no generator
        h = fresh_copy(random_transformation_morphism(rng, n_letters=2,
                                                      max_size=32))
        sg = h.semigroup
        extra = [s for s in range(sg.size) if s not in sg.generators]
        if extra:
            break
    # one more letter, mapped to a product of the generators
    h2 = Morphism(h.alphabet + ("z",), sg, h.images + (extra[0],))
    got = conjugacy_classes(h)
    assert conjugacy_classes(h2) is got
    assert [list(c) for c in got.classes] == brute_force_conjugacy(h2)
    with pytest.raises(TypeError):
        got.class_of[got.pairs[0]] = 1
    with pytest.raises(TypeError):
        got.classes[0] = ()
    with pytest.raises(TypeError):
        got.pairs[0] = (0, 0)
    with pytest.raises(AttributeError):
        got.classes = ()
