"""Acceptance suite: one test (one pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v``.  Set OMEGASEM_ACCEPTANCE_FULL=1
to include the k = 6 benchmark rows (several minutes; gated like the CLI's
``table1 --full`` flag).
"""

import math
import os
import random

import numpy as np
import pytest

from omegasem import (PairSet, Recognizer, buchi_to_strong, conjugacy_classes,
                      inclusion_test, is_strong, language_equivalent,
                      language_included, member, morphism_to_buchi)
from omegasem.buchi import buchi_accepts_lasso
from omegasem.cli import table1_lines
from omegasem.conjugacy import close_under_conjugation
from omegasem.mso import chi_formula, phi_formula, psi_formula
from omegasem.semigroup import Semigroup, close_generators
from omegasem.syntactic import (_t_multiply, adversarial_fixture, minimize,
                                syntactic_morphism, t_semigroup_values)

from conftest import (brute_force_conjugacy, random_pair_set,
                      random_recognizer, random_transformation_morphism,
                      random_upword, s1_table, section5_morphism)
from test_buchi import random_buchi
from test_mso import check_against_evaluator, random_formula


def strongify(rec: Recognizer) -> Recognizer:
    closed = close_under_conjugation(rec.morphism, rec.accepting)
    return Recognizer(rec.morphism, closed, "strong")


# -- criterion 1: benchmark table ---------------------------------------------

REFERENCE_TRIPLES = {
    ("phi", 2): (4, 5, 1), ("phi", 3): (8, 22, 1), ("phi", 4): (16, 74, 1),
    ("phi", 5): (32, 232, 1), ("phi", 6): (64, 710, 1),
    ("psi", 2): (12, 15, 10), ("psi", 3): (43, 50, 41),
    ("psi", 4): (148, 163, 146), ("psi", 5): (539, 570, 537),
    ("psi", 6): (1863, 1926, 1861),
    ("chi", 2): (7, 14, 11), ("chi", 3): (11, 26, 15),
    ("chi", 4): (17, 61, 30), ("chi", 5): (41, 227, 85),
    ("chi", 6): (105, 716, 184),
}

MISMATCH_REPORT = """\
The emitted table does not reproduce the reference triples.  Alternative
encodings attempted before concluding the mismatch is irreducible:
  * |S| agrees exactly with the reference for 'phi' and 'psi' at every k,
    so the compilation pipeline itself is aligned with the reference.
  * 'psi': |F| and |P| are each exactly one above the reference at every
    k.  Excluding the linked pair of the everywhere-zero word (the vacuous
    model) reproduces the reference column, but no reading of the
    acceptance definition that drops exactly that pair was found.
  * 'phi': this pipeline yields |F| = 3^k.  Counting only pairs reachable
    from accepting prefixes, dropping the vacuous pair, and counting
    conjugacy classes instead of pairs were all tried; none reproduces
    the reference column.
  * 'chi': cyclic, fresh-variable, and dropped-top-successor boundary
    conventions for the index arithmetic were tried; none reproduces the
    reference triples (the closest matches |S| at k = 2, 3 only).
Values are reported as computed; nothing is patched to force agreement.
"""


def test_criterion_1_benchmark_table():
    full = os.environ.get("OMEGASEM_ACCEPTANCE_FULL") == "1"
    rows = table1_lines(full, clock=lambda _msg: None)
    computed = {}
    for line in rows[1:]:
        name, k, s, f, p = line.split()
        computed[(name, int(k))] = (int(s), int(f), int(p))
    diffs = []
    for key, want in sorted(REFERENCE_TRIPLES.items(), key=lambda kv: kv[0]):
        if key not in computed:
            continue  # k = 6 rows gated behind OMEGASEM_ACCEPTANCE_FULL
        if computed[key] != want:
            diffs.append("%s k=%d: computed %s, reference %s"
                         % (key[0], key[1], computed[key], want))
    if diffs:
        pytest.fail(MISMATCH_REPORT + "\n".join(diffs))


# -- criterion 2: the two-generator band counterexample -------------------------


def test_criterion_2_band_counterexample():
    h = section5_morphism()
    p = PairSet.from_pairs(4, [(0, 0)])
    q = PairSet.from_pairs(4, [(1, 3)])
    assert inclusion_test(h, p, q).included
    assert inclusion_test(h, q, p).included

    hc = section5_morphism(with_c=True)
    res = inclusion_test(hc, p, q)
    assert not res.included
    assert str(res.witness) == "c(c)^w"
    assert member(Recognizer(hc, p, "weak"), res.witness)
    assert not member(Recognizer(hc, q, "weak"), res.witness)
    assert inclusion_test(hc, q, p).included


# -- criterion 3: conjugacy partition vs brute force -----------------------------


def test_criterion_3_conjugacy_vs_brute_force():
    rng = random.Random(0xACCE551)
    morphisms = [section5_morphism()]
    morphisms += [random_transformation_morphism(rng, max_size=32)
                  for _ in range(100)]
    for h in morphisms:
        fast = conjugacy_classes(h)
        assert sorted(map(sorted, fast.classes)) == brute_force_conjugacy(h)


# -- criterion 4: minimization properties ----------------------------------------


def test_criterion_4_minimization_properties():
    rng = random.Random(0xACCE552)
    for _ in range(50):
        rec = strongify(random_recognizer(rng, max_size=20))
        small = minimize(rec)
        # (a) language-equivalent to the input, both inclusions
        assert language_included(rec, small).included
        assert language_included(small, rec).included
        # (b) idempotent under re-minimization
        again = minimize(small)
        assert again.morphism.same_as(small.morphism)
        assert again.accepting == small.accepting
        # (c) never exceeds the input size
        assert small.morphism.semigroup.size <= rec.morphism.semigroup.size
        # (d) matches the size of minimizing the automaton round-trip
        roundtrip = minimize(buchi_to_strong(morphism_to_buchi(rec)))
        assert (roundtrip.morphism.semigroup.size
                == small.morphism.semigroup.size)


# -- criterion 5: inclusion vs the exhaustive lasso oracle ------------------------
#
# The oracle enumerates ultimately periodic words u v^w within the length
# bounds and checks raw membership, independently of inclusion_test.  Two
# sound collapses keep it exhaustive but feasible:
#   * membership of u v^w depends on u only through its image (a block cut
#     inside u can be absorbed into the prefix, since pe = p for a linked
#     accepting pair), so prefixes are enumerated as images;
#   * blocks of a decomposition can be merged (e idempotent) until each
#     spans a full period copy, so membership of s v^w depends on v only
#     through the state (h(v), {(h(v[:i]), h(v[i:]))}); periods are
#     enumerated as such states, one per word, deduplicated.


class LassoOracle:
    def __init__(self, rec: Recognizer):
        self.rec = rec
        sg = rec.morphism.semigroup
        self.one = sg.size  # the identity of S^1
        self.mul = s1_table(sg).item
        self.images = dict(zip(rec.morphism.alphabet, rec.morphism.images))
        self.pairs = list(rec.accepting.pairs())
        self._masks = {}

    def start(self, a):
        g = self.images[a]
        return (g, frozenset({(self.one, g)}))

    def extend(self, state, a):
        g = self.images[a]
        hv, splits = state
        mul = self.mul
        grown = {(x, mul(y, g)) for (x, y) in splits} | {(hv, g)}
        return (mul(hv, g), frozenset(grown))

    def _powers(self, hv):
        out, cur = [], self.one
        while cur not in out:
            out.append(cur)
            cur = self.mul(cur, hv)
        return out

    def mask(self, state):
        """Per element s: does s . v^w belong, for any v with this state."""
        if state in self._masks:
            return self._masks[state]
        hv, splits = state
        mul = self.mul
        pows = self._powers(hv)
        cls = sorted(splits)
        n = self.rec.morphism.semigroup.size
        out = np.zeros(n, dtype=bool)
        for e in sorted({e for (_p, e) in self.pairs}):
            # block from split c to split c': y_c h(v)^m x_c' = e
            adj = np.array([[any(mul(mul(y, m), x2) == e for m in pows)
                             for (x2, _y2) in cls] for (_x, y) in cls])
            reach = adj.copy()
            for _ in range(max(1, int(math.ceil(math.log2(len(cls) + 1))))):
                reach = reach | (reach @ reach)
            on_cycle = np.diagonal(reach)
            alive = on_cycle | (reach @ on_cycle)
            starts = {x for ok, (x, _y) in zip(alive, cls) if ok}
            qs = {mul(m, x) for m in pows for x in starts}
            targets = {p for (p, ee) in self.pairs if ee == e}
            for s in range(n):
                if not out[s]:
                    out[s] = any(mul(s, q) in targets for q in qs)
        self._masks[state] = out
        return out


def oracle_inclusions(o1: LassoOracle, o2: LassoOracle, alphabet):
    """(L1 <= L2, L2 <= L1) by bounded exhaustive UPWord enumeration."""
    n = o1.rec.morphism.semigroup.size * o2.rec.morphism.semigroup.size
    max_u, max_v = n + 1, 2 * n
    t1 = o1.rec.morphism.semigroup.table
    t2 = o2.rec.morphism.semigroup.table

    prefixes = {(o1.images[a], o2.images[a]) for a in alphabet}
    frontier = set(prefixes)
    for _ in range(max_u - 1):
        frontier = {(int(t1[x, o1.images[a]]), int(t2[y, o2.images[a]]))
                    for (x, y) in frontier for a in alphabet} - prefixes
        if not frontier:
            break
        prefixes |= frontier

    states = {(o1.start(a), o2.start(a)) for a in alphabet}
    frontier = set(states)
    for _ in range(max_v - 1):
        frontier = {(o1.extend(s1, a), o2.extend(s2, a))
                    for (s1, s2) in frontier for a in alphabet} - states
        if not frontier:
            break
        states |= frontier

    fwd = bwd = True
    for (s1, s2) in states:
        m1, m2 = o1.mask(s1), o2.mask(s2)
        for (x, y) in prefixes:
            fwd = fwd and (not m1[x] or m2[y])
            bwd = bwd and (not m2[y] or m1[x])
        if not (fwd or bwd):
            break
    return fwd, bwd


def test_criterion_5_inclusion_vs_exhaustive_oracle():
    rng = random.Random(0xACCE553)
    pool = [random_recognizer(rng, max_size=8, alphabet=("a", "b"))
            for _ in range(20)]
    oracles = [LassoOracle(rec) for rec in pool]
    for i in range(20):
        for j in range(i, 20):
            fwd, bwd = oracle_inclusions(oracles[i], oracles[j], ("a", "b"))
            assert language_included(pool[i], pool[j]).included == fwd, (i, j)
            assert language_included(pool[j], pool[i]).included == bwd, (j, i)


# -- criterion 6: automaton conversion round-trips --------------------------------


def test_criterion_6_buchi_roundtrips():
    rng = random.Random(0xACCE554)
    for _ in range(50):
        aut = random_buchi(rng, max_states=4)
        rec = buchi_to_strong(aut)
        assert is_strong(rec.morphism, rec.accepting).included
        for _ in range(100):
            w = random_upword(rng, aut.alphabet)
            assert member(rec, w) == buchi_accepts_lasso(aut, w)


# -- criterion 7: complexity accounting -------------------------------------------


def check_counters(h, p, q):
    n = h.semigroup.size
    n_letters = len(h.alphabet)
    res = conjugacy_classes(h)
    n_pairs = len(res.pairs)
    assert res.union_calls <= max(0, n_pairs - 1)
    assert res.find_calls <= 2 * n_letters * max(0, n_pairs - 1)

    assert inclusion_test(h, p, q).triples_visited <= (n + 1) ** 3

    closed = close_under_conjugation(h, p)
    syn = syntactic_morphism(Recognizer(h, closed, "strong"))
    assert syn.split_work <= 2 * n_letters * n * math.log2(n)


def test_criterion_7_complexity_counters():
    rng = random.Random(0xACCE555)
    for _ in range(25):
        h = random_transformation_morphism(rng, max_size=24)
        check_counters(h, random_pair_set(rng, h.semigroup),
                       random_pair_set(rng, h.semigroup))

    # the worst-case fixture: marked transformation-table semigroup, n = 4
    gens, mul = t_semigroup_values(4), _t_multiply(4)
    base, _, _ = close_generators(gens,
                                  lambda x: [mul(x, g) for g in gens])
    assert base.size == 260
    Semigroup(base.table, base.generators)  # associativity, by Light's test
    h, designated = adversarial_fixture(4)
    assert h.semigroup.size == 520
    assert len(designated) == 2080
    check_counters(h, designated, designated)


# -- criterion 8: logic compilation soundness --------------------------------------


def test_criterion_8_mso_soundness():
    rng = random.Random(0xACCE556)
    for fam in (phi_formula, psi_formula, chi_formula):
        check_against_evaluator(fam(1), 200, rng)
    for _ in range(10):
        check_against_evaluator(random_formula(rng), 200, rng)
