"""Shared generators for randomized tests.

Random semigroups are transformation semigroups (compositions of random
functions on a small point set), which are associative by construction and
cover a wide range of shapes: groups, bands, nilpotent tails, and mixtures.
All randomness flows through explicit ``random.Random`` instances seeded per
test, so failures are reproducible.
"""

import itertools
import math
import random

import numpy as np
import pytest

from omegasem import (Morphism, PairSet, Recognizer, Semigroup,
                      close_generators, linked_pairs)


def random_transformation_morphism(rng, *, degree=None, n_letters=None,
                                   max_size=None, alphabet=None):
    """A morphism whose letter images are random functions on a point set.

    Retries until the closure fits under ``max_size`` (if given).  Functions
    compose associatively, so no associativity audit is needed.
    """
    while True:
        d = degree if degree is not None else rng.randint(2, 4)
        if alphabet is not None:
            letters = tuple(alphabet)
        else:
            k = n_letters if n_letters is not None else rng.randint(1, 3)
            letters = tuple("abcdef"[:k])
        values = [tuple(rng.randrange(d) for _ in range(d))
                  for _ in letters]

        gens = list(dict.fromkeys(values))

        def right(f):
            return [tuple(g[f[i]] for i in range(d)) for g in gens]

        sg, seeds, _ = close_generators(values, right)
        if max_size is None or sg.size <= max_size:
            return Morphism(letters, sg, seeds)


def random_pair_set(rng, semigroup, density=0.4):
    """A random subset of the linked pairs of a semigroup."""
    lp = linked_pairs(semigroup)
    chosen = [p for p in lp.pairs() if rng.random() < density]
    return PairSet.from_pairs(semigroup.size, chosen)


def random_recognizer(rng, *, max_size=20, alphabet=None, density=0.4):
    h = random_transformation_morphism(rng, max_size=max_size,
                                       alphabet=alphabet)
    return Recognizer(h, random_pair_set(rng, h.semigroup, density), "weak")


def oversized_closure(limit):
    """The message of a closure stopped where its table would outgrow a
    memory limit of ``limit`` bytes."""
    return ("closure exceeded %d elements, the most whose table fits"
            % math.isqrt(limit // 4))


def oversized_pair():
    """Two 12-element weak recognizers whose Büchi strong forms, of 489 and
    3 740 elements, close a 169 742-element product, whose dense table
    would take 107 GiB.

    Their syntactic forms have 17 and 8 elements, and union and
    intersection, which minimise weak operands, pull those back onto an
    89-element product.  Equivalence pulls back the sets as given, onto a
    72-element product.  Inclusion upgrades only its right side, to the
    Büchi strong form: ``right <= left`` closes 2 709 elements and
    ``left <= right`` 8 760."""
    rng = random.Random(1234)
    recs = [random_recognizer(rng, max_size=12, alphabet=("a", "b"))
            for _ in range(6)]
    return recs[4], recs[5]


def product_sizes(monkeypatch):
    """The sizes of the products that ``langops.pullback`` builds from now
    on, in order."""
    from omegasem import langops
    sizes = []
    real = langops.pullback

    def pullback(*args):
        out = real(*args)
        sizes.append(out[0].semigroup.size)
        return out

    monkeypatch.setattr(langops, "pullback", pullback)
    return sizes


def shuffled(rec, rng):
    """rec with its elements renumbered at random, through
    ``Semigroup(table, generators)``, and the permutation used."""
    h = rec.morphism
    n = h.semigroup.size
    perm = np.array(rng.sample(range(n), n))
    back = np.argsort(perm)
    table = perm[h.semigroup.table[back][:, back]]
    sg = Semigroup(table, perm[list(h.semigroup.generators)])
    twin = Morphism(h.alphabet, sg, perm[list(h.images)].tolist())
    return Recognizer(twin, PairSet((perm[s], perm[e])
                                    for s, e in rec.accepting),
                      rec.mode), perm


def random_upword(rng, alphabet, max_prefix=4, max_period=4):
    prefix = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(0, max_prefix)))
    period = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(1, max_period)))
    from omegasem import UPWord
    return UPWord(prefix, period)


def s1_table(sg):
    """The table of the monoid S^1, built from ``sg.mul``: a fresh identity
    adjoined at index ``sg.size``, even when S already has a neutral
    element."""
    one = sg.size
    return np.array([[t if s == one else s if t == one else sg.mul(s, t)
                      for t in range(one + 1)] for s in range(one + 1)])


def brute_force_conjugacy(morphism):
    """Reference partition: one-step conjugacy closed transitively.

    (s, e) ~1 (t, f) iff there are x, y in S^1 with sx = t, xy = e, yx = f;
    classes are the connected components of ~1 over all linked pairs.
    """
    sg = morphism.semigroup
    n = sg.size
    one = n
    mul = s1_table(sg).item

    pairs = linked_pairs(sg).pairs()
    index = {p: i for i, p in enumerate(pairs)}
    adj = [set() for _ in pairs]
    elements1 = list(range(n)) + [one]
    for (s, e) in pairs:
        i = index[(s, e)]
        for x, y in itertools.product(elements1, repeat=2):
            if mul(x, y) != e:
                continue
            t, f = mul(s, x), mul(y, x)
            j = index.get((t, f))
            if j is not None:
                adj[i].add(j)
                adj[j].add(i)
    class_of = {}
    classes = []
    for i, p in enumerate(pairs):
        if p in class_of:
            continue
        cid = len(classes)
        classes.append([])
        stack = [i]
        class_of[p] = cid
        while stack:
            j = stack.pop()
            classes[cid].append(pairs[j])
            for m in adj[j]:
                q = pairs[m]
                if q not in class_of:
                    class_of[q] = cid
                    stack.append(m)
    for cls in classes:
        cls.sort()
    return classes


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def section5_morphism(with_c=False):
    """The 2x2 rectangular band (i, j)(k, l) = (i, l) with h(a) = (1, 2),
    h(b) = (2, 1), and optionally h(c) = (1, 1)."""
    # elements: (i, j) encoded as 2*(i-1) + (j-1); product (i,j)(k,l) = (i,l)
    table = [[2 * (s // 2) + (t % 2) for t in range(4)] for s in range(4)]
    alphabet = ("a", "b", "c") if with_c else ("a", "b")
    images = (1, 2, 0) if with_c else (1, 2)
    sg = Semigroup(table, sorted(set(images)))
    return Morphism(alphabet, sg, images)
