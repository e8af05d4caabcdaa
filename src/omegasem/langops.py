"""Boolean operations and alphabet maps on recognized languages.

All operations work on strong, that is conjugation-closed, recognizers
(``weak_to_strong`` upgrades weak inputs) and return minimized strong
recognizers.  On the linked pairs a closed P equals its maximal pair set,
so the operations read the accepting sets themselves: complementation takes
the linked pairs outside P, and union and intersection pull both sets back
onto a product morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .buchi import weak_to_strong
from .errors import AlphabetMismatch, UnknownLetter
from .inclusion import inclusion_test
from .morphism import Morphism, PairSet, Recognizer, linked_pairs
from .semigroup import close_generators
from .syntactic import minimize


def complement(rec: Recognizer, *, audit=False) -> Recognizer:
    """A minimized recognizer of the complement language."""
    rec = weak_to_strong(rec)
    lp = linked_pairs(rec.morphism.semigroup)
    comp = Recognizer(rec.morphism, lp - rec.accepting, "strong")
    return minimize(comp, audit=audit)


def _product(r1: Recognizer, r2: Recognizer):
    """Morphism into the subsemigroup of S1 x S2 generated by the letters."""
    if r1.morphism.alphabet != r2.morphism.alphabet:
        raise AlphabetMismatch("operands use different alphabets")
    t1 = r1.morphism.semigroup.table
    t2 = r2.morphism.semigroup.table

    def mul(a, b):
        return (int(t1[a[0], b[0]]), int(t2[a[1], b[1]]))

    values = [(int(x), int(y))
              for x, y in zip(r1.morphism.images, r2.morphism.images)]
    sg, seeds, elements = close_generators(values, mul, audit_bound=0)
    return Morphism(r1.morphism.alphabet, sg, seeds), elements


def _transport(r1: Recognizer, r2: Recognizer):
    """Both accepting sets, made strong, pulled back onto the product.

    Returns ``(h, p1, p2)``: the product morphism and the linked pairs of
    ``h`` whose components lie in each operand's closed accepting set.  The
    projections map linked pairs to linked pairs, so the pull-back of a
    closed P recognizes the same language over ``h``.
    """
    r1, r2 = weak_to_strong(r1), weak_to_strong(r2)
    h, elements = _product(r1, r2)
    lp = linked_pairs(h.semigroup)
    c1, c2 = np.asarray(elements).T  # first and second components
    p1 = PairSet(lp.bits & r1.accepting.bits[np.ix_(c1, c1)])
    p2 = PairSet(lp.bits & r2.accepting.bits[np.ix_(c2, c2)])
    return h, p1, p2


def language_included(r1: Recognizer, r2: Recognizer):
    """Decide L(r1) subseteq L(r2) for recognizers over the same alphabet.

    Over one morphism the accepting sets are compared as they are;
    otherwise both are transported onto the product morphism first.
    """
    if r1.morphism.same_as(r2.morphism):
        return inclusion_test(r1.morphism, r1.accepting, r2.accepting)
    return inclusion_test(*_transport(r1, r2))


def language_equivalent(r1: Recognizer, r2: Recognizer):
    """Decide L(r1) = L(r2); returns (equal, witness in the difference)."""
    fwd = language_included(r1, r2)
    if not fwd.included:
        return False, fwd.witness
    bwd = language_included(r2, r1)
    if not bwd.included:
        return False, bwd.witness
    return True, None


def union(r1: Recognizer, r2: Recognizer, *, audit=False) -> Recognizer:
    h, p1, p2 = _transport(r1, r2)
    return minimize(Recognizer(h, p1 | p2, "strong"), audit=audit)


def intersect(r1: Recognizer, r2: Recognizer, *, audit=False) -> Recognizer:
    h, p1, p2 = _transport(r1, r2)
    return minimize(Recognizer(h, p1 & p2, "strong"), audit=audit)


@dataclass(frozen=True)
class LetterMap:
    """A map between alphabets, applied letterwise to infinite words."""

    source: Tuple[str, ...]
    target: Tuple[str, ...]
    mapping: Dict[str, str]

    def __post_init__(self):
        for a in self.source:
            if a not in self.mapping:
                raise UnknownLetter("no image for letter %r" % (a,))
            if self.mapping[a] not in self.target:
                raise UnknownLetter(
                    "image %r of %r not in target alphabet"
                    % (self.mapping[a], a))

    def fibers(self):
        out = {b: [] for b in self.target}
        for a in self.source:
            out[self.mapping[a]].append(a)
        return out


def project(rec: Recognizer, lmap: LetterMap, *, audit=False) -> Recognizer:
    """Recognizer of the image language under a letter map.

    Uses the powerset semigroup: the image-language morphism sends each
    target letter to the set of values of its preimage letters, and only
    subsets reachable from those generators are materialized.  A linked
    pair of subsets (X, E) is accepting iff some accepting pair (t, f) of
    the original recognizer has t in X and f in E.  The closed P suffices:
    a pair (t, t') of the maximal set with t in X and t' in E gives the
    pair (t f, f) of P, where f is the idempotent power of t', and X E = X.
    """
    rec = weak_to_strong(rec)
    if lmap.source != rec.morphism.alphabet:
        raise AlphabetMismatch("letter map source does not match recognizer")
    h = rec.morphism
    table = h.semigroup.table
    idx = {a: i for i, a in enumerate(h.alphabet)}
    fibers = lmap.fibers()
    values = []
    for b in lmap.target:
        if not fibers[b]:
            raise UnknownLetter("target letter %r has no preimage" % (b,))
        values.append(tuple(sorted({int(h.images[idx[a]])
                                    for a in fibers[b]})))

    def mul(x, y):
        return tuple(np.unique(table[np.ix_(x, y)]).tolist())

    sg, seeds, elements = close_generators(values, mul, audit_bound=0)
    new_h = Morphism(tuple(lmap.target), sg, seeds)
    pbits = rec.accepting.bits
    lp = linked_pairs(sg)
    bits = np.zeros((sg.size, sg.size), dtype=bool)
    for (s, e) in lp.pairs():
        xs, es = elements[s], elements[e]
        if pbits[np.ix_(xs, es)].any():
            bits[s, e] = True
    out = Recognizer(new_h, PairSet(bits), "strong")
    return minimize(out, audit=audit)


def inverse_project(rec: Recognizer, lmap: LetterMap, *, audit=False) -> Recognizer:
    """Recognizer of the preimage language: pull letters back along the map.

    The morphism just composes the letter map with the original images, so
    preimages need no automaton detour.
    """
    rec = weak_to_strong(rec)
    if lmap.target != rec.morphism.alphabet:
        raise AlphabetMismatch("letter map target does not match recognizer")
    h = rec.morphism
    idx = {a: i for i, a in enumerate(h.alphabet)}
    values = [int(h.images[idx[lmap.mapping[a]]]) for a in lmap.source]
    table = h.semigroup.table
    # restrict to the subsemigroup generated by the pulled-back letters:
    # the map need not be surjective, and unreachable elements have empty
    # preimage under the new morphism
    sg, seeds, elements = close_generators(
        values, lambda a, b: int(table[a, b]), audit_bound=0)
    new_h = Morphism(tuple(lmap.source), sg, seeds)
    el = np.asarray(elements)
    bits = linked_pairs(sg).bits & rec.accepting.bits[np.ix_(el, el)]
    out = Recognizer(new_h, PairSet(bits), "strong")
    return minimize(out, audit=audit)
