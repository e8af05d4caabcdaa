"""Deciding [P] subseteq [Q] for two pair sets over one morphism.

The search runs over triples (s, x, y) in S x S^1 x S^1, starting from
(s, e, 1) for (s, e) in P and peeling letters off x from the right.  If a
triple (s, 1, y) is reached whose Q-check failed along the way, the word
u v^omega with u in h^-1(s) and v read off the parent chain witnesses
non-inclusion.  At most |S| (|S|+1)^2 triples are ever visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conjugacy import close_under_conjugation
from .errors import NotLinkedPair
from .morphism import (Morphism, PairSet, Recognizer, UPWord,
                       check_same_morphism, linked_pairs)
from .semigroup import MonoidView


@dataclass
class InclusionResult:
    included: bool
    witness: Optional[UPWord]  # in [P] \ [Q] when not included
    triples_visited: int

    def __bool__(self):
        return self.included


class RightDivisorIndex:
    """For each letter a and element x in S^1, the set x a^-1 in S^1.

    x a^-1 = { p : p h(a) = x }, where the identity contributes h(a) a^-1
    containing 1.
    """

    def __init__(self, morphism: Morphism):
        sg = morphism.semigroup
        n = sg.size
        self.one = n
        self.by_letter = []
        for x in morphism.images:
            divs = [[] for _ in range(n + 1)]
            col = sg.table[:, x]
            for p in range(n):
                divs[int(col[p])].append(p)
            divs[x].append(self.one)
            self.by_letter.append(divs)


def inclusion_test(morphism: Morphism, p_set: PairSet,
                   q_set: PairSet) -> InclusionResult:
    """Decide [P] subseteq [Q]; on failure produce a witness word."""
    sg = morphism.semigroup
    n = sg.size
    one = n
    lp = linked_pairs(sg)
    for ps in (p_set, q_set):
        if not ps.issubset(lp):
            raise NotLinkedPair("pair set contains a non-linked pair")
    mul = MonoidView(sg).mul
    qbits = q_set.bits
    seen = np.zeros((n, n + 1, n + 1), dtype=bool)
    divisors = RightDivisorIndex(morphism)
    images = morphism.images
    letters = morphism.alphabet
    stack = []
    parent = {}  # (s, x, y) -> (letter, successor triple) for the v-word
    for (s, e) in p_set.pairs():
        if not seen[s, e, one]:
            seen[s, e, one] = True
            stack.append((s, e, one))
            parent[(s, e, one)] = None
    visited = 0

    while stack:
        s, x, y = stack.pop()
        visited += 1
        if x == one:
            u = morphism.rep_word(s)
            v = []
            node = (s, x, y)
            while parent[node] is not None:
                letter, nxt = parent[node]
                v.append(letter)
                node = nxt
            return InclusionResult(False, UPWord(tuple(u), tuple(v)), visited)
        sx = mul(s, x)
        yx = mul(y, x)
        yxyx = mul(yx, yx)
        # both components lie in S here except possibly yxyx on the initial
        # probes where y = 1 and yxyx = x = e
        if sx != one and yxyx != one and qbits[sx, yxyx]:
            continue
        for ai, a in enumerate(letters):
            ha = images[ai]
            hay = mul(ha, y)
            for p in divisors.by_letter[ai][x]:
                if not seen[s, p, hay]:
                    seen[s, p, hay] = True
                    triple = (s, p, hay)
                    parent[triple] = (a, (s, mul(p, ha), y))
                    stack.append(triple)
    return InclusionResult(True, None, visited)


def is_strong(morphism: Morphism, accepting: PairSet) -> InclusionResult:
    """P strongly recognizes [P] iff [closure(P)] subseteq [P]."""
    closed = close_under_conjugation(morphism, accepting)
    return inclusion_test(morphism, closed, accepting)


def included(r1: Recognizer, r2: Recognizer) -> InclusionResult:
    check_same_morphism(r1, r2)
    return inclusion_test(r1.morphism, r1.accepting, r2.accepting)


def equivalent(r1: Recognizer, r2: Recognizer):
    """Decide [P] = [Q]; returns (equal, witness in the difference or None)."""
    check_same_morphism(r1, r2)
    fwd = included(r1, r2)
    if not fwd.included:
        return False, fwd.witness
    bwd = included(r2, r1)
    if not bwd.included:
        return False, bwd.witness
    return True, None


def universal(rec: Recognizer) -> InclusionResult:
    """Decide [P] = A^omega (inclusion of the full linked-pair set)."""
    return inclusion_test(rec.morphism, linked_pairs(rec.morphism.semigroup),
                          rec.accepting)
