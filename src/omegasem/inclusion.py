"""Deciding [P] subseteq [Q] for two pair sets over one morphism.

When Q is conjugation-closed, that is strong, the decision is P subseteq Q
(``subset_test``).  A closed Q gives one verdict on every factorisation of
a word, so a pair (s, e) of P outside Q puts every word of h^-1(s)
(h^-1(e))^omega outside [Q]; the witness is ``rep_word(s) rep_word(e)^omega``
for the first such pair in row-major order.  This is the sense in which a
strong morphism is a deterministic model.  Whether Q is closed is the
caller's promise: a ``"strong"`` recognizer makes it (``member`` trusts it,
and the recognizer loader checks it), and ``langops.pullback`` keeps it.

For a weak Q, ``inclusion_test`` searches triples (s, x, y) in
S x S^1 x S^1, starting from (s, e, 1) for (s, e) in P and peeling letters
off x from the right.  If a triple (s, 1, y) is reached whose Q-check
failed along the way, the word u v^omega with u in h^-1(s) and v read off
the parent chain witnesses non-inclusion.  The identity of S^1 is the
sentinel ``None`` and is never multiplied: 1 x = x, and x h(a)^-1 (the p
in S^1 with p h(a) = x) is a preimage list of one right-row gather,
followed by 1 when x = h(a).  At most |S| (|S|+1)^2 triples are ever
visited; the visited set holds only those reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conjugacy import close_under_conjugation
from .errors import NotLinkedPair
from .morphism import Morphism, PairSet, Recognizer, UPWord, linked_pairs
from .semigroup import preimages


@dataclass
class InclusionResult:
    included: bool
    witness: Optional[UPWord]  # in [P] \ [Q] when not included
    triples_visited: int

    def __bool__(self):
        return self.included


def inclusion_test(morphism: Morphism, p_set: PairSet,
                   q_set: PairSet) -> InclusionResult:
    """Decide [P] subseteq [Q]; on failure produce a witness word."""
    sg = morphism.semigroup
    n = sg.size
    lp = linked_pairs(sg)
    for ps in (p_set, q_set):
        if not ps.issubset(lp):
            raise NotLinkedPair("pair set contains a non-linked pair")
    mul = sg.mul
    cols = sg.right_rows(list(morphism.images))
    # x h(a)^-1 = {p in S^1 : p h(a) = x}, the identity last in h(a) h(a)^-1
    letters = []
    for j, (a, ha) in enumerate(zip(morphism.alphabet, morphism.images)):
        order, start = preimages(cols[:, j], n)
        pre = [order[start[x]:start[x + 1]] for x in range(n)]
        pre[ha].append(None)
        letters.append((a, ha, pre))
    stack = []
    parent = {}  # visited (s, x, y) -> (letter, successor) for the v-word
    for (s, e) in p_set.pairs():
        if (s, e, None) not in parent:
            stack.append((s, e, None))
            parent[(s, e, None)] = None
    visited = 0

    while stack:
        node = stack.pop()
        s, x, y = node
        visited += 1
        if x is None:
            u = morphism.rep_word(s)
            v = []
            while parent[node] is not None:
                letter, node = parent[node]
                v.append(letter)
            return InclusionResult(False, UPWord(tuple(u), tuple(v)), visited)
        yx = x if y is None else mul(y, x)
        # the identity of S^1 is in no pair of Q
        if (mul(s, x), mul(yx, yx)) in q_set:
            continue
        for a, ha, pre in letters:
            hay = ha if y is None else mul(ha, y)
            for p in pre[x]:
                triple = (s, p, hay)
                if triple not in parent:
                    parent[triple] = (a, node)  # p h(a) = x
                    stack.append(triple)
    return InclusionResult(True, None, visited)


def subset_test(morphism: Morphism, p_set: PairSet,
                q_set: PairSet) -> InclusionResult:
    """Decide [P] subseteq [Q] for a conjugation-closed Q: P subseteq Q.

    No triples are searched.  On failure the witness is
    ``rep_word(s) rep_word(e)^omega`` for the first pair (s, e) of P - Q
    in row-major order.
    """
    diff = p_set - q_set
    if not diff:
        return InclusionResult(True, None, 0)
    s, e = min(diff)
    return InclusionResult(False, UPWord(morphism.rep_word(s),
                                         morphism.rep_word(e)), 0)


def is_strong(morphism: Morphism, accepting: PairSet) -> InclusionResult:
    """P strongly recognizes [P] iff [closure(P)] subseteq [P].

    A closure that adds no pair settles it with no search.
    """
    closed = close_under_conjugation(morphism, accepting)
    if closed == accepting:
        return InclusionResult(True, None, 0)
    return inclusion_test(morphism, closed, accepting)


def decide_inclusion(morphism: Morphism, p_set: PairSet, q_set: PairSet,
                     q_mode: str) -> InclusionResult:
    """Decide [P] subseteq [Q], where ``q_mode`` is the mode of the
    recognizer Q comes from: a subset check when it is ``"strong"``, else
    a triple search."""
    test = subset_test if q_mode == "strong" else inclusion_test
    return test(morphism, p_set, q_set)


def universal(rec: Recognizer) -> InclusionResult:
    """Decide [P] = A^omega, that is [linked pairs] subseteq [P].

    A strong P is universal iff it holds every linked pair.
    """
    h = rec.morphism
    return decide_inclusion(h, linked_pairs(h.semigroup), rec.accepting,
                            rec.mode)
