"""Conjugacy classes of linked pairs.

Two linked pairs (s, e) and (t, f) are conjugate when there are x, y in S
with s x = t, x y = e and y x = f.  Conjugacy is the finest left-stable
equivalence on linked pairs that is coarser than the relation
(s, e) ~ (t, f) iff e L s R t L f, which lets it be computed with a
union-find and a worklist of merged classes instead of by the definition.
The classes of that relation, the approximation classes, seed the
union-find: one merged class per R-class of the pairs (s, e) with e L s,
every other pair alone.

The relation involves the semigroup alone, not the letters that map onto
it, so the partition is semigroup data: ``Semigroup.conjugacy`` computes
it once per semigroup and caches it, read-only, reading Green's R- and
L-classes once each, from packed bitmaps built in row blocks.  This
module reads it.
"""

from __future__ import annotations

from . import semigroup
from .errors import NotLinkedPair
from .morphism import Morphism, PairSet, linked_pairs

# re-exported from ``semigroup``, where the partition is computed
ConjugacyResult = semigroup.ConjugacyResult
UnionFind = semigroup.UnionFind


def conjugacy_classes(morphism: Morphism) -> ConjugacyResult:
    """Partition the linked pairs of a morphism into conjugacy classes:
    the cached ``morphism.semigroup.conjugacy``, shared by every morphism
    onto that semigroup."""
    return morphism.semigroup.conjugacy


def close_under_conjugation(morphism: Morphism, accepting: PairSet) -> PairSet:
    """The smallest conjugation-closed superset of ``accepting``:
    ``accepting`` itself when it is closed, that is when the classes it
    meets hold no more pairs than it does."""
    if not accepting.issubset(linked_pairs(morphism.semigroup)):
        raise NotLinkedPair("accepting set contains a non-linked pair")
    result = conjugacy_classes(morphism)
    hit = [result.classes[cid] for cid in
           {result.class_of[p] for p in accepting}]
    if sum(map(len, hit)) == len(accepting):
        return accepting
    return PairSet(p for cls in hit for p in cls)


def is_conjugation_closed(morphism: Morphism, accepting: PairSet) -> bool:
    return close_under_conjugation(morphism, accepting) == accepting
