"""Syntactic morphisms: minimizing a strong recognizer.

Given a conjugation-closed accepting set P over h: A+ -> S, the maximal set
Q with [Q] = [P] is Q = {(s, t) : (s f, f) in P where f is the idempotent
power of t}.  Column t of Q is the column of the idempotent f, so Q is read
through its |E| idempotent columns, an |S| x |E| matrix, and never built
densely.  The syntactic congruence is the coarsest congruence refining
the relation that identifies elements with equal Q-rows and Q-columns:
the initial partition, one grouping of each element's packed Q-row and
Q-column, numbered by first occurrence.  The congruence is computed by
Moore rounds: each element's class is refined by the classes of its
products with every letter image on both sides, in one array pass per
round, until a round adds no class.  If two rounds have not settled,
Hopcroft's partition refinement with the smaller-half strategy computes
it from the initial partition instead.  The quotient morphism is the
syntactic morphism of [P].  ``read_off`` takes it off the input through
``Semigroup.quotient``, with no closure and no table fill, and the
quotient inherits the input's idempotents, idempotent powers and linked
pairs; a discrete partition returns the input morphism itself.  Renaming
letters (``mso._renamed``) is the same read-off, of the discrete
partition at the renamed letter images.  Only the adversarial fixture
below is closed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .buchi import weak_to_strong
from .conjugacy import is_conjugation_closed
from .errors import NotClosed
from .morphism import Morphism, PairSet, Recognizer
from .semigroup import Semigroup, close_generators, group_rows, preimages


# Moore rounds tried before falling back to Hopcroft: one refining round and
# one that proves stability settle every minimisation of the MSO compiler
_MOORE_ROUNDS = 2


def maximal_pair_set(morphism: Morphism, accepting: PairSet, *,
                     audit=False) -> np.ndarray:
    """The idempotent columns of the maximal Q in S x S with [Q] = [P].

    Returns the |S| x |E| bool array ``qe[s, j] = P[s e_j, e_j]`` over the
    idempotents e_j in increasing order; ``Q[s, t]`` is the column of the
    idempotent power of t.  P must be conjugation-closed.  Q agrees with P
    on the linked pairs, so only the rows and columns that seed
    minimisation need the pairs of Q outside them.  P is scattered into an
    |S| x |E| lookup first, which is gathered at the idempotent columns.
    """
    if audit and not is_conjugation_closed(morphism, accepting):
        raise NotClosed("accepting set is not closed under conjugation")
    sg = morphism.semigroup
    idem, cols = sg.idempotent_columns
    s, e = accepting.arrays()
    lookup = np.zeros((sg.size, len(idem)), dtype=bool)
    lookup[s, np.searchsorted(idem, e)] = True
    return lookup[cols, np.arange(len(idem))]


class RefinablePartition:
    """Partition of {0..n-1} supporting Split with the smaller-half rule.

    Elements of one class occupy a contiguous segment of ``elems``.  ``Split``
    separates each touched class into members/non-members of X; classes
    currently on the worklist are replaced by both halves, otherwise the
    smaller half is enqueued.
    """

    def __init__(self, class_of):
        class_of = np.asarray(class_of)
        n = len(class_of)
        order = np.argsort(class_of, kind="stable")
        self.elems = order.astype(np.int64)
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[self.elems] = np.arange(n)
        self.class_of = class_of.astype(np.int64)
        self.first = []
        self.size = []
        start = 0
        labels = class_of[self.elems]
        for i in range(1, n + 1):
            if i == n or labels[i] != labels[i - 1]:
                cid = len(self.first)
                self.first.append(start)
                self.size.append(i - start)
                self.class_of[self.elems[start:i]] = cid
                start = i
        self.marked = [0] * len(self.first)  # marked prefix length per class
        self.in_worklist = [False] * len(self.first)
        self.worklist = []
        self.split_work = 0
        # enqueue everything except one largest class: stability against
        # all other classes implies stability against the remaining one,
        # and every enqueued set has at most n/2 elements, which keeps the
        # total Split work within 2|A| n log n
        if len(self.first) > 1:
            skip = max(range(len(self.first)), key=lambda c: self.size[c])
            for cid in range(len(self.first)):
                if cid != skip:
                    self._enqueue(cid)

    def _enqueue(self, cid):
        if not self.in_worklist[cid]:
            self.in_worklist[cid] = True
            self.worklist.append(cid)

    def pop(self):
        cid = self.worklist.pop()
        self.in_worklist[cid] = False
        return cid

    def members(self, cid):
        f = self.first[cid]
        return self.elems[f:f + self.size[cid]]

    def split(self, xs):
        """Refine every class against the element set ``xs``."""
        self.split_work += len(xs)
        touched = []
        for x in xs:
            cid = int(self.class_of[x])
            m = self.marked[cid]
            p = int(self.pos[x])
            if p < self.first[cid] + m:
                continue  # already marked
            if m == 0:
                touched.append(cid)
            # swap x into the marked prefix
            tgt = self.first[cid] + m
            other = self.elems[tgt]
            self.elems[tgt], self.elems[p] = x, other
            self.pos[x], self.pos[other] = tgt, p
            self.marked[cid] = m + 1
        for cid in touched:
            m = self.marked[cid]
            self.marked[cid] = 0
            if m == self.size[cid]:
                continue  # no proper split
            # carve the marked prefix off as a new class
            new = len(self.first)
            self.first.append(self.first[cid])
            self.size.append(m)
            self.first[cid] += m
            self.size[cid] -= m
            self.class_of[self.elems[self.first[new]:self.first[new] + m]] = new
            self.marked.append(0)
            self.in_worklist.append(False)
            if self.in_worklist[cid]:
                self._enqueue(new)
            else:
                smaller = new if m <= self.size[cid] else cid
                self._enqueue(smaller)


@dataclass
class SyntacticResult:
    recognizer: Recognizer        # minimized, mode 'strong'
    projection: np.ndarray        # old element -> new element
    split_work: int               # elements touched by Hopcroft's Splits;
                                  # 0 when the Moore rounds settle


def initial_partition(semigroup: Semigroup, qe: np.ndarray):
    """Class ids of the row/column-signature relation of Q, read from its
    idempotent columns ``qe`` (see ``maximal_pair_set``) and numbered by
    first occurrence.

    Each element's signature is its packed Q-row followed by the packed
    Q-column of its idempotent power, which is its own column of Q; the
    signatures are grouped once.  The gathered columns are the one
    |S|^2 / 8 temporary."""
    rows = np.packbits(qe, axis=1)
    cols = np.packbits(qe, axis=0).T
    col = np.cumsum(semigroup.idempotents) - 1
    width = rows.shape[1]
    signature = np.empty((len(qe), width + cols.shape[1]), dtype=np.uint8)
    signature[:, :width] = rows
    signature[:, width:] = cols[col[semigroup.idempotent_powers]]
    return group_rows(signature)[0]


def read_off(rec: Recognizer, labels, images):
    """``(recognizer, projection)``: rec read off onto the quotient by the
    congruence ``labels``, with the classes of ``images``, element ids one
    per letter, as letter images (``Semigroup.quotient``).

    The accepting pairs map through the projection.  Minimising reads off
    the syntactic congruence at the input's own images; renaming letters
    reads off the discrete partition at the renamed ones.  When neither
    the semigroup nor the images change, the input morphism is kept.
    """
    h = rec.morphism
    quotient, projection = h.semigroup.quotient(labels, images)
    if quotient is h.semigroup and tuple(images) == h.images:
        morphism = h
    else:
        morphism = Morphism(h.alphabet, quotient,
                            projection[list(images)].tolist())
    proj = projection.tolist()
    accepting = PairSet((proj[s], proj[e]) for s, e in rec.accepting)
    return Recognizer(morphism, accepting, "strong"), projection


def _moore(right, left, class_of, rounds):
    """Refine ``class_of`` by at most ``rounds`` Moore rounds.

    ``right[s, j] = s a_j`` and ``left[j, s] = a_j s`` for the letter images
    a_j.  A round groups the rows (class of s, classes of s a and of a s
    for each letter image a).  A round that adds no class proves the
    partition stable under every generator on both sides, that is a
    congruence, and then the coarsest one below the partition it started
    from.  Returns ``(class_of, stable)``.
    """
    count = int(class_of.max()) + 1
    k = right.shape[1]
    rows = np.empty((len(class_of), 1 + 2 * k), dtype=np.int32)
    for _ in range(rounds):
        rows[:, 0] = class_of
        rows[:, 1:1 + k] = class_of[right]
        rows[:, 1 + k:] = class_of[left].T
        class_of, new_count = group_rows(rows)
        if new_count == count:
            return class_of, True
        count = new_count
    return class_of, False


def _hopcroft(right, left, initial):
    """The coarsest congruence below ``initial`` by Hopcroft's refinement,
    on the rows that ``_moore`` takes.

    Returns ``(class_of, split_work)``, where ``split_work`` counts the
    elements touched by Splits: at most 2 |A'| n log2 n for the |A'| letter
    images.
    """
    n = len(initial)
    part = RefinablePartition(initial)
    # preimage lists x h(a)^-1 and h(a)^-1 x for each letter image h(a)
    pres = [preimages(side, n) for j in range(len(left))
            for side in (right[:, j], left[j])]
    while part.worklist:
        # a list, not the view: the splits reorder the class segments
        members = part.members(part.pop()).tolist()
        for order, start in pres:
            part.split([s for t in members
                        for s in order[start[t]:start[t + 1]]])
    return part.class_of, part.split_work


def syntactic_morphism(rec: Recognizer, *, audit=False) -> SyntacticResult:
    """Minimize a recognizer onto the syntactic morphism of [P].

    P must be conjugation-closed, as for ``maximal_pair_set``: strong
    recognizers are, and ``minimize`` upgrades weak ones first.  With
    ``audit`` a non-closed P raises ``NotClosed``.
    """
    morphism = rec.morphism
    sg = morphism.semigroup
    letters = sorted(set(morphism.images))
    right, left = sg.right_rows(letters), sg.left_rows(letters)
    initial = initial_partition(
        sg, maximal_pair_set(morphism, rec.accepting, audit=audit))
    class_of, stable = _moore(right, left, initial, _MOORE_ROUNDS)
    split_work = 0
    if not stable:
        # from the initial partition, so that the split work does not
        # depend on the rounds tried first
        class_of, split_work = _hopcroft(right, left, initial)
    # the quotient numbered by BFS from the letter images, so that equal
    # inputs yield identical element numbering; discrete on an input so
    # numbered, it is the input itself
    result, projection = read_off(rec, class_of, morphism.images)
    if audit:
        # congruence by letter images: pi(s a) = pi(s) pi(a) makes pi(s w)
        # the walk of w from pi(s), and pi(a s) = pi(a) pi(s) makes pi(s t)
        # depend on pi(t) only, so together pi(s t) = pi(s) pi(t).  The
        # quotient of an associative table by a congruence is associative,
        # so this also vouches for the table read off through the
        # representatives
        quotient = result.morphism.semigroup
        pa = projection[letters]
        if not (np.array_equal(projection[right],
                               quotient.right_rows(pa)[projection])
                and np.array_equal(projection[left],
                                   quotient.left_rows(pa)[:, projection])):
            raise NotClosed("refinement did not produce a congruence")
        if not is_conjugation_closed(result.morphism, result.accepting):
            raise NotClosed("projected accepting set is not closed")
    return SyntacticResult(result, projection, split_work)


def minimize(rec: Recognizer, *, audit=False) -> Recognizer:
    """The syntactic recognizer of [P]; language-preserving, because weak
    input is made strong (conjugation-closed) by ``weak_to_strong`` first."""
    return syntactic_morphism(weak_to_strong(rec), audit=audit).recognizer


# -- adversarial fixture ------------------------------------------------------
#
# A worst-case family for the conjugacy and refinement algorithms: a
# two-generator semigroup T(n) of size n^2 2^n + n whose linked pairs split
# into exponentially many classes, doubled into a four-letter morphism with
# n^2 2^n-scale element count and 2^(n-1) pairwise non-conjugate linked pairs
# in the designated set.


def _t_multiply(n):
    """Product on T(n) = Z_n  union  Z_n x 2^Z_n x Z_n (subsets as bitmasks)."""

    def mul(u, v):
        if isinstance(u, int) and isinstance(v, int):
            return (u + v) % n
        if isinstance(u, int):
            i, x, j = v
            return ((u + i) % n, x, j)
        if isinstance(v, int):
            i, x, j = u
            return (i, x, (j + v) % n)
        i, x, j = u
        k, y, m = v
        return (i, x | (1 << ((j + k) % n)) | y, m)

    return mul


def t_semigroup_values(n):
    """Generator values of T(n): the integer 1 and the triple (0, {}, 0)."""
    return [1, (0, 0, 0)]


def adversarial_fixture(n):
    """The four-letter morphism and designated pair set for parameter n.

    Elements are pairs (u, v) where u is in T-bar^1 and v in T^1, at most one
    of them trivial; identities are encoded as None.  The designated pairs
    ((t-bar, 1), (1-bar, e)) for e = (0, X, 0) with 0 in X are linked and
    pairwise non-conjugate.
    """
    tmul = _t_multiply(n)

    def smul(u, v):
        ub, up = u
        vb, vp = v
        if ub is None and vb is None:
            return (None, tmul(up, vp))
        # otherwise branch: bar components multiply, plain parts are dropped
        if ub is None:
            bar = vb
        elif vb is None:
            bar = ub
        else:
            bar = tmul(ub, vb)
        return (bar, None)

    values = [(None, 1), (None, (0, 0, 0)), (1, None), ((0, 0, 0), None)]
    alphabet = ("a", "b", "A", "B")
    sg, seeds, elements = close_generators(
        values, lambda x: [smul(x, g) for g in values])
    index = {v: i for i, v in enumerate(elements)}
    pairs = []
    half = [x for x in range(1 << n) if x & 1]  # subsets containing 0
    for i, v in enumerate(elements):
        if v[1] is None:  # (t-bar, 1)
            for x in half:
                e = index.get((None, (0, x, 0)))
                if e is not None:
                    pairs.append((i, e))
    p_set = PairSet.from_pairs(sg.size, sorted(pairs))
    fixture_morphism = Morphism(alphabet, sg, seeds)
    return fixture_morphism, p_set
