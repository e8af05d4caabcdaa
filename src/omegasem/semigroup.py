"""Finite semigroups with dense multiplication tables.

Elements are integer indices into a full |S| x |S| table.  Every semigroup
the library builds comes out of one enumeration (Froidure and Pin's):
``close_generators`` closes generator values breadth-first, one element
times all generators per call, numbers elements in discovery order and
records the element and generator each came from.
``Semigroup.from_right_cayley`` fills the table along that tree, so equal
inputs always yield identical tables.  No semigroup is enumerated twice:
``Semigroup.quotient`` reads a quotient's table, rows and tree off the
semigroup it comes from, whose discovery order numbers the classes by
first occurrence as the enumeration would.  Renaming letters is read off
the same way, as the quotient by the discrete partition numbered from the
renamed letter images.  Table, rows and tree are read-only on every
semigroup; a table from outside is copied first.

The table is this module's secret.  Readers elsewhere name the data they
need: ``right_cayley`` (stored), ``right_rows(xs)`` (s x) and
``left_rows(xs)`` (x s) at the letter images, ``idempotent_columns``
(s e) and ``mul``.  No copy of the table is derived, not even for the
monoid S^1: readers that need its identity keep it as a sentinel they
never multiply.  Only the full form of ``formats.dumps_recognizer``
touches the table itself.

Checks sit where a table comes from outside: ``Semigroup(table,
generators)`` checks that entries and generators are integers in range
before it narrows them to int32, that the generators generate it
(``cayley_bfs``), and associativity by Light's test; the recognizer loader
does the same for ``table: generated`` rows.  One budget bounds every
table: ``check_table_budget`` refuses an n x n int32 table larger than the
memory this process may use (the physical memory, or a lower
``RLIMIT_AS``); the full table is checked before it is allocated, and
``close_generators`` stops before an element whose table it would refuse.

Derived data is computed once, the first time it is asked for, and cached
on the semigroup: the idempotents, their columns and idempotent powers as
read-only arrays, the linked pairs as a ``PairSet``, an immutable set of
(s, e) pairs, and their conjugacy classes as a frozen ``ConjugacyResult``.
A quotient inherits the idempotents, idempotent powers and linked pairs
that its input has cached, mapped through the projection, so minimising
and renaming compute none of them again.  Whether a semigroup is numbered
in discovery order is recorded by the builders that number it so.
Conjugacy is a relation on the semigroup alone, so the partition is
computed once per semigroup, whatever letters map onto it.  It reads
Green's R- and L-classes once each; ``green_classes`` keeps no copy, and
builds its ideal bitmap packed, ``_LIGHT_BLOCK`` entries at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import resource
from dataclasses import dataclass
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Mapping, Sequence, Tuple

import numpy as np

from .errors import ClosureCapExceeded, NonAssociative


def _memory_limit():
    """Bytes this process may use: the physical memory, lowered to the soft
    ``RLIMIT_AS`` limit when that is finite."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


# Read once, so that checking a table against it costs one comparison.
_MEMORY_LIMIT = _memory_limit()
# entries per temporary: Light's test, Green's bitmaps, quotient tables
_LIGHT_BLOCK = 1 << 20


def check_ids(values, n, what):
    """``values`` as a tuple of ints, each checked before it is narrowed:
    ``ValueError`` unless it is an integer in range(n)."""
    try:
        ids = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError("%s must be integers" % what) from None
    if ids and not 0 <= min(ids) <= max(ids) < n:
        raise ValueError("%s out of range" % what)
    return ids


class PairSet(frozenset):
    """An immutable set of element pairs (s, e), as Python ints.

    ``|``, ``&`` and ``-`` return pair sets, and ``PairSet()`` is the empty
    set.  ``from_pairs(n, pairs)`` takes the semigroup size n, which the
    set does not need, so that callers may state it.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, n, pairs):
        return cls((int(s), int(e)) for s, e in pairs)

    def __or__(self, other):
        return PairSet(frozenset.__or__(self, other))

    def __and__(self, other):
        return PairSet(frozenset.__and__(self, other))

    def __sub__(self, other):
        return PairSet(frozenset.__sub__(self, other))

    def pairs(self):
        """Pairs in row-major order (deterministic)."""
        return sorted(self)

    def arrays(self):
        """``(s, e)``: the pairs as two int64 arrays, in no fixed order."""
        flat = np.fromiter(itertools.chain.from_iterable(self),
                           dtype=np.int64, count=2 * len(self))
        return flat[0::2], flat[1::2]


class Semigroup:
    """A finite semigroup given by a full multiplication table.

    ``table[s, t]`` is the product ``s * t``.  ``generators`` lists the
    distinct generator elements in first-seen order; every element is a
    product of generators, and ``right_cayley[s, j] = s * generators[j]``
    holds their right Cayley rows.  ``parent`` and ``parent_gen`` record the
    breadth-first decompositions ``t = parent[t] * generators[parent_gen[t]]``
    (-1 for generators), which give shortest representative words.

    The constructor checks an outside table: entries in range, every element
    generated, and associativity.  It drops repeated generators.  Semigroups
    built by the library come from ``close_generators`` through
    ``from_right_cayley``, which trusts its rows, or from ``quotient``.
    """

    def __init__(self, table, generators):
        table = np.asarray(table)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        # checked before the int32 copy, which would wrap or truncate
        if n and (table.dtype.kind not in "iu" or table.min() < 0
                  or table.max() >= n):
            raise ValueError("table entries must be integers in range(%d)"
                             % n)
        table = table.astype(np.int32)  # a copy: it is frozen below
        generators = list(dict.fromkeys(check_ids(generators, n, "generators")))
        rc = table[:, generators]
        order, parent, parent_gen = cayley_bfs(rc, generators)
        if len(order) != n:
            raise ValueError("elements unreachable from generators")
        self._set(table, rc, generators, parent, parent_gen)
        self.check_associativity()

    def _set(self, table, rc, generators, parent, parent_gen):
        self.table = _frozen(table)
        self.right_cayley = _frozen(rc)
        self.generators = tuple(int(g) for g in generators)
        self.parent = _frozen(np.asarray(parent, dtype=np.int32))
        self.parent_gen = _frozen(np.asarray(parent_gen, dtype=np.int32))

    @classmethod
    def from_right_cayley(cls, rc, generators, tree):
        """The semigroup with right-Cayley rows ``rc[s, j] = s * generators[j]``.

        ``tree = (order, parent, parent_gen)`` spans the right Cayley graph
        from the distinct ``generators``, as ``close_generators`` records it
        or ``cayley_bfs`` finds it: ``t = parent[t] *
        generators[parent_gen[t]]``, and ``order`` lists each element after
        its parent.  Element numbering is kept.  Rows and tree are trusted:
        the result is associative only if the rows are the right Cayley
        graph of a semigroup.  Table, rows and tree are read-only.
        """
        rc = np.asarray(rc, dtype=np.int32)
        _, parent, parent_gen = tree
        sg = cls.__new__(cls)
        sg._set(_fill_table(rc, generators, *tree), rc, generators, parent,
                parent_gen)
        return sg

    @cached_property
    def discovery_ordered(self):
        """Whether elements are numbered in the order in which the
        breadth-first search from the generators discovers them, as
        ``close_generators`` numbers them: the generators are 0..k-1 and
        ``(parent[t], parent_gen[t])`` strictly increases for t >= k.

        ``close_generators`` and ``quotient`` number their semigroups so
        and record it as they build them.  For a semigroup from outside
        (``Semigroup(table, generators)``, a loaded file) it is read from
        the stored tree, which is a first-discovery tree (``cayley_bfs``),
        the first time it is asked for.
        """
        k = len(self.generators)
        if self.generators != tuple(range(k)):
            return False
        key = self.parent[k:].astype(np.int64) * k + self.parent_gen[k:]
        return bool((key[1:] > key[:-1]).all())

    def quotient(self, labels, generators):
        """``(q, class_of)``: the quotient by the congruence whose classes
        ``labels`` names by non-negative integers, and the projection onto
        it (``class_of[s]`` is the element of q that s maps to).

        q is generated by the classes of ``generators``, element ids that
        generate this semigroup, and numbered as ``close_generators``
        numbers it: by breadth-first search from them.  Labels are first
        renumbered by first occurrence, unless they already are.  A class
        is multiplied through its first element, its representative, which
        a congruence allows: the table is ``class_of[table[reps][:,
        reps]]``, gathered in blocks of rows of at most ``_LIGHT_BLOCK``
        entries after the budget check, and the generators' right Cayley
        rows are its first k' columns.  Nothing is closed and no table is
        filled.

        When this semigroup is ``discovery_ordered`` from ``generators``,
        the first-occurrence numbering is the breadth-first one, and the
        tree is the input's at the representatives, mapped through
        ``class_of``.  A step (s, j) multiplies s by generator j, and the
        input's search takes its steps in order of s, then of j:
        - the classes of the generators 0..k-1 come first, in their order;
        - the first step of the input's search that lands in another class
          C is (parent[r], parent_gen[r]) for C's first element r: no
          earlier step reached C, so this one discovers an element of C,
          and elements are numbered in the order they are discovered;
        - that step starts at a representative and takes the first
          generator of its class, since the same step from an earlier
          element of its class, or with an earlier generator of the same
          class, would come earlier and land in C too;
        - such steps map one to one and in order onto the quotient search's
          steps, as long as that search takes classes in order of first
          occurrence; by induction along it, it does, and it first reaches
          each C by the image of (parent[r], parent_gen[r]).
        A discrete partition then returns this semigroup itself.  Any other
        input has its classes renumbered by ``cayley_bfs`` over their
        generator rows before the same read-off; so has a renaming of
        letters, the discrete partition with the renamed letter images as
        ``generators``, unless their distinct ids keep this semigroup's
        order.  Either way q is numbered in discovery order, and records
        so (``discovery_ordered``).

        q inherits the idempotents, idempotent powers and linked pairs
        that this semigroup has cached, mapped through ``class_of``, and
        reads no table for them.  The projection is a morphism onto q, so
        it maps idempotents to idempotents and linked pairs to linked
        pairs, and:
        - [s]^omega = [s^omega]: the image of s^omega is an idempotent
          power of [s], and there is only one;
        - a class is idempotent iff it holds an idempotent: if [s] is,
          then s^omega lies in [s^omega] = [s]^omega = [s];
        - every linked pair of q is an image: if ([s], [e]) is linked and
          f = e^omega, then [f] = [e] and (s f, f) is linked, since
          s f f = s f, with [s f] = [s][e] = [s].
        """
        class_of = np.asarray(labels, dtype=np.int64)
        top = np.maximum.accumulate(class_of)
        classes = np.arange(int(top[-1]) + 1)
        reps = top.searchsorted(classes)  # the first elements, if so numbered
        if (class_of[reps] != classes).any():
            _, reps, class_of = np.unique(class_of, return_index=True,
                                          return_inverse=True)
            order = reps.argsort()
            reps = reps[order]
            class_of = order.argsort()[class_of]
        m = len(reps)
        gens = list(dict.fromkeys(generators))
        if self.discovery_ordered and tuple(gens) == self.generators:
            if m == self.size:
                return self, class_of
            k = int(class_of[:len(gens)].max()) + 1
            parent = class_of[self.parent[reps]]
            parent_gen = class_of[self.parent_gen[reps]]
            parent[:k] = parent_gen[:k] = -1
        else:
            qgens = list(dict.fromkeys(class_of[gens].tolist()))
            k = len(qgens)
            rc = class_of[self.right_rows(reps[qgens])[reps]]
            order, parent, parent_gen = cayley_bfs(rc, qgens)
            if len(order) != m:
                raise ValueError("classes unreachable from generators")
            renum = np.empty(m, dtype=np.int64)
            renum[order] = np.arange(m)
            class_of, reps = renum[class_of], reps[order]
            parent = np.asarray(parent)[order]
            parent[k:] = renum[parent[k:]]
            parent_gen = np.asarray(parent_gen)[order]
        check_table_budget(m)
        table = np.empty((m, m), dtype=np.int32)
        ids = class_of.astype(np.int32)
        rows = max(1, _LIGHT_BLOCK // self.size)
        for x0 in range(0, m, rows):
            table[x0:x0 + rows] = ids.take(self.table.take(
                reps[x0:x0 + rows], axis=0).take(reps, axis=1))
        q = Semigroup.__new__(Semigroup)
        q._set(table, table[:, :k].copy(), range(k), parent, parent_gen)
        q.discovery_ordered = True
        self._inherit(q, class_of, reps)
        return q, class_of

    def _inherit(self, q, class_of, reps):
        """Cache on the quotient q, projected by ``class_of`` with class
        representatives ``reps``, the images of the idempotents,
        idempotent powers and linked pairs that this semigroup has cached
        (see ``quotient``).  Nothing is computed that was not."""
        known = self.__dict__
        if "idempotents" in known:
            idem = np.zeros(q.size, dtype=bool)
            idem[class_of[known["idempotents"]]] = True
            q.idempotents = _frozen(idem)
        if "idempotent_powers" in known:
            q.idempotent_powers = _frozen(class_of[
                known["idempotent_powers"][reps]].astype(np.int32))
        if "linked" in known:
            proj = class_of.tolist()
            q.linked = PairSet((proj[s], proj[e]) for s, e in known["linked"])

    def check_associativity(self):
        """Raise ``NonAssociative`` unless the table is associative.

        Light's test: ``(x g) y = x (g y)`` for every generator g.  The
        elements a with ``(x a) y = x (a y)`` for all x, y are closed under
        products, so once every element is generated this is complete.
        Costs O(|S|^2 |generators|), in row blocks of ``_LIGHT_BLOCK``
        entries, so the table stays the only |S|^2 array.
        """
        t = self.table
        rows = max(1, _LIGHT_BLOCK // max(1, self.size))
        for g in self.generators:
            for x0 in range(0, self.size, rows):
                block = t[x0:x0 + rows]
                left = t.take(block[:, g], axis=0)  # (x g) y
                right = block.take(t[g], axis=1)    # x (g y)
                if not (left == right).all():
                    x, y = np.argwhere(left != right)[0]
                    raise NonAssociative("(%d * %d) * %d != %d * (%d * %d)"
                                         % (x0 + x, g, y, x0 + x, g, y))

    # -- basic queries -------------------------------------------------------

    @property
    def size(self):
        return self.table.shape[0]

    def mul(self, s, t):
        return self.table.item(s, t)

    def right_rows(self, xs):
        """``right_rows(xs)[s, j] = s * xs[j]``: one column per element of
        the sequence ``xs``."""
        return self.table.take(xs, axis=1)

    def left_rows(self, xs):
        """``left_rows(xs)[j, s] = xs[j] * s``: one row per element of the
        sequence ``xs``."""
        return self.table.take(xs, axis=0)

    def word_of(self, s):
        """A representative word for ``s``, as a tuple of generator positions."""
        out = []
        while self.parent[s] >= 0:
            out.append(int(self.parent_gen[s]))
            s = int(self.parent[s])
        out.append(self.generators.index(s))
        out.reverse()
        return tuple(out)

    @cached_property
    def idempotents(self):
        """Boolean mask of idempotent elements."""
        return _frozen(self.table.diagonal() == np.arange(self.size))

    @cached_property
    def idempotent_columns(self):
        """``(idem, cols)``: the idempotents in increasing order and their
        columns ``cols[s, j] = s * idem[j]``, read-only."""
        idem = np.flatnonzero(self.idempotents)
        return _frozen(idem), _frozen(self.right_rows(idem))

    @cached_property
    def linked(self):
        """The linked pairs (s, e): e * e = e and s * e = s, read from the
        idempotent columns."""
        idem, cols = self.idempotent_columns
        s, j = np.nonzero(cols == np.arange(self.size)[:, None])
        return PairSet(zip(s.tolist(), idem[j].tolist()))

    @cached_property
    def idempotent_powers(self):
        """``e[s]``: the idempotent power of s, the one idempotent among
        s, s^2, s^3, ...

        All elements step through their powers together; an element drops
        out as soon as its current power is idempotent.
        """
        idem = self.idempotents
        e = np.arange(self.size, dtype=np.int32)
        todo = np.nonzero(~idem)[0]
        while len(todo):
            e[todo] = self.table[e[todo], todo]
            todo = todo[~idem[e[todo]]]
        return _frozen(e)

    # -- conjugacy and Green's relations --------------------------------------

    @cached_property
    def conjugacy(self):
        """The conjugacy classes of the linked pairs, as a read-only
        ``ConjugacyResult``.

        Worklist algorithm.  The approximation classes seed the union-find:
        the pairs (s, e) with e L s, grouped by the R-class of s in
        first-occurrence order, are each merged into one class and put on
        the worklist; every other pair starts alone.  Each merged class is
        then propagated through left multiplication by the generators, and
        the classes its images meet are merged and put on the worklist in
        turn, until it is empty.  Class ids are numbered by first
        occurrence.
        """
        pairs = self.linked.pairs()
        pair_index = {p: i for i, p in enumerate(pairs)}
        uf = UnionFind(len(pairs))
        rcls = self.green_classes("R")[0].tolist()
        lcls = self.green_classes("L")[0].tolist()
        groups = {}
        for i, (s, e) in enumerate(pairs):
            if lcls[e] == lcls[s]:
                groups.setdefault(rcls[s], []).append(i)
        worklist = [ids for ids in groups.values() if len(ids) > 1]
        for ids in worklist:
            reduce(uf.union, ids)  # the groups are disjoint: all roots
        # left[j][s] = g_j s for the generators g_j, gathered only when
        # there is a class to propagate
        left = self.left_rows(sorted(self.generators)).tolist() \
            if worklist else []
        while worklist:
            group = worklist.pop()
            for row in left:
                roots = sorted({uf.find(pair_index[(row[pairs[i][0]],
                                                    pairs[i][1])])
                                for i in group})
                if len(roots) > 1:
                    reduce(uf.union, roots)
                    worklist.append(roots)
        # the counters freeze here: the canonical read-out below is
        # presentation, not part of the merging algorithm whose bounds are
        # under test
        counts = uf.find_calls, uf.union_calls

        # canonical class ids by first (row-major) occurrence
        root_cid = {}
        cids = [root_cid.setdefault(uf.find(i), len(root_cid))
                for i in range(len(pairs))]
        classes = [[] for _ in root_cid]
        for p, cid in zip(pairs, cids):
            classes[cid].append(p)
        return ConjugacyResult(
            tuple(pairs), MappingProxyType(dict(zip(pairs, cids))),
            tuple(map(tuple, classes)), *counts)

    def green_classes(self, kind):
        """Green's R- ('R') or L- ('L') classes, from the definition.

        s R t iff s S^1 = t S^1, and s L t iff S^1 s = S^1 t: elements are
        grouped by the bitmap of their principal right (left) ideal.  Returns
        ``(class_of, n_classes)`` where class ids are numbered by first
        occurrence in element order.  The bitmaps are built packed, in row
        blocks of ``_LIGHT_BLOCK`` entries, so they take |S|^2 / 8 bytes.
        """
        if kind not in ("R", "L"):
            raise ValueError("kind must be 'R' or 'L'")
        n = self.size
        table = self.table if kind == "R" else self.table.T
        rows = max(1, _LIGHT_BLOCK // max(1, n))
        packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        for x0 in range(0, n, rows):
            block = table[x0:x0 + rows]
            ideal = np.zeros(block.shape, dtype=bool)
            ideal[np.arange(len(block))[:, None], block] = True
            np.fill_diagonal(ideal[:, x0:], True)  # s lies in s S^1
            packed[x0:x0 + rows] = np.packbits(ideal, axis=1)
        class_of, count = group_rows(packed)
        return _frozen(class_of), count


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


@dataclass(frozen=True)
class ConjugacyResult:
    """The conjugacy partition of a semigroup's linked pairs.  It is cached
    on the semigroup and shared, so it is read-only throughout."""

    pairs: Tuple[Tuple[int, int], ...]     # linked pairs, row-major order
    class_of: Mapping[Tuple[int, int], int]  # pair -> class id (canonical)
    classes: Tuple[Tuple[Tuple[int, int], ...], ...]
    find_calls: int
    union_calls: int


def _frozen(a):
    """``a``, marked read-only so that cached arrays can be shared."""
    a.setflags(write=False)
    return a


def preimages(images, size):
    """The preimage lists of a map into ``range(size)``, in CSR form.

    Returns ``(order, start)`` as lists: the points that ``images`` maps to
    ``t`` are ``order[start[t]:start[t + 1]]``, in increasing order.
    """
    images = np.asarray(images)
    start = [0] + np.bincount(images, minlength=size).cumsum().tolist()
    return images.argsort(kind="stable").tolist(), start


def group_rows(packed):
    """Ids of identical rows of a C-contiguous 2-D array (a bit matrix
    packed to bytes, or rows of class ids), by first occurrence.  Returns
    ``(ids, count)``.  Hashing the rows' bytes beats lexicographic row
    sorting.
    """
    ids = np.empty(packed.shape[0], dtype=np.int64)
    seen = {}
    for i, row in enumerate(packed):
        ids[i] = seen.setdefault(row.tobytes(), len(seen))
    return ids, len(seen)


def cayley_bfs(rc, generators):
    """Breadth-first search of the right Cayley graph from the generators.

    ``rc[s, j] = s * generators[j]``.  Returns ``(order, parent, parent_gen)``
    as lists: the reached elements in discovery order, distinct generators
    first, and for each other reached element one decomposition
    ``t = parent[t] * generators[parent_gen[t]]``.  Generators and
    unreached elements have parent -1.
    """
    rows = rc.tolist()
    parent = [-1] * len(rows)
    parent_gen = [-1] * len(rows)
    seen = [False] * len(rows)
    order = []
    for g in generators:
        if not seen[g]:
            seen[g] = True
            order.append(g)
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for j, t in enumerate(rows[s]):
            if not seen[t]:
                seen[t] = True
                parent[t] = s
                parent_gen[t] = j
                order.append(t)
    return order, parent, parent_gen


def check_table_budget(n, entry_bytes=4):
    """Raise ``ClosureCapExceeded`` if an n x n table of ``entry_bytes``
    bytes per entry (int32 by default) needs more memory than this process
    may use.  Checked before the dense table (``_fill_table``), a
    quotient's table (``Semigroup.quotient``, renamings included), a loaded
    full table, and the letter matrices of ``morphism_to_buchi`` and the
    Büchi loader, which allocate n x n bytes per letter."""
    need = entry_bytes * n * n
    if need > _MEMORY_LIMIT:
        raise ClosureCapExceeded(
            "a %d-element table needs %d bytes, more than the %d this "
            "process may use" % (n, need, _MEMORY_LIMIT))


def _fill_table(rc, generators, order, parent, parent_gen):
    """The full table from right-Cayley rows ``rc[s, j] = s * generators[j]``.

    Generator columns are copied from ``rc``; every other column is filled
    by reassociating, ``s * t = (s * parent[t]) * g``, in ``order``, which
    must list each element after its parent.  Checks the budget before
    allocating the table.
    """
    n = rc.shape[0]
    check_table_budget(n)
    table = np.empty((n, n), dtype=np.int32)
    table[:, list(generators)] = rc
    for t in order:
        p = parent[t]
        if p >= 0:
            table[:, t] = rc[table[:, p], parent_gen[t]]
    return table


def close_generators(values: Sequence, right):
    """Close the hashable ``values`` under products and build the full table.

    ``right(x)`` returns the list of ``x * g`` over the distinct generators
    g, in ``dict.fromkeys(values)`` order.  ``values`` may contain duplicates
    (e.g. two letters with the same image).  Returns ``(semigroup,
    seed_indices, elements)`` where ``seed_indices[i]`` is the element index
    of ``values[i]`` and ``elements`` lists the closed values in discovery
    order.

    Only the |S| * |generators| right-Cayley products are computed.  The
    discovery loop is a breadth-first search, and the element and generator
    that first reach an element are its ``parent`` and ``parent_gen``.

    Raises ``ClosureCapExceeded`` as soon as the closure passes the most
    elements whose table fits in the memory this process may use.
    """
    limit = math.isqrt(_MEMORY_LIMIT // 4)
    index = {}
    seed_indices = [index.setdefault(v, len(index)) for v in values]
    elements = list(index)
    ngen = len(elements)
    if ngen == 0:
        raise ValueError("at least one generator is required")
    parent = [-1] * ngen
    parent_gen = [-1] * ngen
    rc_rows = []  # rc_rows[s][j] = s * gen_j
    for i, x in enumerate(elements):  # grows while it is read
        products = right(x)
        for j, p in enumerate(products):
            if p not in index:
                if len(index) >= limit:
                    raise ClosureCapExceeded(
                        "closure exceeded %d elements, the most whose table "
                        "fits in the %d bytes this process may use"
                        % (limit, _MEMORY_LIMIT))
                index[p] = len(index)
                elements.append(p)
                parent.append(i)
                parent_gen.append(j)
        rc_rows.append([index[p] for p in products])
    sg = Semigroup.from_right_cayley(
        rc_rows, range(ngen), (range(len(elements)), parent, parent_gen))
    sg.discovery_ordered = True  # numbered as the search found them
    return sg, seed_indices, elements
