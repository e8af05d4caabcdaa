"""Finite semigroups with dense multiplication tables.

Elements are integer indices into a full |S| x |S| table.  Semigroups are
built by closing a set of generator values under an abstract product, or
from their right Cayley graph; either way the table is filled column by
column along a breadth-first search from the generators.  In a closure the
discovery order fixes the element numbering, so equal inputs always yield
identical tables.

Derived data (idempotents, linked pairs, idempotent powers, Green's R- and
L-classes) is computed from the table with array operations the first time
it is asked for and cached on the semigroup as read-only arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ClosureCapExceeded, NonAssociative

DEFAULT_CAP = 10**7
DEFAULT_AUDIT_BOUND = 200


class Semigroup:
    """A finite semigroup given by a full multiplication table.

    ``table[s, t]`` is the product ``s * t``.  ``generators`` lists the
    distinct generator elements in first-seen order; every element is a
    product of generators.  ``parent`` and ``parent_gen`` record, for each
    non-generator element, one decomposition ``t = parent[t] * g`` used both
    for fast table construction and for shortest representative words.
    """

    def __init__(self, table, generators, parent=None, parent_gen=None,
                 audit_bound=DEFAULT_AUDIT_BOUND):
        table = np.asarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        if n and (table.min() < 0 or table.max() >= n):
            raise ValueError("table entries out of range")
        self.table = table
        self.generators = tuple(int(g) for g in generators)
        if parent is None:
            _, parent, parent_gen = cayley_bfs(self.right_cayley,
                                               self.generators)
        self.parent = np.asarray(parent, dtype=np.int32)
        self.parent_gen = np.asarray(parent_gen, dtype=np.int32)
        if np.any((self.parent < 0) & ~np.isin(np.arange(n), self.generators)):
            raise ValueError("elements unreachable from generators")
        self._green = {}
        if n <= audit_bound:
            self._audit_associativity()

    @classmethod
    def from_right_cayley(cls, rc, generators, *,
                          audit_bound=DEFAULT_AUDIT_BOUND):
        """The semigroup with right-Cayley rows ``rc[s, j] = s * generators[j]``.

        ``generators`` must be distinct.  Element numbering is kept; the full
        table is rebuilt along a breadth-first search from the generators.
        """
        rc = np.asarray(rc, dtype=np.int32)
        order, parent, parent_gen = cayley_bfs(rc, generators)
        if len(order) != rc.shape[0]:
            raise ValueError("elements unreachable from generators")
        table = _fill_table(rc, generators, order, parent, parent_gen)
        return cls(table, generators, parent, parent_gen,
                   audit_bound=audit_bound)

    def _audit_associativity(self):
        t = self.table
        for a in range(self.size):
            if not np.array_equal(t[t[a, :], :], t[a, t]):
                raise NonAssociative("(%d * s) * t != %d * (s * t)" % (a, a))

    # -- basic queries -------------------------------------------------------

    @property
    def size(self):
        return self.table.shape[0]

    def mul(self, s, t):
        return int(self.table[s, t])

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
        n = self.size
        return _frozen(self.table[np.arange(n), np.arange(n)] == np.arange(n))

    @cached_property
    def linked(self):
        """``linked[s, e]`` iff (s, e) is linked: e * e = e and s * e = s."""
        linked = self.table == np.arange(self.size)[:, None]
        linked &= self.idempotents
        return _frozen(linked)

    @cached_property
    def idempotent_powers(self):
        """``(e, m)``: ``e[s] = s^m[s]`` is idempotent, ``m[s] >= 1`` least.

        All elements step through their powers together; an element drops
        out as soon as its current power is idempotent.
        """
        idem = self.idempotents
        e = np.arange(self.size, dtype=np.int32)
        m = np.ones(self.size, dtype=np.int64)
        todo = np.nonzero(~idem)[0]
        while len(todo):
            e[todo] = self.table[e[todo], todo]
            m[todo] += 1
            todo = todo[~idem[e[todo]]]
        return _frozen(e), _frozen(m)

    # -- Cayley graphs and Green's relations ----------------------------------

    @property
    def right_cayley(self):
        """``right_cayley[s, j] = s * generators[j]``."""
        return self.table[:, list(self.generators)]

    def green_classes(self, kind):
        """Green's R- ('R') or L- ('L') classes, from the definition.

        s R t iff s S^1 = t S^1, and s L t iff S^1 s = S^1 t: elements are
        grouped by the bitmap of their principal right (left) ideal.  Returns
        ``(class_of, n_classes)`` where class ids are numbered by first
        occurrence in element order.
        """
        if kind not in ("R", "L"):
            raise ValueError("kind must be 'R' or 'L'")
        if kind not in self._green:
            n = self.size
            table = self.table if kind == "R" else self.table.T
            ideal = np.zeros((n, n), dtype=bool)
            ideal[np.arange(n)[:, None], table] = True
            ideal[np.arange(n), np.arange(n)] = True
            class_of, count = group_rows(np.packbits(ideal, axis=1))
            self._green[kind] = (_frozen(class_of), count)
        return self._green[kind]


def _frozen(a):
    """``a``, marked read-only so that cached arrays can be shared."""
    a.flags.writeable = False
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
    """Ids of identical rows of a bit matrix packed to bytes, by first
    occurrence.  Returns ``(ids, count)``.  Hashing packed rows beats
    lexicographic row sorting.
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


def _fill_table(rc, generators, order, parent, parent_gen):
    """The full table from right-Cayley rows ``rc[s, j] = s * generators[j]``.

    Generator columns are copied from ``rc``; every other column is filled
    by reassociating, ``s * t = (s * parent[t]) * g``, in ``order``, which
    must list each element after its parent.
    """
    n = rc.shape[0]
    table = np.empty((n, n), dtype=np.int32)
    table[:, list(generators)] = rc
    for t in order:
        p = parent[t]
        if p >= 0:
            table[:, t] = rc[table[:, p], parent_gen[t]]
    return table


def close_generators(values: Sequence, multiply: Callable, *, key=None,
                     cap: int = DEFAULT_CAP,
                     audit_bound: int = DEFAULT_AUDIT_BOUND):
    """Close ``values`` under ``multiply`` and build the full table.

    ``values`` may contain duplicates (e.g. two letters with the same image).
    ``key`` maps a value to a hashable fingerprint when values themselves are
    not hashable.  Returns ``(semigroup, seed_indices, elements)`` where
    ``seed_indices[i]`` is the element index of ``values[i]`` and ``elements``
    lists the closed values in discovery order.

    Only |S| * |generators| abstract products are computed; the rest of the
    table is filled in by reassociating against recorded decompositions.
    """
    if key is None:
        key = lambda v: v
    elements = []
    index = {}
    seed_indices = []
    for v in values:
        k = key(v)
        if k not in index:
            index[k] = len(elements)
            elements.append(v)
        seed_indices.append(index[k])
    ngen = len(elements)
    if ngen == 0:
        raise ValueError("at least one generator is required")
    gen_positions = list(range(ngen))
    parent = [-1] * ngen
    parent_gen = [-1] * ngen
    rc_rows = []  # rc_rows[s][j] = s * gen_j
    i = 0
    while i < len(elements):
        row = []
        for j in gen_positions:
            p = multiply(elements[i], elements[j])
            k = key(p)
            t = index.get(k)
            if t is None:
                t = len(elements)
                if t >= cap:
                    raise ClosureCapExceeded(
                        "closure exceeded cap of %d elements" % cap)
                index[k] = t
                elements.append(p)
                parent.append(i)
                parent_gen.append(j)
            row.append(t)
        rc_rows.append(row)
        i += 1
    rc = np.asarray(rc_rows, dtype=np.int32)
    table = _fill_table(rc, gen_positions, range(len(elements)), parent,
                       parent_gen)
    sg = Semigroup(table, gen_positions, parent, parent_gen,
                   audit_bound=audit_bound)
    return sg, seed_indices, elements


class MonoidView:
    """The monoid S^1: a fresh identity adjoined to a semigroup.

    The identity always gets index ``size - 1`` even when the semigroup
    already has a neutral element.  ``table`` is the multiplication table of
    S^1: the semigroup's table with the identity's row and column appended.
    """

    def __init__(self, semigroup: Semigroup):
        self.semigroup = semigroup
        n = semigroup.size
        self.one = n
        self.table = np.empty((n + 1, n + 1), dtype=np.int32)
        self.table[:n, :n] = semigroup.table
        self.table[n, :] = self.table[:, n] = np.arange(n + 1)

    @property
    def size(self):
        return self.semigroup.size + 1

    def mul(self, s, t):
        return int(self.table[s, t])
