"""Conversions between Büchi automata and recognizing morphisms.

Büchi -> morphism: map each word to its transition profile, which tells
for each pair of states (p, q) whether the word leads p to q, and whether
it can do so through a final state.  The profiles of the letters generate
a finite semigroup, and the accepting linked pairs are read off directly.
The resulting accepting set is conjugation-closed.  A profile is stored in
the shape of its automaton: as bit rows when the automaton is
nondeterministic, as one target per state when it is deterministic.

Morphism -> Büchi: the transition-profile automaton with states (s, e) in
S^1 x E(S), which guesses the linked pair of a run and consumes the
prefix component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .conjugacy import close_under_conjugation
from .errors import AlphabetMismatch
from .inclusion import inclusion_test
from .morphism import Morphism, PairSet, Recognizer, UPWord, linked_pairs
from .semigroup import check_ids, check_table_budget, close_generators


@dataclass
class BuchiAutomaton:
    """A nondeterministic Büchi automaton with dense transition matrices."""

    n_states: int
    alphabet: Tuple[str, ...]
    edges: Dict[str, np.ndarray]  # letter -> boolean (n, n) matrix
    initial: np.ndarray           # boolean vector
    final: np.ndarray             # boolean vector

    @classmethod
    def from_triples(cls, n_states, alphabet, transitions, initial, final):
        alphabet = tuple(alphabet)
        transitions, initial, final = map(list, (transitions, initial, final))
        check_ids([q for p, _, r in transitions for q in (p, r)]
                  + initial + final, n_states, "states")
        edges = {a: np.zeros((n_states, n_states), dtype=bool)
                 for a in alphabet}
        for (p, a, q) in transitions:
            if a not in edges:
                raise AlphabetMismatch("transition letter %r unknown" % (a,))
            edges[a][p, q] = True
        ini = np.zeros(n_states, dtype=bool)
        fin = np.zeros(n_states, dtype=bool)
        for p in initial:
            ini[p] = True
        for p in final:
            fin[p] = True
        return cls(n_states, alphabet, edges, ini, fin)


def buchi_to_strong(aut: BuchiAutomaton) -> Recognizer:
    """A strong recognizer of L(aut) over the transition-profile semigroup.

    The profile of a word w tells, for each pair of states (p, q), whether
    w has no path from p to q (0), a path (1), or a path through a final
    state (2).  Profiles are closed in a shape chosen by the automaton
    alone: target gathers (``_target_profiles``) when each letter takes
    every state to at most one state, bit rows (``_bit_profiles``)
    otherwise.  Either shape stores exactly one value per {0, 1, 2}
    matrix, so the closure finds the same elements in the same order.  A
    linked pair (s, e) is accepting iff some run starting in an initial
    state follows s and then loops on e through a final state.
    """
    n = aut.n_states
    letters = np.array([aut.edges[a] for a in aut.alphabet],
                       dtype=bool).reshape(len(aut.alphabet), n, n)
    deterministic = letters.size > 0 and (letters.sum(axis=2) <= 1).all()
    values, right, read = (_target_profiles if deterministic
                           else _bit_profiles)(letters, aut.final)
    sg, seeds, elements = close_generators(values, right)
    morphism = Morphism(aut.alphabet, sg, seeds)
    # reach[s, q]: s leads from an initial state to q; loops[e, q]: e loops
    # on q through a final state
    reach, loops = read(elements, aut.initial)
    ss, es = linked_pairs(sg).arrays()
    hit = (reach[ss] & loops[es]).any(1)
    return Recognizer(morphism, PairSet(zip(ss[hit].tolist(),
                                            es[hit].tolist())), "strong")


def _bit_profiles(letters, final):
    """Profiles of a nondeterministic automaton as n bit rows of ``size``
    bytes each.

    Row p holds the set of states the word leads p to in its low n bits
    (``path``), and the subset it reaches through a final state in its
    next n bits (``fin``).  Row p of x g is read off row p of x alone: its
    ``path`` is the union of g's ``path`` rows over the bits of x's
    ``path``, and its ``fin`` the union of g's ``fin`` rows over those bits
    joined with the union of g's ``path`` rows over the bits of x's
    ``fin``.  ``_RowProducts`` memoises that row of x g for all G
    generators g at once, by row value and for the length of one closure:
    byte b of the j-th generator's row sits at b G + j.  Joined over x's n
    rows, these lay every product out with its bytes G apart, and one
    strided slice per generator reads it off.  Beyond the profiles, the
    working memory is G rows for each of the 2n bits and for each row
    value met.
    """
    k, n = len(letters), letters.shape[1]
    # rows 0..n-1 of each letter: its profile, ``path`` then ``fin``; rows
    # n..2n-1: its ``path`` rows moved to ``fin``, what a ``fin`` bit adds
    bits = np.zeros((k, 2 * n, 2 * n), dtype=bool)
    bits[:, :n, :n] = bits[:, n:, n:] = letters
    bits[:, :n, n:] = letters & (final[:, None] | final)
    packed = np.packbits(bits, axis=2, bitorder="little")
    size = packed.shape[2]
    values = [x[:n].tobytes() for x in packed]
    first = [values.index(v) for v in dict.fromkeys(values)]
    # rows[q]: what bit q of a row of x adds to that row of every x g,
    # byte b of g's share at b G + (g's number)
    width = size * len(first)
    data = packed[first].transpose(1, 2, 0).tobytes()
    rows = [int.from_bytes(data[q * width:(q + 1) * width], "little")
            for q in range(2 * n)]
    products = _RowProducts(rows, width)
    cuts = [slice(p * size, (p + 1) * size) for p in range(n)]
    reads = [slice(j, None, len(first)) for j in range(len(first))]
    join = b"".join

    def right(x):
        out = join(map(products.__getitem__, map(x.__getitem__, cuts)))
        return list(map(out.__getitem__, reads))

    def read(elements, initial):
        bits = np.frombuffer(b"".join(elements), dtype=np.uint8).reshape(
            len(elements), n, size)
        bits = np.unpackbits(bits, axis=2, count=2 * n,
                             bitorder="little").view(bool)
        return (bits[:, initial, :n].any(axis=1),
                np.diagonal(bits[:, :, n:], axis1=1, axis2=2))

    return values, right, read


class _RowProducts(dict):
    """A row value of x -> that row of x g for every generator g, filled on
    first use with the union of ``rows`` over the value's bits."""

    def __init__(self, rows, width):
        super().__init__()
        self.rows, self.width = rows, width

    def __missing__(self, row):
        out = self[row] = _union(self.rows, int.from_bytes(
            row, "little")).to_bytes(self.width, "little")
        return out


def _union(rows, bits):
    """The union of ``rows[q]`` over the set bits q of ``bits``."""
    u = 0
    while bits:
        low = bits & -bits
        u |= rows[low.bit_length() - 1]
        bits ^= low
    return u


def _target_profiles(letters, final):
    """Profiles of a deterministic automaton as one code per state.

    The code of state p is 2 t + f, where t is the state the word leads p
    to and f tells whether it passes a final state on the way; 2 n stands
    for "no path", which carries no flag.  A code c of x becomes the code
    of x g by ``step[g, c]``, so a product with every generator is one
    gather.
    """
    n = letters.shape[1]
    dtype = np.min_scalar_type(2 * n + 1)
    sink = 2 * n
    target = np.where(letters.any(axis=2), letters.argmax(axis=2), n)
    through = final | np.append(final, False)[target]
    codes = np.where(target == n, sink, 2 * target + through).astype(dtype)
    values = [row.tobytes() for row in codes]
    gens = np.array([np.frombuffer(v, dtype=dtype)
                     for v in dict.fromkeys(values)])
    c = np.arange(sink + 1)
    step = np.concatenate([gens, np.full((len(gens), 1), sink, dtype)],
                          axis=1)[:, c >> 1] | (c & 1)
    step[step == sink + 1] = sink  # no path, no flag
    step = step.astype(dtype)
    size = n * dtype.itemsize

    def right(x):
        out = step[:, np.frombuffer(x, dtype=dtype)].tobytes()
        return [out[i:i + size] for i in range(0, len(out), size)]

    def read(elements, initial):
        codes = np.frombuffer(b"".join(elements),
                              dtype=dtype).reshape(len(elements), n)
        reach = np.zeros((len(elements), n + 1), dtype=bool)
        reach[np.arange(len(elements))[:, None], codes[:, initial] >> 1] = True
        return reach[:, :n], codes == 2 * np.arange(n) + 1

    return values, right, read


def _ints(bits):
    """Each row of a 2-d boolean array as an int, bit i for column i, from
    one packed pass."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * size:(i + 1) * size], "little")
            for i in range(len(bits))]


def morphism_to_buchi(rec: Recognizer) -> BuchiAutomaton:
    """A Büchi automaton for [P]; states are pairs (s, e), s in S^1, e in E.

    State (s, e) is numbered i (|S| + 1) + s, where e is the i-th
    idempotent and s = |S| stands for the identity of S^1.  Reading a moves
    (s, e) to (t, e) when h(a) t is s or s e, so each letter's matrix is
    block diagonal, one (|S| + 1)^2 block per idempotent, built with array
    operations, after a budget check.  It reads the left rows of the letter
    images and the idempotent columns, each with the identity of S^1
    appended.  The initial states are P, the final ones (1, e).
    """
    h = rec.morphism
    sg = h.semigroup
    n1 = sg.size + 1
    idems, cols = sg.idempotent_columns
    k = len(idems)
    n_states = k * n1
    check_table_budget(n_states, entry_bytes=len(h.alphabet))
    diag = np.arange(k)
    # targets[i, s] = s e_i for s in S^1
    targets = np.concatenate([cols, idems[None]]).T[:, :, None]
    letters = sorted(set(h.images))
    # hat[j, t] = x_j t for the letter images x_j and t in S^1
    hat = np.concatenate([sg.left_rows(letters),
                          np.array(letters)[:, None]], axis=1)
    row = np.arange(n1)[:, None]
    edges = {}
    for a, ha in zip(h.alphabet, h.images):
        x = hat[letters.index(ha)]
        blocks = (x == row)[None] | (x == targets)
        m = np.zeros((k, n1, k, n1), dtype=bool)
        m[diag, :, diag, :] = blocks
        edges[a] = m.reshape(n_states, n_states)
    s, e = rec.accepting.arrays()
    initial = np.zeros(n_states, dtype=bool)
    initial[np.searchsorted(idems, e) * n1 + s] = True
    final = np.zeros(n_states, dtype=bool)
    final[diag * n1 + n1 - 1] = True
    return _trim(BuchiAutomaton(n_states, h.alphabet, edges, initial, final))


def _trim(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Restrict an automaton of ``morphism_to_buchi`` to the states
    reachable from an initial state.  No backward pass is needed: from
    (s, e) with s = h(a1...an), reading a1...an passes through the states
    (h(a(i+1)...an), e) to the final state (1, e)."""
    n = aut.n_states
    letters = np.array(list(aut.edges.values()), dtype=bool)
    succ = [0] * n  # succ[p]: the states some letter leads p to
    for i, row in enumerate(_ints(letters.reshape(-1, n))):
        succ[i % n] |= row
    keep = todo = _ints(aut.initial[None])[0]
    while todo:
        low = todo & -todo
        todo ^= low
        new = succ[low.bit_length() - 1] & ~keep
        keep |= new
        todo |= new
    if keep == (1 << n) - 1:
        return aut
    keep = np.array([q for q in range(n) if keep >> q & 1], dtype=np.intp)
    edges = dict(zip(aut.edges, letters[:, keep[:, None], keep]))
    return BuchiAutomaton(len(keep), aut.alphabet, edges,
                          aut.initial[keep], aut.final[keep])


def buchi_accepts_lasso(aut: BuchiAutomaton, word: UPWord) -> bool:
    """Graph-search oracle: does the automaton accept prefix . period^omega?

    Runs over the product of the state set with period positions; the word
    is accepted iff some cycle through a final state is reachable.  This is
    deliberately independent of the matrix construction.
    """
    n = aut.n_states
    ln = len(word.period)
    frontier = aut.initial.copy()
    for a in word.prefix:
        frontier = np.any(aut.edges[a][frontier], axis=0)
    if not frontier.any():
        return False
    # product graph nodes: (state, position in period)
    seen = np.zeros((n, ln), dtype=bool)
    seen[:, 0] = frontier
    stack = [(int(q), 0) for q in np.nonzero(frontier)[0]]
    while stack:
        q, i = stack.pop()
        row = aut.edges[word.period[i]][q]
        j = (i + 1) % ln
        for t in np.nonzero(row)[0]:
            if not seen[t, j]:
                seen[t, j] = True
                stack.append((int(t), j))
    # Tarjan-free cycle detection: iterate within the reached subgraph,
    # looking for a final node that can reach itself
    reach_nodes = list(zip(*np.nonzero(seen)))
    for (q, i) in reach_nodes:
        if not aut.final[q]:
            continue
        # search from (q, i); accepted iff we come back to (q, i)
        vis = np.zeros((n, ln), dtype=bool)
        stack2 = [(int(q), int(i))]
        while stack2:
            p, j = stack2.pop()
            row = aut.edges[word.period[j]][p]
            k = (j + 1) % ln
            for t in np.nonzero(row)[0]:
                if (int(t), k) == (int(q), int(i)):
                    return True
                if not vis[t, k] and seen[t, k]:
                    vis[t, k] = True
                    stack2.append((int(t), k))
    return False


def weak_to_strong(rec: Recognizer) -> Recognizer:
    """A strong recognizer of the same language: the one weak -> strong path.

    Strong input is returned as is.  A weak P keeps its morphism, closed
    under conjugation, when the closure adds no words: when it adds no
    pair, or when ``inclusion_test`` finds the added pairs' words already
    in [P].  Otherwise it takes the Büchi automaton round trip.
    """
    if rec.mode == "strong":
        return rec
    closed = close_under_conjugation(rec.morphism, rec.accepting)
    if closed == rec.accepting or inclusion_test(
            rec.morphism, closed, rec.accepting).included:
        return Recognizer(rec.morphism, closed, "strong")
    return buchi_to_strong(morphism_to_buchi(rec))
