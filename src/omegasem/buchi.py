"""Conversions between Büchi automata and recognizing morphisms.

Büchi -> morphism: map each word to its transition matrix over {0, 1, 2}
(0: no path, 1: path, 2: path through a final state); the matrices of the
letters generate a finite semigroup, and the accepting linked pairs are read
off directly.  The resulting accepting set is conjugation-closed.

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

    def letter_matrix(self, a):
        """The {0,1,2} transition profile of a single letter."""
        m = self.edges[a].astype(np.int8)
        fin = self.final
        two = m & (fin[:, None] | fin[None, :])
        return np.where(two, np.int8(2), m)


def buchi_to_strong(aut: BuchiAutomaton) -> Recognizer:
    """A strong recognizer of L(aut) over the transition-profile semigroup.

    Profiles are closed as the bytes of int8 matrices, each times all the
    letter profiles in two float32 matmuls, which BLAS runs.  A linked pair
    (s, e) is accepting iff some run starting in an initial state follows s
    and then loops on e through a final state.
    """
    n = aut.n_states
    values = [aut.letter_matrix(a).tobytes() for a in aut.alphabet]
    gens = list(dict.fromkeys(values))
    # cols[p, j*n + q] = entry (p, q) of generator j
    cols = np.frombuffer(b"".join(gens), dtype=np.int8).reshape(
        len(gens), n, n).transpose(1, 0, 2).reshape(n, len(gens) * n)
    path = (cols >= 1).astype(np.float32)
    # x g has a 2 where x has a 2 before a path of g, or a path before a 2
    via_final = np.concatenate([path, (cols == 2).astype(np.float32)])

    def right(x):
        m = np.frombuffer(x, dtype=np.int8).reshape(n, n)
        a = (m >= 1).astype(np.float32)
        b = np.concatenate([m == 2, a], axis=1).astype(np.float32)
        out = ((a @ path) > 0).astype(np.int8) + ((b @ via_final) > 0)
        return [out[:, j * n:(j + 1) * n].tobytes()
                for j in range(len(gens))]

    sg, seeds, elements = close_generators(values, right)
    morphism = Morphism(aut.alphabet, sg, seeds)
    profiles = np.frombuffer(b"".join(elements),
                             dtype=np.int8).reshape(sg.size, n, n)
    # reach[s, q]: s leads from an initial state to q; loops[e, q]: e loops
    # on q through a final state
    reach = (profiles[:, aut.initial, :] >= 1).any(axis=1)
    loops = np.diagonal(profiles, axis1=1, axis2=2) == 2
    ss, es = linked_pairs(sg).arrays()
    hit = (reach[ss] & loops[es]).any(1)
    return Recognizer(morphism, PairSet(zip(ss[hit].tolist(),
                                            es[hit].tolist())), "strong")


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
    any_edge = np.zeros((n, n), dtype=bool)
    for m in aut.edges.values():
        any_edge |= m
    keep = aut.initial.copy()
    while True:
        nxt = keep | np.any(any_edge[keep], axis=0)
        if np.array_equal(nxt, keep):
            break
        keep = nxt
    keep = np.nonzero(keep)[0]
    if len(keep) == n:
        return aut
    edges = {a: m[np.ix_(keep, keep)] for a, m in aut.edges.items()}
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
