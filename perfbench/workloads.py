"""The benchmark's three workloads, written against omegasem's public API.

Each workload builds its inputs in ``__init__`` (the set-up phase) and
exposes a fixed list of operations.  One pass runs every operation once.
After each operation the runner takes a small *fingerprint* of its result,
outside the operation's timer; ``check`` then judges one fingerprint per
operation against values that do not come from the code under test:
numbers pinned from the seed commit in ``pins.json``, the direct MSO
evaluator, and membership of witness words.

Library functions are always looked up on the ``omegasem`` package at call
time (``om.compile_formula``, never a name imported into this module), so
the traced run can rebind them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random

import omegasem as om
from omegasem import formats, mso

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# Workload sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size the smoke tests run.  They are fixed here, never per seed.
SIZES = {
    "mso-table1": {"full": {"k_max": 4}, "smoke": {"k_max": 3}},
    "decide-weak": {"full": {"groups": 75}, "smoke": {"groups": 3}},
    "minimize-adversarial": {"full": {"n": 4}, "smoke": {"n": 3}},
}

# decide-weak generator parameters (fixed up front for every seed)
ALPHABET = ("a", "b")
GROUP_SIZE = 4          # recognizers per group; all ordered pairs are queried
MIN_ELEMENTS = 2        # |S| of each drawn transformation semigroup ...
MAX_ELEMENTS = 5        # ... lies in this range (redrawn otherwise)
MAX_DEGREE = 4          # transformations act on 2..MAX_DEGREE points
PAIR_DENSITY = 0.4      # chance that a linked pair is accepting
ORACLE_PREFIX = 1       # short-word oracle: prefixes up to this length ...
ORACLE_PERIOD = 3       # ... and periods up to this length

EVALUATOR_WORDS = 6     # seeded words per k = 2 formula for mso.evaluate


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recognizer_digest(rec):
    return sha256(formats.dumps_recognizer(rec))


def random_upword(rng, alphabet, max_prefix, max_period):
    prefix = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(0, max_prefix)))
    period = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(1, max_period)))
    return om.UPWord(prefix, period)


class Workload:
    """Inputs plus a fixed operation list; see the module docstring."""

    name = ""

    def __init__(self, seed, scale="full"):
        self.seed = seed
        self.scale = scale
        self.size = SIZES[self.name][scale]

    def ops(self):
        """``[(label, thunk)]``; a thunk runs one operation and returns it."""
        raise NotImplementedError

    def fingerprint(self, index, result):
        """A small JSON-able summary of one operation's result."""
        raise NotImplementedError

    def check(self, fps):
        """Judge ``fps[i]``, op i's fingerprint; return ``{op index: why}``."""
        raise NotImplementedError

    def pin(self):
        """The values ``check`` compares against, as stored in pins.json."""
        raise NotImplementedError

    def pinned(self):
        """Whether pins.json holds this run's expected outputs."""
        return True

    def verdict(self, fp):
        """"true" or "false" for a decision op's fingerprint, else None."""
        return None


# -- mso-table1 ---------------------------------------------------------------

def formula_text(family, k):
    """Source text of the table1 formulas (the same as ``mso.FAMILIES``)."""
    ks = range(1, k + 1)
    if family == "phi":
        parts = " & ".join("E y. (x < y & y in X%d)" % i for i in ks)
        return "A x. (%s)" % parts
    if family == "psi":
        parts = " & ".join("(x in X%d -> y in X%d)" % (i, i % k + 1)
                           for i in ks)
        return "A x. A y. (y = x + 1) -> (%s)" % parts
    if family == "chi":
        parts = " & ".join(
            "(x in X%d -> E y. (x < y & (y in X%d | y in X%d)))"
            % (i, (i - 2) % k + 1, i % k + 1) for i in ks)
        return "A x. (%s)" % parts
    raise ValueError(family)


class MsoTable1(Workload):
    """``compile_formula`` on phi, psi, chi for k = 2..k_max (the paper's
    experiment).  Deterministic: the seed only picks the evaluator words."""

    name = "mso-table1"

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.rows = [(fam, k) for k in range(2, self.size["k_max"] + 1)
                     for fam in ("phi", "psi", "chi")]
        self.texts = [formula_text(fam, k) for fam, k in self.rows]
        self.formulas = [mso.FAMILIES[fam](k) for fam, k in self.rows]
        rng = random.Random(seed)
        alphabet = mso.var_alphabet(["X1", "X2"])
        self.words = [random_upword(rng, alphabet, 3, 3)
                      for _ in range(EVALUATOR_WORDS)]

    def ops(self):
        return [("%s k=%d" % row, lambda t=t: om.compile_formula(t))
                for row, t in zip(self.rows, self.texts)]

    def fingerprint(self, index, result):
        fp = {"triple": list(mso.recognizer_stats(result)),
              "sha256": recognizer_digest(result)}
        if self.rows[index][1] == 2:
            phi = self.formulas[index]
            fp["evaluator_disagrees"] = sum(
                om.member(result, w) != mso.evaluate(phi, w)
                for w in self.words)
        return fp

    def check(self, fps):
        bad = {}
        pins = load_pins()[self.name]
        for i, fp in enumerate(fps):
            want = pins.get("%s %d" % self.rows[i])
            if want is None:
                bad[i] = "no pinned value"
            elif fp["triple"] != want["triple"]:
                bad[i] = "triple %s, pinned %s" % (fp["triple"],
                                                   want["triple"])
            elif fp["sha256"] != want["sha256"]:
                bad[i] = "serialized recognizer differs from the pinned one"
            elif fp.get("evaluator_disagrees"):
                bad[i] = "member disagrees with mso.evaluate on %d words" \
                    % fp["evaluator_disagrees"]
        for i, (text, phi) in enumerate(zip(self.texts, self.formulas)):
            if om.parse(text) != phi:
                bad[i] = "benchmark formula text differs from mso.FAMILIES"
        return bad

    def pin(self):
        out = {}
        for i, ((_, op), row) in enumerate(zip(self.ops(), self.rows)):
            fp = self.fingerprint(i, op())
            out["%s %d" % row] = {"triple": fp["triple"],
                                  "sha256": fp["sha256"]}
        return out


# -- decide-weak --------------------------------------------------------------

def _transformation_closure(funcs, limit):
    """Elements of the semigroup generated by ``funcs`` (tuples on points),
    in breadth-first order from the generators, or None past ``limit``."""
    elements = []
    index = {}
    for f in funcs:
        if f not in index:
            index[f] = len(elements)
            elements.append(f)
    i = 0
    while i < len(elements):
        for g in funcs:
            f = elements[i]
            h = tuple(g[x] for x in f)  # first f, then g
            if h not in index:
                if len(elements) >= limit:
                    return None
                index[h] = len(elements)
                elements.append(h)
        i += 1
    return elements, index


def random_weak_recognizer(rng):
    """A weak recognizer over {a, b} on a random transformation semigroup
    with MIN_ELEMENTS..MAX_ELEMENTS elements, built from its full table."""
    while True:
        degree = rng.randint(2, MAX_DEGREE)
        funcs = [tuple(rng.randrange(degree) for _ in range(degree))
                 for _ in ALPHABET]
        closed = _transformation_closure(funcs, MAX_ELEMENTS)
        if closed is not None and len(closed[0]) >= MIN_ELEMENTS:
            break
    elements, index = closed
    table = [[index[tuple(g[x] for x in f)] for g in elements]
             for f in elements]
    images = [index[f] for f in funcs]
    gens = sorted(set(images), key=images.index)
    sg = om.Semigroup(table, gens)
    n = len(elements)
    linked = [(s, e) for s in range(n) for e in range(n)
              if table[e][e] == e and table[s][e] == s]
    chosen = [p for p in linked if rng.random() < PAIR_DENSITY]
    return om.Recognizer(om.Morphism(ALPHABET, sg, images),
                         om.PairSet.from_pairs(n, chosen), "weak")


def oracle_words():
    """All words u v^omega with |u| <= ORACLE_PREFIX, |v| <= ORACLE_PERIOD."""
    out = []
    for lu in range(ORACLE_PREFIX + 1):
        for lv in range(1, ORACLE_PERIOD + 1):
            for u in itertools.product(ALPHABET, repeat=lu):
                for v in itertools.product(ALPHABET, repeat=lv):
                    out.append(om.UPWord(u, v))
    return out


class DecideWeak(Workload):
    """``language_included`` on every ordered pair inside each group of
    GROUP_SIZE seeded weak recognizers."""

    name = "decide-weak"

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.groups = [[random_weak_recognizer(rng)
                        for _ in range(GROUP_SIZE)]
                       for _ in range(self.size["groups"])]
        self.queries = [(g, i, j) for g in range(len(self.groups))
                        for i in range(GROUP_SIZE) for j in range(GROUP_SIZE)
                        if i != j]

    def _query(self, g, i, j):
        return om.language_included(self.groups[g][i], self.groups[g][j])

    def ops(self):
        return [("group %d: %d <= %d" % q, functools.partial(self._query, *q))
                for q in self.queries]

    def fingerprint(self, index, result):
        w = result.witness
        return {"included": bool(result.included),
                "witness": None if w is None else [list(w.prefix),
                                                   list(w.period)]}

    def pool_digest(self):
        text = "\n".join(formats.dumps_recognizer(r)
                         for grp in self.groups for r in grp)
        return sha256(text)

    def verdict(self, fp):
        return "true" if fp["included"] else "false"

    def verdicts(self, fps):
        return "".join("T" if fp["included"] else "F" for fp in fps)

    def check(self, fps):
        bad = {}
        words = oracle_words()
        member_sets = [[frozenset(i for i, w in enumerate(words)
                                  if om.member(r, w)) for r in grp]
                       for grp in self.groups]
        verdict = {}
        for idx, ((g, i, j), fp) in enumerate(zip(self.queries, fps)):
            verdict[(g, i, j)] = fp["included"]
            lhs, rhs = self.groups[g][i], self.groups[g][j]
            if fp["included"]:
                if fp["witness"] is not None:
                    bad[idx] = "true verdict carries a witness"
                elif not member_sets[g][i] <= member_sets[g][j]:
                    bad[idx] = "true verdict, but a short word separates them"
            else:
                if fp["witness"] is None:
                    bad[idx] = "false verdict without a witness"
                    continue
                w = om.UPWord(tuple(fp["witness"][0]),
                              tuple(fp["witness"][1]))
                if not om.member(lhs, w) or om.member(rhs, w):
                    bad[idx] = "witness %s does not separate the pair" % w
        # inclusion is transitive inside each group
        for idx, (g, i, k) in enumerate(self.queries):
            for j in range(GROUP_SIZE):
                if j not in (i, k) and verdict[(g, i, j)] \
                        and verdict[(g, j, k)] and not verdict[(g, i, k)]:
                    bad[idx] = "violates transitivity through %d" % j
        pin = load_pins()[self.name].get("%s:%d" % (self.scale, self.seed))
        if pin is not None and self.pool_digest() != pin["pool_sha256"]:
            return {idx: "generated pool differs from the pinned one"
                    for idx in range(len(self.queries))}
        if pin is not None:
            for idx, (got, want) in enumerate(zip(self.verdicts(fps),
                                                  pin["verdicts"])):
                if got != want:
                    bad[idx] = "verdict %s, pinned %s" % (got, want)
        return bad

    def pinned(self):
        """Whether pins.json holds the verdict vector for this seed."""
        key = "%s:%d" % (self.scale, self.seed)
        return key in load_pins()[self.name]

    def pin(self):
        fps = [self.fingerprint(i, op()) for i, (_, op)
               in enumerate(self.ops())]
        return {"%s:%d" % (self.scale, self.seed): {
            "pool_sha256": self.pool_digest(),
            "verdicts": self.verdicts(fps)}}


# -- minimize-adversarial -----------------------------------------------------

class MinimizeAdversarial(Workload):
    """``conjugacy_classes`` on ``adversarial_fixture(n)``, then
    ``syntactic_morphism`` of the conjugation-closed strong recognizer.
    Deterministic: the seed is unused."""

    name = "minimize-adversarial"

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.morphism, self.designated = om.adversarial_fixture(
            self.size["n"])
        # the input of the second op: the conjugation closure of the
        # designated pairs, built once here so each op can run on its own
        self.closed = self._closure(self._conjugacy())

    def _closure(self, classes):
        """The designated pairs closed under the conjugacy ``classes``."""
        hit = {classes.class_of[p] for p in self.designated.pairs()}
        return om.PairSet.from_pairs(
            self.morphism.semigroup.size,
            [p for c in sorted(hit) for p in classes.classes[c]])

    def _conjugacy(self):
        return om.conjugacy_classes(self.morphism)

    def _syntactic(self):
        return om.syntactic_morphism(
            om.Recognizer(self.morphism, self.closed, "strong"))

    def ops(self):
        return [("conjugacy_classes", self._conjugacy),
                ("syntactic_morphism", self._syntactic)]

    def fingerprint(self, index, result):
        if index == 0:
            return {"classes": len(result.classes),
                    "unions": result.union_calls,
                    "finds": result.find_calls,
                    "closed_pairs": len(self._closure(result))}
        return {"size_out": result.recognizer.morphism.semigroup.size,
                "split_work": result.split_work,
                "sha256": recognizer_digest(result.recognizer)}

    def check(self, fps):
        bad = {}
        want = load_pins()[self.name].get(str(self.size["n"]))
        for i, fp in enumerate(fps):
            if want is None or fp != want[i]:
                bad[i] = "%s, pinned %s" % (fp, None if want is None
                                            else want[i])
        return bad

    def pin(self):
        return {str(self.size["n"]): [self.fingerprint(i, op())
                                      for i, (_, op) in enumerate(self.ops())]}


WORKLOADS = {w.name: w for w in (MsoTable1, DecideWeak, MinimizeAdversarial)}
