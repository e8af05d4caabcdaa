"""MSO over infinite words, compiled to minimized strong recognizers.

Formulas use first-order position variables (lowercase names) and
second-order set variables (capitalized names).  Atoms are ``x < y``,
``y = x + 1`` and ``x in X``.  Connectives: ``!`` (also ``~``), ``&``,
``|``, ``->``.  Quantifiers: ``E x.`` / ``A x.`` (both orders), binding as
far to the right as possible.  Implication and universal quantification
are rewritten into the {not, and, or, exists} core at parse time.

Before compiling, ``miniscope`` pushes negations and quantifiers as far
inward as they go (the formula reduction of MONA), so that each powerset
projection covers as little of the formula as possible, and the compiler
compiles each subformula once up to renaming: subformulas that differ
only by a renaming of their variables share one recognizer.

Words over the free second-order variables V are encoded over the
alphabet 2^V: each letter is a bit string, character i giving membership
in the i-th variable of V in sorted order.  First-order variables are
compiled as second-order tracks constrained to hold at exactly one
position; the constraint is enforced in the atom automata, and again when
the variable is existentially quantified over a body that does not
guarantee it (for example one where the variable occurs only under a
negation), so that it survives complementation.

The constants of the logic (the atom recognizers, the one-position
constraint among them as ``x in x``, the alphabets 2^V and the
track-erasing maps) depend only on a track count and the ranks of the
variables, so each is built once per process, on first use, and shared
read-only by every later compile.  A process pays for them once; nothing
keyed by a formula is cached across ``compile_formula`` calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .buchi import BuchiAutomaton, buchi_to_strong
from .errors import MsoSyntaxError
from .langops import LetterMap, flip, project, pullback
from .morphism import Recognizer, UPWord, linked_pairs
from .syntactic import minimize, read_off


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Less:
    x: str
    y: str


@dataclass(frozen=True)
class Succ:
    """y = x + 1"""
    x: str
    y: str


@dataclass(frozen=True)
class In:
    x: str
    X: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Less, Succ, In, Not, And, Or, Exists]


def is_second_order(name: str) -> bool:
    return name[0].isupper()


def _depth_safe(fn):
    """``fn`` raising ``MsoSyntaxError`` where a formula is nested too
    deeply for Python's recursion limit."""

    @wraps(fn)
    def safe(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise MsoSyntaxError("formula nested too deeply") from None

    return safe


@_depth_safe
def free_vars(phi: Formula) -> FrozenSet[str]:
    return _free_vars(phi)


def _free_vars(phi: Formula) -> FrozenSet[str]:
    """The recursion behind ``free_vars``, for callers already under
    ``_depth_safe``."""
    if isinstance(phi, Less) or isinstance(phi, Succ):
        return frozenset((phi.x, phi.y))
    if isinstance(phi, In):
        return frozenset((phi.x, phi.X))
    if isinstance(phi, Not):
        return _free_vars(phi.body)
    if isinstance(phi, (And, Or)):
        return _free_vars(phi.left) | _free_vars(phi.right)
    if isinstance(phi, Exists):
        return _free_vars(phi.body) - {phi.var}
    raise TypeError("not a formula: %r" % (phi,))


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[0-9]+)|(->|[()<=+.!~&|])|(\S))")
_KEYWORDS = {"in", "E", "A", "not", "and", "or"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(3) is not None:
            raise MsoSyntaxError("unexpected character %r" % m.group(3),
                                 m.start(3))
        if m.group(1) is not None:
            tokens.append((m.group(1), m.start(1)))
        else:
            tokens.append((m.group(2), m.start(2)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] is not None:  # never advance past the end sentinel
            self.i += 1
        return tok

    def variable(self):
        tok, pos = self.next()
        if tok is None or not tok[0].isalpha() or tok in _KEYWORDS:
            raise MsoSyntaxError("expected a variable, found %r" % (tok,),
                                 pos)
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise MsoSyntaxError("expected %r, found %r" % (want, tok), pos)
        return tok

    def fail(self, why):
        raise MsoSyntaxError(why, self.tokens[self.i][1])

    # formula := disjunction ('->' formula)?
    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.next()
            right = self.formula()
            return Or(Not(left), right)
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek() in ("|", "or"):
            self.next()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek() in ("&", "and"):
            self.next()
            out = And(out, self.unary())
        return out

    def _quantifier(self):
        """Return (kind, var) if the upcoming tokens open a quantifier."""
        tok = self.peek()
        if tok is None or not tok[0].isalpha():
            return None
        if self.i + 1 >= len(self.tokens):
            return None
        nxt = self.tokens[self.i + 1][0]
        if tok in ("E", "A") and nxt is not None and nxt[0].isalpha() \
                and self.i + 2 < len(self.tokens) \
                and self.tokens[self.i + 2][0] == ".":
            return (tok, nxt, 3)
        # fused form: "Ex." / "AX1."
        if tok[0] in ("E", "A") and len(tok) > 1 and nxt == "." \
                and tok not in _KEYWORDS:
            return (tok[0], tok[1:], 2)
        return None

    def unary(self) -> Formula:
        tok = self.peek()
        if tok in ("!", "~", "not"):
            self.next()
            return Not(self.unary())
        q = self._quantifier()
        if q is not None:
            kind, var, skip = q
            self.i += skip
            body = self.formula()
            if kind == "E":
                return Exists(var, body)
            return Not(Exists(var, Not(body)))
        if tok == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        return self.atom()

    def atom(self) -> Formula:
        tok, pos = self.next()
        if tok is None or not tok[0].isalpha() or tok in _KEYWORDS:
            raise MsoSyntaxError("expected a variable, found %r" % (tok,),
                                 pos)
        op = self.peek()
        if op == "<":
            self.next()
            return Less(tok, self.variable())
        if op == "in":
            self.next()
            X, xpos = self.next()
            if X is None or not is_second_order(X):
                raise MsoSyntaxError(
                    "right side of 'in' must be a set variable", xpos)
            return In(tok, X)
        if op == "=":
            self.next()
            x = self.variable()
            self.expect("+")
            one, opos = self.next()
            if one != "1":
                raise MsoSyntaxError("only successor terms 'x + 1' are "
                                     "supported", opos)
            return Succ(x, tok)
        self.fail("expected '<', '=' or 'in' after variable %r" % (tok,))


@_depth_safe
def parse(text: str) -> Formula:
    p = _Parser(text)
    out = p.formula()
    tok, pos = p.tokens[p.i]
    if tok is not None:
        raise MsoSyntaxError("unexpected %r after formula" % (tok,), pos)
    return out


# ---------------------------------------------------------------------------
# miniscoping
#
# The rewrite works on negation normal form, with nodes (op, args, fv):
# op "lit" has args (positive, atom); "and" and "or" have a tuple of
# operands, flattened and without repeats; "E" and "A" have (var, body).
# fv is the node's frozenset of free variables.

_DUAL = {"and": "or", "or": "and"}
_SPLITS = {"E": "or", "A": "and"}  # the connective a quantifier splits over


def _junction(op, parts):
    """``op`` over ``parts``, flattened, repeats dropped; one part alone."""
    flat = []
    for p in parts:
        flat.extend(p[1] if p[0] == op else (p,))
    flat = list(dict.fromkeys(flat))
    if len(flat) == 1:
        return flat[0]
    return (op, tuple(flat), frozenset().union(*(p[2] for p in flat)))


def _quantifier_free(node) -> bool:
    if node[0] == "lit":
        return True
    return node[0] in _DUAL and all(map(_quantifier_free, node[1]))


def _quantify(q, v, body):
    """Quantifier ``q`` over ``v`` pushed as far into ``body`` as it goes."""
    if v not in body[2]:
        return body
    split = _SPLITS[q]
    if body[0] == split:
        return _junction(split, [_quantify(q, v, p) for p in body[1]])
    if body[0] == _DUAL[split]:
        join = body[0]
        free = [p for p in body[1] if v not in p[2]]
        bound = [p for p in body[1] if v in p[2]]
        if free:
            return _junction(join, free + [_quantify(q, v, _junction(join,
                                                                     bound))])
        # Q v (R join (d1 split d2 ...)) = (Q v (R join d1)) split ...,
        # taken only for a quantifier-free R and only when some d_i, or a
        # piece of it, leaves the scope of v.
        for i, p in enumerate(bound):
            rest = bound[:i] + bound[i + 1:]
            if p[0] == split and all(map(_quantifier_free, rest)) and any(
                    v not in d[2] or d[0] == join
                    and any(v not in c[2] for c in d[1]) for d in p[1]):
                return _junction(split, [
                    _quantify(q, v, _junction(join, rest + [d]))
                    for d in p[1]])
    return (q, (v, body), body[2] - {v})


def _reduce(phi: Formula, positive: bool):
    """Miniscoped negation normal form of phi, or of !phi if not positive."""
    while isinstance(phi, Not):
        phi, positive = phi.body, not positive
    if isinstance(phi, (And, Or)):
        parts, todo = [], [phi]
        while todo:  # a chain of one connective, without recursion
            f = todo.pop()
            if type(f) is type(phi):
                todo += (f.right, f.left)
            else:
                parts.append(_reduce(f, positive))
        return _junction("and" if isinstance(phi, And) == positive else "or",
                         parts)
    if isinstance(phi, Exists):
        return _quantify("E" if positive else "A", phi.var,
                         _reduce(phi.body, positive))
    return ("lit", (positive, phi), _free_vars(phi))


def _balanced(cls, parts) -> Formula:
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return cls(_balanced(cls, parts[:mid]), _balanced(cls, parts[mid:]))


def _core(node, positive=True) -> Formula:
    """The core formula of a normal-form node, or of its negation."""
    op, args, _ = node
    if op == "lit":
        sign, atom = args
        return atom if sign == positive else Not(atom)
    if op in _SPLITS:
        out = Exists(args[0], _core(args[1], op == "E"))
        return out if (op == "E") == positive else Not(out)
    cls = And if (op == "and") == positive else Or
    return _balanced(cls, [_core(p, positive) for p in args])


@_depth_safe
def miniscope(phi: Formula) -> Formula:
    """An equivalent core formula with negations and quantifiers inward.

    Negations are pushed to the atoms and across quantifiers (a universal
    quantifier stays ``Not(Exists(Not ...))``).  Each quantifier is split
    over the connective it distributes over (E over |, A over &) and
    leaves out the operands of the other connective that do not mention
    its variable.  A quantifier-free side is distributed over the other
    connective only when some piece then leaves the quantifier's scope;
    the formula is never expanded to a full CNF or DNF.  Chains of one
    connective are flattened, without repeated operands, and rebuilt as
    balanced trees.
    """
    return _core(_reduce(phi, True))


# ---------------------------------------------------------------------------
# alphabets over variable sets
#
# The caches here and below are keyed by a track count and variable ranks,
# never by a formula.  The bound only matters to a process that compiles
# formulas of very many widths.

_CACHE_SIZE = 256


def var_alphabet(variables) -> Tuple[str, ...]:
    """Letters 2^V as bit strings in binary order; V sorted by name."""
    return _alphabet(len(tuple(variables)))


@lru_cache(maxsize=_CACHE_SIZE)
def _alphabet(width: int) -> Tuple[str, ...]:
    return tuple(format(m, "0%db" % width) if width else "-"
                 for m in range(1 << width))


def _erasing_map(source_vars, target_vars) -> LetterMap:
    """Letter map 2^source -> 2^target dropping the extra tracks."""
    svs = sorted(source_vars)
    return _erasing(len(svs), tuple(svs.index(v) for v in sorted(target_vars)))


@lru_cache(maxsize=_CACHE_SIZE)
def _erasing(width: int, keep: Tuple[int, ...]) -> LetterMap:
    """The letter map 2^width -> 2^len(keep) keeping the bits ``keep``."""
    src, tgt = _alphabet(width), _alphabet(len(keep))
    return LetterMap(src, tgt, {
        a: "".join(a[i] for i in keep) if keep else tgt[0] for a in src})


def _bit(letter: str, vs: List[str], v: str) -> int:
    return int(letter[vs.index(v)])


# ---------------------------------------------------------------------------
# atoms as small Büchi automata, compiled once per process


def _atom_buchi(kind, width: int, i: int, j: int) -> BuchiAutomaton:
    """The atom ``kind`` over 2^width: ``x in X``, ``x < y`` or ``y = x + 1``
    with x the track of rank i and X or y the track of rank j.  ``x in x``
    (i = j) is the one-position constraint: track i holds at exactly one
    position."""
    letters = _alphabet(width)
    trans = []
    if kind is In:
        for a in letters:
            if a[i] == "0":
                trans += [(0, a, 0), (1, a, 1)]
            elif a[j] == "1":
                trans.append((0, a, 1))
        return BuchiAutomaton.from_triples(2, letters, trans, [0], [1])
    if kind is Less:
        for a in letters:
            if a[i] == "0" and a[j] == "0":
                trans += [(0, a, 0), (1, a, 1), (2, a, 2)]
            elif a[i] == "1" and a[j] == "0":
                trans.append((0, a, 1))
            elif a[i] == "0" and a[j] == "1":
                trans.append((1, a, 2))
        return BuchiAutomaton.from_triples(3, letters, trans, [0], [2])
    if kind is Succ:
        for a in letters:
            if a[i] == "0" and a[j] == "0":
                trans += [(0, a, 0), (2, a, 2)]
            elif a[i] == "1" and a[j] == "0":
                trans.append((0, a, 1))
            elif a[i] == "0" and a[j] == "1":
                trans.append((1, a, 2))
        return BuchiAutomaton.from_triples(3, letters, trans, [0], [2])
    raise TypeError("not an atom: %r" % (kind,))


def _constant(aut: BuchiAutomaton) -> Recognizer:
    """The syntactic recognizer of L(aut), built with every audit check.
    It is read-only, as every semigroup the library builds is, so one copy
    serves every later compile."""
    return minimize(buchi_to_strong(aut), audit=True)


@lru_cache(maxsize=_CACHE_SIZE)
def _atom(kind, width: int, i: int, j: int) -> Recognizer:
    return _constant(_atom_buchi(kind, width, i, j))


# ---------------------------------------------------------------------------
# compilation


def _alpha_key(phi: Formula, names, depth=0):
    """phi with each variable replaced by its entry in ``names``, each bound
    variable by its binding depth (kinds kept) and the two operands of
    ``&`` and ``|`` unordered: equal keys mean equal languages over the
    positional alphabet."""
    if isinstance(phi, In):
        return (In, names[phi.x], names[phi.X])
    if isinstance(phi, (Less, Succ)):
        return (type(phi), names[phi.x], names[phi.y])
    if isinstance(phi, Not):
        return (Not, _alpha_key(phi.body, names, depth))
    if isinstance(phi, (And, Or)):
        return (type(phi), frozenset((_alpha_key(phi.left, names, depth),
                                      _alpha_key(phi.right, names, depth))))
    inner = dict(names)
    inner[phi.var] = ("bound", depth, is_second_order(phi.var))
    return (Exists, inner[phi.var], _alpha_key(phi.body, inner, depth + 1))


def _canonical_order(phi: Formula) -> Tuple[str, ...]:
    """The free variables of phi by first occurrence in a traversal that
    visits the operands of ``&`` and ``|`` sorted by their shape: the
    operand with every variable name left out, as a string.

    A renaming of the free variables renames this order with them, except
    where two operands tie on their shape."""

    def go(f):  # (shape, free variable occurrences in traversal order)
        if isinstance(f, (Less, Succ)):
            return type(f).__name__, (f.x, f.y)
        if isinstance(f, In):
            return "In", (f.x, f.X)
        if isinstance(f, Not):
            shape, names = go(f.body)
            return "!(%s)" % shape, names
        if isinstance(f, (And, Or)):
            (ls, ln), (rs, rn) = sorted((go(f.left), go(f.right)),
                                        key=lambda part: part[0])
            return "%s(%s,%s)" % (type(f).__name__, ls, rs), ln + rn
        shape, names = go(f.body)
        return ("E%d(%s)" % (is_second_order(f.var), shape),
                tuple(v for v in names if v != f.var))

    return tuple(dict.fromkeys(go(phi)[1]))


def _guarded(phi: Formula) -> FrozenSet[str]:
    """First-order variables that every model of phi holds at exactly one
    position, because an atom automaton enforces it."""
    if isinstance(phi, (Less, Succ)):
        return frozenset((phi.x, phi.y))
    if isinstance(phi, In):
        return frozenset((phi.x,))
    if isinstance(phi, Not):
        return frozenset()
    if isinstance(phi, And):
        return _guarded(phi.left) | _guarded(phi.right)
    if isinstance(phi, Or):
        return _guarded(phi.left) & _guarded(phi.right)
    return _guarded(phi.body) - {phi.var}


def _renamed(rec: Recognizer, ranks, new_ranks) -> Recognizer:
    """rec with its letters' bits moved from positions ``ranks`` to
    ``new_ranks``, renumbered as ``minimize`` would number it.

    Bit ``ranks[i]`` of a letter of rec becomes bit ``new_ranks[i]`` of the
    letter of the result.  Renaming letters keeps a syntactic recognizer
    syntactic, so only the element numbering (BFS from the letter images)
    changes: the result is read off rec by the discrete partition at the
    renamed images (``read_off``), and is rec's own semigroup when the
    distinct images keep their order."""
    h = rec.morphism
    width = len(ranks)
    images = []
    for letter in h.alphabet:
        old = ["0"] * width
        for r, nr in zip(ranks, new_ranks):
            old[r] = letter[nr]
        images.append(h.images[int("".join(old), 2)])
    return read_off(rec, range(h.semigroup.size), images)[0]


class Compiler:
    """Bottom-up compiler that builds each subformula once up to renaming.

    Every node yields the syntactic recognizer of its language over 2^fv,
    fv in sorted order, numbered as ``minimize`` numbers it.  So
    complementing a node only takes the linked pairs outside its accepting
    set: a language and its complement have one syntactic congruence.  Two
    nodes whose free variables, ranked in ``_canonical_order``, give equal
    ``_alpha_key`` are equal up to a renaming, and share one build: where
    the renaming moves the variables' places in the sorted order, the
    stored recognizer's letters are permuted and its elements renumbered
    by a read-off, as a quotient is, with no second closure
    (``_renamed``).  A first-order variable v is only intersected with the
    one-position constraint before its projection if the body does not
    already guarantee it (``_guarded``); the guarded body is the node
    ``And(body, In(v, v))``, built through the compiler's own ``&`` and
    shared up to renaming as every node is.

    The memo lives for one ``compile`` call: nothing keyed by a formula or
    a subformula outlives it.  The atoms (the one-position constraint
    among them as ``x in x``), the alphabets and the erasing maps are the
    only things shared across calls; they depend on a track count and
    variable ranks alone, and each is built once per process (with every
    ``audit`` check) and read-only.
    """

    def __init__(self, *, audit=False):
        self.audit = audit
        # alpha key -> {ranks of the canonical order in sorted fv: rec}
        self._memo: Dict[tuple, Dict[tuple, Recognizer]] = {}

    def _mini(self, rec: Recognizer) -> Recognizer:
        return minimize(rec, audit=self.audit)

    def compile(self, phi: Formula) -> Recognizer:
        return self._go(miniscope(phi))[0]

    def _go(self, phi: Formula):
        """(recognizer, sorted free variables) of phi."""
        order = _canonical_order(phi)
        fv = tuple(sorted(order))
        key = _alpha_key(phi, {v: ("free", i, is_second_order(v))
                               for i, v in enumerate(order)})
        ranks = tuple(fv.index(v) for v in order)
        built = self._memo.setdefault(key, {})
        rec = built.get(ranks)
        if rec is None:
            if built:
                first_ranks, first = next(iter(built.items()))
                rec = _renamed(first, first_ranks, ranks)
            else:
                rec = self._build(phi, fv)
            built[ranks] = rec
        return rec, fv

    def _build(self, phi: Formula, fv) -> Recognizer:
        if isinstance(phi, (Less, Succ)):
            return _atom(type(phi), len(fv), fv.index(phi.x), fv.index(phi.y))
        if isinstance(phi, In):
            return _atom(In, len(fv), fv.index(phi.x), fv.index(phi.X))
        if isinstance(phi, Not):
            return flip(self._go(phi.body)[0])
        if isinstance(phi, (And, Or)):
            # both operands pulled straight onto 2^fv: one closure
            h, (p, q) = pullback(var_alphabet(fv), [
                (rec, _erasing_map(fv, sfv).mapping)
                for rec, sfv in (self._go(phi.left), self._go(phi.right))])
            pairs = p & q if isinstance(phi, And) else p | q
            return self._mini(Recognizer(h, pairs, "strong"))
        if isinstance(phi, Exists):
            v = phi.var
            sub, sfv = self._go(phi.body)
            if v not in sfv:
                return sub
            if not is_second_order(v) and v not in _guarded(phi.body):
                sub = self._go(And(phi.body, In(v, v)))[0]
            return project(sub, _erasing_map(sfv, fv), audit=self.audit)
        raise TypeError("not a formula: %r" % (phi,))


@_depth_safe
def compile_formula(phi, *, audit=False):
    """Compile a formula (or its source text) to a minimized recognizer."""
    if isinstance(phi, str):
        phi = parse(phi)
    return Compiler(audit=audit).compile(phi)


def recognizer_stats(rec: Recognizer):
    """(|S|, |F|, |P|) of a recognizer, as reported by the experiments."""
    sg = rec.morphism.semigroup
    return sg.size, len(linked_pairs(sg)), len(rec.accepting)


# ---------------------------------------------------------------------------
# the three benchmark formula families


def phi_formula(k: int) -> Formula:
    """All of X_1, ..., X_k are hit infinitely often."""
    parts = " & ".join("E y. (x < y & y in X%d)" % i for i in range(1, k + 1))
    return parse("A x. (%s)" % parts)


def psi_formula(k: int) -> Formula:
    """Membership shifts cyclically: x in X_i implies x+1 in X_{i+1}."""
    parts = " & ".join(
        "(x in X%d -> y in X%d)" % (i, i % k + 1) for i in range(1, k + 1))
    return parse("A x. A y. (y = x + 1) -> (%s)" % parts)


def chi_formula(k: int) -> Formula:
    """Every X_i position is followed by an X_{i-1} or X_{i+1} position."""
    parts = " & ".join(
        "(x in X%d -> E y. (x < y & (y in X%d | y in X%d)))"
        % (i, (i - 2) % k + 1, i % k + 1) for i in range(1, k + 1))
    return parse("A x. (%s)" % parts)


FAMILIES = {"phi": phi_formula, "psi": psi_formula, "chi": chi_formula}


# ---------------------------------------------------------------------------
# direct evaluation on ultimately periodic words (test oracle)


@_depth_safe
def evaluate(phi: Formula, word: UPWord, horizon: Optional[int] = None,
             assignment: Optional[Dict[str, int]] = None) -> bool:
    """Decide a formula directly on an ultimately periodic word.

    The word is over the alphabet 2^V (bit-string letters) for V = the
    sorted free second-order variables of the formula.  First-order
    quantifiers range over positions < horizon; on an ultimately periodic
    structure, positions beyond ``|prefix| + |period| * c`` repeat the
    behaviour of earlier ones once c exceeds the number of distinct
    configurations, so a sufficiently large horizon is exact.  Each nested
    quantifier additionally ranges a few period blocks further than the
    one enclosing it: a witness for an inner quantifier may lie just past
    the bound of an outer one (e.g. the y in "every x has a later y"), but
    by periodicity never more than 2^depth periods past the positions
    already fixed.

    Second-order quantification is not supported (the test generator only
    emits first-order quantifiers).
    """
    if assignment is None:
        assignment = {}
    so_vars = sorted(v for v in _free_vars(phi) if is_second_order(v))
    if horizon is None:
        horizon = len(word.prefix) + len(word.period) * 8

    def qdepth(f):
        if isinstance(f, (Less, Succ, In)):
            return 0
        if isinstance(f, Not):
            return qdepth(f.body)
        if isinstance(f, (And, Or)):
            return max(qdepth(f.left), qdepth(f.right))
        return 1 + qdepth(f.body)

    level_pad = len(word.period) * (1 << qdepth(phi))

    def letter_bit(i, X):
        return _bit(word.letter_at(i), so_vars, X)

    def go(f, env, bound):
        if isinstance(f, Less):
            return env[f.x] < env[f.y]
        if isinstance(f, Succ):
            return env[f.y] == env[f.x] + 1
        if isinstance(f, In):
            return letter_bit(env[f.x], f.X) == 1
        if isinstance(f, Not):
            return not go(f.body, env, bound)
        if isinstance(f, And):
            return go(f.left, env, bound) and go(f.right, env, bound)
        if isinstance(f, Or):
            return go(f.left, env, bound) or go(f.right, env, bound)
        if isinstance(f, Exists):
            if is_second_order(f.var):
                raise NotImplementedError(
                    "second-order quantification is not supported by the "
                    "direct evaluator")
            for i in range(bound):
                env2 = dict(env)
                env2[f.var] = i
                if go(f.body, env2, bound + level_pad):
                    return True
            return False
        raise TypeError("not a formula: %r" % (f,))

    return go(phi, dict(assignment), horizon)


def sample_models(rec: Recognizer, n: int) -> List[UPWord]:
    """Up to n distinct ultimately periodic words in the language."""
    h = rec.morphism
    out, seen = [], set()
    for (s, e) in rec.accepting.pairs():
        u = h.rep_word(s)
        v = h.rep_word(e)
        w = UPWord(tuple(u), tuple(v))
        key = str(w)
        if key not in seen:
            seen.add(key)
            out.append(w)
        if len(out) >= n:
            break
    return out
