"""Plain-text serialization for recognizers, Buchi automata and letter maps.

All three formats are line oriented: a version header, then ``key: value``
directives.  ``#`` starts a comment; blank lines are ignored.  Element and
state ids are dense decimal integers starting at 0.  Saving always emits a
canonical form, so save -> load -> save is byte stable.

Recognizer files carry the multiplication table either in full (row-major,
one row per line) or as ``table: generated`` followed by the right-Cayley
rows ``s * g_j`` only, which keeps files for large semigroups linear in
|S| * |generators| instead of quadratic in |S|; the loader rebuilds the full
table along a ``cayley_bfs`` of these rows.  The declared element count is
checked against ``semigroup.check_table_budget`` as soon as it is read, and
so is a Büchi file's state count, whose automaton holds one n x n boolean
matrix per letter.
"""

from __future__ import annotations

from typing import List, Optional, TextIO, Union

import numpy as np

from .buchi import BuchiAutomaton
from .conjugacy import is_conjugation_closed
from .errors import ClosureCapExceeded, NotClosed, OmegasemError, ParseError
from .langops import LetterMap
from .morphism import Morphism, PairSet, Recognizer
from .semigroup import Semigroup, cayley_bfs, check_table_budget

RECOGNIZER_VERSION = "v1"
BUCHI_VERSION = "v1"
LETTERMAP_VERSION = "v1"


# -- line scanner -------------------------------------------------------------


class _Lines:
    """Comment/blank-stripping scanner that tracks line numbers for errors."""

    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((no, line))
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.items):
            return self.items[self.pos][1]
        return None

    def next(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise ParseError("unexpected end of file, expected %s" % what)
        no, line = self.items[self.pos]
        self.pos += 1
        self.line_no = no
        return line

    def fail(self, message: str):
        raise ParseError(message, line=getattr(self, "line_no", None))

    def directive(self, what: str):
        """Next line split as ``key: rest``."""
        line = self.next(what)
        if ":" not in line:
            self.fail("expected '%s', got %r" % (what, line))
        key, rest = line.split(":", 1)
        return key.strip(), rest.strip()

    def expect(self, key: str) -> str:
        got, rest = self.directive("%s:" % key)
        if got != key:
            self.fail("expected '%s:', got '%s:'" % (key, got))
        return rest

    def arrow(self, key: str, left: str, what: str) -> str:
        """The right side, stripped, of the next ``key: left -> <what>``
        line."""
        rest = self.expect(key)
        parts = rest.split("->")
        if len(parts) != 2 or parts[0].strip() != left:
            self.fail("expected '%s: %s -> <%s>', got %r"
                      % (key, left, what, rest))
        return parts[1].strip()

    def ints(self, what: str, count: Optional[int] = None) -> List[int]:
        fields = self.next(what).split()
        try:
            out = [int(f) for f in fields]
        except ValueError:
            self.fail("expected integers for %s" % what)
        if count is not None and len(out) != count:
            self.fail("expected %d integers for %s, got %d"
                      % (count, what, len(out)))
        return out

    def int_rows(self, what: str, n: int, width: int) -> np.ndarray:
        """The next n lines as an n x width int64 array, with the errors
        of ``ints``.

        Rows of digits and single spaces are parsed as one block; if any of
        the n lines is not of that form, all are parsed line by line, so
        that an error names the same line as ``ints`` would.
        """
        items = self.items[self.pos:self.pos + n]
        block = "\n".join(line for _, line in items)
        if len(items) == n \
                and not block.encode().translate(None, b"0123456789 \n") \
                and "  " not in block \
                and all(line.count(" ") == width - 1 for _, line in items):
            self.pos += n
            self.line_no = items[-1][0]
            return np.fromstring(block, dtype=np.int64,
                                 sep=" ").reshape(n, width)
        return np.array([self.ints(what, width) for _ in range(n)],
                        dtype=np.int64).reshape(n, width)

    def done(self):
        if self.pos < len(self.items):
            no, line = self.items[self.pos]
            raise ParseError("trailing content %r" % line, line=no)


def _check_letters(letters, fail):
    if not letters:
        fail("alphabet must be nonempty")
    if len(set(letters)) != len(letters):
        fail("duplicate letters in alphabet")


def _check_header(lines: _Lines, kind: str, version: str):
    fields = lines.next("header").split()
    if len(fields) != 2 or fields[0] != kind:
        lines.fail("expected header '%s %s'" % (kind, version))
    if fields[1] != version:
        lines.fail("unsupported %s format version %r (expected %s)"
                   % (kind, fields[1], version))


# -- recognizer files ----------------------------------------------------------


def dumps_recognizer(rec: Recognizer, *, generated: bool = False) -> str:
    """Render a recognizer; ``generated`` stores right-Cayley rows only."""
    h = rec.morphism
    sg = h.semigroup
    out = ["recognizer %s" % RECOGNIZER_VERSION,
           "mode: %s" % rec.mode,
           "alphabet: %s" % " ".join(h.alphabet),
           "elements: %d" % sg.size]
    for a, s in zip(h.alphabet, h.images):
        out.append("image: %s -> %d" % (a, s))
    if generated:
        # the columns the loader reads: one per distinct image, in order
        out.append("table: generated")
        rows = sg.right_rows(list(dict.fromkeys(h.images)))
    else:
        out.append("table: full")
        rows = sg.table
    for row in rows:
        out.append(" ".join(str(int(x)) for x in row))
    out.append("accept:")
    for s, e in rec.accepting.pairs():
        out.append("%d %d" % (s, e))
    return "\n".join(out) + "\n"


def loads_recognizer(text: str) -> Recognizer:
    """Parse a recognizer file; every check runs before anything is returned.

    Beyond the syntax: a table within the memory budget, ids in range,
    every element generated by the letter images, an associative table
    (Light's test, also on a table rebuilt from ``table: generated``
    rows), accepting pairs linked, and for ``mode: strong`` a
    conjugation-closed accepting set.  Any failure is a ``ParseError``.
    """
    lines = _Lines(text)
    _check_header(lines, "recognizer", RECOGNIZER_VERSION)
    mode = lines.expect("mode")
    if mode not in ("weak", "strong"):
        lines.fail("mode must be 'weak' or 'strong', got %r" % mode)
    alphabet = lines.expect("alphabet").split()
    _check_letters(alphabet, lines.fail)
    try:
        n = int(lines.expect("elements"))
    except ValueError:
        lines.fail("elements must be an integer")
    if n <= 0:
        lines.fail("elements must be positive")
    try:
        check_table_budget(n)
    except ClosureCapExceeded as exc:
        lines.fail(str(exc))
    images = []
    for a in alphabet:
        try:
            s = int(lines.arrow("image", a, "id"))
        except ValueError:
            lines.fail("image id must be an integer")
        if not 0 <= s < n:
            lines.fail("image id %d out of range" % s)
        images.append(s)
    generators = list(dict.fromkeys(images))
    kind = lines.expect("table")
    width = {"full": n, "generated": len(generators)}.get(kind)
    if width is None:
        lines.fail("table must be 'full' or 'generated', got %r" % kind)
    rows = lines.int_rows("table row", n, width)
    if rows.min() < 0 or rows.max() >= n:
        lines.fail("table entries out of range")
    rows = rows.astype(np.int32)
    if lines.expect("accept"):
        lines.fail("unexpected content after 'accept:'")
    pairs = []
    while lines.peek() is not None:
        s, e = lines.ints("accepting pair", 2)
        if not (0 <= s < n and 0 <= e < n):
            lines.fail("accepting pair (%d, %d) out of range" % (s, e))
        pairs.append((s, e))
    lines.done()
    try:
        if kind == "generated":
            tree = cayley_bfs(rows, generators)
            if len(tree[0]) != n:
                raise ParseError("elements unreachable from generators")
            sg = Semigroup.from_right_cayley(rows, generators, tree)
            sg.check_associativity()
        else:
            sg = Semigroup(rows, generators)
        accepting = PairSet.from_pairs(n, pairs)
        rec = Recognizer(Morphism(alphabet, sg, images), accepting, mode)
        if mode == "strong" and not is_conjugation_closed(rec.morphism,
                                                          accepting):
            raise NotClosed("strong accepting set is not conjugation-closed")
        return rec
    except (ValueError, OmegasemError) as exc:
        raise ParseError(str(exc))


# -- Buchi files ---------------------------------------------------------------


def dumps_buchi(aut: BuchiAutomaton) -> str:
    out = ["buchi %s" % BUCHI_VERSION,
           "states: %d" % aut.n_states,
           "alphabet: %s" % " ".join(aut.alphabet),
           "initial: %s" % " ".join(str(int(q)) for q in np.nonzero(aut.initial)[0]),
           "final: %s" % " ".join(str(int(q)) for q in np.nonzero(aut.final)[0])]
    for a in aut.alphabet:
        mat = aut.edges[a]
        for p, q in zip(*np.nonzero(mat)):
            out.append("trans: %d %s %d" % (p, a, q))
    return "\n".join(out) + "\n"


def loads_buchi(text: str) -> BuchiAutomaton:
    lines = _Lines(text)
    _check_header(lines, "buchi", BUCHI_VERSION)
    try:
        n = int(lines.expect("states"))
    except ValueError:
        lines.fail("states must be an integer")
    if n < 0:
        lines.fail("states must not be negative")
    alphabet = lines.expect("alphabet").split()
    _check_letters(alphabet, lines.fail)
    try:
        # one n x n boolean matrix per letter
        check_table_budget(n, entry_bytes=len(alphabet))
    except ClosureCapExceeded as exc:
        lines.fail(str(exc))

    def state_list(rest, what):
        out = []
        for f in rest.split():
            try:
                q = int(f)
            except ValueError:
                lines.fail("%s states must be integers" % what)
            if not 0 <= q < n:
                lines.fail("%s state %d out of range" % (what, q))
            out.append(q)
        return out

    initial = state_list(lines.expect("initial"), "initial")
    final = state_list(lines.expect("final"), "final")
    triples = []
    while lines.peek() is not None:
        key, rest = lines.directive("trans:")
        if key != "trans":
            lines.fail("unknown directive '%s:'" % key)
        fields = rest.split()
        if len(fields) != 3:
            lines.fail("expected 'trans: <from> <letter> <to>'")
        if fields[1] not in alphabet:
            lines.fail("unknown letter %r in transition" % fields[1])
        try:
            p, q = int(fields[0]), int(fields[2])
        except ValueError:
            lines.fail("transition states must be integers")
        if not (0 <= p < n and 0 <= q < n):
            lines.fail("transition state out of range")
        triples.append((p, fields[1], q))
    lines.done()
    return BuchiAutomaton.from_triples(n, alphabet, triples, initial, final)


# -- letter-map files ----------------------------------------------------------


def dumps_lettermap(lmap: LetterMap) -> str:
    out = ["lettermap %s" % LETTERMAP_VERSION,
           "source: %s" % " ".join(lmap.source),
           "target: %s" % " ".join(lmap.target)]
    for a in lmap.source:
        out.append("map: %s -> %s" % (a, lmap.mapping[a]))
    return "\n".join(out) + "\n"


def loads_lettermap(text: str) -> LetterMap:
    lines = _Lines(text)
    _check_header(lines, "lettermap", LETTERMAP_VERSION)
    source = lines.expect("source").split()
    _check_letters(source, lines.fail)
    target = lines.expect("target").split()
    _check_letters(target, lines.fail)
    mapping = {}
    for a in source:
        b = lines.arrow("map", a, "letter")
        if b not in target:
            lines.fail("target letter %r not in target alphabet" % b)
        mapping[a] = b
    lines.done()
    return LetterMap(tuple(source), tuple(target), mapping)


# -- path helpers --------------------------------------------------------------


def _read(path_or_file: Union[str, TextIO]) -> str:
    try:
        if hasattr(path_or_file, "read"):
            return path_or_file.read()
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("input is not UTF-8 text: %s" % exc)


def _write(text: str, path_or_file: Union[str, TextIO]):
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_recognizer(path_or_file) -> Recognizer:
    return loads_recognizer(_read(path_or_file))


def save_recognizer(rec: Recognizer, path_or_file, **kwargs):
    _write(dumps_recognizer(rec, **kwargs), path_or_file)


def load_buchi(path_or_file) -> BuchiAutomaton:
    return loads_buchi(_read(path_or_file))


def save_buchi(aut: BuchiAutomaton, path_or_file):
    _write(dumps_buchi(aut), path_or_file)


def load_lettermap(path_or_file) -> LetterMap:
    return loads_lettermap(_read(path_or_file))


def save_lettermap(lmap: LetterMap, path_or_file):
    _write(dumps_lettermap(lmap), path_or_file)
