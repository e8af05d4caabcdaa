"""Morphisms onto finite semigroups and the recognizers built from them.

A recognizer is a surjective morphism h from nonempty words onto a finite
semigroup together with an accepting set P of linked pairs.  It denotes the
omega-language  [P] = union over (s, e) in P of h^-1(s) (h^-1(e))^omega.
P is a ``PairSet``, the set of its pairs; ``semigroup`` defines it, and it
is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import EmptyPeriod, NotLinkedPair, UnknownLetter
from .semigroup import PairSet, Semigroup, check_ids


@dataclass(frozen=True)
class UPWord:
    """An ultimately periodic word ``prefix . period^omega``."""

    prefix: Tuple[str, ...]
    period: Tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise EmptyPeriod("period must be nonempty")

    def __str__(self):
        sep = "" if all(len(a) == 1 for a in self.prefix + self.period) else " "
        return "%s(%s)^w" % (sep.join(self.prefix), sep.join(self.period))

    def letter_at(self, i):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


class Morphism:
    """A surjective morphism from A+ onto a finite semigroup.

    ``images[i]`` is the element for letter ``alphabet[i]``.  Surjectivity
    holds by construction: the semigroup is generated by the letter images.
    """

    def __init__(self, alphabet: Sequence[str], semigroup: Semigroup,
                 images: Sequence[int]):
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters in alphabet")
        self.semigroup = semigroup
        self.images = check_ids(images, semigroup.size, "letter images")
        if len(self.images) != len(self.alphabet):
            raise ValueError("one image per letter required")
        if not set(semigroup.generators) <= set(self.images):
            raise ValueError("letter images miss a generator")
        self._letter_index = {a: i for i, a in enumerate(self.alphabet)}
        # first letter mapping to each generator element, for witness words
        self._gen_letter = {}
        for a, s in zip(self.alphabet, self.images):
            self._gen_letter.setdefault(s, a)

    def image(self, letter):
        i = self._letter_index.get(letter)
        if i is None:
            raise UnknownLetter("letter %r not in alphabet" % (letter,))
        return self.images[i]

    def evaluate(self, word: Iterable[str]):
        """h(word) for a nonempty finite word."""
        s = None
        mul = self.semigroup.mul
        for a in word:
            x = self.image(a)
            s = x if s is None else mul(s, x)
        if s is None:
            raise ValueError("cannot evaluate the empty word")
        return s

    def rep_word(self, s):
        """A shortest representative word (tuple of letters) with image s."""
        gens = self.semigroup.generators
        return tuple(self._gen_letter[gens[j]]
                     for j in self.semigroup.word_of(s))

    def same_as(self, other: "Morphism"):
        """Whether both morphisms are one: equal letters, images,
        generators and right Cayley rows.  The rows fix every product,
        because s t is the walk of a word of t from s.  Generators listed
        in different orders count as different."""
        return (self.alphabet == other.alphabet
                and self.images == other.images
                and self.semigroup.generators == other.semigroup.generators
                and np.array_equal(self.semigroup.right_cayley,
                                   other.semigroup.right_cayley))


def linked_pairs(semigroup: Semigroup) -> PairSet:
    """All linked pairs (s, e): e idempotent, s * e = s.

    The set is the semigroup's cached ``linked`` pair set.
    """
    return semigroup.linked


@dataclass
class Recognizer:
    """A morphism with an accepting set of linked pairs.

    ``mode`` is 'strong' when the accepting set is conjugation-closed, else
    'weak'.  Strong recognizers support complement and fast membership.
    """

    morphism: Morphism
    accepting: PairSet
    mode: str = "weak"

    def __post_init__(self):
        if self.mode not in ("weak", "strong"):
            raise ValueError("mode must be 'weak' or 'strong'")
        if not self.accepting.issubset(linked_pairs(self.morphism.semigroup)):
            raise NotLinkedPair("accepting set contains a non-linked pair")

    @property
    def alphabet(self):
        return self.morphism.alphabet


def universal_recognizer(morphism: Morphism) -> Recognizer:
    """The recognizer of A^omega over a given morphism (P = all linked pairs)."""
    return Recognizer(morphism, linked_pairs(morphism.semigroup), "strong")


def is_empty(rec: Recognizer) -> bool:
    """[P] is empty iff P is empty (every [s][e]^omega is nonempty)."""
    return len(rec.accepting) == 0


def member(rec: Recognizer, word: UPWord) -> bool:
    """Decide ``word in [P]``.

    Strong mode checks the single pair (h(u) f, f) with f the idempotent
    power of h(v).  Weak mode scans all factorizations v' = v1 v2 of an
    idempotent-normalized period, looking for (h(u' v1), h(v2 v' v1)) in P.
    """
    h = rec.morphism
    mul = h.semigroup.mul
    prefix, period = word.prefix, word.period
    if not prefix:
        # rotate one period into the prefix so that h(u) is defined
        prefix = period
    hv = h.evaluate(period)
    f = int(h.semigroup.idempotent_powers[hv])
    hu = h.evaluate(prefix)
    if rec.mode == "strong":
        return (mul(hu, f), f) in rec.accepting
    # weak: normalize to u' = u v^m, v' = v^m with m least, h(v)^m = f,
    # then scan splits of v'
    m, power = 1, hv
    while power != f:
        m, power = m + 1, mul(power, hv)
    imgs = [h.image(a) for a in period * m]
    # pref: h(v'[:1]), h(v'[:2]), ...; suf: ..., h(v'[2:]), h(v'[1:])
    pref = accumulate(imgs, mul)
    suf = list(accumulate(reversed(imgs[1:]), lambda acc, x: mul(x, acc)))
    hup = mul(hu, f)  # h(u') = h(u v^m) = h(u) f
    for v1, v2 in zip(pref, suf[::-1] + [None]):
        # e = h(v2) h(v') h(v1) with h(v') = f; v2 is empty at the end
        e = mul(f if v2 is None else mul(v2, f), v1)
        if (mul(hup, v1), e) in rec.accepting:
            return True
    return False
