"""Hypothesis fuzzing of the input boundaries.

The three file loaders and the formula parser take text from outside.  On
any text each must either succeed or raise an ``OmegasemError``, which the
CLI turns into exit code 3; any other exception would be exit code 4.
Inputs are valid files or formulas with a few random edits, so that most
of them get past the header and reach the deeper checks.
"""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from omegasem import (LetterMap, OmegasemError, PairSet, Recognizer,
                      morphism_to_buchi, parse, weak_to_strong)
from omegasem.formats import (dumps_buchi, dumps_lettermap, dumps_recognizer,
                              loads_buchi, loads_lettermap, loads_recognizer)

from conftest import random_recognizer, section5_morphism
from test_cli import format_formula
from test_properties import formulas


def _recognizer_files():
    h = section5_morphism(with_c=True)
    weak = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    rec = random_recognizer(random.Random(3), max_size=6,
                            alphabet=("a", "b"))
    return [dumps_recognizer(r, generated=g)
            for r in (weak, weak_to_strong(weak), rec) for g in (False, True)]


def _buchi_files():
    h = section5_morphism()
    return [dumps_buchi(morphism_to_buchi(
        Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")))]


def _lettermap_files():
    return [dumps_lettermap(LetterMap(("a", "b", "c"), ("x", "y"),
                                      {"a": "x", "b": "y", "c": "x"}))]


# pieces of the formats and the logic, numbers near and far from the
# declared sizes, and arbitrary text
payloads = st.one_of(
    st.sampled_from([
        "", " ", "\n", "#", ":", "->", "-", "0", "1", "7", "-1", "999999",
        "1e3", "a", "b", "z", "weak", "strong", "full", "generated",
        "mode:", "elements:", "image:", "table:", "accept:", "states:",
        "initial:", "final:", "trans:", "map:", "source:", "target:",
        "(", ")", "&", "|", "!", "~", ".", "<", "=", "+", "E x.", "A X.",
        " in ", "x", "X"]),
    st.integers(min_value=-3, max_value=10 ** 7).map(str),
    st.text(max_size=6))


@st.composite
def edited(draw, texts):
    """One of ``texts`` after one to four edits: a span of characters or a
    number replaced by a payload, or a line deleted or repeated."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("span", "number", "drop", "repeat")))
        numbers = [m.span() for m in re.finditer("[0-9]+", text)]
        if kind == "number" and numbers:
            i, j = draw(st.sampled_from(numbers))
        elif kind in ("drop", "repeat"):
            lines = text.split("\n")
            k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[k:k + 1] = [] if kind == "drop" else [lines[k]] * 2
            text = "\n".join(lines)
            continue
        else:
            i = draw(st.integers(min_value=0, max_value=len(text)))
            j = draw(st.integers(min_value=i,
                                 max_value=min(len(text), i + 8)))
        text = text[:i] + draw(payloads) + text[j:]
    return text


def succeeds_or_refuses(load, text):
    try:
        load(text)
    except OmegasemError:
        pass


@settings(max_examples=300, deadline=None)
@given(edited(_recognizer_files()))
def test_recognizer_loader_refuses_with_a_typed_error(text):
    succeeds_or_refuses(loads_recognizer, text)


@settings(max_examples=300, deadline=None)
@given(edited(_buchi_files()))
def test_buchi_loader_refuses_with_a_typed_error(text):
    succeeds_or_refuses(loads_buchi, text)


@settings(max_examples=300, deadline=None)
@given(edited(_lettermap_files()))
def test_lettermap_loader_refuses_with_a_typed_error(text):
    succeeds_or_refuses(loads_lettermap, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(formulas.map(format_formula).flatmap(
    lambda text: edited([text])), st.text(max_size=40)))
def test_parser_refuses_with_a_typed_error(text):
    succeeds_or_refuses(parse, text)
