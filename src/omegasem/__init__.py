"""Algebraic recognition of omega-regular languages.

Languages of infinite words are represented by a morphism from finite
words onto a finite semigroup together with a set of accepting linked
pairs.  The package provides membership testing for ultimately periodic
words, conjugacy-class computation, inclusion/equivalence checks with
counterexamples, syntactic minimization, conversions to and from Büchi
automata, Boolean language operations, and a compiler from MSO formulas.
"""

from .errors import (
    AlphabetMismatch,
    ClosureCapExceeded,
    EmptyPeriod,
    MsoSyntaxError,
    NonAssociative,
    NotClosed,
    NotLinkedPair,
    OmegasemError,
    ParseError,
    UnknownLetter,
)
from .semigroup import Semigroup, close_generators
from .morphism import (
    Morphism,
    PairSet,
    Recognizer,
    UPWord,
    is_empty,
    linked_pairs,
    member,
    universal_recognizer,
)
from .conjugacy import (
    ConjugacyResult,
    UnionFind,
    close_under_conjugation,
    conjugacy_classes,
    is_conjugation_closed,
)
from .inclusion import (
    InclusionResult,
    inclusion_test,
    is_strong,
    universal,
)
from .syntactic import (
    SyntacticResult,
    adversarial_fixture,
    maximal_pair_set,
    minimize,
    syntactic_morphism,
)
from .buchi import (
    BuchiAutomaton,
    buchi_accepts_lasso,
    buchi_to_strong,
    morphism_to_buchi,
    weak_to_strong,
)
from .langops import (
    LetterMap,
    complement,
    intersect,
    inverse_project,
    language_equivalent,
    language_included,
    project,
    union,
)
from .mso import (
    compile_formula,
    evaluate,
    parse,
    recognizer_stats,
    sample_models,
)
from .formats import (
    load_buchi,
    load_lettermap,
    load_recognizer,
    save_buchi,
    save_lettermap,
    save_recognizer,
)

__all__ = [
    "AlphabetMismatch", "ClosureCapExceeded", "EmptyPeriod",
    "MsoSyntaxError", "NonAssociative", "NotClosed",
    "NotLinkedPair", "OmegasemError", "ParseError",
    "UnknownLetter",
    "Semigroup", "close_generators",
    "Morphism", "PairSet", "Recognizer", "UPWord", "is_empty",
    "linked_pairs", "member", "universal_recognizer",
    "ConjugacyResult", "UnionFind", "close_under_conjugation",
    "conjugacy_classes", "is_conjugation_closed",
    "InclusionResult", "inclusion_test", "is_strong", "universal",
    "SyntacticResult", "adversarial_fixture", "maximal_pair_set",
    "minimize", "syntactic_morphism",
    "BuchiAutomaton", "buchi_accepts_lasso", "buchi_to_strong",
    "morphism_to_buchi", "weak_to_strong",
    "LetterMap", "complement", "intersect", "inverse_project",
    "language_equivalent", "language_included", "project", "union",
    "compile_formula", "evaluate", "parse",
    "recognizer_stats", "sample_models",
    "load_buchi", "load_lettermap", "load_recognizer",
    "save_buchi", "save_lettermap", "save_recognizer",
]

__version__ = "0.1.0"
