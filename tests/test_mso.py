import random

import pytest

from omegasem import (MsoSyntaxError, UPWord, compile_formula, evaluate,
                      member, parse)
from omegasem.mso import (And, Exists, In, Less, Not, Or, Succ, chi_formula,
                          free_vars, phi_formula, psi_formula,
                          recognizer_stats, sample_models, table_row,
                          var_alphabet)

from conftest import random_upword


# -- parser ---------------------------------------------------------------


def test_parse_atoms_and_precedence():
    phi = parse("x < y & y in X1 | !(y = x + 1)")
    assert phi == Or(And(Less("x", "y"), In("y", "X1")),
                     Not(Succ("x", "y")))


def test_parse_quantifiers_and_implication():
    phi = parse("A x. (x in X -> E y. x < y)")
    expected = Not(Exists("x", Not(Or(Not(In("x", "X")),
                                      Exists("y", Less("x", "y"))))))
    assert phi == expected


def test_parse_errors_have_positions():
    for bad in ["x <", "E x", "(x < y", "x in in", "& x < y", "x @ y"]:
        with pytest.raises(MsoSyntaxError):
            parse(bad)


def test_free_vars_and_alphabet():
    phi = parse("E x. (x in X2 & x in X1)")
    assert free_vars(phi) == frozenset({"X1", "X2"})
    assert var_alphabet(("X1", "X2")) == ("00", "01", "10", "11")
    assert var_alphabet(()) == ("-",)


# -- compilation of single atoms -------------------------------------------


def bitword(prefix, period):
    return UPWord(tuple(prefix.split()), tuple(period.split()))


def test_membership_atom():
    rec = compile_formula("E x. x in X")  # X is nonempty somewhere
    assert member(rec, bitword("0 1", "0"))
    assert member(rec, bitword("", "0 1"))
    assert not member(rec, bitword("", "0"))


def test_order_atom():
    rec = compile_formula("E x. E y. (x < y & x in X & y in X)")
    assert member(rec, bitword("1 1", "0"))
    assert member(rec, bitword("1", "0 1"))
    assert not member(rec, bitword("1", "0"))


def test_successor_atom():
    rec = compile_formula("E x. E y. (y = x + 1 & x in X & y in X)")
    assert member(rec, bitword("0 1 1", "0"))
    assert not member(rec, bitword("0 1 0", "1 0"))


def test_closed_formulas_over_empty_vocabulary():
    yes = compile_formula("E x. E y. x < y")
    assert member(yes, UPWord((), ("-",)))
    no = compile_formula("E x. A y. y < x")  # no maximal position
    assert not member(no, UPWord((), ("-",)))


# -- random formulas against the direct evaluator ---------------------------


def random_formula(rng, fo_pool=("x", "y"), so_pool=("X1", "X2"), depth=3):
    """A closed-FO random formula (second-order variables stay free)."""

    def go(depth, scope):
        choices = ["exists"]
        if scope:
            choices += ["atom", "atom"]
        if depth > 0:
            choices += ["not", "and", "or"] + (["exists"] if len(scope) < 2
                                               else [])
        kind = rng.choice(choices)
        if kind == "atom" or (kind == "exists" and not [v for v in fo_pool
                                                        if v not in scope]):
            x = rng.choice(sorted(scope))
            which = rng.randrange(3)
            if which == 0:
                return In(x, rng.choice(so_pool))
            y = rng.choice(sorted(scope))
            return Less(x, y) if which == 1 else Succ(x, y)
        if kind == "exists":
            fresh = [v for v in fo_pool if v not in scope]
            v = rng.choice(fresh)
            return Exists(v, go(depth - 1, scope | {v}))
        if kind == "not":
            return Not(go(depth - 1, scope))
        left = go(depth - 1, scope)
        right = go(depth - 1, scope)
        return And(left, right) if kind == "and" else Or(left, right)

    return go(depth, frozenset())


def check_against_evaluator(phi, n_words, rng):
    rec = compile_formula(phi)
    so_vars = sorted(v for v in free_vars(phi))
    alphabet = var_alphabet(so_vars)
    size = rec.morphism.semigroup.size
    for _ in range(n_words):
        w = random_upword(rng, alphabet, max_prefix=3, max_period=3)
        horizon = len(w.prefix) + len(w.period) * (2 * size + 4)
        assert member(rec, w) == evaluate(phi, w, horizon=horizon), \
            "%s on %s" % (phi, w)


def test_random_formulas_match_evaluator():
    rng = random.Random(20260826)
    for _ in range(12):
        phi = random_formula(rng)
        check_against_evaluator(phi, 25, rng)


def test_named_families_match_evaluator():
    rng = random.Random(5)
    for fam in (phi_formula, psi_formula, chi_formula):
        check_against_evaluator(fam(1), 40, rng)


# -- benchmark families ------------------------------------------------------


def test_family_stats_frozen():
    # regression freeze of the k = 2 statistics produced by this pipeline
    assert recognizer_stats(compile_formula(phi_formula(2))) == (4, 9, 1)
    assert recognizer_stats(compile_formula(psi_formula(2))) == (12, 16, 11)
    assert recognizer_stats(compile_formula(chi_formula(2))) == (4, 9, 2)


def test_phi_language_semantics():
    # every variable set hit infinitely often
    rec = compile_formula(phi_formula(2))
    assert member(rec, bitword("", "01 10"))
    assert member(rec, bitword("00 00", "11"))
    assert not member(rec, bitword("01 10", "01"))
    assert not member(rec, bitword("", "00"))


def test_psi_language_semantics():
    # successors shift membership X1 -> X2 -> X1
    rec = compile_formula(psi_formula(2))
    assert member(rec, bitword("", "10 01"))
    assert member(rec, bitword("", "00"))
    assert not member(rec, bitword("", "10 10"))
    assert not member(rec, bitword("", "10 00"))


def test_table_row_shape():
    row = table_row(2)
    assert set(row) == {"phi", "psi", "chi"}
    assert all(len(v) == 3 for v in row.values())


def test_table_row_audit_finds_every_set_closed():
    # the audit raises NotClosed wherever minimization meets a non-closed P
    for k in (2, 3):
        assert table_row(k, audit=True) == table_row(k)


def test_sample_models_are_members():
    rec = compile_formula(phi_formula(2))
    models = sample_models(rec, 5)
    assert models
    for w in models:
        assert member(rec, w)


def test_memoized_compile_is_deterministic():
    a = compile_formula(phi_formula(3))
    b = compile_formula(phi_formula(3))
    assert a.morphism.same_as(b.morphism)
    assert a.accepting == b.accepting
