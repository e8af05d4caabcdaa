import hashlib
import itertools
import os
import random

import pytest

from omegasem import (BuchiAutomaton, MsoSyntaxError, UPWord, compile_formula,
                      evaluate, member, parse)
from omegasem import buchi, langops, mso, syntactic
from omegasem.cli import table1_lines
from omegasem.formats import dumps_recognizer
from omegasem.langops import (complement, intersect, inverse_project,
                              language_included, project, union)
from omegasem.syntactic import minimize
from omegasem.mso import (FAMILIES, And, Compiler, Exists, In, Less, Not, Or,
                          Succ, _erasing_map, _guarded, chi_formula,
                          free_vars, is_second_order, miniscope, phi_formula,
                          psi_formula, recognizer_stats, sample_models,
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


def test_over_deep_formulas_are_syntax_errors():
    with pytest.raises(MsoSyntaxError, match="nested too deeply"):
        parse("!" * 5000 + "X")
    deep = Not(In("x", "X"))
    for _ in range(5000):
        deep = Exists("x", deep)
    with pytest.raises(MsoSyntaxError, match="nested too deeply"):
        compile_formula(deep)
    negations = In("x", "X")
    for _ in range(3000):
        negations = Not(negations)
    with pytest.raises(MsoSyntaxError, match="nested too deeply"):
        evaluate(Exists("x", negations), bitword("", "1"))
    alternating = In("x", "X")
    for i in range(3000):
        alternating = (And, Or)[i % 2](alternating, In("y", "Y"))
    with pytest.raises(MsoSyntaxError, match="nested too deeply"):
        miniscope(alternating)
    negations = In("x", "X")
    for _ in range(5000):
        negations = Not(negations)
    with pytest.raises(MsoSyntaxError, match="nested too deeply"):
        free_vars(negations)


def test_long_negation_and_conjunction_chains_compile():
    rec = compile_formula("!" * 481 + "E x. x in X")
    assert member(rec, bitword("", "0")) and not member(rec, bitword("", "1"))
    chain = " & ".join("(E x%d. x%d in X)" % (i % 3, i % 3)
                       for i in range(480))
    rec = compile_formula(chain)
    assert member(rec, bitword("", "1")) and not member(rec, bitword("", "0"))


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
        for k in (2, 3):
            check_against_evaluator(fam(k), 8, rng)


# -- miniscoping and shared subformulas ----------------------------------------


def conjuncts(phi):
    if isinstance(phi, And):
        return conjuncts(phi.left) + conjuncts(phi.right)
    return [phi]


def subformulas(phi):
    yield phi
    for child in vars(phi).values():
        if not isinstance(child, str):
            yield from subformulas(child)


def test_miniscope_matches_evaluator_and_keeps_free_vars():
    rng = random.Random(20261018)
    for _ in range(60):
        phi = random_formula(rng, fo_pool=("x", "y", "z"), depth=4)
        small = miniscope(phi)
        assert free_vars(small) == free_vars(phi)
        alphabet = var_alphabet(sorted(free_vars(phi)))
        for _ in range(4):
            w = random_upword(rng, alphabet, max_prefix=2, max_period=2)
            assert evaluate(small, w) == evaluate(phi, w), "%s on %s" % (phi, w)


def test_miniscope_is_idempotent():
    rng = random.Random(11)
    formulas = [random_formula(rng, fo_pool=("x", "y", "z"), depth=4)
                for _ in range(200)]
    formulas += [fam(k) for fam in FAMILIES.values() for k in (2, 3, 4)]
    for phi in formulas:
        small = miniscope(phi)
        assert miniscope(small) == small


def test_miniscope_splits_the_families():
    parts = conjuncts(miniscope(phi_formula(4)))
    assert sorted(sorted(free_vars(p)) for p in parts) == [
        ["X1"], ["X2"], ["X3"], ["X4"]]
    # psi: the quantifier-free successor test is distributed so that each
    # x in X_i leaves the scope of y
    parts = conjuncts(miniscope(psi_formula(3)))
    assert sorted(sorted(free_vars(p)) for p in parts) == [
        ["X1", "X2"], ["X1", "X3"], ["X2", "X3"]]
    # chi: x < y is not distributed over (y in X_a | y in X_b), and the
    # repeated operand of chi k = 2 (y in X2 | y in X2) is dropped
    assert And(Less("x", "y"), Or(In("y", "X3"), In("y", "X2"))) \
        in subformulas(miniscope(chi_formula(3)))
    assert not any(isinstance(f, Or)
                   for f in subformulas(miniscope(chi_formula(2))))


def test_miniscope_respects_shadowing():
    phi = parse("E y. (x < y & y in X1) & E y. (x < y & y in X2)")
    assert phi == Exists("y", And(And(Less("x", "y"), In("y", "X1")),
                                  Exists("y", And(Less("x", "y"),
                                                  In("y", "X2")))))
    assert miniscope(phi) == And(
        Exists("y", And(Less("x", "y"), In("y", "X2"))),
        Exists("y", And(Less("x", "y"), In("y", "X1"))))


def test_rewrite_keeps_every_output_byte():
    # the compiler without miniscope, node by node, gives the same file
    rng = random.Random(77)
    for _ in range(25):
        phi = random_formula(rng, fo_pool=("x", "y", "z"),
                             so_pool=("X1", "X2", "X3"), depth=4)
        as_written, _ = Compiler()._go(phi)
        assert dumps_recognizer(as_written) == \
            dumps_recognizer(compile_formula(phi)), phi


def test_and_or_pull_back_like_inverse_projections():
    # an & or | node whose operands have different free variables is one
    # pull-back onto 2^fv; it must equal the two-step route that first
    # inverse-projects each operand onto 2^fv
    rng = random.Random(1018)
    checked = 0
    for _ in range(40):
        phi = random_formula(rng, fo_pool=("x", "y", "z"),
                             so_pool=("X1", "X2", "X3"), depth=4)
        for node in subformulas(miniscope(phi)):
            if not isinstance(node, (And, Or)):
                continue
            fv = free_vars(node)
            sides = [Compiler()._go(side) for side in (node.left, node.right)]
            if sides[0][1] == sides[1][1]:
                continue
            lifted = [inverse_project(rec, _erasing_map(fv, sfv))
                      for rec, sfv in sides]
            op = intersect if isinstance(node, And) else union
            assert dumps_recognizer(Compiler()._go(node)[0]) == \
                dumps_recognizer(op(*lifted)), node
            checked += 1
    assert checked >= 20


def test_renamed_subformulas_share_one_recognizer():
    c = Compiler()
    a, afv = c._go(parse("A x. E y. (x < y & y in X1)"))
    b, bfv = c._go(parse("A z. E u. (z < u & u in X7)"))
    assert a is b and afv == ("X1",) and bfv == ("X7",)
    # operands of & and | are unordered
    left, _ = c._go(parse("x < y & y in X"))
    assert c._go(parse("y in X & x < y"))[0] is left
    # a renaming that swaps the free variables' sorted order reuses the
    # entry through a permutation of the letters' bits
    less = c._go(parse("x < y"))[0]
    entries = len(c._memo)
    swapped = c._go(parse("y < x"))[0]
    assert len(c._memo) == entries
    assert dumps_recognizer(swapped) != dumps_recognizer(less)
    assert dumps_recognizer(swapped) == \
        dumps_recognizer(Compiler()._go(parse("y < x"))[0])
    # bound variables are told apart by their binding depth
    later = c._go(parse("E x. E y. (x < y & y in X)"))[0]
    assert c._go(parse("E x. E y. (y < x & y in X)"))[0] is not later


def table1_formulas(k_max):
    return [fam(k) for k in range(2, k_max + 1) for fam in FAMILIES.values()]


def test_complement_needs_no_minimisation():
    # every compiled recognizer is syntactic, so flipping its accepting set
    # is what complement (which minimises) returns
    rng = random.Random(1107)
    formulas = table1_formulas(3) + [
        random_formula(rng, fo_pool=("x", "y", "z"),
                       so_pool=("X1", "X2", "X3"), depth=4)
        for _ in range(25)]
    for phi in formulas:
        want = dumps_recognizer(complement(compile_formula(phi)))
        assert dumps_recognizer(compile_formula(Not(phi))) == want, phi
        assert dumps_recognizer(Compiler()._go(Not(phi))[0]) == want, phi


def rename(phi, sigma):
    """phi with its free second-order variables renamed by ``sigma``."""
    if isinstance(phi, In):
        return In(phi.x, sigma.get(phi.X, phi.X))
    if isinstance(phi, (Less, Succ)):
        return phi
    if isinstance(phi, Not):
        return Not(rename(phi.body, sigma))
    if isinstance(phi, (And, Or)):
        return type(phi)(rename(phi.left, sigma), rename(phi.right, sigma))
    return Exists(phi.var, rename(phi.body, sigma))


def test_sharing_up_to_any_renaming_is_exact(monkeypatch):
    renamed = []
    real = mso._renamed
    monkeypatch.setattr(mso, "_renamed",
                        lambda *args: renamed.append(args) or real(*args))
    rng = random.Random(3101)
    names = ("X1", "X2", "X3")
    formulas = [psi_formula(3), chi_formula(3)]
    while len(formulas) < 8:
        phi = random_formula(rng, fo_pool=("x", "y", "z"), so_pool=names,
                             depth=4)
        if free_vars(phi) == set(names):
            formulas.append(phi)
    for phi in formulas:
        for perm in itertools.permutations(names):
            if perm == names:
                continue
            c = Compiler()
            c.compile(phi)
            psi = rename(phi, dict(zip(names, perm)))
            assert dumps_recognizer(c.compile(psi)) == \
                dumps_recognizer(Compiler().compile(psi)), (phi, perm)
    # some hit moves three bits in a cycle, where a permutation and its
    # inverse differ
    assert any(len(old) == 3 and all(a != b for a, b in zip(old, new))
               for _, old, new in renamed)
    # psi's wrap-around conjunct reuses the first one through a permutation
    renamed.clear()
    compile_formula(psi_formula(3))
    assert renamed


def test_guarded_variables_need_no_singleton_product():
    rng = random.Random(2203)
    formulas = table1_formulas(3) + [
        random_formula(rng, fo_pool=("x", "y", "z"),
                       so_pool=("X1", "X2"), depth=4)
        for _ in range(30)]
    # nodes as written too: miniscoping splits away most of the | whose
    # operands guard different variables
    nodes = dict.fromkeys(node for phi in formulas
                          for root in (phi, miniscope(phi))
                          for node in subformulas(root))
    checked = 0
    for node in nodes:
        guarded = sorted(_guarded(node))
        if not guarded:
            continue
        rec, fv = Compiler()._go(node)
        for v in guarded:
            assert not is_second_order(v) and v in fv
            r = fv.index(v)
            single = mso._atom(In, len(fv), r, r)
            assert language_included(rec, single).included, (node, v)
            route = project(intersect(rec, single),
                            _erasing_map(fv, set(fv) - {v}))
            assert dumps_recognizer(Compiler()._go(Exists(v, node))[0]) \
                == dumps_recognizer(route), (node, v)
            checked += 1
    assert checked >= 100


def test_table1_pass_operation_counts(monkeypatch):
    # one pass over the nine mso-table1 formulas (k = 2..4); before free
    # complements, sharing up to any renaming and guarded variables it
    # made 150 minimisations and 124 closures; every minimisation settles
    # within the Moore rounds, so none falls back to Hopcroft or builds a
    # preimage index.  The atoms and the one-position constraint are built
    # once per process, by the first pass; after it no Büchi automaton is
    # converted and only the formulas' own nodes minimise.
    clear_constants()
    calls = {"minimise": 0, "close": 0, "profiles": 0, "hopcroft": 0,
             "preimages": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(syntactic, "syntactic_morphism",
                        counting("minimise", syntactic.syntactic_morphism))
    close = counting("close", langops.close_generators)
    monkeypatch.setattr(langops, "close_generators", close)
    monkeypatch.setattr(buchi, "close_generators", close)
    monkeypatch.setattr(syntactic, "_hopcroft",
                        counting("hopcroft", syntactic._hopcroft))
    monkeypatch.setattr(syntactic, "preimages",
                        counting("preimages", syntactic.preimages))
    monkeypatch.setattr(mso, "buchi_to_strong",
                        counting("profiles", mso.buchi_to_strong))
    for phi in table1_formulas(4):
        compile_formula(phi)
    assert (calls["profiles"], calls["minimise"], calls["close"]) == \
        (4, 57, 57)
    calls.update(profiles=0, minimise=0, close=0)
    for phi in table1_formulas(4):
        compile_formula(phi)
    assert (calls["profiles"], calls["minimise"], calls["close"]) == \
        (0, 53, 53)
    assert calls["hopcroft"] == 0
    assert calls["preimages"] == 0


# SHA-256 of dumps_recognizer and the triple, computed before the rewrite
# and the shared subformulas existed (phi k = 6 took about 30 s then)
LARGER_ROWS = {
    ("phi", 5): ((32, 243, 1), "198a3bc67c341fe1e3a45da69d4c1363"
                               "4d58dc6dbfc02e9f794e9a4afeee3c01"),
    ("psi", 5): ((539, 571, 538), "90f0eab7f748a5b4e566051739328b96"
                                  "d5bfd3cf6d883abe7b09944424b7e81e"),
    ("chi", 5): ((72, 283, 62), "3560c7e2ea30fd3a544a9e17c30ab7d3"
                                "3fe19238969344bff70b91c28b343de1"),
    ("phi", 6): ((64, 729, 1), "f7fb7bfa673d74572e00a6fa099ac8b0"
                               "a1264e8acfe456ee29b1943db072828c"),
    ("psi", 6): ((1863, 1927, 1862), "36f89a99fd6b63ad46cf1c8eab069166"
                                     "a630d8db00c37f312696579377ac1e0d"),
    ("chi", 6): ((183, 934, 220), "8803c12a9b49f307996aeb568661281b"
                                  "13f05bc6e7d3fb3b0d1959b6bc3dbbed"),
    # closures above 180 elements, which table1 never reaches
    ("chi", 7): ((499, 3573, 681), "220fc33f03bb2835de9b6a75a2caf6e2"
                                   "bf6fbf161314848ba30179ec7798f28d"),
    ("phi", 8): ((256, 6561, 1), "291bd1222701c8597b3863ef180f94d6"
                                 "81605f02df25222cf385c61240226eee"),
}


@pytest.mark.parametrize("family,k", sorted(LARGER_ROWS))
def test_larger_rows_are_pinned(family, k):
    rec = compile_formula(FAMILIES[family](k))
    triple, digest = LARGER_ROWS[family, k]
    assert recognizer_stats(rec) == triple
    assert hashlib.sha256(dumps_recognizer(rec).encode()).hexdigest() == digest


# -- a second route to the table1 rows ---------------------------------------
# Hand-built deterministic Büchi automata for the three families.  The
# syntactic recognizer numbered from the letter images is canonical, so
# minimize(buchi_to_strong(aut)) must give the compiler's bytes; the route
# shares only the profile closure and minimisation with the compiler.


def deterministic_buchi(k, start, step, final):
    """The reachable part of the automaton over 2^{X1..Xk} whose state
    after reading a letter is ``step(state, hit)``, with ``hit`` the set
    of track ranks the letter holds (None: no transition)."""
    letters = var_alphabet(range(k))
    number, order, triples = {start: 0}, [start], []
    for state in order:  # grows while it is read
        for a in letters:
            nxt = step(state, {i for i in range(k) if a[i] == "1"})
            if nxt is not None:
                if nxt not in number:
                    number[nxt] = len(order)
                    order.append(nxt)
                triples.append((number[state], a, number[nxt]))
    return BuchiAutomaton.from_triples(
        len(order), letters, triples, [0],
        [i for i, state in enumerate(order) if final(state)])


def phi_buchi(k):
    """k + 1 counter states: the round of X1..Xk met so far, final when a
    round completes; one letter may advance the counter several times."""
    def step(c, hit):
        c = 0 if c == k else c
        while c < k and c in hit:
            c += 1
        return c
    return deterministic_buchi(k, 0, step, lambda c: c == k)


def psi_buchi(k):
    """2^k states, each the set of tracks required at the current
    position; every state is final."""
    def step(required, hit):
        if not required <= hit:
            return None
        return frozenset((i + 1) % k for i in hit)
    return deterministic_buchi(k, frozenset(), step, lambda _: True)


def chi_buchi(k):
    """Pending obligations O and a breakpoint subset B of O.  A state is
    final when B is empty; the step after it watches all of O again."""
    def step(state, hit):
        owed, watched = state

        def kept(tracks):  # those with no neighbour in this letter
            return frozenset(i for i in tracks if not hit
                             & {(i - 1) % k, (i + 1) % k})
        return kept(owed) | hit, kept(watched or owed)
    return deterministic_buchi(k, (frozenset(), frozenset()), step,
                               lambda state: not state[1])


FAMILY_BUCHI = {"phi": phi_buchi, "psi": psi_buchi, "chi": chi_buchi}
FULL = os.environ.get("OMEGASEM_ACCEPTANCE_FULL") == "1"


@pytest.mark.parametrize("family,k", [
    *((family, k) for family in ("phi", "psi", "chi") for k in range(1, 5)),
    ("psi", 5), ("psi", 6), ("chi", 5),
    pytest.param("psi", 7, marks=pytest.mark.skipif(
        not FULL, reason="set OMEGASEM_ACCEPTANCE_FULL=1"))])
def test_a_second_route_gives_the_compiled_bytes(family, k):
    aut = FAMILY_BUCHI[family](k)
    assert all((m.sum(axis=1) <= 1).all() for m in aut.edges.values())
    route = minimize(buchi.buchi_to_strong(aut))
    assert dumps_recognizer(route, generated=True) == dumps_recognizer(
        compile_formula(FAMILIES[family](k)), generated=True)


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


def quiet(_msg):
    pass


def test_table1_lines_shape():
    lines = table1_lines(False, clock=quiet)
    assert lines[0] == "formula k |S| |F| |P|"
    assert [line.split()[:2] for line in lines[1:]] == [
        [name, str(k)] for k in range(2, 6) for name in ("phi", "psi", "chi")]
    assert all(len(line.split()) == 5 for line in lines)


def test_table1_lines_audit_finds_every_set_closed():
    # the audit raises NotClosed wherever minimization meets a non-closed P
    assert table1_lines(False, clock=quiet, audit=True) == \
        table1_lines(False, clock=quiet)


def test_sample_models_are_members():
    rec = compile_formula(phi_formula(2))
    models = sample_models(rec, 5)
    assert models
    for w in models:
        assert member(rec, w)


# -- constants shared across compiles --------------------------------------


def clear_constants():
    for cache in (mso._atom, mso._alphabet, mso._erasing):
        cache.cache_clear()


def cold(aut):
    return dumps_recognizer(minimize(buchi.buchi_to_strong(aut)))


def test_constants_equal_a_cold_build():
    atoms = [(kind, 2, i, 1 - i) for kind in (In, Less, Succ) for i in (0, 1)]
    atoms += [(Less, 1, 0, 0), (Succ, 1, 0, 0)]  # x < x and x = x + 1
    # x in x, the one-position constraint, at widths 1-4
    atoms += [(In, width, i, i) for width in range(1, 5)
              for i in range(width)]
    for key in atoms:
        assert dumps_recognizer(mso._atom(*key)) == \
            cold(mso._atom_buchi(*key)), key


def test_one_position_constraint_holds_a_track_once():
    rng = random.Random(2204)
    for width in range(1, 5):
        for i in range(width):
            rec = mso._atom(In, width, i, i)
            for _ in range(40):
                w = random_upword(rng, var_alphabet(range(width)))
                hits = [a[i] for a in w.prefix + w.period].count("1")
                want = hits == 1 and all(a[i] == "0" for a in w.period)
                assert member(rec, w) == want, (width, i, w)


def test_compile_order_does_not_show():
    formulas = table1_formulas(3)
    digests = []
    for order in (formulas, formulas[::-1]):
        clear_constants()
        compiled = {phi: dumps_recognizer(compile_formula(phi))
                    for phi in order}
        digests.append([hashlib.sha256(compiled[phi].encode()).hexdigest()
                        for phi in formulas])
    assert digests[0] == digests[1]


def test_constants_are_read_only():
    clear_constants()
    texts = ("x < y", "E y. (x < y & y in X)")
    want = [dumps_recognizer(compile_formula(text)) for text in texts]
    rec = compile_formula("x < y")
    assert rec is mso._atom(Less, 2, 0, 1)
    with pytest.raises(ValueError):
        rec.morphism.semigroup.table[0, 0] = 1
    with pytest.raises(AttributeError):
        rec.accepting.add((0, 0))
    assert [dumps_recognizer(compile_formula(text)) for text in texts] == want


def test_audited_compile_after_a_plain_one():
    # the constants were built with every audit check, and the nodes of an
    # audited compile are still audited
    for phi in table1_formulas(3):
        want = dumps_recognizer(compile_formula(phi))
        assert dumps_recognizer(compile_formula(phi, audit=True)) == want


def test_memoized_compile_is_deterministic():
    a = compile_formula(phi_formula(3))
    b = compile_formula(phi_formula(3))
    assert a.morphism.same_as(b.morphism)
    assert a.accepting == b.accepting
