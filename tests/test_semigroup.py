import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from omegasem import (ClosureCapExceeded, NonAssociative, Semigroup,
                      close_generators, compile_formula, language_included,
                      minimize, mso, semigroup, syntactic_morphism,
                      weak_to_strong)
from omegasem.mso import psi_formula
from omegasem.semigroup import _MEMORY_LIMIT, cayley_bfs, preimages

from conftest import (random_recognizer, random_transformation_morphism,
                      s1_table, shuffled)


def z_mod(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Semigroup(table, [1])


def test_cyclic_group_basics():
    sg = z_mod(6)
    assert sg.size == 6
    assert sg.mul(4, 5) == 3
    # the only idempotent of a group is the identity
    assert list(np.nonzero(sg.idempotents)[0]) == [0]
    assert list(sg.idempotent_powers) == [0] * 6


def test_word_of_reconstructs_elements():
    sg = z_mod(5)
    for s in range(5):
        word = sg.word_of(s)
        acc = None
        for j in word:
            g = sg.generators[j]
            acc = g if acc is None else sg.mul(acc, g)
        assert acc == s


def test_rejects_non_associative_table():
    # left-zero on {0,1} except one corrupted entry
    table = [[0, 0], [1, 0]]
    with pytest.raises(NonAssociative):
        Semigroup(table, [0, 1])


def test_rejects_unreachable_elements():
    table = [[0, 0], [0, 1]]  # 1 is an identity, not generated by 0
    with pytest.raises(ValueError):
        Semigroup(table, [0])


Z2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("table, generators", [
    (np.array([[2 ** 32]], dtype=np.int64), [0]),  # int32 would wrap it to 0
    ([[0.7]], [0]),                                # int32 would truncate it
    (Z2, [-1]),                                    # a wrapped index: 1
    (Z2, [1.9]),                                   # a truncated one: 1
    (Z2, [5]),                                     # past the table
], ids=["entry-2**32", "entry-0.7", "generator--1", "generator-1.9",
        "generator-5"])
def test_ids_are_checked_before_narrowing(table, generators):
    with pytest.raises(ValueError):
        Semigroup(table, generators)


def test_close_generators_matches_direct_table():
    def compose(f, g):
        return tuple(g[x] for x in f)

    values = [(1, 0, 0), (0, 2, 1)]
    sg, seeds, elements = close_generators(
        values, lambda f: [compose(f, g) for g in values])
    assert seeds == [0, 1]
    # closure reproduces function composition everywhere
    for i, f in enumerate(elements):
        for j, g in enumerate(elements):
            assert elements[sg.mul(i, j)] == compose(f, g)


def test_close_generators_matches_reference_bfs():
    # a plain breadth-first search with a binary product: the closure must
    # number, seed and multiply exactly as it does
    def compose(f, g):
        return tuple(g[x] for x in f)

    def reference(values):
        elements = list(dict.fromkeys(values))
        gens = list(elements)
        parent = [-1] * len(gens)
        parent_gen = [-1] * len(gens)
        s = 0
        while s < len(elements):
            for j, g in enumerate(gens):
                p = compose(elements[s], g)
                if p not in elements:
                    elements.append(p)
                    parent.append(s)
                    parent_gen.append(j)
            s += 1
        number = {v: i for i, v in enumerate(elements)}
        table = [[number[compose(x, y)] for y in elements] for x in elements]
        seeds = [number[v] for v in values]
        return elements, seeds, table, parent, parent_gen

    rng = random.Random(30)
    for trial in range(30):
        d = rng.randint(2, 4)
        values = [tuple(rng.randrange(d) for _ in range(d))
                  for _ in range(rng.randint(1, 3))]
        if trial % 3 == 0:  # two letters with one value
            values.insert(rng.randint(0, len(values)), rng.choice(values))
        gens = list(dict.fromkeys(values))
        sg, seeds, elements = close_generators(
            values, lambda f: [compose(f, g) for g in gens])
        ref = reference(values)
        assert (elements, seeds) == (ref[0], ref[1])
        assert sg.table.tolist() == ref[2]
        assert sg.parent.tolist() == ref[3]
        assert sg.parent_gen.tolist() == ref[4]


def test_close_generators_duplicate_values_share_element():
    sg, seeds, _ = close_generators([2, 2, 3],
                                    lambda a: [(a * b) % 10 for b in (2, 3)])
    assert seeds[0] == seeds[1] != seeds[2]


def test_recorded_tree_is_the_search_of_the_built_rows():
    # the closure records each element's parent as it discovers it; a
    # breadth-first search of the rows it built finds the same tree and
    # the same numbering, for closures and for minimised quotients
    rng = random.Random(31)
    for trial in range(60):
        if trial % 2:
            sg = random_transformation_morphism(rng).semigroup
        else:
            rec = random_recognizer(rng, max_size=16)
            sg = minimize(rec).morphism.semigroup
        order, parent, parent_gen = cayley_bfs(sg.right_cayley,
                                               sg.generators)
        assert order == list(range(sg.size))
        assert sg.parent.tolist() == parent
        assert sg.parent_gen.tolist() == parent_gen


def test_library_semigroups_are_not_searched_again(monkeypatch):
    # closures and quotients keep the tree their enumeration found; a
    # library semigroup is searched again only to renumber it onto other
    # generators, as renaming letters does (``mso._renamed``, at most one
    # search per renaming), and tables from outside (the constructor, the
    # loader) are searched.  Inclusion of two 11-element weak recognizers,
    # each upgraded through a Büchi automaton before their product is
    # closed, searches nothing
    rng = random.Random(0)
    recs = [random_recognizer(rng, max_size=12, alphabet=("a", "b"))
            for _ in range(2)]
    calls = []
    renamings = []

    def spy(*args):
        calls.append(args)
        return cayley_bfs(*args)

    def renamed(*args):
        renamings.append(args)
        return rename(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("omegasem") \
                and getattr(mod, "cayley_bfs", None) is cayley_bfs:
            monkeypatch.setattr(mod, "cayley_bfs", spy)
    rename = mso._renamed
    monkeypatch.setattr(mso, "_renamed", renamed)
    compile_formula(psi_formula(3))
    assert len(calls) <= len(renamings) == 1
    calls.clear()
    language_included(*recs)
    assert calls == []
    Semigroup([[0]], [0])
    assert len(calls) == 1


def test_closure_stops_where_its_table_would_not_fit(monkeypatch):
    # a 4 000-byte budget admits a table of 31 elements; the chain
    # s -> s + 1 stops at the 32nd, before any table is built
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 4_000)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(semigroup, "_fill_table", no_table)
    products = []

    def right(a):
        products.append(a)
        return [a + 1]

    with pytest.raises(ClosureCapExceeded,
                       match="closure exceeded 31 elements, the most whose "
                             "table fits in the 4000 bytes"):
        close_generators([0], right)
    assert len(products) == 31


def test_table_beyond_the_memory_limit_is_refused():
    # a chain s -> s + 1: its n^2 int32 table needs 160 GB at n = 200 000,
    # more than this process may use, so the build stops before allocating
    n = max(200_000, math.isqrt(_MEMORY_LIMIT // 4) + 1)
    chain = np.minimum(np.arange(1, n + 1), n - 1)[:, None]
    parent = np.arange(-1, n - 1)
    parent_gen = np.minimum(parent, 0)
    with pytest.raises(ClosureCapExceeded, match="element table needs"):
        Semigroup.from_right_cayley(chain, [0],
                                    (range(n), parent, parent_gen))


def test_light_test_in_row_blocks_reports_the_first_mismatch(monkeypatch):
    # blocks of one row, of a few rows or of the whole table: Light's test
    # names the mismatch that the test over whole arrays finds first
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(4, 30)
        sg = Semigroup((np.arange(n)[:, None] + np.arange(n)) % n, [1, 2])
        t = sg.table.copy()
        t[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
        sg.table = t
        want = None
        for g in sg.generators:
            bad = np.argwhere(t[t[:, g]] != t[:, t[g]])  # (x g) y, x (g y)
            if len(bad):
                x, y = bad[0]
                want = ("(%d * %d) * %d != %d * (%d * %d)"
                        % (x, g, y, x, g, y))
                break
        for block in (1, 3 * n + 1, n * n):
            monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", block)
            if want is None:
                sg.check_associativity()
            else:
                with pytest.raises(NonAssociative) as err:
                    sg.check_associativity()
                assert str(err.value) == want


def test_green_classes_rectangular_band():
    # (i,j)(k,l) = (i,l) on 2x2: R-classes by first coordinate, L by second
    table = [[2 * (s // 2) + (t % 2) for t in range(4)] for s in range(4)]
    sg = Semigroup(table, [1, 2])
    rcls, nr = sg.green_classes("R")
    lcls, nl = sg.green_classes("L")
    assert nr == 2 and nl == 2
    assert rcls[0] == rcls[1] and rcls[2] == rcls[3] and rcls[0] != rcls[2]
    assert lcls[0] == lcls[2] and lcls[1] == lcls[3] and lcls[0] != lcls[1]


def test_green_classes_of_group_are_trivial():
    sg = z_mod(4)
    _, nr = sg.green_classes("R")
    _, nl = sg.green_classes("L")
    assert nr == 1 and nl == 1


def brute_force_green(sg, kind):
    """Classes by the definition over S^1, numbered by first occurrence.

    s R t iff s x = t and t y = s for some x, y in S^1; s L t iff x s = t and
    y t = s.
    """
    n = sg.size
    table = s1_table(sg)
    if kind == "L":
        table = table.T
    reach = [set(table[s].tolist()) for s in range(n)]
    class_of = []
    firsts = []
    for s in range(n):
        for cid, t in enumerate(firsts):
            if t in reach[s] and s in reach[t]:
                class_of.append(cid)
                break
        else:
            class_of.append(len(firsts))
            firsts.append(s)
    return class_of, len(firsts)


def test_green_classes_match_definition(rng, monkeypatch):
    for _ in range(20):
        sg = random_transformation_morphism(rng, max_size=60).semigroup
        for kind in ("R", "L"):
            want = brute_force_green(sg, kind)
            # one block, one row per block, and blocks of several rows
            # that leave a short last one
            for block in (1 << 20, 1, 64):
                monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", block)
                class_of, count = sg.green_classes(kind)
                assert (list(class_of), count) == want


def test_green_bitmap_is_packed_and_built_in_blocks(monkeypatch):
    # |S|^2 / 8 bytes of packed rows plus a few bytes per entry of one
    # block, where an unpacked bitmap alone would take |S|^2 bytes
    n, block = 1000, 1 << 12
    sg = Semigroup((np.arange(n)[:, None] + np.arange(n)) % n, [1])
    monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", block)
    tracemalloc.start()
    try:
        classes = [sg.green_classes(kind) for kind in ("R", "L")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [count for _, count in classes] == [1, 1]
    assert peak < n * n // 8 + 32 * block < n * n


def test_quotient_table_is_read_in_blocks(monkeypatch):
    # Z_n onto Z_m: the quotient's |Q|^2 int32 table, one block's
    # temporaries (its columns at the representatives, their intp copy
    # as indices and their classes: 16 bytes per entry of a block at
    # most) and a few words per element of index arrays.  Gathering the
    # representatives' rows at once takes |Q| |S| entries more
    n, m, block = 1200, 600, 1 << 12
    sg, _, values = close_generators([1], lambda x: [(x + 1) % n])
    labels = [v % m for v in values]
    monkeypatch.setattr(semigroup, "_LIGHT_BLOCK", block)
    bound = 4 * m * m + 16 * block + 64 * n

    def peak_of(build):
        tracemalloc.start()
        try:
            out = build()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (q, class_of), peak = peak_of(lambda: sg.quotient(labels, [0]))
    want, _, _ = close_generators([1], lambda x: [(x + 1) % m])
    assert np.array_equal(q.table, want.table)
    assert np.array_equal(q.parent, want.parent)
    assert peak < bound
    reps = np.unique(class_of, return_index=True)[1]
    _, unblocked = peak_of(lambda: class_of[sg.table[reps][:, reps]])
    assert unblocked > bound


def test_discovery_order_is_read_from_the_tree():
    ordered, _, _ = close_generators([1], lambda x: [(x + 1) % 5])
    assert ordered.discovery_ordered
    assert Semigroup(ordered.table, [0]).discovery_ordered
    assert not z_mod(5).discovery_ordered  # generated by element 1
    # Z_3 with ids 0, 1, 2 for the values 1, 0, 2: the search from
    # element 0 finds element 2 before element 1
    value = [1, 0, 2]
    table = [[value.index((value[i] + value[j]) % 3) for j in range(3)]
             for i in range(3)]
    assert not Semigroup(table, [0]).discovery_ordered


def built_semigroups(rng):
    """Closures, quotients by their syntactic congruence, and renamings
    (the discrete partition at permuted letter images), of inputs in and
    out of discovery order.  Yields ``(input, labels, images)``; the
    input's derived data is cached."""
    for trial in range(60):
        rec = weak_to_strong(random_recognizer(rng, max_size=12,
                                               alphabet=("a", "b", "c")))
        if trial % 3 == 2:  # elements renumbered, a table from outside
            rec, _ = shuffled(rec, rng)
        h = rec.morphism
        yield h.semigroup, syntactic_morphism(rec).projection, h.images
        images = list(h.images)
        rng.shuffle(images)
        yield h.semigroup, np.arange(h.semigroup.size), images


def test_builders_record_discovery_order(rng):
    # closures and quotients record that they are numbered in discovery
    # order as they build it, and the record agrees with the tree; tables
    # from outside are checked when asked
    tree_check = Semigroup.discovery_ordered.func
    unordered = 0
    for sg, labels, images in built_semigroups(rng):
        unordered += not tree_check(sg)
        q, _ = sg.quotient(labels, images)
        assert q.__dict__["discovery_ordered"] is True
        assert tree_check(q)
    assert unordered >= 20
    for _ in range(20):
        sg = random_transformation_morphism(rng, max_size=40).semigroup
        assert sg.__dict__["discovery_ordered"] is True
        assert tree_check(sg)
        twin = Semigroup(sg.table, sg.generators)
        assert "discovery_ordered" not in twin.__dict__
        assert twin.discovery_ordered


def derived_from_table(sg):
    """Idempotents, idempotent powers and linked pairs straight from the
    table."""
    t = sg.table
    idem = [t[s, s] == s for s in range(sg.size)]
    powers = []
    for s in range(sg.size):
        p = s
        while not idem[p]:
            p = t[p, s]
        powers.append(p)
    linked = {(s, e) for e in range(sg.size) if idem[e]
              for s in range(sg.size) if t[s, e] == s}
    return idem, powers, linked


def test_quotients_inherit_derived_data(rng):
    # a quotient inherits what its input has cached, mapped through the
    # projection, and it equals what the quotient's own table gives; an
    # input with nothing cached passes nothing on
    inherited = 0
    for sg, labels, images in built_semigroups(rng):
        fresh = Semigroup(sg.table, sg.generators)
        for source in (sg, fresh):
            q, _ = source.quotient(labels, images)
            if q is source:
                continue
            names = ("idempotents", "idempotent_powers", "linked")
            cached = [name in q.__dict__ for name in names]
            assert cached == [source is sg] * 3
            inherited += cached[0]
            idem, powers, linked = derived_from_table(q)
            assert q.idempotents.tolist() == idem
            assert q.idempotent_powers.tolist() == powers
            assert q.linked == linked
            assert not q.idempotents.flags.writeable
            assert not q.idempotent_powers.flags.writeable
    assert inherited > 60


def test_repeated_generators_are_dropped():
    sg = Semigroup([[0, 1], [1, 0]], [1, 1])
    assert sg.generators == (1,)
    assert sg.right_cayley.tolist() == [[1], [0]]


def test_library_semigroups_are_read_only():
    sg, _, _ = close_generators([1], lambda x: [(x + 1) % 5])
    for a in (sg.table, sg.right_cayley, sg.parent, sg.parent_gen):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        sg.table[0, 0] = 0


def test_an_outside_table_is_copied_and_frozen():
    # writing into the caller's array afterwards changes nothing: the
    # checks, the stored rows and the table all keep the checked products
    t = ((np.arange(3)[:, None] + np.arange(3)) % 3).astype(np.int32)
    sg = Semigroup(t, [1])
    t[0, 0] = 2
    assert sg.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert sg.right_cayley[:, 0].tolist() == [1, 2, 0]
    for a in (sg.table, sg.right_cayley, sg.parent, sg.parent_gen):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        sg.table[0, 0] = 2


def test_row_accessors_read_the_products(rng):
    for _ in range(20):
        sg = random_transformation_morphism(rng, max_size=30).semigroup
        xs = [rng.randrange(sg.size) for _ in range(3)]
        right, left = sg.right_rows(xs), sg.left_rows(xs)
        idem, cols = sg.idempotent_columns
        assert idem.tolist() == [e for e in range(sg.size)
                                 if sg.mul(e, e) == e]
        for s in range(sg.size):
            assert right[s].tolist() == [sg.mul(s, x) for x in xs]
            assert left[:, s].tolist() == [sg.mul(x, s) for x in xs]
            assert cols[s].tolist() == [sg.mul(s, e) for e in idem]
        assert np.array_equal(sg.right_rows(sg.generators), sg.right_cayley)
        assert not cols.flags.writeable
        assert sg.idempotent_columns is sg.idempotent_columns


def test_idempotent_power_is_idempotent_everywhere(rng):
    for _ in range(20):
        h = random_transformation_morphism(rng, max_size=100)
        sg = h.semigroup
        e = sg.idempotent_powers
        for s in range(sg.size):
            assert sg.mul(e[s], e[s]) == e[s]
            # walk the powers s, s^2, ... up to the first idempotent one
            p = s
            while sg.mul(p, p) != p:
                p = sg.mul(p, s)
            assert e[s] == p
        assert sg.idempotent_powers is sg.idempotent_powers


def test_preimages_match_definition(rng):
    for _ in range(30):
        domain = rng.randint(0, 12)
        size = rng.randint(1, 15)  # often larger than the domain
        images = [rng.randrange(size) for _ in range(domain)]
        order, start = preimages(np.asarray(images, dtype=np.int32), size)
        assert len(start) == size + 1
        for t in range(size):
            assert order[start[t]:start[t + 1]] == [
                s for s in range(domain) if images[s] == t]
