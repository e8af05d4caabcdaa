import io
import random

import numpy as np
import pytest

from omegasem import (BuchiAutomaton, Morphism, PairSet, ParseError,
                      Recognizer, buchi_to_strong, is_empty, linked_pairs,
                      load_recognizer, morphism_to_buchi, save_recognizer)
from omegasem import formats, semigroup
from omegasem.cli import cli_dispatch
from omegasem.formats import (dumps_buchi, dumps_lettermap, dumps_recognizer,
                              loads_buchi, loads_lettermap, loads_recognizer)
from omegasem.langops import LetterMap
from omegasem.semigroup import Semigroup, cayley_bfs

from conftest import random_recognizer, section5_morphism
from test_buchi import random_buchi


def same_recognizer(a: Recognizer, b: Recognizer) -> bool:
    return (a.mode == b.mode and a.morphism.same_as(b.morphism)
            and a.accepting == b.accepting)


# -- recognizer files --------------------------------------------------------


def test_recognizer_roundtrip_is_stable(rng):
    for _ in range(100):
        rec = random_recognizer(rng, max_size=16)
        text = dumps_recognizer(rec)
        back = loads_recognizer(text)
        assert same_recognizer(rec, back)
        assert dumps_recognizer(back) == text


def test_generated_table_roundtrip(rng):
    for _ in range(25):
        rec = random_recognizer(rng, max_size=16)
        text = dumps_recognizer(rec, generated=True)
        back = loads_recognizer(text)
        assert same_recognizer(rec, back)
        # witness words are read off the BFS decompositions
        sg, sg2 = rec.morphism.semigroup, back.morphism.semigroup
        assert np.array_equal(sg.parent, sg2.parent)
        assert np.array_equal(sg.parent_gen, sg2.parent_gen)
        assert all(sg.word_of(s) == sg2.word_of(s) for s in range(sg.size))
    full = dumps_recognizer(rec)
    assert len(text) <= len(full)


UNREACHABLE = """recognizer v1
mode: weak
alphabet: a
elements: 2
image: a -> 0
table: generated
0
1
accept:
"""


@pytest.mark.parametrize("table, generators, images", [
    # generators listed in another order than the letter images
    ([[(i + j) % 3 for j in range(3)] for i in range(3)], [2, 1], [1, 2]),
    # a repeated generator, and an image that is no generator
    ([[0, 1], [1, 0]], [1, 1], [1, 0]),
], ids=["reordered", "repeated"])
def test_generated_dump_loads_back(table, generators, images):
    # the dump writes one column per distinct image, in image order, as
    # the loader reads them
    h = Morphism(("a", "b"), Semigroup(table, generators), images)
    rec = Recognizer(h, linked_pairs(h.semigroup), "weak")
    text = dumps_recognizer(rec, generated=True)
    back = loads_recognizer(text)
    assert np.array_equal(back.morphism.semigroup.table, h.semigroup.table)
    assert back.morphism.images == h.images
    assert dumps_recognizer(back, generated=True) == text


def test_generated_table_with_unreachable_element(tmp_path):
    # element 1 is its own right multiple, never a product of the image
    with pytest.raises(ParseError, match="unreachable"):
        loads_recognizer(UNREACHABLE)
    path = tmp_path / "unreachable.txt"
    path.write_text(UNREACHABLE)
    assert cli_dispatch(["minimize", str(path)]) == 3


def test_strong_file_must_be_conjugation_closed(tmp_path):
    # (0, 0) is conjugate to (1, 0) in the band, so {(0, 0)} is not closed
    h = section5_morphism()
    band = PairSet.from_pairs(4, [(0, 0)])
    strong = dumps_recognizer(Recognizer(h, band, "strong"))
    with pytest.raises(ParseError, match="conjugation-closed"):
        loads_recognizer(strong)
    path = tmp_path / "band.txt"
    path.write_text(strong)
    assert cli_dispatch(["minimize", str(path)]) == 3
    weak = strong.replace("mode: strong", "mode: weak")
    assert loads_recognizer(weak).accepting == band
    path.write_text(weak)
    assert cli_dispatch(["minimize", "-o", str(tmp_path / "min.txt"),
                         str(path)]) == 0


def test_comments_and_blank_lines_are_ignored():
    rec = random_recognizer(random.Random(3))
    text = dumps_recognizer(rec)
    noisy = "# header comment\n\n" + text.replace(
        "accept:", "accept:   # linked pairs follow\n")
    assert same_recognizer(rec, loads_recognizer(noisy))


def test_save_and_load_paths_and_files(tmp_path, rng):
    rec = random_recognizer(rng)
    path = tmp_path / "rec.txt"
    save_recognizer(rec, str(path))
    assert same_recognizer(rec, load_recognizer(str(path)))
    buf = io.StringIO()
    save_recognizer(rec, buf)
    assert same_recognizer(rec, load_recognizer(io.StringIO(buf.getvalue())))


def parse_error_line(text):
    with pytest.raises(ParseError) as info:
        loads_recognizer(text)
    return info.value.line, str(info.value)


def test_recognizer_errors_carry_line_numbers():
    from omegasem.morphism import PairSet
    h = section5_morphism()
    good = dumps_recognizer(Recognizer(h, PairSet(), "weak"))
    lines = good.splitlines()

    line, msg = parse_error_line("semigroup v1\n")
    assert "header" in msg

    line, msg = parse_error_line(good.replace("recognizer v1",
                                              "recognizer v9"))
    assert "version" in msg and line == 1

    line, msg = parse_error_line(good.replace("mode:", "kind:"))
    assert "mode" in msg and line == 2

    bad = "\n".join(["# padding"] + lines).replace("mode:", "mode: loose")
    line, msg = parse_error_line(bad)
    assert "loose" in msg and line == 3  # comment shifted everything by one

    line, msg = parse_error_line(good.replace("alphabet: a b", "alphabet:"))
    assert "alphabet" in msg

    line, msg = parse_error_line(good + "0 0\n junk\n")
    assert "integers" in msg and line == len(lines) + 2


def test_recognizer_semantic_errors():
    rec = random_recognizer(random.Random(11))
    good = dumps_recognizer(rec)
    n = rec.morphism.semigroup.size

    _, msg = parse_error_line(good + "%d 0\n" % n)
    assert "out of range" in msg

    # a pair (s, e) with se != s or ee != e must be rejected on load
    sg = rec.morphism.semigroup
    not_linked = next((s, e) for s in range(n) for e in range(n)
                      if sg.table[s, e] != s or sg.table[e, e] != e)
    base = good[:good.index("accept:")] + "accept:\n"
    _, msg = parse_error_line(base + "%d %d\n" % not_linked)
    assert "linked" in msg

    # a non-associative full table must be rejected on load
    from omegasem.morphism import PairSet
    h = section5_morphism()
    text = dumps_recognizer(Recognizer(h, PairSet(), "weak"))
    broken = text.replace("table: full\n0 1 0 1", "table: full\n0 1 0 2")
    assert broken != text
    with pytest.raises(ParseError, match=r"\*"):
        loads_recognizer(broken)


def cyclic_group_file(n, corrupt=None):
    """A full-table recognizer file for Z_n generated by 1, optionally with
    ``table[s][t]`` replaced: ``corrupt = (s, t, value)``."""
    rows = [[(s + t) % n for t in range(n)] for s in range(n)]
    if corrupt is not None:
        s, t, value = corrupt
        rows[s][t] = value
    return "\n".join(
        ["recognizer v1", "mode: weak", "alphabet: a", "elements: %d" % n,
         "image: a -> 1", "table: full"]
        + [" ".join(map(str, row)) for row in rows] + ["accept:", ""])


def test_table_row_errors_name_the_row_line():
    # the rows of a full table are parsed as one block; any error still
    # names the line of the row at fault, as a row-by-row parse does
    n = 12
    good = cyclic_group_file(n)
    lines = good.splitlines()
    first = lines.index("table: full") + 1  # 0-based index of row 0

    def with_row(s, text):
        out = list(lines)
        out[first + s] = text
        return "\n".join(out) + "\n"

    row = lines[first + 5].split()
    for token in ("x", "1-2", "1.0", "-"):
        bad = with_row(5, " ".join(row[:3] + [token] + row[4:]))
        line, msg = parse_error_line(bad)
        assert "integers for table row" in msg and line == first + 6, token
    line, msg = parse_error_line(with_row(3, " ".join(lines[first + 3]
                                                      .split()[1:])))
    assert "expected %d integers" % n in msg and line == first + 4
    # a short row and a long row that balance out in the block's total
    short = with_row(2, "0  1 2 3 4 5 6 7 8 9 10")
    out = short.splitlines()
    out[first + 4] = out[first + 4] + "\t4"
    line, msg = parse_error_line("\n".join(out) + "\n")
    assert "got %d" % (n - 1) in msg and line == first + 3
    # rows running into the 'accept:' line or the end of the file
    cut = "\n".join(lines[:first + n - 1] + lines[first + n:]) + "\n"
    line, msg = parse_error_line(cut)
    assert "integers for table row" in msg and line == first + n
    line, msg = parse_error_line("\n".join(lines[:first + 4]) + "\n")
    assert "unexpected end of file" in msg
    # entries past int32 are out of range, not an overflow
    line, msg = parse_error_line(with_row(0, " ".join(["3000000000"] * n)))
    assert "out of range" in msg and line == first + n
    # other whitespace and comments still parse, row by row
    spaced = with_row(1, "\t".join(lines[first + 1].split()) + "  # c")
    assert same_recognizer(loads_recognizer(spaced), loads_recognizer(good))


def test_large_non_associative_table_is_rejected(tmp_path):
    # one entry off in a 210-element group: (4 * 1) * 7 = 13 but
    # 4 * (1 * 7) = 12; every element is still generated by 1
    assert loads_recognizer(cyclic_group_file(210)).morphism.semigroup.size \
        == 210
    broken = cyclic_group_file(210, corrupt=(5, 7, 13))
    with pytest.raises(ParseError, match=r"\(4 \* 1\) \* 7"):
        loads_recognizer(broken)
    path = tmp_path / "z210.txt"
    path.write_text(broken)
    assert cli_dispatch(["minimize", str(path)]) == 3


def test_load_accepts_exactly_the_associative_tables(rng):
    # one corrupted entry of a full table or of right-Cayley rows: the file
    # loads iff its (rebuilt) table is associative by the definition
    outcomes = []
    for _ in range(80):
        rec = random_recognizer(rng, max_size=12, alphabet=("a", "b"))
        sg = rec.morphism.semigroup
        generated = rng.random() < 0.5
        rows = (sg.right_cayley if generated else sg.table).copy()
        rows[rng.randrange(sg.size), rng.randrange(rows.shape[1])] = \
            rng.randrange(sg.size)
        gens = list(sg.generators)
        tree = cayley_bfs(rows if generated else rows[:, gens], gens)
        if len(tree[0]) < sg.size:
            continue  # unreachable elements are a different error
        table = Semigroup.from_right_cayley(rows, gens, tree).table \
            if generated else rows
        lines = dumps_recognizer(Recognizer(rec.morphism,
                                            PairSet()),
                                 generated=generated).split("\n")
        first = [i for i, line in enumerate(lines)
                 if line.startswith("table:")][0] + 1
        lines[first:first + sg.size] = [" ".join(map(str, row))
                                        for row in rows]
        associative = np.array_equal(table[table], table[:, table])
        if associative:
            loads_recognizer("\n".join(lines))
        else:
            with pytest.raises(ParseError, match=r"\*"):
                loads_recognizer("\n".join(lines))
        outcomes.append(associative)
    assert set(outcomes) == {False, True}


def test_declared_size_beyond_the_budget_is_refused_before_the_rows(
        monkeypatch):
    # a 4 000-byte budget admits a table of 31 elements: a file declaring
    # 32 fails at its 'elements:' line, before any row is parsed
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 4_000)

    def no_rows(*args):
        raise AssertionError("a table row was parsed")

    monkeypatch.setattr(formats._Lines, "int_rows", no_rows)
    for kind in ("full", "generated"):
        text = ("recognizer v1\nmode: weak\nalphabet: a\nelements: 32\n"
                "image: a -> 0\ntable: %s\n" % kind)
        with pytest.raises(ParseError, match="line 4: a 32-element table "
                                             "needs 4096 bytes, more than "
                                             "the 4000"):
            loads_recognizer(text)


# -- Buchi files --------------------------------------------------------------


def same_buchi(a: BuchiAutomaton, b: BuchiAutomaton) -> bool:
    return (a.n_states == b.n_states and a.alphabet == b.alphabet
            and np.array_equal(a.initial, b.initial)
            and np.array_equal(a.final, b.final)
            and all(np.array_equal(a.edges[x], b.edges[x])
                    for x in a.alphabet))


def test_buchi_roundtrip(rng):
    # the trimmed automaton of an empty language has no states
    empty = morphism_to_buchi(
        Recognizer(section5_morphism(), PairSet(), "weak"))
    for aut in [empty] + [random_buchi(rng) for _ in range(50)]:
        text = dumps_buchi(aut)
        back = loads_buchi(text)
        assert same_buchi(aut, back)
        assert dumps_buchi(back) == text
    assert empty.n_states == 0
    assert is_empty(buchi_to_strong(loads_buchi(dumps_buchi(empty))))


def test_buchi_errors():
    aut = random_buchi(random.Random(2))
    good = dumps_buchi(aut)
    with pytest.raises(ParseError, match="version"):
        loads_buchi(good.replace("buchi v1", "buchi v2"))
    with pytest.raises(ParseError):
        loads_buchi(good + "0 a 0 0\n")  # malformed transition
    with pytest.raises(ParseError):
        loads_buchi(good + "0 z 0\n")  # unknown letter
    with pytest.raises(ParseError):
        loads_buchi(good.replace("trans:", "arrows:"))
    with pytest.raises(ParseError, match="negative"):
        loads_buchi(good.replace("states: %d" % aut.n_states, "states: -1"))


def test_buchi_state_count_beyond_the_budget_is_refused(monkeypatch):
    # two 31 x 31 boolean matrices take 1 922 bytes; 32 states take 2 048
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 2_000)
    text = "buchi v1\nstates: %d\nalphabet: a b\ninitial: 0\nfinal: 0\n"
    assert loads_buchi(text % 31).n_states == 31
    with pytest.raises(ParseError, match="line 3: a 32-element table needs "
                                         "2048 bytes, more than the 2000"):
        loads_buchi(text % 32)


# -- letter-map files ----------------------------------------------------------


def test_lettermap_roundtrip():
    lmap = LetterMap(("00", "01", "10", "11"), ("0", "1"),
                     {"00": "0", "01": "1", "10": "0", "11": "1"})
    text = dumps_lettermap(lmap)
    back = loads_lettermap(text)
    assert back.source == lmap.source
    assert back.target == lmap.target
    assert back.mapping == lmap.mapping
    assert dumps_lettermap(back) == text


def test_lettermap_errors():
    lmap = LetterMap(("a", "b"), ("c",), {"a": "c", "b": "c"})
    good = dumps_lettermap(lmap)
    with pytest.raises(ParseError):
        loads_lettermap(good.replace("map: a -> c", "map: a -> d"))
    with pytest.raises(ParseError):
        loads_lettermap(good.replace("map: a -> c\n", ""))  # a left unmapped
