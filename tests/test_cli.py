import os
import random
import resource
import subprocess
import sys

import pytest

import omegasem
from omegasem import (PairSet, Recognizer, member, minimize, mso, semigroup,
                      universal_recognizer)
from omegasem.cli import cli_dispatch
from omegasem.formats import load_recognizer, save_lettermap, save_recognizer
from omegasem.langops import LetterMap
from omegasem.morphism import UPWord

from conftest import (oversized_closure, oversized_pair, product_sizes,
                      random_recognizer, random_upword, section5_morphism)


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = cli_dispatch(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return go


@pytest.fixture
def band_files(tmp_path):
    """Two-letter band fixtures: the universal and the empty language."""
    h = section5_morphism()
    full = tmp_path / "full.txt"
    save_recognizer(universal_recognizer(h), str(full))
    empty = tmp_path / "empty.txt"
    save_recognizer(Recognizer(h, PairSet(), "strong"), str(empty))
    return str(full), str(empty)


def test_exit_codes_for_usage_and_data_errors(run, tmp_path):
    code, _, _ = run("no-such-command")
    assert code == 2
    code, _, _ = run("minimize")  # missing argument
    assert code == 2
    code, _, err = run("minimize", str(tmp_path / "absent.txt"))
    assert code == 3 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("recognizer v1\nmode: maybe\n")
    code, _, err = run("check-strong", str(bad))
    assert code == 3 and "mode" in err
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe\x00recognizer")
    for argv in (("minimize", str(binary)), ("mso", "compile", str(binary))):
        code, _, err = run(*argv)
        assert code == 3 and "UTF-8" in err
    deep = tmp_path / "deep.mso"
    deep.write_text("!" * 5000 + "X")
    code, _, err = run("mso", "compile", str(deep))
    assert code == 3 and "nested too deeply" in err


def test_unexpected_exception_is_an_internal_error(run, tmp_path,
                                                   monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(mso, "compile_formula", broken)
    formula = tmp_path / "f.mso"
    formula.write_text("E x. x in X")
    code, out, err = run("mso", "compile", str(formula))
    assert code == 4 and out == ""
    assert "internal error: RuntimeError: boom" in err


def test_check_strong_verdicts(run, tmp_path, band_files):
    full, _ = band_files
    code, out, _ = run("check-strong", full)
    assert code == 0 and out.strip() == "true"

    h = section5_morphism()
    weak = Recognizer(h, PairSet.from_pairs(4, [(0, 0)]), "weak")
    path = tmp_path / "weak.txt"
    save_recognizer(weak, str(path))
    code, out, _ = run("check-strong", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "false" and lines[1].startswith("witness: ")


def parse_witness(line):
    """The word of a ``witness: u(v)^w`` line of one-character letters."""
    prefix, _, period = line.removeprefix("witness: ").partition("(")
    return UPWord(tuple(prefix), tuple(period[:period.index(")")]))


def test_include_and_equiv(run, band_files):
    full, empty = band_files
    code, out, _ = run("include", empty, full)
    assert code == 0 and out.strip() == "true"

    code, out, _ = run("include", full, empty)
    assert code == 1
    # the witness must be a word in the left language and not the right
    w = parse_witness(out.splitlines()[1])
    assert member(universal_recognizer(section5_morphism()), w)

    code, out, _ = run("equiv", full, full)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run("equiv", full, empty)
    assert code == 1 and "witness: " in out


def save_pair(tmp_path, pair):
    paths = [str(tmp_path / name) for name in ("left.txt", "right.txt")]
    for rec, path in zip(pair, paths):
        save_recognizer(rec, path)
    return paths


def test_union_refuses_an_oversized_product_table(run, tmp_path,
                                                  monkeypatch):
    # the limit holds the 17- and 8-element syntactic forms of the pair but
    # not their 89-element product
    paths = save_pair(tmp_path, [minimize(rec) for rec in oversized_pair()])
    limit = 4 * 88 ** 2
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", limit)
    code, out, err = run("union", *paths)
    assert code == 3 and out == "" and oversized_closure(limit) in err


def test_union_and_intersect_answer_on_the_oversized_pair(run, tmp_path,
                                                          monkeypatch):
    sizes = product_sizes(monkeypatch)
    left, right = oversized_pair()
    paths = save_pair(tmp_path, (left, right))
    rng = random.Random(29)
    words = [random_upword(rng, ("a", "b"), max_prefix=3, max_period=3)
             for _ in range(50)]
    for command, combine in (("union", any), ("intersect", all)):
        output = str(tmp_path / (command + ".txt"))
        code, out, err = run(command, *paths, "-o", output)
        assert code == 0 and out == "" and err == ""
        rec = load_recognizer(output)
        for w in words:
            assert member(rec, w) == combine(
                (member(left, w), member(right, w))), str(w)
    assert len(sizes) == 2 and max(sizes) < 200


def test_equiv_answers_on_the_oversized_pair(run, tmp_path, monkeypatch):
    sizes = product_sizes(monkeypatch)
    left, right = oversized_pair()
    code, out, _ = run("equiv", *save_pair(tmp_path, (left, right)))
    lines = out.splitlines()
    assert code == 1 and lines[0] == "false"
    witness = parse_witness(lines[1])
    assert member(left, witness) != member(right, witness)
    assert len(sizes) == 1 and sizes[0] < 200


def test_include_answers_on_the_oversized_pair(run, tmp_path):
    left, right = oversized_pair()
    paths = save_pair(tmp_path, (left, right))
    code, out, _ = run("include", paths[1], paths[0])
    lines = out.splitlines()
    assert code == 1 and lines[0] == "false"
    assert member(right, parse_witness(lines[1]))
    assert not member(left, parse_witness(lines[1]))


def run_python(*args, memory=None):
    """Run the interpreter with omegasem importable, optionally under an
    address-space limit of ``memory`` bytes set in the child."""
    src = os.path.dirname(os.path.dirname(omegasem.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    # one BLAS thread, so that thread buffers do not count against ``memory``
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=limit if memory else None)


def run_module(*argv, memory=None):
    """``python -m`` through ``run_python``."""
    return run_python("-m", *argv, memory=memory)


def test_module_entry_points_keep_the_exit_codes(band_files):
    full, empty = band_files
    for module in ("omegasem", "omegasem.cli"):
        done = run_module(module, "include", full, empty)
        assert done.returncode == 1
        assert done.stdout.splitlines()[0] == "false"
        # importing the package must not import ``omegasem.cli`` first
        assert "RuntimeWarning" not in done.stderr


def test_generated_file_beyond_the_budget_is_a_data_error(tmp_path):
    # a 200 000-element chain takes 1.3 MB as right-Cayley rows, but its
    # table would take 149 GiB: under a 3 GiB limit the load stops at the
    # declared size, before the rows or the accepting set are allocated
    n = 200_000
    rows = "\n".join(str(min(s + 1, n - 1)) for s in range(n))
    path = tmp_path / "chain.rec"
    path.write_text("recognizer v1\nmode: weak\nalphabet: a\n"
                    "elements: %d\nimage: a -> 0\ntable: generated\n"
                    "%s\naccept:\n" % (n, rows))
    done = run_module("omegasem", "include", str(path), str(path),
                      memory=3 << 30)
    assert done.returncode == 3, done.stderr
    assert "line 4: a 200000-element table needs" in done.stderr


def test_generated_table_loads_when_only_its_table_fits(tmp_path):
    # Z/8000 as generated rows: its int32 table takes 244 MiB and fits
    # under 640 MiB, but not next to the two |S|^2 int32 temporaries that
    # an unblocked Light's test would add
    n = 8000
    rows = "\n".join(str((s + 1) % n) for s in range(n))
    path = tmp_path / "cyclic.rec"
    path.write_text("recognizer v1\nmode: weak\nalphabet: a\n"
                    "elements: %d\nimage: a -> 1\ntable: generated\n"
                    "%s\naccept:\n" % (n, rows))
    done = run_module("omegasem", "minimize", str(path), memory=640 << 20)
    assert done.returncode == 0, done.stderr
    assert "elements: 1\n" in done.stdout


def test_to_buchi_beyond_the_budget_is_a_data_error(run, band_files,
                                                    monkeypatch):
    # the band's automaton takes one 20 x 20 byte matrix per letter
    full, _ = band_files
    monkeypatch.setattr(semigroup, "_MEMORY_LIMIT", 799)
    code, out, err = run("to-buchi", full)
    assert code == 3 and out == ""
    assert "a 20-element table needs 800 bytes" in err


def test_psi_7_compiles_in_640_mib():
    # 640 MiB holds psi k=7's dense tables, but not an |S| x |S| bitmap per
    # accepting or linked pair set next to them
    done = run_python("-c", """if True:
        import hashlib
        from omegasem import compile_formula, recognizer_stats
        from omegasem.formats import dumps_recognizer
        from omegasem.mso import psi_formula
        rec = compile_formula(psi_formula(7))
        text = dumps_recognizer(rec, generated=True)
        print(*recognizer_stats(rec), hashlib.sha256(text.encode()).hexdigest())
        """, memory=640 << 20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "6675", "6803", "6674",
        "3fc72957f1633b59d0684d8c5f0d686aa0239c0ad0007631c4bba9e70da79469"]


def test_universal(run, band_files):
    full, empty = band_files
    assert run("universal", full)[0] == 0
    code, out, _ = run("universal", empty)
    assert code == 1 and out.splitlines()[0] == "false"


def test_conjugacy_output(run, band_files):
    full, _ = band_files
    code, out, _ = run("conjugacy", full, "--stats")
    lines = out.splitlines()
    assert lines[0].startswith("classes: ")
    n_classes = int(lines[0].split()[1])
    assert len([ln for ln in lines if ln.startswith("class ")]) == n_classes
    assert lines[-1].startswith("unions: ")


def test_complement_twice_is_identity(run, tmp_path):
    rec = random_recognizer(random.Random(9), max_size=10)
    a = tmp_path / "a.txt"
    save_recognizer(rec, str(a))
    b, c = tmp_path / "b.txt", tmp_path / "c.txt"
    assert run("complement", str(a), "-o", str(b))[0] == 0
    assert run("complement", str(b), "-o", str(c))[0] == 0
    assert run("equiv", str(a), str(c))[0] == 0
    assert run("equiv", str(a), str(b))[0] == 1


def test_union_intersect_and_stats_line(run, tmp_path, band_files):
    full, empty = band_files
    out_path = tmp_path / "u.txt"
    code, out, _ = run("union", full, empty, "-o", str(out_path), "--stats")
    assert code == 0
    assert out.splitlines()[0].startswith("|S|=")
    assert set(out.split()) >= set()  # shape checked below
    import re
    assert re.fullmatch(r"\|S\|=\d+ \|F\|=\d+ \|P\|=\d+", out.strip())
    assert run("equiv", str(out_path), full)[0] == 0

    i_path = tmp_path / "i.txt"
    assert run("intersect", full, empty, "-o", str(i_path))[0] == 0
    assert run("equiv", str(i_path), empty)[0] == 0


def test_project_and_inverse(run, tmp_path):
    rec = random_recognizer(random.Random(1), max_size=8,
                            alphabet=("a", "b"))
    a = tmp_path / "a.txt"
    save_recognizer(rec, str(a))
    lmap = LetterMap(("a", "b"), ("c",), {"a": "c", "b": "c"})
    m = tmp_path / "map.txt"
    save_lettermap(lmap, str(m))
    proj = tmp_path / "proj.txt"
    assert run("project", str(a), str(m), "-o", str(proj))[0] == 0
    back = tmp_path / "back.txt"
    assert run("project", str(proj), str(m), "--inverse",
               "-o", str(back))[0] == 0
    # L is always contained in the preimage of its image
    assert run("include", str(a), str(back))[0] == 0


def test_buchi_roundtrip_conversions(run, tmp_path, band_files):
    full, _ = band_files
    aut = tmp_path / "aut.txt"
    assert run("to-buchi", full, "-o", str(aut))[0] == 0
    rec2 = tmp_path / "rec2.txt"
    assert run("to-morphism", str(aut), "--minimize",
               "-o", str(rec2))[0] == 0
    assert run("equiv", full, str(rec2))[0] == 0


def test_gen_adversarial_stats(run):
    # |T(2)| = 2^2 * 4 + 2 = 18 transformation-like maps, doubled by marking
    code, out, _ = run("gen-adversarial", "2", "--stats")
    assert code == 0
    assert out.startswith("|S|=36 ")


def test_generated_tables_reach_stdout(run, tmp_path):
    # --generated and gen-adversarial's default hold on stdout as with -o
    rec = random_recognizer(random.Random(9), max_size=10)
    path = tmp_path / "a.txt"
    save_recognizer(rec, str(path))
    out_path = tmp_path / "m.txt"
    code, out, _ = run("minimize", str(path), "--generated")
    assert code == 0 and "table: generated" in out
    assert run("minimize", str(path), "--generated",
               "-o", str(out_path))[0] == 0
    assert out == out_path.read_text()
    code, out, _ = run("minimize", str(path))
    assert code == 0 and "table: full" in out
    code, out, _ = run("gen-adversarial", "2")
    assert code == 0 and "table: generated" in out
    assert run("gen-adversarial", "2", "-o", str(out_path))[0] == 0
    assert out == out_path.read_text()


def test_mso_compile_stats_and_emit(run, tmp_path):
    from omegasem.mso import phi_formula
    src = tmp_path / "phi2.mso"
    src.write_text(str_formula(phi_formula(2)))
    rec_path = tmp_path / "phi2.rec"
    code, out, _ = run("mso", "compile", str(src), "--stats",
                       "--emit", str(rec_path))
    assert code == 0
    assert out.strip() == "|S|=4 |F|=9 |P|=1"
    assert run("universal", str(rec_path))[0] == 1
    code, out, _ = run("--audit", "mso", "compile", str(src), "--stats")
    assert code == 0 and out.strip() == "|S|=4 |F|=9 |P|=1"

    bad = tmp_path / "bad.mso"
    bad.write_text("E x. x <")
    code, _, err = run("mso", "compile", str(bad))
    assert code == 3 and "position" in err


def str_formula(phi):
    return phi if isinstance(phi, str) else format_formula(phi)


def format_formula(phi):
    from omegasem.mso import And, Exists, In, Less, Not, Or, Succ
    if isinstance(phi, Less):
        return "%s < %s" % (phi.x, phi.y)
    if isinstance(phi, Succ):
        return "%s = %s + 1" % (phi.y, phi.x)
    if isinstance(phi, In):
        return "%s in %s" % (phi.x, phi.X)
    if isinstance(phi, Not):
        return "!(%s)" % format_formula(phi.body)
    if isinstance(phi, And):
        return "(%s) & (%s)" % (format_formula(phi.left),
                                format_formula(phi.right))
    if isinstance(phi, Or):
        return "(%s) | (%s)" % (format_formula(phi.left),
                                format_formula(phi.right))
    if isinstance(phi, Exists):
        return "E %s. (%s)" % (phi.var, format_formula(phi.body))
    raise TypeError(phi)


def test_table1_shape(run, monkeypatch):
    from omegasem import mso as mso_mod
    monkeypatch.setattr(mso_mod, "FAMILIES",
                        {"phi": mso_mod.phi_formula})
    code, out, err = run("table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "formula k |S| |F| |P|"
    assert len(lines) == 1 + 4  # k = 2..5
    for k, line in zip(range(2, 6), lines[1:]):
        name, kk, s, f, p = line.split()
        assert name == "phi" and int(kk) == k
        assert int(s) == 2 ** k  # the known sizes for this family
    assert "k=2" in err  # timings go to stderr, not stdout


def test_table1_honours_audit(run, monkeypatch):
    _, plain, _ = run("table1")
    audits = []
    compile_formula = mso.compile_formula

    def spy(phi, *, audit=False):
        audits.append(audit)
        return compile_formula(phi, audit=audit)

    monkeypatch.setattr(mso, "compile_formula", spy)
    code, out, _ = run("--audit", "table1")
    assert code == 0
    assert out == plain
    assert audits == [True] * 12  # phi, psi and chi for k = 2..5
