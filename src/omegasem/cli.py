"""Command-line interface.

Exit codes: 0 for success (and for true answers), 1 for false answers (a
witness word is printed on stdout), 2 for usage errors, 3 for data errors
(unreadable or malformed input files), 4 for internal errors (any other
exception, reported as ``internal error: <type>: <message>``).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import buchi, conjugacy, formats, inclusion, langops, mso, syntactic
from .errors import OmegasemError
from .morphism import Recognizer

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _stats_line(rec: Recognizer) -> str:
    size, pairs, accepting = mso.recognizer_stats(rec)
    return "|S|=%d |F|=%d |P|=%d" % (size, pairs, accepting)


def _emit_recognizer(rec, args):
    """Print the stats line and/or write the recognizer, to ``--output`` or
    else stdout, in the table form ``--generated`` asks for."""
    stats = getattr(args, "stats", False)
    if stats:
        print(_stats_line(rec))
    if args.output is not None or not stats:
        formats.save_recognizer(
            rec, sys.stdout if args.output is None else args.output,
            generated=getattr(args, "generated", False))


def _verdict(included, witness) -> int:
    """Print true, or false and the witness word if there is one."""
    if included:
        print("true")
        return EXIT_TRUE
    print("false")
    if witness is not None:
        print("witness: %s" % witness)
    return EXIT_FALSE


# -- subcommand handlers -------------------------------------------------------


def cmd_minimize(args):
    rec = formats.load_recognizer(args.recognizer)
    _emit_recognizer(syntactic.minimize(rec, audit=args.audit), args)
    return EXIT_TRUE


def cmd_check_strong(args):
    rec = formats.load_recognizer(args.recognizer)
    res = inclusion.is_strong(rec.morphism, rec.accepting)
    return _verdict(res.included, res.witness)


def cmd_include(args):
    left = formats.load_recognizer(args.left)
    right = formats.load_recognizer(args.right)
    res = langops.language_included(left, right)
    return _verdict(res.included, res.witness)


def cmd_equiv(args):
    left = formats.load_recognizer(args.left)
    right = formats.load_recognizer(args.right)
    return _verdict(*langops.language_equivalent(left, right))


def cmd_universal(args):
    rec = formats.load_recognizer(args.recognizer)
    res = inclusion.universal(rec)
    return _verdict(res.included, res.witness)


def cmd_conjugacy(args):
    rec = formats.load_recognizer(args.recognizer)
    result = conjugacy.conjugacy_classes(rec.morphism)
    print("classes: %d" % len(result.classes))
    for i, cls in enumerate(result.classes):
        members = " ".join("(%d,%d)" % pair for pair in cls)
        print("class %d: %s" % (i, members))
    if args.stats:
        print("unions: %d finds: %d" % (result.union_calls,
                                        result.find_calls))
    return EXIT_TRUE


def cmd_complement(args):
    rec = formats.load_recognizer(args.recognizer)
    _emit_recognizer(langops.complement(rec, audit=args.audit), args)
    return EXIT_TRUE


def cmd_union(args):
    left = formats.load_recognizer(args.left)
    right = formats.load_recognizer(args.right)
    _emit_recognizer(langops.union(left, right, audit=args.audit), args)
    return EXIT_TRUE


def cmd_intersect(args):
    left = formats.load_recognizer(args.left)
    right = formats.load_recognizer(args.right)
    _emit_recognizer(langops.intersect(left, right, audit=args.audit), args)
    return EXIT_TRUE


def cmd_project(args):
    rec = formats.load_recognizer(args.recognizer)
    lmap = formats.load_lettermap(args.lettermap)
    op = langops.inverse_project if args.inverse else langops.project
    _emit_recognizer(op(rec, lmap, audit=args.audit), args)
    return EXIT_TRUE


def cmd_to_buchi(args):
    rec = formats.load_recognizer(args.recognizer)
    aut = buchi.morphism_to_buchi(rec)
    formats.save_buchi(aut, sys.stdout if args.output is None else args.output)
    return EXIT_TRUE


def cmd_to_morphism(args):
    aut = formats.load_buchi(args.automaton)
    rec = buchi.buchi_to_strong(aut)
    if args.minimize:
        rec = syntactic.minimize(rec, audit=args.audit)
    _emit_recognizer(rec, args)
    return EXIT_TRUE


def cmd_gen_adversarial(args):
    morphism, pairs = syntactic.adversarial_fixture(args.n)
    _emit_recognizer(Recognizer(morphism, pairs, "weak"), args)
    return EXIT_TRUE


def cmd_mso_compile(args):
    rec = mso.compile_formula(formats._read(args.formula), audit=args.audit)
    _emit_recognizer(rec, args)
    return EXIT_TRUE


def table1_lines(full: bool, clock=print, *, audit=False):
    """The experiment table, one ``family k |S| |F| |P|`` line per formula.

    Wall-clock timings go through ``clock`` (stderr by default in the CLI)
    so stdout stays diffable against a checked-in expected file.  With
    ``audit`` every formula compiles with the audit checks.
    """
    lines = ["formula k |S| |F| |P|"]
    for k in range(2, 7 if full else 6):
        for name, fam in mso.FAMILIES.items():
            start = time.perf_counter()
            size, pairs, accepting = mso.recognizer_stats(
                mso.compile_formula(fam(k), audit=audit))
            clock("%s k=%d: %.2fs" % (name, k, time.perf_counter() - start))
            lines.append("%s %d %d %d %d" % (name, k, size, pairs, accepting))
    return lines


def cmd_mso_table1(args):
    def clock(msg):
        print(msg, file=sys.stderr)

    for line in table1_lines(args.full, clock=clock, audit=args.audit):
        print(line)
    return EXIT_TRUE


# -- parser --------------------------------------------------------------------


def _add_io(sub):
    sub.add_argument("-o", "--output", metavar="FILE", default=None,
                     help="write the result here instead of stdout")
    sub.add_argument("--generated", action="store_true",
                     help="store right-Cayley rows instead of the full table")
    sub.add_argument("--stats", action="store_true",
                     help="print |S| |F| |P| instead of the recognizer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegasem",
        description="Algebraic recognition of omega-regular languages.")
    parser.add_argument("--audit", action="store_true",
                        help="check that accepting sets are "
                             "conjugation-closed and that minimisation "
                             "yields a congruence")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="compute the syntactic recognizer")
    p.add_argument("recognizer")
    _add_io(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("check-strong",
                       help="is the accepting set conjugation-consistent?")
    p.add_argument("recognizer")
    p.set_defaults(func=cmd_check_strong)

    p = sub.add_parser("include", help="language inclusion left <= right")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_include)

    p = sub.add_parser("equiv", help="language equality")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("universal", help="does the language contain all words?")
    p.add_argument("recognizer")
    p.set_defaults(func=cmd_universal)

    p = sub.add_parser("conjugacy", help="conjugacy classes of linked pairs")
    p.add_argument("recognizer")
    p.add_argument("--stats", action="store_true",
                   help="also print union/find call counters")
    p.set_defaults(func=cmd_conjugacy)

    p = sub.add_parser("complement", help="complement language")
    p.add_argument("recognizer")
    _add_io(p)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("union", help="union of two languages")
    p.add_argument("left")
    p.add_argument("right")
    _add_io(p)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("intersect", help="intersection of two languages")
    p.add_argument("left")
    p.add_argument("right")
    _add_io(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("project", help="apply a letter map to the language")
    p.add_argument("recognizer")
    p.add_argument("lettermap")
    p.add_argument("--inverse", action="store_true",
                   help="take the preimage instead of the image")
    _add_io(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("to-buchi", help="convert a recognizer to an automaton")
    p.add_argument("recognizer")
    p.add_argument("-o", "--output", metavar="FILE", default=None)
    p.set_defaults(func=cmd_to_buchi)

    p = sub.add_parser("to-morphism",
                       help="convert an automaton to a strong recognizer")
    p.add_argument("automaton")
    p.add_argument("--minimize", action="store_true",
                   help="minimize the resulting recognizer")
    _add_io(p)
    p.set_defaults(func=cmd_to_morphism)

    p = sub.add_parser("gen-adversarial",
                       help="emit the worst-case minimization fixture")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", metavar="FILE", default=None)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_gen_adversarial, generated=True)

    p = sub.add_parser("mso", help="logic-to-recognizer compiler")
    msub = p.add_subparsers(dest="mso_command", required=True)
    pc = msub.add_parser("compile", help="compile a formula file")
    pc.add_argument("formula")
    pc.add_argument("--stats", action="store_true")
    pc.add_argument("--emit", dest="output", metavar="FILE", default=None,
                    help="write the compiled recognizer here")
    pc.set_defaults(func=cmd_mso_compile)
    pt = msub.add_parser("table1", help="run the benchmark formula families")
    pt.add_argument("--full", action="store_true",
                    help="include the k = 6 rows")
    pt.set_defaults(func=cmd_mso_table1)

    p = sub.add_parser("table1", help="alias for 'mso table1'")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_mso_table1)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_TRUE
    try:
        return args.func(args)
    except (OmegasemError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
