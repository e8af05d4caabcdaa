"""Source hygiene checks that need only the standard library."""

import ast
import itertools
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omegasem"
RUNTIME_DEPENDENCIES = {"numpy"}


def unused_imports(source):
    """Names a module imports but never reads (``__future__`` exempt)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import List as L, Dict\n"
              "x: Dict = sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (3, "L")]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append("%s:%d: %s" % (path.name, line, name))
    assert not found, "unused imports:\n" + "\n".join(found)


def function_imports(source):
    """``(line, function)`` for each import statement inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((node.lineno, fn.name))
    return sorted(set(found))


def test_function_import_detector():
    source = ("import os\n"
              "def f():\n"
              "    from .x import y\n"
              "    return y\n"
              "class C:\n"
              "    def g(self):\n"
              "        def h():\n"
              "            import sys\n")
    assert function_imports(source) == [(3, "f"), (8, "g"), (8, "h")]


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, name in function_imports(path.read_text(encoding="utf-8")):
            found.append("%s:%d: in %s" % (path.name, line, name))
    assert not found, "imports inside functions:\n" + "\n".join(found)


def third_party_imports(source):
    """Top-level modules a module imports from outside the standard library
    and ``RUNTIME_DEPENDENCIES`` (relative imports exempt)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - RUNTIME_DEPENDENCIES)


def test_third_party_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path, yaml.loader\n"
              "import numpy as np\n"
              "from networkx.algorithms import dag\n"
              "from .errors import ParseError\n")
    assert third_party_imports(source) == ["networkx", "yaml"]


def test_imports_only_declared_dependencies():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for name in third_party_imports(path.read_text(encoding="utf-8")):
            found.append("%s: %s" % (path.name, name))
    assert not found, "undeclared imports:\n" + "\n".join(found)


def test_pyproject_declares_only_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in deps}
    assert names == RUNTIME_DEPENDENCIES


def definitions(source):
    """``(line, name, method)`` of every function and class a module
    defines, methods and nested definitions included (dunders exempt);
    ``method`` tells whether it is defined in a class body."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    tree = ast.parse(source)
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    return sorted((node.lineno, node.name, id(node) in methods)
                  for node in ast.walk(tree)
                  if isinstance(node, kinds)
                  and not (node.name.startswith("__")
                           and node.name.endswith("__")))


def references(*sources):
    """``(names, attributes)``: every name the modules read (plain names,
    attribute names, imported names and identifier string constants such
    as ``__all__`` or lookup tables), and those of them read as an
    attribute or named in a string, the only ways to reach a method."""
    names, attributes = set(), set()
    for node in itertools.chain.from_iterable(
            ast.walk(ast.parse(source)) for source in sources):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            attributes.add(node.value)
    return names | attributes, attributes


def unreferenced(definitions, names, attributes):
    """The ``(line, name)`` of definitions nothing refers to: a method
    counts as used only when it is read as an attribute or named in a
    string, any other definition when its name is read at all."""
    return [(line, name) for line, name, method in definitions
            if name not in (attributes if method else names)]


def test_dead_definition_detector():
    lib = ("class A:\n"
           "    def __init__(self):\n"
           "        self.used()\n"
           "    def used(self):\n"
           "        pass\n"
           "    def dead(self):\n"
           "        pass\n"
           "    def shadowed(self):\n"
           "        pass\n"
           "def exported():\n"
           "    pass\n"
           "def lonely():\n"
           "    def inner():\n"
           "        pass\n"
           "__all__ = ['exported']\n")
    # a local variable that shares a method's name does not use the method
    user = ("from lib import A as B\n"
            "def f(lines):\n"
            "    shadowed = len(lines)\n"
            "    return shadowed\n")
    assert unreferenced(definitions(lib), *references(lib, user)) == [
        (6, "dead"), (8, "shadowed"), (12, "lonely"), (13, "inner")]


def test_every_definition_is_referenced():
    used = references(*(path.read_text(encoding="utf-8")
                        for top in ("src", "tests", "perfbench")
                        for path in sorted((ROOT / top).rglob("*.py"))))
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, name in unreferenced(
                definitions(path.read_text(encoding="utf-8")), *used):
            found.append("%s:%d: %s" % (path.name, line, name))
    assert not found, "definitions nothing refers to:\n" + "\n".join(found)


def dataclass_fields(source):
    """``(line, name)`` of every field a ``@dataclass`` class declares."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and "dataclass" in {
                ast.unparse(getattr(d, "func", d)).split(".")[-1]
                for d in node.decorator_list}:
            found += [(item.lineno, item.target.id) for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
    return sorted(found)


def field_reads(source):
    """Every name a module reads as a field: attribute loads, keyword
    arguments and identifier string constants (``getattr``, lookups)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_unread_field_detector():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\n"
           "class A:\n"
           "    read: int\n"
           "    dead: int\n"
           "    keyword: int = 0\n"
           "@dataclass\n"
           "class B:\n"
           "    looked_up: str\n"
           "class C:\n"
           "    plain: int\n"
           "def f(a, dead):\n"
           "    a.dead = dead\n"
           "    return a.read, A(1, 2, keyword=3), getattr(a, 'looked_up')\n")
    assert [f for f in dataclass_fields(lib) if f[1] not in field_reads(lib)
            ] == [(5, "dead")]


def test_every_dataclass_field_is_read():
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= field_reads(path.read_text(encoding="utf-8"))
    found = []
    for path in sorted(SRC.glob("*.py")):
        for line, name in dataclass_fields(path.read_text(encoding="utf-8")):
            if name not in used:
                found.append("%s:%d: %s" % (path.name, line, name))
    assert not found, "dataclass fields nothing reads:\n" + "\n".join(found)


# the only reader of the dense table outside semigroup.py: the full dump
TABLE_READERS = {("formats.py", "dumps_recognizer")}


def found_in(source, hit):
    """``(line, function)`` for each node that ``hit`` accepts, named by
    the innermost enclosing function (or ``<module>``)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def table_reads(source):
    """``(line, function)`` for each read of ``.table``."""
    return found_in(source, lambda node: isinstance(node, ast.Attribute)
                    and node.attr == "table"
                    and isinstance(node.ctx, ast.Load))


def test_table_read_detector():
    source = ("t = sg.table\n"
              "class C:\n"
              "    def f(self):\n"
              "        def g():\n"
              "            return self.sg.table[0]\n"
              "        self.table = g()\n"
              "        return table, self.tables\n")
    assert table_reads(source) == [(1, "<module>"), (5, "g")]


def test_only_named_readers_touch_the_table():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        for line, where in table_reads(path.read_text(encoding="utf-8")):
            if (path.name, where) not in TABLE_READERS:
                found.append("%s:%d: in %s" % (path.name, line, where))
    assert not found, "reads of the dense table:\n" + "\n".join(found)


# the only callers of weak_to_strong: minimisation, and the right side of
# an inclusion across two morphisms (ROADMAP item 2).  The language
# operations minimise a weak operand instead.
WEAK_TO_STRONG_CALLERS = {("syntactic.py", "minimize"),
                          ("langops.py", "language_included")}


def stray_calls(sources, names, allowed):
    """``file:line: in function`` for each call of a function in ``names``,
    by name or as an attribute, in ``{file name: source}`` outside the
    ``allowed`` (file, function) pairs."""
    return ["%s:%d: in %s" % (name, line, where)
            for name, source in sorted(sources.items())
            for line, where in found_in(
                source, lambda node: isinstance(node, ast.Call)
                and getattr(node.func, "id",
                            getattr(node.func, "attr", None)) in names)
            if (name, where) not in allowed]


def stray_weak_to_strong_calls(sources):
    """Calls of ``weak_to_strong`` outside ``WEAK_TO_STRONG_CALLERS``."""
    return stray_calls(sources, {"weak_to_strong"}, WEAK_TO_STRONG_CALLERS)


def test_weak_to_strong_call_detector():
    sources = {
        "syntactic.py": ("from .buchi import weak_to_strong\n"
                         "def minimize(rec):\n"
                         "    return weak_to_strong(rec)\n"),
        "langops.py": ("from . import buchi\n"
                       "def language_included(r1, r2):\n"
                       "    return buchi.weak_to_strong(r2)\n"
                       "def union(rs, upgrade=buchi.weak_to_strong):\n"
                       "    return [buchi.weak_to_strong(r) for r in rs]\n"),
    }
    assert stray_weak_to_strong_calls(sources) == ["langops.py:5: in union"]


def test_only_named_callers_upgrade_with_weak_to_strong():
    found = stray_weak_to_strong_calls({
        path.name: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")})
    assert not found, "calls of weak_to_strong:\n" + "\n".join(found)


# the only place that reads Green's classes and builds a union-find: the
# conjugacy partition, computed once per semigroup and cached there
PARTITION_STEPS = {"green_classes", "UnionFind"}
PARTITION_BUILDERS = {("semigroup.py", "conjugacy")}


def stray_partition_steps(sources):
    """Calls of ``PARTITION_STEPS`` outside ``PARTITION_BUILDERS``."""
    return stray_calls(sources, PARTITION_STEPS, PARTITION_BUILDERS)


def test_partition_step_detector():
    sources = {
        "semigroup.py": ("class Semigroup:\n"
                         "    def conjugacy(self):\n"
                         "        uf = UnionFind(3)\n"
                         "        return self.green_classes('R'), uf\n"
                         "    def green_classes(self, kind):\n"
                         "        return self.green_classes(kind)\n"),
        "conjugacy.py": ("from . import semigroup\n"
                         "UnionFind = semigroup.UnionFind\n"
                         "def conjugacy_classes(h):\n"
                         "    uf = semigroup.UnionFind(2)\n"
                         "    return h.semigroup.green_classes('L'), uf\n"),
    }
    assert stray_partition_steps(sources) == [
        "conjugacy.py:4: in conjugacy_classes",
        "conjugacy.py:5: in conjugacy_classes",
        "semigroup.py:6: in green_classes"]


def test_only_the_cached_partition_reads_green_classes():
    found = stray_partition_steps({
        path.name: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")})
    assert not found, "partition steps outside Semigroup.conjugacy:\n" \
        + "\n".join(found)


# the only closures: the product and powerset semigroups, the Büchi
# profiles and the adversarial fixture.  A quotient, and so a renaming of
# letters, is read off the semigroup it comes from (``Semigroup.quotient``)
CLOSE_GENERATORS_CALLERS = {("langops.py", "pullback"),
                            ("langops.py", "project"),
                            ("buchi.py", "buchi_to_strong"),
                            ("syntactic.py", "adversarial_fixture")}


def stray_close_generators_calls(sources):
    """Calls of ``close_generators`` outside ``CLOSE_GENERATORS_CALLERS``."""
    return stray_calls(sources, {"close_generators"},
                       CLOSE_GENERATORS_CALLERS)


def test_close_generators_call_detector():
    sources = {
        "syntactic.py": ("from .semigroup import close_generators\n"
                         "def adversarial_fixture(values, right):\n"
                         "    return close_generators(values, right)\n"
                         "def bfs_numbered(images, rows):\n"
                         "    return close_generators(images, rows)\n"
                         "def syntactic_morphism(rec):\n"
                         "    return close_generators(rec, None)\n"),
        "semigroup.py": ("class Semigroup:\n"
                         "    def quotient(self, xs):\n"
                         "        return semigroup.close_generators(xs)\n"),
    }
    assert stray_close_generators_calls(sources) == [
        "semigroup.py:3: in quotient",
        "syntactic.py:5: in bfs_numbered",
        "syntactic.py:7: in syntactic_morphism"]


def test_only_named_callers_close_generators():
    found = stray_close_generators_calls({
        path.name: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")})
    assert not found, "calls of close_generators:\n" + "\n".join(found)


# the only searches of the right Cayley graph: rows from outside (the
# constructor, the loader of ``table: generated`` files) and a quotient
# renumbered onto other generators than its input's, a renaming of
# letters among them.  Closures record their tree as they go
CAYLEY_BFS_CALLERS = {("semigroup.py", "__init__"),
                      ("semigroup.py", "quotient"),
                      ("formats.py", "loads_recognizer")}


def stray_cayley_bfs_calls(sources):
    """Calls of ``cayley_bfs`` outside ``CAYLEY_BFS_CALLERS``."""
    return stray_calls(sources, {"cayley_bfs"}, CAYLEY_BFS_CALLERS)


def test_cayley_bfs_call_detector():
    sources = {
        "semigroup.py": ("class Semigroup:\n"
                         "    def __init__(self, rc, gens):\n"
                         "        return cayley_bfs(rc, gens)\n"
                         "    def quotient(self, rc, gens):\n"
                         "        return cayley_bfs(rc, gens)\n"
                         "def close_generators(rc, gens):\n"
                         "    return cayley_bfs(rc, gens)\n"),
        "mso.py": ("from . import semigroup\n"
                   "def _renamed(rec, rc):\n"
                   "    return semigroup.cayley_bfs(rc, [0])\n"),
    }
    assert stray_cayley_bfs_calls(sources) == [
        "mso.py:3: in _renamed", "semigroup.py:7: in close_generators"]


def test_only_named_callers_search_the_cayley_graph():
    found = stray_cayley_bfs_calls({
        path.name: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")})
    assert not found, "calls of cayley_bfs:\n" + "\n".join(found)


def traced_layers(spans_source):
    """``{module: [function, ...]}``: the ``LAYERS`` literal of a
    ``perfbench/spans.py`` source, read without importing it."""
    for node in ast.parse(spans_source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment")


def missing_layers(spans_source, sources):
    """``module.function`` for each traced layer that ``{module name:
    source}`` does not define at the top level of its module."""
    return ["%s.%s" % (module, fn)
            for module, fns in traced_layers(spans_source).items()
            for fn in fns
            if fn not in {node.name for node in ast.parse(
                sources.get(module, "")).body
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))}]


def test_missing_layer_detector():
    spans = ('LAYERS = {"semigroup": ["close_generators"],\n'
             '          "langops": ["union", "project"],\n'
             '          "gone": ["f"]}\n')
    sources = {"semigroup": "def close_generators():\n    pass\n",
               "langops": ("from .x import project\n"
                           "def union():\n"
                           "    def project():\n"
                           "        pass\n")}
    assert missing_layers(spans, sources) == ["langops.project", "gone.f"]


def test_every_traced_layer_is_defined():
    # the traced benchmark run wraps these by name (perfbench/spans.py)
    found = missing_layers(
        (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"),
        {path.stem: path.read_text(encoding="utf-8")
         for path in SRC.glob("*.py")})
    assert not found, "traced layers no module defines:\n" + "\n".join(found)
