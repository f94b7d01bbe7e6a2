"""Source hygiene for the modules of src/spweil.

Every name a module imports is used there; __init__.py is left out, as its
imports are the package's public names.  Only fields.py and serialize.py,
which define and spell the field encodings, branch on the field family.
Every attribute a module stores on self is read, and every top-level
function and every method of a class other than a dunder is referenced,
somewhere in src, tests, scripts or perfbench.  Every Operator subclass in
operators.py defines materialize or inherits it from another subclass, as
the base method raises.  Every FieldContext subclass in fields.py names a
row_class that is a class of fields.py, and fields.py defines
fourier_apply once."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spweil"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by import statements in source that no Name node
    reads, with the line of their import; __future__ imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps as d, loads\nprint(sys.path, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the field families' kind names and their context classes
FIELD_KINDS = {"cyclotomic", "prime", "extension", "auto-prime", "auto-char2"}
CONTEXT_CLASSES = {"CyclotomicContext", "PrimeFieldContext", "ExtensionFieldContext"}
FAMILY_BLIND = sorted(p for p in SRC.glob("*.py") if p.name not in ("fields.py", "serialize.py"))


def field_family_branches(source):
    """The lines that compare an attribute named kind with a field family's
    name (== or in), or call isinstance against a field context class."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {c.value for o in operands for c in ast.walk(o) if isinstance(c, ast.Constant)}
            if names & FIELD_KINDS and any(
                    isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands):
                lines.add(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = {getattr(c, "id", None) or getattr(c, "attr", None)
                       for c in ast.walk(node.args[1])}
            if classes & CONTEXT_CLASSES:
                lines.add(node.lineno)
    return sorted(lines)


def test_scan_finds_a_field_family_branch():
    source = (
        "if ctx.kind == 'prime':\n"
        "    pass\n"
        "fast = self.params.ctx.kind in ('cyclotomic', 'extension')\n"
        "if isinstance(ctx, PrimeFieldContext):\n"
        "    pass\n"
        "ok = isinstance(c, (int, fields.ExtensionFieldContext))\n"
        "if tok.kind == 'C' or ctx.char == 2 or isinstance(op, MonomialOp):\n"
        "    pass\n")
    assert field_family_branches(source) == [1, 3, 4, 6]


@pytest.mark.parametrize("path", FAMILY_BLIND, ids=lambda p: p.name)
def test_no_field_family_branches(path):
    assert field_family_branches(path.read_text()) == []


READERS = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


@functools.lru_cache(maxsize=None)
def loaded_names(source):
    """(attributes, names) source reads: attributes are loaded attribute
    names and getattr/hasattr string arguments; names are loaded names,
    imported names and string constants (a monkeypatch or span table may
    name a function by string)."""
    attrs, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        if (isinstance(node, ast.Call) and len(node.args) > 1
                and getattr(node.func, "id", None) in ("getattr", "hasattr")
                and isinstance(node.args[1], ast.Constant)):
            attrs.add(node.args[1].value)
    return attrs, names


def unread_names(source, readers):
    """The attributes source stores on self that no reader reads as an
    attribute, and its top-level functions and non-dunder methods that no
    reader names at all, each with its line."""
    attrs, names = set(), set()
    for reader in readers:
        reader_attrs, reader_names = loaded_names(reader)
        attrs |= reader_attrs
        names |= reader_names
    tree = ast.parse(source)
    stored = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"):
            stored.setdefault(node.attr, node.lineno)
    found = [(line, name) for name, line in stored.items() if name not in attrs]
    methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    found += [(node.lineno, node.name)
              for node in [*tree.body, *methods]
              if isinstance(node, ast.FunctionDef) and node.name not in attrs | names]
    return sorted(found)


def test_scan_finds_unread_attributes_and_functions():
    source = (
        "class K:\n"
        "    def __init__(self):\n"
        "        self.kept, self.lost = 1, 2\n"
        "        self.by_getattr = 3\n"
        "        self.spec = 4\n"
        "    def called(self):\n"
        "        pass\n"
        "    def orphan(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return 'K'\n"
        "def used():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "def by_string():\n"
        "    pass\n")
    reader = ("from m import used\n"
              "print(k.kept, getattr(k, 'by_getattr'), k.called())\n"
              "spans = [(m, 'by_string')]\n"
              "spec = 'a local variable named like an attribute'\n")
    assert unread_names(source, [source, reader]) == [
        (3, "lost"), (5, "spec"), (8, "orphan"), (14, "unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_attributes_or_functions(path):
    assert unread_names(path.read_text(), [p.read_text() for p in READERS]) == []


def inherited_materialize(source, base="Operator"):
    """The classes of source that derive from base, directly or through
    other classes of source, and take materialize from base: neither they
    nor a class of source between them and base defines it."""
    classes = {node.name: node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef)}

    def owner(name):
        # the class whose materialize name resolves to, along first bases
        while name in classes and name != base:
            node = classes[name]
            if any(isinstance(f, ast.FunctionDef) and f.name == "materialize"
                   for f in node.body):
                return name
            name = getattr(node.bases[0], "id", None) if node.bases else None
        return name

    return [name for name in classes if name != base and owner(name) == base]


def test_scan_finds_an_operator_without_materialize():
    source = (
        "class Operator:\n"
        "    def materialize(self):\n"
        "        raise NotImplementedError\n"
        "class Walked(Operator):\n"
        "    def apply(self, vec):\n"
        "        return vec\n"
        "class Own(Operator):\n"
        "    def materialize(self):\n"
        "        return None\n"
        "class Heir(Own):\n"
        "    pass\n"
        "class HeirOfWalked(Walked):\n"
        "    pass\n"
        "class Unrelated:\n"
        "    pass\n")
    assert inherited_materialize(source) == ["Walked", "HeirOfWalked"]


def test_every_operator_defines_materialize():
    # the base Operator.materialize raises, so a new operator class must
    # build its matrix from its own structure
    assert inherited_materialize((SRC / "operators.py").read_text()) == []


def field_context_rows(source, base="FieldContext"):
    """(missing, kernels): the classes of source that derive from base,
    directly or through other classes of source, whose row_class, assigned
    in their own body or the nearest such class's along first bases, is not
    the name of a class of source; and kernels, the number of functions
    named fourier_apply that source defines."""
    tree = ast.parse(source)
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def row_class(name):
        # the value row_class resolves to, along first bases, or None
        while name in classes and name != base:
            node = classes[name]
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        getattr(t, "id", None) == "row_class" for t in stmt.targets):
                    return stmt.value
            name = getattr(node.bases[0], "id", None) if node.bases else None
        return None

    def derives(name):
        while name in classes and name != base:
            node = classes[name]
            name = getattr(node.bases[0], "id", None) if node.bases else None
        return name == base

    missing = [name for name in classes if name != base and derives(name)
               and getattr(row_class(name), "id", None) not in classes]
    kernels = sum(isinstance(node, ast.FunctionDef) and node.name == "fourier_apply"
                  for node in ast.walk(tree))
    return missing, kernels


def test_scan_finds_a_context_without_a_row_class():
    source = (
        "class Rows:\n"
        "    pass\n"
        "class FieldContext:\n"
        "    def fourier_apply(self):\n"
        "        pass\n"
        "class Named(FieldContext):\n"
        "    row_class = Rows\n"
        "class Heir(Named):\n"
        "    pass\n"
        "class Unnamed(FieldContext):\n"
        "    def fourier_apply(self):\n"
        "        pass\n"
        "class NoneRows(FieldContext):\n"
        "    row_class = None\n"
        "class ByProperty(FieldContext):\n"
        "    @property\n"
        "    def row_class(self):\n"
        "        return Rows\n"
        "class Unrelated:\n"
        "    pass\n")
    assert field_context_rows(source) == (["Unnamed", "NoneRows", "ByProperty"], 2)


def test_every_field_context_names_a_row_class():
    # product_rows and closure_steps have one route, through the context's
    # row class, and one Fourier kernel serves every family
    assert field_context_rows((SRC / "fields.py").read_text()) == ([], 1)
