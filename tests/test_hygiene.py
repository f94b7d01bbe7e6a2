"""Source hygiene for the modules of src/spweil.

Every name a module imports is used there; __init__.py is left out, as its
imports are the package's public names.  Only fields.py and serialize.py,
which define and spell the field encodings, branch on the field family."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spweil"
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
