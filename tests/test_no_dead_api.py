"""Every public function and method of the package has a caller, and
every attribute that a class of the package stores is read.

A name counts as called when it appears, as a whole word, anywhere in
src/ or perfbench/ outside its own ``def`` line: a function that only
tests call is dead.  An attribute counts as read when some file in
src/, tests/ or perfbench/ loads an attribute of that name, or holds a
string constant equal to it (``getattr``, ``__slots__``).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "glpq"
CALLERS = ("src", "perfbench")
SEARCHED = ("src", "tests", "perfbench")


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                prefix, scope = f"{path.stem}.{node.name}", node.body
            else:
                prefix, scope = path.stem, [node]
            for fn in scope:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")):
                    yield f"{prefix}.{fn.name}", fn.name


def _stored_attributes():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    yield f"{path.stem}.{cls.name}.{node.attr}", node.attr


def _read_names():
    names = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    names.add(node.value)
    return names


def _uses(name, corpus):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    own_def = re.compile(rf"^\s*(async\s+)?def\s+{re.escape(name)}\b")
    return sum(1 for line in corpus
               if pattern.search(line) and not own_def.match(line))


def test_every_public_function_has_a_caller():
    corpus = [line for top in CALLERS
              for path in sorted((ROOT / top).rglob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines()]
    uncalled = sorted(qual for qual, name in _public_defs()
                      if not _uses(name, corpus))
    assert uncalled == [], f"public functions nothing calls: {uncalled}"


def test_every_stored_attribute_is_read():
    read = _read_names()
    unread = sorted({qual for qual, name in _stored_attributes()
                     if name not in read})
    assert unread == [], f"stored attributes nothing reads: {unread}"
