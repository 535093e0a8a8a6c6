"""Every public function and method of the package has a caller.

A name counts as called when it appears, as a whole word, anywhere in
src/, tests/ or perfbench/ outside its own ``def`` line.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "glpq"
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


def _uses(name, corpus):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    own_def = re.compile(rf"^\s*(async\s+)?def\s+{re.escape(name)}\b")
    return sum(1 for line in corpus
               if pattern.search(line) and not own_def.match(line))


def test_every_public_function_has_a_caller():
    corpus = [line for top in SEARCHED
              for path in sorted((ROOT / top).rglob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines()]
    uncalled = sorted(qual for qual, name in _public_defs()
                      if not _uses(name, corpus))
    assert uncalled == [], f"public functions nothing calls: {uncalled}"
