"""Every function, class and method of the package is referenced.

A definition counts as referenced when its name occurs as a word in the
Python sources under src/, tests/ or perfbench/, read as text, outside
the lines of its own definition.  A helper left behind by its only
caller fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pipeline.run_stage reaches these through getattr(self, "_stage%d" % n)
DISPATCHED = {"_stage%d" % n for n in range(1, 8)}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _words(text):
    return Counter(re.findall(r"\w+", text))


def test_every_definition_is_referenced():
    texts = {path: path.read_text()
             for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    total = sum((_words(text) for text in texts.values()), Counter())
    unreferenced = []
    for path in sorted((ROOT / "src" / "harborth").glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for node in ast.walk(ast.parse(texts[path])):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name in DISPATCHED or (name.startswith("__")
                                      and name.endswith("__")):
                continue
            own = _words("".join(lines[node.lineno - 1:node.end_lineno]))
            if total[name] == own[name]:
                unreferenced.append("%s:%d %s" % (path.name, node.lineno,
                                                  name))
    assert not unreferenced, unreferenced
