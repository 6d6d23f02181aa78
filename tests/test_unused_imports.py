"""Every top-level import of a package module is used in that module; the
package's ``__init__`` counts as using all of its imports (re-exports)."""

from __future__ import annotations

import ast

from test_layering import MODULES


def _names_in(node):
    """Names ``node`` reads, those in string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield from _names_in(ast.parse(ann.value, mode="eval"))


def unused_imports(source: str):
    """(line, name) of every name a top-level import binds that the module
    never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set(_names_in(tree))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_detector_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import copy\n"
        "import os.path\n"
        "from itertools import islice, chain as ch\n"
        "from typing import NamedTuple\n"
        "def f(x: 'NamedTuple') -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "copy"), (4, "ch"), (4, "islice")]


def test_no_module_has_an_unused_import():
    found = [f"{path.name}:{line}: {name}"
             for path in MODULES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []
