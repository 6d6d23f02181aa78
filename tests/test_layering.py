"""Module layering: the package's modules reach one another only through
public names, so a ``_``-prefixed name is private to the module defining it."""

from __future__ import annotations

import ast
from pathlib import Path

import qcdcl_lab

PACKAGE = qcdcl_lab.__name__
MODULES = sorted(Path(qcdcl_lab.__file__).parent.glob("*.py"))


def private_uses(source: str):
    """(line, name) of every ``_``-prefixed name ``source`` takes from a
    sibling module: imported from it, relatively or by the package's name,
    or read as an attribute of a sibling module it imported."""
    tree = ast.parse(source)
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"{'.' * node.level}{module}.{alias.name}"
                elif not module or module == PACKAGE:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_the_detector_finds_each_kind_of_private_use():
    source = (
        "from __future__ import annotations\n"
        "from .trail import Trail, _trail_watches\n"
        "from qcdcl_lab.formula import _bits\n"
        "from . import trail as t\n"
        "import qcdcl_lab.proofs as p\n"
        "from random import _inst\n"
        "x = t._next_forced, p._helper, t.decide\n"
    )
    assert list(private_uses(source)) == [
        (2, ".trail._trail_watches"), (3, "qcdcl_lab.formula._bits"),
        (7, "t._next_forced"), (7, "p._helper"),
    ]


def test_no_module_uses_a_private_name_of_a_sibling():
    assert len(MODULES) > 5
    found = [f"{path.name}:{line}: {name}"
             for path in MODULES for line, name in private_uses(path.read_text())]
    assert found == []
