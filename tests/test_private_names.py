"""No module of the package reads another module's private name.

A ``_``-prefixed name belongs to the module that defines it; a second
module that needs it shares a format or a helper that should sit behind
a public function.  Each module is parsed with ``ast``: the names it
binds to package modules by ``from . import x`` (or ``from quatprym
import x``) are collected, and every attribute read through one of them,
and every name imported by ``from .x import name``, must be public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quatprym"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source):
    """[(line, 'module.name')] for each private name of another package
    module that the source reads."""
    tree = ast.parse(source)
    modules = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 or node.module == "quatprym":
            package = node.module if node.level == 1 else None
        elif (node.module or "").startswith("quatprym."):
            package = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            if package is None:
                if alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.append((node.lineno, f"{package}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize(
    "source,found",
    [
        ("from . import lie_engine\nlie_engine._halved((1, 1, 1))\n", (2, "lie_engine._halved")),
        ("from . import report as r\nr._claim_value([1])\n", (2, "report._claim_value")),
        ("from quatprym import qalg\nqalg._int_if_integral(1)\n", (2, "qalg._int_if_integral")),
        ("from .qalg import KNum, _int_if_integral\n", (1, "qalg._int_if_integral")),
        ("from quatprym.linalg import _one\n", (1, "linalg._one")),
    ],
)
def test_the_guard_sees_each_form_of_read(source, found):
    assert private_reads(source) == [found]


def test_public_and_dunder_reads_pass():
    source = "from . import lie_engine\nlie_engine.decompose\nlie_engine.__name__\nself._cache\n"
    assert private_reads(source) == []


def test_no_module_reads_another_modules_private_name():
    assert {"lie_engine", "report", "spin_explicit", "cli"} <= MODULES
    found = [
        f"{path.name}:{line} reads {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in private_reads(path.read_text())
    ]
    assert found == []
