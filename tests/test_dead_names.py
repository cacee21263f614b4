"""Every public top-level function and class of the package is read by
the program.

The program is ``src/quatprym`` but its ``__init__.py``, ``scripts/``
and the files of ``perfbench/`` that are not tests.  The tests do not
count, so a helper that only tests call belongs in the tests; nor do
the package's imports and ``__all__``, so an export that nothing else
reads is dead.  Each file is parsed with ``ast``, and a read is a loaded
name or attribute, a name imported by ``from ... import``, or a string
constant equal to the name: the benchmark names the functions it wraps
in tuples of strings, and the registry names its scenario readouts in
strings.  Names are matched without their module, so a name that two
modules define counts as read when either is.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quatprym"
PROGRAM = (
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "scripts").glob("*.py"))
    + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
)


def definitions(source):
    """The public top-level functions and classes the source defines."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def reads(source):
    """Every name the source reads, in any of the forms above."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize(
    "source",
    [
        "f()\n",
        "from quatprym import linalg\nlinalg.f\n",
        "from .linalg import f\n",
        "SPANS = (('linalg', 'f'),)\n",
    ],
)
def test_the_guard_sees_each_form_of_read(source):
    assert "f" in reads(source)


def test_definitions_and_stores_are_no_reads():
    source = (
        "def f():\n    pass\n\n\nclass G:\n    pass\n\n\n"
        "h = 1\nx.k = 2\n\n\ndef _p():\n    pass\n"
    )
    assert definitions(source) == ["f", "G"]
    assert not {"f", "G", "h", "k"} & reads(source)


def test_every_public_function_and_class_is_read_by_the_program():
    names = {p.name for p in PROGRAM}
    assert {"linalg.py", "report.py", "run.py", "layers.py", "run_report.py"} <= names
    assert "__init__.py" not in names
    read = set().union(*(reads(p.read_text()) for p in PROGRAM))
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in definitions(path.read_text())
        if name not in read
    ]
    assert dead == []
