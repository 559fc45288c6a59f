"""The module layout the single verdict path rests on, read from the
source: verdicts are built only in ``claims`` (``reports`` defines their
types), and the library modules import at module level only."""

import ast
from pathlib import Path

import pytest

import paulidecomp.claims

SRC = Path(paulidecomp.claims.__file__).parent
LIBRARY = ("algebra", "cyclotomic", "groupcore", "pauli", "heisenberg",
           "lifted", "products", "census")


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module mentions: names, attributes, imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.split(".")[-1] for a in node.names)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_claims_and_reports_name_verdicts(path):
    if path.stem in ("claims", "reports"):
        return
    named = _names(ast.parse(path.read_text())) & {"CLAIMS", "VerdictReport"}
    assert not named, f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize("module", LIBRARY)
def test_no_function_local_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    local = sorted(node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not local, f"{module}.py imports inside a function at {local}"
