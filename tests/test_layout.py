"""The module layout the single verdict path and the single
weak-central-product fold rest on, read from the source: verdicts are
built only in ``claims`` (``reports`` defines their types), the library
modules import at module level only, every decomposition goes through
``products.weak_central_chain``, size caps are the command's policy, so
no library function takes one, and ``src/`` defines nothing that only
the tests or the benchmark call."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import paulidecomp.claims

SRC = Path(paulidecomp.claims.__file__).parent
LIBRARY = ("algebra", "groupcore", "pauli", "heisenberg", "lifted",
           "products", "census")


def _mentions(tree: ast.AST) -> Counter:
    """How often a module mentions each identifier: names, attributes,
    imports."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.split(".")[-1] for a in node.names)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_claims_and_reports_name_verdicts(path):
    if path.stem in ("claims", "reports"):
        return
    named = (_mentions(ast.parse(path.read_text())).keys()
             & {"CLAIMS", "VerdictReport"})
    assert not named, f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize("module", LIBRARY)
def test_no_function_local_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    local = sorted(node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not local, f"{module}.py imports inside a function at {local}"


@pytest.mark.parametrize("module", LIBRARY)
def test_no_cap_parameters(module):
    """``cli`` checks a spec's order against its caps, and no library
    function bounds its own search by one.  The ``CapError`` types take
    the cap they report."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    errors = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and any(getattr(base, "id", "") == "CapError"
                      for base in cls.bases)
              for node in cls.body}
    capped = sorted(f"{func.name}({arg.arg})" for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and id(func) not in errors
                    for arg in ast.walk(func.args)
                    if isinstance(arg, ast.arg)
                    and arg.arg in ("cap", "closure_cap"))
    assert not capped, f"{module}.py takes caps in {capped}"


def _calls(module: str, name: str, attribute: bool) -> list[tuple]:
    """(outermost function or None, line) of every call to ``name`` in
    ``module``, as a method (``x.name(...)``) or as a plain name."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (attribute and isinstance(func, ast.Attribute)
                    and func.attr == name) or (
                    not attribute and isinstance(func, ast.Name)
                    and func.id == name):
                found.append((owner, node.lineno))
    return found


# the semidirect report also states complements and the centre as
# products and commutators of subgroups that are not all normal
FOLD_OWNERS = {"products": {"weak_central_chain"},
               "claims": {"heis_semidirect_report"}}


@pytest.mark.parametrize("module", sorted(FOLD_OWNERS))
@pytest.mark.parametrize("method", ("product_set", "commutator_with"))
def test_products_and_commutators_only_in_the_fold(module, method):
    stray = [call for call in _calls(module, method, attribute=True)
             if call[0] not in FOLD_OWNERS[module]]
    assert not stray, f"{module}.py calls .{method}( at {stray}"


@pytest.mark.parametrize("module,function", [
    ("products", "decompose_pauli_chain"),
    ("products", "extraspecial_decompose"),
    ("claims", "_p12_chain_search"),
])
def test_decompositions_call_the_fold(module, function):
    owners = {owner for owner, _ in
              _calls(module, "weak_central_chain", attribute=False)}
    assert function in owners


@pytest.mark.parametrize("module", sorted(FOLD_OWNERS))
def test_no_member_sets(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "set"
                   and any(isinstance(sub, ast.Attribute)
                           and sub.attr == "members"
                           for arg in node.args for sub in ast.walk(arg)))
    assert not lines, f"{module}.py builds set(... .members) at {lines}"


def test_every_definition_is_used_in_src():
    """Each function, method and class defined in ``src/`` is mentioned
    by name somewhere in ``src/`` outside its own body; special methods,
    which Python calls by protocol, are exempt.  A name that only tests
    or the benchmark call belongs in the tests, or nowhere."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    mentioned = sum(map(_mentions, trees.values()), Counter())
    unused = sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and mentioned[node.name] == _mentions(node)[node.name])
    assert not unused, f"defined in src/ but used nowhere there: {unused}"
