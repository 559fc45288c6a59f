"""The module layout the single verdict path and the single
weak-central-product fold rest on, read from the source: verdicts are
built and their type defined only in ``claims``, the library
modules import at module level only, every decomposition goes through
``products.weak_central_chain``, size caps are the command's policy, so
no library function takes one, and ``src/`` defines nothing that only
the tests or the benchmark call."""

import ast
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_numpy_imported_after_the_package_modules(path):
    # compiled from source, a package module then peaks below numpy
    body = ast.parse(path.read_text()).body
    numpy = [node.lineno for node in body if isinstance(node, ast.Import)
             and any(a.name == "numpy" for a in node.names)]
    package = [node.lineno for node in body
               if isinstance(node, ast.ImportFrom) and node.level]
    assert not numpy or not package or min(numpy) > max(package), \
        f"{path.name} imports numpy at {numpy}, before line {max(package)}"


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


# Run in a fresh interpreter, so that the functions a command runs while
# its modules load (the verdict decorators) are seen too: each argv goes
# through cli.main with a tracer that records every code object entered,
# and the exit codes and the entered (file, first line) pairs come back
# as JSON.
_SWEEP = """
import contextlib, io, json, os, sys
src, argvs = sys.argv[1], json.load(sys.stdin)
entered = set()

def trace(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(trace)
from paulidecomp.cli import main
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.settrace(None)
ours = [(os.path.basename(path), line) for path, line in entered
        if os.path.dirname(os.path.realpath(path)) == src]
json.dump({"codes": codes, "entered": sorted(ours)}, sys.stdout)
"""

# argv, exit code: every subcommand and format, the three paper figures,
# the spec grammar's errors and the size limits
SWEEP = [
    (["--help"], 0),
    (["build", "d8"], 0),
    (["build", "q8", "--format", "text"], 0),
    (["build", "trivial"], 0),
    (["build", "e1:p=3"], 0),
    (["build", "e2:p=3"], 0),
    (["build", "pauli:p=3,m=2,n=1"], 0),
    (["build", "heis:R=gf(4),n=1"], 0),
    (["build", "heis:R=z(9),n=1"], 0),
    (["build", "heis:R=gf(3),n=1,reduced=true"], 0),
    (["build", "heis:R=gf(2),n=2,cocycle=polarized"], 0),
    (["build", "lifted:p=3,m=1,n=1"], 0),
    (["build", "lifted:p=2,m=2,n=1"], 0),
    (["decompose", "pauli:p=2,n=2"], 0),
    (["decompose", "pauli:p=3,n=1"], 0),
    (["decompose", "heis:R=gf(4),n=1"], 0),
    (["decompose", "heis:R=z(9),n=1"], 0),
    (["decompose", "trivial"], 0),
    (["decompose", "q8"], 0),
    (["census", "d8"], 0),
    (["census", "pauli:p=2,n=2"], 0),
    (["census", "heis:R=z(4),n=1"], 0),
    (["lattice", "d8"], 0),
    (["lattice", "pauli:p=2,n=2", "--format", "dot"], 0),
    (["lattice", "d8", "--filter", "paper_figure"], 0),
    (["lattice", "pauli:p=2,n=1", "--filter", "paper_figure"], 0),
    (["lattice", "heis:R=gf(3),n=1", "--filter", "paper_figure",
      "--format", "dot"], 0),
    (["lattice", "heis:R=z(3),n=1", "--filter", "paper_figure"], 0),
    (["lifted", "p=3,m=2,n=1"], 0),
    (["lifted", "lifted:p=2,m=1,n=1"], 0),
    (["verify", "all"], 0),
    (["verify", "eq19"], 0),
    (["build", "nosuch"], 2),
    (["build", "pauli:p"], 2),
    (["build", "pauli:p=2,p=3"], 2),
    (["build", "pauli:n=1"], 2),
    (["build", "pauli:p=x"], 2),
    (["build", "pauli:p=4"], 2),
    (["build", "pauli:p=2,m=0,n=1"], 2),
    (["build", "pauli:p=2,q=1"], 2),
    (["build", "heis:R=gf(x)"], 2),
    (["build", "heis:R=gf(6)"], 2),
    (["build", "heis:R=q(3)"], 2),
    (["build", "heis:reduced=yes"], 2),
    (["build", "heis:R=z(9),reduced=true"], 2),
    (["build", "e1:p=2"], 2),
    (["lifted", "pauli:p=3,n=1"], 2),
    (["lattice", "q8", "--filter", "paper_figure"], 2),
    (["verify", "nosuchclaim"], 2),
    (["build", "d8", "--cap-closure", "0"], 2),
    (["build", "pauli:p=2,n=2", "--cap-closure", "10"], 3),
    (["census", "pauli:p=2,n=2", "--cap-subgroups", "10"], 3),
    (["build", "heis:R=z(100000000000000003)"], 3),
    (["build", "pauli:p=3317044064679887385961981,n=1"], 3),
]


def _functions(code, name: str):
    """(file name, first line, qualified name) of each function and method
    compiled into ``code``.  Comprehensions and lambdas are not counted,
    nor special methods, which Python calls by protocol."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            short = const.co_name
            if not (short.startswith("<")
                    or (short.startswith("__") and short.endswith("__"))):
                yield (name, const.co_firstlineno,
                       getattr(const, "co_qualname", short))
            yield from _functions(const, name)


def test_every_function_runs_in_a_command(tmp_path):
    """Each function and method in ``src/`` is entered by some command: a
    sweep of CLI invocations covering every subcommand, format, paper
    figure, error exit and size limit, with ``--out`` writing to a file,
    to a missing directory, to a directory and to a path that cannot be
    written.  A function no command runs serves only the tests, or
    nothing."""
    (tmp_path / "blocked.json.tmp").mkdir()
    sweep = SWEEP + [
        (["build", "d8", "--out", str(tmp_path / "d8.json")], 0),
        (["build", "d8", "--out", str(tmp_path / "missing" / "d8.json")], 2),
        (["build", "d8", "--out", str(tmp_path)], 2),
        (["build", "d8", "--out", str(tmp_path / "blocked.json")], 2),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _SWEEP, str(SRC.resolve())],
        input=json.dumps([argv for argv, _ in sweep]), capture_output=True,
        text=True, env=env, check=True)
    result = json.loads(run.stdout)
    assert result["codes"] == [code for _, code in sweep]
    entered = set(map(tuple, result["entered"]))
    idle = sorted(
        qualname for path in sorted(SRC.glob("*.py"))
        for name, line, qualname in _functions(
            compile(path.read_text(), str(path), "exec"), path.name)
        if (name, line) not in entered)
    assert not idle, f"defined in src/ but run by no command: {idle}"
