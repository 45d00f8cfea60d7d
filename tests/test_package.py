import ast
import sys
from pathlib import Path

import pytest

import gexforms

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gexforms"
TESTS = ROOT / "tests"
STDLIB = frozenset(sys.stdlib_module_names)

# Names in the package without a caller there, each with its reason.  A
# listed name that gains a caller or no longer exists must leave the list,
# so the list only shrinks.
UNCALLED = {
    "quadform.change_basis": "public: in __all__, the README's basis"
    " changes; the benchmark's forms-pipeline check calls it",
    "f2linalg.invertible_matrices": "benchmarks/tracing.py hooks it;"
    " it goes when the tracer hooks _gl_actions",
}


def imports(directory, pattern="*.py"):
    """(where, top-level package) of each absolute import in the files of
    directory that match pattern."""
    for path in sorted(directory.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                yield f"{path.name}:{node.lineno}: import {name}", top


def non_stdlib_imports(package):
    """The runtime stays stdlib-only: each import of the package names it or
    a standard-library module."""
    allowed = {"gexforms", *STDLIB}
    return [where for where, top in imports(package) if top not in allowed]


def library_imports_in_references(tests):
    """Each reference shares no code with the library path it checks, so
    reference.py imports no gexforms module."""
    found = imports(tests, "reference.py")
    return [where for where, top in found if top == "gexforms"]


def uninstalled_test_imports(tests):
    """CI installs only pytest and hypothesis, so each test import names the
    standard library, gexforms, pytest, hypothesis or a module in tests/."""
    allowed = {"gexforms", "pytest", "hypothesis", *STDLIB}
    allowed |= {path.stem for path in tests.glob("*.py")}
    return [where for where, top in imports(tests) if top not in allowed]


def uncalled_surface(package, uncalled=UNCALLED):
    """Each top-level function and class and each non-dunder method of the
    package has a caller there: a Name or Attribute node of its name outside
    __init__.py and outside its own body, unless uncalled lists it."""
    paths = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    defs = []  # (module.name or module.Class.name, name, path, node)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, path, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{path.stem}.{node.name}.{m.name}", m.name, path, m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                ]
    refs = [
        (path, node, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    bad = []
    for qual, name, path, node in defs:
        body = {id(n) for n in ast.walk(node)}
        callers = [
            f"{p.name}:{r.lineno}" for p, r, ref in refs if ref == name and id(r) not in body
        ]
        if not callers and qual not in uncalled:
            bad.append(f"{path.name}:{node.lineno}: {qual} has no caller")
        elif callers and qual in uncalled:
            bad.append(f"{qual} is listed as uncalled, but {callers[0]} calls it")
    names = {qual for qual, _, _, _ in defs}
    return bad + [
        f"{qual} is listed as uncalled, but no longer exists"
        for qual in uncalled
        if qual not in names
    ]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from gexforms import *", namespace)
    for name in gexforms.__all__:
        assert name in namespace, name


@pytest.mark.parametrize(
    "guard, directory",
    [
        (non_stdlib_imports, PACKAGE),
        (library_imports_in_references, TESTS),
        (uninstalled_test_imports, TESTS),
        (uncalled_surface, PACKAGE),
    ],
    ids=["stdlib-only", "references", "test-tree", "surface"],
)
def test_repository_guard(guard, directory):
    assert guard(directory) == []


@pytest.mark.parametrize(
    "guard, files, problem",
    [
        (
            lambda d: uncalled_surface(d, {}),
            {"a.py": "def f():\n    return f\n"},
            "a.py:1: a.f has no caller",
        ),
        (
            lambda d: uncalled_surface(d, {"a.f": "reason"}),
            {"a.py": "def f():\n    pass\n\n\nf()\n"},
            "a.f is listed as uncalled, but a.py:5 calls it",
        ),
        (
            lambda d: uncalled_surface(d, {"a.gone": "reason"}),
            {"a.py": ""},
            "a.gone is listed as uncalled, but no longer exists",
        ),
        (
            non_stdlib_imports,
            {"a.py": "import sys\nimport hypothesis\n"},
            "a.py:2: import hypothesis",
        ),
        (uninstalled_test_imports, {"test_a.py": "import numpy\n"}, "test_a.py:1: import numpy"),
        (
            library_imports_in_references,
            {"reference.py": "from gexforms.quadform import polar\n"},
            "reference.py:1: import gexforms.quadform",
        ),
    ],
    ids=["uncalled", "listed-gains-caller", "listed-gone", "hypothesis", "numpy", "reference"],
)
def test_guard_reports_bad_tree(tmp_path, guard, files, problem):
    """A guard that stops failing on a bad tree would pass any tree."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert guard(tmp_path) == [problem]
