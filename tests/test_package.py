"""The package namespace: ``verify`` and its re-exported names resolve on
first access, to the objects of ``ergocert.verify``; and every exported
function and class has a caller outside the tests."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import ergocert
from ergocert import verify

VERIFY_NAMES = (
    "IncrementDistribution",
    "RenewalSequence",
    "certificate_domination",
    "kendall_check",
    "mc_regeneration",
    "renewal_from_increments",
    "run_all_suites",
    "run_kendall_suite",
    "run_matrix_suite",
    "run_mc_suite",
)


def test_verify_names_are_the_objects_of_verify():
    from ergocert import renewal_from_increments, run_all_suites

    assert ergocert.verify is verify
    assert run_all_suites is verify.run_all_suites
    assert renewal_from_increments is verify.renewal_from_increments
    for name in VERIFY_NAMES:
        assert getattr(ergocert, name) is getattr(verify, name), name
        assert name in dir(ergocert)


def test_namespace_lists_no_importlib_and_loads_no_numpy():
    # A fresh process: importing the package and listing it must load
    # neither numpy nor verify, and the lazy names stay listed.
    script = (
        "import sys, ergocert\n"
        "names = dir(ergocert)\n"
        "print('importlib' in names, sorted(ergocert._VERIFY_NAMES - set(names)),"
        " 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False [] False\n"
    assert set(VERIFY_NAMES) <= set(dir(ergocert))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ergocert.no_such_name
    with pytest.raises(ImportError):
        from ergocert import no_such_name  # noqa: F401
    assert not hasattr(ergocert, "run_all_suite")


def _package_sources() -> dict:
    # {module name: syntax tree} of every module of the package.
    root = Path(ergocert.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _public_definitions(module: str, tree: ast.Module) -> set:
    # The functions and classes a module lists in __all__; ``errors``, which
    # has no __all__, exports every class it defines.
    defined = {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return defined & {elt.value for elt in node.value.elts}
    return defined if module == "errors" else set()


def _uses(sources: dict) -> set:
    # (module, name) pairs that the package's own code uses: a name inside
    # its module, an import from its module, or an attribute of the module
    # imported. Definitions, __all__ strings, docstrings and the re-exports
    # of the package namespace are not uses.
    used = set()
    for module, tree in sources.items():
        module_aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        module_aliases[alias.asname or alias.name] = alias.name
                    elif module != "__init__":
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in module_aliases:
                    used.add((module_aliases[node.value.id], node.attr))
    return used


def test_every_exported_function_and_class_has_a_caller():
    # Library surface that only the tests call is dead weight: each public
    # function and class must be used by other code of the package.
    sources = _package_sources()
    used = _uses(sources)
    unused = sorted(
        f"{module}.{name}"
        for module, tree in sources.items()
        for name in _public_definitions(module, tree)
        if (module, name) not in used
    )
    assert unused == []
