"""The package namespace: ``verify`` and its re-exported names resolve on
first access, to the objects of ``ergocert.verify``; every exported
function and class has a caller outside the tests, every public method and
property of an exported class a use, and every defaulted parameter of an
exported function a call that passes it."""

import ast
import math
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


def _benchmark_sources() -> list:
    # The syntax trees of the benchmark harness next to the tests.
    root = Path(__file__).resolve().parents[1] / "perfbench"
    return [ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))]


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


def _exported_nodes(sources: dict, kind) -> list:
    # (module, definition) of every exported function or class.
    return [
        (module, node)
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, kind) and node.name in _public_definitions(module, tree)
    ]


def test_every_public_member_of_an_exported_class_is_used():
    # A method or property that nothing reads is dead weight too: its name
    # must be read as an attribute somewhere in the package.
    sources = _package_sources()
    read = {
        node.attr
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = sorted(
        f"{module}.{cls.name}.{member.name}"
        for module, cls in _exported_nodes(sources, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    )
    assert unused == []


def _passes(call: ast.Call, index: int, name: str) -> bool:
    # Whether a call passes the parameter at this position or of this name;
    # a starred argument or a ** mapping may pass any of them.
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return any(isinstance(arg, ast.Starred) for arg in call.args) or len(call.args) > index


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # A default that no caller overrides is a setting only the tests make:
    # some call in the package or the benchmark harness must pass each one.
    sources = _package_sources()
    calls = {}
    for tree in [*sources.values(), *_benchmark_sources()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = []
    for module, fn in _exported_nodes(sources, ast.FunctionDef):
        positional = [*fn.args.posonlyargs, *fn.args.args]
        defaulted = [
            (i, arg.arg)
            for i, arg in enumerate(positional)
            if i >= len(positional) - len(fn.args.defaults)
        ]
        defaulted += [
            (math.inf, arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        never += [
            f"{module}.{fn.name}({name})"
            for i, name in defaulted
            if not any(_passes(call, i, name) for call in calls.get(fn.name, []))
        ]
    assert never == []
