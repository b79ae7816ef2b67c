"""The per-layer metric names of BENCHMARK.json must name traced functions.

perfbench/run.py raises KeyError when a ``per_layer`` name, cut to its first
two dotted parts ``<module>.<function>``, is not a function the tracer wraps:
one named in ``ergocert.<module>.__all__`` and defined in that module. This
test applies the same rule, so a refactor that renames or hides such a
function fails here rather than in a traced benchmark run.
"""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import ergocert

ROOT = Path(__file__).resolve().parent.parent


def _workload_layer_metrics() -> set:
    # Read from run.py's source rather than imported, so the test executes
    # no benchmark code.
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "WORKLOAD_LAYER_METRICS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no WORKLOAD_LAYER_METRICS")


def test_per_layer_names_are_public_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    skip = _workload_layer_metrics()
    missing = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.startswith("trace.") or name in skip:
            continue
        layer, attr = name.split(".")[:2]
        module = importlib.import_module(f"ergocert.{layer}")
        obj = getattr(module, attr, None)
        if not (
            attr in getattr(module, "__all__", ())
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            missing.append(name)
    assert not missing, f"per-layer metrics naming no public function: {missing}"


def test_every_all_name_resolves():
    # The tracer looks up every name of each module's __all__, so a stale
    # entry fails only a traced run. __main__ runs the CLI when imported.
    stale = []
    for info in pkgutil.iter_modules(ergocert.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ergocert.{info.name}")
        stale += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"__all__ names that do not resolve: {stale}"
