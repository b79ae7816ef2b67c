"""In-memory span tracer for the ergocert layers.

The tracer wraps every public function (a function named in ``__all__``) of
each layer module of ``ergocert`` and rebinds the wrapper at every module
attribute that held the original. Rebinding everywhere matters because the
package imports functions by name: ``kendall`` and ``bounds`` hold their own
``solve_monotone``/``maximize_scalar`` bindings, ``tables`` holds
``rho_general``, and so on, so patching the defining module alone would miss
those calls.

Each call records one span (name, start, end, parent) in flat arrays. Solver
calls also count objective evaluations by wrapping the objective they are
given. Nothing is aggregated while the program runs; ``summary`` computes
calls, inclusive time and self time (span time minus the time of its child
spans) once the traced batch has finished, and ``save`` writes the raw spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("numerics", "kendall", "bounds", "competitors", "models", "verify", "tables", "cli")

# Solvers whose first argument is the objective; its calls are the solver's
# evaluation (iteration) count.
SOLVERS = ("numerics.solve_monotone", "numerics.maximize_scalar")


def _certificate_label(args, kwargs) -> str:
    p = args[0] if args else kwargs["p"]
    symmetry = args[1] if len(args) > 1 else kwargs.get("symmetry", "general")
    return f"{symmetry}.{'atomic' if p.atomic else 'nonatomic'}"


def _first_arg_label(args, kwargs) -> str:
    return str(args[0] if args else next(iter(kwargs.values())))


# Spans of these functions carry a label, so one function's time can be
# split by the case it served (regime and atom kind, method, table number).
LABELS = {
    "bounds.certificate": _certificate_label,
    "models.optimize_mh_tuning": _first_arg_label,
    "models.optimize_contracting_tuning": _first_arg_label,
    "tables.build_table": _first_arg_label,
}


class Tracer:
    """Records spans for calls into the ergocert layers while installed."""

    def __init__(self, labels: dict | None = None) -> None:
        self.labels = dict(LABELS, **(labels or {}))
        self.names: list[str] = []
        self.bases: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.evals = {name: [0] for name in SOLVERS}
        self._stack = [-1]
        self._bindings: list[tuple] = []
        self.wrapped: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str, base: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.bases.append(base)
        return nid

    def _wrap(self, base: str, fn):
        labeler = self.labels.get(base)
        cell = self.evals.get(base)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        fixed_id = self._intern(base, base) if labeler is None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id
            if nid is None:
                nid = self._intern(f"{base}.{labeler(args, kwargs)}", base)
            if cell is not None:
                objective = args[0]

                def counted(x):
                    cell[0] += 1
                    return objective(x)

                args = (counted,) + args[1:]
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _bind(self) -> None:
        """Build the wrappers and find every binding of the originals, once."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ergocert.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self.wrapped.add(f"{layer}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ergocert" or mod_name.startswith("ergocert.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._bindings.append((mod, attr, val, wrappers[val]))

    def install(self) -> None:
        """Rebind every binding of a public layer function to its wrapper."""
        if not self._bindings:
            self._bind()
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        return start, end, parent, name_id

    def summary(self) -> dict:
        """Per span name and per base function: calls, s (inclusive), self_s.

        Labeled spans appear under ``<base>.<label>`` and are also summed
        into ``<base>``. Solvers get ``evals`` as well. ``top_s`` is the time
        spent inside top-level spans, i.e. inside the program at all.
        """
        start, end, parent, name_id = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=self_t, minlength=n)
        out: dict[str, dict] = {}
        for i, (name, base) in enumerate(zip(self.names, self.bases)):
            for key in {name, base}:
                row = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += int(calls[i])
                row["s"] += float(incl[i])
                row["self_s"] += float(own[i])
        for name, cell in self.evals.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["evals"] = cell[0]
        return {
            "spans": int(dur.size),
            "top_s": float(dur[~nested].sum()),
            "functions": out,
        }

    def save(self, path: Path) -> None:
        """Write the raw spans (name table plus one row per span)."""
        start, end, parent, name_id = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
        )
