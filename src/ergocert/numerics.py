"""Shared numerics: bracketed root finding, 1-D maximization, the standard
normal distribution function, and the elementary functions that let one
formula serve floats and numpy arrays. numpy is the only dependency.

Everything is a pure function of its arguments. The solvers favour
robustness over speed: every equation in this package is cheap, but some
are badly scaled (roots within 1e-7 of a bracket endpoint), which is where
plain bisection is hard to beat. ``solve_monotone`` solves one scalar
equation; ``solve_increasing_array`` solves a whole array of them with the
same steps. Likewise ``refine_max`` refines one scan by golden section and
``refine_max_array`` a scan per row.

Every solver stops on one fixed rule, the module constants below: a
bisection at bracket width ``_TOL_ABS`` and residual ``_TOL_RESIDUAL``
within ``_MAX_ITER`` steps, a golden section at width ``_REFINE_TOL``. No
caller sets them, so a change to the rule is made here, once.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import EmptyDomain, InvalidParams, NoConvergence, NoSignChange

__all__ = [
    "solve_monotone",
    "solve_increasing_array",
    "log_grid_array",
    "refine_max",
    "refine_max_array",
    "maximize_scalar",
    "std_normal_cdf",
    "elementary",
]

_SQRT2 = math.sqrt(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Stopping rule of every bisection: bracket width, residual, step budget.
_TOL_ABS = 1e-12
_TOL_RESIDUAL = 1e-10
_MAX_ITER = 256
# Stopping width of every golden-section refine.
_REFINE_TOL = 1e-10


def solve_monotone(f: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """Solve f(x) = target for continuous, strictly monotone f on [lo, hi].

    Bisection, so each step is unconditionally safe. Stops once the bracket
    is narrower than ``_TOL_ABS`` and the residual |f(x) - target| is below
    ``_TOL_RESIDUAL``, or once the bracket collapses to adjacent floats
    (the midpoint then is the root to working precision). Raises
    InvalidParams unless lo < hi, and NoConvergence when the budget of
    ``_MAX_ITER`` steps runs out first. Deterministic for fixed inputs.
    """
    if not (lo < hi):
        raise InvalidParams(f"bracket needs lo < hi, got [{lo}, {hi}]")
    flo = f(lo) - target
    if flo == 0.0:
        return lo
    fhi = f(hi) - target
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(
            f"f - target has the same sign at both endpoints: "
            f"f(lo)-t={flo:.3g}, f(hi)-t={fhi:.3g}"
        )
    increasing = flo < 0.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # The bracket collapsed to adjacent floats: mid is the root to
            # working precision, whatever the residual looks like there
            # (badly scaled equations can have slopes near 1/eps).
            return mid
        fm = f(mid) - target
        if fm == 0.0:
            return mid
        if hi - lo <= _TOL_ABS and abs(fm) <= _TOL_RESIDUAL:
            return mid
        if (fm < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(f"no convergence after {_MAX_ITER} bisection steps")


def solve_increasing_array(f: Callable, lo, hi, *args) -> np.ndarray:
    """``solve_monotone`` for arrays of increasing functions: element i
    solves f(x, args[0][i], args[1][i], ...) = 0 on [lo[i], hi[i]].

    lo, hi and args broadcast against each other; f takes and returns 1-d
    arrays. Each element takes the steps of ``solve_monotone``: an exact
    root at either end is returned as it is, and bisection stops on the
    same rule. All elements bisect together and finished ones drop out.
    Where f(lo) < 0 < f(hi) does not hold (no sign change, NaN values, or
    lo >= hi) the element comes back NaN, where ``solve_monotone`` would
    raise. Raises NoConvergence if an element is still open after the step
    budget.
    """
    lo, hi, *args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lo, hi, *args)))
    shape = lo.shape
    lo, hi, args = lo.ravel(), hi.ravel(), [a.ravel() for a in args]
    out = np.full(lo.shape, np.nan)
    with np.errstate(all="ignore"):
        bracketed = lo < hi
        flo = f(lo, *args)
        fhi = f(hi, *args)
        at_lo = bracketed & (flo == 0.0)
        at_hi = bracketed & ~at_lo & (fhi == 0.0)
        out[at_lo] = lo[at_lo]
        out[at_hi] = hi[at_hi]
        idx = np.flatnonzero(bracketed & (flo < 0.0) & (fhi > 0.0))
        lo, hi, args = lo[idx], hi[idx], [a[idx] for a in args]
        for _ in range(_MAX_ITER):
            if idx.size == 0:
                break
            mid = 0.5 * (lo + hi)
            fm = f(mid, *args)
            done = (
                ~((lo < mid) & (mid < hi))
                | (fm == 0.0)
                | ((hi - lo <= _TOL_ABS) & (np.abs(fm) <= _TOL_RESIDUAL))
            )
            below = fm < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if done.any():
                out[idx[done]] = mid[done]
                keep = ~done
                idx, lo, hi = idx[keep], lo[keep], hi[keep]
                args = [a[keep] for a in args]
    if idx.size:
        raise NoConvergence(f"no convergence after {_MAX_ITER} bisection steps")
    return out.reshape(shape)


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float):
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def log_grid_array(lo, hi, grid_points: int = 512) -> np.ndarray:
    """The scan points of ``maximize_scalar`` on [lo, hi], in increasing order.

    The first point is ``lo`` and the last ``hi``; the offsets in between are
    geometric, down to 1e-9 of the interval width, so the points crowd
    towards ``lo``. lo and hi broadcast against each other, and the result
    has their shape plus a last axis of ``grid_points`` scan points, so row
    i of 1-d inputs is the grid on [lo[i], hi[i]]. Each point is
    lo + (hi - lo) * offset, the last one hi.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not (hi > lo).all():
        raise EmptyDomain(f"need lo < hi, got [{lo}, {hi}]")
    if grid_points < 2:
        raise InvalidParams("grid_points must be >= 2")
    log_eps = math.log(1e-9)
    offsets = [0.0] + [
        math.exp(log_eps * (1.0 - i / (grid_points - 2))) if grid_points > 2 else 1.0
        for i in range(grid_points - 1)
    ]
    grid = lo[..., None] + (hi - lo)[..., None] * np.array(offsets)
    grid[..., -1] = hi
    return grid


def refine_max(
    f: Callable[[float], float], xs: list[float], vals: list[float]
) -> tuple[float, float]:
    """Best of the scan values ``vals = [f(x) for x in xs]``, refined by
    golden-section search on f between the winning point's neighbours.

    The first of several equal best values wins. Returns (argmax, value)
    with value >= every scan value.
    """
    i_best = max(range(len(xs)), key=lambda i: vals[i])
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, len(xs) - 1)]
    x_best, v_best = xs[i_best], vals[i_best]
    if b > a:
        x_ref, v_ref = _golden_max(f, a, b, _REFINE_TOL)
        if v_ref > v_best:
            x_best, v_best = x_ref, v_ref
    return x_best, v_best


def refine_max_array(f: Callable, xs, vals, *args) -> tuple:
    """``refine_max`` for rows: row i refines the scan ``vals[i]`` of
    f(x, args[0][i], args[1][i], ...) at the points ``xs[i]``.

    xs and vals are 2-d arrays of one shape, args 1-d arrays with one entry
    per row; f takes and returns 1-d arrays. Each row takes the steps of
    ``refine_max`` and its golden section: the first of equal best values,
    the same neighbour bracket, the same golden points and stop, the same
    pick of the final pair and acceptance only above the scan value. All
    open rows advance together, one evaluation each per call of f, and
    finished rows drop out. Returns arrays (argmax, value); a row is NaN
    where any of its scan values or evaluations was NaN, where the scalar
    objective would raise.
    """
    xs, vals = np.asarray(xs, dtype=float), np.asarray(vals, dtype=float)
    n_rows, n_points = xs.shape
    rows = np.arange(n_rows)
    i_best = np.argmax(vals, axis=1)
    x_best, v_best = xs[rows, i_best], vals[rows, i_best]
    a = xs[rows, np.maximum(i_best - 1, 0)]
    b = xs[rows, np.minimum(i_best + 1, n_points - 1)]
    failed = np.isnan(vals).any(axis=1)
    idx = np.flatnonzero(~failed & (b > a))
    a, b, args = a[idx], b[idx], [np.asarray(arg, dtype=float)[idx] for arg in args]
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1, *args), f(x2, *args)
    while idx.size:
        bad = np.isnan(f1) | np.isnan(f2)
        done = bad | ~(b - a > _REFINE_TOL)
        if done.any():
            failed[idx[bad]] = True
            fin = done & ~bad
            second = ~(f1[fin] >= f2[fin])
            x_ref = np.where(second, x2[fin], x1[fin])
            v_ref = np.where(second, f2[fin], f1[fin])
            better = v_ref > v_best[idx[fin]]
            won = idx[fin][better]
            x_best[won], v_best[won] = x_ref[better], v_ref[better]
            keep = ~done
            idx, a, b, x1, x2, f1, f2 = (v[keep] for v in (idx, a, b, x1, x2, f1, f2))
            args = [arg[keep] for arg in args]
            if not idx.size:
                break
        up = f1 < f2
        a = np.where(up, x1, a)
        b = np.where(up, b, x2)
        x_new = np.where(up, a + _INVPHI * (b - a), b - _INVPHI * (b - a))
        f_new = f(x_new, *args)
        x1, f1, x2, f2 = (
            np.where(up, x2, x_new),
            np.where(up, f2, f_new),
            np.where(up, x_new, x1),
            np.where(up, f_new, f1),
        )
    x_best[failed] = np.nan
    v_best[failed] = np.nan
    return x_best, v_best


def maximize_scalar(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Maximize f on [lo, hi]: 512-point log-spaced scan, then golden-section.

    The grid (``log_grid_array``) concentrates points near ``lo`` because the
    objectives fed to this routine typically live on intervals whose left
    end sits against a pole at 1. Unimodality is not assumed; the scan
    guards against local maxima and the golden-section pass (``refine_max``)
    only refines between the winning point's neighbours.

    Returns (argmax, value) with value >= every grid evaluation.
    """
    xs = log_grid_array(lo, hi).tolist()
    return refine_max(f, xs, [f(x) for x in xs])


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x).

    Evaluated through erfc, which keeps full relative accuracy in the lower
    tail; absolute error is far below 1e-12 everywhere. Saturates cleanly to
    0.0 / 1.0 for large |x|.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def _std_normal_cdf_array(x) -> np.ndarray:
    # std_normal_cdf elementwise through math.erfc, so every element equals
    # std_normal_cdf(float(x)) bit for bit; a 0-d x gives a numpy scalar.
    y = -np.asarray(x, dtype=float) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, y.ravel().tolist()), float, y.size).reshape(y.shape)


_FLOAT_FUNCTIONS = SimpleNamespace(
    exp=math.exp, log=math.log, cdf=std_normal_cdf, minimum=min, maximum=max,
    where=lambda condition, x, y: x if condition else y,
)
_ARRAY_FUNCTIONS = SimpleNamespace(
    exp=np.exp, log=np.log, cdf=_std_normal_cdf_array, minimum=np.minimum, maximum=np.maximum,
    where=np.where,
)


def elementary(x) -> SimpleNamespace:
    """exp, log, cdf (Phi), minimum, maximum and where for arguments like x.

    numpy's functions when x is a numpy array, ``math``'s, the builtins and
    a conditional expression otherwise. cdf is ``std_normal_cdf`` for
    floats and the same erfc formula elementwise for arrays, so both give
    the same bits. A formula that takes floats or arrays calls this once,
    on its first argument, so float arguments go through exactly the float
    operations.
    """
    return _ARRAY_FUNCTIONS if isinstance(x, np.ndarray) else _FLOAT_FUNCTIONS
