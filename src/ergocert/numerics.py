"""Shared numerics: bracketed root finding, 1-D maximization, the standard
normal distribution function, and the elementary functions that let one
formula serve floats and numpy arrays. numpy is the only dependency, and
only the array functions import it, on entry: a scalar computation never
loads it.

Everything is a pure function of its arguments. ``solve_monotone`` solves
one scalar equation f(x) = 0 and ``solve_increasing_array`` a whole array of
them, both from f's value at lo, which the caller hands over, and a near
end up in [lo, hi] that they try first (one near step, written in each),
and both by the Illinois method (Dowell & Jarratt 1971), with one step rule:
from the latest point x1 and the end x0 kept from before, whose values
differ in sign, the next point x is their regula falsi point; where that
point lies less than ``_TOL_ABS`` / 2 from x1, x is x1 moved ``_TOL_ABS`` / 2
towards x0 instead (Brent's minimum step, Brent 1973, ch. 4), and where x
is then not strictly between them, their midpoint. The minimum step is
for a point that lands within an ulp of the root: the next regula falsi
point rounds onto it, and midpoint steps alone would bisect the rest of the
bracket. From |x1| = 2^13 = 8192 on, ``_TOL_ABS`` / 2 is under half an ulp
of x1 and the minimum step rounds back onto it, so the midpoint takes over
there. Where f(x) and
f(x1) differ in sign, x1 becomes the kept end; otherwise x0 is kept once
more and its value halved, which pulls the next point towards it, so both
ends close in on the root. Both return the lower end of the final bracket,
which for every radius this package solves is the certified side. The
scalar finder writes the rule with conditionals and the array finder with
``np.where``: routing floats through ``np.where``-style selection made
every scalar solve ~30 % slower.
``maximize_scalar`` finds the maximum of f as the root of the caller's
stationarity function by ``solve_monotone`` over the whole interval, and
evaluates f once, at that root.

Every root finder stops on one fixed rule (``_closed``) on the module
constants below: a bracket at most ``_TOL_ABS`` wide, or with no float
strictly inside, within ``_MAX_ITER`` steps. No caller sets them, so a
change to the rule is made here, once.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from .errors import EmptyDomain, InvalidParams, NoConvergence, NoSignChange

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "solve_monotone",
    "solve_increasing_array",
    "maximize_scalar",
    "std_normal_cdf",
    "elementary",
]

_SQRT2 = math.sqrt(2.0)

# Stopping rule of every root finder: bracket width, step budget.
_TOL_ABS = 1e-12
_MAX_ITER = 256


def _closed(x0, x1):
    # The stop rule, on floats or arrays: the bracket between x0 and x1 is
    # at most _TOL_ABS wide or holds no float strictly inside.
    mid = 0.5 * (x0 + x1)
    return (abs(x1 - x0) <= _TOL_ABS) | ((mid - x0) * (mid - x1) >= 0.0)


def solve_monotone(f: Callable, lo: float, up: float, hi: float, f_lo: float) -> float:
    """Solve f(x) = 0 for continuous, strictly monotone f on [lo, hi], given
    f_lo = f(lo) and a near end up in [lo, hi]; f is never called at lo.

    The near step: where f_lo < 0 and lo < up, the solve runs on [lo, up]
    if f(up) >= 0; otherwise on [lo, hi], with f(hi) evaluated unless up is
    hi. Illinois steps (the module's step rule) keep a sign change of f in
    the bracket. Returns the lower end of the final bracket once it is at
    most ``_TOL_ABS`` wide or holds no float strictly inside, an exact root
    as soon as a step lands on one, and lo or the upper end where f is 0
    there. Raises InvalidParams unless lo < hi, NoSignChange when f has one
    sign at both ends, and NoConvergence when the budget of ``_MAX_ITER``
    steps runs out first. Deterministic for fixed inputs.
    """
    if not (lo < hi):
        raise InvalidParams(f"bracket needs lo < hi, got [{lo}, {hi}]")
    if f_lo == 0.0:
        return lo
    f_up = f(up) if f_lo < 0.0 and lo < up else math.nan
    near = f_up >= 0.0 or (up == hi and f_lo < 0.0)
    hi, f_hi = (up, f_up) if near else (hi, f(hi))
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoSignChange(
            f"f has the same sign at both endpoints: f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g}"
        )

    # x1 is the latest point and x0 the end kept from before.
    x0, g0, x1, g1 = lo, f_lo, hi, f_hi
    for _ in range(_MAX_ITER):
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        if abs(x - x1) < 0.5 * _TOL_ABS:
            x = x1 + math.copysign(0.5 * _TOL_ABS, x0 - x1)
        if not (x - x0) * (x - x1) < 0.0:
            x = 0.5 * (x0 + x1)
        gx = f(x)
        if (gx < 0.0) != (g1 < 0.0):
            x0, g0 = x1, g1
        else:
            g0 *= 0.5
        x1, g1 = x, gx
        if gx == 0.0:
            return x
        if _closed(x0, x1):
            return min(x0, x1)
    raise NoConvergence(f"no convergence after {_MAX_ITER} Illinois steps")


def _array_brackets(f, lo, up, hi, f_lo, args) -> tuple:
    # The ends of solve_increasing_array on 1-d inputs, by solve_monotone's
    # near step where f_lo < 0: the result with an exact root at either end
    # filled in and NaN elsewhere, the indices of the elements with f < 0 at
    # lo and > 0 at the end taken, and their ends, values and arguments.
    # The full-size copies die here, before any step.
    import numpy as np

    def f_at(x, where):
        return f(x[where], *(arg[where] for arg in args)) if where.any() else x[where]

    out = np.where((lo < hi) & (f_lo == 0.0), lo, np.nan)
    idx = np.flatnonzero((lo < hi) & (f_lo < 0.0))
    lo, up, hi, f_lo, args = lo[idx], up[idx], hi[idx], f_lo[idx], [arg[idx] for arg in args]
    f_hi = np.full(idx.shape, np.nan)
    tried = lo < up
    f_hi[tried] = f_at(up, tried)
    near = (f_hi >= 0.0) | (up == hi)
    hi = np.where(near, up, hi)
    f_hi[~near] = f_at(hi, ~near)
    out[idx[f_hi == 0.0]] = hi[f_hi == 0.0]
    keep = f_hi > 0.0
    return out, idx[keep], lo[keep], f_lo[keep], hi[keep], f_hi[keep], [arg[keep] for arg in args]


def solve_increasing_array(f: Callable, lo, up, hi, f_lo, *args) -> np.ndarray:
    """``solve_monotone`` for arrays of increasing functions: element i
    solves f(x, args[0][i], args[1][i], ...) = 0 on [lo[i], hi[i]], given
    its value f_lo[i] at lo[i] and its near end up[i].

    All inputs broadcast against each other; f takes and returns 1-d arrays.
    Each element takes the steps of ``solve_monotone``: the near step, an
    exact root at either end returned as it is, and the Illinois steps,
    which stop on the same rule with the same end returned. All elements
    step together and finished ones drop out. f is called only where
    f_lo < 0, so an element with f_lo NaN costs no evaluation. Where f is
    not < 0 at lo and > 0 at the end taken (no sign change, NaN values, or
    lo >= hi) the element comes back NaN, where ``solve_monotone`` would
    raise or solve a decreasing f. Raises NoConvergence if an element is
    still open after the step budget.
    """
    import numpy as np

    lo, up, hi, f_lo, *args = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lo, up, hi, f_lo, *args))
    )
    shape = lo.shape
    with np.errstate(all="ignore"):
        out, idx, x0, g0, x1, g1, args = _array_brackets(
            f, *(a.ravel() for a in (lo, up, hi, f_lo)), [a.ravel() for a in args]
        )
        for _ in range(_MAX_ITER):
            if idx.size == 0:
                break
            x = x1 - g1 * (x1 - x0) / (g1 - g0)
            x = np.where(abs(x - x1) < 0.5 * _TOL_ABS, x1 + np.copysign(0.5 * _TOL_ABS, x0 - x1), x)
            x = np.where((x - x0) * (x - x1) < 0.0, x, 0.5 * (x0 + x1))
            gx = f(x, *args)
            flip = (gx < 0.0) != (g1 < 0.0)
            x0, g0 = np.where(flip, x1, x0), np.where(flip, g1, 0.5 * g0)
            x1, g1 = x, gx
            done = (gx == 0.0) | _closed(x0, x1)
            if done.any():
                out[idx[done]] = np.where(gx == 0.0, x, np.minimum(x0, x))[done]
                keep = ~done
                idx, x0, g0, x1, g1 = (v[keep] for v in (idx, x0, g0, x1, g1))
                args = [arg[keep] for arg in args]
    if idx.size:
        raise NoConvergence(f"no convergence after {_MAX_ITER} Illinois steps")
    return out.reshape(shape)


def maximize_scalar(f: Callable, lo: float, hi: float, rising: Callable) -> tuple[float, float]:
    """Maximize f on [lo, hi] at the root of rising.

    rising(x) must be < 0 where f still increases and > 0 past its peak,
    like -f'(x), and change sign at most once on [lo, hi]. The argmax is lo
    where rising(lo) is not < 0 (f falls from lo), hi where rising has no
    sign change on [lo, hi] (f climbs to hi), and otherwise the root of
    rising by ``solve_monotone`` from the near end hi. f is evaluated once,
    at the argmax. Returns (argmax, value); raises EmptyDomain unless
    lo < hi.
    """
    if not (lo < hi):
        raise EmptyDomain(f"need lo < hi, got [{lo}, {hi}]")
    rising_lo = rising(lo)
    if not rising_lo < 0.0:
        x = lo
    else:
        try:
            x = solve_monotone(rising, lo, hi, hi, rising_lo)
        except NoSignChange:
            x = hi
    return x, f(x)


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
    import numpy as np

    y = -np.asarray(x, dtype=float) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, y.ravel().tolist()), float, y.size).reshape(y.shape)


_FLOAT_FUNCTIONS = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log=math.log, log1p=math.log1p, cdf=std_normal_cdf,
    minimum=min, maximum=max,
    where=lambda condition, x, y: x if condition else y,
)


@functools.cache
def _array_functions() -> SimpleNamespace:
    import numpy as np

    return SimpleNamespace(
        exp=np.exp, expm1=np.expm1, log=np.log, log1p=np.log1p, cdf=_std_normal_cdf_array,
        minimum=np.minimum, maximum=np.maximum, where=np.where,
    )


def _is_array(x) -> bool:
    # Whether x is a numpy array, without importing numpy: an array exists
    # only once numpy is loaded, so an unloaded numpy answers no.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def elementary(x) -> SimpleNamespace:
    """exp, expm1, log, log1p, cdf (Phi), minimum, maximum and where for
    arguments like x.

    numpy's functions when x is a numpy array, ``math``'s, the builtins and
    a conditional expression otherwise; the test does not import numpy. cdf
    is ``std_normal_cdf`` for floats and the same erfc formula elementwise
    for arrays, so both give the same bits. A formula that takes floats or
    arrays calls this once, on its first argument, so float arguments go
    through exactly the float operations.
    """
    if isinstance(x, float) or not _is_array(x):  # floats, the common case, first
        return _FLOAT_FUNCTIONS
    return _array_functions()
