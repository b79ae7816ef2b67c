import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergocert import numerics
from ergocert.errors import EmptyDomain, InvalidParams, NoConvergence, NoSignChange
from ergocert.numerics import (
    elementary,
    maximize_scalar,
    solve_increasing_array,
    solve_monotone,
    std_normal_cdf,
)


def test_solve_sqrt2():
    root = solve_monotone(lambda x: x * x - 2.0, 1.0, 2.0, 2.0, -1.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-9


def test_solve_endpoint_root():
    assert solve_monotone(lambda x: x - 3.0, 3.0, 5.0, 5.0, 0.0) == 3.0
    assert solve_monotone(lambda x: x - 5.0, 3.0, 5.0, 5.0, -2.0) == 5.0
    assert solve_monotone(lambda x: x - 4.0, 3.0, 4.0, 5.0, -1.0) == 4.0  # at the near end


def test_solve_decreasing_function():
    root = solve_monotone(lambda x: -x**3 + 8.0, 1.0, 3.0, 3.0, 7.0)
    assert abs(root - 2.0) <= 1e-9


def test_no_sign_change():
    with pytest.raises(NoSignChange):
        solve_monotone(lambda x: x - 10.0, 0.0, 1.0, 1.0, -10.0)


def test_empty_bracket():
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(InvalidParams):
            solve_monotone(lambda x: x - 0.5, lo, hi, hi, lo - 0.5)


def test_iteration_budget():
    # A step from -1e300 to 1 at x = 1/3: each regula falsi point lands next
    # to the upper end, and halving the kept value -1e300 takes ~1000 steps
    # to balance the two, so the fixed budget of 256 steps runs out long
    # before the 1e300-wide bracket closes.
    with pytest.raises(NoConvergence):
        solve_monotone(lambda x: -1e300 if x < 1.0 / 3.0 else 1.0, 0.0, 1e300, 1e300, -1e300)


def test_solve_returns_the_lower_end_of_its_bracket():
    # The lower end of the final bracket: below the root of an increasing
    # and of a decreasing function alike, and within the width tolerance.
    root = math.sqrt(2.0)
    for f, target in ((lambda x: x * x, 2.0), (lambda x: -x * x, -2.0)):
        x = solve_monotone(lambda x: f(x) - target, 1.0, 2.0, 2.0, f(1.0) - target)
        assert x <= root and root - x <= 1e-12


def test_solve_takes_the_minimum_step_where_regula_falsi_rounds_onto_the_latest_point():
    # x^3 + x = 3 on [0, 4]: a step lands at x1 with f - 3 = -4.4e-16, and
    # the regula falsi point of x1 and the kept end x0 (the point before it,
    # on the other side of the root) rounds exactly onto x1. Brent's minimum
    # step moves _TOL_ABS / 2 past x1 towards x0 instead and closes the
    # bracket; the midpoint steps took 24 evaluations in all. Both twins.
    def f(x):
        return x * x * x + x

    calls = []
    x = solve_monotone(lambda x: calls.append(x) or f(x) - 3.0, 0.0, 4.0, 4.0, f(0.0) - 3.0)
    x0, x1 = calls[-3], calls[-2]
    g0, g1 = f(x0) - 3.0, f(x1) - 3.0
    assert g0 > 0.0 > g1 and x1 - g1 * (x1 - x0) / (g1 - g0) == x1
    assert calls[-1] == x1 + 0.5 * numerics._TOL_ABS  # one step, then closed
    assert x == x1 and f(x) <= 3.0
    assert calls[0] == 4.0 and len(calls) - 1 <= 16  # the end, then the steps
    array_calls = []
    got = solve_increasing_array(
        lambda x, t: array_calls.append(x) or f(x) - t, 0.0, 4.0, 4.0, f(0.0) - 3.0, np.array([3.0])
    )
    assert got[0] == x and len(array_calls) == len(calls)


# One element of the twin test: the cubic a x^3 + b x - t on [-2, 3], its
# target t at fraction frac of the way from its value at -2 to its value at
# 3 (frac 0 puts the root at -2, a frac below 0 or above 1 outside the
# bracket), and where the near end lies: at fraction u of the way from the
# wide solve's root up to hi ("above"), from lo up to that root ("under",
# planted under it), at hi or at lo.
_TWIN_ELEMENT = st.tuples(
    st.floats(0.1, 4.0),
    st.floats(0.1, 4.0),
    st.one_of(
        st.floats(0.05, 0.95), st.just(0.0), st.floats(-0.5, -0.05), st.floats(1.05, 1.5)
    ),
    st.sampled_from(("above", "under", "hi", "lo")),
    st.floats(0.05, 0.95),
)


@given(rows=st.lists(_TWIN_ELEMENT, min_size=1, max_size=16))
@settings(max_examples=80, deadline=None)
def test_solve_increasing_array_matches_solve_monotone_property(rows):
    # The float and array root finders write the same near step and the
    # same Illinois steps: on a cubic, where numpy and Python arithmetic
    # agree bit for bit, every element of the array solve evaluates f at the
    # points the scalar solve does, in the same order, and returns its bits
    # (NaN where the scalar solve raises NoSignChange). The near step tries
    # up only where f(lo) < 0 and lo < up, takes [lo, up] where f(up) >= 0,
    # and else evaluates hi, unless up is hi; each end is evaluated at most
    # once, lo never, and every later point lies strictly inside the bracket
    # taken. From up under the root, at hi or at lo the solve gives the
    # wide solve's bits, from up above the root a root within the stop
    # tolerance, on the lower side. The array finder evaluates nothing where
    # f(lo) >= 0 and returns lo or NaN there. A decreasing f (the cubic
    # negated) never tries up and gives the bits of the wide solve: the
    # Illinois steps depend on the signs of f only through their comparison.
    lo, hi = -2.0, 3.0

    def f(x, a, b, t):
        return a * (x * x * x) + b * x - t

    elements = []
    for a, b, frac, kind, u in rows:
        t = f(lo, a, b, 0.0) + frac * (f(hi, a, b, 0.0) - f(lo, a, b, 0.0))
        f_lo, solvable = f(lo, a, b, t), f(lo, a, b, t) < 0.0 <= f(hi, a, b, t)
        wide = solve_monotone(lambda x: f(x, a, b, t), lo, hi, hi, f_lo) if solvable else (
            lo if f_lo >= 0.0 else hi)
        up = {
            "above": wide + u * (hi - wide), "under": lo + u * (wide - lo), "hi": hi, "lo": lo
        }[kind]
        elements.append((a, b, t, f_lo, solvable, wide, kind, up))
    a, b, t, f_lo, _, _, _, up = (np.array(col) for col in zip(*elements))
    array_calls = [[] for _ in elements]

    def f_array(x, a, b, t, i):
        for xi, ii in zip(x.tolist(), i.tolist()):
            array_calls[int(ii)].append(xi)
        return f(x, a, b, t)

    got = solve_increasing_array(f_array, lo, up, hi, f_lo, a, b, t, np.arange(len(rows)))
    for i, (a, b, t, f_lo, solvable, wide, kind, up) in enumerate(elements):
        calls = []
        try:
            x = solve_monotone(lambda x: calls.append(x) or f(x, a, b, t), lo, up, hi, f_lo)
        except NoSignChange:
            x = math.nan
        ends = [up] if f_lo < 0.0 and lo < up else []
        near = bool(ends) and (f(up, a, b, t) >= 0.0 or up == hi)
        if f_lo != 0.0 and not near:
            ends.append(hi)
        assert calls[: len(ends)] == ends and lo not in calls
        top = up if near else hi
        assert all(lo < c < top for c in calls[len(ends):])
        if f_lo >= 0.0:
            assert array_calls[i] == [] and calls == ([] if f_lo == 0.0 else [hi])
            assert (x == got[i] == lo) if f_lo == 0.0 else (math.isnan(x) and math.isnan(got[i]))
            continue
        assert array_calls[i] == calls and got[i].hex() == x.hex()
        if not solvable:
            assert math.isnan(x)
            continue
        if kind == "above":
            assert near and wide - 1e-12 <= x <= wide + 1e-12 and f(x, a, b, t) <= 0.0
        else:
            assert x == wide
        decreasing = []
        negated = lambda x: decreasing.append(x) or -f(x, a, b, t)
        assert solve_monotone(negated, lo, up, hi, -f_lo) == wide and decreasing[0] == hi
        assert up not in decreasing or up == hi


def test_array_finder_evaluates_nothing_at_a_nan_lower_value():
    # An element whose value at lo is NaN costs no evaluation and comes
    # back NaN; the others solve as they would alone.
    seen = []

    def f(x, t):
        seen.append(x.size)
        return x - t

    got = solve_increasing_array(f, 0.0, 2.0, 4.0, np.array([np.nan, -1.0]), np.array([5.0, 1.0]))
    assert math.isnan(got[0]) and got[1] == 1.0 and set(seen) == {1}


@given(
    a=st.floats(0.1, 4.0),
    b=st.floats(0.1, 4.0),
    frac=st.floats(0.05, 0.95),
)
@settings(max_examples=60)
def test_solve_bracketing_property(a, b, frac):
    # Strictly increasing cubic; the returned root must straddle the target.
    f = lambda x: a * x**3 + b * x
    lo, hi = -2.0, 3.0
    target = f(lo) + frac * (f(hi) - f(lo))
    x = solve_monotone(lambda x: f(x) - target, lo, hi, hi, f(lo) - target)
    tol = 1e-9
    assert f(x - tol) - target <= 0.0 <= f(x + tol) - target


def test_maximize_quadratic_vertex():
    argmax, value = maximize_scalar(lambda x: -((x - 2.0) ** 2), 0.0, 5.0, lambda x: 2.0 * (x - 2.0))
    assert abs(argmax - 2.0) <= 1e-8
    assert abs(value) <= 1e-15


def _counted(f):
    # f, recording each argument it is called at.
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    return counted, seen


def test_maximize_constant():
    # rising 0 (a flat f) or NaN (no usable stationarity value) is not < 0
    # at lo: lo, with f evaluated once, there.
    for rising in (lambda x: 0.0, lambda x: math.nan):
        counted, seen = _counted(lambda x: 1.25)
        assert maximize_scalar(counted, 0.0, 1.0, rising) == (0.0, 1.25)
        assert seen == [0.0]


def test_maximize_keeps_the_window_end_where_f_climbs_out():
    # f still rises at hi (rising < 0 at both ends, no sign change) or
    # already falls at lo (rising > 0 there): that end, with f evaluated
    # once, there.
    for f, rising, end in ((lambda x: x, lambda x: -1.0, 1.0), (lambda x: -x, lambda x: 1.0, 0.0)):
        counted, seen = _counted(f)
        assert maximize_scalar(counted, 0.0, 1.0, rising) == (end, f(end))
        assert seen == [end]


def test_maximize_climbs_to_the_root_of_rising():
    # Between the ends the argmax is solve_monotone's root of rising from
    # the near end hi, bit for bit, and f is evaluated once, at that root.
    rising = lambda x: x - 0.3
    counted, seen = _counted(lambda x: -((x - 0.3) ** 2))
    argmax, value = maximize_scalar(counted, 0.0, 1.0, rising)
    assert argmax == solve_monotone(rising, 0.0, 1.0, 1.0, rising(0.0))
    assert abs(argmax - 0.3) <= 1e-12
    assert seen == [argmax] and value == -((argmax - 0.3) ** 2)


@given(r=st.floats(-1.0, 2.0))
@example(r=0.0)
@example(r=1.0)
@settings(max_examples=200)
def test_maximize_follows_the_root_of_rising(r):
    # rising = x - r turns at r: the argmax is lo where r <= lo, hi where
    # r > hi and solve_monotone's root otherwise. rising is taken first at
    # lo and only inside the window; f once, at the argmax.
    risings = []

    def rising(x):
        risings.append(x)
        return x - r

    counted, seen = _counted(lambda x: -((x - r) ** 2))
    argmax, value = maximize_scalar(counted, 0.0, 1.0, rising)
    if r <= 0.0:
        want = 0.0
    elif r > 1.0:
        want = 1.0
    else:
        want = solve_monotone(lambda x: x - r, 0.0, 1.0, 1.0, -r)
    assert argmax == want and seen == [want] and value == -((want - r) ** 2)
    assert risings[0] == 0.0 and all(0.0 <= x <= 1.0 for x in risings)


def _log_peak(m):
    # log(1 + x) - x/m peaks at x = m - 1; rising is -f', increasing in x.
    return (lambda x: math.log1p(x) - x / m), (lambda x: 1.0 / m - 1.0 / (1.0 + x))


@given(m=st.floats(0.5, 6.0))
@settings(max_examples=200)
def test_maximize_dominates_grid(m):
    # On a unimodal f peaking inside [0, 4] or beyond either end, the value
    # found is at least the best of a 2,000-point grid of the window.
    f, rising = _log_peak(m)
    argmax, value = maximize_scalar(f, 0.0, 4.0, rising)
    assert value == f(argmax)
    assert value >= max(f(x) for x in np.linspace(0.0, 4.0, 2000)) - 1e-12


def test_maximize_passes_errors_through():
    # An error raised by rising (before f is called) or by f at the argmax
    # comes out of the search with its type and text.
    def refuse(x):
        raise InvalidParams(f"refused x={x}")

    counted, seen = _counted(lambda x: x)
    with pytest.raises(InvalidParams, match="refused x=0.0"):
        maximize_scalar(counted, 0.0, 1.0, refuse)
    assert seen == []
    f, rising = _log_peak(2.0)
    argmax, _ = maximize_scalar(f, 0.0, 4.0, rising)
    with pytest.raises(InvalidParams, match=f"refused x={argmax}"):
        maximize_scalar(refuse, 0.0, 4.0, rising)


def test_maximize_empty_domain():
    # lo >= hi raises before f or rising is called.
    def never(x):
        raise AssertionError("called")

    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(EmptyDomain):
            maximize_scalar(never, lo, hi, never)


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_against_high_precision_value():
    # mpmath.ncdf(1) to 30 digits: 0.841344746068542948585232545632
    assert abs(std_normal_cdf(1.0) - 0.8413447460685429) <= 1e-12


def test_array_cdf_equals_float_cdf_bit_for_bit():
    # Both tails (down to underflow and up to saturation), signed zeros and
    # the centre, as 0-d, 1-d and 2-d arrays.
    grid = np.concatenate(
        [np.linspace(-40.0, 40.0, 4001), [-0.0, 0.0, -1e-300, 1e-300, -38.5, 8.3]]
    )
    cdf = elementary(grid).cdf
    for x in (grid, grid.reshape(-1, 1), grid.reshape(1, -1)):
        got = cdf(x)
        assert got.shape == x.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            std_normal_cdf(v).hex() for v in x.ravel().tolist()
        ]
    for v in (0.0, -0.0, -12.0, 3.5):
        assert cdf(np.asarray(v)).hex() == std_normal_cdf(v).hex()
        assert cdf(v).hex() == std_normal_cdf(v).hex()


def test_elementary_picks_float_functions_for_floats_and_ints():
    for x in (0.5, 3, -2, True, np.float64(0.5)):
        xp = elementary(x)
        assert (xp.exp, xp.log, xp.cdf) == (math.exp, math.log, std_normal_cdf)
        assert (xp.minimum, xp.maximum) == (min, max)
        assert xp.where(True, 1, 2) == 1 and xp.where(False, 1, 2) == 2
    for x in (np.array(0.5), np.array([1.0, 2.0]), np.zeros((2, 3), dtype=int)):
        xp = elementary(x)
        assert (xp.exp, xp.log, xp.minimum, xp.maximum, xp.where) == (
            np.exp, np.log, np.minimum, np.maximum, np.where
        )
        assert xp is elementary(np.array(1.0))


def test_cdf_symmetry():
    for x in (0.3, 1.0, 3.0, 7.5):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15


def test_cdf_monotone_on_grid():
    grid = np.linspace(-10.0, 10.0, 100_001)
    values = np.array([std_normal_cdf(x) for x in grid])
    assert (np.diff(values) >= 0.0).all()
    assert values[0] >= 0.0 and values[-1] <= 1.0


def test_cdf_saturates():
    assert std_normal_cdf(40.0) == 1.0
    assert std_normal_cdf(-40.0) == 0.0
