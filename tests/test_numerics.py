import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert.errors import EmptyDomain, InvalidParams, NoConvergence, NoSignChange, OutOfRange
from ergocert.numerics import (
    elementary,
    log_grid_array,
    maximize_scalar,
    refine_max,
    refine_max_array,
    solve_monotone,
    std_normal_cdf,
)


def test_solve_sqrt2():
    root = solve_monotone(lambda x: x * x, 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-9


def test_solve_endpoint_root():
    assert solve_monotone(lambda x: x, 3.0, 3.0, 5.0) == 3.0
    assert solve_monotone(lambda x: x, 5.0, 3.0, 5.0) == 5.0


def test_solve_decreasing_function():
    root = solve_monotone(lambda x: -x**3, -8.0, 1.0, 3.0)
    assert abs(root - 2.0) <= 1e-9


def test_no_sign_change():
    with pytest.raises(NoSignChange):
        solve_monotone(lambda x: x, 10.0, 0.0, 1.0)


def test_empty_bracket():
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(InvalidParams):
            solve_monotone(lambda x: x, 0.5, lo, hi)


def test_iteration_budget():
    # From a bracket 1e300 wide, 256 halvings leave it ~1e223 wide, far
    # from the width tolerance, so the fixed step budget runs out.
    with pytest.raises(NoConvergence):
        solve_monotone(lambda x: x, 1.0 / 3.0, 0.0, 1e300)


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
    x = solve_monotone(f, target, lo, hi)
    tol = 1e-9
    assert f(x - tol) - target <= 0.0 <= f(x + tol) - target


def test_maximize_quadratic_vertex():
    argmax, value = maximize_scalar(lambda x: -((x - 2.0) ** 2), 0.0, 5.0)
    assert abs(argmax - 2.0) <= 1e-8
    assert abs(value) <= 1e-15


def test_maximize_constant():
    argmax, value = maximize_scalar(lambda x: 1.25, 0.0, 1.0)
    assert value == 1.25
    assert 0.0 <= argmax <= 1.0


def test_maximize_dominates_grid():
    f = lambda x: math.sin(5.0 * x) / (1.0 + x)
    _, value = maximize_scalar(f, 0.0, 4.0)
    grid = np.linspace(0.0, 4.0, 2000)
    assert value >= max(f(x) for x in grid) - 1e-9


def test_maximize_empty_domain():
    with pytest.raises(EmptyDomain):
        maximize_scalar(lambda x: x, 1.0, 1.0)


def _plateau(x, centre, half_width, nan_lo, nan_hi):
    # -(distance beyond the plateau [centre -+ half_width])**2 on arrays,
    # NaN on (nan_lo, nan_hi).
    d = np.maximum(np.abs(x - centre) - half_width, 0.0)
    return np.where((nan_lo < x) & (x < nan_hi), np.nan, -(d * d))


def _scalar_plateau(centre, half_width, nan_lo, nan_hi):
    # The same arithmetic on one point; raises where the array form is NaN.
    def f(x):
        value = float(_plateau(np.array([x]), centre, half_width, nan_lo, nan_hi)[0])
        if math.isnan(value):
            raise OutOfRange(f"no value at {x}")
        return value

    return f


def _check_refine_twins(los, his, rows, grid_points=41):
    xs = log_grid_array(np.array(los), np.array(his), grid_points)
    args = [np.array(col) for col in zip(*rows)]
    vals = np.array([_plateau(xs[i], *row) for i, row in enumerate(rows)])
    got_x, got_v = refine_max_array(_plateau, xs, vals, *args)
    for i, row in enumerate(rows):
        f = _scalar_plateau(*row)
        try:
            want = refine_max(f, xs[i].tolist(), [f(x) for x in xs[i].tolist()])
        except OutOfRange:
            assert math.isnan(got_x[i]) and math.isnan(got_v[i]), row
            continue
        assert (got_x[i], got_v[i]) == want, row


def test_refine_max_array_matches_refine_max_row_by_row():
    inf = math.inf
    rows = [
        (0.37, 0.0, inf, inf),  # smooth unimodal, interior maximum
        (0.5, 0.2, inf, inf),  # plateau: tied maxima, the first one wins
        (0.5, 1.0, inf, inf),  # constant row: argmax at index 0
        (-1.0, 0.0, inf, inf),  # decreasing: argmax at index 0
        (2.0, 0.0, inf, inf),  # increasing: argmax at index n-1
        (0.37, 0.0, 0.368, 0.371),  # NaN at a golden-section point only
        (0.37, 0.0, 0.5, 0.9),  # NaN at scan points
    ]
    xs = np.linspace(0.0, 1.0, 41)
    vals = np.array([_plateau(xs, *row) for row in rows])
    got_x, got_v = refine_max_array(_plateau, np.tile(xs, (len(rows), 1)), vals,
                                    *(np.array(col) for col in zip(*rows)))
    for i, row in enumerate(rows):
        f = _scalar_plateau(*row)
        if i < 5:
            assert (got_x[i], got_v[i]) == refine_max(f, xs.tolist(), vals[i].tolist())
        else:
            with pytest.raises(OutOfRange):
                refine_max(f, xs.tolist(), [f(x) for x in xs.tolist()])
            assert np.isnan(got_x[i]) and np.isnan(got_v[i])
    assert got_x[1] == xs[12] and got_v[1] == 0.0  # first of the tied points, at 0.3
    assert got_x[2] == 0.0 and got_x[3] == 0.0 and got_x[4] == 1.0


@given(
    rows=st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.floats(0.5, 2.0),
            st.floats(-0.5, 2.5),
            st.sampled_from([0.0, 0.05, 2.0]),
            st.floats(-0.5, 2.5),
            st.floats(0.0, 1e-3),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_refine_max_array_matches_refine_max_property(rows):
    los = [row[0] for row in rows]
    his = [row[0] + row[1] for row in rows]
    _check_refine_twins(los, his, [(c, w, n, n + dn) for _, _, c, w, n, dn in rows])


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
