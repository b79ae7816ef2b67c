import math
import random
import types
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import kendall
from ergocert.errors import InvalidParams, OutOfRange
from ergocert.kendall import (
    KendallParams,
    k1,
    k2_series_bound,
    solve_r1,
    solve_r1_array,
    solve_r2_reversible,
)
from ergocert.numerics import solve_increasing_array, solve_monotone
from reference_forms import (
    k1_single_fraction,
    r1_array_log_eps_clamp_then_solve,
    r1_gap_array,
    r1_log_eps,
    r1_log_eps_clamp_then_solve,
    rho_tilde_reversible_atomic,
)

# Constants of the standard-boundary walk benchmarks (atomic small set).
WALK_09 = KendallParams(beta=0.9, big_r=1.0 / 0.6, big_l=2.0)
WALK_23 = KendallParams(
    beta=2.0 / 3.0,
    big_r=1.0 / (2.0 * math.sqrt(2.0) / 3.0),
    big_l=(2.0 / 3.0 + math.sqrt(2.0) / 3.0) / (2.0 * math.sqrt(2.0) / 3.0),
)


def _rate_equation_residual(r, p):
    lhs = (r - 1.0) / (r * math.log(p.big_r / r) ** 2)
    return lhs - math.e**2 * p.beta * (p.big_r - 1.0) / (8.0 * (p.big_l - 1.0))


def test_r1_walk_09():
    r1 = solve_r1(*astuple(WALK_09))
    assert abs(r1 - 1.1038488876302294) <= 1e-9  # high-precision root
    assert abs(1.0 / r1 - 0.9060) <= 1e-4
    assert abs(_rate_equation_residual(r1, WALK_09)) <= 1e-10


def test_r1_walk_23():
    r1 = solve_r1(*astuple(WALK_23))
    assert abs(1.0 / r1 - 0.9994) <= 1e-4
    assert abs(_rate_equation_residual(r1, WALK_23)) <= 1e-10


@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-2, 0.5, 4.0])
def test_r1_keeps_relative_accuracy_next_to_one(delta):
    # The root in t = log(R1 - 1) against a 50-digit bisection of the same
    # equation: the solve returns the lower end of its final bracket, at
    # most the bracket width below the root, however small R1 - 1 is.
    import mpmath

    p = KendallParams(beta=0.5, big_r=1.0 + delta, big_l=1.0 + 2.0 * delta)
    with mpmath.workdps(50):
        big_r = mpmath.mpf(p.big_r)
        target = mpmath.e**2 * p.beta * (big_r - 1) / (8 * (mpmath.mpf(p.big_l) - 1))
        lo, hi = mpmath.log(mpmath.mpf(1e-14)), mpmath.log(big_r - 1)
        for _ in range(200):
            mid = (lo + hi) / 2
            r = 1 + mpmath.exp(mid)
            if (r - 1) / (r * mpmath.log(big_r / r) ** 2) < target:
                lo = mid
            else:
                hi = mid
        t_true = float(lo)
    t = r1_log_eps(p)
    assert t_true - 2e-12 <= t <= t_true + 1e-13
    assert solve_r1(*astuple(p)) == 1.0 + math.exp(t)


_R1_CASES = [
    WALK_09,
    WALK_23,
    KendallParams(beta=0.5, big_r=1.0 + 1e-6, big_l=1.0 + 2e-6),
    KendallParams(beta=1e-4, big_r=1.3, big_l=40.0),
    KendallParams(beta=0.3, big_r=5.0, big_l=5.0),
]


def _count_gap_evaluations(monkeypatch) -> list:
    # The R1 and R2 gaps call exp once per evaluation (the R1 upper end uses
    # expm1); the list holds exp's arguments.
    exps = []
    counted_math = types.SimpleNamespace(**vars(math))
    counted_math.exp = lambda x: exps.append(x) or math.exp(x)
    monkeypatch.setattr(kendall, "math", counted_math)
    return exps


@pytest.mark.parametrize("p", _R1_CASES)
def test_r1_evaluates_the_lower_end_once(p, monkeypatch):
    # The clamp test's value at the lower end is handed to the root finder
    # with the bracket and the near end, and the root finder evaluates the
    # rest, so a solve that is not clamped makes two evaluations fewer than
    # the form that evaluates each end twice, and returns the same bits.
    finder_calls, reference_calls, handed = [], [], []
    exps = _count_gap_evaluations(monkeypatch)

    def solve_counted(f, lo, up, hi, f_lo):
        handed.append((lo, up, hi, f_lo))
        return solve_monotone(lambda t: finder_calls.append(t) or f(t), lo, up, hi, f_lo)

    monkeypatch.setattr(kendall, "solve_monotone", solve_counted)
    t = r1_log_eps(p)
    assert t > kendall._LOG_EPS_LO  # not clamped
    assert t == r1_log_eps_clamp_then_solve(p, reference_calls)
    delta, log_target = p.big_r - 1.0, kendall._r1_log_target(p.beta, p.big_r, p.big_l)
    lo, hi, up = kendall._r1_bracket(delta, log_target)
    assert handed == [(lo, up, hi, _r1_gap(p, lo) - log_target)]
    assert exps[:2] == [lo, up] and finder_calls[0] == up
    assert len(exps) == len(finder_calls) + 1 == len(reference_calls) - 2


def test_r1_clamp_evaluates_the_lower_end_once(monkeypatch):
    # R - 1 = 1e-9 puts the root below the bracket: one evaluation, no solve.
    exps = _count_gap_evaluations(monkeypatch)
    monkeypatch.setattr(kendall, "solve_monotone", None)
    p = KendallParams(0.5, 1.0 + 1e-9, 1e3)
    assert r1_log_eps(p) == kendall._LOG_EPS_LO == r1_log_eps_clamp_then_solve(p)
    assert exps == [kendall._LOG_EPS_LO]


def test_r1_walk_23_solve_does_not_stall(monkeypatch):
    # From the near end WALK_23 lands within an ulp of the root while the
    # kept end is 8.8e-8 away, so the next regula falsi point rounds onto the
    # latest one. Brent's minimum step closes the bracket from there: 7 R1
    # evaluations when this was written, against 23 that bisected the rest.
    exps = _count_gap_evaluations(monkeypatch)
    t = r1_log_eps(WALK_23)
    assert len(exps) <= 10
    assert _r1_gap(WALK_23, t) <= kendall._r1_log_target(WALK_23.beta, WALK_23.big_r, WALK_23.big_l)


def _r1_gap(p: KendallParams, t: float) -> float:
    # The left side of the R1 equation in t = log(r - 1), as kendall has it.
    eps = math.exp(t)
    return t - math.log1p(eps) - 2.0 * math.log(math.log1p((p.big_r - 1.0 - eps) / (1.0 + eps)))


# KendallParams over its domain: beta down to 1e-6; R - 1 up to 4, or near
# 1e-9, where the root is clamped to the bracket's lower end; L from R to
# 1e6 R (L >= R >= beta R, so every draw is valid).
_KENDALL_PARAMS = st.builds(
    lambda beta, delta, log_ratio: KendallParams(beta, 1.0 + delta, (1.0 + delta) * 10.0**log_ratio),
    st.floats(1e-6, 1.0),
    st.one_of(st.floats(1e-6, 4.0), st.floats(5e-10, 2e-9)),
    st.floats(0.0, 6.0),
)


@given(p=_KENDALL_PARAMS)
@settings(max_examples=300, deadline=None)
def test_r1_near_end_bounds_the_root(p):
    # The closed-form upper end lies above the root that the wide bracket
    # [lo, hi] gives; the solve from it lands within the stop tolerance of
    # that root, on the certified side. Where the value at the near end falls
    # below target (planted here by moving the end under the root), the
    # solve falls back to the wide bracket and gives its bits.
    delta, log_target = p.big_r - 1.0, kendall._r1_log_target(p.beta, p.big_r, p.big_l)
    lo, hi, up = kendall._r1_bracket(delta, log_target)
    wide = r1_log_eps_clamp_then_solve(p, wide=True)
    assert lo <= wide <= up <= hi
    t = r1_log_eps(p)
    assert abs(t - wide) <= 1e-12
    if wide == lo:  # clamped
        assert t == lo
        return
    assert _r1_gap(p, t) <= log_target
    below = lo + 0.5 * (wide - lo)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kendall, "_r1_bracket", lambda delta, log_target: (lo, hi, below))
        assert r1_log_eps(p) == wide


def test_r1_near_end_saves_evaluations(monkeypatch):
    # Over seeded draws from the certificate domain, the solves that are not
    # clamped make at most 0.6 times the R1 evaluations of the wide bracket
    # (0.41 times when this was written: 750 against 1,813); the ends are
    # evaluated once each.
    rng = random.Random(5)
    exps = _count_gap_evaluations(monkeypatch)
    near = wide = 0
    for _ in range(300):
        big_r = 1.0 + 10.0 ** rng.uniform(-6.0, 0.6)
        p = KendallParams(10.0 ** rng.uniform(-6.0, 0.0), big_r, big_r * 10.0 ** rng.uniform(0.0, 3.0))
        wide_calls = []
        if r1_log_eps_clamp_then_solve(p, wide_calls, wide=True) == kendall._LOG_EPS_LO:
            continue
        wide += len(wide_calls) - 1  # the reference evaluates lo twice
        exps.clear()
        r1_log_eps(p)
        near += len(exps)
    assert near <= 0.6 * wide


def test_r1_array_root_finder_takes_the_clamp_values(monkeypatch):
    # The root finder's values at the lower end are the clamp test's array,
    # handed over once, not second evaluations, with the bracket and the
    # near ends of _r1_bracket; the radii are those of the form that
    # evaluates each end twice, bit for bit, clamped, NaN and 2-d elements
    # included.
    handed = []

    def solve_spied(f, lo, up, hi, f_lo, *args):
        handed.append((lo, up, hi, f_lo, args))
        return solve_increasing_array(f, lo, up, hi, f_lo, *args)

    monkeypatch.setattr(kendall, "solve_increasing_array", solve_spied)
    rng = np.random.default_rng(3)
    beta = rng.uniform(1e-4, 1.0, (40, 1))
    big_r = 1.0 + 10.0 ** rng.uniform(-10.0, 0.5, 30)
    big_l = big_r * 10.0 ** rng.uniform(0.0, 3.0, 30)
    big_l[0] = math.nan
    got = solve_r1_array(beta, big_r, big_l)
    want = 1.0 + np.exp(r1_array_log_eps_clamp_then_solve(beta, big_r, big_l))
    assert got.tobytes() == want.tobytes()
    assert (got == 1.0 + 1e-14).any() and np.isnan(got).any()
    [(lo, up, hi, f_lo, args)] = handed
    with np.errstate(all="ignore"):
        ends = kendall._r1_bracket(*args)
        assert lo == ends[0] and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(
            (hi, up), ends[1:]))
        assert np.array_equal(f_lo, r1_gap_array(lo, *args), equal_nan=True)


def test_r1_array_takes_lists_as_arrays():
    # Each of beta, R and L may be a list: the radii are those of arrays,
    # bit for bit, and each is solve_r1's to the stop tolerance.
    got = solve_r1_array([0.5, 0.5], [1.4, 1.5], [2.0, 2.0])
    want = solve_r1_array(np.array([0.5, 0.5]), np.array([1.4, 1.5]), np.array([2.0, 2.0]))
    assert got.tobytes() == want.tobytes()
    for r1, big_r in zip(got, (1.4, 1.5)):
        assert r1 == pytest.approx(solve_r1(beta=0.5, big_r=big_r, big_l=2.0), abs=1e-12)
    assert got == pytest.approx([1.019, 1.033], abs=5e-4)


def test_r1_monotone_in_beta_and_l():
    base = dict(big_r=1.4, big_l=2.0)
    r1s = [solve_r1(beta=b, **base) for b in (0.1, 0.3, 0.5, 0.8, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(r1s, r1s[1:]))
    r1s = [solve_r1(beta=0.5, big_r=1.4, big_l=l) for l in (1.5, 2.0, 3.0, 5.0)]
    assert all(a >= b - 1e-12 for a, b in zip(r1s, r1s[1:]))


def test_params_validation():
    with pytest.raises(InvalidParams):
        KendallParams(beta=0.5, big_r=0.9, big_l=2.0)
    with pytest.raises(InvalidParams):
        KendallParams(beta=0.0, big_r=1.5, big_l=2.0)
    with pytest.raises(InvalidParams):
        KendallParams(beta=0.5, big_r=1.5, big_l=1.2)  # L < R
    with pytest.raises(InvalidParams):
        KendallParams(beta=1.0, big_r=2.0, big_l=1.99 * 1.0)  # beta R > L


@pytest.mark.parametrize("big_l", [math.inf, math.nan])
def test_params_reject_a_non_finite_l(big_l):
    # An infinite L made solve_r1 raise a bare "math domain error".
    with pytest.raises(InvalidParams, match="L must be finite"):
        KendallParams(beta=0.5, big_r=2.0, big_l=big_l)


@pytest.mark.parametrize("big_r, big_l", [(math.inf, math.inf), (math.nan, 3.0)])
def test_params_reject_a_non_finite_r(big_r, big_l):
    # R = L = inf made solve_r2_reversible return inf and k1 return nan.
    with pytest.raises(InvalidParams, match="R must be finite"):
        KendallParams(beta=0.5, big_r=big_r, big_l=big_l)


def test_k1_rejects_a_nan_radius():
    with pytest.raises(OutOfRange):
        k1(math.nan, *astuple(WALK_09))


def test_k1_frozen_value():
    # Independent 40-digit transcription gives 118.7515786017...
    assert abs(k1(1.05, *astuple(WALK_09)) - 118.7515786017) <= 1e-8


def test_k1_out_of_range():
    r1 = solve_r1(*astuple(WALK_09))
    with pytest.raises(OutOfRange):
        k1(1.0, *astuple(WALK_09))
    with pytest.raises(OutOfRange):
        k1(r1 * 1.0001, *astuple(WALK_09))


def test_k1_diverges_at_radius():
    r1 = solve_r1(*astuple(WALK_09))
    values = [k1(1.0 + f * (r1 - 1.0), *astuple(WALK_09)) for f in (0.5, 0.9, 0.99, 0.9999)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 1e5


@given(
    beta=st.floats(0.05, 1.0),
    r_gap=st.floats(0.02, 1.5),
    l_scale=st.floats(0.0, 2.0),
    frac=st.floats(0.05, 0.95),
)
@settings(max_examples=80)
def test_k1_two_forms_agree(beta, r_gap, l_scale, frac):
    big_r = 1.0 + r_gap
    big_l = max(big_r, beta * big_r) * (1.0 + l_scale)
    r = 1.0 + frac * (solve_r1(beta, big_r, big_l) - 1.0)
    a, b = k1(r, beta, big_r, big_l), k1_single_fraction(r, beta, big_r, big_l)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_r2_crossing_case():
    # Modified-boundary walk p=0.9, eps=0.25: K = 2.5, lambda = 0.6.
    p = KendallParams(beta=0.25, big_r=1.0 / 0.6, big_l=2.5 / 0.6)
    r2 = solve_r2_reversible(*astuple(p))
    assert abs(1.0 / r2 - 0.8470) <= 1e-4
    exponent = math.log(p.big_l) / math.log(p.big_r)
    assert abs(1.0 + 2.0 * p.beta * r2 - r2**exponent) <= 1e-10


@pytest.mark.parametrize(
    "p",
    [KendallParams(beta=0.25, big_r=1.0 / 0.6, big_l=2.5 / 0.6), KendallParams(1e-3, 1.01, 40.0)],
)
def test_r2_evaluates_each_bracket_end_once(p, monkeypatch):
    # The values at the ends the solve takes, the lower end and the
    # closed-form upper end (the near-end check's value there), are handed
    # to the root finder, not evaluated again: exp takes
    # exponent * log1p(r - 1) once per evaluation, its values at lo and up
    # come first and appear once each, and the wide end hi is never
    # evaluated.
    exps = _count_gap_evaluations(monkeypatch)
    r2 = solve_r2_reversible(*astuple(p))
    lo, hi = kendall._radius_bracket(p.big_r)
    exponent = math.log(p.big_l) / math.log(p.big_r)
    up = kendall._r2_tangent_end(exponent, p.beta, hi)
    assert lo < r2 < up < hi
    at_lo, at_up = (exponent * math.log1p(r - 1.0) for r in (lo, up))
    assert exps[:2] == [at_lo, at_up]
    assert exps.count(at_lo) == exps.count(at_up) == 1
    assert exponent * math.log1p(hi - 1.0) not in exps


def test_r2_no_crossing_returns_r():
    r2 = solve_r2_reversible(*astuple(WALK_23))
    assert r2 == WALK_23.big_r
    assert abs(1.0 / r2 - 0.9428) <= 1e-4


def test_k2_matches_atomic_form():
    gamma, rho = 0.8, 0.6
    value = k2_series_bound(1.0 / gamma, 1.0 / rho, 1.0)
    assert abs(value - (1.0 + 1.0 / (gamma - rho))) <= 1e-12


def test_k2_frozen_value():
    # 1 + 0.5 * 1.1 / (1 - 1.1/1.1806) = 9.0562034739...
    assert abs(k2_series_bound(1.1, 1.1806, 0.25) - 9.0562034739) <= 1e-9
    assert abs(k2_series_bound(1.1, 1.1806, 0.25) - 9.058) <= 0.01


def test_k2_pole():
    with pytest.raises(OutOfRange):
        k2_series_bound(1.2, 1.2, 0.5)
    near = k2_series_bound(1.2 - 1e-9, 1.2, 0.5)
    assert near > 1e8


def test_rho_tilde_branches():
    assert rho_tilde_reversible_atomic(0.6, 1.2, 0.9) == 0.6
    assert rho_tilde_reversible_atomic(0.9428, 1.1381, 2.0 / 3.0) == 0.9428
    # Crossing branch: K > lambda + 2 beta.
    value = rho_tilde_reversible_atomic(0.6, 2.5, 0.25)
    assert abs(value - (1.0 - 2.0 * 0.25 * 0.4 / 1.9)) <= 1e-12
    with pytest.raises(InvalidParams):
        rho_tilde_reversible_atomic(0.6, 0.5, 0.9)


@given(
    beta=st.floats(0.05, 1.0),
    r_gap=st.floats(0.02, 1.5),
    l_scale=st.floats(0.0, 2.0),
)
@settings(max_examples=60)
def test_r2_defining_equation_residual(beta, r_gap, l_scale):
    big_r = 1.0 + r_gap
    big_l = max(big_r, beta * big_r) * (1.0 + l_scale)
    r2 = solve_r2_reversible(beta, big_r, big_l)
    if r2 == big_r:
        assert big_l <= 1.0 + 2.0 * beta * big_r
    else:
        exponent = math.log(big_l) / math.log(big_r)
        assert abs(1.0 + 2.0 * beta * r2 - r2**exponent) <= 1e-9


@given(
    beta=st.floats(0.05, 0.9),
    lam=st.floats(0.2, 0.9),
    k_extra=st.floats(0.01, 3.0),
)
@settings(max_examples=60)
def test_rho_tilde_dominates_exact_reversible_rate(beta, lam, k_extra):
    big_k = 1.0 + k_extra
    exact = 1.0 / solve_r2_reversible(min(beta, 1.0), 1.0 / lam, big_k / lam)
    easy = rho_tilde_reversible_atomic(lam, big_k, min(beta, 1.0))
    assert easy >= exact - 1e-9


def test_r2_at_rounding_edge_stays_below_full_radius():
    # L = 1 + 2*beta*R in exact terms; rounded, L sits an ulp above it and
    # the gap is still negative at the bracket's upper end.
    lam = 0.21797575134834302
    p = KendallParams(beta=0.5, big_r=1.0 / lam, big_l=(1.0 + lam) / lam)
    assert p.big_l > 1.0 + 2.0 * p.beta * p.big_r
    r2 = solve_r2_reversible(*astuple(p))
    assert p.big_r * (1.0 - 1e-12) < r2 < p.big_r


def test_rates_stay_inside_interval():
    for p in (WALK_09, WALK_23):
        for rate in (solve_r1(*astuple(p)), solve_r2_reversible(*astuple(p))):
            assert 1.0 < rate <= p.big_r + 1e-12


# One (beta, R - 1, log10(L / R)) element of an R1 array. The second R - 1
# range, near 1e-9 as at the left end of the radius search, takes the branch
# that clamps the root to the bracket's lower end 1 + 1e-14.
_R1_ELEMENT = st.tuples(
    st.floats(1e-6, 1.0),
    st.one_of(st.floats(1e-6, 1.5), st.floats(5e-10, 2e-9)),
    st.floats(0.0, 6.0),
)


@given(elements=st.lists(_R1_ELEMENT, min_size=1, max_size=24), shared_beta=st.booleans())
@settings(max_examples=80, deadline=None)
def test_r1_array_matches_scalar(elements, shared_beta):
    betas = np.array([e[0] for e in elements])
    big_r = 1.0 + np.array([e[1] for e in elements])
    big_l = big_r * 10.0 ** np.array([e[2] for e in elements])
    beta = float(betas[0]) if shared_beta else betas  # a scalar beta broadcasts
    got = solve_r1_array(beta, big_r, big_l)
    assert got.shape == big_r.shape
    for i in range(len(elements)):
        b = float(betas[0]) if shared_beta else float(betas[i])
        want = solve_r1(beta=b, big_r=float(big_r[i]), big_l=float(big_l[i]))
        # 2 * tol_abs: both solves start from the same ends, but numpy's
        # log1p and exp may differ from math's by an ulp, so the steps can
        # part and each solve returns its own point at most tol_abs below
        # the root.
        assert abs(float(got[i]) - want) <= 2e-12


@given(
    elements=st.lists(_R1_ELEMENT, min_size=1, max_size=24),
    nan_at=st.sets(st.integers(0, 23), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_r1_array_near_end_bounds_the_root(elements, nan_at):
    # The array form of test_r1_near_end_bounds_the_root. Per element, the
    # closed-form upper end, wherever the solve takes it, lies above the
    # root that the wide bracket gives, and the solve from it lands within
    # the stop tolerance of that root; clamped elements give lo and those
    # with a NaN input NaN, as on the wide bracket.
    beta = np.array([e[0] for e in elements])
    big_r = 1.0 + np.array([e[1] for e in elements])
    big_l = big_r * 10.0 ** np.array([e[2] for e in elements])
    big_l[[i for i in nan_at if i < len(elements)]] = math.nan
    near = r1_array_log_eps_clamp_then_solve(beta, big_r, big_l)
    wide = r1_array_log_eps_clamp_then_solve(beta, big_r, big_l, wide=True)
    assert solve_r1_array(beta, big_r, big_l).tobytes() == (1.0 + np.exp(near)).tobytes()
    assert (np.isnan(near) == np.isnan(big_l)).all() and (np.isnan(wide) == np.isnan(big_l)).all()
    delta, log_target = big_r - 1.0, kendall._r1_log_target(beta, big_r, big_l)
    lo, hi, up = kendall._r1_bracket(delta, log_target)
    clamped = wide == lo
    assert (near[clamped] == lo).all()
    solved = ~clamped & ~np.isnan(wide)
    assert (abs(near[solved] - wide[solved]) <= 1e-12).all()
    delta, log_target, hi, up, root = (a[solved] for a in (delta, log_target, hi, up, wide))
    taken = r1_gap_array(up, delta, log_target) >= 0.0
    assert (lo <= root[taken]).all() and (root[taken] <= up[taken]).all()
    assert (up[taken] <= hi[taken]).all()


def test_r1_array_clamp_nan_and_shape():
    beta = np.array([[0.5, 0.5], [0.9, 0.9]])
    big_r = np.array([[1.0 + 1e-9, 1.4], [1.0 / 0.6, 1.4]])
    # L = 1 makes N = 0, so the target is infinite: no sign change. A NaN
    # input has none either.
    big_l = np.array([[1e3, 1.0], [2.0, math.nan]])
    got = solve_r1_array(beta, big_r, big_l)
    assert got.shape == (2, 2)
    assert got[0, 0] == 1.0 + 1e-14 == solve_r1(0.5, 1.0 + 1e-9, 1e3)
    # Both solves start from the same near end: WALK_09 gives the bits of
    # the scalar solve.
    assert got[1, 0] == solve_r1(*astuple(WALK_09))
    assert math.isnan(got[0, 1]) and math.isnan(got[1, 1])
