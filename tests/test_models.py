import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergocert import bounds, competitors, kendall, models
from ergocert.bounds import rho_general, rho_positive, rho_reversible
from ergocert.competitors import coupling_rho
from ergocert.errors import (
    ErgoCertError,
    InvalidParams,
    MonotoneViolation,
    NoSignChange,
    TruncationTooSmall,
)
from ergocert.models import (
    INFIMUM_MEASURE,
    MT_MEASURE,
    ContractingNormal,
    MetropolisNormal,
    ReflectingWalk,
    _contracting_lambda,
    binomial_modification,
    contracting_coupling_input,
    contracting_params,
    mh_coupling_input,
    mh_normal_lambda,
    mh_normal_params,
    optimize_contracting_tuning,
    optimize_mh_tuning,
    reflecting_walk_params,
    reflecting_walk_rho_exact,
    walk_truncated_chain,
)
from ergocert.numerics import elementary
from reference_forms import general_rho_floor

SQRT2PI = math.sqrt(2.0 * math.pi)


# --- reflecting walk ---------------------------------------------------------


def test_walk_params_standard_boundary():
    p = reflecting_walk_params(ReflectingWalk(p=0.9))
    assert p.lam == pytest.approx(0.6, abs=1e-12)
    assert p.big_k == pytest.approx(1.2, abs=1e-12)
    assert p.beta == 0.9
    assert p.atomic and p.beta_tilde == 1.0


def test_walk_params_modified_boundary():
    p = reflecting_walk_params(ReflectingWalk(p=0.9, epsilon=0.25))
    assert p.lam == pytest.approx(0.6, abs=1e-12)
    assert p.big_k == pytest.approx(2.5, abs=1e-12)
    assert p.beta == 0.25


def test_walk_params_two_thirds():
    p = reflecting_walk_params(ReflectingWalk(p=2.0 / 3.0))
    assert p.lam == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)


def test_walk_spec_validation():
    with pytest.raises(InvalidParams):
        ReflectingWalk(p=0.4)
    with pytest.raises(InvalidParams):
        ReflectingWalk(p=0.9, epsilon=0.95)


def test_exact_rate_branches():
    assert reflecting_walk_rho_exact(0.8, 0.25) == pytest.approx(0.4625 / 0.55, abs=1e-12)
    assert reflecting_walk_rho_exact(0.9, 0.25) == pytest.approx(0.5125 / 0.65, abs=1e-12)
    assert reflecting_walk_rho_exact(0.8, 0.5) == pytest.approx(0.8, abs=1e-12)


def test_exact_rate_needs_the_modified_boundary():
    # epsilon None, the standard boundary, raised a bare TypeError from the
    # comparison with the branch point.
    with pytest.raises(InvalidParams, match="needs the modified boundary epsilon"):
        reflecting_walk_rho_exact(0.9, None)


# --- Metropolis chain --------------------------------------------------------


def test_mh_lambda_is_one_without_weighting():
    for x in (0.0, 0.3, 1.0, 2.5, 4.0):
        assert mh_normal_lambda(x, 0.0) == pytest.approx(1.0, abs=1e-12)


def _mh_lambda_quadrature(x, s):
    """PV(x)/V(x) by direct integration of the accept/reject density.

    Integrands are evaluated in log space so the quadrature probes at huge
    |y| underflow to zero instead of overflowing exp(s|y|).
    """

    def log_density(y):
        value = -((y - x) ** 2) / 2.0 - math.log(SQRT2PI)
        if abs(y) > abs(x):
            value -= (y * y - x * x) / 2.0
        return value

    def weighted(y, weight_s):
        exponent = log_density(y) + weight_s * abs(y)
        return math.exp(exponent) if exponent > -700.0 else 0.0

    pieces = [(-np.inf, -abs(x)), (-abs(x), abs(x)), (abs(x), np.inf)]
    moved = total = 0.0
    for a, b in pieces:
        if a == b:
            continue
        m, _ = quad(weighted, a, b, args=(s,), limit=200)
        t, _ = quad(weighted, a, b, args=(0.0,), limit=200)
        moved += m
        total += t
    stay = 1.0 - total  # rejection mass stays at x
    return (moved + stay * math.exp(s * abs(x))) / math.exp(s * abs(x))


def test_mh_lambda_against_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(0.0, 3.0)
        s = rng.uniform(0.0, 1.5)
        closed = mh_normal_lambda(x, s)
        numeric = _mh_lambda_quadrature(x, s)
        assert abs(closed - numeric) <= 1e-6


def test_mh_lambda_vectorised_matches_scalar():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 3.0, 50)
    ss = rng.uniform(0.01, 1.5, 50)
    vec = mh_normal_lambda(xs, ss)
    for x, s, v in zip(xs, ss, vec):
        assert abs(mh_normal_lambda(x, s) - v) <= 1e-12


@given(
    points=st.lists(st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 1.5)), min_size=1, max_size=16),
    nu_variant=st.sampled_from([MT_MEASURE, INFIMUM_MEASURE]),
)
@settings(max_examples=60, deadline=None)
def test_mh_constants_agree_on_floats_and_arrays(points, nu_variant):
    # The search domain of optimize_mh_tuning. Both forms take the same Phi
    # bits; np.exp and math.exp may still differ by an ulp. The coupling
    # offset b = lambda(0, s) - lambda, which the coupling grid takes on
    # arrays and mh_coupling_input on floats, cancels, so it is held to the
    # scale of lambda(0, s).
    d, s = (np.array(col) for col in zip(*points))
    arrays = models._mh_constants(d, s, nu_variant)
    b = models._mh_coupling_offset(s, arrays[0])
    for i, (di, si) in enumerate(points):
        assert abs(arrays[0][i] - mh_normal_lambda(di, si)) <= 2e-15 * arrays[0][i]
        try:  # the float form rejects s = 0 and lambda >= 1
            floats = models._mh_constants(di, si, nu_variant)
        except (InvalidParams, MonotoneViolation):
            continue
        for got, want in zip(arrays, floats):
            if want is None or isinstance(want, str):
                assert got == want
            else:
                assert abs(np.broadcast_to(got, d.shape)[i] - want) <= 2e-15 * abs(want)
        want = mh_coupling_input(di, si, nu_variant).b
        assert abs(b[i] - want) <= 2e-15 * (floats[0] + want)


def test_mh_theorem_grids_never_evaluate_the_coupling_offset(monkeypatch):
    # Only coupling reads b = lambda(0, s) - lambda: the thm1.1, thm1.2 and
    # thm1.3 grids never call mh_normal_lambda at x = 0, and the coupling
    # grid does, once, on the s axis.
    calls = []
    real = models.mh_normal_lambda

    def spied(x, s):
        calls.append(bool(np.all(np.asarray(x) == 0.0)))
        return real(x, s)

    monkeypatch.setattr(models, "mh_normal_lambda", spied)
    d_grid, s_grid = np.linspace(0.5, 3.0, 11), np.linspace(0.01, 1.5, 7)
    for method in ("thm1.1", "thm1.2", "thm1.3", "coupling"):
        for nu_variant in (MT_MEASURE, INFIMUM_MEASURE):
            calls.clear()
            _mh_rates(d_grid, s_grid, method, nu_variant)
            assert calls == ([False, True] if method == "coupling" else [False]), method


def test_mh_params_mt_measure():
    p = mh_normal_params(1.4, 0.1, MT_MEASURE)
    # sqrt(2) exp(-1.96) [Phi(2 sqrt(0.98)...) - 1/2] evaluated at 40 digits.
    assert p.beta == pytest.approx(0.0948494497615255, abs=1e-12)
    assert p.beta == p.beta_tilde
    assert not p.atomic


def test_mh_params_infimum_measure():
    p = mh_normal_params(1.0, 0.11, INFIMUM_MEASURE)
    beta_expected = 2.0 * (0.9772498680518208 - 0.8413447460685429)  # Phi(2), Phi(1)
    assert p.beta == pytest.approx(beta_expected, abs=1e-10)
    assert p.beta_tilde > p.beta
    assert p.k_tilde is not None and p.k_tilde >= 1.0


def test_mh_table_anchor_reversible():
    p = mh_normal_params(1.0, 0.07, MT_MEASURE)
    assert abs((1.0 - rho_reversible(p).rho) - 0.0091) <= 0.0091 * 0.05


def test_mh_coupling_input_shape():
    c_in = mh_coupling_input(1.8, 1.1, MT_MEASURE)
    assert c_in.v_min_outside == pytest.approx(math.exp(1.1 * 1.8), rel=1e-12)
    assert c_in.b > 0.0


# --- contracting normals -----------------------------------------------------


def test_contracting_anchor_constants():
    p = contracting_params(0.5, 1.5)
    assert p.lam == pytest.approx(0.7115384615384616, abs=1e-12)
    assert p.big_k == pytest.approx(2.3125, abs=1e-12)
    assert p.beta_tilde == pytest.approx(0.3771014623117978, abs=1e-12)
    assert p.nu_info == "concentrated_on_c"


def test_contracting_lambda_boundary():
    # lambda < 1 exactly when c > 1; at c = 1 the raw formula gives 1.
    assert _contracting_lambda(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
    for c in (1.0 + 1e-9, 1.1, 3.0):
        assert _contracting_lambda(0.5, c) < 1.0
    with pytest.raises(InvalidParams):
        contracting_params(0.5, 1.0)


def test_contracting_lambda_large_c_limit():
    for theta in (0.3, 0.7):
        values = [_contracting_lambda(theta, c) for c in (10.0, 100.0, 1000.0)]
        gaps = [abs(v - theta * theta) for v in values]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5


def test_contracting_coupling_requires_wide_set():
    with pytest.raises(InvalidParams):
        contracting_coupling_input(0.5, math.sqrt(2.0))
    c_in = contracting_coupling_input(0.5, 2.1)
    # 2 (1 - Phi(1.05/sqrt(0.75))) at 30 digits: 0.225345693701666827...
    assert c_in.beta_tilde == pytest.approx(0.2253456937016668, abs=1e-12)


# --- binomial modification ---------------------------------------------------


def test_binomial_modification_fields():
    base = contracting_params(0.5, 1.5)
    lazy = binomial_modification(base, sup_v_on_c=1.0 + 1.5**2)
    assert lazy.lam == pytest.approx((1.0 + base.lam) / 2.0, rel=1e-12)
    assert lazy.big_k == pytest.approx((3.25 + base.big_k) / 2.0, rel=1e-12)
    assert lazy.beta == pytest.approx(base.beta / 2.0, rel=1e-12)
    assert lazy.beta_tilde == pytest.approx(base.beta_tilde / 2.0, rel=1e-12)
    twice = binomial_modification(lazy, sup_v_on_c=3.25)
    assert twice.beta_tilde == pytest.approx(base.beta_tilde / 4.0, rel=1e-12)


def test_binomial_modification_preserves_atom():
    base = reflecting_walk_params(ReflectingWalk(p=0.6))
    lazy = binomial_modification(base, sup_v_on_c=1.0)
    assert lazy.atomic and lazy.beta_tilde == 1.0
    assert rho_positive(lazy).rho == pytest.approx((1.0 + base.lam) / 2.0, rel=1e-12)
    assert rho_positive(lazy).rho ** 2 == pytest.approx(0.9799, abs=1e-4)


def test_binomial_modification_contracting_anchor():
    lazy = binomial_modification(contracting_params(0.5, 1.5), sup_v_on_c=3.25)
    assert abs(rho_positive(lazy).rho ** 2 - 0.952) <= 0.002


@pytest.mark.parametrize(
    "method, chain, message",
    [
        ("bogus", ContractingNormal(theta=0.5, c=1.5), "method must be one of "
         "['binomial', 'coupling', 'thm1.1', 'thm1.2', 'thm1.3']"),
        ("coupling", ReflectingWalk(p=0.9),
         "coupling is available for mh-normal and contracting-normal"),
        ("binomial", MetropolisNormal(d=1.0, s=0.1),
         "binomial modification is set up for walks and contracting normals"),
    ],
    ids=["unknown-method", "coupling-walk", "binomial-metropolis"],
)
def test_method_rho_rejects_a_method_the_chain_lacks(method, chain, message):
    # An unknown method, or one with no rate for the chain's family, is a
    # validation error with the text the CLI prints for it.
    with pytest.raises(InvalidParams, match=re.escape(message)):
        models.method_rho(method, chain)


# --- truncated chain ---------------------------------------------------------


def test_truncated_chain_stochastic_and_stationary():
    tc = walk_truncated_chain(ReflectingWalk(p=0.9), 128)
    rows = tc.matrix.sum(axis=1)
    assert np.abs(rows - 1.0).max() <= 1e-15
    assert np.abs(tc.pi @ tc.matrix - tc.pi).max() <= 1e-14
    assert tc.tail_mass < 1e-12
    assert tc.v[0] == 1.0 and (tc.v >= 1.0).all()


def test_truncated_chain_detailed_balance_and_boundary():
    p = 0.9
    tc = walk_truncated_chain(ReflectingWalk(p=p), 128)
    # pi(0) = 1 - q/p for the standard boundary, up to the removed tail.
    assert tc.pi[0] == pytest.approx(1.0 - (1.0 - p) / p, abs=1e-11)
    ratios = tc.pi[2:-1] / tc.pi[1:-2]
    assert np.abs(ratios - (1.0 - p) / p).max() <= 1e-12
    flows = tc.pi[:, None] * tc.matrix
    assert np.abs(flows - flows.T).max() <= 1e-15  # reversibility of the truncation


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        walk_truncated_chain(ReflectingWalk(p=0.6), 16)


def test_truncation_with_an_overflowing_v_is_rejected():
    # V(i) = 3^i for p = 0.9: finite up to i = 646, past the largest double
    # at i = 647, where every distance would read nan.
    assert np.isfinite(walk_truncated_chain(ReflectingWalk(p=0.9), 647).v).all()
    with pytest.raises(InvalidParams, match="overflows"):
        walk_truncated_chain(ReflectingWalk(p=0.9), 648)


@pytest.mark.parametrize("n_states", [64.0, True, np.float64(64.0), 2])
def test_truncation_rejects_a_state_count_that_is_no_integer_from_3(n_states):
    # 64.0 raised a bare TypeError from np.arange's shape.
    with pytest.raises(InvalidParams, match="n_states must be an integer >= 3"):
        walk_truncated_chain(ReflectingWalk(p=0.9), n_states)


def test_truncation_takes_numpy_integers():
    spec = ReflectingWalk(p=0.9)
    for n_states in (np.int64(64), np.uint16(64)):
        got = walk_truncated_chain(spec, n_states)
        assert got.matrix.tobytes() == walk_truncated_chain(spec, 64).matrix.tobytes()


# --- tuning searches ---------------------------------------------------------


def _mh_rates(d_grid, s_grid, method, nu_variant):
    # models._mh_rho_grid of a d axis against an s axis, given their
    # constants as a refinement of optimize_mh_tuning computes them.
    constants = models._mh_constants(d_grid[:, None], s_grid[None, :], nu_variant)
    return models._mh_rho_grid(d_grid, s_grid, constants, method)


def _mh_valid_constants(d_grid, s_grid, nu_variant):
    # The mask of the (d, s) tunings with valid constants, as the Metropolis
    # grid takes it, and their (lambda, beta, beta_tilde, alpha_1, alpha_2,
    # R0), the inputs of the thm1.1 floor and of its rate.
    consts = models._mh_constants(d_grid[:, None], s_grid[None, :], nu_variant)
    lam, big_k, beta, beta_tilde, k_tilde = np.broadcast_arrays(
        *(np.asarray(c, dtype=float) for c in (*consts[:4], consts[5]))
    )
    valid = (lam < 1.0) & (beta > 0.0) & (beta_tilde < 1.0) & (big_k > beta_tilde)
    lam, big_k, beta, beta_tilde, k_tilde = (
        c[valid] for c in (lam, big_k, beta, beta_tilde, k_tilde)
    )
    exponents = bounds.split_exponents(lam, big_k, beta_tilde, consts[4], k_tilde)
    return valid, (lam, beta, beta_tilde, *np.broadcast_arrays(*exponents))


def _mh_full_general_grid(d_grid, s_grid, nu_variant):
    # The thm1.1 grid rate of every tuning with valid constants, with no
    # floor: bounds._general_radius_array on all of them. The mask of those
    # tunings, their rates and their constants.
    valid, constants = _mh_valid_constants(d_grid, s_grid, nu_variant)
    radius = bounds._general_radius_array(*constants[1:])
    rho = np.where(np.isnan(radius), np.inf, bounds._rate(constants[0], radius))
    return valid, rho, constants


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_array_rates_match_scalar_rates_on_coarse_grid(nu_variant):
    d_grid = np.arange(0.5, 3.0 + 1e-12, 0.05)
    s_grid = np.arange(0.01, 1.5 + 1e-12, 0.05)
    rates = {
        "thm1.1": lambda d, s: rho_general(mh_normal_params(d, s, nu_variant)).rho,
        "thm1.2": lambda d, s: rho_reversible(mh_normal_params(d, s, nu_variant)).rho,
        "thm1.3": lambda d, s: rho_positive(mh_normal_params(d, s, nu_variant)).rho,
        "coupling": lambda d, s: coupling_rho(mh_coupling_input(d, s, nu_variant)),
    }
    for method, rate in rates.items():
        got = _mh_rates(d_grid, s_grid, method, nu_variant)
        if method == "thm1.1":
            # The grid rates only the tunings its floor admits. Each one it
            # rates has the full rating's rho bit for bit, and each one it
            # leaves at inf has a full rating above the grid's minimum; the
            # full rating is what is held to rho_general below.
            valid, rho, _ = _mh_full_general_grid(d_grid, s_grid, nu_variant)
            full = np.full(valid.shape, math.inf)
            full[valid] = rho
            rated = np.isfinite(got)
            assert (got[rated] == full[rated]).all()
            assert (full[~rated] > got.min()).all()
            got = full
        for (i, j), rho in np.ndenumerate(got):
            try:
                want = rate(float(d_grid[i]), float(s_grid[j]))
            except ErgoCertError:
                want = math.inf
            assert math.isinf(rho) == math.isinf(want), (method, d_grid[i], s_grid[j])
            if math.isinf(want):
                continue
            assert abs(rho - want) <= 1e-12, (method, d_grid[i], s_grid[j])


# The tunings that the thm1.1 search rates on each of its grids, the 1,355
# valid coarse tunings and the 169 of each refinement: those whose floor is
# not above the scalar rate of the grid's tuning with the lowest floor, that
# one included.
MH_GENERAL_RATED = {MT_MEASURE: (121, 139, 169), INFIMUM_MEASURE: (158, 169, 169)}


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_grid_rates_only_the_valid_tunings(monkeypatch, nu_variant):
    # The R1 solve and split_exponents see the tunings with valid constants
    # only, one R1 each for the solve, and never a placeholder in place of
    # an invalid one: every lambda (lambda_1 for coupling) and beta_tilde
    # they get lies below 1. split_exponents sees all of them; the R1 solve
    # of each thm1.1 grid, in one array scan, sees the tunings whose floor
    # is not above the scalar rate of the grid's tuning with the lowest
    # floor, which takes no array solve.
    # The d and s axes of the coarse step of optimize_mh_tuning.
    d_grid = np.append(np.arange(0.5, 3.0, 0.05), 3.0)
    s_grid = np.append(np.arange(0.01, 1.5, 0.05), 1.5)
    valid, _ = _mh_valid_constants(d_grid, s_grid, nu_variant)
    n_valid = int(valid.sum())
    assert valid.shape == (51, 31) and n_valid == 1355
    r1_sizes, split_args = [], []
    real_r1, real_split = kendall.solve_r1_array, models.split_exponents

    def r1_spy(beta, big_r, big_l):
        r1_sizes.append(np.broadcast(beta, big_r, big_l).size)
        return real_r1(beta, big_r, big_l)

    def split_spy(lam, big_k, beta_tilde, *rest):
        split_args.append((lam, beta_tilde))
        return real_split(lam, big_k, beta_tilde, *rest)

    monkeypatch.setattr(kendall, "solve_r1_array", r1_spy)
    monkeypatch.setattr(models, "split_exponents", split_spy)
    monkeypatch.setattr(competitors, "split_exponents", split_spy)
    for method in ("thm1.1", "thm1.2", "thm1.3", "coupling"):
        _mh_rates(d_grid, s_grid, method, nu_variant)
    assert r1_sizes == [MH_GENERAL_RATED[nu_variant][0]]
    assert [np.size(lam) for lam, _ in split_args[:3]] == [n_valid] * 3
    r1_sizes.clear()
    optimize_mh_tuning("thm1.1", nu_variant)
    assert r1_sizes == list(MH_GENERAL_RATED[nu_variant])
    for lam, beta_tilde in split_args:
        assert (lam < 1.0).all() and (beta_tilde < 1.0).all()


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_grid_below_an_unreached_bound_keeps_the_full_scan_winner(monkeypatch, nu_variant):
    # The scalar search of the grid's seed, its tuning with the lowest
    # floor, stubbed to give an R1 so high that its rate lies a few ulps
    # under the floor of the full scan's winner on a refinement grid: the
    # tunings whose floor admits that bound do not hold the winner, and none
    # reaches the bound, so the grid rates the rest whose floor is not above
    # the best of those, in a second R1 scan. The argmin is the full scan's,
    # with its bits, and each rated tuning has the full scan's rate.
    best = optimize_mh_tuning("thm1.1", nu_variant)
    d_grid, s_grid = (
        models._refined_axis(b, 0.01, lo, hi)
        for b, (lo, hi) in ((best["d"], models._D_RANGE), (best["s"], models._S_RANGE))
    )
    valid, rho, constants = _mh_full_general_grid(d_grid, s_grid, nu_variant)
    full = np.full(valid.shape, math.inf)
    full[valid] = rho
    bound = bounds._rho_floor(*constants)[np.argmin(rho)] - 4e-16
    real_search = models._general_nonatomic_search
    monkeypatch.setattr(
        models, "_general_nonatomic_search", lambda *args: (real_search(*args)[0], 1.0 / bound)
    )
    r1_sizes = []
    real_r1 = kendall.solve_r1_array

    def r1_spy(beta, big_r, big_l):
        r1_sizes.append(np.broadcast(beta, big_r, big_l).size)
        return real_r1(beta, big_r, big_l)

    monkeypatch.setattr(kendall, "solve_r1_array", r1_spy)
    got = _mh_rates(d_grid, s_grid, "thm1.1", nu_variant)
    assert len(r1_sizes) == 2 and min(r1_sizes) > 0
    assert np.argmin(got) == np.argmin(full) and got.min() == full.min()
    rated = np.isfinite(got)
    assert (got[rated] == full[rated]).all()
    assert (full[~rated] > got.min()).all()


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_array_floor_matches_the_scalar_floor_on_coarse_grid(nu_variant):
    # The floor that prunes the thm1.1 grid, on arrays, is the scalar floor
    # of the contracting search at every valid coarse tuning.
    d_grid = np.append(np.arange(0.5, 3.0, 0.05), 3.0)
    s_grid = np.append(np.arange(0.01, 1.5, 0.05), 1.5)
    valid, constants = _mh_valid_constants(d_grid, s_grid, nu_variant)
    got = bounds._rho_floor(*constants)
    dd, ss = np.broadcast_arrays(d_grid[:, None], s_grid[None, :])
    for floor, d, s in zip(got, dd[valid], ss[valid]):
        want = general_rho_floor(mh_normal_params(float(d), float(s), nu_variant), 1)
        assert abs(floor - want) <= 4e-16, (d, s)


def _floor_of_pieces(lam, beta, slopes, tops):
    # bounds._rho_floor's floor written out from pieces (slope N, top
    # radius b), on floats or on arrays with one piece.
    fn = elementary(lam)
    t = max(
        kendall._r1_bracket(b - 1.0, fn.log(kendall._E2 * beta / (8.0 * n)))[2]
        for n, b in zip(slopes, tops)
    )
    return bounds._rate(lam, 1.0 + fn.exp(t + bounds._FLOOR_MARGIN))


def _mh_floor_violations(floor_of, nu_variant):
    # The valid tunings of the 0.01-step grid (32,537 per measure) where
    # floor_of(constants) lies above the full thm1.1 grid rate.
    d_grid = np.arange(0.5, 3.0 + 1e-12, 0.01)
    s_grid = np.arange(0.01, 1.5 + 1e-12, 0.01)
    _, rho, constants = _mh_full_general_grid(d_grid, s_grid, nu_variant)
    assert rho.size == 32_537
    return int((floor_of(*constants) > rho).sum())


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_floor_is_below_the_grid_rate_on_fine_grid(nu_variant):
    # Every grid rate is at least its floor, so a tuning the floor rules out
    # can never be the grid's argmin.
    assert _mh_floor_violations(bounds._rho_floor, nu_variant) == 0


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_floor_overshoots_with_the_secant_at_the_top_radius(nu_variant):
    # Falsification control: with N taken at the top radius, the unsafe
    # side of the nondecreasing secant, the floor lies above the grid rate
    # at some tuning, so L'(1) is what keeps it below.
    def floor_at_top(lam, beta, beta_tilde, alpha1, alpha2, r0):
        lo, hi = bounds._scan_window(r0)
        n_top = (bounds.big_l_array(hi, beta_tilde, alpha1, alpha2) - 1.0) / (hi - 1.0)
        floor = _floor_of_pieces(lam, beta, [n_top], [np.maximum(hi, lo)])
        return np.where(hi > lo, floor, math.inf)

    assert _mh_floor_violations(floor_at_top, nu_variant) > 0


# The winners of the eight Metropolis searches: (d, s) by method and measure.
MH_WINNERS = {
    (MT_MEASURE, "thm1.1"): (0.994, 0.13),
    (MT_MEASURE, "thm1.2"): (0.958, 0.076),
    (MT_MEASURE, "thm1.3"): (1.054, 0.178),
    (MT_MEASURE, "coupling"): (1.794, 1.14),
    (INFIMUM_MEASURE, "thm1.1"): (1.038, 0.156),
    (INFIMUM_MEASURE, "thm1.2"): (1.004, 0.1),
    (INFIMUM_MEASURE, "thm1.3"): (1.106, 0.216),
    (INFIMUM_MEASURE, "coupling"): (1.882, 1.15),
}


@pytest.mark.parametrize("nu_variant, method", list(MH_WINNERS))
def test_mh_tuning_winners_are_pinned_and_reproducible(nu_variant, method):
    # Each search keeps its winner, and the rate it reports is method_rho's
    # at that tuning, so the winner's --d and --s give the same rate.
    result = optimize_mh_tuning(method, nu_variant)
    want_d, want_s = MH_WINNERS[nu_variant, method]
    assert abs(result["d"] - want_d) <= 1e-9 and abs(result["s"] - want_s) <= 1e-9
    rho = models.method_rho(method, MetropolisNormal(result["d"], result["s"], nu_variant))
    assert abs(result["rho"] - rho) <= 1e-12 * (1.0 - rho)


# The most calls of f in one array solve of each search.
MH_MAX_SOLVE_CALLS = {"thm1.1": 7, "thm1.2": 16}


@pytest.mark.parametrize("method", ["thm1.1", "thm1.2"])
def test_mh_array_solves_close_in_few_lockstep_steps(method, monkeypatch):
    # The elements of an array solve step together until the slowest one
    # closes, so one stalled element makes the whole grid pay. With Brent's
    # minimum step, and for thm1.1 the closed-form R1 upper end, no solve of
    # the search makes more calls of f than its bound. The root finder calls
    # f at the near end, at the wide end where an element needs it, and
    # inside the bracket: 4 calls for thm1.1 and 7 for thm1.2 when this was
    # written, one of them at the near end each (12 for thm1.1 from the
    # wide upper end, ends included). The thm1.1 root of bounds._rising,
    # solved first on the same grid, takes 6-7.
    calls = []
    real = kendall.solve_increasing_array

    def counted(f, *args):
        n = []
        result = real(lambda x, *a: n.append(1) or f(x, *a), *args)
        calls.append(len(n))
        return result

    monkeypatch.setattr(kendall, "solve_increasing_array", counted)
    monkeypatch.setattr(bounds, "solve_increasing_array", counted)
    optimize_mh_tuning(method)
    assert calls and max(calls) <= MH_MAX_SOLVE_CALLS[method]


def test_mh_tuning_without_a_rate_names_no_tuning(monkeypatch):
    # No tuning of any grid has a rate: as the contracting search does, the
    # result names no tuning.
    def no_rate(d, s, constants, method):
        return np.full((len(d), len(s)), math.inf)

    monkeypatch.setattr(models, "_mh_rho_grid", no_rate)
    result = optimize_mh_tuning("coupling")
    assert result == {
        "d": None, "s": None, "rho": math.inf, "one_minus_rho": -math.inf, "edge": None
    }


def test_optimize_mh_rejects_unknown_nu_variant():
    with pytest.raises(InvalidParams, match="nu_variant"):
        optimize_mh_tuning("thm1.3", nu_variant="bogus")


def test_optimize_contracting_rejects_unknown_method():
    with pytest.raises(InvalidParams):
        optimize_contracting_tuning("exact", theta=0.5)


@pytest.mark.parametrize("theta", [1.5, 1.0, -1.0, math.nan])
def test_optimize_contracting_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(InvalidParams, match="theta"):
        optimize_contracting_tuning("thm1.3", theta=theta)


@pytest.mark.parametrize(
    "lo, hi",
    [(1.05, 4.0), (math.sqrt(2.0) + 1e-6, 4.0), (1.2, 1.5), (1.05, 1.06), (2.0, 2.0)],
)
def test_c_grid_is_numpys_arange(lo, hi):
    # The search's c grid is numpy's arange fill without numpy, bit for bit.
    assert models._c_grid(lo, hi) == np.arange(lo, hi + 1e-12, 0.01).tolist()


def _reference_contracting_search(method, theta):
    # The search as a loop of method_rho rates over c; also returns each c's
    # rate (inf where the c is skipped).
    lo, hi = 1.05, 4.0
    if method == "coupling":
        lo = max(lo, math.sqrt(2.0) + 1e-6)
    best_c, best_rho, edge = None, math.inf, None
    rates = []
    grid = np.arange(lo, hi + 1e-12, 0.01)
    for i, c in enumerate(grid):
        try:
            rho = models.method_rho(method, ContractingNormal(theta=theta, c=float(c)))
        except (InvalidParams, MonotoneViolation):
            rates.append(math.inf)
            continue
        rates.append(rho)
        if rho < best_rho:
            best_c, best_rho = float(c), rho
            edge = {0: {"c": "lower"}, len(grid) - 1: {"c": "upper"}}.get(i)
    result = {"c": best_c, "rho": best_rho, "one_minus_rho": 1.0 - best_rho, "edge": edge}
    return result, rates


@pytest.mark.parametrize("theta", [0.5, 0.75, 0.9, -0.5, 0.25, -0.9, 0.1, 0.6, 0.95, 0.99])
def test_optimize_contracting_matches_scalar_loop(theta):
    # Where the reference loop raises (thm1.2 at |theta| = 0.9), the search
    # raises the same error at the same c.
    for method in models.RATE_METHODS:
        try:
            want, _ = _reference_contracting_search(method, theta)
        except ErgoCertError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                optimize_contracting_tuning(method, theta)
            continue
        assert optimize_contracting_tuning(method, theta) == want, method


_COUPLING_C_LO = math.sqrt(2.0) + 1e-6  # the coupling search's lowest c

CONTRACTING_WINNERS = {
    ("thm1.1", 0.5): 1.51,
    ("thm1.2", 0.5): 1.47,
    ("thm1.3", 0.5): 1.60,
    ("coupling", 0.5): _COUPLING_C_LO + 0.59,
    ("binomial", 0.5): 1.54,
    ("thm1.1", 0.75): 1.24,
    ("thm1.2", 0.75): 1.20,
    ("thm1.3", 0.75): 1.29,
    ("coupling", 0.75): _COUPLING_C_LO + 0.28,
    ("binomial", 0.75): 1.28,
    ("thm1.1", 0.9): 1.11,
    ("thm1.2", 0.9): NoSignChange,
    ("thm1.3", 0.9): 1.14,
    ("coupling", 0.9): _COUPLING_C_LO + 0.12,
    ("binomial", 0.9): 1.14,
}


@pytest.mark.parametrize("method, theta", list(CONTRACTING_WINNERS))
def test_contracting_tuning_winners_are_pinned(method, theta):
    # The 15 table-4 searches keep their winning c, and the rate each reports
    # is method_rho's at that c. thm1.2 at theta = 0.9 still raises: from
    # c = 2.50 on, its R2 crossing lies below the bracket's 1 + 1e-14.
    want = CONTRACTING_WINNERS[method, theta]
    if want is NoSignChange:
        with pytest.raises(NoSignChange):
            optimize_contracting_tuning(method, theta)
        return
    result = optimize_contracting_tuning(method, theta)
    assert abs(result["c"] - want) <= 1e-9
    assert result["rho"] == models.method_rho(method, ContractingNormal(theta=theta, c=result["c"]))


def _spy_evaluated_c(monkeypatch):
    # The c values that the search rates, in call order.
    seen = []
    real = models._contracting_rho_or_inf

    def spy(method, theta, c):
        seen.append(c)
        return real(method, theta, c)

    monkeypatch.setattr(models, "_contracting_rho_or_inf", spy)
    return seen


def _contracting_floors(method, theta, c):
    # The method's floor at c as the search takes it, and for thm1.1 with a
    # finite floor also the 16-piece reference floor of the chain at c (the
    # floor again otherwise).
    floor = models._contracting_floor(method, models._floor_constants(method, theta, c))
    if method != "thm1.1" or not math.isfinite(floor):
        return floor, floor
    return floor, general_rho_floor(contracting_params(theta, c), 16)


@pytest.mark.parametrize("theta, rated", [(0.25, 241), (0.5, 113), (0.75, 54), (0.9, 23)])
def test_optimize_contracting_general_evaluates_only_c_values_its_floor_admits(
    monkeypatch, theta, rated
):
    # The thm1.1 search rates each c at most once, as the reference loop
    # does, and leaves out only c values whose floor lies above the rate it
    # returns: it rates 241 of the 296 c values at theta = 0.25, 113 at 0.5,
    # 54 at 0.75 and 23 at 0.9. The 16-piece reference floor is at least the
    # one-piece floor and at most the rate.
    want, rates = _reference_contracting_search("thm1.1", theta)
    grid = np.arange(1.05, 4.0 + 1e-12, 0.01).tolist()
    seen = _spy_evaluated_c(monkeypatch)
    assert optimize_contracting_tuning("thm1.1", theta) == want
    assert len(set(seen)) == len(seen) == rated
    for c, rho in zip(grid, rates):
        floor, floor_16 = _contracting_floors("thm1.1", theta, c)
        assert floor <= floor_16 <= rho, c
        if c not in seen:
            assert floor > want["rho"], c


def test_contracting_thm11_floor_is_the_one_piece_reference_floor():
    # The thm1.1 search prunes by the one-piece floor alone: from the
    # unchecked constants it is general_rho_floor(p, 1) of the chain at c,
    # bit for bit, at every c of the grid where that chain is valid.
    compared = 0
    for theta in (0.25, 0.5, 0.75, 0.9, -0.5, 0.1, 0.6, 0.95, 0.99):
        for c in models._c_grid(1.05, 4.0):
            floor = models._contracting_floor("thm1.1", models._floor_constants("thm1.1", theta, c))
            try:
                p = contracting_params(theta, c)
            except ErgoCertError:
                continue
            assert floor == general_rho_floor(p, 1), (theta, c)
            compared += 1
    assert compared == 2254


# The c values that the other methods rate at theta = 0.25 / 0.5 / 0.75 of
# the 296 (259 for coupling) that the full scan rates. thm1.3, binomial and
# coupling have their rate as their floor, so only the winner is rated.
OTHER_METHODS_RATED = {
    "thm1.2": (112, 37, 8),
    "thm1.3": (1, 1, 1),
    "coupling": (1, 1, 1),
    "binomial": (1, 1, 1),
}


@pytest.mark.parametrize(
    "method, theta, rated",
    [
        (method, theta, n)
        for method, counts in OTHER_METHODS_RATED.items()
        for theta, n in zip((0.25, 0.5, 0.75), counts)
    ],
)
def test_optimize_contracting_rates_only_c_values_its_floor_admits(
    monkeypatch, method, theta, rated
):
    # Each c is rated at most once, and a c left unrated has a reference
    # rate above the winner's: the floor ruled out only c values that could
    # not win.
    want, rates = _reference_contracting_search(method, theta)
    lo = _COUPLING_C_LO if method == "coupling" else 1.05
    seen = _spy_evaluated_c(monkeypatch)
    assert optimize_contracting_tuning(method, theta) == want
    assert len(set(seen)) == len(seen) == rated
    assert want["c"] in seen
    for c, rho in zip(models._c_grid(lo, 4.0), rates):
        if c not in seen:
            assert rho > want["rho"], c


@given(
    theta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    c=st.floats(1.05, 4.0),
)
@settings(max_examples=200, deadline=None)
@pytest.mark.parametrize("method", models.RATE_METHODS)
def test_contracting_floor_is_below_the_rate(method, theta, c):
    # Each floor that prunes a search is at most the rate it stands for,
    # inf included, wherever that rate is defined, and -inf wherever the
    # rate raises, so that c is rated before any other.
    floor, floor_16 = _contracting_floors(method, theta, c)
    try:
        rho = models._contracting_rho_or_inf(method, theta, c)
    except ErgoCertError:
        assert floor == floor_16 == -math.inf
        return
    assert floor <= rho and floor_16 <= rho


def test_16_piece_floor_overshoots_with_each_secant_at_the_top_radius():
    # Falsification control: with N taken at each piece's top radius b, the
    # unsafe side of the nondecreasing secant, the floor lies above
    # rho_general at some c of the theta = 0.5 grid, so the pieces' N at
    # their bottom radius is what keeps the floor below the rate.
    def floor_16_at_top(p):
        alpha1, alpha2, r0 = bounds._exponents(p)
        lo, hi = bounds._scan_window(r0)
        tops = [lo + (hi - lo) * (j / 16) for j in range(1, 16)] + [hi]
        slopes = [
            (bounds._big_l_at(b, p.beta_tilde, alpha1, alpha2) - 1.0) / (b - 1.0) for b in tops
        ]
        return _floor_of_pieces(p.lam, p.beta, slopes, tops)

    over = 0
    for c in models._c_grid(1.05, 4.0):
        p = contracting_params(0.5, c)
        over += floor_16_at_top(p) > rho_general(p).rho
    assert over > 0


@pytest.mark.parametrize("method", models.RATE_METHODS)
def test_contracting_search_differs_when_the_floor_overshoots(monkeypatch, method):
    # Falsification control: a floor at the winning c just above the
    # runner-up's rate prunes the winner, so the search no longer matches
    # the reference.
    want, rates = _reference_contracting_search(method, 0.5)
    runner_up = sorted(rates)[1]
    winner = models._floor_constants(method, 0.5, want["c"])
    real = models._contracting_floor

    def overshoot(method, constants):
        return runner_up + 1e-9 if constants == winner else real(method, constants)

    monkeypatch.setattr(models, "_contracting_floor", overshoot)
    assert optimize_contracting_tuning(method, 0.5) != want


def test_contracting_search_stops_raising_without_the_must_visit_floor(monkeypatch):
    # Falsification control: where the R2 solve may raise, the thm1.2 floor
    # is -inf, so that c is rated first. With the floor at the bracket's up
    # end there instead, the search stops before any such c at theta = 0.9
    # and no longer raises the full scan's NoSignChange.
    real = models._reversible_rho_floor

    def unguarded(lam, beta, beta_tilde, alpha1, alpha2, r0):
        floor = real(lam, beta, beta_tilde, alpha1, alpha2, r0)
        if floor > -math.inf:
            return floor
        up = bounds._r2_bracket(beta, beta_tilde, alpha1, alpha2, r0)[3]
        return bounds._rate(lam, up) - bounds._R2_FLOOR_MARGIN

    with pytest.raises(NoSignChange):
        optimize_contracting_tuning("thm1.2", 0.9)
    monkeypatch.setattr(models, "_reversible_rho_floor", unguarded)
    result = optimize_contracting_tuning("thm1.2", 0.9)
    assert result["c"] < 2.5 and result["rho"] < 1.0


def test_optimize_contracting_general_makes_few_scalar_r1_solves(monkeypatch):
    # Every evaluated c runs one maximize_scalar search, which finds the
    # peak as the root of a closed-form stationarity function and solves
    # R1 there alone: 113 solves for the 113 c values rated here, one per
    # c, against 11,215 with the per-c scan-and-refine certificates.
    calls = []
    real = kendall._r1_log

    def counting(*args):
        calls.append(args)
        return real(*args)

    seen = _spy_evaluated_c(monkeypatch)
    monkeypatch.setattr(kendall, "_r1_log", counting)
    optimize_contracting_tuning("thm1.1", theta=0.5)
    assert len(seen) == 113
    assert len(calls) == 113 < 11_215
    before = len(calls)
    models.method_rho("thm1.1", ContractingNormal(theta=0.5, c=1.5))
    assert len(calls) > before  # the counter sees the scalar path


@pytest.mark.parametrize("method", ["thm1.1", "thm1.3"])
def test_optimize_contracting_without_a_rate_names_no_c(method):
    # At theta = 0.9999999 no c in the range has a rate: every c is rated,
    # none with a rate, and the result names no c.
    result = optimize_contracting_tuning(method, 0.9999999)
    assert result == {"c": None, "rho": math.inf, "one_minus_rho": -math.inf, "edge": None}


def test_optimize_contracting_matches_published_choice():
    res = optimize_contracting_tuning("thm1.3", theta=0.5)
    assert res["rho"] <= 0.897 + 0.002
    assert abs(res["c"] - 1.5) <= 0.25  # published tuning sits in this well


def test_mh_general_objective_treats_nan_radii_as_no_rate(monkeypatch):
    # A tuning whose R1 equation has no root (NaN) at the root of rising
    # gets rho = inf, never the argmin, where the other tuning keeps its
    # rate. The grid takes its bound from the scalar search, which solves no
    # array R1, so the array solve sees each tuning once, and the tuning at
    # d = 1.0 is told by its beta.
    d, s = np.array([1.0, 1.2]), np.array([0.1])
    want = _mh_rates(d, s, "thm1.1", MT_MEASURE)
    assert np.isfinite(want).all()
    beta_at_1 = mh_normal_params(1.0, 0.1).beta
    real = kendall.solve_r1_array
    seen = []

    def with_nan(beta, big_r, big_l):
        r1 = real(beta, big_r, big_l)
        at_1 = np.isclose(np.broadcast_to(beta, r1.shape), beta_at_1)
        seen.extend(at_1.tolist())
        r1[at_1] = np.nan
        return r1

    monkeypatch.setattr(kendall, "solve_r1_array", with_nan)
    got = _mh_rates(d, s, "thm1.1", MT_MEASURE)
    assert sorted(seen) == [False, True]
    assert got[0, 0] == math.inf
    assert got[1, 0] == want[1, 0]


def test_mh_general_objective_gives_no_rate_where_r0_leaves_no_window():
    # At s = 1e-12, R0 - 1 ~ 1.5e-13 leaves no radius window, where
    # rho_general raises: that tuning gets rho = inf, not an error.
    params = mh_normal_params(1.0, 1e-12)
    with pytest.raises(InvalidParams, match="R0"):
        rho_general(params)
    d, s = np.array([1.0]), np.array([1e-12, 0.1])
    got = _mh_rates(d, s, "thm1.1", MT_MEASURE)
    assert got[0, 0] == math.inf
    assert rho_general(mh_normal_params(1.0, 0.1)).rho <= got[0, 1] < 1.0


def test_mh_tuning_coarse_grid_reaches_the_top_of_the_range(monkeypatch):
    # The coarse steps from the bottom of the s range stop short of its top
    # end: the scan must still try s = 1.5, here the only s with rates. The
    # grid rates its s = 1.5 column alone, so no other s prunes it.
    rho_grid = models._mh_rho_grid

    def rates_at_top(d, s, constants, method):
        rho = np.full((len(d), len(s)), math.inf)
        top = s == 1.5
        at_top = models._mh_constants(d[:, None], s[None, top], MT_MEASURE)
        rho[:, top] = rho_grid(d, s[top], at_top, method)
        return rho

    monkeypatch.setattr(models, "_mh_rho_grid", rates_at_top)
    result = optimize_mh_tuning("thm1.1")
    assert result["s"] == 1.5
    assert result["rho"] < 1.0


@pytest.mark.parametrize("corner", [(0.5, 0.01), (3.0, 1.5)])
def test_mh_tuning_grids_hold_each_value_once(monkeypatch, corner):
    # Near a range end the 13-point refinement grids clip to the end; each
    # clipped value is evaluated once, and the grids stay ascending, with no
    # two points closer than half the grid's step (np.arange's b + k * step
    # may fall a few ulp short of an end). Rates growing away from a corner
    # put every argmin there.
    grids = []

    def spy(d, s, constants, method):
        grids.append((d, s))
        dd, ss = np.broadcast_arrays(d[:, None], s[None, :])
        return 0.5 + 0.01 * (abs(dd - corner[0]) + abs(ss - corner[1]))

    monkeypatch.setattr(models, "_mh_rho_grid", spy)
    result = optimize_mh_tuning("thm1.1")
    assert (result["d"], result["s"]) == corner
    assert len(grids) == 3
    for step, pair in zip((0.05, 0.01, 0.002), grids):
        for grid in pair:
            assert (np.diff(grid) > step / 2).all(), grid
    assert len(grids[1][0]) < 13 and len(grids[1][1]) < 13


# --- the coarse table of the Metropolis search --------------------------------


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_coarse_table_is_the_fresh_constants_bit_for_bit(nu_variant):
    # The coarse d and s axes as the coarse step built them before the table.
    d_grid, s_grid = (
        np.append(np.arange(lo, hi, 0.05), hi) for lo, hi in (models._D_RANGE, models._S_RANGE)
    )
    d, s, constants = models._mh_coarse_table(nu_variant)
    assert d.tobytes() == d_grid.tobytes() and s.tobytes() == s_grid.tobytes()
    fresh = models._mh_constants(d_grid[:, None], s_grid[None, :], nu_variant)
    assert len(constants) == len(fresh) == 7
    for got, want in zip(constants, fresh):
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:  # nu_info, and k_tilde under the concentrated measure
            assert got == want


@pytest.mark.parametrize("nu_variant", [MT_MEASURE, INFIMUM_MEASURE])
def test_mh_coarse_table_is_read_only(nu_variant):
    d, s, constants = models._mh_coarse_table(nu_variant)
    arrays = [a for a in (d, s, *constants) if isinstance(a, np.ndarray)]
    # d, s, lambda, K, beta, beta_tilde (beta again under the concentrated
    # measure), k_tilde under the infimum measure, and min V off C.
    assert len(arrays) == (8 if nu_variant == INFIMUM_MEASURE else 7)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_mh_searches_give_the_same_result_cold_and_warm():
    # A search that builds the table and one that reads it give the same
    # dict, for each of the eight searches; no winner sits at a range end.
    for nu_variant in (MT_MEASURE, INFIMUM_MEASURE):
        for method in ("thm1.1", "thm1.2", "thm1.3", "coupling"):
            models._mh_coarse_table.cache_clear()
            cold = optimize_mh_tuning(method, nu_variant)
            assert models._mh_coarse_table.cache_info().currsize == 1
            warm = optimize_mh_tuning(method, nu_variant)
            assert warm == cold and cold["edge"] is None, (method, nu_variant)
            want_d, want_s = MH_WINNERS[nu_variant, method]
            assert abs(cold["d"] - want_d) <= 1e-9 and abs(cold["s"] - want_s) <= 1e-9


def test_mh_warm_search_evaluates_no_coarse_constants(monkeypatch):
    # Once the measure's table is built, a search calls mh_normal_lambda only
    # on refinement grids of at most 13 x 13 tunings (and on the s axis for
    # the coupling offset); a cold search calls it on the 51 x 31 coarse grid.
    sizes = []
    real = models.mh_normal_lambda

    def spied(x, s):
        sizes.append(np.broadcast(x, s).size)
        return real(x, s)

    monkeypatch.setattr(models, "mh_normal_lambda", spied)
    for nu_variant in (MT_MEASURE, INFIMUM_MEASURE):
        models._mh_coarse_table.cache_clear()
        optimize_mh_tuning("thm1.3", nu_variant)
        assert max(sizes) == 51 * 31
        for method in ("thm1.1", "thm1.2", "thm1.3", "coupling"):
            sizes.clear()
            optimize_mh_tuning(method, nu_variant)
            assert sizes and max(sizes) <= 13 * 13, (method, nu_variant)


@pytest.mark.parametrize("corner, edge", [
    ((0.5, 0.01), {"d": "lower", "s": "lower"}),
    ((3.0, 1.5), {"d": "upper", "s": "upper"}),
    ((3.0, 0.7), {"d": "upper"}),
])
def test_mh_tuning_reports_a_winner_at_a_range_end(monkeypatch, corner, edge):
    # A stubbed grid whose rate falls towards one tuning: the search names
    # the coordinates of the winner that sit at an end of their range.
    def peaked(d, s, constants, method):
        dd, ss = np.broadcast_arrays(d[:, None], s[None, :])
        return 0.5 + 0.01 * (abs(dd - corner[0]) + abs(ss - corner[1]))

    monkeypatch.setattr(models, "_mh_rho_grid", peaked)
    result = optimize_mh_tuning("thm1.2")
    # A range end is a grid point exactly; s = 0.7, inside, lies an ulp off.
    for name, want in zip(("d", "s"), corner):
        if name in edge:
            assert result[name] == want
        else:
            assert abs(result[name] - want) <= 1e-12
    assert result["edge"] == edge


@pytest.mark.parametrize("first, edge", [(True, {"c": "lower"}), (False, {"c": "upper"})])
def test_contracting_tuning_reports_a_winner_at_a_range_end(monkeypatch, first, edge):
    # A stubbed rate that falls towards the first or the last c of the grid,
    # with no floor ruling any c out: the winner is that c, named as edge.
    cs = models._c_grid(*models._c_range("thm1.3"))
    monkeypatch.setattr(models, "_contracting_floor", lambda method, constants: -math.inf)
    monkeypatch.setattr(
        models, "_contracting_rho_or_inf",
        lambda method, theta, c: 0.5 + 0.01 * (c if first else -c),
    )
    result = optimize_contracting_tuning("thm1.3", 0.5)
    assert result["c"] == (cs[0] if first else cs[-1])
    assert result["edge"] == edge
