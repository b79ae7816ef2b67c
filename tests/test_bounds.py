import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ergocert.bounds import (
    NU_CONCENTRATED,
    NU_NONE,
    NU_V_INTEGRAL,
    DriftMinorization,
    _big_l_at,
    _exponents,
    _r2_bracket,
    big_l_array,
    certificate,
    rate_part,
    reversible_radius_array,
    rho_general,
    rho_positive,
    rho_reversible,
    split_exponents,
    _m_atomic_gamma,
    _m_nonatomic_gamma,
)
from ergocert.errors import (
    ErgoCertError,
    GammaOutOfRange,
    InvalidParams,
    NoSignChange,
    OutOfRange,
)
from ergocert.kendall import KendallParams, k2_series_bound, solve_r2_reversible
from ergocert.models import (
    INFIMUM_MEASURE,
    MT_MEASURE,
    ContractingNormal,
    ReflectingWalk,
    contracting_params,
    mh_normal_params,
    reflecting_walk_params,
)
from ergocert.numerics import _TOL_ABS, solve_monotone
from reference_forms import (
    _m_atomic_r,
    _m_nonatomic_r,
    general_nonatomic_search_full_scan,
    general_rho_floor,
    prop41_bounds,
    prop44_bounds,
    r1_log_eps,
    r2_gap,
    r2_reversible_wide,
    reversible_nonatomic_gap,
    reversible_nonatomic_radius_wide,
)

WALK_09 = reflecting_walk_params(ReflectingWalk(p=0.9))
WALK_23 = reflecting_walk_params(ReflectingWalk(p=2.0 / 3.0))
WALK_09_EPS = reflecting_walk_params(ReflectingWalk(p=0.9, epsilon=0.25))
CONTRACT = contracting_params(0.5, 1.5)


def test_validation_rejects_bad_constants():
    with pytest.raises(InvalidParams):
        DriftMinorization(lam=1.1, big_k=2.0, beta=0.5)
    with pytest.raises(InvalidParams):
        DriftMinorization(lam=0.5, big_k=0.9, beta=0.5)
    with pytest.raises(InvalidParams):
        DriftMinorization(lam=0.5, big_k=2.0, beta=0.5, beta_tilde=0.4, atomic=True)
    with pytest.raises(InvalidParams):
        DriftMinorization(lam=0.5, big_k=2.0, beta=0.6, beta_tilde=0.5, atomic=False)
    with pytest.raises(InvalidParams):
        DriftMinorization(
            lam=0.5, big_k=2.0, beta=0.3, beta_tilde=0.5, atomic=False,
            nu_info=NU_V_INTEGRAL, k_tilde=0.5,
        )


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_validation_rejects_non_finite_k_and_k_tilde(value):
    # Each names its field, where the certificate would fail later with an
    # untyped or solver-internal error (log(0) in the R1 target, or the R2
    # solver's NoSignChange).
    with pytest.raises(InvalidParams, match="K must be finite"):
        DriftMinorization(lam=0.5, big_k=value, beta=0.5)
    with pytest.raises(InvalidParams, match="k_tilde"):
        DriftMinorization(
            lam=0.5, big_k=2.0, beta=0.2, beta_tilde=0.4, atomic=False,
            nu_info=NU_V_INTEGRAL, k_tilde=value,
        )


def test_derived_exponents_contracting_anchor():
    alpha1, alpha2, r0 = _exponents(CONTRACT)
    assert abs(alpha1 - 4.3312) <= 2e-3
    assert abs(r0 - 1.11548) <= 5e-4
    assert alpha2 == 1.0  # measure concentrated on C


def test_derived_exponents_invariants():
    for p in (CONTRACT, mh_normal_params(1.0, 0.07), mh_normal_params(1.0, 0.11, "infimum_measure")):
        alpha1, alpha2, r0 = _exponents(p)
        assert alpha1 >= 1.0
        assert alpha2 >= 1.0
        assert 1.0 < r0 <= p.lam_inv + 1e-15


def test_derived_exponents_v_integral_branch():
    p = DriftMinorization(
        lam=0.5, big_k=2.0, beta=0.2, beta_tilde=0.4, atomic=False,
        nu_info=NU_V_INTEGRAL, k_tilde=1.5,
    )
    alpha1, alpha2, r0 = _exponents(p)
    assert abs(alpha2 - (1.0 + math.log(1.5) / math.log(2.0))) <= 1e-12


def test_r0_limit_as_minorization_saturates():
    # As beta_tilde -> 1 the envelope pole tends to 1/lambda, with a gap
    # that shrinks like 1/log(1/(1 - beta_tilde)).
    lam, big_k = 0.5, 2.0
    log_li = math.log(1.0 / lam)
    gaps = []
    for j in range(3, 10):
        bt = 1.0 - 10.0**-j
        p = DriftMinorization(lam=lam, big_k=big_k, beta=0.1, beta_tilde=bt, atomic=False)
        alpha1, alpha2, r0 = _exponents(p)
        a1 = 1.0 + math.log((big_k - bt) / (1.0 - bt)) / log_li
        assert abs(alpha1 - a1) <= 1e-12
        pole = (1.0 - bt) ** (-1.0 / alpha1)
        gaps.append((j, abs(pole - 1.0 / lam)))
    assert all(a >= b for (_, a), (_, b) in zip(gaps, gaps[1:]))
    for j, gap in gaps[3:]:
        t = j * math.log(10.0)
        predicted = (1.0 / lam) * log_li * (log_li + math.log(big_k - 1.0)) / t
        assert abs(gap / predicted - 1.0) <= 0.15


# One row of split-chain constants: lambda (near 0, in between, near 1),
# log10 K, beta_tilde, log10 k_tilde, and where r sits in (1, r_max).
_SPLIT_ROW = st.tuples(
    st.one_of(st.floats(1e-4, 0.1), st.floats(0.05, 0.95), st.floats(0.9, 1.0 - 1e-4)),
    st.floats(0.0, 3.0),
    st.floats(0.02, 0.98),
    st.floats(0.0, 3.0),
    st.floats(0.0, 1.0),
)


@given(
    rows=st.lists(_SPLIT_ROW, min_size=1, max_size=16),
    nu_info=st.sampled_from([NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL]),
)
@settings(max_examples=80, deadline=None)
def test_split_formulas_agree_on_floats_and_arrays(rows, nu_info):
    lam, log_k, bt, log_kt, u = (np.array(col) for col in zip(*rows))
    big_k, k_tilde = 10.0**log_k, 10.0**log_kt
    arrays = split_exponents(lam, big_k, bt, nu_info, k_tilde)
    r_max, floats = [], []
    for i in range(len(rows)):
        a1, a2, r0 = split_exponents(
            float(lam[i]), float(big_k[i]), float(bt[i]), nu_info, float(k_tilde[i])
        )
        floats.append((a1, a2, r0))
        # Away from the pole, where the envelope's denominator cancels.
        r_max.append(min(r0, (0.9 / (1.0 - bt[i])) ** (1.0 / a1)))
    for got, want in zip(arrays, zip(*floats)):
        got = np.broadcast_to(got, lam.shape)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    a1, a2, _ = (np.array(col) for col in zip(*floats))
    r = 1.0 + u * (np.array(r_max) - 1.0)
    want = [_big_l_at(float(r[i]), float(bt[i]), a1[i], a2[i]) for i in range(len(rows))]
    np.testing.assert_allclose(big_l_array(r, bt, a1, a2), want, rtol=1e-13, atol=0.0)
    # Beyond the pole the array envelope is NaN where the float one raises.
    beyond = (1.0 + 1e-6) * (1.0 - bt) ** (-1.0 / a1)
    assert np.isnan(big_l_array(beyond, bt, a1, a2)).all()
    with pytest.raises(OutOfRange):
        _big_l_at(float(beyond[0]), float(bt[0]), float(a1[0]), float(a2[0]))


def test_big_l_far_beyond_pole_raises_out_of_range():
    # alpha_1 ~ 6.9e4, so r**alpha_1 leaves the float range at 2 * R0.
    p = DriftMinorization(lam=1.0 - 1e-4, big_k=1e3, beta=0.01, beta_tilde=0.02, atomic=False)
    alpha1, alpha2, r0 = _exponents(p)
    assert alpha1 > 6e4
    with pytest.raises(OutOfRange):
        _big_l_at(2.0 * r0, p.beta_tilde, alpha1, alpha2)
    assert np.isnan(big_l_array(np.array([2.0 * r0]), p.beta_tilde, alpha1, alpha2)).all()
    assert np.isnan(big_l_array(2.0 * r0, p.beta_tilde, alpha1, alpha2))


def test_big_l_limits_and_pole():
    alpha1, alpha2, r0 = _exponents(CONTRACT)

    def big_l(r):
        return _big_l_at(r, CONTRACT.beta_tilde, alpha1, alpha2)

    assert abs(big_l(1.0 + 1e-12) - 1.0) <= 1e-9
    pole = (1.0 - CONTRACT.beta_tilde) ** (-1.0 / alpha1)
    assert big_l(pole - 1e-9) > 1e6
    with pytest.raises(OutOfRange):
        big_l(pole * (1.0 + 1e-12))
    assert big_l(r0 * 0.999) > 0.0


def test_rho_general_benchmarks():
    assert abs(rho_general(WALK_09).rho - 0.9060) <= 1e-4
    assert abs(rho_general(WALK_23).rho - 0.9994) <= 1e-4


def test_rho_exceeds_drift_rate():
    for p in (WALK_09, WALK_23, WALK_09_EPS, CONTRACT):
        assert rho_general(p).rho > p.lam


def test_rho_reversible_benchmarks():
    assert abs(rho_reversible(WALK_09_EPS).rho - 0.8470) <= 1e-4
    eps_05 = reflecting_walk_params(ReflectingWalk(p=0.8, epsilon=0.5))
    assert abs(rho_reversible(eps_05).rho - 0.8000) <= 1e-9
    assert abs(rho_reversible(CONTRACT).rho - 0.950) <= 5e-4


@pytest.mark.parametrize("gap", [1e-15, 2e-14])
def test_reversible_rate_gap_below_double_resolution_raises_out_of_range(gap):
    # R - 1 = 1/lambda - 1 leaves no R2 bracket inside (1, R): at 1e-15 the
    # solve returned R2 < 1 (rho > 1), at 2e-14 the root finder raised on
    # an empty bracket.
    p = DriftMinorization(1.0 - gap, 2.0, 0.2)
    with pytest.raises(OutOfRange, match="rate gap R - 1 = .* is below double resolution"):
        rho_reversible(p)
    with pytest.raises(OutOfRange, match="rate gap R - 1 = .* is below double resolution"):
        certificate(p, "reversible")


def test_rho_positive_benchmarks():
    assert rho_positive(WALK_09).rho == 0.6
    assert abs(rho_positive(CONTRACT).rho - 0.897) <= 1e-3
    mh = mh_normal_params(1.1, 0.16)
    assert abs((1.0 - rho_positive(mh).rho) - 0.0253) <= 0.0253 * 0.02


def test_rate_ordering_positive_below_reversible():
    for p in (WALK_09, WALK_23, WALK_09_EPS, CONTRACT, mh_normal_params(1.0, 0.07)):
        assert rho_positive(p).rho <= rho_reversible(p).rho + 1e-12


def test_rate_ordering_reversible_below_general_on_benchmarks():
    for p in (WALK_09, WALK_23, WALK_09_EPS, CONTRACT):
        assert rho_reversible(p).rho <= rho_general(p).rho + 1e-12


def _random_atomic(rng):
    lam = rng.uniform(0.1, 0.9)
    big_k = 1.0 + rng.uniform(0.01, 3.0)
    beta = rng.uniform(0.05, 1.0)
    gamma = rng.uniform(lam + 0.02 * (1.0 - lam), 0.995)
    k_factor = rng.uniform(0.5, 100.0)
    return lam, big_k, gamma, k_factor


def test_m_atomic_two_forms_agree():
    rng = np.random.default_rng(101)
    for _ in range(100):
        lam, big_k, gamma, k_factor = _random_atomic(rng)
        a = _m_atomic_gamma(lam, big_k, gamma, k_factor)
        b = _m_atomic_r(lam, big_k, 1.0 / gamma, k_factor)
        assert abs(a - b) <= 1e-12 * max(a, b)


def test_m_nonatomic_two_forms_agree():
    rng = np.random.default_rng(202)
    for _ in range(100):
        lam = rng.uniform(0.1, 0.9)
        big_k = 1.0 + rng.uniform(0.01, 3.0)
        bt = rng.uniform(0.05, 0.95)
        a1 = 1.0 + math.log((big_k - bt) / (1.0 - bt)) / math.log(1.0 / lam) if big_k > bt else 1.0
        a2 = 1.0 + rng.uniform(0.0, 2.0)
        lower = max(lam, (1.0 - bt) ** (1.0 / a1))
        gamma = rng.uniform(lower + 0.02 * (1.0 - lower), 0.995)
        k_factor = rng.uniform(0.5, 100.0)
        a = _m_nonatomic_gamma(lam, big_k, bt, a1, a2, gamma, k_factor)
        b = _m_nonatomic_r(lam, big_k, bt, a1, a2, 1.0 / gamma, k_factor)
        assert abs(a - b) <= 1e-12 * max(a, b)


def test_m_series_factor_term_is_the_regeneration_bound():
    # M is linear in the series factor k, and at r = 1/gamma its k-term is
    # the Proposition 4.1 bound K r h(r) on C (atomic), or the Proposition
    # 4.4 bound beta_tilde K r hbar(r) / D(r) (split chain), with D(r) =
    # 1 - (1 - beta_tilde) r**alpha_1. The difference of two M values
    # cancels, so it is held to M's own rounding.
    fractions = (0.1, 0.25, 0.5, 0.75, 0.95)
    for p in (WALK_09, WALK_23, WALK_09_EPS):
        for f in fractions:
            r = 1.0 + f * (p.lam_inv - 1.0)
            m_at = [_m_atomic_gamma(p.lam, p.big_k, 1.0 / r, k) for k in (0.0, 1.0)]
            term = p.big_k * r * prop41_bounds(r, p, v_x=1.0, x_in_c=True)["h_bound"]
            assert abs((m_at[1] - m_at[0]) - term) <= 1e-12 * m_at[1], (p, r)
    for theta, c in ((0.75, 1.2), (0.5, 1.5), (0.9, 2.0)):
        p = contracting_params(theta, c)
        alpha1, alpha2, r0 = _exponents(p)
        bt = p.beta_tilde
        for f in fractions:
            r = 1.0 + f * (r0 - 1.0)
            m_at = [
                _m_nonatomic_gamma(p.lam, p.big_k, bt, alpha1, alpha2, 1.0 / r, k)
                for k in (0.0, 1.0)
            ]
            d = 1.0 - (1.0 - bt) * r**alpha1
            term = bt * p.big_k * r * prop44_bounds(r, p)["hbar_a1"] / d
            assert abs((m_at[1] - m_at[0]) - term) <= 1e-12 * m_at[1], (theta, c, r)


def test_m_general_finite_and_diverges_at_rho():
    rho = rho_general(WALK_09).rho
    gammas = [rho + 1e-6, rho + 1e-4, rho + 1e-2, 0.99]
    values = [certificate(WALK_09, "general", g).big_m for g in gammas]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert values[0] > values[1] > values[2]  # blows up toward rho


def test_m_decreasing_on_lower_gamma_range():
    # M has poles at both gamma = rho and gamma = 1 (the series factor
    # behaves like 1/(1/gamma - 1) there), so monotonicity holds only on
    # the rho side of the trough; test the first third of the interval.
    for p, symmetry in (
        (WALK_09, "general"),
        (WALK_09_EPS, "reversible"),
        (CONTRACT, "reversible-positive"),
    ):
        rho = rate_part(p, symmetry).rho
        grid = np.linspace(rho + 0.02 * (1.0 - rho), rho + 0.35 * (1.0 - rho), 12)
        values = [certificate(p, symmetry, g).big_m for g in grid]
        assert all(math.isfinite(v) for v in values)
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_m_gamma_validation():
    with pytest.raises(GammaOutOfRange):
        certificate(WALK_09, "general", 0.5)
    with pytest.raises(GammaOutOfRange):
        certificate(WALK_09, "reversible", 1.0)


def test_m_reversible_uses_series_bound():
    rho = rho_reversible(WALK_09).rho
    gamma = 0.8
    expected_k2 = k2_series_bound(1.0 / gamma, 1.0 / rho, 1.0)
    direct = _m_atomic_gamma(WALK_09.lam, WALK_09.big_k, gamma, expected_k2)
    assert abs(certificate(WALK_09, "reversible", gamma).big_m - direct) <= 1e-12 * direct


def test_nonatomic_certificate_m_uses_chain_exponents_and_its_k_factor():
    # Every regime's M is the series-variable form at the chain's alpha_1,
    # alpha_2 (here alpha_1 > alpha_2 = 1) and the certificate's own factor.
    alpha1, alpha2, r0 = _exponents(CONTRACT)
    lam, big_k, bt = CONTRACT.lam, CONTRACT.big_k, CONTRACT.beta_tilde
    for symmetry in ("general", "reversible", "reversible-positive"):
        cert = certificate(CONTRACT, symmetry)
        k_factor = cert.diagnostics["k_factor"]
        if symmetry != "general":
            assert k_factor == k2_series_bound(1.0 / cert.gamma, 1.0 / cert.rho, bt)
        want = _m_nonatomic_r(lam, big_k, bt, alpha1, alpha2, 1.0 / cert.gamma, k_factor)
        assert abs(cert.big_m - want) <= 1e-12 * want, symmetry


def test_m_reversible_below_general_when_k2_smaller():
    for p in (WALK_09, WALK_09_EPS):
        rho_g = rho_general(p).rho
        gamma = 0.5 * (1.0 + rho_g)
        cert_g = certificate(p, "general", gamma)
        cert_r = certificate(p, "reversible", gamma)
        if cert_r.diagnostics["k_factor"] <= cert_g.diagnostics["k_factor"]:
            assert cert_r.big_m <= cert_g.big_m


def test_prop41_bounds_values():
    p = WALK_09
    r = p.lam_inv * (1.0 - 1e-12)
    inside = prop41_bounds(r, p, v_x=1.0, x_in_c=True)
    assert abs(inside["g_bound"] - p.lam_inv * p.big_k) <= 1e-6
    outside = prop41_bounds(r, p, v_x=27.0, x_in_c=False)
    assert outside["g_bound"] == 27.0
    r = 1.2
    q = 1.0 - r * p.lam
    inside = prop41_bounds(r, p, v_x=1.0, x_in_c=True)
    assert inside["h_bound"] == pytest.approx(r * (p.big_k - r * p.lam) / q, rel=1e-12)
    assert inside["h_diff_bound"] == pytest.approx(
        p.lam * r * (p.big_k - 1.0) / ((1.0 - p.lam) * q), rel=1e-12
    )
    outside = prop41_bounds(r, p, v_x=9.0, x_in_c=False)
    assert outside["h_bound"] == pytest.approx(r * p.lam * 9.0 / q, rel=1e-12)
    with pytest.raises(OutOfRange):
        prop41_bounds(p.lam_inv * 1.01, p, v_x=1.0, x_in_c=True)


def test_prop44_bounds_structure():
    p = CONTRACT
    alpha1, alpha2, r0 = _exponents(p)
    r = 1.0 + 0.5 * (r0 - 1.0)
    vals = prop44_bounds(r, p)
    big_l = _big_l_at(r, p.beta_tilde, alpha1, alpha2)
    assert vals["gbar_a1"] == pytest.approx(big_l, rel=1e-12)
    assert vals["g_tilde"] == pytest.approx(r**alpha1, rel=1e-12)
    # r -> 1 limits: gbar -> 1 and hbar -> (K - lambda)/((1-lambda) beta_tilde).
    near = prop44_bounds(1.0 + 1e-8, p)
    assert abs(near["gbar_a1"] - 1.0) <= 1e-6
    limit = (p.big_k - p.lam) / ((1.0 - p.lam) * p.beta_tilde)
    assert abs(near["hbar_a1"] - limit) <= 1e-5 * limit
    with pytest.raises(OutOfRange):
        prop44_bounds(r0 * 1.01, p)


def test_radius_search_matches_dense_rescan():
    # Nonatomic-flavoured variant of the modified-boundary walk constants:
    # the tuned-envelope objective has an interior maximum, which a dense
    # 10^4-point rescan must confirm.
    from ergocert.kendall import solve_r1

    p = DriftMinorization(lam=0.6, big_k=2.5, beta=0.25, beta_tilde=0.5, atomic=False)
    alpha1, alpha2, r0 = _exponents(p)

    def objective(big_r):
        denominator = 1.0 - (1.0 - p.beta_tilde) * big_r**alpha1
        big_l_val = p.beta_tilde * big_r**alpha2 / denominator
        return solve_r1(beta=p.beta, big_r=big_r, big_l=max(big_l_val, big_r))

    lo, hi = 1.0 + 1e-9, r0 - 1e-9
    diag = rho_general(p).diagnostics
    argmax, value = diag["R_tilde"], diag["R1"]
    assert lo + 1e-6 < argmax < hi - 1e-6 and diag["R_tilde_edge"] is None  # interior
    dense = max(objective(x) for x in np.linspace(lo, hi, 10_000))
    assert value >= dense - 1e-9
    assert abs(value - dense) <= 1e-5


def _nonatomic_inputs(n_each, seed):
    # Drawn over the validated domain: lambda near 0, near 1 or in between,
    # K up to 1e3, beta down to 1e-6 * beta_tilde.
    rng = np.random.default_rng(seed)
    out = []
    for nu_info in ("none", NU_CONCENTRATED, NU_V_INTEGRAL):
        for i in range(n_each):
            near = 10.0 ** rng.uniform(-4.0, -1.0)
            lam = (near, 1.0 - near, rng.uniform(0.05, 0.95))[i % 3]
            beta_tilde = rng.uniform(0.02, 0.98)
            out.append(DriftMinorization(
                lam=lam, big_k=10.0 ** rng.uniform(0.0, 3.0), atomic=False,
                beta=beta_tilde * 10.0 ** rng.uniform(-6.0, 0.0), beta_tilde=beta_tilde,
                nu_info=nu_info,
                k_tilde=10.0 ** rng.uniform(0.0, 3.0) if nu_info == NU_V_INTEGRAL else None,
            ))
    return out


def test_radius_search_beats_dense_log_grid_scan():
    # 1,020 draws over the certify domain (three nu cases, lambda near 0 and
    # near 1, K up to 1e3, beta down to 1e-6 beta_tilde): the search's R1 is
    # at least (1 - 1e-12) times the best of the 512-point log-grid scan of
    # the same objective on the same window, the scan it replaced.
    from ergocert import bounds

    ps = _nonatomic_inputs(340, seed=23)
    des = [_exponents(p) for p in ps]
    cols = [np.array(c)[:, None] for c in zip(*(
        (p.beta, p.beta_tilde, alpha1, alpha2) for p, (alpha1, alpha2, _) in zip(ps, des)))]
    lo, hi = bounds._scan_window(np.array([r0 for _, _, r0 in des]))
    assert (hi > lo).all()
    # Row i is lo[i], then offsets geometric from 1e-9 of the window up to hi[i].
    offsets = [0.0] + [math.exp(math.log(1e-9) * (1.0 - i / 510)) for i in range(511)]
    grid = lo + (hi - lo)[:, None] * np.array(offsets)
    grid[:, -1] = hi
    scans = bounds._r1_at_radius(grid, *cols)
    for p, (alpha1, alpha2, _), scan in zip(ps, des, scans):
        diag = rho_general(p).diagnostics
        assert diag["R1"] >= (1.0 - 1e-12) * np.nanmax(scan), p
        big_l = _big_l_at(diag["R_tilde"], p.beta_tilde, alpha1, alpha2)
        assert diag["L_at_R_tilde"] == big_l


def test_radius_search_ends_exactly_on_the_right_edge():
    # R1 grows up to the window's right end here: the search returns that
    # end itself, R0 - 1e-9, not a radius an ulp inside it.
    p = DriftMinorization(
        lam=0.2214576376279087, big_k=1.0111718408413286, beta=0.8432767668471971,
        beta_tilde=0.9745383650344531, atomic=False, nu_info=NU_V_INTEGRAL,
        k_tilde=3.9066128684462713,
    )
    diag = rho_general(p).diagnostics
    assert diag["R_tilde"] == diag["R0"] - 1e-9


@given(
    lam=st.one_of(
        st.floats(1e-6, 0.1), st.floats(0.05, 0.95), st.floats(0.9, 1.0 - 1e-12)
    ),
    log_k=st.floats(0.0, 3.0),
    beta_tilde=st.floats(1e-3, 0.999),
    log_beta_ratio=st.floats(-6.0, 0.0),
    nu_info=st.sampled_from([NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL]),
    log_k_tilde=st.floats(0.0, 3.0),
)
@settings(max_examples=400, deadline=None)
def test_general_rho_floor_is_below_the_searched_rate(
    lam, log_k, beta_tilde, log_beta_ratio, nu_info, log_k_tilde
):
    # The closed-form floor that prunes the thm1.1 searches, on the whole
    # window, and the reference floor on 16 pieces of it never lie above
    # rho_general over the validated nonatomic domain (lambda near 0 and
    # near 1, K up to 1e3, beta down to 1e-6 beta_tilde), and are inf where
    # the radius window is empty.
    p = DriftMinorization(
        lam=lam, big_k=10.0**log_k, beta=beta_tilde * 10.0**log_beta_ratio,
        beta_tilde=beta_tilde, atomic=False, nu_info=nu_info,
        k_tilde=10.0**log_k_tilde if nu_info == NU_V_INTEGRAL else None,
    )
    try:
        rho = rho_general(p).rho
    except InvalidParams:
        assert general_rho_floor(p, 1) == general_rho_floor(p, 16) == math.inf
        return
    except ErgoCertError:
        return
    assert general_rho_floor(p, 1) <= rho
    assert general_rho_floor(p, 16) <= rho


def test_rho_floor_gives_the_float_floor_on_arrays():
    # The one-piece floor is written once, for floats and arrays: on arrays
    # of constants each element is the float floor of general_rho_floor
    # (numpy's log and exp may differ from math's by an ulp), inf where R0
    # leaves no radius window. 400 seeded draws over the validated nonatomic
    # domain, and lambda = 1 - 1e-12, whose R0 leaves no window.
    from ergocert.bounds import _rho_floor

    rng = np.random.default_rng(0)
    ps = [DriftMinorization(lam=1.0 - 1e-12, big_k=2.0, beta=0.1, beta_tilde=0.5, atomic=False)]
    for _ in range(400):
        lams = rng.uniform(1e-6, 0.1), rng.uniform(0.05, 0.95), 1.0 - 10.0 ** -rng.uniform(1, 12)
        beta_tilde = rng.uniform(1e-3, 0.999)
        nu_info = str(rng.choice([NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL]))
        ps.append(DriftMinorization(
            lam=float(rng.choice(lams)), big_k=10.0 ** rng.uniform(0.0, 3.0),
            beta=beta_tilde * 10.0 ** rng.uniform(-6.0, 0.0), beta_tilde=beta_tilde,
            atomic=False, nu_info=nu_info,
            k_tilde=10.0 ** rng.uniform(0.0, 3.0) if nu_info == NU_V_INTEGRAL else None,
        ))
    got = _rho_floor(
        *(np.array([getattr(p, name) for p in ps]) for name in ("lam", "beta", "beta_tilde")),
        *np.array([_exponents(p) for p in ps]).T,
    )
    want = np.array([general_rho_floor(p, 1) for p in ps])
    assert want[0] == got[0] == math.inf
    assert (np.isinf(got) == np.isinf(want)).all()
    finite = np.isfinite(want)
    assert finite.sum() > 300
    assert np.abs(got[finite] - want[finite]).max() <= 4e-16


def _reversible_radius_array_of(ps):
    return reversible_radius_array(
        np.array([p.beta for p in ps]), np.array([p.beta_tilde for p in ps]),
        *np.array([_exponents(p) for p in ps]).T,
    )


def test_reversible_radius_array_matches_scalar_r2():
    # Both bracket ends (the envelope pole limits R0 or it does not); where
    # the scalar raises NoSignChange the array must give NaN.
    ps = _nonatomic_inputs(400, seed=22)
    r2 = _reversible_radius_array_of(ps)
    pole_limited = 0
    for p, got in zip(ps, r2.tolist()):
        alpha1, alpha2, r0 = _exponents(p)
        pole_limited += bool(_r2_bracket(p.beta, p.beta_tilde, alpha1, alpha2, r0)[0])
        try:
            want = rho_reversible(p).diagnostics["R2"]
        except NoSignChange:
            assert math.isnan(got), p
            continue
        # 2 * tol_abs: the Illinois points carry numpy's ulps of log1p, exp
        # and ** where the scalar takes libm's.
        assert abs(got - want) <= 2e-12, p
    assert 0 < pole_limited < len(ps)
    assert np.isfinite(r2).sum() >= len(ps) // 2


def test_reversible_radius_array_takes_r0_below_the_pole():
    # R0 = 1/lambda = 2 lies below the pole and L(R0) <= 1 + 2 beta R0, so
    # both forms give R2 = R0 without a solve.
    p = DriftMinorization(lam=0.5, big_k=1.0, beta=0.98, beta_tilde=0.98, atomic=False,
                          nu_info=NU_CONCENTRATED)
    want = rho_reversible(p).diagnostics["R2"]
    assert want == _exponents(p)[2] == 2.0
    assert _reversible_radius_array_of([p]).tolist() == [want]


def _chain(atomic, lam, log_k, beta_tilde, log_beta_ratio, nu_info, log_k_tilde):
    # A chain of the validated domain: beta = beta_tilde 10**log_beta_ratio,
    # beta_tilde = 1 and nu_info "none" where atomic.
    if atomic:
        return DriftMinorization(lam=lam, big_k=10.0**log_k, beta=10.0**log_beta_ratio)
    return DriftMinorization(
        lam=lam, big_k=10.0**log_k, beta=beta_tilde * 10.0**log_beta_ratio,
        beta_tilde=beta_tilde, atomic=False, nu_info=nu_info,
        k_tilde=10.0**log_k_tilde if nu_info == NU_V_INTEGRAL else None,
    )


def _r2_outcome(solve):
    # R2 of a solve, or the type and text of its error.
    try:
        return solve()
    except ErgoCertError as exc:
        return type(exc), str(exc)


def _r2_solves(p: DriftMinorization) -> tuple:
    # (module, ends, solve, wide, gap) of p's R2 solve: the module whose
    # solve_monotone it calls, its (lo, hi, up), the solve and its
    # wide-bracket reference, each a function of no arguments, and its gap
    # as a function of r.
    from ergocert import bounds, kendall

    if p.atomic:
        kp = KendallParams(beta=p.beta, big_r=p.lam_inv, big_l=p.lam_inv * p.big_k)
        lo, hi = kendall._radius_bracket(kp.big_r)
        exponent = math.log(kp.big_l) / math.log(kp.big_r)
        up = max(lo, kendall._r2_tangent_end(exponent, kp.beta, hi))
        return (
            kendall, (lo, hi, up),
            lambda: solve_r2_reversible(kp.beta, kp.big_r, kp.big_l),
            lambda: r2_reversible_wide(kp),
            lambda r: r2_gap(kp, r),
        )
    de = _exponents(p)
    ends = _r2_bracket(p.beta, p.beta_tilde, *de)[1:]
    return (
        bounds, ends,
        lambda: rho_reversible(p).diagnostics["R2"],
        lambda: reversible_nonatomic_radius_wide(p, de),
        lambda r: reversible_nonatomic_gap(p, de, r),
    )


def _gap_noise(gap, r: float) -> float:
    # A bound on the rounding error of gap(r): its spread over r (1 +- 16
    # eps), which covers the conditioning of its powers in r (near the
    # envelope pole, say), plus 64 eps of 1 + 2 r, the scale of its terms.
    eps = 2.0**-52
    return abs(gap(r * (1.0 + 16.0 * eps)) - gap(r * (1.0 - 16.0 * eps))) + 64.0 * eps * (1.0 + 2.0 * r)


def _check_r2_near_end(p: DriftMinorization) -> None:
    # The closed-form upper end of p's R2 solve lies in [lo, hi], where that
    # bracket is not empty, and at or above the crossing, whether the solve
    # takes it or not: 8 ulps above the lower bracket end that the wide
    # solve returns, or where the gap is not negative to its rounding
    # error. The solve returns the wide solve's radius to within _TOL_ABS,
    # or raises its error with its text. Where rounding
    # blurs the crossing over more than _TOL_ABS (R2 in the thousands at
    # lambda = 1e-6, say), both radii are roots to working precision
    # instead. With up planted under the crossing the solve gives the wide
    # solve's bits, and still no NoSignChange. A nonatomic chain gets the
    # same (pole_limited, lo, hi) on arrays as on floats, bit for bit, and
    # the same up to 2 ulps: numpy's power may differ from libm's pow by an
    # ulp.
    from ergocert import bounds, kendall

    module, (lo, hi, up), solve, wide_solve, gap = _r2_solves(p)
    assert lo <= up <= hi or hi <= lo
    if not p.atomic:
        alpha1, alpha2, r0 = _exponents(p)
        floats = _r2_bracket(p.beta, p.beta_tilde, alpha1, alpha2, r0)
        arrays = _r2_bracket(*(np.array([c]) for c in (
            p.beta, p.beta_tilde, alpha1, alpha2, r0)))
        assert [float(np.ravel(a)[0]) for a in arrays[:3]] == [float(f) for f in floats[:3]]
        assert abs(float(arrays[3][0]) - up) <= 2.0 * math.ulp(up)
    taken = []

    def solve_spied(f, lo, up, hi, f_lo):
        taken.append(up)
        return solve_monotone(f, lo, up, hi, f_lo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_monotone", solve_spied)
        got = _r2_outcome(solve)
    wide = _r2_outcome(wide_solve)
    if not isinstance(wide, float):
        assert got == wide
        return
    if not taken:  # R or R0, with no crossing to solve
        assert got == wide
        return
    if abs(got - wide) > _TOL_ABS:
        assert abs(gap(got)) <= _gap_noise(gap, got) and abs(gap(wide)) <= _gap_noise(gap, wide)
    assert up >= wide - 8.0 * math.ulp(up) or gap(up) >= -_gap_noise(gap, up)
    below = lo + 0.5 * (wide - lo)
    with pytest.MonkeyPatch.context() as mp:
        if p.atomic:
            mp.setattr(kendall, "_r2_tangent_end", lambda slope, beta, hi: below)
        else:
            real = bounds._r2_bracket
            mp.setattr(bounds, "_r2_bracket", lambda *c: (*real(*c)[:3], below))
        assert _r2_outcome(solve) == wide


_CHAIN_DOMAIN = dict(
    atomic=st.booleans(),
    lam=st.one_of(st.floats(1e-6, 0.1), st.floats(0.05, 0.95), st.floats(0.9, 1.0 - 1e-12)),
    log_k=st.floats(0.0, 3.0),
    beta_tilde=st.floats(1e-3, 0.999),
    log_beta_ratio=st.floats(-6.0, 0.0),
    nu_info=st.sampled_from([NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL]),
    log_k_tilde=st.floats(0.0, 3.0),
)


@given(**_CHAIN_DOMAIN)
@example(atomic=False, lam=1e-6, log_k=3.0, beta_tilde=0.5, log_beta_ratio=-6.0,
         nu_info=NU_NONE, log_k_tilde=0.0)
@example(atomic=False, lam=1.0 - 1e-12, log_k=3.0, beta_tilde=0.5, log_beta_ratio=-6.0,
         nu_info=NU_NONE, log_k_tilde=0.0)
@example(atomic=False, lam=0.6, log_k=3.0, beta_tilde=0.999, log_beta_ratio=0.0,
         nu_info=NU_V_INTEGRAL, log_k_tilde=3.0)
@example(atomic=False, lam=0.5, log_k=0.5, beta_tilde=0.3, log_beta_ratio=0.0,
         nu_info=NU_CONCENTRATED, log_k_tilde=0.0)
@example(atomic=True, lam=1.0 - 1e-12, log_k=3.0, beta_tilde=0.5, log_beta_ratio=-6.0,
         nu_info=NU_NONE, log_k_tilde=0.0)
@example(atomic=True, lam=1e-6, log_k=3.0, beta_tilde=0.5, log_beta_ratio=0.0,
         nu_info=NU_NONE, log_k_tilde=0.0)
@example(atomic=True, lam=1e-6, log_k=0.578125, beta_tilde=0.5, log_beta_ratio=0.0,
         nu_info=NU_NONE, log_k_tilde=0.0)
@example(atomic=True, lam=1e-6, log_k=0.0, beta_tilde=0.5, log_beta_ratio=-0.32768501525132654,
         nu_info=NU_NONE, log_k_tilde=0.0)
@settings(max_examples=400, deadline=None)
def test_r2_near_end_bounds_the_crossing(
    atomic, lam, log_k, beta_tilde, log_beta_ratio, nu_info, log_k_tilde
):
    # Over the validated domain, atomic and nonatomic: lambda near 0 and
    # near 1, K up to 1e3, beta down to 1e-6 beta_tilde.
    _check_r2_near_end(_chain(atomic, lam, log_k, beta_tilde, log_beta_ratio, nu_info, log_k_tilde))


def test_r2_near_end_check_fails_for_a_doubled_tangent_slope(monkeypatch):
    # Falsification control: a tangent end from twice the slope at 1 lies
    # under the crossing on seeded draws, atomic and nonatomic, which the
    # check of test_r2_near_end_bounds_the_crossing catches; the true slope
    # passes on the same draws.
    from ergocert import kendall

    rng = np.random.default_rng(32)
    ps = _nonatomic_inputs(20, seed=32) + [
        DriftMinorization(lam=rng.uniform(0.05, 0.95), big_k=10.0 ** rng.uniform(0.0, 3.0),
                          beta=10.0 ** rng.uniform(-6.0, 0.0))
        for _ in range(60)
    ]
    for p in ps:
        _check_r2_near_end(p)
    real = kendall._r2_tangent_end
    monkeypatch.setattr(kendall, "_r2_tangent_end", lambda slope, beta, hi: real(2.0 * slope, beta, hi))
    for atomic in (True, False):
        failed = 0
        for p in (p for p in ps if p.atomic == atomic):
            try:
                _check_r2_near_end(p)
            except AssertionError:
                failed += 1
        assert failed > 0, atomic


def test_r2_near_end_saves_evaluations(monkeypatch):
    # Over seeded draws from the certificate domain, the atomic and the
    # nonatomic solves that reach the root finder make at most 0.5 times the
    # evaluations inside the bracket of their wide-bracket references (0.37
    # and 0.32 times when this was written); the coarse Metropolis thm1.2
    # grids close in at most 7 array evaluations inside their brackets, 13
    # from the wide end. The root finders' evaluations at their near and
    # wide ends are not counted.
    import reference_forms
    from ergocert import bounds, kendall, models

    counts = {}

    def counting(finder, name):
        def solve(f, lo, up, hi, *rest):
            ends = set(np.ravel(up).tolist()) | set(np.ravel(hi).tolist())

            def counted(x, *args):
                counts[name] += not set(np.ravel(x).tolist()) <= ends
                return f(x, *args)

            return finder(counted, lo, up, hi, *rest)

        return solve

    counts.update(near=0, wide=0, grid=0)
    monkeypatch.setattr(kendall, "solve_monotone", counting(solve_monotone, "near"))
    monkeypatch.setattr(bounds, "solve_monotone", counting(solve_monotone, "near"))
    monkeypatch.setattr(reference_forms, "solve_monotone", counting(solve_monotone, "wide"))
    monkeypatch.setattr(
        bounds, "solve_increasing_array", counting(bounds.solve_increasing_array, "grid")
    )
    rng = np.random.default_rng(33)
    atomic = [
        DriftMinorization(lam=lam, big_k=10.0 ** rng.uniform(0.0, 3.0),
                          beta=10.0 ** rng.uniform(-6.0, 0.0))
        for lam in (*rng.uniform(1e-6, 0.1, 100), *rng.uniform(0.05, 0.95, 100),
                    *(1.0 - 10.0 ** -rng.uniform(1.0, 12.0, 100)))
    ]
    for ps in (atomic, _nonatomic_inputs(100, seed=33)):
        counts.update(near=0, wide=0)
        for p in ps:
            _, _, solve, wide_solve, _ = _r2_solves(p)
            _r2_outcome(solve)
            _r2_outcome(wide_solve)
        assert counts["near"] <= 0.5 * counts["wide"], counts
    d_grid = np.append(np.arange(0.5, 3.0, 0.05), 3.0)
    s_grid = np.append(np.arange(0.01, 1.5, 0.05), 1.5)
    for nu_variant in (MT_MEASURE, INFIMUM_MEASURE):
        counts["grid"] = 0
        constants = models._mh_constants(d_grid[:, None], s_grid[None, :], nu_variant)
        models._mh_rho_grid(d_grid, s_grid, constants, "thm1.2")
        assert counts["grid"] <= 7, nu_variant


def test_radius_search_raises_the_envelope_error_at_the_argmax(monkeypatch):
    # Finding the peak takes no envelope value: the search evaluates the
    # envelope at one radius, its argmax, and an error raised there comes
    # out with its type and text.
    from ergocert import bounds

    want = rho_general(CONTRACT).diagnostics["R_tilde"]
    seen = []

    def envelope(r, *args):
        seen.append(r)
        raise OutOfRange(f"envelope refused r={r}")

    monkeypatch.setattr(bounds, "_big_l_at", envelope)
    with pytest.raises(OutOfRange, match=re.escape(f"envelope refused r={want}")):
        rho_general(CONTRACT)
    assert seen == [want]


def _search_outcome(search, *args):
    # (R_tilde, R1) of a radius search, or the type and text of its error.
    try:
        return search(*args)
    except ErgoCertError as exc:
        return type(exc), str(exc)


def _climb_shortfall(p) -> float:
    # How far R1 - 1 of the radius search falls below that of Brent's climb
    # on R1 itself from a 16-radius scan (general_nonatomic_search_full_scan),
    # relative, before the rounding of R1 = 1 + e^t: 1 - e^(t - t_ref), with
    # t = log(R1 - 1) solved again at each R_tilde. The searches must raise
    # the same error type and text, and then the shortfall is 0.
    from ergocert import bounds

    de = _exponents(p)
    got = _search_outcome(bounds._general_nonatomic_search, p.beta, p.beta_tilde, *de)
    ref = _search_outcome(general_nonatomic_search_full_scan, p, de)
    if isinstance(ref[0], type) or isinstance(got[0], type):
        assert got == ref
        return 0.0
    t, t_ref = (
        r1_log_eps(KendallParams(
            beta=p.beta, big_r=r, big_l=_big_l_at(r, p.beta_tilde, *de[:2])
        ))
        for r in (got[0], ref[0])
    )
    assert got[1] == 1.0 + math.exp(t)
    return -math.expm1(t - t_ref)


_NONATOMIC_DOMAIN = dict(
    lam=st.one_of(
        st.floats(1e-6, 0.1), st.floats(0.05, 0.95), st.floats(0.9, 1.0 - 1e-12)
    ),
    log_k=st.floats(0.0, 3.0),
    beta_tilde=st.floats(1e-3, 0.999),
    log_beta_ratio=st.floats(-6.0, 0.0),
    nu_info=st.sampled_from([NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL]),
    log_k_tilde=st.floats(0.0, 3.0),
)


def _domain_point(lam, log_k, beta_tilde, log_beta_ratio, nu_info, log_k_tilde):
    return DriftMinorization(
        lam=lam, big_k=10.0**log_k, beta=beta_tilde * 10.0**log_beta_ratio,
        beta_tilde=beta_tilde, atomic=False, nu_info=nu_info,
        k_tilde=10.0**log_k_tilde if nu_info == NU_V_INTEGRAL else None,
    )


@given(**_NONATOMIC_DOMAIN)
@example(lam=1e-6, log_k=3.0, beta_tilde=0.5, log_beta_ratio=-6.0, nu_info=NU_NONE,
         log_k_tilde=0.0)
@example(lam=1.0 - 1e-12, log_k=1.0, beta_tilde=0.5, log_beta_ratio=-1.0, nu_info=NU_NONE,
         log_k_tilde=0.0)
@example(lam=0.6, log_k=3.0, beta_tilde=0.999, log_beta_ratio=0.0,
         nu_info=NU_CONCENTRATED, log_k_tilde=0.0)
@settings(max_examples=400, deadline=None)
def test_stationarity_climb_is_never_below_brents_climb(**draw):
    # Over the same domain the climb by the root of rising raises what
    # Brent's search on R1 raises, and otherwise its R1 - 1 falls at most
    # 1e-10 (relative) below Brent's before R1 = 1 + e^t is rounded. That
    # rounding alone moves R1 - 1 by up to 2^-53 / (R1 - 1) relative, more
    # than 1e-10 where R1 - 1 < 1.1e-6, so it is left out.
    assert _climb_shortfall(_domain_point(**draw)) <= 1e-10


def test_stationarity_climb_fails_with_rising_flipped():
    # Falsification control: with the sign of rising flipped the search
    # reads R1 as falling from the left end and stops there, which falls
    # short of Brent's climb by far more than 1e-10 on the seeded draws.
    from ergocert import bounds

    ps = _nonatomic_inputs(20, seed=34)
    assert max(_climb_shortfall(p) for p in ps) <= 1e-10
    real = bounds.maximize_scalar

    def flipped(f, lo, hi, rising):
        return real(f, lo, hi, lambda delta: -rising(delta))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "maximize_scalar", flipped)
        assert max(_climb_shortfall(p) for p in ps) > 1e-6


def _search_functions(p) -> tuple:
    # The (objective, delta_lo, delta_hi, rising) that rho_general(p) hands
    # to maximize_scalar, None where it raises first, and whether it raised.
    from ergocert import bounds

    real = bounds.maximize_scalar
    captured = []

    def capture(f, lo, hi, rising):
        captured.append((f, lo, hi, rising))
        return real(f, lo, hi, rising)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "maximize_scalar", capture)
        try:
            rho_general(p)
        except ErgoCertError:
            return (captured or [None])[0], True
    return captured[0], False


def test_rising_has_the_sign_of_minus_dt_du():
    # rising(delta) < 0 where t = log(R1 - 1) still grows with
    # delta = R - 1 and > 0 where it falls, checked against the solved
    # objective at delta * e^(+-1e-4) on a 64-point grid of each seeded
    # draw's window in u = log(delta), wherever t moves by more than 1e-7
    # between them (away from the peak). delta +- 1e-4 would leave the
    # window next to delta = 1e-9.
    checked = 0
    for p in _nonatomic_inputs(20, seed=35):
        functions, raised = _search_functions(p)
        if raised:
            continue
        f, lo, hi, rising = functions
        h, u_lo, u_hi = 1e-4, math.log(lo), math.log(hi)
        for k in range(64):
            delta = math.exp(u_lo + h + (u_hi - u_lo - 2.0 * h) * (k / 63))
            dt = f(delta * math.exp(h)) - f(delta * math.exp(-h))
            if abs(dt) > 1e-7:
                assert (rising(delta) > 0.0) == (dt < 0.0), (p, delta)
                checked += 1
    assert checked > 1_000


@given(**_NONATOMIC_DOMAIN)
@seed(35)
@settings(max_examples=300, deadline=None)
def test_rising_changes_sign_at_most_once(**draw):
    # The radius search takes the one root of rising as the peak, which
    # holds only where rising turns from - to + at most once over the
    # window: on a 1,025-point grid of it, equally spaced in log delta,
    # ends included, the points where rising < 0 all come before those
    # where it is not.
    functions, _ = _search_functions(_domain_point(**draw))
    if functions is None:
        return
    _, lo, hi, rising = functions
    u_lo, u_hi = math.log(lo), math.log(hi)
    deltas = [lo, *(math.exp(u_lo + (u_hi - u_lo) * (k / 1024)) for k in range(1, 1024)), hi]
    falling = [not rising(delta) < 0.0 for delta in deltas]
    assert falling == sorted(falling)


def _log_slope_minus_one(delta, beta_tilde, alpha1, alpha2) -> float:
    # s = delta L'(R) / (L(R) - 1) - 1 at R = 1 + delta, at 40 digits: the
    # quantity whose sign picks _rising's branch. Its float, a difference
    # next to 0 for delta next to 0, carries rounding of ~2^-53 / s
    # relative to itself.
    with mpmath.workdps(40):
        d, bt, a1, a2 = (mpmath.mpf(v) for v in (delta, beta_tilde, alpha1, alpha2))
        r = 1 + d
        pole = 1 - (1 - bt) * r**a1
        slope = bt * (a2 * r ** (a2 - 1) * pole + (1 - bt) * a1 * r ** (a1 + a2 - 1)) / pole**2
        return float(d * slope / (bt * r**a2 / pole - 1) - 1)


@given(**_NONATOMIC_DOMAIN)
@seed(40)
@example(lam=1e-6, log_k=3.0, beta_tilde=0.5, log_beta_ratio=-6.0, nu_info=NU_NONE,
         log_k_tilde=0.0)
@example(lam=1.0 - 1e-12, log_k=1.0, beta_tilde=0.5, log_beta_ratio=-1.0, nu_info=NU_NONE,
         log_k_tilde=0.0)
@example(lam=1e-4, log_k=0.0, beta_tilde=0.99999, log_beta_ratio=0.0,
         nu_info=NU_CONCENTRATED, log_k_tilde=0.0)  # R0 = 1/lambda = 1e4
@settings(max_examples=200, deadline=None)
def test_rising_takes_delta_exactly_on_floats_and_arrays(**draw):
    # The window ends survive delta = R - 1 and back bit for bit, so the
    # search's R_tilde is lo or hi itself at an end. On 17 deltas of the
    # window, equally spaced in log delta, ends included, _rising on the
    # array agrees with _rising on each float to 64 ulps of
    # 1 + delta + |value|, over min(1, s): numpy's log1p and expm1 may
    # differ from math's by an ulp, as in solve_r1_array, and s takes that
    # ulp relative to itself. Where s <= 0 both are -1.
    from ergocert import bounds

    p = _domain_point(**draw)
    alpha1, alpha2, r0 = _exponents(p)
    lo, hi = bounds._scan_window(r0)
    if not hi > lo:
        return
    assert 1.0 + (lo - 1.0) == lo and 1.0 + (hi - 1.0) == hi
    constants = p.beta, p.beta_tilde, alpha1, alpha2
    u_lo, u_hi = math.log(lo - 1.0), math.log(hi - 1.0)
    inner = (math.exp(u_lo + (u_hi - u_lo) * (k / 16)) for k in range(1, 16))
    deltas = [lo - 1.0, *inner, hi - 1.0]
    for delta, value in zip(deltas, bounds._rising(np.array(deltas), *constants)):
        want = bounds._rising(delta, *constants)
        s = _log_slope_minus_one(delta, *constants[1:])
        if s <= 0.0:
            assert value == want == -1.0
            continue
        tol = 64.0 * 2.0**-52 * (1.0 + delta + abs(want)) / min(1.0, s)
        assert abs(value - want) <= tol, (p, delta, value, want)


@pytest.mark.parametrize(
    "beta_tilde, alpha1, alpha2", [(1.0, 1.0, 1.0), (0.9, 0.01, 0.5), (0.9, 0.5, 0.5)]
)
def test_rising_is_minus_one_where_s_is_not_positive(beta_tilde, alpha1, alpha2):
    # s <= 0, which rounding alone leaves on the validated domain, gives -1
    # on floats with no exception, as on arrays. L(R) = R (beta_tilde = 1,
    # alpha = 1) has s = 0, whose float is 0 or an ulp below it: a division
    # by s, or expm1 of -2 delta / (R s), would raise there. Exponents
    # below 1 make L concave, with s < 0.
    from ergocert import bounds

    deltas = [1e-9, 3e-9, 1e-6, 1e-3, 0.5, 3.0]
    for delta in deltas:
        assert _log_slope_minus_one(delta, beta_tilde, alpha1, alpha2) <= 0.0
        assert bounds._rising(delta, 0.5, beta_tilde, alpha1, alpha2) == -1.0
    assert (bounds._rising(np.array(deltas), 0.5, beta_tilde, alpha1, alpha2) == -1.0).all()


def test_all_clamped_window_keeps_the_right_edge():
    # Where R1 clamps to 1 + 1e-14 at the peak it clamps at every radius,
    # and the search takes the right edge, as a scan of equal values takes
    # its rightmost: R_tilde = R0 - 1e-9, where M then has no room below R1.
    p = DriftMinorization(lam=0.9999, big_k=900, beta=5e-7, beta_tilde=0.5, atomic=False)
    diag = rho_general(p).diagnostics
    assert diag["R_tilde_edge"] == "right" and diag["R1"] == 1.0 + 1e-14
    text = "r=1.000000000000005 is at or beyond the certified radius (series-bound denominator <= 0)"
    with pytest.raises(OutOfRange, match=re.escape(text)):
        certificate(p)


def test_r1_clamped_at_the_peak_is_clamped_across_the_window():
    # The right edge is as good as the peak only because a clamp at the
    # peak is a clamp everywhere: on the seeded draws whose R1 is 1 + 1e-14
    # the objective is log 1e-14 on a 64-point grid of the window, ends
    # included, and R_tilde sits on the right edge.
    from ergocert import kendall

    clamped = 0
    for p in _nonatomic_inputs(40, seed=31):
        functions, raised = _search_functions(p)
        if raised:
            continue
        diag = rho_general(p).diagnostics
        if diag["R1"] != 1.0 + 1e-14:
            continue
        f, lo, hi, _ = functions
        assert diag["R_tilde_edge"] == "right", p
        assert all(f(lo + (hi - lo) * (k / 63)) == kendall._LOG_EPS_LO for k in range(64)), p
        clamped += 1
    assert clamped == 21


def test_radius_search_solves_r1_once_per_search(monkeypatch):
    # Finding the peak solves no R1 equation: the search evaluates rising
    # first, then the objective once, at the argmax, with one R1 solve, and
    # a second one at the right end only where R1 clamped at the peak.
    from ergocert import bounds, kendall

    events = []
    real_solve, real_max = kendall._r1_log, bounds.maximize_scalar

    def solve(*args):
        events.append("solve")
        return real_solve(*args)

    def search(f, lo, hi, rising):
        def counted(delta):
            events.append("rising")
            return rising(delta)

        return real_max(f, lo, hi, counted)

    monkeypatch.setattr(kendall, "_r1_log", solve)
    monkeypatch.setattr(bounds, "maximize_scalar", search)
    certificates, solves, risings = 0, 0, 0
    for p in _nonatomic_inputs(40, seed=31):
        events.clear()
        try:
            diag = rho_general(p).diagnostics
        except ErgoCertError:
            continue
        n = events.count("rising")
        clamped = diag["R1"] == 1.0 + 1e-14
        assert n >= 1 and events[:n] == ["rising"] * n
        assert events[n:] == ["solve"] * (1 + clamped), p
        certificates, solves, risings = certificates + 1, solves + 1 + clamped, risings + n
    # 120 certificates, 141 R1 solves (21 clamped at the peak) and 1,027
    # evaluations of rising.
    assert (certificates, solves, risings) == (120, 141, 1027)


def test_radius_search_raises_the_r1_error_at_the_argmax(monkeypatch):
    # An error of the R1 solve at the argmax, the only radius solved, comes
    # out of the search with its type and text.
    from ergocert import kendall

    seen = []

    def solve(*args):
        seen.append(args)
        raise OutOfRange(f"R1 refused at call {len(seen)}")

    monkeypatch.setattr(kendall, "_r1_log", solve)
    with pytest.raises(OutOfRange, match=re.escape("R1 refused at call 1")):
        rho_general(CONTRACT)
    assert len(seen) == 1


def test_rho_is_never_below_lambda():
    # 1/R rounds one ulp below lambda at these inputs; rho = max(lambda, 1/R)
    # keeps the bound rho >= lambda that holds for every certified radius.
    atomic = DriftMinorization(lam=0.9202788408519011, big_k=1.0146858581187506,
                               beta=0.7763417994970768)
    nonatomic = DriftMinorization(lam=0.9870557884881247, big_k=1.0422125212189073,
                                  beta=3.831879283074e-05, beta_tilde=0.7019319012676892,
                                  atomic=False)
    assert 1.0 / rho_reversible(atomic).diagnostics["R2"] < atomic.lam
    assert 1.0 / rho_positive(nonatomic).diagnostics["R0"] < nonatomic.lam
    assert certificate(atomic, "reversible").rho == atomic.lam
    assert certificate(nonatomic, "reversible-positive").rho == nonatomic.lam


def test_certificate_dispatch_and_default_gamma():
    cert = certificate(WALK_09, "reversible-positive", gamma=0.8)
    assert cert.rho == 0.6
    assert abs(cert.big_m - 28.125) <= 1e-9  # closed form at gamma = 0.8
    defaulted = certificate(WALK_09, "reversible-positive")
    assert defaulted.gamma == 0.5 * (1.0 + defaulted.rho)
    assert certificate(WALK_09, "general").rho >= cert.rho
    with pytest.raises(InvalidParams):
        certificate(WALK_09, "sideways")


def test_certificate_dict_schema():
    data = certificate(WALK_09_EPS, "reversible").to_dict()
    for key in ("method", "lambda", "K", "beta", "beta_tilde", "atomic", "symmetry",
                "rho", "gamma", "M", "diagnostics"):
        assert key in data
    assert data["atomic"] is True
    assert data["diagnostics"]["k_factor_kind"] == "K2"
    general = certificate(CONTRACT, "general").to_dict()["diagnostics"]
    for key in ("alpha1", "alpha2", "R0", "R_tilde", "L_at_R_tilde", "R_tilde_edge", "R1"):
        assert key in general
    assert general["R_tilde_edge"] in ("left", "right", None)


def test_l2_contraction():
    # For a reversible chain the L2(pi) contraction factor of P - 1 (x) pi
    # is at most the certified rate.
    assert rate_part(WALK_09, "reversible-positive").rho == 0.6
    assert abs(rate_part(contracting_params(0.75, 1.2), "reversible").rho - 0.9958) <= 5e-4


# The 18 (atomic, nu_info, symmetry) cases of a certificate request.
_CERTIFICATE_CASES = [
    (atomic, nu_info, symmetry)
    for atomic in (True, False)
    for nu_info in (NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL)
    for symmetry in ("general", "reversible", "reversible-positive")
]


def _case_chain(atomic, nu_info, lam, log_k, beta_tilde, log_beta_ratio, log_k_tilde):
    # A chain of the validated domain in one of the 18 cases: _chain with
    # nu_info kept for an atom too.
    beta_tilde = 1.0 if atomic else beta_tilde
    return DriftMinorization(
        lam=lam, big_k=10.0**log_k, beta=beta_tilde * 10.0**log_beta_ratio,
        beta_tilde=beta_tilde, atomic=atomic, nu_info=nu_info,
        k_tilde=10.0**log_k_tilde if nu_info == NU_V_INTEGRAL else None,
    )


def test_certificate_builds_no_kendall_params_and_no_rate_part(monkeypatch):
    # certificate() takes its rate from the rate's core and M from the
    # Kendall functions on floats: on seeded inputs of each of the 18 cases
    # it constructs no KendallParams and no RatePart, which rate_part and
    # the Kendall oracle's cases still do.
    from ergocert import bounds, kendall

    built = []
    for cls in (kendall.KendallParams, bounds.RatePart):
        def init(self, *args, _real=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    rng = np.random.default_rng(38)
    for atomic, nu_info, symmetry in _CERTIFICATE_CASES:
        certified = 0
        for _ in range(12):
            near = 10.0 ** rng.uniform(-4.0, -1.0)
            lam = float(rng.choice([near, 1.0 - near, rng.uniform(0.05, 0.95)]))
            p = _case_chain(atomic, nu_info, lam, rng.uniform(0.0, 3.0), rng.uniform(0.02, 0.98),
                       rng.uniform(-6.0, 0.0), rng.uniform(0.0, 3.0))
            try:
                certificate(p, symmetry)
            except ErgoCertError:
                continue
            certified += 1
        assert certified > 0, (atomic, nu_info, symmetry)
        assert built == [], (atomic, nu_info, symmetry)
    rate_part(WALK_09, "general")
    KendallParams(0.9, 1.0 / 0.6, 2.0)
    assert built == ["RatePart", "KendallParams"]


@given(
    case=st.sampled_from(_CERTIFICATE_CASES),
    lam=st.one_of(st.floats(1e-6, 0.1), st.floats(0.05, 0.95), st.floats(0.9, 1.0 - 1e-12)),
    log_k=st.floats(0.0, 3.0),
    beta_tilde=st.floats(1e-3, 0.999),
    log_beta_ratio=st.floats(-6.0, 0.0),
    log_k_tilde=st.floats(0.0, 3.0),
)
# R0 leaves no radius window: the general search raises InvalidParams.
@example(case=(False, NU_NONE, "general"), lam=1.0 - 1e-12, log_k=0.3, beta_tilde=0.5,
         log_beta_ratio=-1.0, log_k_tilde=0.0)
# R - 1 = 1e-9 clamps R1 at 1 + 1e-14, and K1 has no r below it.
@example(case=(True, NU_NONE, "general"), lam=1.0 - 1e-9, log_k=3.0, beta_tilde=0.5,
         log_beta_ratio=-6.0, log_k_tilde=0.0)
# beta = beta_tilde = 1 at K = 1: the smallest L and the largest beta.
@example(case=(True, NU_CONCENTRATED, "reversible"), lam=0.5, log_k=0.0, beta_tilde=0.5,
         log_beta_ratio=0.0, log_k_tilde=0.0)
@example(case=(False, NU_V_INTEGRAL, "reversible-positive"), lam=1e-6, log_k=3.0,
         beta_tilde=0.999, log_beta_ratio=-6.0, log_k_tilde=3.0)
@settings(max_examples=300, deadline=None)
def test_certificate_rate_is_rate_part_bit_for_bit(
    case, lam, log_k, beta_tilde, log_beta_ratio, log_k_tilde
):
    # certificate(p, s) and rate_part(p, s) give the same rho and the same
    # rate diagnostics, in the same order, bit for bit, or raise the same
    # error. Where only the certificate raises, M does, at the default gamma
    # of that rate.
    from ergocert import bounds

    atomic, nu_info, symmetry = case
    p = _case_chain(atomic, nu_info, lam, log_k, beta_tilde, log_beta_ratio, log_k_tilde)
    try:
        part = rate_part(p, symmetry)
    except ErgoCertError as exc:
        with pytest.raises(type(exc)) as raised:
            certificate(p, symmetry)
        assert str(raised.value) == str(exc)
        return
    try:
        cert = certificate(p, symmetry)
    except ErgoCertError as exc:
        gamma = 0.5 * (1.0 + part.rho)
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            bounds._m_with_part(p, gamma, part.rho, part.symmetry, part.diagnostics)
        return
    # repr gives each float's shortest round trip: equal reprs, equal bits.
    assert repr(cert.rho) == repr(part.rho) and cert.symmetry == part.symmetry
    items = [(key, repr(value)) for key, value in cert.diagnostics.items()]
    assert items[:-2] == [(key, repr(value)) for key, value in part.diagnostics.items()]
    assert [key for key, _ in items[-2:]] == ["k_factor_kind", "k_factor"]
