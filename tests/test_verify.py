import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergocert import kendall as kendall_mod
from ergocert import verify
from ergocert.bounds import Certificate, certificate
from ergocert.errors import (
    HypothesisViolated,
    InvalidParams,
    OutOfRange,
    PeriodicSupport,
    TruncationTooSmall,
)
from ergocert.kendall import KendallParams
from ergocert.models import (
    ReflectingWalk,
    TruncatedChain,
    reflecting_walk_params,
    walk_truncated_chain,
)
from ergocert.verify import (
    IncrementDistribution,
    certificate_domination,
    choose_truncation,
    increment_radius,
    kendall_check,
    kendall_family_radius,
    matrix_vnorm_distances,
    mc_regeneration,
    renewal_from_increments,
    run_kendall_suite,
    run_matrix_suite,
    run_mc_suite,
    walk_empirical_rate,
)
from reference_forms import (
    _sample_admissible,
    increment_radius_roots,
    kendall_check_per_case,
    kendall_suite_per_case,
    matrix_vnorm_distances_dense,
    mc_regeneration_alive_mask,
    renewal_per_law,
)


# --- renewal oracle ----------------------------------------------------------


def test_point_mass_renewal():
    seq = renewal_from_increments([IncrementDistribution(probs=(1.0,))], 50)
    assert (seq.u[0] == 1.0).all()
    assert seq.u_inf[0] == 1.0


def test_hand_convolution():
    seq = renewal_from_increments([IncrementDistribution(probs=(0.5, 0.5))], 4)
    assert np.allclose(seq.u[0], [1.0, 0.5, 0.75, 0.625, 0.6875], atol=1e-15)
    assert seq.u_inf[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_periodic_support_rejected():
    with pytest.raises(PeriodicSupport):
        IncrementDistribution(probs=(0.0, 0.5, 0.0, 0.5))


def test_distribution_validation():
    with pytest.raises(InvalidParams):
        IncrementDistribution(probs=(0.5, 0.4))
    with pytest.raises(InvalidParams):
        IncrementDistribution(probs=(1.2, -0.2))


@pytest.mark.parametrize("probs", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 0.0), (1.0, math.inf)])
def test_distribution_rejects_nonfinite_probabilities(probs):
    with pytest.raises(InvalidParams):
        IncrementDistribution(probs=probs)


@pytest.mark.parametrize("field", ["matrix", "v"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_truncated_chain_rejects_nonfinite_entries(field, value):
    n = 4
    fields = dict(
        matrix=np.full((n, n), 1.0 / n), v=np.ones(n),
        pi=np.full(n, 1.0 / n), tail_mass=0.0,
    )
    TruncatedChain(**fields)
    fields[field] = fields[field].copy()
    fields[field][..., 1] = value
    with pytest.raises(InvalidParams):
        TruncatedChain(**fields)


def test_renewal_identity_convolution():
    # Coefficients of u(z) (1 - b(z)) must be (1, 0, 0, ...).
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(6))
    probs[0] += 0.05
    probs /= probs.sum()
    dist = IncrementDistribution(probs=tuple(probs))
    n_max = 60
    u = renewal_from_increments([dist], n_max).u[0]
    b = np.concatenate([[0.0], dist.array])
    conv = np.convolve(u, b)[: n_max + 1]
    identity = u - conv
    assert abs(identity[0] - 1.0) <= 1e-12
    assert np.abs(identity[1:]).max() <= 1e-12


def test_u_tail_approaches_limit():
    dist = IncrementDistribution(probs=(0.6, 0.3, 0.1))
    seq = renewal_from_increments([dist], 200)
    u, u_inf = seq.u[0], seq.u_inf[0]
    assert u[0] == 1.0
    assert (u >= 0.0).all() and (u <= 1.0).all()
    assert abs(u_inf - 1.0 / dist.mean) <= 1e-15
    assert abs(u[200] - u_inf) < abs(u[100] - u_inf) + 1e-18
    assert abs(u[200] - u_inf) <= 1e-12


def test_family_decay_matches_root_radius():
    # Two-point increment family: the convolution's empirical decay must
    # reproduce the dominant-root radius once secondary modes die out.
    beta, k = 1.0 / 3.0, 40
    probs = np.zeros(k)
    probs[0] = beta
    probs[-1] = 1.0 - beta
    dist = IncrementDistribution(probs=tuple(probs))
    seq = renewal_from_increments([dist], 26_000)
    dev = np.abs(seq.u[0] - seq.u_inf[0])
    early = dev[14_000 : 14_000 + 3 * k].max()
    late = dev[25_800 - 3 * k : 25_800].max()
    span = (25_800 - 3 * k) - 14_000
    emp_rate = (late / early) ** (1.0 / span)
    predicted = 2.0 * math.pi**2 * beta / (1.0 - beta) ** 2 / k**3
    assert abs((1.0 - emp_rate) / predicted - 1.0) <= 0.10


def test_family_radius_asymptotics():
    beta = 0.25
    for k in (20, 40, 80):
        measured = kendall_family_radius(beta, k) - 1.0
        predicted = 2.0 * math.pi**2 * beta / (1.0 - beta) ** 2 / k**3
        assert abs(measured / predicted - 1.0) <= 0.10


@pytest.mark.parametrize(
    "beta, k", [(0.25, 2.5), (0.25, math.nan), (0.25, math.inf), (0.25, 1), (1.0, 3)]
)
def test_family_radius_rejects_a_k_that_is_no_integer_from_2(beta, k):
    # A fractional or non-finite k raised numpy's TypeError from np.zeros.
    with pytest.raises(InvalidParams, match="integer k >= 2"):
        kendall_family_radius(beta, k)


def test_family_radius_takes_numpy_integers():
    assert kendall_family_radius(0.25, np.int64(20)) == kendall_family_radius(0.25, 20)


# Laws of every support length 1-8, a trailing zero probability, and the
# point mass, whose radius is inf.
_RADIUS_LAWS = [
    np.random.default_rng(length).dirichlet(np.ones(length)) for length in range(1, 9)
] + [np.array([0.5, 0.5, 0.0]), np.array([1.0])]


@pytest.mark.parametrize("law", _RADIUS_LAWS, ids=lambda law: f"m{law.size}")
def test_stacked_radius_matches_np_roots_bit_for_bit(law):
    want = increment_radius_roots(law)
    assert math.isinf(want) == (np.count_nonzero(law) == 1)  # only the point mass
    assert verify._increment_radii([law]).tobytes() == np.array([want]).tobytes()
    assert increment_radius(IncrementDistribution(probs=tuple(law))) == want


def test_stacked_radius_of_a_mixed_length_batch_matches_np_roots_bit_for_bit():
    laws = _RADIUS_LAWS + [np.random.default_rng(9).dirichlet(np.ones(m)) for m in (3, 7, 3, 8)]
    want = np.array([increment_radius_roots(law) for law in laws])
    assert verify._increment_radii(laws).tobytes() == want.tobytes()


def _case(law, beta, big_r, big_l, r):
    # One kendall_check case, with the R1 and increment radius it expects.
    kp = KendallParams(beta=beta, big_r=big_r, big_l=big_l)
    return law, kp, r, kendall_mod.solve_r1(beta, big_r, big_l), increment_radius(law)


def test_kendall_check_passes_and_gates():
    dist = IncrementDistribution(probs=(0.9, 0.1))
    big_r = 1.5
    big_l = 0.9 * 1.5 + 0.1 * 1.5**2
    good = _case(dist, 0.9, big_r, big_l, 1.05)
    (rep,) = kendall_check([good])
    assert rep["pass"]
    assert rep["measured_sup"] <= rep["bound"]
    with pytest.raises(HypothesisViolated):
        kendall_check([_case(dist, 0.95, big_r, big_l, 1.05)])
    with pytest.raises(HypothesisViolated):
        kendall_check([_case(dist, 0.9, big_r, 1.5, 1.05)])


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", ["beta", "big_l", "r=1", "r=R1"])
def test_kendall_check_gates_every_case_of_a_batch(at, bad):
    dist = IncrementDistribution(probs=(0.9, 0.1))
    big_r, big_l = 1.5, 0.9 * 1.5 + 0.1 * 1.5**2
    good = _case(dist, 0.9, big_r, big_l, 1.05)
    law, kp, r, r1, radius = good
    broken, error = {
        "beta": (_case(dist, 0.95, big_r, big_l, 1.05), HypothesisViolated),
        "big_l": (_case(dist, 0.9, big_r, 1.5, 1.05), HypothesisViolated),
        "r=1": ((law, kp, 1.0, r1, radius), OutOfRange),
        "r=R1": ((law, kp, r1, r1, radius), OutOfRange),
    }[bad]
    cases = [good, good]
    cases.insert(at, broken)
    with pytest.raises(error):
        kendall_check(cases)


def _law(weights):
    probs = np.asarray(weights) / np.sum(weights)
    return IncrementDistribution(probs=tuple(probs))


# A law: support length 1..8, b_1 > 0 so the support is aperiodic.
laws_strategy = st.lists(st.floats(0.0, 1.0), min_size=0, max_size=7).flatmap(
    lambda rest: st.floats(0.01, 1.0).map(lambda first: _law([first, *rest]))
)


@settings(max_examples=60, deadline=None)
@given(
    laws=st.lists(laws_strategy, min_size=0, max_size=12),
    at=st.integers(0, 12),
    n_max=st.integers(1, 300),
)
def test_renewal_block_matches_per_law_loop(laws, at, n_max):
    laws.insert(min(at, len(laws)), IncrementDistribution(probs=(1.0,)))
    block = renewal_from_increments(laws, n_max)
    assert block.u.shape == (len(laws), n_max + 1)
    for row, u_inf, law in zip(block.u, block.u_inf, laws):
        ref = renewal_per_law(law, n_max)
        assert np.abs(row - ref.u).max() <= 1e-12
        assert u_inf == ref.u_inf


def test_renewal_needs_at_least_one_law():
    with pytest.raises(InvalidParams):
        renewal_from_increments([], 10)
    with pytest.raises(InvalidParams):
        kendall_check([])


def test_kendall_suite_draws_once_and_convolves_once(monkeypatch):
    calls = []
    convolve = verify.renewal_from_increments
    monkeypatch.setattr(
        verify, "renewal_from_increments", lambda *a: calls.append(a) or convolve(*a)
    )
    run_kendall_suite(seed=5)
    assert len(calls) == 1 and len(calls[0][0]) == 200


def test_kendall_suite_checks_its_cases_in_one_kendall_check(monkeypatch):
    calls = []
    check = verify.kendall_check
    monkeypatch.setattr(verify, "kendall_check", lambda *a: calls.append(a) or check(*a))
    run_kendall_suite(seed=5)
    assert len(calls) == 1 and len(calls[0][0]) == 200


@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_kendall_suite_matches_per_case_loop(seed):
    ref = kendall_suite_per_case(seed=seed)
    new = run_kendall_suite(seed=seed)
    assert [(c.name, c.passed, c.detail) for c in new.checks] == [
        (c.name, c.passed, c.detail) for c in ref.checks
    ]
    assert [c.bound for c in new.checks] == [c.bound for c in ref.checks]
    for a, b in zip(new.checks, ref.checks):
        assert abs(a.measured - b.measured) <= 1e-9 * abs(b.measured)


# Seeds whose first `count` cases need one more candidate: the 0.96 rate
# filter drops the 17th candidate at seed 295 and the 24th at seed 1018.
@pytest.mark.parametrize("seed, count", [(295, 60), (1018, 40)])
def test_block_draw_matches_one_candidate_at_a_time(monkeypatch, seed, count):
    radiused = []
    radii = verify._increment_radii
    monkeypatch.setattr(
        verify, "_increment_radii", lambda laws: radiused.extend(laws) or radii(laws)
    )
    rng = np.random.Generator(np.random.Philox(seed))
    got = verify._draw_admissible(rng, count)
    assert len(got) == count
    assert len(radiused) > count  # a candidate was rejected and redrawn
    ref_rng = np.random.Generator(np.random.Philox(seed))
    for law, kp, r, r1, radius in got:
        ref_law, beta, big_r, big_l, ref_r = _sample_admissible(ref_rng)
        ref_kp = KendallParams(beta=beta, big_r=big_r, big_l=big_l)
        assert np.array(law.probs).tobytes() == np.array(ref_law.probs).tobytes()
        assert kp == ref_kp
        ref_r1 = kendall_mod.solve_r1(beta, big_r, big_l)
        assert np.array([r, r1, radius]).tobytes() == (
            np.array([ref_r, ref_r1, increment_radius(ref_law)]).tobytes()
        )
    # No draw past the last case: the generators go on alike.
    assert rng.random(8).tobytes() == ref_rng.random(8).tobytes()


# The (0.99, 0.01) law with beta = 0.99, R = 10, L = 10.9 has R1 ~ 3.886 and
# is checked at r ~ 3.597, whose 1200th power overflows a double.
_STEEP = (IncrementDistribution(probs=(0.99, 0.01)), 0.99, 10.0, 10.9)


def test_kendall_check_survives_overflowing_powers():
    # r ** 1200 overflows a double. One law is summed only to its own
    # resolved cutoff (about n = 5 here), never to the last renewal term,
    # so the check stays finite and equals the per-case result.
    r1 = kendall_mod.solve_r1(*_STEEP[1:])
    args = (*_STEEP, 1.0 + 0.9 * (r1 - 1.0))
    with np.errstate(over="ignore"):
        assert np.power(args[-1], 1200) == math.inf
    (rep,) = kendall_check([_case(*args)])
    ref = kendall_check_per_case(*args)
    assert math.isfinite(rep["measured_sup"])
    assert rep["measured_sup"] == pytest.approx(ref["measured_sup"], rel=1e-12, abs=0.0)
    assert {k: v for k, v in rep.items() if k != "measured_sup"} == {
        k: v for k, v in ref.items() if k != "measured_sup"
    }


def test_kendall_checks_mask_overflowing_powers_of_a_shorter_row():
    # The steep law is resolved to about n = 5; the k = 40 family law stays
    # resolved to the last renewal term, n = 1200. In their shared slice
    # r ** n of the steep law overflows past its cutoff, and must be masked
    # away there.
    slow_probs = np.zeros(40)
    slow_probs[[0, -1]] = 0.25, 0.75
    drawn = [
        _STEEP,
        (IncrementDistribution(probs=tuple(slow_probs)), 0.25, 1.01, 0.25 * 1.01 + 0.75 * 1.01**40),
    ]
    cases, refs = [], []
    for law, beta, big_r, big_l in drawn:
        r1 = kendall_mod.solve_r1(beta, big_r, big_l)
        r = 1.0 + 0.9 * (r1 - 1.0)
        cases.append(_case(law, beta, big_r, big_l, r))
        refs.append(kendall_check_per_case(law, beta, big_r, big_l, r))
    with np.errstate(over="ignore"):
        assert np.power(cases[0][2], 1200) == math.inf
    for rep, ref in zip(kendall_check(cases), refs):
        assert math.isfinite(rep["measured_sup"])
        assert rep["measured_sup"] == pytest.approx(ref["measured_sup"], rel=1e-12, abs=0.0)
        assert {k: v for k, v in rep.items() if k != "measured_sup"} == {
            k: v for k, v in ref.items() if k != "measured_sup"
        }


def test_series_sup_masks_terms_past_each_cutoff():
    # Row 0 stops at n = 5 with r = 1e3, so r**n overflows in the columns
    # that row 1 (cutoff 500) still needs; the overflow must not reach row 0.
    rng = np.random.default_rng(7)
    deviations = rng.uniform(-1e-3, 1e-3, size=(2, 501))
    r = np.array([1e3, 1.0])
    cutoff = np.array([5, 500])
    with np.errstate(all="raise"):
        block = verify._series_sup_on_circle(deviations, r, cutoff)
    alone = verify._series_sup_on_circle(deviations[:1, :6], r[:1], cutoff[:1])
    assert np.isfinite(block).all()
    assert block[0] == pytest.approx(alone[0], rel=1e-14)


def test_kendall_suite_small_run():
    suite = run_kendall_suite(seed=11)
    assert suite.passed
    good, total = suite.counts
    assert total == 202  # 200 random cases plus two asymptotics checks
    payload = json.dumps(suite.to_dict())
    assert '"margin"' in payload


# --- matrix oracle -----------------------------------------------------------


@pytest.fixture(scope="module")
def walk09_chain():
    return walk_truncated_chain(ReflectingWalk(p=0.9), 128)


@pytest.mark.parametrize(
    "x, n_max",
    [(4.0, 10), (True, 10), (np.array([1.0, 2.0]), 10), (np.array([True]), 10),
     (4, 10.0), (4, True), (4, -1), (-1, 10), (128, 10)],
)
def test_distances_reject_a_state_or_step_count_that_is_no_integer(walk09_chain, x, n_max):
    # A float state raised IndexError, a bool state ValueError and a float
    # n_max TypeError; the state range and n_max >= 0 checks were there.
    with pytest.raises(InvalidParams):
        matrix_vnorm_distances(walk09_chain, x, n_max)


def test_distances_take_numpy_integers(walk09_chain):
    want = matrix_vnorm_distances(walk09_chain, np.array([1, 4]), 10)
    for x, n_max in ((np.array([1, 4], dtype=np.uint8), np.int32(10)), ([1, 4], np.uint8(10))):
        assert matrix_vnorm_distances(walk09_chain, x, n_max).tobytes() == want.tobytes()
    one = matrix_vnorm_distances(walk09_chain, 4, 10)
    assert matrix_vnorm_distances(walk09_chain, np.int64(4), 10).tobytes() == one.tobytes()


def test_distance_at_time_zero(walk09_chain):
    tc = walk09_chain
    x = 4
    direct = float(np.abs(np.eye(tc.n_states)[x] - tc.pi) @ tc.v)
    assert matrix_vnorm_distances(tc, x, 0)[0] == pytest.approx(direct, rel=1e-12)


def test_block_distances_match_single_states(walk09_chain):
    tc = walk09_chain
    xs = np.array([0, 1, 4, 9, 30, 127])
    block = matrix_vnorm_distances(tc, xs, 60)
    singles = [matrix_vnorm_distances(tc, int(x), 60) for x in xs]
    assert all(d.shape == (61,) for d in singles)
    stacked = np.stack(singles)
    assert block.shape == (6, 61)
    assert (np.abs(block - stacked) <= 1e-13 * np.abs(stacked)).all()
    grid = matrix_vnorm_distances(tc, xs.reshape(2, 3), 60)
    assert grid.shape == (2, 3, 61)
    assert (np.abs(grid.reshape(6, 61) - stacked) <= 1e-13 * np.abs(stacked)).all()


@pytest.mark.parametrize("xs", [[0, 3, 128], [-1, 2], 128])
def test_out_of_range_state_raises(walk09_chain, xs):
    with pytest.raises(InvalidParams):
        matrix_vnorm_distances(walk09_chain, np.array(xs), 10)


def test_distances_nonincreasing_for_standard_walk(walk09_chain):
    dist = matrix_vnorm_distances(walk09_chain, 5, 80)
    assert (np.diff(dist) <= 1e-12).all()


def test_row_mass_preserved(walk09_chain):
    tc = walk09_chain
    row = np.eye(tc.n_states)[7]
    for n in range(1, 60):
        row = row @ tc.matrix
    assert abs(row.sum() - 1.0) <= 60 * 1e-13


def test_empirical_rate_modified_walk():
    tc = choose_truncation(ReflectingWalk(p=0.8, epsilon=0.25), x_max=30, n_max=200)
    rate = walk_empirical_rate(matrix_vnorm_distances(tc, 0, 160), 80, 160)
    assert abs(rate - 0.8409) <= 0.01


@pytest.mark.parametrize(
    "dist, n_lo, n_hi",
    [
        (np.ones(161), -1, 160),
        (np.ones(161), 80, 80),
        (np.ones(161), 80, 161),
        (np.ones((2, 161)), 80, 160),
    ],
    ids=["n_lo<0", "n_lo=n_hi", "n_hi-past-the-row", "2-d"],
)
def test_empirical_rate_needs_one_row_through_n_hi(dist, n_lo, n_hi):
    with pytest.raises(InvalidParams):
        walk_empirical_rate(dist, n_lo, n_hi)


def test_domination_pass_and_control(walk09_chain):
    params = reflecting_walk_params(ReflectingWalk(p=0.9))
    cert = certificate(params, "reversible", gamma=0.8)
    table = matrix_vnorm_distances(walk09_chain, np.arange(21), 120)
    report = certificate_domination(walk09_chain, table, cert)
    assert report.passed
    weak = Certificate(
        rho=cert.rho, gamma=cert.gamma, big_m=cert.big_m * 1e-3,
        symmetry=cert.symmetry, method=cert.method, params=cert.params,
        diagnostics=cert.diagnostics,
    )
    assert not certificate_domination(walk09_chain, table, weak).passed


def _per_state_domination(tc, cert, x_max, n_max):
    # The per-state loop certificate_domination once ran: one distance call
    # per start state, the running worst kept by a strict ">".
    worst_ratio = -math.inf
    worst = (0, 0, 0.0, math.inf)
    powers = np.power(cert.gamma, np.arange(n_max + 1))
    for x in range(min(x_max, tc.n_states - 1) + 1):
        dist = matrix_vnorm_distances(tc, x, n_max)
        envelope = cert.big_m * tc.v[x] * powers
        ratios = dist / envelope
        i = int(np.argmax(ratios))
        if ratios[i] > worst_ratio:
            worst_ratio = float(ratios[i])
            worst = (x, i, float(dist[i]), float(envelope[i]))
    return worst, worst_ratio


@pytest.mark.parametrize("symmetry", ["general", "reversible", "reversible-positive"])
def test_domination_matches_per_state_loop(walk09_chain, symmetry):
    cert = certificate(reflecting_walk_params(ReflectingWalk(p=0.9)), symmetry)
    (x, n, measured, bound), ratio = _per_state_domination(walk09_chain, cert, 20, 120)
    table = matrix_vnorm_distances(walk09_chain, np.arange(21), 120)
    report = certificate_domination(walk09_chain, table, cert)
    assert report.detail == f"worst at x={x}, n={n}, ratio {ratio:.3e}"
    assert report.bound == bound
    assert report.measured == pytest.approx(measured, rel=1e-13)
    assert report.passed == (ratio <= 1.0)


def test_domination_needs_a_start_state(walk09_chain):
    cert = certificate(reflecting_walk_params(ReflectingWalk(p=0.9)), "reversible")
    with pytest.raises(InvalidParams):
        certificate_domination(walk09_chain, np.empty((0, 11)), cert)


@pytest.mark.parametrize(
    "table",
    [np.ones(11), np.ones((2, 3, 11)), np.ones((129, 11)), np.ones((4, 0))],
    ids=["1-d", "3-d", "more-rows-than-states", "no-steps"],
)
def test_domination_rejects_a_table_that_is_no_start_state_table(walk09_chain, table):
    cert = certificate(reflecting_walk_params(ReflectingWalk(p=0.9)), "reversible")
    with pytest.raises(InvalidParams):
        certificate_domination(walk09_chain, table, cert)


def test_domination_past_the_truncation_is_refused_not_clipped(walk09_chain):
    # Start states up to 500 on a 128-state truncation: the table cannot be
    # built, so no check runs on a smaller problem clipped to x <= 127.
    assert walk09_chain.n_states == 128
    with pytest.raises(InvalidParams):
        matrix_vnorm_distances(walk09_chain, np.arange(501), 100)
    # A table of every state the truncation has is the largest accepted.
    cert = certificate(reflecting_walk_params(ReflectingWalk(p=0.9)), "reversible")
    table = matrix_vnorm_distances(walk09_chain, np.arange(128), 10)
    assert certificate_domination(walk09_chain, table, cert).passed


def test_domination_tie_goes_to_the_first_state():
    # P = 1 pi^T with uniform pi and V = 1: every start state has the same
    # distance at n = 0 and none after, so all (x, 0) tie for the worst.
    n = 4
    tc = TruncatedChain(
        matrix=np.full((n, n), 1.0 / n), v=np.ones(n),
        pi=np.full(n, 1.0 / n), tail_mass=0.0,
    )
    cert = certificate(reflecting_walk_params(ReflectingWalk(p=0.9)), "reversible")
    report = certificate_domination(tc, matrix_vnorm_distances(tc, np.arange(n), 5), cert)
    assert report.detail.startswith("worst at x=0, n=0,")
    assert report.measured == 2.0 * (1.0 - 1.0 / n)


_SUITE_WALKS = [
    ReflectingWalk(p=2.0 / 3.0),
    ReflectingWalk(p=0.9),
    ReflectingWalk(p=0.8, epsilon=0.25),
    ReflectingWalk(p=0.9, epsilon=0.25),
]


def _assert_matches_dense(tc, xs, n_max):
    got = matrix_vnorm_distances(tc, xs, n_max)
    want = matrix_vnorm_distances_dense(tc, xs, n_max)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


@pytest.mark.parametrize("n_states", [64, 128, 256])
@pytest.mark.parametrize("spec", _SUITE_WALKS)
def test_diagonal_step_matches_dense_product_on_the_walks(spec, n_states):
    tc = walk_truncated_chain(spec, n_states)
    _assert_matches_dense(tc, np.arange(31), 200)
    _assert_matches_dense(tc, 30, 200)


def test_diagonal_step_matches_dense_product_on_dense_chains():
    # Every diagonal of these chains holds a nonzero. The uniform chain
    # reaches pi in one step; the random one is made lazy so that its
    # deviations stay resolved through n = 200.
    n = 4
    uniform = TruncatedChain(
        matrix=np.full((n, n), 1.0 / n), v=np.ones(n),
        pi=np.full(n, 1.0 / n), tail_mass=0.0,
    )
    _assert_matches_dense(uniform, np.arange(n), 200)
    rng = np.random.default_rng(11)
    n = 16
    jump = rng.random((n, n))
    matrix = 0.97 * np.eye(n) + 0.03 * jump / jump.sum(axis=1, keepdims=True)
    assert (matrix > 0.0).all()
    # pi solves pi (P - I) = 0 with sum(pi) = 1.
    system = np.vstack([(matrix - np.eye(n)).T, np.ones(n)])
    pi = np.linalg.lstsq(system, np.append(np.zeros(n), 1.0), rcond=None)[0]
    dense = TruncatedChain(
        matrix=matrix, v=1.0 + np.arange(n), pi=pi, tail_mass=0.0,
    )
    assert matrix_vnorm_distances_dense(dense, 0, 200)[-1] > 1e-6
    _assert_matches_dense(dense, np.arange(n), 200)


def test_matrix_suite_matches_the_dense_product(monkeypatch):
    suite = run_matrix_suite().checks
    monkeypatch.setattr(verify, "matrix_vnorm_distances", matrix_vnorm_distances_dense)
    reference = run_matrix_suite().checks
    assert [c.name for c in suite] == [c.name for c in reference]
    for got, want in zip(suite, reference):
        assert (got.passed, got.detail) == (want.passed, want.detail)
        assert got.measured == pytest.approx(want.measured, rel=1e-12, abs=0.0)
        assert got.bound == pytest.approx(want.bound, rel=1e-12, abs=0.0)


def test_matrix_suite_chooses_each_walk_truncation_once(monkeypatch):
    calls, distance_calls = [], []
    choose = verify.choose_truncation
    distances = verify.matrix_vnorm_distances
    monkeypatch.setattr(
        verify, "choose_truncation", lambda *a: calls.append(a[0]) or choose(*a)
    )
    monkeypatch.setattr(
        verify, "matrix_vnorm_distances", lambda *a: distance_calls.append(a) or distances(*a)
    )
    run_matrix_suite()
    assert len(calls) == len(set(calls)) == 4
    # No probe rows: one table over x = 0..30 for each of the three walks
    # with certificates, and one row x = 0 for the exact-rate walk without
    # a table (the other reads x = 0 from its table).
    assert len(distance_calls) == 4
    tables = [a for a in distance_calls if np.ndim(a[1])]
    assert [a[1].tolist() for a in tables] == [list(range(31))] * 3
    assert [a[1] for a in distance_calls if not np.ndim(a[1])] == [0]


def test_matrix_suite_domination_equals_per_certificate_calls():
    suite = {c.name: c for c in run_matrix_suite().checks}
    walks = [
        ("p0.6667", ReflectingWalk(p=2.0 / 3.0), ("general", "reversible", "reversible-positive")),
        ("p0.9", ReflectingWalk(p=0.9), ("general", "reversible", "reversible-positive")),
        ("p0.8-eps0.25", ReflectingWalk(p=0.8, epsilon=0.25), ("general", "reversible")),
    ]
    for label, spec, symmetries in walks:
        tc = choose_truncation(spec, 30, 200)
        table = matrix_vnorm_distances(tc, np.arange(31), 200)
        params = reflecting_walk_params(spec)
        for symmetry in symmetries:
            name = f"domination-{label}-{symmetry}"
            report = certificate_domination(tc, table, certificate(params, symmetry), name=name)
            assert suite[name] == report
    spec = ReflectingWalk(p=0.9)
    cert = certificate(reflecting_walk_params(spec), "reversible")
    tc = choose_truncation(spec, 30, 200)
    control = certificate_domination(
        tc, matrix_vnorm_distances(tc, np.arange(31), 200),
        replace(cert, big_m=cert.big_m * 1e-3), name="control-shrunk-M",
    )
    assert suite["control-shrunk-M"] == replace(
        control,
        passed=not control.passed,
        detail="harness sanity: weakened certificate must fail; " + control.detail,
    )


def test_matrix_suite_calls_the_public_checks(monkeypatch):
    calls = {"certificate_domination": [], "walk_empirical_rate": []}
    for name, log in calls.items():
        original = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *a, log=log, original=original: log.append(a) or original(*a)
        )
    run_matrix_suite()
    # Eight certificates (3 + 3 + 2 symmetries) and the shrunk-M control;
    # two exact-rate walks.
    assert len(calls["certificate_domination"]) == 9
    assert len(calls["walk_empirical_rate"]) == 2


def test_matrix_suite_passes_and_its_shrunk_m_control_fails_domination():
    report = run_matrix_suite()
    assert report.passed
    control = next(c for c in report.checks if c.name == "control-shrunk-M")
    assert control.measured > control.bound


def test_choose_truncation_stability():
    tc = choose_truncation(ReflectingWalk(p=2.0 / 3.0), x_max=30, n_max=200)
    assert tc.tail_mass < 1e-12
    assert tc.n_states >= 64


# The four walks of the matrix suite, and two standard walks near p = 1/2
# whose stationary tails, not their reach, set the size.
REACH_WALKS = [
    ReflectingWalk(p=2.0 / 3.0),
    ReflectingWalk(p=0.9),
    ReflectingWalk(p=0.8, epsilon=0.25),
    ReflectingWalk(p=0.9, epsilon=0.25),
    ReflectingWalk(p=0.52),
    ReflectingWalk(p=0.55),
]


def _largest_finite_v_size(spec):
    # States 0..i with V(i) = (p/q)^(i/2) below the largest double.
    return int(2.0 * math.log(sys.float_info.max) / math.log(spec.p / (1.0 - spec.p))) + 1


@pytest.mark.parametrize("x_max, n_max", [(30, 200), (0, 1), (5, 60), (100, 300)])
@pytest.mark.parametrize("spec", REACH_WALKS, ids=str)
def test_choose_truncation_is_sized_by_reach_and_tails(spec, x_max, n_max):
    tc = choose_truncation(spec, x_max, n_max)
    size = tc.n_states
    assert size & (size - 1) == 0
    assert size >= max(64, x_max + n_max + 2)
    assert tc.tail_mass < 1e-12
    # A larger truncation gives the same table: twice the size, or where V
    # overflows a double below that (p = 0.9 past 647 states), the largest
    # truncation with a finite V.
    bigger = walk_truncated_chain(spec, min(2 * size, _largest_finite_v_size(spec)))
    assert bigger.n_states > size
    xs = np.arange(x_max + 1)
    np.testing.assert_allclose(
        matrix_vnorm_distances(tc, xs, n_max),
        matrix_vnorm_distances(bigger, xs, n_max),
        rtol=1e-12,
        atol=0.0,
    )
    # Smallest: half the size is below the reach, or one of its stationary
    # tails, by mass or V-weighted, is 1e-12 or more.
    half = size // 2
    if half >= max(64, x_max + n_max + 2):
        weighted = bigger.v * bigger.pi
        assert bigger.pi[half:].sum() >= 1e-12 or weighted[half:].sum() >= 1e-12


def test_choose_truncation_gives_up_past_its_cap(monkeypatch):
    sizes = []
    build = verify.walk_truncated_chain
    monkeypatch.setattr(
        verify, "walk_truncated_chain", lambda spec, n: sizes.append(n) or build(spec, n)
    )
    # The stationary tail of p = 0.5005 is above 1e-12 up to 8192 states.
    with pytest.raises(TruncationTooSmall):
        choose_truncation(ReflectingWalk(p=0.5005), 30, 200)
    assert sizes == [256, 512, 1024, 2048, 4096, 8192]
    # A reach past 8192 states builds nothing.
    sizes.clear()
    with pytest.raises(TruncationTooSmall):
        choose_truncation(ReflectingWalk(p=0.9), 8191, 1)
    assert sizes == []


def test_choose_truncation_names_a_reach_past_its_cap():
    # x_max + n_max + 2 = 10002 states is past the cap before any size is
    # tried, so the error names the reach, not the tails.
    with pytest.raises(TruncationTooSmall, match="reach x_max [+] n_max [+] 2 = 10002 > 8192"):
        choose_truncation(ReflectingWalk(p=0.9), 10000, 0)


@pytest.mark.parametrize("x_max, n_max", [(-1, 200), (30, -1)])
def test_choose_truncation_rejects_a_negative_reach(x_max, n_max):
    with pytest.raises(InvalidParams, match=f"got {x_max}, {n_max}$"):
        choose_truncation(ReflectingWalk(p=0.9), x_max, n_max)


@pytest.mark.parametrize("x_max, n_max", [(30.0, 200), (30, 200.0), (True, 200)])
def test_choose_truncation_rejects_a_reach_that_is_no_integer(x_max, n_max):
    # A float x_max raised AttributeError from int.bit_length.
    with pytest.raises(InvalidParams, match=f"integers x_max, n_max >= 0, got {x_max}, {n_max}$"):
        choose_truncation(ReflectingWalk(p=0.9), x_max, n_max)


def test_choose_truncation_takes_numpy_integers():
    spec = ReflectingWalk(p=0.9)
    got = choose_truncation(spec, np.int64(30), np.uint8(200))
    assert got.matrix.tobytes() == choose_truncation(spec, 30, 200).matrix.tobytes()


# --- Monte Carlo oracle ------------------------------------------------------


def test_mc_unit_radius_gives_unit_mean():
    rep = mc_regeneration(ReflectingWalk(p=0.9), x0=0, r=1.0, samples=2000, seed=5)
    assert rep.measured == 1.0


def test_mc_rejects_a_start_below_zero():
    # Below 0 the walk drifts away from C = {0}: rejected before any step,
    # where it ran to the step cap.
    with pytest.raises(InvalidParams, match="x0"):
        mc_regeneration(ReflectingWalk(p=0.9), x0=-1, r=1.0, samples=50)


@pytest.mark.parametrize("x0", [2.5, 3.0, True, math.nan])
def test_mc_rejects_a_start_that_is_no_integer(x0):
    # x0 = 2.5 walked from state 2 but was checked against V(2.5); True
    # named its check "regeneration-p0.9-xTrue".
    with pytest.raises(InvalidParams, match="x0"):
        mc_regeneration(ReflectingWalk(p=0.9), x0=x0, r=1.0, samples=50)


@pytest.mark.parametrize("samples", [2000.0, 50.5, True])
def test_mc_rejects_a_sample_count_that_is_no_integer(samples):
    # 2000.0 raised numpy's bare TypeError from np.full.
    with pytest.raises(InvalidParams, match="samples"):
        mc_regeneration(ReflectingWalk(p=0.9), x0=3, r=1.0, samples=samples)


def test_mc_takes_numpy_integers():
    spec = ReflectingWalk(p=0.9)
    got = mc_regeneration(spec, x0=np.int64(3), r=1.2, samples=np.int64(500), seed=4)
    assert got == mc_regeneration(spec, x0=3, r=1.2, samples=500, seed=4)


def test_mc_deterministic_for_fixed_seed():
    a = mc_regeneration(ReflectingWalk(p=0.9), x0=3, r=1.2, samples=5000, seed=9)
    b = mc_regeneration(ReflectingWalk(p=0.9), x0=3, r=1.2, samples=5000, seed=9)
    c = mc_regeneration(ReflectingWalk(p=0.9), x0=3, r=1.2, samples=5000, seed=10)
    assert a.measured == b.measured
    assert a.measured != c.measured


def test_mc_bound_selection():
    lam_inv = 1.0 / 0.6
    inside = mc_regeneration(ReflectingWalk(p=0.9), x0=0, r=lam_inv, samples=20_000, seed=1)
    assert inside.passed
    outside = mc_regeneration(ReflectingWalk(p=0.9), x0=3, r=lam_inv, samples=20_000, seed=1)
    assert outside.passed
    assert outside.bound > 26.9  # V(3) = 27 plus the standard-error allowance


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("x0", [0, 3])
@pytest.mark.parametrize(
    "spec",
    [ReflectingWalk(p=2.0 / 3.0), ReflectingWalk(p=0.9), ReflectingWalk(p=0.8, epsilon=0.25)],
)
def test_mc_live_walkers_match_the_alive_mask_loop(spec, x0, seed):
    r = reflecting_walk_params(spec).lam_inv
    got = mc_regeneration(spec, x0=x0, r=r, samples=20_000, seed=seed)
    assert got == mc_regeneration_alive_mask(spec, x0=x0, r=r, samples=20_000, seed=seed)


def test_mc_suite_serialisable():
    suite = run_mc_suite(seed=1, samples=20_000)
    assert suite.passed
    data = json.loads(json.dumps(suite.to_dict()))
    assert data["suite"] == "mc"
    assert all(set(c) >= {"name", "measured", "bound", "margin", "pass"} for c in data["checks"])


def test_choose_truncation_builds_each_size_once(monkeypatch):
    sizes = []
    build = verify.walk_truncated_chain
    monkeypatch.setattr(
        verify, "walk_truncated_chain", lambda spec, n: sizes.append(n) or build(spec, n)
    )
    tc = choose_truncation(ReflectingWalk(p=2.0 / 3.0), x_max=30, n_max=200)
    assert sizes == [256]
    assert tc.n_states == 256
