"""Second forms of package computations, the references of the identity
and equivalence tests.

The paper prints each constant in two algebraically equal forms. The
package computes M in the decay factor gamma and K1 in nested form; the
first functions here are the other forms, transcribed independently: M in
the series variable r = 1/gamma, and K1 as a single fraction.

The R1 solves reuse their clamp test's value at the lower bracket end
and their check's value at the near upper end; the forms below that
evaluate each end twice, once for the test and once in the root finder,
are the ones they replaced. Both take their ends from
``kendall._r1_bracket``. The nonatomic general radius search finds the
peak as the root of a closed-form stationarity function and solves R1
there alone; ``general_nonatomic_search_full_scan`` is the 16-radius scan
through ``KendallParams`` with the Brent search on R1 itself
(``_brent_climb``) that it replaced. The thm1.1 floors prune on the whole
radius window; ``general_rho_floor`` also takes it in equal pieces, as
the contracting search once refined them. The R2 solves, atomic and
nonatomic, run up to a closed-form upper end of the crossing;
``r2_reversible_wide`` and ``reversible_nonatomic_radius_wide`` solve on
the wide bracket they replaced.

The renewal oracle convolves all laws of a suite as one block. The
per-law and per-case forms below (convolution loop, series sup, single
check, suite loop) are the ones it replaced, kept as its references. The
suite's sampler takes the radii of a block of laws from stacked companion
eigenvalues; ``increment_radius_roots`` is the np.roots form per law, and
``_sample_admissible`` draws one candidate at a time.

The matrix oracle steps along the nonzero diagonals of P and the Monte
Carlo oracle steps only the walkers still out. The dense product and the
full-size alive-mask loop below are the forms they replaced.

The M formulas inline the regeneration-time bounds of Propositions 4.1
(atomic) and 4.4 (split chain) without naming them. ``prop41_bounds`` and
``prop44_bounds`` print them on their own, with their ranges, so that the
series-factor term of M can be checked against the propositions it comes
from. ``rho_tilde_reversible_atomic`` is the convexity shortcut for the
atomic reversible rate: a closed form with no root to find, kept to check
that the solved rate never exceeds it.
"""

import math
from typing import Callable

import numpy as np

from ergocert import kendall as kendall_mod
from ergocert.bounds import (
    DriftMinorization,
    _big_l_at,
    _exponents,
    _FLOOR_MARGIN,
    _r2_bracket,
    _rate,
    _scan_window,
)
from ergocert.errors import HypothesisViolated, InvalidParams, OutOfRange
from ergocert.kendall import (
    KendallParams,
    _r1_bracket,
    _r1_log_target,
    _radius_bracket,
)
from ergocert.models import ReflectingWalk, TruncatedChain, reflecting_walk_params
from ergocert.numerics import _TOL_ABS, solve_increasing_array, solve_monotone
from ergocert.verify import (
    CheckReport,
    IncrementDistribution,
    RenewalSequence,
    SuiteReport,
    increment_radius,
    kendall_family_radius,
)


def _m_atomic_r(lam: float, big_k: float, r: float, k_factor: float) -> float:
    q = 1.0 - r * lam
    t1 = r * max(lam, big_k - r * lam) / q
    t2 = r * r * big_k * (big_k - r * lam) / q * k_factor
    t3 = r * (big_k - r * lam) * max(lam, big_k - lam) / (q * (1.0 - lam))
    t4 = lam * r * (big_k - 1.0) / (q * (1.0 - lam))
    return t1 + t2 + t3 + t4


def _m_nonatomic_r(
    lam: float,
    big_k: float,
    bt: float,
    a1: float,
    a2: float,
    r: float,
    k_factor: float,
) -> float:
    q = 1.0 - r * lam
    d = 1.0 - (1.0 - bt) * r**a1
    t1 = r * max(lam, big_k - r * lam) / q
    t2 = r * r * big_k * (big_k - r * lam - bt * q) / (q * d)
    t3 = bt * r ** (a2 + 2.0) * big_k * (big_k - r * lam) / (q * d * d) * k_factor
    t4 = (
        r ** (a2 + 1.0)
        * (big_k - r * lam)
        / (q * d * d)
        * (bt * max(lam, big_k - lam) / (1.0 - lam) + (1.0 - bt) * (r**a1 - 1.0) / (r - 1.0))
    )
    t5 = r ** (a2 + 1.0) * lam * (big_k - 1.0) / ((1.0 - lam) * q * d)
    t6 = (
        r
        * (big_k - lam - bt * (1.0 - lam))
        / ((1.0 - lam) * d)
        * ((r**a2 - 1.0) / (r - 1.0) + (1.0 - bt) * (r**a1 - 1.0) / (bt * (r - 1.0)))
    )
    return t1 + t2 + t3 + t4 + t5 + t6


def prop41_bounds(r: float, p: DriftMinorization, v_x: float, x_in_c: bool) -> dict:
    """Closed-form bounds on E^x[r^tau] and the weighted sums along the way.

    g_bound       E^x[r^tau]          (valid for 1 <= r <= 1/lambda),
    h_bound       E^x[sum r^n V(X_n), n <= tau],
    h_diff_bound  (H(r,x) - r H(1,x)) / (r - 1).

    Inside C the bounds use K only; outside they scale with V(x) = v_x. The
    h_diff bound outside C follows from the same telescoping argument as the
    on-C case with the return-position terms dropped.
    """
    if not (1.0 < r < p.lam_inv):
        raise OutOfRange(f"need 1 < r < 1/lambda = {p.lam_inv}, got r={r}")
    if v_x < 1.0:
        raise InvalidParams(f"V(x) >= 1 required, got {v_x}")
    q = 1.0 - r * p.lam
    if x_in_c:
        g = r * p.big_k
        h = r * (p.big_k - r * p.lam) / q
        h_diff = p.lam * r * (p.big_k - 1.0) / ((1.0 - p.lam) * q)
    else:
        g = v_x
        h = r * p.lam * v_x / q
        h_diff = p.lam * v_x / ((1.0 - p.lam) * q)
    return {"g_bound": g, "h_bound": h, "h_diff_bound": h_diff}


def prop44_bounds(r: float, p: DriftMinorization) -> dict:
    """Split-chain analogues of the regeneration bounds, for 1 < r < R0.

    g_tilde    r**alpha_1,
    gbar_a1    the envelope L(r) (bounds the regeneration generating
               function started from a fresh renewal),
    hbar_a1    r**(alpha_2+1) (K - r lambda) / ((1 - r lambda) D(r)),
    hbar_diff  the matching difference-quotient bound,

    where D(r) = 1 - (1 - beta_tilde) r**alpha_1.
    """
    if p.atomic:
        raise InvalidParams("split-chain bounds apply to nonatomic chains only")
    a1, a2, r0 = _exponents(p)
    if not (1.0 < r < r0):
        raise OutOfRange(f"need 1 < r < R0 = {r0}, got r={r}")
    bt = p.beta_tilde
    q = 1.0 - r * p.lam
    d = 1.0 - (1.0 - bt) * r**a1
    gbar = _big_l_at(r, bt, a1, a2)
    hbar = r ** (a2 + 1.0) * (p.big_k - r * p.lam) / (q * d)
    hbar_diff = r ** (a2 + 1.0) * p.lam * (p.big_k - 1.0) / ((1.0 - p.lam) * q * d) + (
        r
        * (p.big_k - p.lam - bt * (1.0 - p.lam))
        / ((1.0 - p.lam) * d)
        * ((r**a2 - 1.0) / (r - 1.0) + (1.0 - bt) * (r**a1 - 1.0) / (bt * (r - 1.0)))
    )
    return {
        "g_tilde": r**a1,
        "gbar_a1": gbar,
        "hbar_a1": hbar,
        "hbar_diff": hbar_diff,
    }


def rho_tilde_reversible_atomic(lam: float, big_k: float, beta: float) -> float:
    """Convexity shortcut for the atomic reversible rate.

    Larger than (or equal to) the exact 1/R2 but computable without any
    root-finding: 1 - 2*beta*(1-lambda)/(K-lambda) when K > lambda + 2*beta,
    else lambda.
    """
    if not (0.0 < lam < 1.0):
        raise InvalidParams(f"lambda must lie in (0, 1), got {lam}")
    if big_k <= lam:
        raise InvalidParams(f"K must exceed lambda, got K={big_k}, lambda={lam}")
    if big_k < 1.0:
        raise InvalidParams(f"K must be >= 1, got {big_k}")
    if not (0.0 < beta <= 1.0):
        raise InvalidParams(f"beta must lie in (0, 1], got {beta}")
    if big_k > lam + 2.0 * beta:
        return 1.0 - 2.0 * beta * (1.0 - lam) / (big_k - lam)
    return lam


def k1_single_fraction(r: float, beta: float, big_r: float, big_l: float) -> float:
    """The single-fraction arrangement of ``kendall.k1``:
    (2 beta + 2 log N / l - a) / ((r - 1)(beta - a)), with l = log(R/r),
    N = (L-1)/(R-1) and a = 8 N e^-2 (r - 1) / (r l^2)."""
    l = math.log1p((big_r - r) / r)
    big_n = (big_l - 1.0) / (big_r - 1.0)
    a = 8.0 * big_n * math.exp(-2.0) * (r - 1.0) / (r * l * l)
    return (2.0 * beta + 2.0 * math.log(big_n) / l - a) / ((r - 1.0) * (beta - a))


def r1_log_eps(p: KendallParams) -> float:
    """log(R1 - 1) of ``kendall.solve_r1`` at the fields of p, the value
    it returns 1 + e^t of."""
    return kendall_mod._r1_log(p.beta, p.big_r, p.big_l)


def r1_log_eps_clamp_then_solve(
    p: KendallParams, gap_calls: list | None = None, wide: bool = False
) -> float:
    """``r1_log_eps`` with each bracket end evaluated twice: for
    the clamp test and again for the root finder's value at the lower end,
    for the check of the near upper end and again in the root finder, which
    is handed that end as its near and its wide end. wide=True solves on
    the wide bracket [lo, hi], as before the near end. gap_calls, if given,
    records every t."""
    delta = p.big_r - 1.0
    log_target = _r1_log_target(p.beta, p.big_r, p.big_l)

    def gap(t: float) -> float:
        if gap_calls is not None:
            gap_calls.append(t)
        eps = math.exp(t)
        return t - math.log1p(eps) - 2.0 * math.log(math.log1p((delta - eps) / (1.0 + eps)))

    lo, hi, up = _r1_bracket(delta, log_target)
    if lo < hi and gap(lo) >= log_target:
        return lo
    if lo < hi and not wide and gap(up) >= log_target:
        hi = up
    return solve_monotone(lambda t: gap(t) - log_target, lo, hi, hi, gap(lo) - log_target)


def r1_gap_array(t, delta, log_target):
    """The R1 equation of ``kendall.solve_r1_array`` in t = log(r - 1),
    less its target, elementwise."""
    eps = np.exp(t)
    return t - np.log1p(eps) - 2.0 * np.log(np.log1p((delta - eps) / (1.0 + eps))) - log_target


def r1_array_log_eps_clamp_then_solve(beta, big_r, big_l, wide: bool = False) -> np.ndarray:
    """The t = log(R1 - 1) of ``kendall.solve_r1_array`` with each bracket
    end evaluated twice, as in ``r1_log_eps_clamp_then_solve``: for the
    clamp test and again for the root finder's values at the lower end, for
    the check of the near upper end and again in the root finder. wide=True
    solves on the wide bracket [lo, hi], as before the near end. NaN where
    an element has no sign change on its bracket."""
    with np.errstate(all="ignore"):
        big_r = np.asarray(big_r, dtype=float)
        delta, log_target = np.broadcast_arrays(big_r - 1.0, _r1_log_target(beta, big_r, big_l))
        lo, hi, up = _r1_bracket(delta, log_target)
        rest = ~((lo < hi) & (r1_gap_array(lo, delta, log_target) >= 0.0))
        delta, log_target, hi_rest, up = delta[rest], log_target[rest], hi[rest], up[rest]
        if not wide:
            hi_rest = np.where(r1_gap_array(up, delta, log_target) >= 0.0, up, hi_rest)
        t = np.full(hi.shape, lo)
        gap_lo = r1_gap_array(lo, delta, log_target)
        t[rest] = solve_increasing_array(
            r1_gap_array, lo, hi_rest, hi_rest, gap_lo, delta, log_target
        )
        return t


def r2_gap(p: KendallParams, r: float) -> float:
    """The gap r**e - 1 - 2 beta r, e = log L / log R, of
    ``kendall.solve_r2_reversible``, as it computes it."""
    exponent = math.log(p.big_l) / math.log(p.big_r)
    return math.exp(exponent * math.log1p(r - 1.0)) - 1.0 - 2.0 * p.beta * r


def reversible_nonatomic_gap(p: DriftMinorization, de: tuple, r: float) -> float:
    """The gap log L(r) - log(1 + 2 beta r) of the nonatomic
    ``bounds.rho_reversible``, as it computes it, at de = (alpha_1,
    alpha_2, R0)."""
    big_l = _big_l_at(r, p.beta_tilde, *de[:2])
    return math.log(big_l) - math.log1p(2.0 * p.beta * r)


def r2_reversible_wide(p: KendallParams) -> float:
    """``kendall.solve_r2_reversible`` on the wide bracket
    ``kendall._radius_bracket``, as before the closed-form upper end: R
    where L <= 1 + 2 beta R, hi where the gap is still negative there, else
    the root on [lo, hi]."""
    if p.big_l <= 1.0 + 2.0 * p.beta * p.big_r:
        return p.big_r
    lo, hi = _radius_bracket(p.big_r)
    if hi <= lo:
        raise OutOfRange(f"rate gap R - 1 = {p.big_r - 1.0:.3g} is below double resolution")
    if r2_gap(p, hi) < 0.0:
        return hi
    return solve_monotone(lambda r: r2_gap(p, r), lo, hi, hi, r2_gap(p, lo))


def reversible_nonatomic_radius_wide(p: DriftMinorization, de: tuple) -> float:
    """The nonatomic R2 of ``bounds.rho_reversible`` on the wide bracket
    [lo, hi] of ``bounds._r2_bracket``, as before the closed-form upper end,
    at de = (alpha_1, alpha_2, R0): R0 where R0 lies below the pole and
    L(R0) <= 1 + 2 beta R0, else the root of log L(r) - log(1 + 2 beta r)
    on [lo, hi]."""
    bt, (a1, a2, r0) = p.beta_tilde, de
    pole_limited, lo, hi, _ = _r2_bracket(p.beta, bt, a1, a2, r0)
    if not pole_limited and _big_l_at(r0, bt, a1, a2) <= 1.0 + 2.0 * p.beta * r0:
        return r0

    def gap(r: float) -> float:
        return reversible_nonatomic_gap(p, de, r)

    return solve_monotone(gap, lo, hi, hi, gap(lo) if lo < hi else math.nan)


# Brent's golden-section ratio and relative step floor.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(2.0**-52)


def _brent_climb(f: Callable[[float], float], a: float, b: float, x: float, fx: float) -> tuple:
    # Brent's bounded minimizer of -f on [a, b] (Brent 1973, ch. 5:
    # parabolic steps with a golden-section fallback) from x, with
    # fx = f(x). It moves only to a larger value, or to an equal one on its
    # right, so the returned value is >= fx, and stops once the best point
    # lies within sqrt(eps) |x| + _TOL_ABS / 3 of the shrinking bracket's
    # centre, by Brent's rule. Returns (argmax, value).
    v, fv, w, fw = x, fx, x, fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _TOL_ABS / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            # The vertex x + p/q of the parabola through v, w and x.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu > fx or (fu == fx and u > x):
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def general_nonatomic_search_full_scan(p: DriftMinorization, de: tuple) -> tuple:
    """The 16-radius scan that ``bounds._general_nonatomic_search``
    replaced: (R_tilde, R1) from R1 at all 16 radii, each through
    ``KendallParams`` and ``r1_log_eps`` in increasing order, so
    the first radius that raises raises; the rightmost best radius, then
    Brent's search on R1 itself from it (``_brent_climb``), where the
    package climbs by the root of a stationarity function instead. de is
    (alpha_1, alpha_2, R0)."""
    a1, a2, r0 = de
    lo, hi = _scan_window(r0)
    if hi <= lo:
        raise InvalidParams("R0 is too close to 1 for a usable radius search")
    u_lo, u_hi = math.log(lo - 1.0), math.log(hi - 1.0)

    def radius(u: float) -> float:
        return hi if u == u_hi else lo if u == u_lo else 1.0 + math.exp(u)

    def objective(u: float) -> float:
        big_r = radius(u)
        big_l = _big_l_at(big_r, p.beta_tilde, a1, a2)
        return r1_log_eps(KendallParams(beta=p.beta, big_r=big_r, big_l=big_l))

    us = [u_lo + (u_hi - u_lo) * (i / 15) for i in range(15)] + [u_hi]
    vals = [objective(u) for u in us]
    i = max(range(16), key=lambda j: (vals[j], j))
    u, t = _brent_climb(objective, us[max(i - 1, 0)], us[min(i + 1, 15)], us[i], vals[i])
    return radius(u), 1.0 + math.exp(t)


def general_rho_floor(p: DriftMinorization, pieces: int) -> float:
    """``bounds._rho_floor`` at one nonatomic chain's constants, on the
    radius window cut into `pieces` equal pieces: at most
    ``rho_general(p).rho``, and inf where R0 leaves no window.

    On each piece [a, b] the secant N(R) = (L(R) - 1)/(R - 1), which does
    not decrease, is at least N(a), and L'(1) on the first; the closed-form
    R1 end at (b - 1, e^2 beta / (8 N)) bounds log(R1 - 1) on the piece.
    One piece is ``bounds._rho_floor`` itself; more pieces give a floor at
    least as high."""
    a1, a2, r0 = _exponents(p)
    lo, hi = _scan_window(r0)
    if hi <= lo:
        return math.inf
    tops = [lo + (hi - lo) * (j / pieces) for j in range(1, pieces)] + [hi]
    slopes = [a2 + a1 * (1.0 - p.beta_tilde) / p.beta_tilde]
    slopes += [
        (_big_l_at(a, p.beta_tilde, a1, a2) - 1.0) / (a - 1.0) for a in tops[:-1]
    ]
    t = max(
        _r1_bracket(b - 1.0, math.log(kendall_mod._E2 * p.beta / (8.0 * n)))[2]
        for n, b in zip(slopes, tops)
    )
    return _rate(p.lam, 1.0 + math.exp(t + _FLOOR_MARGIN))


def increment_radius_roots(probs) -> float:
    """``verify.increment_radius`` of one law (probs[k] = b_{k+1}) by np.roots."""
    roots = np.roots(np.concatenate([np.asarray(probs, dtype=float)[::-1], [-1.0]]))
    others = roots[np.abs(roots - 1.0) > 1e-7]
    return math.inf if others.size == 0 else float(np.abs(others).min())


def renewal_per_law(b: IncrementDistribution, n_max: int) -> RenewalSequence:
    """The renewal convolution one law at a time, one np.dot per step."""
    probs = b.array
    m = probs.size
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    for n in range(1, n_max + 1):
        k = min(n, m)
        u[n] = np.dot(probs[:k], u[n - 1 :: -1][:k])
    return RenewalSequence(u=u, u_inf=1.0 / b.mean)


def _series_sup_on_circle(deviations: np.ndarray, r: float, n_angles: int = 64) -> float:
    n = np.arange(deviations.size)
    radial = deviations * np.power(r, n)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    phases = np.exp(1j * np.outer(n, angles))
    values = radial @ phases
    on_axis = [abs(radial.sum()), abs(np.dot(radial, np.power(-1.0, n)))]
    return float(max(np.abs(values).max(), *on_axis))


def kendall_check_per_case(
    b: IncrementDistribution,
    beta: float,
    big_r: float,
    big_l: float,
    r: float,
    n_max: int = 1200,
) -> dict:
    """kendall_check as one case on its own: R1 and the increment radius
    computed here, the series cut at its own cutoff."""
    probs = b.array
    if probs[0] < beta:
        raise HypothesisViolated(f"b_1 = {probs[0]} < beta = {beta}")
    powers = np.power(big_r, np.arange(1, probs.size + 1))
    if np.dot(probs, powers) > big_l * (1.0 + 1e-12):
        raise HypothesisViolated(f"sum b_k R^k = {np.dot(probs, powers)} exceeds L = {big_l}")
    r1 = kendall_mod.solve_r1(beta, big_r, big_l)
    if not (1.0 < r < r1):
        raise OutOfRange(f"need 1 < r < R1 = {r1}, got r={r}")

    rate = 1.0 / increment_radius(b)
    seq = renewal_per_law(b, n_max)
    deviations = seq.u - seq.u_inf
    floor = 64.0 * np.finfo(float).eps
    significant = np.flatnonzero(np.abs(deviations) > floor)
    cutoff = int(significant[-1]) if significant.size else 0
    kept = deviations[: cutoff + 1]
    truncated = _series_sup_on_circle(kept, r)
    window = np.abs(kept[-max(probs.size * 2, 16) :])
    n_window = np.arange(kept.size - window.size, kept.size)
    tail = 0.0
    if rate > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            c_env = float(np.max(window / np.power(rate, n_window)))
        if math.isfinite(c_env) and rate * r < 1.0:
            tail = c_env * (rate * r) ** (cutoff + 1) / (1.0 - rate * r)
    measured_sup = truncated + tail
    bound = kendall_mod.k1(r, beta, big_r, big_l)
    rate_bound = 1.0 / r1 + 1e-6
    passed = (measured_sup <= bound) and (rate <= rate_bound)
    return {
        "measured_sup": measured_sup,
        "bound": bound,
        "decay_rate": rate,
        "decay_bound": rate_bound,
        "pass": passed,
    }


def _sample_admissible(rng: np.random.Generator) -> tuple:
    while True:
        m = int(rng.integers(2, 9))
        raw = rng.dirichlet(np.ones(m))
        b1 = 0.15 + 0.7 * rng.random()
        probs = np.empty(m)
        probs[0] = b1
        rest = raw[1:].sum()
        probs[1:] = raw[1:] * ((1.0 - b1) / rest) if rest > 0 else (1.0 - b1) / (m - 1)
        u_beta, u_big_r, u_big_l = rng.random(3).tolist()
        dist = IncrementDistribution(probs=tuple(probs))
        if 1.0 / increment_radius(dist) > 0.96:
            continue
        beta = probs[0] * (0.6 + 0.4 * u_beta)
        big_r = 1.0 + 0.05 + 0.4 * u_big_r
        exact = float(np.dot(probs, np.power(big_r, np.arange(1, m + 1))))
        big_l = exact * (1.0 + 0.3 * u_big_l)
        r1 = kendall_mod.solve_r1(beta, big_r, big_l)
        r = 1.0 + 0.9 * (r1 - 1.0)
        return dist, beta, big_r, big_l, r


def kendall_suite_per_case(seed: int = 0, cases: int = 200) -> SuiteReport:
    """run_kendall_suite drawing and checking one case at a time."""
    rng = np.random.Generator(np.random.Philox(seed))
    suite = SuiteReport(name="kendall")
    for i in range(cases):
        dist, beta, big_r, big_l, r = _sample_admissible(rng)
        rep = kendall_check_per_case(dist, beta, big_r, big_l, r)
        suite.checks.append(
            CheckReport(
                name=f"random-increments-{i:03d}",
                measured=rep["measured_sup"],
                bound=rep["bound"],
                passed=rep["pass"],
                detail=f"decay {rep['decay_rate']:.6f} vs {rep['decay_bound']:.6f}",
            )
        )
    family_beta = 0.25
    for k in (40, 80):
        measured = kendall_family_radius(family_beta, k) - 1.0
        predicted = 2.0 * math.pi**2 * family_beta / (1.0 - family_beta) ** 2 / k**3
        rel_err = abs(measured / predicted - 1.0)
        suite.checks.append(
            CheckReport(
                name=f"radius-asymptotics-k{k}",
                measured=rel_err,
                bound=0.10,
                passed=rel_err <= 0.10,
                detail=f"radius-1 = {measured:.3e}, cubic-law prediction {predicted:.3e}",
            )
        )
    return suite


def matrix_vnorm_distances_dense(tc: TruncatedChain, x, n_max: int) -> np.ndarray:
    """``verify.matrix_vnorm_distances`` by the dense product e @ P."""
    states = np.asarray(x)
    e = np.eye(tc.n_states)[states] - tc.pi
    out = np.empty(states.shape + (n_max + 1,))
    out[..., 0] = np.abs(e) @ tc.v
    for n in range(1, n_max + 1):
        e = e @ tc.matrix
        e -= e.sum(axis=-1, keepdims=True) * tc.pi
        out[..., n] = np.abs(e) @ tc.v
    return out


def mc_regeneration_alive_mask(
    spec: ReflectingWalk, x0: int, r: float, samples: int = 100_000, seed: int = 0
) -> CheckReport:
    """``verify.mc_regeneration`` stepping full-size position and alive
    arrays, the live walkers gathered and scattered by flatnonzero."""
    params = reflecting_walk_params(spec)
    p = spec.p
    eps = spec.boundary_hold
    rng = np.random.Generator(np.random.Philox(seed))
    pos = np.full(samples, x0, dtype=np.int64)
    tau = np.zeros(samples, dtype=np.int64)
    alive = np.ones(samples, dtype=bool)
    step = 0
    while alive.any():
        step += 1
        idx = np.flatnonzero(alive)
        u = rng.random(idx.size)
        cur = pos[idx]
        nxt = np.where(cur == 0, np.where(u < eps, 0, 1), np.where(u < p, cur - 1, cur + 1))
        pos[idx] = nxt
        returned = nxt == 0
        tau[idx[returned]] = step
        alive[idx[returned]] = False
    values = np.power(r, tau.astype(float))
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    if x0 == 0:
        bound = r * params.big_k
        where = "x0 in C"
    else:
        bound = (p / (1.0 - p)) ** (x0 / 2.0)
        where = "x0 outside C"
    return CheckReport(
        name=f"regeneration-p{p}-x{x0}",
        measured=mean,
        bound=bound + 3.0 * std_err,
        passed=mean <= bound + 3.0 * std_err,
        detail=f"{where}; mean r^tau = {mean:.6f}, drift bound {bound:.6f}, SE {std_err:.2e}",
    )
