"""Quantitative renewal-sequence rates.

Given an increment sequence b_n with b_1 >= beta and sum b_n R^n <= L, the
series sum (u_n - u_inf) z^n built from the associated renewal sequence u_n
converges on a disc whose radius these routines certify:

  * ``solve_r1``            general chains, radius R1 from a transcendental
                            equation in (1, R);
  * ``solve_r1_array``      the same radius for whole arrays of (beta, R, L)
                            at once, by the same root finder on the same
                            bracket;
  * ``solve_r2_reversible`` reversible chains, radius R2 from the crossing
                            of 1 + 2*beta*r with r**(log L / log R), solved
                            up to the closed-form end where the tangent of
                            that curve at 1 meets the line.

For reversible chains with nonnegative spectrum the full radius R is
certified, with no equation to solve. ``k1`` and ``k2_series_bound`` give
the matching uniform bounds on the series inside those radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidParams, NoSignChange, OutOfRange
from .numerics import elementary, solve_increasing_array, solve_monotone

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KendallParams",
    "solve_r1",
    "solve_r1_array",
    "k1",
    "solve_r2_reversible",
    "k2_series_bound",
]

_E2 = math.exp(2.0)
_EM2 = math.exp(-2.0)


@dataclass(frozen=True)
class KendallParams:
    """Constants (beta, R, L) bounding an increment distribution.

    beta  lower bound on b_1,
    big_r exponent radius with sum b_n R^n <= L,
    big_l the generating-function bound itself.
    """

    beta: float
    big_r: float
    big_l: float

    def __post_init__(self) -> None:
        _check_params(self.beta, self.big_r, self.big_l)


def _check_params(beta: float, big_r: float, big_l: float) -> None:
    # The validation of KendallParams, which ``solve_r1``,
    # ``solve_r2_reversible`` and ``k1`` make first on the floats they take.
    # Each test is written so that NaN fails it.
    if not (1.0 < big_r < math.inf):
        raise InvalidParams(f"R must be finite and exceed 1, got {big_r}")
    if not (0.0 < beta <= 1.0):
        raise InvalidParams(f"beta must lie in (0, 1], got {beta}")
    if not (big_r <= big_l < math.inf):
        # L >= R is N = (L-1)/(R-1) >= 1; it also forces L > 1.
        raise InvalidParams(f"L must be finite and >= R, got L={big_l}, R={big_r}")
    if beta * big_r > big_l:
        raise InvalidParams("beta * R > L is contradictory: sum b_n R^n >= beta*R would exceed L")


def _radius_bracket(big_r):
    # The bracket (lo, hi) of every R2 solve in (1, R), on floats or arrays:
    # lo = 1 + 1e-14 and hi = R - max(1e-14, (R-1)*1e-13), both strictly
    # inside the open interval. The nonatomic R2 solves of ``bounds`` take
    # lo from here too.
    return 1.0 + 1e-14, big_r - elementary(big_r).maximum(1e-14, (big_r - 1.0) * 1e-13)


def _r2_tangent_end(slope, beta, hi):
    # The tangent end of an R2 crossing below hi, on floats or arrays. A
    # convex curve through (1, 1) with slope `slope` there lies on or above
    # its tangent 1 + slope (r - 1), which meets the line 1 + 2 beta r at
    # slope / (slope - 2 beta) where slope > 2 beta; the curve meets the line
    # there or before. slope / max(slope - 2 beta, slope / hi) divides by no
    # zero and is hi, to rounding, where the tangent meets the line at or
    # past hi or not at all; the minimum caps that rounding at hi.
    fn = elementary(slope)
    return fn.minimum(hi, slope / fn.maximum(slope - 2.0 * beta, slope / hi))


_LOG_EPS_LO = math.log(1e-14)


def _r1_bracket(delta, log_target):
    # The bracket (lo, hi) of every R1 solve in t = log(r - 1), from
    # delta = R - 1, on floats or arrays: [log 1e-14, log((R-1)(1 - 1e-13))].
    # A root below lo is clamped to it, R1 = 1 + 1e-14. A solve that is not
    # clamped, scalar or array, tries up, the third value returned first:
    # a closed-form upper end for the root, in [lo, hi]. The left side
    # h(t) = t - log1p(e^t) - 2 log l(t), l(t) = log(R/r), has
    # l(t) <= log R = log1p(delta), so h(t) >= t - log1p(e^t) - 2 log log R.
    # That bound increases from -inf to -2 log log R, so where
    # s = log_target + 2 log log R < 0 it meets log_target at
    # t_up = s - log1p(-e^s) = s - log(-expm1(s)), and the root is at most
    # t_up. hi sits on the log singularity of h at r -> R (h(hi) ~ 60-75), so
    # regula falsi from hi creeps up from the lower end for most of its 6-11
    # steps; from min(hi, t_up) most solves close in 1-4, none in more than 5
    # (300 seeded draws over the certificate domain). Where s >= 0 the end is
    # hi: s is capped at -5e-324, the negative float nearest 0, whose
    # t_up = 744.4 lies above every hi (the log of a float is below 709.8),
    # so floats and arrays take one path and log(-expm1(s)) stays finite.
    # Rounding can put t_up a few ulps below the root, where the root finder
    # takes hi instead. bounds._rho_floor relies on the end growing with
    # delta and log_target.
    fn = elementary(delta)
    hi = fn.log(delta * (1.0 - 1e-13))
    s = fn.minimum(log_target + 2.0 * fn.log(fn.log1p(delta)), -5e-324)
    return _LOG_EPS_LO, hi, fn.maximum(_LOG_EPS_LO, fn.minimum(hi, s - fn.log(-fn.expm1(s))))


def _r1_log_target(beta, big_r, big_l):
    # log(e^2 beta / (8 N)), N = (L-1)/(R-1), on floats or arrays.
    return elementary(big_r).log(_E2 * beta / (8.0 * ((big_l - 1.0) / (big_r - 1.0))))


def _r1_log(beta: float, big_r: float, big_l: float) -> float:
    # log(R1 - 1) at validated (beta, R, L): the lower end of the final
    # bracket in t = log(r - 1), on the ends of _r1_bracket, or the
    # bracket's lower end where the root lies below. The clamp test's value
    # is the root finder's value at lo, and the root finder tries the near
    # end up. An empty bracket is not evaluated: the root finder raises.
    delta = big_r - 1.0
    log_target = _r1_log_target(beta, big_r, big_l)
    lo, hi, up = _r1_bracket(delta, log_target)

    def gap(t: float) -> float:
        eps = math.exp(t)
        lg = math.log1p((delta - eps) / (1.0 + eps))
        return t - math.log1p(eps) - 2.0 * math.log(lg) - log_target

    gap_lo = gap(lo) if lo < hi else math.nan
    return lo if gap_lo >= 0.0 else solve_monotone(gap, lo, up, hi, gap_lo)


def solve_r1(beta: float, big_r: float, big_l: float) -> float:
    """Certified radius R1 for the general regime.

    (beta, R, L) are checked as ``KendallParams`` checks them, and R1 is the
    unique r in (1, R) with

        (r - 1) / (r * log(R/r)^2) = e^2 * beta / (8 N),   N = (L-1)/(R-1).

    The left side increases monotonically from 0 to infinity on (1, R). It
    is solved in t = log(r - 1), in the log form

        t - log1p(e^t) - 2 log(log1p((R-1 - e^t) / (1 + e^t))) = log(target),

    with R - 1 taken exactly from R, so a root just above 1 keeps its
    relative accuracy, and R1 = 1 + e^t at the lower end of the final
    bracket, the certified side. The bracket's upper end is closed form:
    log(R/r) <= log R makes the left side at least
    t - log1p(e^t) - 2 log log R, which increases to -2 log log R, so where
    s = log(target) + 2 log log R < 0 the root is at most
    t_up = s - log1p(-e^s). The solve runs on [log 1e-14, t_up], or on the
    wide [log 1e-14, log((R-1)(1 - 1e-13))] where s >= 0 or where rounding
    puts t_up under the root; most solves then close in 1-4 Illinois steps,
    none in more than 5, instead of 6-11. ``solve_r1_array`` takes the same
    ends elementwise. If the root falls below
    1 + 1e-14 (R - 1 near 1e-9, where the root is not representable next to
    1 in double precision) R1 = 1 + 1e-14 is returned; such values are
    never competitive in the radius searches that consume them.
    """
    _check_params(beta, big_r, big_l)
    return 1.0 + math.exp(_r1_log(beta, big_r, big_l))


def solve_r1_array(beta, big_r, big_l) -> np.ndarray:
    """``solve_r1`` for arrays of (beta, R, L), broadcast against each other.

    Each element follows ``solve_r1``: the same log form, bracket, clamp and
    closed-form upper end t_up, and ``solve_increasing_array``, the array
    twin of its root finder; only numpy's log1p and exp may differ from
    ``math``'s by an ulp, so an element agrees with ``solve_r1`` to the stop
    tolerance, most of them bit for bit. All elements step together until
    the slowest closes: 5 evaluations of ``gap`` per Metropolis thm1.1
    grid, the clamp test's included, whose values are the root finder's
    values at lo. The inputs are not validated as
    ``KendallParams`` are: an element whose equation has no sign change on
    its bracket, or that has no bracket, comes back NaN (NaN inputs
    included), where ``solve_r1`` would raise. Raises NoConvergence as
    ``solve_monotone`` does.
    """
    import numpy as np

    def gap(t, delta, log_target):
        eps = np.exp(t)
        return t - np.log1p(eps) - 2.0 * np.log(np.log1p((delta - eps) / (1.0 + eps))) - log_target

    with np.errstate(all="ignore"):
        beta, big_r, big_l = (np.asarray(a, dtype=float) for a in (beta, big_r, big_l))
        delta, log_target = np.broadcast_arrays(big_r - 1.0, _r1_log_target(beta, big_r, big_l))
        lo, hi, up = _r1_bracket(delta, log_target)
        gap_lo = gap(lo, delta, log_target)
        # A clamped element has gap_lo >= 0, which the root finder evaluates
        # no further.
        t = solve_increasing_array(gap, lo, up, hi, gap_lo, delta, log_target)
        return 1.0 + np.exp(np.where((lo < hi) & (gap_lo >= 0.0), lo, t))


def k1(r: float, beta: float, big_r: float, big_l: float) -> float:
    """Uniform bound on |sum (u_n - u_inf) z^n| over |z| <= r, r < R1.

    Nested form: (1/(r-1)) * (1 + (beta + 2 log N / log(R/r)) / denominator),
    N = (L-1)/(R-1), with (beta, R, L) checked as ``KendallParams`` checks
    them before r. Diverges as r approaches R1 from below (the denominator
    has its zero exactly at R1).
    """
    _check_params(beta, big_r, big_l)
    if not (1.0 < r < big_r):
        raise OutOfRange(f"need 1 < r < R, got r={r}, R={big_r}")
    # log(R/r) as log1p((R - r)/r) keeps its accuracy where r and R lie
    # within 1e-6 of each other.
    lg = math.log1p((big_r - r) / r)
    big_n = (big_l - 1.0) / (big_r - 1.0)
    denominator = beta - 8.0 * big_n * _EM2 * (r - 1.0) / (r * lg * lg)
    if denominator <= 0.0:
        raise OutOfRange(
            f"r={r} is at or beyond the certified radius (series-bound denominator <= 0)"
        )
    return (1.0 / (r - 1.0)) * (1.0 + (beta + 2.0 * math.log(big_n) / lg) / denominator)


def solve_r2_reversible(beta: float, big_r: float, big_l: float) -> float:
    """Certified radius R2 for reversible chains.

    (beta, R, L) are checked as ``KendallParams`` checks them. When
    L > 1 + 2*beta*R the radius is the unique r in (1, R) where
    1 + 2*beta*r meets the convex curve r**e, e = log L / log R; otherwise
    the full radius R is already certified. The crossing is solved on
    [1 + 1e-14, up] with the closed-form upper end up = e / (e - 2 beta),
    where the tangent of r**e at 1 meets the line (where e > 2 beta, and
    capped at the wide end R - max(1e-14, (R-1)*1e-13)); the root finder
    keeps the wide end where rounding puts up under the crossing, and hi is
    returned where rounding leaves the gap negative there. Raises OutOfRange
    when R - 1 is too small for the solve's bracket inside (1, R).
    """
    _check_params(beta, big_r, big_l)
    if big_l <= 1.0 + 2.0 * beta * big_r:
        return big_r
    exponent = math.log(big_l) / math.log(big_r)

    def gap(r: float) -> float:
        return math.exp(exponent * math.log1p(r - 1.0)) - 1.0 - 2.0 * beta * r

    lo, hi = _radius_bracket(big_r)
    if hi <= lo:
        # R - 1 below ~2e-14 leaves no bracket inside (1, R); its hi may
        # even lie below 1.
        raise OutOfRange(f"rate gap R - 1 = {big_r - 1.0:.3g} is below double resolution")
    # gap(1+) = -2*beta < 0 and gap(R) = L - (1 + 2*beta*R) > 0; the crossing
    # is unique by convexity, so gap(up) >= 0 puts up at or above it, and
    # the root finder takes it.
    gap_lo = gap(lo)
    try:
        return solve_monotone(gap, lo, max(lo, _r2_tangent_end(exponent, beta, hi)), hi, gap_lo)
    except NoSignChange:
        if gap_lo < 0.0:
            # L exceeds 1 + 2*beta*R only by rounding, so the crossing lies
            # in (hi, R]; hi is its lower, safe end.
            return hi
        raise


def k2_series_bound(r: float, r2: float, beta_tilde: float) -> float:
    """Series bound 1 + sqrt(beta_tilde) * r / (1 - r/R2) for 1 < r < R2.

    The coefficient is sqrt(beta_tilde), the value the reversible-regime
    derivation actually produces (beta_tilde = 1 recovers the atomic form
    1 + 1/(gamma - rho) at r = 1/gamma, R2 = 1/rho).
    """
    if not (0.0 < beta_tilde <= 1.0):
        raise InvalidParams(f"beta_tilde must lie in (0, 1], got {beta_tilde}")
    if not (1.0 < r < r2):
        raise OutOfRange(f"need 1 < r < R2, got r={r}, R2={r2}")
    return 1.0 + math.sqrt(beta_tilde) * r / (1.0 - r / r2)
