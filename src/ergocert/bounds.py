"""Geometric-convergence certificates (rho, M) from drift/minorization data.

Input is the one-step data of a chain: a minorization constant beta_tilde on
a small set C, a drift rate lambda with bound K on C, and the aperiodicity
constant beta. Output is a rate rho < 1 and a constant M such that

    sup_{|g| <= V} |P^n g(x) - pi(g)|  <=  M * V(x) * gamma^n

for any chosen gamma in (rho, 1). Three regimes are supported, in order of
increasing strength of hypothesis and sharpness of rate:

  general               no structural assumptions,
  reversible            the chain is self-adjoint in L2(pi),
  reversible-positive   additionally the spectrum is nonnegative.

Atomic small sets (beta_tilde = 1) use the renewal constants directly; the
nonatomic path routes the same machinery through the split-chain exponents
alpha_1, alpha_2 and the envelope L(r).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from . import kendall
from .errors import GammaOutOfRange, InvalidParams, OutOfRange
from .numerics import (
    elementary,
    maximize_scalar,
    solve_increasing_array,
    solve_monotone,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DriftMinorization",
    "Certificate",
    "RatePart",
    "split_exponents",
    "big_l_array",
    "reversible_radius_array",
    "rate_part",
    "rho_general",
    "rho_reversible",
    "rho_positive",
    "certificate",
]

NU_NONE = "none"
NU_CONCENTRATED = "concentrated_on_c"
NU_V_INTEGRAL = "v_integral_bound"

_SYMMETRIES = ("general", "reversible", "reversible-positive")


@dataclass(frozen=True)
class DriftMinorization:
    """One-step constants of a chain.

    lam         drift rate lambda < 1 off the small set C,
    big_k       bound K on PV over C (with V normalised so V >= 1, and
                V == 1 on C in the atomic case),
    beta        aperiodicity constant, beta <= beta_tilde * nu(C),
    beta_tilde  minorization constant on C (1 exactly when C is an atom),
    atomic      whether C is an atom,
    nu_info     side information about nu: "none", "concentrated_on_c"
                (nu(C) = 1), or "v_integral_bound" with k_tilde bounding
                nu(C) + integral of V over the complement of C.
    """

    lam: float
    big_k: float
    beta: float
    beta_tilde: float = 1.0
    atomic: bool = True
    nu_info: str = NU_NONE
    k_tilde: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise InvalidParams(f"lambda must lie in (0, 1), got {self.lam}")
        if not (1.0 <= self.big_k < math.inf):
            raise InvalidParams(f"K must be finite and >= 1, got {self.big_k}")
        if not (self.big_k > self.lam):
            raise InvalidParams(f"K must exceed lambda, got K={self.big_k}")
        if not (0.0 < self.beta <= self.beta_tilde <= 1.0):
            raise InvalidParams(
                f"need 0 < beta <= beta_tilde <= 1, got beta={self.beta}, "
                f"beta_tilde={self.beta_tilde}"
            )
        if self.atomic and self.beta_tilde != 1.0:
            raise InvalidParams("atomic chains have beta_tilde = 1")
        if not self.atomic:
            if self.beta_tilde >= 1.0:
                raise InvalidParams("nonatomic chains need beta_tilde < 1")
            if self.big_k <= self.beta_tilde:
                raise InvalidParams("nonatomic chains need K > beta_tilde")
        if self.nu_info not in (NU_NONE, NU_CONCENTRATED, NU_V_INTEGRAL):
            raise InvalidParams(f"unknown nu_info {self.nu_info!r}")
        if self.nu_info == NU_V_INTEGRAL:
            if self.k_tilde is None or not (1.0 <= self.k_tilde < math.inf):
                raise InvalidParams(f"k_tilde must be finite and >= 1, got {self.k_tilde}")
        elif self.k_tilde is not None:
            raise InvalidParams("k_tilde is only meaningful with nu_info='v_integral_bound'")

    @property
    def lam_inv(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class RatePart:
    """Rate plus diagnostics, before a gamma and M are attached."""

    rho: float
    symmetry: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Certificate:
    """Full certificate: rate rho, chosen gamma, constant M, diagnostics."""

    rho: float
    gamma: float
    big_m: float
    symmetry: str
    method: str
    params: DriftMinorization
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "lambda": self.params.lam,
            "K": self.params.big_k,
            "beta": self.params.beta,
            "beta_tilde": self.params.beta_tilde,
            "atomic": self.params.atomic,
            "symmetry": self.symmetry,
            "rho": self.rho,
            "gamma": self.gamma,
            "M": self.big_m,
            "diagnostics": dict(self.diagnostics),
        }


def split_exponents(lam, big_k, beta_tilde, nu_info: str, k_tilde=None) -> tuple:
    """(alpha_1, alpha_2, R0) from floats, or from numpy arrays elementwise.

    R0 = min(1/lambda, (1 - beta_tilde)**(-1/alpha_1)). alpha_2 takes the
    sharpest value the side information ``nu_info`` permits: 1 when nu is
    concentrated on C, 1 + log(k_tilde)/log(1/lambda) under a V-integral
    bound, and the generic 1 + log(K/beta_tilde)/log(1/lambda) otherwise.
    The coupling rate takes R0 with lambda_1 in place of lambda. Inputs are
    not validated; lambda decides between float and array functions.
    """
    xp = elementary(lam)
    log_lam_inv = xp.log(1.0 / lam)
    alpha1 = 1.0 + xp.log((big_k - beta_tilde) / (1.0 - beta_tilde)) / log_lam_inv
    if nu_info == NU_CONCENTRATED:
        alpha2 = 1.0
    elif nu_info == NU_V_INTEGRAL:
        alpha2 = 1.0 + xp.log(k_tilde) / log_lam_inv
    else:
        alpha2 = 1.0 + xp.log(big_k / beta_tilde) / log_lam_inv
    pole = (1.0 - beta_tilde) ** (-1.0 / alpha1)
    return alpha1, alpha2, xp.minimum(1.0 / lam, pole)


def _exponents(p: DriftMinorization) -> tuple:
    # (alpha_1, alpha_2, R0) of a nonatomic chain's constants.
    return split_exponents(p.lam, p.big_k, p.beta_tilde, p.nu_info, p.k_tilde)


def _big_l_at(r: float, beta_tilde: float, alpha1: float, alpha2: float) -> float:
    try:
        denominator = 1.0 - (1.0 - beta_tilde) * r**alpha1
    except OverflowError:  # r**alpha1 past the float range lies far past the pole
        denominator = -math.inf
    if denominator <= 0.0:
        raise OutOfRange(f"r={r} is at or beyond the envelope pole")
    return beta_tilde * r**alpha2 / denominator


def big_l_array(r, beta_tilde, alpha1, alpha2) -> np.ndarray:
    """The envelope L(r) of ``_big_l_at`` on arrays (broadcast against each
    other), NaN at or beyond the pole, where ``_big_l_at`` raises."""
    import numpy as np

    r = np.asarray(r, dtype=float)  # a float r past the pole overflows in float **
    with np.errstate(all="ignore"):
        denominator = 1.0 - (1.0 - beta_tilde) * r**alpha1
        return np.where(denominator > 0.0, beta_tilde * r**alpha2 / denominator, np.nan)


# ---------------------------------------------------------------------------
# rate computations
# ---------------------------------------------------------------------------


def _rate(lam, radius):
    # The rate rho = 1/radius of a certified radius, on floats or arrays.
    # Every radius here is at most 1/lambda, so rho >= lambda holds exactly;
    # taking the larger of the two keeps it through the rounding of 1/radius.
    return elementary(radius).maximum(lam, 1.0 / radius)


def _scan_window(r0) -> tuple:
    # The radius window [1 + 1e-9, R0 - 1e-9] of every R1 search over the
    # envelope radius, on floats or arrays; it holds no radius where hi <= lo.
    return 1.0 + 1e-9, r0 - 1e-9


def _r1_at_radius(big_r, beta, beta_tilde, alpha1, alpha2) -> np.ndarray:
    # R1 at radius R on arrays: NaN beyond the pole, where KendallParams
    # rejects (R, L(R)), or where the R1 equation has no root; the scalar
    # objective raises at each of these.
    ls = big_l_array(big_r, beta_tilde, alpha1, alpha2)
    ls[~((ls >= big_r) & (beta * big_r <= ls))] = math.nan
    return kendall.solve_r1_array(beta, big_r, ls)


_FLOOR_MARGIN = 1e-6  # slack in log(R1 - 1) for the rounding of an R1 solve


def _rising(delta, beta, beta_tilde, alpha1, alpha2):
    # The stationarity function of the general nonatomic radius search at
    # delta = R - 1, taken exactly (R = 1 + delta), on floats or arrays:
    # < 0 while R1(beta, R, L(R)) grows with R and > 0 past its peak. With
    # N = (L - 1)/delta and l = log(R/r), R1 solves G(t, delta) = t -
    # log1p(e^t) - 2 log l - log(e^2 beta / (8 N)) = 0 in t = log(R1 - 1), G
    # increasing in t; delta enters through l (delta dl/ddelta = delta/R)
    # and N (delta d log N/ddelta = delta L'/(L - 1) - 1 =: s), so dt/ddelta
    # is 0 where l = l_s = 2 (delta/R)/s, and t falls just where R1 lies
    # below r_s = 1 + x = R e^(-l_s): x/(1 + x) > (e^2 beta / (8 N)) l_s^2.
    # The value is that difference times 1 + x, which tends to -1, not -inf,
    # as l_s grows, so the root finder does not stall; s <= 0, left by
    # rounding only (L is convex, L(1) = 1), gives -1 with l_s taken at
    # s = 1, which divides by no zero and overflows nothing on floats.
    # expm1(alpha log1p(delta)) = R^alpha - 1 keeps s accurate next to R = 1.
    fn = elementary(delta)
    big_r, log_r = 1.0 + delta, fn.log1p(delta)
    e1, e2 = fn.expm1(alpha1 * log_r), fn.expm1(alpha2 * log_r)
    pole = beta_tilde - (1.0 - beta_tilde) * e1  # 1 - (1 - beta_tilde) R^alpha1
    rise = beta_tilde * e2 + (1.0 - beta_tilde) * e1  # (L - 1) * pole
    rl = beta_tilde * (1.0 + e2) * (alpha2 + alpha1 * (1.0 - beta_tilde) * (1.0 + e1) / pole) / rise
    s = delta / big_r * rl - 1.0  # rl is R L'/(L - 1)
    turns = s > 0.0
    l_s = 2.0 * delta / (big_r * fn.where(turns, s, 1.0))
    x = delta + big_r * fn.expm1(-l_s)
    target = kendall._E2 * beta * delta * pole / (8.0 * rise)  # e^2 beta / (8 N)
    return fn.where(turns, x - target * l_s * l_s * (1.0 + x), -1.0)


def _general_nonatomic_search(beta, beta_tilde, alpha1, alpha2, r0) -> tuple:
    # (R_tilde, R1) of nonatomic floats: log(R1 - 1) maximized over
    # delta = R - 1 in the scan window, whose ends map to delta and back
    # exactly, at the root of _rising, with R1 solved and (R, L(R)) checked
    # there alone. Where R1 clamps to 1 + 1e-14 at the peak it clamps at
    # every radius, and R_tilde is hi, the rightmost of equal values.
    lo, hi = _scan_window(r0)
    if hi <= lo:
        raise InvalidParams("R0 is too close to 1 for a usable radius search")
    constants, d_hi = (beta, beta_tilde, alpha1, alpha2), hi - 1.0

    def objective(delta: float) -> float:
        big_r = 1.0 + delta
        big_l = _big_l_at(big_r, beta_tilde, alpha1, alpha2)
        kendall._check_params(beta, big_r, big_l)
        return kendall._r1_log(beta, big_r, big_l)

    delta, t = maximize_scalar(objective, lo - 1.0, d_hi, lambda d: _rising(d, *constants))
    if t == kendall._LOG_EPS_LO and delta != d_hi:
        delta, t = d_hi, objective(d_hi)
    return 1.0 + delta, 1.0 + math.exp(t)


def _rho_floor(lam, beta, beta_tilde, alpha1, alpha2, r0):
    # A floor on the general rate 1/R1 with no search, on floats or arrays
    # of nonatomic constants, inf where R0 leaves no window. alpha1,
    # alpha2 >= 1 make L convex on [1, pole) with L(1) = 1, so the secant
    # N(R) = (L(R) - 1)/(R - 1) is at least L'(1) over the window. There
    # log log R <= log log hi and the target e^2 beta / (8 N(R)) is at most
    # e^2 beta / (8 L'(1)), and kendall._r1_bracket's closed-form R1 end
    # grows with both, so its end at (hi - 1, that target) bounds every
    # log(R1 - 1) in the window, its clamp at log 1e-14 too: the one the
    # search of rho_general returns, and its array twin. Where hi <= lo, lo
    # takes the place of hi, so the end stays finite before inf replaces
    # it.
    fn = elementary(lam)
    lo, hi = _scan_window(r0)
    slope = alpha2 + alpha1 * (1.0 - beta_tilde) / beta_tilde
    t = kendall._r1_bracket(fn.maximum(hi, lo) - 1.0, fn.log(kendall._E2 * beta / (8.0 * slope)))[2]
    return fn.where(hi > lo, _rate(lam, 1.0 + fn.exp(t + _FLOOR_MARGIN)), math.inf)


# Each regime's rate has a core that returns (rho, symmetry, diagnostics)
# and builds no record: ``certificate`` calls the core, the public rate
# functions wrap its tuple in a RatePart. An atomic rate's diagnostics carry
# the Kendall constants R = 1/lambda and L = K/lambda, the general nonatomic
# rate's carry R_tilde and L(R_tilde), so the K1 factor of M reads them
# there.


def _general_rate(p: DriftMinorization) -> tuple:
    if p.atomic:
        big_r = 1.0 / p.lam
        big_l = big_r * p.big_k
        r1 = kendall.solve_r1(p.beta, big_r, big_l)
        return _rate(p.lam, r1), "general", {"R": big_r, "L": big_l, "R1": r1}
    alpha1, alpha2, r0 = _exponents(p)
    r_tilde, r1 = _general_nonatomic_search(p.beta, p.beta_tilde, alpha1, alpha2, r0)
    lo, hi = _scan_window(r0)
    diagnostics = {
        "alpha1": alpha1,
        "alpha2": alpha2,
        "R0": r0,
        "R_tilde": r_tilde,
        "L_at_R_tilde": _big_l_at(r_tilde, p.beta_tilde, alpha1, alpha2),
        "R_tilde_edge": "right" if r_tilde == hi else "left" if r_tilde == lo else None,
        "R1": r1,
    }
    return _rate(p.lam, r1), "general", diagnostics


def rho_general(p: DriftMinorization) -> RatePart:
    """Rate for the general regime.

    Atomic: rho = 1/R1(beta, 1/lambda, K/lambda). Nonatomic: the envelope
    radius R is tuned over (1, R0) to maximize R1(beta, R, L(R)), and
    rho = 1/R1 at the winner; the diagnostic R_tilde_edge is "left" or
    "right" where the winner is that end of the search window, else None.
    Always rho >= lambda because R1 < R <= 1/lambda
    (``_rate`` keeps it so through rounding).
    """
    return RatePart(*_general_rate(p))


def _reversible_rate(p: DriftMinorization) -> tuple:
    if p.atomic:
        big_r = 1.0 / p.lam
        big_l = big_r * p.big_k
        r2 = kendall.solve_r2_reversible(p.beta, big_r, big_l)
        return _rate(p.lam, r2), "reversible", {"R": big_r, "L": big_l, "R2": r2}
    alpha1, alpha2, r0 = _exponents(p)
    constants = p.beta, p.beta_tilde, alpha1, alpha2
    crossing, r2 = _r2_crossing(*constants, r0), r0
    if crossing is not None:
        # An empty bracket is not evaluated: the root finder raises.
        r2 = solve_monotone(functools.partial(_r2_gap, *constants), *crossing)
    diagnostics = {"alpha1": alpha1, "alpha2": alpha2, "R0": r0, "R2": r2}
    return _rate(p.lam, r2), "reversible", diagnostics


def rho_reversible(p: DriftMinorization) -> RatePart:
    """Rate for reversible chains.

    Atomic: rho = 1/R2 with R2 from the atomic crossing equation. Nonatomic:
    R2 solves 1 + 2*beta*r = L(r) on (1, R0) when the envelope crosses the
    line below R0, and equals R0 otherwise (possible only when R0 = 1/lambda
    sits strictly below the envelope pole).
    """
    return RatePart(*_reversible_rate(p))


def _r2_bracket(beta, beta_tilde, alpha1, alpha2, r0) -> tuple:
    # (pole_limited, lo, hi, up) of the nonatomic R2 crossing, on floats or
    # arrays: the pole limits R0 when (1 - beta_tilde) R0**alpha1 >=
    # 1 - 1e-14, and hi is then R0 (1 - 1e-13), inside the pole, else R0;
    # lo is the lower end of the Kendall radius bracket. up, in [lo, hi], is
    # a closed-form upper end of the crossing. L is convex with L(1) = 1, so
    # L(r) < 1 + 2 beta r from 1 up to the crossing and not past it: each r
    # in (1, hi] where L(r) >= 1 + 2 beta r lies at or above the crossing.
    # Two such r: the tangent end N1 / (N1 - 2 beta) of L's slope
    # N1 = L'(1) = alpha2 + alpha1 (1 - beta_tilde) / beta_tilde, where
    # N1 > 2 beta (kendall._r2_tangent_end); and, as r**alpha2 >= 1 makes
    # L(r) >= beta_tilde / (1 - (1 - beta_tilde) r**alpha1), the pole end
    # ((1 - beta_tilde / (1 + 2 beta hi)) / (1 - beta_tilde))**(1/alpha1),
    # where that bound reaches 1 + 2 beta hi. Rounding can put up a few ulps
    # under the crossing, where the root finder takes the wide end instead.
    fn = elementary(r0)
    pole_limited = (1.0 - beta_tilde) * r0**alpha1 >= 1.0 - 1e-14
    hi = fn.where(pole_limited, r0 * (1.0 - 1e-13), r0)
    lo = kendall._radius_bracket(r0)[0]
    n1 = alpha2 + alpha1 * (1.0 - beta_tilde) / beta_tilde
    pole_end = ((1.0 - beta_tilde / (1.0 + 2.0 * beta * hi)) / (1.0 - beta_tilde)) ** (1.0 / alpha1)
    up = fn.maximum(lo, fn.minimum(pole_end, kendall._r2_tangent_end(n1, beta, hi)))
    return pole_limited, lo, hi, up


def _r2_gap(beta, beta_tilde, alpha1, alpha2, r: float) -> float:
    # The R2 crossing in log form, log L(r) - log(1 + 2*beta*r): near the
    # pole L(r) grows like 1/(hi - r), which stalls regula falsi steps, and
    # its log only like log(1/(hi - r)).
    return math.log(_big_l_at(r, beta_tilde, alpha1, alpha2)) - math.log1p(2.0 * beta * r)


def _r2_crossing(beta, beta_tilde, alpha1, alpha2, r0) -> Optional[tuple]:
    # None where the nonatomic R2 is R0, else the (lo, up, hi, gap(lo)) of
    # its crossing solve, gap(lo) NaN where lo >= hi. gap(1+) ~ -2*beta < 0
    # and gap(hi) > 0; single crossing on (1, R0), solved from the near end
    # up.
    pole_limited, lo, hi, up = _r2_bracket(beta, beta_tilde, alpha1, alpha2, r0)
    if not pole_limited and _big_l_at(r0, beta_tilde, alpha1, alpha2) <= 1.0 + 2.0 * beta * r0:
        return None
    gap_lo = _r2_gap(beta, beta_tilde, alpha1, alpha2, lo) if lo < hi else math.nan
    return lo, up, hi, gap_lo


# Slack in the reversible floor: a thousand times the few ulps (2.2e-16 each
# near 1) by which rounding can put up under the crossing, where the solve
# takes the wide end and returns a radius that far above up.
_R2_FLOOR_MARGIN = 1e-12


def _reversible_rho_floor(lam, beta, beta_tilde, alpha1, alpha2, r0) -> float:
    # A floor on the nonatomic reversible rate with no solve, from floats:
    # the rate itself where R2 = R0, else _rate at the closed-form upper end
    # up of the crossing less _R2_FLOOR_MARGIN, as the solved R2 is at most
    # up. -inf where the solve may raise: unless gap(lo) < 0 < gap(hi), with
    # lo < hi, which gives a sign change on either bracket the solve takes.
    constants = beta, beta_tilde, alpha1, alpha2
    crossing = _r2_crossing(*constants, r0)
    if crossing is None:
        return _rate(lam, r0)
    lo, up, hi, gap_lo = crossing
    if not gap_lo < 0.0 < _r2_gap(*constants, hi):
        return -math.inf
    return _rate(lam, up) - _R2_FLOOR_MARGIN


def reversible_radius_array(beta, beta_tilde, alpha1, alpha2, r0) -> np.ndarray:
    """The nonatomic R2 of ``rho_reversible`` on arrays of constants.

    Takes the branches of the scalar radius element by element: R0 when R0
    lies below the pole and L(R0) <= 1 + 2*beta*R0, otherwise the crossing
    on the same bracket, in the same log form, with the same closed-form
    near end, which the array root finder takes where the scalar one does.
    NaN where the crossing has no sign change on that bracket, where the
    scalar radius raises.
    """
    import numpy as np

    def gap(r, b, bt, a1, a2):
        return np.log(big_l_array(r, bt, a1, a2)) - np.log1p(2.0 * b * r)

    beta, beta_tilde, alpha1, alpha2, r0 = np.broadcast_arrays(
        *(np.asarray(c, dtype=float) for c in (beta, beta_tilde, alpha1, alpha2, r0))
    )
    constants = beta, beta_tilde, alpha1, alpha2
    with np.errstate(all="ignore"):
        pole_limited, lo, hi, up = _r2_bracket(*constants, r0)
        l_at_r0 = big_l_array(r0, beta_tilde, alpha1, alpha2)
        at_r0 = ~pole_limited & (l_at_r0 <= 1.0 + 2.0 * beta * r0)
        # NaN at R0, which has no crossing to solve: the root finder
        # evaluates nothing there.
        gap_lo = np.where(at_r0, np.nan, gap(lo, *constants))
    r2 = solve_increasing_array(gap, lo, up, hi, gap_lo, *constants)
    return np.where(at_r0, r0, r2)


def _general_radius_array(beta, beta_tilde, alpha1, alpha2, r0) -> np.ndarray:
    # The nonatomic R1 of rho_general on arrays of one shape, by the steps of
    # _general_nonatomic_search per element: delta at the left end where
    # _rising is not < 0 there, at the right end where it has no sign change,
    # else its root; R1 there, or at the right end where it clamps. NaN
    # where R0 leaves no window or R1 has no root, where rho_general raises.
    import numpy as np

    constants = beta, beta_tilde, alpha1, alpha2
    lo, hi = np.broadcast_arrays(*_scan_window(r0))
    d_lo, d_hi = lo - 1.0, hi - 1.0
    with np.errstate(all="ignore"):
        rising_lo = _rising(d_lo, *constants)
    root = solve_increasing_array(_rising, d_lo, d_hi, d_hi, rising_lo, *constants)
    delta = np.where(rising_lo < 0.0, np.where(np.isnan(root), d_hi, root), d_lo)
    r1 = _r1_at_radius(1.0 + delta, *constants)
    again = (r1 == 1.0 + np.exp(kendall._LOG_EPS_LO)) & (delta != d_hi)
    if again.any():
        r1[again] = _r1_at_radius(hi[again], *(c[again] for c in constants))
    return np.where(hi > lo, r1, np.nan)


# The nonatomic radius of each regime's rate from arrays of (beta,
# beta_tilde, alpha_1, alpha_2, R0), NaN where the scalar rate raises.
_RADIUS_ARRAY = {
    "general": _general_radius_array,
    "reversible": reversible_radius_array,
    "reversible-positive": lambda beta, beta_tilde, alpha1, alpha2, r0: r0,
}


def _positive_rate(p: DriftMinorization) -> tuple:
    if p.atomic:
        return p.lam, "reversible-positive", {}
    alpha1, alpha2, r0 = _exponents(p)
    diagnostics = {"alpha1": alpha1, "alpha2": alpha2, "R0": r0}
    return _rate(p.lam, r0), "reversible-positive", diagnostics


def rho_positive(p: DriftMinorization) -> RatePart:
    """Rate for reversible positive chains: lambda (atomic) or 1/R0."""
    return RatePart(*_positive_rate(p))


_RATES = {
    "general": _general_rate,
    "reversible": _reversible_rate,
    "reversible-positive": _positive_rate,
}


# ---------------------------------------------------------------------------
# M formulas
#
# Each bound is printed in two arrangements: in the decay factor gamma, used
# here, and in the series variable r = 1/gamma. The tests transcribe the r
# forms independently and check that both agree to rounding. The terms
# inline the regeneration-time bounds of Propositions 4.1 and 4.4.
# ---------------------------------------------------------------------------


def _m_atomic_gamma(lam: float, big_k: float, gamma: float, k_factor: float) -> float:
    g = gamma
    t1 = max(lam, big_k - lam / g) / (g - lam)
    t2 = big_k * (big_k - lam / g) / (g * (g - lam)) * k_factor
    t3 = (big_k - lam / g) * max(lam, big_k - lam) / ((g - lam) * (1.0 - lam))
    t4 = lam * (big_k - 1.0) / ((g - lam) * (1.0 - lam))
    return t1 + t2 + t3 + t4


def _m_nonatomic_gamma(
    lam: float,
    big_k: float,
    bt: float,
    a1: float,
    a2: float,
    gamma: float,
    k_factor: float,
) -> float:
    g = gamma
    d = 1.0 - (1.0 - bt) * g**-a1
    t1 = max(lam, big_k - lam / g) / (g - lam)
    t2 = big_k * (big_k * g - lam - bt * (g - lam)) / (g * g * (g - lam) * d)
    t3 = bt * g ** (-a2 - 2.0) * big_k * (big_k * g - lam) / ((g - lam) * d * d) * k_factor
    t4 = (
        g ** (-a2 - 1.0)
        * (big_k * g - lam)
        / ((g - lam) * d * d)
        * (
            bt * max(lam, big_k - lam) / (1.0 - lam)
            + (1.0 - bt) * (g**-a1 - 1.0) / (1.0 / g - 1.0)
        )
    )
    t5 = g**-a2 * lam * (big_k - 1.0) / ((1.0 - lam) * (g - lam) * d)
    t6 = (
        (big_k - lam - bt * (1.0 - lam))
        / ((1.0 - lam) * (1.0 - g) * d)
        * ((g**-a2 - 1.0) + (1.0 - bt) * (g**-a1 - 1.0) / bt)
    )
    return t1 + t2 + t3 + t4 + t5 + t6


def _check_gamma(rho: float, gamma: float) -> None:
    if not (rho < gamma < 1.0):
        raise GammaOutOfRange(f"gamma must lie in (rho, 1) = ({rho}, 1), got {gamma}")


def _k_factor(
    p: DriftMinorization, rho: float, symmetry: str, diagnostics: dict, r: float
) -> tuple[str, float]:
    # The series factor of M at r = 1/gamma, with its kind: K1 at the
    # Kendall constants (beta, R, L) of the general rate, which its
    # diagnostics carry, K2 at the rate's radius otherwise.
    if symmetry != "general":
        return "K2", kendall.k2_series_bound(r, 1.0 / rho, p.beta_tilde)
    if p.atomic:
        big_r, big_l = diagnostics["R"], diagnostics["L"]
    else:
        big_r, big_l = diagnostics["R_tilde"], diagnostics["L_at_R_tilde"]
    return "K1", kendall.k1(r, p.beta, big_r, big_l)


def _m_with_part(
    p: DriftMinorization, gamma: float, rho: float, symmetry: str, diagnostics: dict
) -> tuple[float, str, float]:
    # M at gamma for a computed rate (rho, symmetry, diagnostics), with the
    # kind and value of its series factor. A nonatomic rate carries the
    # exponents alpha_1, alpha_2.
    _check_gamma(rho, gamma)
    kind, k_factor = _k_factor(p, rho, symmetry, diagnostics, 1.0 / gamma)
    if p.atomic:
        big_m = _m_atomic_gamma(p.lam, p.big_k, gamma, k_factor)
    else:
        a1, a2 = diagnostics["alpha1"], diagnostics["alpha2"]
        big_m = _m_nonatomic_gamma(p.lam, p.big_k, p.beta_tilde, a1, a2, gamma, k_factor)
    return big_m, kind, k_factor


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def _check_symmetry(symmetry: str) -> None:
    if symmetry not in _SYMMETRIES:
        raise InvalidParams(f"symmetry must be one of {_SYMMETRIES}, got {symmetry!r}")


def rate_part(p: DriftMinorization, symmetry: str) -> RatePart:
    """``rho_general``, ``rho_reversible`` or ``rho_positive``, by regime."""
    _check_symmetry(symmetry)
    if symmetry == "general":
        return rho_general(p)
    if symmetry == "reversible":
        return rho_reversible(p)
    return rho_positive(p)


def certificate(
    p: DriftMinorization,
    symmetry: str = "general",
    gamma: Optional[float] = None,
) -> Certificate:
    """Compute a full certificate for the requested symmetry regime.

    gamma defaults to (1 + rho)/2: M diverges as gamma approaches rho, so a
    midpoint keeps both the rate and the constant moderate. The rate is that
    of ``rate_part``, taken from its core without a RatePart.
    """
    _check_symmetry(symmetry)
    rho, _, diagnostics = _RATES[symmetry](p)
    if gamma is None:
        gamma = 0.5 * (1.0 + rho)
    big_m, kind, k_factor = _m_with_part(p, gamma, rho, symmetry, diagnostics)
    # The core's dict is new on each call: the certificate takes it over.
    diagnostics["k_factor_kind"] = kind
    diagnostics["k_factor"] = k_factor
    return Certificate(
        rho=rho,
        gamma=gamma,
        big_m=big_m,
        symmetry=symmetry,
        method="kendall-" + symmetry,
        params=p,
        diagnostics=diagnostics,
    )
