"""Benchmark chains: tuning parameters -> drift/minorization constants.

Four families are covered:

  * reflecting random walk on the nonnegative integers (holding mass p at 0),
  * the same walk with modified boundary P(0,{0}) = eps (with an exact rate),
  * the Metropolis chain targeting N(0,1) with N(x,1) proposals,
  * the contracting-normal family P(x, .) = N(theta x, 1 - theta^2).

The walks expose an exact finite-truncation oracle (transition matrix,
V vector and stationary law). The continuous-state families expose only
their constant maps plus quadrature cross-checks; their certificates are
validated against published table values rather than exact distances.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .bounds import (
    NU_CONCENTRATED,
    NU_V_INTEGRAL,
    _RADIUS_ARRAY,
    DriftMinorization,
    _general_nonatomic_search,
    _rate,
    _reversible_rho_floor,
    _rho_floor,
    rate_part,
    rho_positive,
    split_exponents,
)
from .competitors import CouplingInput, _coupling_rate, _lambda1, coupling_rho
from .errors import ErgoCertError, InvalidParams, MonotoneViolation, OutOfRange, TruncationTooSmall
from .numerics import _is_array, elementary, std_normal_cdf

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ReflectingWalk",
    "MetropolisNormal",
    "ContractingNormal",
    "ModelSpec",
    "TruncatedChain",
    "reflecting_walk_params",
    "reflecting_walk_rho_exact",
    "mh_normal_lambda",
    "mh_normal_params",
    "mh_coupling_input",
    "contracting_params",
    "contracting_coupling_input",
    "binomial_modification",
    "walk_truncated_chain",
    "method_rho",
    "optimize_mh_tuning",
    "optimize_contracting_tuning",
]

MT_MEASURE = "mt_measure"
INFIMUM_MEASURE = "infimum_measure"

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReflectingWalk:
    """Down-drift walk on {0, 1, 2, ...}: P(i,i-1) = p, P(i,i+1) = q = 1-p.

    epsilon absent: boundary P(0,0) = p. epsilon present: P(0,{0}) = eps
    with 0 < eps < p (the near-periodic regime; eps >= p would make the
    chain stochastically monotone, which this family does not model).
    """

    p: float
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.5 < self.p < 1.0):
            raise InvalidParams(f"p must lie in (1/2, 1), got {self.p}")
        if self.epsilon is not None and not (0.0 < self.epsilon < self.p):
            raise InvalidParams(
                f"epsilon must lie in (0, p) when given, got eps={self.epsilon}, p={self.p}"
            )

    @property
    def boundary_hold(self) -> float:
        return self.p if self.epsilon is None else self.epsilon

    def params(self) -> DriftMinorization:
        return reflecting_walk_params(self)

    def lazy_params(self) -> DriftMinorization:
        return binomial_modification(self.params(), sup_v_on_c=1.0)


@dataclass(frozen=True)
class MetropolisNormal:
    """Metropolis chain for N(0,1) with proposal N(x,1), V(x) = exp(s|x|),
    small set C = [-d, d]."""

    d: float
    s: float
    nu_variant: str = MT_MEASURE

    def __post_init__(self) -> None:
        if not (self.d > 0.0 and self.s > 0.0):
            raise InvalidParams(f"d and s must be positive, got d={self.d}, s={self.s}")
        if self.nu_variant not in (MT_MEASURE, INFIMUM_MEASURE):
            raise InvalidParams(f"unknown nu_variant {self.nu_variant!r}")

    def params(self) -> DriftMinorization:
        return mh_normal_params(self.d, self.s, self.nu_variant)

    def coupling_input(self) -> CouplingInput:
        return mh_coupling_input(self.d, self.s, self.nu_variant)


@dataclass(frozen=True)
class ContractingNormal:
    """P(x, .) = N(theta x, 1 - theta^2), V(x) = 1 + x^2, C = [-c, c]."""

    theta: float
    c: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.theta < 1.0):
            raise InvalidParams(f"theta must lie in (-1, 1), got {self.theta}")
        if not (self.c > 1.0):
            raise InvalidParams(f"c must exceed 1 (else lambda >= 1), got {self.c}")

    def params(self) -> DriftMinorization:
        return contracting_params(self.theta, self.c)

    def coupling_input(self) -> CouplingInput:
        return contracting_coupling_input(self.theta, self.c)

    def lazy_params(self) -> DriftMinorization:
        v_c = _contracting_constants(self.theta, self.c)[3]
        return binomial_modification(self.params(), sup_v_on_c=v_c)


# Any benchmark chain accepted by the constant maps below. Each gives its
# constants through params(); coupling_input() and lazy_params() exist where
# the chain has the coupling rate or the binomial modification.
ModelSpec = ReflectingWalk | MetropolisNormal | ContractingNormal


@dataclass(frozen=True)
class TruncatedChain:
    """Finite row-stochastic truncation with V and the stationary law."""

    matrix: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        import numpy as np

        # Written so that NaN fails them; a row with an infinite entry fails
        # its sum.
        if not (np.abs(self.matrix.sum(axis=1) - 1.0).max() <= 1e-12):
            raise InvalidParams("rows must sum to 1 within 1e-12")
        if not ((self.v >= 1.0) & (self.v < np.inf)).all():
            raise InvalidParams("V must be finite and >= 1 entrywise")

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# reflecting walk
# ---------------------------------------------------------------------------


def reflecting_walk_params(spec: ReflectingWalk) -> DriftMinorization:
    """Constants for V(i) = (p/q)^(i/2) and the atom C = {0}.

    Standard boundary: lambda = 2 sqrt(pq), K = p + sqrt(pq), beta = p.
    Modified boundary: K = eps + (1-eps) sqrt(p/q), beta = eps.
    """
    p, q = spec.p, 1.0 - spec.p
    lam = 2.0 * math.sqrt(p * q)
    if spec.epsilon is None:
        big_k = p + math.sqrt(p * q)
        beta = p
    else:
        big_k = spec.epsilon + (1.0 - spec.epsilon) * math.sqrt(p / q)
        beta = spec.epsilon
    return DriftMinorization(lam=lam, big_k=big_k, beta=beta, atomic=True)


def reflecting_walk_rho_exact(p: float, epsilon: float) -> float:
    """Exact V-norm rate of the modified-boundary walk.

    (pq + (p-eps)^2)/(p-eps) below the branch point eps = (p-q)/(1+sqrt(q/p)),
    and 2 sqrt(pq) at or above it. epsilon None raises InvalidParams.
    """
    ReflectingWalk(p=p, epsilon=epsilon)  # validation
    if epsilon is None:
        raise InvalidParams("the exact rate needs the modified boundary epsilon, got None")
    q = 1.0 - p
    if epsilon < (p - q) / (1.0 + math.sqrt(q / p)):
        return (p * q + (p - epsilon) ** 2) / (p - epsilon)
    return 2.0 * math.sqrt(p * q)


def _is_int(value) -> bool:
    # A Python or numpy integer, not a bool: the oracles' counts and states.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def walk_truncated_chain(spec: ReflectingWalk, n_states: int) -> TruncatedChain:
    """Truncate the walk to {0, ..., n_states-1} with a reflecting top.

    The up-step at the top state folds into a self-loop, which preserves
    stochasticity and reversibility. The stationary vector is the exact
    birth-death ratio sequence, renormalised over the kept states; the
    reported tail_mass is the stationary mass the infinite chain puts
    beyond the truncation, which must be below 1e-12, and V must be finite.
    """
    import numpy as np

    p, q = spec.p, 1.0 - spec.p
    eps = spec.boundary_hold
    if not (_is_int(n_states) and n_states >= 3):
        raise InvalidParams(f"n_states must be an integer >= 3, got {n_states!r}")

    # Untruncated stationary ratios: pi(i+1)/pi(i) = q/p for i >= 1 and
    # pi(1)/pi(0) = (1-eps)/p, hence a geometric tail with ratio q/p.
    ratio = q / p
    weights = np.empty(n_states)
    weights[0] = 1.0
    weights[1] = (1.0 - eps) / p
    for i in range(2, n_states):
        weights[i] = weights[i - 1] * ratio
    total_inf = 1.0 + (1.0 - eps) / p / (1.0 - ratio)
    tail = (1.0 - eps) / p * ratio ** (n_states - 1) / (1.0 - ratio) / total_inf
    if tail >= 1e-12:
        raise TruncationTooSmall(
            f"{n_states} states leave stationary tail mass {tail:.3g} >= 1e-12"
        )

    with np.errstate(over="ignore"):
        v = np.power(p / q, np.arange(n_states) / 2.0)
    if not math.isfinite(v[-1]):
        raise InvalidParams(f"V(i) = (p/q)^(i/2) overflows a double at i = {n_states - 1}")

    matrix = np.zeros((n_states, n_states))
    matrix[0, 0] = eps
    matrix[0, 1] = 1.0 - eps
    for i in range(1, n_states - 1):
        matrix[i, i - 1] = p
        matrix[i, i + 1] = q
    matrix[n_states - 1, n_states - 2] = p
    matrix[n_states - 1, n_states - 1] = q

    pi = weights / weights.sum()
    return TruncatedChain(matrix=matrix, v=v, pi=pi, tail_mass=float(tail))


# ---------------------------------------------------------------------------
# Metropolis chain for the standard normal target
# ---------------------------------------------------------------------------


# The formulas below take floats or numpy arrays (broadcast against each
# other); the first argument decides between math and numpy functions.


def mh_normal_lambda(x, s):
    """One-step drift ratio PV(x)/V(x) for V(y) = exp(s|y|), x, s >= 0.

    Closed form in the normal distribution function; telescopes to 1 when
    s = 0 (V constant). Float arguments are validated; with x a numpy array
    the ratio is evaluated elementwise, unchecked.
    """
    if not _is_array(x) and (
        not (x >= 0.0 and s >= 0.0) or not (math.isfinite(x) and math.isfinite(s))
    ):
        raise InvalidParams(f"x and s must be finite and nonnegative, got x={x}, s={s}")
    xp = elementary(x)
    exp, cdf = xp.exp, xp.cdf
    t1 = exp(s * s / 2.0) * (cdf(-s) - cdf(-x - s))
    t2 = exp(s * s / 2.0 - 2.0 * s * x) * (cdf(-x + s) - cdf(-2.0 * x + s))
    t3 = exp((x - s) ** 2 / 4.0) * cdf((s - x) / _SQRT2) / _SQRT2
    t4 = exp((x * x - 6.0 * x * s + s * s) / 4.0) * cdf((s - 3.0 * x) / _SQRT2) / _SQRT2
    t5 = cdf(0.0) + cdf(-2.0 * x)
    t6 = -exp(x * x / 4.0) * (cdf(-x / _SQRT2) + cdf(-3.0 * x / _SQRT2)) / _SQRT2
    return t1 + t2 + t3 + t4 + t5 + t6


def _mh_constants(d, s, nu_variant: str) -> tuple:
    """(lambda, K, beta, beta_tilde, nu_info, k_tilde, min V off C) of the
    tuning (d, s) under the chosen minorization measure.

    min V off C = exp(sd) gives K = exp(sd) lambda and is a coupling
    constant. The other coupling constant, b = PV(0) - lambda V(0) =
    lambda(0, s) - lambda, is left to the coupling callers
    (``mh_coupling_input`` and the coupling grid), so the theorem rates
    never evaluate lambda(0, s). Float arguments are validated; arrays (d
    on one axis, s on another, say) are evaluated unchecked, each term only
    on the axes it depends on.
    """
    checked = not _is_array(d)
    if checked:
        MetropolisNormal(d=d, s=s, nu_variant=nu_variant)  # validation
    lam = mh_normal_lambda(d, s)
    if checked and lam >= 1.0:
        raise MonotoneViolation(f"lambda(d={d}, s={s}) = {lam:.6g} >= 1: no drift")
    xp = elementary(d)
    v_min = xp.exp(s * d)
    if nu_variant == MT_MEASURE:
        beta = _SQRT2 * xp.exp(-d * d) * (xp.cdf(_SQRT2 * d) - 0.5)
        return lam, v_min * lam, beta, beta, NU_CONCENTRATED, None, v_min
    beta = 2.0 * (xp.cdf(2.0 * d) - xp.cdf(d))
    beta_tilde = beta + _SQRT2 * xp.exp(d * d / 4.0) * (1.0 - xp.cdf(3.0 * d / _SQRT2))
    k_tilde = beta / beta_tilde + (_SQRT2 / beta_tilde) * xp.exp((d - s) ** 2 / 4.0) * (
        1.0 - xp.cdf((3.0 * d - s) / _SQRT2)
    )
    # nu(C) + integral of V off C is >= 1 since V >= 1; for large d the two
    # terms land exactly on 1 and rounding may dip a few ulp below it.
    return lam, v_min * lam, beta, beta_tilde, NU_V_INTEGRAL, xp.maximum(k_tilde, 1.0), v_min


def _mh_coupling_offset(s, lam):
    # b = PV(0) - lambda V(0) = lambda(0, s) - lambda on floats or arrays;
    # 0.0 * s is a zero of the type and shape of s: lambda(0, s) once per s.
    return mh_normal_lambda(0.0 * s, s) - lam


def mh_normal_params(d: float, s: float, nu_variant: str = MT_MEASURE) -> DriftMinorization:
    """Drift/minorization constants for C = [-d, d] and V(x) = exp(s|x|).

    The drift ratio is minimised over |x| >= d at x = d, so lambda =
    lambda(d, s) and K = exp(sd) lambda(d, s). Two minorization measures are
    supported: a Gaussian density restricted to C (nu(C) = 1, so the tight
    alpha_2 = 1 applies) and the infimum of the transition densities over C
    (supported everywhere, with a V-integral bound k_tilde instead).
    """
    lam, big_k, beta, beta_tilde, nu_info, k_tilde, _ = _mh_constants(d, s, nu_variant)
    return DriftMinorization(
        lam=lam,
        big_k=big_k,
        beta=beta,
        beta_tilde=beta_tilde,
        atomic=False,
        nu_info=nu_info,
        k_tilde=k_tilde,
    )


def mh_coupling_input(d: float, s: float, nu_variant: str = MT_MEASURE) -> CouplingInput:
    """Coupling constants for the Metropolis chain.

    b = PV(0) - lambda V(0) = lambda(0, s) - lambda and min V off C =
    exp(sd); beta_tilde comes from the same measure as the certificate rows
    it is compared against.
    """
    lam, big_k, _, beta_tilde, _, _, v_min = _mh_constants(d, s, nu_variant)
    b = _mh_coupling_offset(s, lam)
    return CouplingInput(lam=lam, b=b, v_min_outside=v_min, big_k=big_k, beta_tilde=beta_tilde)


# ---------------------------------------------------------------------------
# contracting normals
# ---------------------------------------------------------------------------


def _contracting_lambda(theta: float, c: float) -> float:
    return theta * theta + 2.0 * (1.0 - theta * theta) / (1.0 + c * c)


def _contracting_constants(theta: float, c: float) -> tuple:
    # (lambda, K, beta_tilde, V(c), b, coupling beta_tilde) of the tuning
    # (theta, c) as unchecked floats: the one copy of each formula, which
    # contracting_params, contracting_coupling_input, the lazy chain and the
    # floors of the c search all take. V(c) = 1 + c^2 is sup V over C and
    # min V off C.
    at = abs(theta)
    sd = math.sqrt(1.0 - theta * theta)
    phi = std_normal_cdf(at * c / sd)
    v_c = 1.0 + c * c
    return (
        _contracting_lambda(theta, c),
        2.0 + theta * theta * (c * c - 1.0),
        2.0 * (std_normal_cdf((1.0 + at) * c / sd) - phi),
        v_c,
        2.0 * (1.0 - theta * theta) * c * c / v_c,
        2.0 * (1.0 - phi),
    )


def contracting_params(theta: float, c: float) -> DriftMinorization:
    """Constants for V(x) = 1 + x^2 and C = [-c, c].

    lambda = theta^2 + 2(1-theta^2)/(1+c^2), K = 2 + theta^2 (c^2 - 1), and
    the minorization measure is the infimum of the transition densities
    restricted to C, so beta = beta_tilde and nu(C) = 1.
    """
    ContractingNormal(theta=theta, c=c)  # validation
    lam, big_k, beta_tilde, *_ = _contracting_constants(theta, c)
    return DriftMinorization(
        lam=lam,
        big_k=big_k,
        beta=beta_tilde,
        beta_tilde=beta_tilde,
        atomic=False,
        nu_info=NU_CONCENTRATED,
    )


def contracting_coupling_input(theta: float, c: float) -> CouplingInput:
    """Coupling constants for the contracting-normal family.

    Requires c > sqrt(2) so that the bivariate rate lambda_1 = theta^2 +
    4(1-theta^2)/(2+c^2) stays below 1. The minorization measure need not
    sit on C here, so beta_tilde = 2[1 - Phi(|theta| c / sqrt(1-theta^2))].
    """
    ContractingNormal(theta=theta, c=c)
    if c <= math.sqrt(2.0):
        raise InvalidParams(f"coupling needs c > sqrt(2), got c={c}")
    lam, big_k, _, v_c, b, beta_tilde = _contracting_constants(theta, c)
    return CouplingInput(lam=lam, b=b, v_min_outside=v_c, big_k=big_k, beta_tilde=beta_tilde)


# ---------------------------------------------------------------------------
# lazy-kernel transform
# ---------------------------------------------------------------------------


def binomial_modification(p: DriftMinorization, sup_v_on_c: float) -> DriftMinorization:
    """Constants for the lazy kernel (I + P)/2 with the same V, C and nu.

    lambda -> (1 + lambda)/2, K -> (sup_C V + K)/2, beta -> beta/2. For a
    nonatomic small set the minorization constant halves as well; an atom
    stays an atom (every state of C still shares one transition law), so
    beta_tilde remains 1 there. Two steps of the lazy chain correspond on
    average to one step of the original, so rates are usually compared
    through rho_lazy^2.
    """
    if sup_v_on_c < 1.0:
        raise InvalidParams(f"sup of V over C must be >= 1, got {sup_v_on_c}")
    lam, big_k, beta, beta_tilde = _lazy_constants(
        p.lam, p.big_k, p.beta, p.beta_tilde, p.atomic, sup_v_on_c
    )
    return DriftMinorization(
        lam=lam,
        big_k=big_k,
        beta=beta,
        beta_tilde=beta_tilde,
        atomic=p.atomic,
        nu_info=p.nu_info,
        k_tilde=p.k_tilde,
    )


def _lazy_constants(lam, big_k, beta, beta_tilde, atomic: bool, sup_v_on_c) -> tuple:
    # (lambda, K, beta, beta_tilde) of the lazy kernel as unchecked floats,
    # which binomial_modification and the binomial floor of the c search take.
    beta_tilde = 1.0 if atomic else beta_tilde / 2.0
    return (1.0 + lam) / 2.0, (sup_v_on_c + big_k) / 2.0, beta / 2.0, beta_tilde


# ---------------------------------------------------------------------------
# rate methods
# ---------------------------------------------------------------------------

# The regime of bounds.certificate that each theorem's rate comes from.
THEOREM_SYMMETRY = {"thm1.1": "general", "thm1.2": "reversible", "thm1.3": "reversible-positive"}
RATE_METHODS = (*THEOREM_SYMMETRY, "coupling", "binomial")


def method_rho(method: str, chain: ModelSpec) -> float:
    """The rate a method certifies for a benchmark chain.

    thm1.1, thm1.2 and thm1.3 give rho_general, rho_reversible and
    rho_positive of the chain's constants, coupling gives coupling_rho, and
    binomial gives rho_positive of the lazy chain, squared: two lazy steps
    match one step of the chain on average. ``method`` is one of
    RATE_METHODS.
    """
    if method == "coupling":
        return coupling_rho(chain.coupling_input())
    if method == "binomial":
        return rho_positive(chain.lazy_params()).rho ** 2
    return rate_part(chain.params(), THEOREM_SYMMETRY[method]).rho


# ---------------------------------------------------------------------------
# tuning searches
#
# The Metropolis search rates a d axis against an s axis as method_rho rates
# one tuning, through the same formulas: _mh_constants on the axes; then, on
# the tunings with valid constants only, the coupling rate of lambda_1 < 1,
# or split_exponents, the array radius of the theorem's regime
# (bounds._RADIUS_ARRAY, which takes the root of bounds._rising and one R1
# for thm1.1, as rho_general does, and solves the thm1.2 crossing from the
# closed-form upper end of bounds._r2_bracket, as rho_reversible does) and
# _rate. Only the coupling grid evaluates its offset b = lambda(0, s) -
# lambda (_mh_coupling_offset, once per s, the expression mh_coupling_input
# takes). A tuning with no rate, where the scalar path raises, gets rho =
# inf, which never wins the argmin; the winner's array rho is returned as it
# is. thm1.1 rates only the tunings whose closed-form floor
# (bounds._rho_floor) is not above a bound: at a refinement the enclosing
# stage's best rate, at the coarse step the scalar rate of the tuning with
# the lowest floor. The enclosing winner need not lie on the refined grid,
# so where no rated tuning reaches the bound, the rest whose floor is not
# above the best rated rate are rated too. Every grid rate is at least its
# floor, so a tuning left at inf never was the argmin, and the rated ones
# get the same bits as in a scan of all of them: each step of the scan is
# elementwise.
# The contracting search gives every method a closed-form floor per c from
# the floats of _contracting_constants (_contracting_floor), visits c in
# floor order and calls method_rho only for the c values that its floor
# does not rule out; a floor of -inf, where the rate may raise, makes that
# c rated first.
# ---------------------------------------------------------------------------

_MH_METHODS = (*THEOREM_SYMMETRY, "coupling")


def _mh_rho_grid(d_grid, s_grid, method, nu_variant, bound=None):
    # bound: the best rate of the enclosing stage, which thm1.1 prunes by;
    # None at the coarse step. Handed the measure's coarse axes themselves
    # (the arrays of _mh_coarse_table, as optimize_mh_tuning passes them),
    # the grid reads the table's constants; any other axes get theirs
    # computed.
    import numpy as np

    table_d, table_s, constants = _mh_coarse_table(nu_variant, _D_RANGE, _S_RANGE)
    d, s = np.asarray(d_grid)[:, None], np.asarray(s_grid)[None, :]
    if d_grid is not table_d or s_grid is not table_s:
        constants = _mh_constants(d, s, nu_variant)
    return _mh_rate_constants(d, s, constants, method, bound)


def _mh_rate_constants(d, s, consts, method, bound):
    # The method's rate of each tuning of a d column against an s row from
    # their _mh_constants; inf where the tuning has none.
    import numpy as np

    lam, big_k, beta, beta_tilde, nu_info, k_tilde, v_min = consts
    valid = (lam < 1.0) & (beta > 0.0) & (beta_tilde < 1.0) & (big_k > beta_tilde)
    if method == "coupling":
        b = _mh_coupling_offset(s, lam)
        lam = _lambda1(lam, b, v_min)  # the coupling rate's drift rate
        valid &= (b > 0.0) & (lam < 1.0)
    # k_tilde, None under the concentrated measure, is NaN there, never read.
    lam, big_k, beta, beta_tilde, k_tilde = (
        np.broadcast_to(np.asarray(c, dtype=float), valid.shape)[valid]
        for c in (lam, big_k, beta, beta_tilde, k_tilde)
    )
    if method == "coupling":
        rho = _coupling_rate(lam, big_k, beta_tilde)
    else:
        exponents = split_exponents(lam, big_k, beta_tilde, nu_info, k_tilde)
        constants = np.broadcast_arrays(lam, beta, beta_tilde, *exponents)  # alpha_2 may be 1.0
        rho = np.full(lam.shape, np.inf)

        def rate(where):  # the theorem's rate of valid constants, inf where it has none
            lam_at, *others = (c[where] for c in constants)
            radius = _RADIUS_ARRAY[THEOREM_SYMMETRY[method]](*others)
            rho[where] = np.where(np.isnan(radius), np.inf, _rate(lam_at, radius))

        todo = np.ones(lam.shape, bool)
        if method == "thm1.1" and lam.size:
            floor = _rho_floor(*constants)
            if bound is None:
                # The scalar rate of the lowest floor's tuning, inf where it
                # raises; an ulp off its grid rate, the fallback below mends it.
                first = np.argmin(floor)
                lam_at, *others = (float(c[first]) for c in constants)
                try:
                    bound = _rate(lam_at, _general_nonatomic_search(*others)[1])
                except ErgoCertError:
                    bound = math.inf
            # The tunings whose floor is not above the bound (a NaN floor is
            # rated). The enclosing winner may lie off a refined grid: where
            # no rated tuning reaches the bound, the rest whose floor is not
            # above the best rated rate follow.
            rated = todo & ~(floor > bound)
            rate(rated)
            best = rho.min()
            todo &= ~rated & ~(floor > best) & (best > bound)
        if todo.any():
            rate(todo)
    grid = np.full(valid.shape, np.inf)
    grid[valid] = rho
    return grid, *np.broadcast_arrays(d, s)


# The (d, s) ranges of the Metropolis search and the c range of the
# contracting search: the ranges of tables 2-4.
_D_RANGE = (0.5, 3.0)
_S_RANGE = (0.01, 1.5)
_C_RANGE = (1.05, 4.0)


@functools.cache
def _mh_coarse_table(nu_variant: str, d_range: tuple, s_range: tuple) -> tuple:
    # The coarse step's d axis, s axis and _mh_constants of d against s under
    # one measure, the same for every method: built on first use, once per
    # measure and ranges, and read-only.
    import numpy as np

    d, s = (np.append(np.arange(lo, hi, 0.05), hi) for lo, hi in (d_range, s_range))
    constants = _mh_constants(d[:, None], s[None, :], nu_variant)
    for array in (d, s, *constants):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return d, s, constants


def _range_edge(winner: dict) -> Optional[dict]:
    # {coordinate: "lower" or "upper"} for each winning coordinate within
    # 1e-9 of an end of its range, given as {coordinate: (value, (lo, hi))};
    # None where none is or no tuning won. Next to an end, a refinement grid
    # may hold a point a few ulp inside it (b + k * step); no other grid
    # point lies that close.
    edge = {}
    for name, (value, (lo, hi)) in winner.items():
        if value is None:
            continue
        if abs(value - lo) <= 1e-9:
            edge[name] = "lower"
        elif abs(value - hi) <= 1e-9:
            edge[name] = "upper"
    return edge or None


def optimize_mh_tuning(method: str, nu_variant: str = MT_MEASURE) -> dict:
    """Grid-search (d, s) to minimise rho for the given certificate method.

    Coarse scan at step 0.05 of d in _D_RANGE and s in _S_RANGE, closed at
    the upper end of each range, then local refinements at 0.01 and 0.002
    around the running best (same final resolution as a flat 0.01 grid with
    refinement, at a fraction of the work for the radius-search objective).
    thm1.1 rates only the tunings of each grid that its closed-form rate
    floor does not rule out, with the same winner. The coarse constants are
    those of the measure's table (``_mh_coarse_table``), built by the first
    search. Returns the winning tuning with its rate, and as edge the
    coordinates of the winner at an end of _D_RANGE or _S_RANGE ("lower" or
    "upper"), or None.
    """
    import numpy as np

    if method not in _MH_METHODS:
        raise InvalidParams(f"method must be one of {sorted(_MH_METHODS)}")
    if nu_variant not in (MT_MEASURE, INFIMUM_MEASURE):
        raise InvalidParams(f"unknown nu_variant {nu_variant!r}")
    d_grid, s_grid, _ = _mh_coarse_table(nu_variant, _D_RANGE, _S_RANGE)
    best_d = best_s = best_rho = None
    for step in (0.05, 0.01, 0.002):
        if best_d is not None:
            # Clipping repeats a range end; np.unique keeps one copy, in
            # ascending order, so the argmin picks the same (d, s).
            d_grid, s_grid = (
                np.unique(np.clip(np.arange(b - 6 * step, b + 6 * step + 1e-12, step), lo, hi))
                for b, (lo, hi) in ((best_d, _D_RANGE), (best_s, _S_RANGE))
            )
        rho, dd, ss = _mh_rho_grid(d_grid, s_grid, method, nu_variant, best_rho)
        flat = int(np.argmin(rho))
        best_d = float(dd.ravel()[flat])
        best_s = float(ss.ravel()[flat])
        best_rho = float(rho.ravel()[flat])
    if best_rho == math.inf:
        best_d = best_s = None
    edge = _range_edge({"d": (best_d, _D_RANGE), "s": (best_s, _S_RANGE)})
    return {"d": best_d, "s": best_s, "rho": best_rho, "one_minus_rho": 1.0 - best_rho,
            "edge": edge}


def _contracting_rho_or_inf(method: str, theta: float, c: float) -> float:
    # method_rho at c, or inf where the method has no rate there (invalid
    # constants, no drift), which never wins the argmin.
    try:
        return method_rho(method, ContractingNormal(theta=theta, c=c))
    except (InvalidParams, MonotoneViolation):
        return math.inf


def _floor_constants(method: str, theta: float, c: float) -> tuple:
    # (lambda, K, beta, beta_tilde) of the chain whose rate the method takes
    # at c, unchecked floats of _contracting_constants: the lazy chain's for
    # binomial, and lambda_1 with the coupling beta_tilde for coupling.
    lam, big_k, beta_tilde, v_c, b, coupling_beta_tilde = _contracting_constants(theta, c)
    if method == "coupling":
        return _lambda1(lam, b, v_c), big_k, coupling_beta_tilde, coupling_beta_tilde
    if method == "binomial":
        return _lazy_constants(lam, big_k, beta_tilde, beta_tilde, False, v_c)
    return lam, big_k, beta_tilde, beta_tilde


def _contracting_floor(method: str, constants: tuple) -> float:
    # A closed-form floor on the method's rate at c from its _floor_constants,
    # with no DriftMinorization built. thm1.3, binomial and coupling take
    # their rate's own formula, the rate itself where the constants are
    # valid; thm1.2 takes bounds._reversible_rho_floor and thm1.1
    # bounds._rho_floor. Invalid constants rate inf, above
    # any floor. -inf where the rate may raise (coupling with lambda_1 >= 1,
    # thm1.2 where its solve may) or the floats give no number, so the
    # search rates that c before any other, as a scan in grid order would.
    lam, big_k, beta, beta_tilde = constants
    try:
        if method == "coupling":
            floor = _coupling_rate(lam, big_k, beta_tilde) if lam < 1.0 else -math.inf
        else:
            *exponents, r0 = split_exponents(lam, big_k, beta_tilde, NU_CONCENTRATED)
            if method == "thm1.1":
                floor = _rho_floor(lam, beta, beta_tilde, *exponents, r0)
            elif method == "thm1.2":
                floor = _reversible_rho_floor(lam, beta, beta_tilde, *exponents, r0)
            else:
                floor = _rate(lam, r0)  # rho_positive's rate
                if method == "binomial":
                    floor = floor**2
    except (ArithmeticError, ValueError, OutOfRange):
        return -math.inf
    return -math.inf if math.isnan(floor) else floor


def _c_grid(lo: float, hi: float) -> list[float]:
    # numpy.arange(lo, hi + 1e-12, 0.01) without numpy, bit for bit: arange
    # fills lo + i * d with the step d = (lo + 0.01) - lo as rounded, not
    # 0.01, and takes ceil((stop - lo) / 0.01) points.
    d = (lo + 0.01) - lo
    return [lo + i * d for i in range(math.ceil((hi + 1e-12 - lo) / 0.01))]


def _c_range(method: str) -> tuple:
    # The c range that a method's contracting search covers: coupling needs c > sqrt(2).
    lo, hi = _C_RANGE
    return (max(lo, math.sqrt(2.0) + 1e-6) if method == "coupling" else lo), hi


def optimize_contracting_tuning(method: str, theta: float) -> dict:
    """Grid-search the small-set half-width c in _c_range(method), at step
    0.01, to minimise rho for fixed theta.

    A c where the method has no rate (invalid constants, no drift) is
    skipped; an unknown method or a theta outside (-1, 1) raises
    InvalidParams. Each c gets a closed-form floor on the method's rate from
    floats (``_contracting_floor``): the rate itself for thm1.3, binomial
    and coupling, the rate at the closed-form upper end of the R2 crossing
    for thm1.2 and ``bounds._rho_floor`` for thm1.1; -inf where the rate may
    raise. The c values are visited in increasing (floor, index) order up to
    the first floor above the best rate so far, and each visited c is rated
    by method_rho. The first c with the lowest rate wins, as in the full
    scan, bit for bit, and a c that may raise is rated before all others, in
    grid order, so an error comes from the c where the full scan raises it.
    edge is {"c": "lower"} or {"c": "upper"} where the winner is the first
    or last c of the grid, else None.
    """
    if method not in RATE_METHODS:
        raise InvalidParams(f"method must be one of {sorted(RATE_METHODS)}")
    if not (-1.0 < theta < 1.0):
        raise InvalidParams(f"theta must lie in (-1, 1), got {theta}")
    cs = _c_grid(*_c_range(method))
    floors = [_contracting_floor(method, _floor_constants(method, theta, c)) for c in cs]
    best_rho, best_i = math.inf, -1
    for i in sorted(range(len(cs)), key=floors.__getitem__):  # stable: ties by index
        if floors[i] > best_rho:
            break
        rho = _contracting_rho_or_inf(method, theta, cs[i])
        if rho < best_rho or (rho == best_rho and i < best_i):
            best_rho, best_i = rho, i
    best_c = cs[best_i] if best_i >= 0 else None
    edge = _range_edge({"c": (best_c, (cs[0], cs[-1]))})
    return {"c": best_c, "rho": best_rho, "one_minus_rho": 1.0 - best_rho, "edge": edge}
