"""Independent oracles for the certified bounds.

Nothing in this module reuses the closed-form machinery it checks:

  * renewal sequences come from direct convolution of the increments, and
    decay rates from the roots of the increment polynomial;
  * distances to stationarity come from exact truncated transition matrices;
  * regeneration-time moments come from Monte Carlo simulation with a
    counter-based generator (reproducible for a fixed seed).

Reports follow one shape (name, measured, bound, margin, pass) and are
JSON-serialisable, so suites can be consumed by the CLI or by tests alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import kendall as kendall_mod
from .bounds import Certificate, certificate
from .errors import (
    HypothesisViolated,
    InvalidParams,
    OutOfRange,
    PeriodicSupport,
    TruncationTooSmall,
)
from .kendall import KendallParams
from .models import (
    ReflectingWalk,
    TruncatedChain,
    _is_int,
    reflecting_walk_params,
    reflecting_walk_rho_exact,
    walk_truncated_chain,
)

__all__ = [
    "IncrementDistribution",
    "RenewalSequence",
    "CheckReport",
    "SuiteReport",
    "renewal_from_increments",
    "increment_radius",
    "kendall_family_radius",
    "kendall_check",
    "matrix_vnorm_distances",
    "certificate_domination",
    "walk_empirical_rate",
    "choose_truncation",
    "mc_regeneration",
    "run_kendall_suite",
    "run_matrix_suite",
    "run_mc_suite",
    "run_all_suites",
]


@dataclass(frozen=True)
class IncrementDistribution:
    """Finite-support law of a positive-integer increment: probs[k] = b_{k+1}."""

    probs: tuple

    def __post_init__(self) -> None:
        b = np.asarray(self.probs, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise InvalidParams("probs must be a nonempty 1-D sequence")
        # Written so that NaN fails them; an infinite entry fails the sum.
        if not (b >= 0.0).all():
            raise InvalidParams("probabilities must be nonnegative")
        if not (abs(b.sum() - 1.0) <= 1e-12):
            raise InvalidParams(f"probabilities must sum to 1, got {b.sum()!r}")
        support = [k + 1 for k, w in enumerate(b) if w > 0.0]
        if math.gcd(*support) != 1:
            raise PeriodicSupport(f"gcd of support {support} exceeds 1")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @property
    def mean(self) -> float:
        b = self.array
        return float(np.dot(np.arange(1, b.size + 1), b))


@dataclass(frozen=True)
class RenewalSequence:
    """u_0..u_N by convolution plus the elementary-renewal limit, one row of
    u and one entry of u_inf per law."""

    u: np.ndarray
    u_inf: np.ndarray


@dataclass(frozen=True)
class CheckReport:
    name: str
    measured: float
    bound: float
    passed: bool
    detail: str = ""

    @property
    def margin(self) -> float:
        """Relative slack: positive means the bound holds with room."""
        scale = max(abs(self.bound), 1e-300)
        return (self.bound - self.measured) / scale

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class SuiteReport:
    name: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def to_dict(self) -> dict:
        good, total = self.counts
        return {
            "suite": self.name,
            "pass": self.passed,
            "passed_checks": good,
            "total_checks": total,
            "checks": [c.to_dict() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# renewal-sequence oracle
# ---------------------------------------------------------------------------


def renewal_from_increments(laws: Sequence[IncrementDistribution], n_max: int) -> RenewalSequence:
    """u_n = sum_{k<=n} b_k u_{n-k} with u_0 = 1; u_inf = 1 / mean increment.

    The laws (at least one; InvalidParams otherwise, or for n_max < 1) are
    zero-padded to the longest support and convolved together, one step of
    n for all of them at once.
    """
    if n_max < 1:
        raise InvalidParams("n_max must be >= 1")
    laws = list(laws)
    if not laws:
        raise InvalidParams("need at least one law")
    width = max(d.array.size for d in laws)
    # Reversed so that the last k columns meet u_{n-k}..u_{n-1} term by term.
    reversed_probs = np.zeros((len(laws), width))
    for row, d in zip(reversed_probs, laws):
        row[width - d.array.size :] = d.array[::-1]
    u = np.zeros((len(laws), n_max + 1))
    u[:, 0] = 1.0
    for n in range(1, n_max + 1):
        k = min(n, width)
        u[:, n] = np.einsum("ij,ij->i", reversed_probs[:, width - k :], u[:, n - k : n])
    return RenewalSequence(u=u, u_inf=np.array([1.0 / d.mean for d in laws]))


def _increment_radii(laws: Sequence[np.ndarray]) -> np.ndarray:
    """Exact radius of convergence of sum (u_n - u_inf) z^n, one per law
    (probs[k] = b_{k+1}).

    For a finite-support aperiodic increment law, u(z) = 1/(1 - b(z)) is
    rational; after removing the simple root at z = 1 the nearest remaining
    root of b(z) = 1 determines the radius (inf for the point mass at 1,
    whose u_n is constant). The roots are the eigenvalues of the companion
    matrix np.roots builds for b(z) - 1, with trailing zero probabilities
    stripped as np.roots strips leading zero coefficients, so the radii are
    np.roots' bit for bit; the laws of one stripped length share one stacked
    eigvals call.
    """
    lengths = np.array([np.flatnonzero(b)[-1] + 1 for b in laws])
    radii = np.empty(lengths.size)
    for m in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == m)
        # b(z) - 1, highest power first: b_m, ..., b_1, -1.
        coeffs = np.empty((rows.size, m + 1))
        coeffs[:, :m] = [laws[i][m - 1 :: -1] for i in rows.tolist()]
        coeffs[:, m] = -1.0
        companion = np.zeros((rows.size, m, m))
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots = np.linalg.eigvals(companion)
        radii[rows] = np.where(np.abs(roots - 1.0) > 1e-7, np.abs(roots), np.inf).min(axis=1)
    return radii


def increment_radius(b: IncrementDistribution) -> float:
    """Exact radius of convergence of sum (u_n - u_inf) z^n (see _increment_radii)."""
    return float(_increment_radii([b.array])[0])


def kendall_family_radius(beta: float, k: int) -> float:
    """Radius for the two-point family b(z) = beta z + (1-beta) z^k, k an
    integer >= 2."""
    if not (0.0 < beta < 1.0 and _is_int(k) and k >= 2):
        raise InvalidParams(f"need 0 < beta < 1 and an integer k >= 2, got beta={beta}, k={k}")
    probs = np.zeros(k)
    probs[0] = beta
    probs[-1] = 1.0 - beta
    return increment_radius(IncrementDistribution(probs=tuple(probs)))


# Renewal terms u_0..u_N that kendall_check convolves.
_RENEWAL_TERMS = 1200
# Rows per slice of the series sup. The 200-case suite in one slice raises
# peak RSS by about 4.2 MB; in 32-row slices by about 0.4 MB.
_SUP_ROWS = 32
# Equally spaced angles at which the series sup samples each circle.
_SUP_ANGLES = 64


def _series_sup_on_circle(deviations: np.ndarray, r: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
    """Per row i, max over sampled |z| = r_i of |sum_{n<=cutoff_i} deviations[i, n] z^n|
    (plus z = +-r_i).

    The phase matrix is built once; the rows are summed in slices of
    _SUP_ROWS, each only as far as its longest cutoff.
    """
    n = np.arange(int(cutoff.max()) + 1)
    angles = np.linspace(0.0, 2.0 * math.pi, _SUP_ANGLES, endpoint=False)
    phases = np.exp(1j * np.outer(n, angles))
    signs = np.power(-1.0, n)
    sup = np.empty(r.size)
    for lo in range(0, r.size, _SUP_ROWS):
        part = slice(lo, lo + _SUP_ROWS)
        width = int(cutoff[part].max()) + 1
        # Terms past a row's cutoff are selected away, not multiplied by
        # zero: r**n may overflow there, and 0 * inf would be NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            radial = np.where(
                n[:width] <= cutoff[part, None],
                deviations[part, :width] * np.power(r[part, None], n[:width]),
                0.0,
            )
        values = np.abs(radial @ phases[:width]).max(axis=1)
        on_axis = np.maximum(np.abs(radial.sum(axis=1)), np.abs(radial @ signs[:width]))
        sup[part] = np.maximum(values, on_axis)
    return sup


def kendall_check(cases: Sequence[tuple]) -> list[dict]:
    """Check the certified radius and series bound against increment laws.

    Each case is (law, KendallParams, r, R1, radius) with R1 =
    kendall.solve_r1(beta, big_r, big_l) of the params and radius =
    increment_radius(law); the result is one report per case, in order.
    Every case must have b_1 >= beta and sum b_k R^k <= L
    (HypothesisViolated otherwise) and 1 < r < R1 (OutOfRange otherwise); an
    empty batch raises InvalidParams.

    The reported decay rate is exact (from the increment-polynomial roots);
    the series sup is the truncated sum on 64 sampled angles of |z| = r plus
    the two real axis points, topped with a geometric tail majorant. All
    laws are convolved as one block, to u_N with N = _RENEWAL_TERMS.
    """
    for law, kp, r, r1, _ in cases:
        probs = law.array
        if probs[0] < kp.beta:
            raise HypothesisViolated(f"b_1 = {probs[0]} < beta = {kp.beta}")
        moment = np.dot(probs, np.power(kp.big_r, np.arange(1, probs.size + 1)))
        if moment > kp.big_l * (1.0 + 1e-12):
            raise HypothesisViolated(f"sum b_k R^k = {moment} exceeds L = {kp.big_l}")
        if not (1.0 < r < r1):
            raise OutOfRange(f"need 1 < r < R1 = {r1}, got r={r}")
    laws = [case[0] for case in cases]
    seq = renewal_from_increments(laws, _RENEWAL_TERMS)
    _, params, r, r1, radius = zip(*cases)
    r = np.asarray(r, dtype=float)
    rate = 1.0 / np.asarray(radius, dtype=float)
    deviations = seq.u - seq.u_inf[:, None]
    # The convolution resolves u_n - u_inf only down to a few ulp; beyond
    # that the values are rounding noise, and noise * r^n would grow without
    # meaning. Cut each series where its true deviations sink below float
    # visibility and majorise the remainder geometrically.
    resolved = np.abs(deviations) > 64.0 * np.finfo(float).eps
    cutoff = np.where(
        resolved.any(axis=1), _RENEWAL_TERMS - np.argmax(resolved[:, ::-1], axis=1), 0
    )
    truncated = _series_sup_on_circle(deviations, r, cutoff)
    # Envelope |u_n - u_inf| <= c * rate^n fitted on the last resolved
    # window of max(2m, 16) terms; rate * r < 1 is automatic because
    # r < R1 <= radius.
    widths = np.array([max(d.array.size * 2, 16) for d in laws])
    back = np.arange(widths.max())
    n_window = cutoff[:, None] - back
    in_window = (back < widths[:, None]) & (n_window >= 0)
    n_window = np.maximum(n_window, 0)
    window = np.abs(np.take_along_axis(deviations, n_window, axis=1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = window / np.power(rate[:, None], n_window)
        c_env = np.where(in_window, ratios, -np.inf).max(axis=1)
        q = rate * r
        tail = np.where(
            (rate > 0.0) & np.isfinite(c_env) & (q < 1.0),
            c_env * q ** (cutoff + 1) / (1.0 - q),
            0.0,
        )
    measured_sup = truncated + tail
    reports = []
    for i, kp in enumerate(params):
        bound = kendall_mod.k1(float(r[i]), kp.beta, kp.big_r, kp.big_l)
        rate_bound = 1.0 / r1[i] + 1e-6
        reports.append(
            {
                "measured_sup": float(measured_sup[i]),
                "bound": bound,
                "decay_rate": float(rate[i]),
                "decay_bound": rate_bound,
                "pass": bool(measured_sup[i] <= bound and rate[i] <= rate_bound),
            }
        )
    return reports


def _draw_admissible(rng: np.random.Generator, count: int) -> list[tuple]:
    """count random increment laws with admissible Kendall parameters and r,
    plus the R1 and increment radius computed on the way: (law,
    KendallParams, r, R1, radius) each.

    A candidate draws its support length m, a Dirichlet law and b_1, then
    the uniforms of beta, R and L; one whose decay rate 1/radius exceeds
    0.96 is dropped whole, which keeps tails resolvable at the fixed
    truncation length. The candidates still needed are drawn as one block
    with their radii computed together, so every draw and case is the one
    that drawing a candidate at a time gives.
    """
    cases = []
    while len(cases) < count:
        block = []
        for _ in range(count - len(cases)):
            m = int(rng.integers(2, 9))
            raw = rng.dirichlet(np.ones(m))
            b1 = 0.15 + 0.7 * rng.random()
            probs = np.empty(m)
            probs[0] = b1
            rest = raw[1:].sum()
            probs[1:] = raw[1:] * ((1.0 - b1) / rest) if rest > 0 else (1.0 - b1) / (m - 1)
            block.append((probs, rng.random(3).tolist()))
        radii = _increment_radii([probs for probs, _ in block]).tolist()
        for (probs, (u_beta, u_big_r, u_big_l)), radius in zip(block, radii):
            if 1.0 / radius > 0.96:
                continue
            beta = probs[0] * (0.6 + 0.4 * u_beta)
            big_r = 1.0 + 0.05 + 0.4 * u_big_r
            exact = float(np.dot(probs, np.power(big_r, np.arange(1, probs.size + 1))))
            big_l = exact * (1.0 + 0.3 * u_big_l)
            kp = KendallParams(beta=beta, big_r=big_r, big_l=big_l)
            r1 = kendall_mod.solve_r1(beta, big_r, big_l)
            law = IncrementDistribution(probs=tuple(probs))
            cases.append((law, kp, 1.0 + 0.9 * (r1 - 1.0), r1, radius))
    return cases


# Random increment laws the suite checks.
_KENDALL_CASES = 200
# Support lengths k of the two-point family whose radius the suite holds
# to the cubic law.
_ASYMPTOTIC_KS = (40, 80)


def run_kendall_suite(seed: int = 0) -> SuiteReport:
    """Randomised soundness checks plus the cubic-law radius asymptotics.

    All _KENDALL_CASES cases are drawn first (_draw_admissible), then
    checked together by one kendall_check.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    suite = SuiteReport(name="kendall")
    reports = kendall_check(_draw_admissible(rng, _KENDALL_CASES))
    for i, rep in enumerate(reports):
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
    for k in _ASYMPTOTIC_KS:
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


# ---------------------------------------------------------------------------
# truncated-matrix oracle
# ---------------------------------------------------------------------------


def matrix_vnorm_distances(tc: TruncatedChain, x: int | np.ndarray, n_max: int) -> np.ndarray:
    """V-weighted distances sum_y V(y) |P^n(x,y) - pi(y)| for n = 0..n_max.

    x is one start state or an integer array of them, and the result has
    x's shape plus a last axis for n; a float, bool or out-of-range state,
    or an n_max that is not an integer >= 0, raises InvalidParams. The
    deviation vectors e_n = (delta_x - pi) P^n of all
    start states step together as one block, so accuracy is relative to the
    decaying deviation rather than to the full probability scale. A step
    runs along the diagonals of P that hold a nonzero, found once per call:
    three for a reflecting walk, all 2N - 1 for a dense chain. Each
    step projects out the stationary component that rounding injects into
    each row (rows of P sum to one, so exact arithmetic would preserve
    sum(e) = 0). A start state's distances depend, in the last bits, on
    which other start states share its call: numpy may order the sums of
    a block differently from those of one row, so alone and inside a
    block they can differ by a few ulps. The suites repeat byte for byte
    only because each always builds the same blocks.
    """
    states = np.asarray(x)
    if states.dtype.kind not in "iu" or ((states < 0) | (states >= tc.n_states)).any():
        raise InvalidParams(f"start states must be integers in [0, {tc.n_states}), got {x!r}")
    if not (_is_int(n_max) and n_max >= 0):
        raise InvalidParams(f"n_max must be an integer >= 0, got {n_max!r}")
    matrix, size = tc.matrix, tc.n_states
    rows, cols = np.nonzero(matrix)
    # (e P)[j] = sum_i e[i] P[i, j]; along diagonal k the sources
    # i = max(-k, 0) .. size - 1 - max(k, 0) feed the destinations j = i + k.
    off_diagonals = [
        (
            slice(max(k, 0), size + min(k, 0)),
            slice(max(-k, 0), size - max(k, 0)),
            np.diagonal(matrix, k),
        )
        for k in np.unique(cols - rows).tolist()
        if k != 0
    ]
    main = np.diagonal(matrix)
    e = np.eye(size)[states] - tc.pi
    out = np.empty(states.shape + (int(n_max) + 1,))
    out[..., 0] = np.abs(e) @ tc.v
    for n in range(1, int(n_max) + 1):
        f = e * main
        for dst, src, diagonal in off_diagonals:
            f[..., dst] += e[..., src] * diagonal
        e = f
        e -= e.sum(axis=-1, keepdims=True) * tc.pi
        out[..., n] = np.abs(e) @ tc.v
    return out


def certificate_domination(
    tc: TruncatedChain, dist: np.ndarray, cert: Certificate, name: str = "domination"
) -> CheckReport:
    """Check distance(x, n) <= M V(x) gamma^n over a distance table.

    dist is matrix_vnorm_distances(tc, np.arange(X + 1), n_max): row x holds
    the distances from start state x for n = 0..n_max. A table that is not
    2-d, or has no rows, no columns or more rows than tc has states, raises
    InvalidParams. The reported measured/bound pair belongs to the worst
    (x, n), the first in x-major order where several tie; a ratio above one
    anywhere fails the check.
    """
    dist = np.asarray(dist)
    if dist.ndim != 2 or not 0 < dist.shape[0] <= tc.n_states or dist.shape[1] == 0:
        raise InvalidParams(
            f"need a table of 1..{tc.n_states} start states by n >= 0, got shape {dist.shape}"
        )
    x_count, n_count = dist.shape
    envelope = (cert.big_m * tc.v[:x_count])[:, None] * np.power(cert.gamma, np.arange(n_count))
    ratios = dist / envelope
    x, n = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    worst_ratio = float(ratios[x, n])
    return CheckReport(
        name=name,
        measured=float(dist[x, n]),
        bound=float(envelope[x, n]),
        passed=worst_ratio <= 1.0,
        detail=f"worst at x={x}, n={n}, ratio {worst_ratio:.3e}",
    )


def walk_empirical_rate(dist: np.ndarray, n_lo: int, n_hi: int) -> float:
    """Geometric-mean decay ratio over [n_lo, n_hi] of one row of distances
    (matrix_vnorm_distances from one start state). Needs 0 <= n_lo < n_hi
    and a row that reaches n_hi; InvalidParams otherwise."""
    if not (0 <= n_lo < n_hi):
        raise InvalidParams("need 0 <= n_lo < n_hi")
    dist = np.asarray(dist)
    if dist.ndim != 1 or n_hi >= dist.size:
        raise InvalidParams(f"need one row of distances up to n = {n_hi}, got shape {dist.shape}")
    return float((dist[n_hi] / dist[n_lo]) ** (1.0 / (n_hi - n_lo)))


# Each size is a dense N x N matrix: choose_truncation builds none larger.
_TRUNCATION_MAX_STATES = 8192


def choose_truncation(spec: ReflectingWalk, x_max: int, n_max: int) -> TruncatedChain:
    """Smallest power of two N >= max(64, x_max + n_max + 2) whose stationary
    tails beyond N, by mass and V-weighted, are both below 1e-12.

    No path of n <= n_max steps from x <= x_max gets past state x_max + n_max,
    so the top reflection never acts and P^n(x, .) is the infinite walk's; the
    distances differ from the infinite walk's only through the stationary law
    beyond N. No distance is computed to decide the size.
    """
    if not (_is_int(x_max) and _is_int(n_max) and x_max >= 0 and n_max >= 0):
        raise InvalidParams(f"need integers x_max, n_max >= 0, got {x_max}, {n_max}")
    reach = int(x_max) + int(n_max) + 2
    if reach > _TRUNCATION_MAX_STATES:
        raise TruncationTooSmall(f"reach x_max + n_max + 2 = {reach} > {_TRUNCATION_MAX_STATES}")
    size = max(64, 1 << (reach - 1).bit_length())
    # V pi falls by s = sqrt(q/p) per state: the V-weighted tail is s/(1-s) times V pi at the top.
    s = math.sqrt((1.0 - spec.p) / spec.p)
    while size <= _TRUNCATION_MAX_STATES:
        try:
            tc = walk_truncated_chain(spec, size)
        except TruncationTooSmall:
            pass
        else:
            if tc.v[-1] * tc.pi[-1] * s / (1.0 - s) < 1e-12:
                return tc
        size *= 2
    raise TruncationTooSmall(f"tails >= 1e-12 up to {_TRUNCATION_MAX_STATES} states")


# ---------------------------------------------------------------------------
# Monte Carlo regeneration oracle
# ---------------------------------------------------------------------------


def mc_regeneration(
    spec: ReflectingWalk,
    x0: int,
    r: float,
    samples: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Estimate E^x0[r^tau] for the walk and compare with the drift bound.

    tau is the first return time to C = {0}. The bound is r*K for x0 in C
    and V(x0) otherwise, valid for 1 <= r <= 1/lambda; the check is
    one-sided and passes when the sample mean is at most the bound plus
    three standard errors, however far below the bound it lies. x0 and
    samples must be integers (not bool), x0 >= 0 and samples >= 1;
    InvalidParams otherwise. Philox keeps runs reproducible for a fixed
    seed: step n draws one uniform per walker still out, in index order.
    """
    params = reflecting_walk_params(spec)
    if not (1.0 <= r <= params.lam_inv * (1.0 + 1e-12)):
        raise OutOfRange(f"need 1 <= r <= 1/lambda = {params.lam_inv}, got r={r}")
    if not (_is_int(samples) and samples >= 1):
        raise InvalidParams(f"samples must be an integer >= 1, got {samples!r}")
    # Below 0 the walk drifts away from C = {0}.
    if not (_is_int(x0) and x0 >= 0):
        raise InvalidParams(f"x0 must be a state of the walk, an integer >= 0, got {x0!r}")
    p = spec.p
    eps = spec.boundary_hold
    rng = np.random.Generator(np.random.Philox(seed))

    # Step 1 is the only one that can start in C: from 0 the walker holds
    # with probability eps, elsewhere it steps down with probability p.
    u = rng.random(samples)
    if x0 == 0:
        cur = (u >= eps).astype(np.int64)
    else:
        up = u >= p
        cur = np.full(samples, x0 - 1, dtype=np.int64)
        cur += up
        cur += up
    # The walkers still out, in index order, and their positions.
    idx = np.arange(samples)
    tau = np.zeros(samples, dtype=np.int64)
    step = 1
    while True:
        out = cur != 0
        returned = np.flatnonzero(~out)
        if returned.size:
            tau[idx[returned]] = step
            # np.compress gathers faster than boolean indexing here.
            idx, cur = np.compress(out, idx), np.compress(out, cur)
            if not idx.size:
                break
        step += 1
        if step > 10_000_000:
            raise RuntimeError("walk failed to return; parameters out of range?")
        up = rng.random(idx.size) >= p
        cur += up
        cur += up
        cur -= 1

    values = np.power(r, tau.astype(float))
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    if x0 == 0:
        bound = r * params.big_k
        where = "x0 in C"
    else:
        q = 1.0 - p
        bound = (p / q) ** (x0 / 2.0)
        where = "x0 outside C"
    return CheckReport(
        name=f"regeneration-p{p}-x{x0}",
        measured=mean,
        bound=bound + 3.0 * std_err,
        passed=mean <= bound + 3.0 * std_err,
        detail=f"{where}; mean r^tau = {mean:.6f}, drift bound {bound:.6f}, SE {std_err:.2e}",
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# Start states x <= _MATRIX_X_MAX and steps n <= _MATRIX_N_MAX of the matrix suite.
_MATRIX_X_MAX = 30
_MATRIX_N_MAX = 200


def run_matrix_suite() -> SuiteReport:
    """Domination and exact-rate checks on the walk benchmarks.

    The standard-boundary walks are stochastically monotone, so all three
    regimes apply. The modified-boundary walk is reversible but its exact
    rate exceeds lambda (it is nearly periodic), so only the general and
    reversible certificates are meaningful there. Each walk's truncation is
    sized once by the walk's reach (choose_truncation, no probe row) and
    serves all of its checks. Each walk's distance table over x = 0..30,
    n = 0..200 is computed once and serves all of its certificates, and the
    exact-rate check reads its row x = 0 from the table where there is one.
    """
    suite = SuiteReport(name="matrix")
    cases = [
        (ReflectingWalk(p=2.0 / 3.0), ("general", "reversible", "reversible-positive")),
        (ReflectingWalk(p=0.9), ("general", "reversible", "reversible-positive")),
        (ReflectingWalk(p=0.8, epsilon=0.25), ("general", "reversible")),
        (ReflectingWalk(p=0.9, epsilon=0.25), ()),
    ]
    truncations, tables, certs = {}, {}, {}
    for spec, symmetries in cases:
        tc = truncations[spec] = choose_truncation(spec, _MATRIX_X_MAX, _MATRIX_N_MAX)
        if not symmetries:
            continue
        dist = tables[spec] = matrix_vnorm_distances(
            tc, np.arange(_MATRIX_X_MAX + 1), _MATRIX_N_MAX
        )
        label = f"p{spec.p:.4g}" + ("" if spec.epsilon is None else f"-eps{spec.epsilon}")
        params = reflecting_walk_params(spec)
        for symmetry in symmetries:
            cert = certs[spec, symmetry] = certificate(params, symmetry)
            suite.checks.append(
                certificate_domination(tc, dist, cert, f"domination-{label}-{symmetry}")
            )
    # Falsification control: shrinking M by 1e3 must break domination.
    spec = ReflectingWalk(p=0.9)
    cert = certs[spec, "reversible"]
    crippled = replace(cert, big_m=cert.big_m * 1e-3)
    control = certificate_domination(truncations[spec], tables[spec], crippled, "control-shrunk-M")
    suite.checks.append(
        replace(
            control,
            passed=not control.passed,
            detail="harness sanity: weakened certificate must fail; " + control.detail,
        )
    )
    # Exact-rate agreement for the modified-boundary walks.
    # A walk with a distance table has its distances from x = 0 there.
    for p, eps in ((0.8, 0.25), (0.9, 0.25)):
        spec = ReflectingWalk(p=p, epsilon=eps)
        expected = reflecting_walk_rho_exact(p, eps)
        if spec in tables:
            row = tables[spec][0]
        else:
            row = matrix_vnorm_distances(truncations[spec], 0, 160)
        measured = walk_empirical_rate(row, 80, 160)
        suite.checks.append(
            CheckReport(
                name=f"exact-rate-p{p}-eps{eps}",
                measured=abs(measured - expected),
                bound=0.01,
                passed=abs(measured - expected) <= 0.01,
                detail=f"empirical {measured:.6f} vs exact {expected:.6f}",
            )
        )
    return suite


def run_mc_suite(seed: int = 0, samples: int = 100_000) -> SuiteReport:
    """Regeneration-time moment checks at r = 1/lambda."""
    suite = SuiteReport(name="mc")
    for p in (2.0 / 3.0, 0.9):
        spec = ReflectingWalk(p=p)
        lam_inv = reflecting_walk_params(spec).lam_inv
        for x0 in (0, 3):
            suite.checks.append(
                mc_regeneration(spec, x0=x0, r=lam_inv, samples=samples, seed=seed + x0)
            )
    return suite


def run_all_suites(seed: int = 0) -> list[SuiteReport]:
    return [run_kendall_suite(seed=seed), run_matrix_suite(), run_mc_suite(seed=seed)]
