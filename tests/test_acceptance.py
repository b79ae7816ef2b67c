"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are fixed here and match the published benchmark tables; nothing
is calibrated at runtime. Criteria 3 and 4 also hold every computed rate of
tables 5 and 6 to a 50-digit mpmath evaluation of its defining formula, made
here from p and eps alone. Each of those tables prints one cell that
disagrees with that formula (README, "Known discrepancies"): the two cells
are derived as the published values that miss the reference, asserted to be
exactly the known misprints, and printed on the verdict line.
"""

import math
from collections.abc import Sequence

import mpmath
import numpy as np
import pytest

from ergocert.bounds import (
    Certificate,
    certificate,
    _m_atomic_gamma,
    _m_nonatomic_gamma,
)
from ergocert.kendall import k1, solve_r1
from ergocert.models import (
    INFIMUM_MEASURE,
    MT_MEASURE,
    ReflectingWalk,
    optimize_mh_tuning,
    reflecting_walk_params,
)
from ergocert.tables import build_table
from ergocert.verify import (
    certificate_domination,
    choose_truncation,
    matrix_vnorm_distances,
    run_kendall_suite,
    walk_empirical_rate,
)
from ergocert import verify as verify_mod
from reference_forms import _m_atomic_r, _m_nonatomic_r, k1_single_fraction

SEED = 2026


def _report(number: int, name: str, failures: list[str], notes: Sequence[str] = ()) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{name}]: {verdict}" + "".join(f"; {n}" for n in notes))
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _cells(table_number: int) -> dict:
    return {
        (rec["row"], rec["case"], rec["quantity"]): rec
        for rec in build_table(table_number)
    }


# -- criterion 1: Table 1 ------------------------------------------------------


def test_criterion_01_table1():
    cells = _cells(1)
    failures = []

    def check(row, case, quantity, tol_abs=None, tol_rel=None):
        rec = cells[(row, case, quantity)]
        diff = abs(rec["computed"] - rec["published"])
        limit = tol_abs if tol_abs is not None else tol_rel * abs(rec["published"])
        if diff > limit:
            failures.append(
                f"{row} {case}: computed {rec['computed']:.6g} vs {rec['published']} "
                f"(diff {diff:.2e} > {limit:.2e})"
            )

    for case in ("p=2/3", "p=0.9"):
        check("1.1", case, "rho", tol_abs=1e-4)
        check("1.2", case, "rho", tol_abs=1e-4)
        check("LT", case, "rho", tol_abs=1e-4)
        check("MT", case, "zeta_C", tol_rel=0.005)
        check("MTB", case, "zeta_C", tol_rel=0.005)
        # The rate columns of the splitting-based rows stay unreproduced.
        for row in ("MT", "MTB", "MT*"):
            if cells[(row, case, "rho")]["computed"] is not None:
                failures.append(f"{row} {case}: rate cell should be skipped")
        if cells[("MT*", case, "zeta_C")]["computed"] is not None:
            failures.append(f"MT* {case}: zeta cell should be skipped")
    _report(1, "table 1 rates and renewal functionals", failures)


# -- criterion 2: Table 4 ------------------------------------------------------


def test_criterion_02_table4():
    failures = []
    for rec in build_table(4):
        diff = abs(rec["computed"] - rec["published"])
        if diff > 0.002:
            failures.append(
                f"{rec['row']} {rec['case']}: {rec['computed']:.6f} vs "
                f"{rec['published']} (diff {diff:.2e})"
            )
    _report(2, "table 4 contracting normals", failures)


# -- criteria 3 and 4: Tables 5 and 6 -----------------------------------------

# Computed rates must match the 50-digit reference to this absolute error.
REFERENCE_TOL = 1e-10

# The published cells that miss their own defining formula, with the values
# the paper prints (README, "Known discrepancies"): (row, case) -> published.
TABLE5_ERRATA = {("rho", "p=0.95, eps=0.5"): 0.6667}
TABLE6_ERRATA = {("binomial", "p=0.7"): 0.9186}


def _case_values(case: str) -> dict[str, float]:
    """"p=0.95, eps=0.5" -> {"p": 0.95, "eps": 0.5}."""
    return {k: float(v) for k, v in (part.split("=") for part in case.split(", "))}


def _table5_rho_reference(p: float, eps: float) -> mpmath.mpf:
    """Atomic reversible rate of the modified-boundary walk at 50 digits.

    lambda = 2 sqrt(pq), K = eps + (1-eps) sqrt(p/q), beta = eps. The rate
    is 1/R for the root R in (1, 1/lambda) of
    1 + 2*beta*R = R**(1 + log K / log(1/lambda)), and lambda itself when
    L = K/lambda <= 1 + 2*beta/lambda.
    """
    with mpmath.workdps(50):
        p, eps = mpmath.mpf(p), mpmath.mpf(eps)
        q = 1 - p
        lam = 2 * mpmath.sqrt(p * q)
        big_k = eps + (1 - eps) * mpmath.sqrt(p / q)
        if big_k / lam <= 1 + 2 * eps / lam:
            return lam
        exponent = 1 + mpmath.log(big_k) / mpmath.log(1 / lam)
        root = mpmath.findroot(
            lambda r: r**exponent - 1 - 2 * eps * r, (1, 1 / lam), solver="anderson"
        )
        return 1 / root


def _table6_reference(p: float) -> mpmath.mpf:
    """Squared lazy-chain rate ((1 + 2 sqrt(pq))/2)**2 at 50 digits: the
    atomic reversible-positive rate is the lazy drift rate (1 + lambda)/2."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return ((1 + 2 * mpmath.sqrt(p * (1 - p))) / 2) ** 2


def _check_against_reference(rec, reference, tol, errata, failures, notes) -> None:
    """Hold a computed cell to its reference at REFERENCE_TOL and to the
    published value at tol. A published value that itself misses the
    reference by more than tol is an erratum: it is recorded and printed, and
    only that cell is spared the published-value comparison."""
    label = f"{rec['row']} {rec['case']}"
    off = abs(rec["computed"] - reference)
    if off > REFERENCE_TOL:
        failures.append(
            f"{label}: {rec['computed']!r} vs defining formula {mpmath.nstr(reference, 17)} "
            f"(diff {float(off):.2e} > {REFERENCE_TOL:g})"
        )
    if abs(rec["published"] - reference) > tol:
        errata[(rec["row"], rec["case"])] = rec["published"]
        notes.append(
            f"{label} erratum: published {rec['published']}, "
            f"defining formula {mpmath.nstr(reference, 6)}"
        )
    elif rec["abs_diff"] > tol:
        failures.append(
            f"{label}: {rec['computed']:.6f} vs {rec['published']} "
            f"(diff {rec['abs_diff']:.2e} > {tol:g})"
        )


def test_criterion_03_table5():
    failures, notes, errata = [], [], {}
    for rec in build_table(5):
        if rec["row"] == "rho_F":
            if rec["computed"] is not None:
                failures.append(f"rho_F {rec['case']}: should be skipped")
            continue
        if rec["row"] == "rho":
            reference = _table5_rho_reference(**_case_values(rec["case"]))
            _check_against_reference(rec, reference, 5e-4, errata, failures, notes)
            continue
        if rec["abs_diff"] > 1e-4:
            failures.append(
                f"{rec['row']} {rec['case']}: {rec['computed']:.6f} vs "
                f"{rec['published']} (diff {rec['abs_diff']:.2e} > 0.0001)"
            )
    if errata != TABLE5_ERRATA:
        failures.append(f"errata {errata} differ from the known misprints {TABLE5_ERRATA}")
    _report(3, "table 5 modified-boundary walk", failures, notes)


def test_criterion_04_table6():
    failures, notes, errata = [], [], {}
    for rec in build_table(6):
        reference = _table6_reference(**_case_values(rec["case"]))
        _check_against_reference(rec, reference, 1e-4, errata, failures, notes)
    if errata != TABLE6_ERRATA:
        failures.append(f"errata {errata} differ from the known misprints {TABLE6_ERRATA}")
    _report(4, "table 6 lazy-walk rates", failures, notes)


# -- criterion 5: Tables 2/3 ---------------------------------------------------


def test_criterion_05_tables_2_3():
    failures = []
    for number in (2, 3):
        for rec in build_table(number):
            if rec["computed"] is None:
                continue
            published = rec["published"]
            computed = rec["computed"]
            if rec["row"] == "thm1.1":
                ok = published / 2.0 <= computed <= published * 2.0
                label = "factor 2"
            else:
                ok = abs(computed / published - 1.0) <= 0.15
                label = "15%"
            if not ok:
                failures.append(
                    f"table {number} {rec['row']}: 1-rho {computed:.4g} vs "
                    f"{published:.4g} (outside {label})"
                )
    # Self-tuned (d, s) must recover at least 85% of the published optimum.
    published_best = {
        (2, MT_MEASURE, "thm1.1"): 6.3e-7,
        (2, MT_MEASURE, "thm1.2"): 0.0091,
        (2, MT_MEASURE, "thm1.3"): 0.0253,
        (2, MT_MEASURE, "coupling"): 0.00068,
        (3, INFIMUM_MEASURE, "thm1.1"): 1.7e-6,
        (3, INFIMUM_MEASURE, "thm1.2"): 0.0135,
        (3, INFIMUM_MEASURE, "thm1.3"): 0.0333,
        (3, INFIMUM_MEASURE, "coupling"): 0.00187,
    }
    for (number, measure, method), best in published_best.items():
        tuned = optimize_mh_tuning(method, measure)
        if tuned["one_minus_rho"] < 0.85 * best:
            failures.append(
                f"table {number} {method} self-tuned 1-rho {tuned['one_minus_rho']:.3g} "
                f"< 0.85 x {best:.3g}"
            )
    _report(5, "tables 2/3 and self-tuning", failures)


# -- criterion 6: randomized renewal oracle ------------------------------------


def test_criterion_06_kendall_oracle():
    suite = run_kendall_suite(seed=SEED)
    failures = [
        f"{c.name}: measured {c.measured:.6g} vs bound {c.bound:.6g} ({c.detail})"
        for c in suite.checks
        if not c.passed
    ]
    good, total = suite.counts
    if total != 202:
        failures.append(f"expected 202 checks, ran {total}")
    _report(6, f"kendall oracle soundness ({good}/{total})", failures)


# -- criteria 7 and 8: matrix oracle -------------------------------------------


@pytest.fixture(scope="module")
def truncations():
    specs = {
        "p=2/3": ReflectingWalk(p=2.0 / 3.0),
        "p=0.9": ReflectingWalk(p=0.9),
        "p=0.8,eps=0.25": ReflectingWalk(p=0.8, epsilon=0.25),
        "p=0.9,eps=0.25": ReflectingWalk(p=0.9, epsilon=0.25),
    }
    return {name: (spec, choose_truncation(spec, 30, 200)) for name, spec in specs.items()}


def test_criterion_07_certificate_domination(truncations):
    failures = []
    cases = [
        ("p=2/3", ("general", "reversible", "reversible-positive")),
        ("p=0.9", ("general", "reversible", "reversible-positive")),
        ("p=0.8,eps=0.25", ("general", "reversible")),
    ]
    tables = {}
    for name, symmetries in cases:
        spec, tc = truncations[name]
        table = tables[name] = matrix_vnorm_distances(tc, np.arange(31), 200)
        params = reflecting_walk_params(spec)
        for symmetry in symmetries:
            cert = certificate(params, symmetry)
            rep = certificate_domination(tc, table, cert)
            if not rep.passed:
                failures.append(f"{name} {symmetry}: {rep.detail}")
    # Falsification control: a certificate with M scaled down by 1e3 must fail.
    spec, tc = truncations["p=0.9"]
    cert = certificate(reflecting_walk_params(spec), "reversible")
    weak = Certificate(
        rho=cert.rho, gamma=cert.gamma, big_m=cert.big_m * 1e-3,
        symmetry=cert.symmetry, method=cert.method, params=cert.params,
        diagnostics=cert.diagnostics,
    )
    if certificate_domination(tc, tables["p=0.9"], weak).passed:
        failures.append("control: weakened certificate unexpectedly dominated")
    _report(7, "certificate domination vs matrix oracle", failures)


def test_criterion_08_exact_rate_agreement(truncations):
    failures = []
    for name, expected in (
        ("p=0.8,eps=0.25", (0.8 * 0.2 + 0.55**2) / 0.55),
        ("p=0.9,eps=0.25", (0.9 * 0.1 + 0.65**2) / 0.65),
    ):
        _, tc = truncations[name]
        rate = walk_empirical_rate(matrix_vnorm_distances(tc, 0, 160), 80, 160)
        if abs(rate - expected) > 0.01:
            failures.append(f"{name}: empirical {rate:.5f} vs exact {expected:.5f}")
    _report(8, "exact-rate agreement", failures)


# -- criterion 9: algebraic identities -----------------------------------------


def test_criterion_09_identities():
    rng = np.random.default_rng(SEED)
    failures = []
    for i in range(100):
        # Series-bound pair: nested vs single-fraction arrangement.
        beta = rng.uniform(0.05, 1.0)
        big_r = 1.0 + rng.uniform(0.02, 1.5)
        big_l = max(big_r, beta * big_r) * (1.0 + rng.uniform(0.0, 2.0))
        kp = (beta, big_r, big_l)
        r = 1.0 + rng.uniform(0.05, 0.95) * (solve_r1(*kp) - 1.0)
        a, b = k1(r, *kp), k1_single_fraction(r, *kp)
        if abs(a - b) > 1e-12 * max(abs(a), abs(b)):
            failures.append(f"case {i}: series-bound forms differ ({a} vs {b})")

        # Atomic constant, decay-factor form vs series-variable form.
        lam = rng.uniform(0.1, 0.9)
        big_k = 1.0 + rng.uniform(0.01, 3.0)
        gamma = rng.uniform(lam + 0.02 * (1.0 - lam), 0.995)
        k_factor = rng.uniform(0.5, 100.0)
        a = _m_atomic_gamma(lam, big_k, gamma, k_factor)
        b = _m_atomic_r(lam, big_k, 1.0 / gamma, k_factor)
        if abs(a - b) > 1e-12 * max(a, b):
            failures.append(f"case {i}: atomic constant forms differ ({a} vs {b})")

        # Split-chain constant, both arrangements.
        bt = rng.uniform(0.05, 0.95)
        a1 = 1.0 + math.log((big_k - bt) / (1.0 - bt)) / math.log(1.0 / lam)
        a2 = 1.0 + rng.uniform(0.0, 2.0)
        lower = max(lam, (1.0 - bt) ** (1.0 / a1))
        gamma = rng.uniform(lower + 0.02 * (1.0 - lower), 0.995)
        a = _m_nonatomic_gamma(lam, big_k, bt, a1, a2, gamma, k_factor)
        b = _m_nonatomic_r(lam, big_k, bt, a1, a2, 1.0 / gamma, k_factor)
        if abs(a - b) > 1e-12 * max(a, b):
            failures.append(f"case {i}: split-chain constant forms differ ({a} vs {b})")
    _report(9, "algebraic identities at 1e-12", failures)


# -- criterion 10: Monte Carlo -------------------------------------------------


def test_criterion_10_monte_carlo():
    failures = []
    for p in (2.0 / 3.0, 0.9):
        spec = ReflectingWalk(p=p)
        r = 1.0 / (2.0 * math.sqrt(p * (1.0 - p)))
        for x0 in (0, 3):
            rep = verify_mod.mc_regeneration(spec, x0=x0, r=r, samples=100_000, seed=SEED + x0)
            if not rep.passed:
                failures.append(f"p={p:.4g} x0={x0}: {rep.detail}")
    _report(10, "regeneration-moment Monte Carlo", failures)
