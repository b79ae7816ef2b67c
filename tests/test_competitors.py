import math

import pytest

from ergocert.competitors import CouplingInput, coupling_rho, mt_zeta, mtb_zeta
from ergocert.errors import CouplingFails, InvalidParams
from ergocert.models import (
    ReflectingWalk,
    contracting_coupling_input,
    reflecting_walk_params,
)

WALK_09 = reflecting_walk_params(ReflectingWalk(p=0.9))
WALK_23 = reflecting_walk_params(ReflectingWalk(p=2.0 / 3.0))


def test_mt_zeta_table_values():
    assert abs(mt_zeta(WALK_23.lam, WALK_23.big_k, WALK_23.beta) / 1119.0 - 1.0) <= 0.005
    assert abs(mt_zeta(WALK_09.lam, WALK_09.big_k, WALK_09.beta) / 78.77 - 1.0) <= 0.005


def test_mt_zeta_unit_case():
    # beta = 1 and K - lambda = 1 - lambda: (32 - 8) / 1 * 1 = 24.
    assert mt_zeta(0.5, 1.0, 1.0) == pytest.approx(24.0, abs=1e-12)


def test_mtb_zeta_table_values():
    assert abs(mtb_zeta(WALK_23.lam, WALK_23.big_k, WALK_23.beta) / 63.55 - 1.0) <= 0.005
    assert abs(mtb_zeta(WALK_09.lam, WALK_09.big_k, WALK_09.beta) / 2.764 - 1.0) <= 0.005


def test_mtb_zeta_log_term_vanishes():
    assert mtb_zeta(0.3, 1.0, 0.7) == pytest.approx(1.0, abs=1e-12)


def test_mtb_below_mt_on_benchmarks():
    for p in (WALK_09, WALK_23):
        assert mtb_zeta(p.lam, p.big_k, p.beta) < mt_zeta(p.lam, p.big_k, p.beta)


def test_zeta_validation():
    with pytest.raises(InvalidParams):
        mt_zeta(1.2, 2.0, 0.5)
    with pytest.raises(InvalidParams):
        mtb_zeta(0.5, 0.4, 0.5)


@pytest.mark.parametrize("zeta", [mt_zeta, mtb_zeta])
@pytest.mark.parametrize("big_k", [math.nan, math.inf])
def test_zeta_rejects_nonfinite_k(zeta, big_k):
    with pytest.raises(InvalidParams, match="K must be finite"):
        zeta(0.5, big_k, 0.5)


def test_coupling_contracting_anchor():
    rho = coupling_rho(contracting_coupling_input(0.5, 2.1))
    assert abs(rho - 0.946) <= 0.002
    rho = coupling_rho(contracting_coupling_input(0.9, 1.5))
    assert abs(rho - 0.99998) <= 0.002


def test_coupling_lambda1_fold():
    c_in = contracting_coupling_input(0.5, 2.1)
    expected = 0.25 + 4.0 * 0.75 / (2.0 + 2.1**2)
    assert c_in.lambda1 == pytest.approx(expected, rel=1e-12)


def test_coupling_rho_dominates_lambda1():
    for theta, c in ((0.5, 2.1), (0.75, 1.7), (0.9, 1.5)):
        c_in = contracting_coupling_input(theta, c)
        assert coupling_rho(c_in) >= c_in.lambda1


def test_coupling_fails_when_lambda1_exceeds_one():
    c_in = CouplingInput(lam=0.9, b=1.0, v_min_outside=1.0, big_k=2.0, beta_tilde=0.3)
    assert c_in.lambda1 >= 1.0
    with pytest.raises(CouplingFails):
        coupling_rho(c_in)


def test_coupling_input_validation():
    with pytest.raises(InvalidParams):
        CouplingInput(lam=0.5, b=-0.1, v_min_outside=2.0, big_k=2.0, beta_tilde=0.3)
    with pytest.raises(InvalidParams):
        CouplingInput(lam=0.5, b=0.1, v_min_outside=0.5, big_k=2.0, beta_tilde=0.3)
    with pytest.raises(InvalidParams):
        CouplingInput(lam=0.5, b=0.1, v_min_outside=2.0, big_k=0.2, beta_tilde=0.3)


@pytest.mark.parametrize("field", ["b", "v_min_outside", "big_k"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_coupling_input_rejects_nonfinite_constants(field, value):
    # Unchecked, v_min_outside = nan gave rho = nan, big_k = nan gave
    # lambda_1 itself and big_k = inf gave rho = 1.
    fields = dict(lam=0.5, b=1.0, v_min_outside=2.0, big_k=2.0, beta_tilde=0.5)
    assert 0.0 < coupling_rho(CouplingInput(**fields)) < 1.0
    with pytest.raises(InvalidParams):
        CouplingInput(**{**fields, field: value})
