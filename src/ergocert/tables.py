"""Recompute the benchmark tables and diff them against published values.

Every cell is returned as one record:

    {table, row, case, quantity, published, computed, abs_diff, note}

with computed=None for cells whose inputs were never published (those are
reported as skipped instead of silently dropped).
"""

from __future__ import annotations

from . import paper_values as pv
from .competitors import mt_zeta, mtb_zeta
from .errors import InvalidParams
from .models import (
    ContractingNormal,
    MetropolisNormal,
    ReflectingWalk,
    method_rho,
    reflecting_walk_rho_exact,
    INFIMUM_MEASURE,
    MT_MEASURE,
)

__all__ = ["build_table", "TABLE_NUMBERS"]

TABLE_NUMBERS = (1, 2, 3, 4, 5, 6)


def _record(table, row, case, quantity, published, computed, note=""):
    diff = None if computed is None or published is None else abs(computed - published)
    return {
        "table": table,
        "row": row,
        "case": case,
        "quantity": quantity,
        "published": published,
        "computed": computed,
        "abs_diff": diff,
        "note": note,
    }


def _table1() -> list[dict]:
    records = []
    cases = {"p=2/3": 2.0 / 3.0, "p=0.9": 0.9}
    for row, case, quantity, published, computable, note in pv.TABLE1:
        if not computable:
            records.append(_record(1, row, case, quantity, published, None, f"skipped: {note}"))
            continue
        walk = ReflectingWalk(p=cases[case])
        if quantity == "zeta_C":
            p = walk.params()
            fn = mt_zeta if row == "MT" else mtb_zeta
            computed = fn(p.lam, p.big_k, p.beta)
        else:  # LT: stochastically monotone walk, rate lambda (thm1.3 on an atom)
            computed = method_rho({"1.1": "thm1.1", "1.2": "thm1.2", "LT": "thm1.3"}[row], walk)
        records.append(_record(1, row, case, quantity, published, computed, note))
    return records


def _mh_table(number: int, rows, nu_variant: str) -> list[dict]:
    records = []
    for method, d, s, published, computable, note in rows:
        case = f"d={d:g}, s={s:g}"
        if not computable:
            records.append(
                _record(number, method, case, "1-rho", published, None, f"skipped: {note}")
            )
            continue
        computed = 1.0 - method_rho(method, MetropolisNormal(d=d, s=s, nu_variant=nu_variant))
        records.append(_record(number, method, case, "1-rho", published, computed, note))
    return records


def _table4() -> list[dict]:
    records = []
    for method, theta, c, published in pv.TABLE4:
        case = f"theta={theta:g}, c={c:g}"
        quantity = "rho_lazy^2" if method == "binomial" else "rho"
        computed = method_rho(method, ContractingNormal(theta=theta, c=c))
        records.append(_record(4, method, case, quantity, published, computed))
    return records


def _table5() -> list[dict]:
    records = []
    for i, (p, eps) in enumerate(pv.TABLE5_CASES):
        case = f"p={p:g}, eps={eps:g}"
        records.append(
            _record(
                5, "rho_F", case, "rho", pv.TABLE5_RHO_F[i], None,
                "skipped: external multi-step estimates",
            )
        )
        rho = method_rho("thm1.2", ReflectingWalk(p=p, epsilon=eps))
        records.append(_record(5, "rho", case, "rho", pv.TABLE5_RHO[i], rho))
        records.append(
            _record(5, "rho_V", case, "rho", pv.TABLE5_RHO_V[i], reflecting_walk_rho_exact(p, eps))
        )
    return records


def _table6() -> list[dict]:
    records = []
    for p, published in pv.TABLE6:
        computed = method_rho("binomial", ReflectingWalk(p=p))
        records.append(_record(6, "binomial", f"p={p:g}", "rho_lazy^2", published, computed))
    return records


def build_table(number: int) -> list[dict]:
    """Records for one of the six benchmark tables."""
    if number == 1:
        return _table1()
    if number == 2:
        return _mh_table(2, pv.TABLE2, MT_MEASURE)
    if number == 3:
        return _mh_table(3, pv.TABLE3, INFIMUM_MEASURE)
    if number == 4:
        return _table4()
    if number == 5:
        return _table5()
    if number == 6:
        return _table6()
    raise InvalidParams(f"table number must be in 1..6, got {number}")
