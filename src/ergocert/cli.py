"""Command-line front end.

Subcommands:

  bound    certificate from raw drift/minorization constants
  model    certificate (or exact rate / tuned rate) for a benchmark chain
  table    recompute one of the benchmark tables 1-6 and diff it
  verify   run the oracle suites (kendall | matrix | mc | all)

Exit codes: 0 success, 1 a verification check failed or the reader
closed standard output early (as in ``| head -1``), 2 usage or validation
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import bounds, models, tables
from .errors import ErgoCertError

__all__ = ["main"]


def _fmt(value, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{precision}g}"
    return str(value)


def _emit_result(args, data, text: str, rows: list[dict], quoted=()) -> int:
    # A result in the format asked for, to stdout or --output: data as JSON,
    # rows as CSV headed by the first row's keys (the quoted columns hold
    # free text that may contain commas), or the given text. Returns the
    # exit code 0.
    if args.format == "json":
        import json  # here, not at the top: text and CSV runs never load it

        text = json.dumps(data, indent=2)
    elif args.format == "csv":
        columns, precision = list(rows[0]), args.precision
        lines = [",".join(columns)]
        lines += [
            ",".join(f'"{row[c]}"' if c in quoted else _fmt(row[c], precision) for c in columns)
            for row in rows
        ]
        text = "\n".join(lines)
    if args.output is None:
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def _flatten(data: dict) -> dict:
    # One CSV row of a result: each entry of a nested dict becomes a column
    # <key>_<name>, with diagnostics shortened to diag_<name>.
    row = {}
    for key, value in data.items():
        if isinstance(value, dict):
            prefix = "diag" if key == "diagnostics" else key
            row.update({f"{prefix}_{k}": v for k, v in value.items()})
        else:
            row[key] = value
    return row


def _emit_certificate(args, cert: bounds.Certificate) -> int:
    data = cert.to_dict()
    lines = [f"{k:<12}{_fmt(v, args.precision)}" for k, v in data.items() if k != "diagnostics"]
    lines.append("diagnostics:")
    diagnostics = data["diagnostics"].items()
    lines += [f"  {k:<16}{_fmt(v, args.precision)}" for k, v in diagnostics if k != "R_tilde_edge"]
    edge = data["diagnostics"].get("R_tilde_edge")
    if edge:
        lines.append(f"warning: R_tilde sits at the {edge} end of the window [1 + 1e-9, R0 - 1e-9]")
    return _emit_result(args, data, "\n".join(lines), [_flatten(data)])


def _render_records(records: list[dict], precision: int) -> str:
    columns = ["table", "row", "case", "quantity", "published", "computed", "abs_diff", "note"]
    rows = [{c: _fmt(rec[c], precision) for c in columns} for rec in records]
    widths = {c: max([len(c)] + [len(row[c]) for row in rows]) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "-" * len(header)]
    lines += ["  ".join(row[c].ljust(widths[c]) for c in columns) for row in rows]
    return "\n".join(lines)


def _render_suites(reports: list, precision: int) -> str:
    lines = []
    for rep in reports:
        good, total = rep.counts
        status = "pass" if rep.passed else "FAIL"
        lines.append(f"suite {rep.name}: {status}, {good}/{total}")
        for c in rep.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(
                f"  {mark} {c.name}: measured {_fmt(c.measured, precision)} "
                f"vs bound {_fmt(c.bound, precision)} (margin {_fmt(c.margin, 3)})"
                + (f" [{c.detail}]" if c.detail else "")
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _drift_from_args(args) -> bounds.DriftMinorization:
    nu_info = {
        "none": bounds.NU_NONE,
        "concentrated": bounds.NU_CONCENTRATED,
        "v-integral": bounds.NU_V_INTEGRAL,
    }[args.nu]
    return bounds.DriftMinorization(
        lam=args.lam,
        big_k=args.big_k,
        beta=args.beta,
        beta_tilde=1.0 if args.beta_tilde is None else args.beta_tilde,
        atomic=args.atomic,
        nu_info=nu_info,
        k_tilde=args.k_tilde,
    )


def _cmd_bound(args) -> int:
    if args.atomic:
        # An atom's certificate reads no side information about nu.
        given = {"--nu": args.nu != "none", "--K-tilde": args.k_tilde is not None}
        unread = [flag for flag, is_given in given.items() if is_given]
        if unread:
            raise ErgoCertError(f"bound --atomic does not read {', '.join(unread)}")
    elif args.beta_tilde is None:
        raise ErgoCertError("nonatomic input requires --beta-tilde")
    cert = bounds.certificate(_drift_from_args(args), args.symmetry, args.gamma)
    return _emit_certificate(args, cert)


def _chain(args) -> models.ModelSpec:
    if args.model == "reflecting-walk":
        return models.ReflectingWalk(p=args.p, epsilon=args.epsilon)
    if args.model == "mh-normal":
        return models.MetropolisNormal(d=args.d, s=args.s, nu_variant=_nu_variant(args))
    return models.ContractingNormal(theta=args.theta, c=args.c)


def _nu_variant(args) -> str:
    # --nu defaults to mt; its default is None so that a given --nu shows.
    return models.INFIMUM_MEASURE if args.nu == "infimum" else models.MT_MEASURE


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ErgoCertError(f"{args.model} requires --" + ", --".join(missing))


# The model methods whose output is a rate alone, with no gamma or M.
_RATE_ONLY_METHODS = ("coupling", "binomial", "exact")
# The flags each model reads, all required but epsilon and nu; --optimize
# tunes d, s and c instead of reading them.
_MODEL_FLAGS = {"reflecting-walk": ("p", "epsilon"), "mh-normal": ("d", "s", "nu"),
                "contracting-normal": ("theta", "c")}


def _cmd_model(args) -> int:
    precision = args.precision
    read = [f for f in _MODEL_FLAGS[args.model] if not (args.optimize and f in ("d", "s", "c"))]
    unread = [f"--{f}" for fs in _MODEL_FLAGS.values() for f in fs
              if f not in read and getattr(args, f) is not None]
    if unread:
        used = f"{args.model} --optimize" if args.optimize else args.model
        raise ErgoCertError(f"{used} does not read {', '.join(unread)}")
    _require(args, [f for f in read if f not in ("epsilon", "nu")])

    if args.gamma is not None and (args.optimize or args.method in _RATE_ONLY_METHODS):
        used = "--optimize" if args.optimize else f"--method {args.method}"
        raise ErgoCertError(f"--gamma applies to certificates only; {used} prints no gamma")

    if args.optimize:
        return _cmd_model_optimize(args)

    if args.method == "exact":
        if args.model != "reflecting-walk":
            raise ErgoCertError("--method exact applies to reflecting-walk only")
        _require(args, ["p", "epsilon"])
        rho_v = models.reflecting_walk_rho_exact(args.p, args.epsilon)
        payload = {"model": args.model, "p": args.p, "epsilon": args.epsilon, "rho_V": rho_v}
        return _emit_result(args, payload, f"rho_V = {_fmt(rho_v, precision)}", [_flatten(payload)])

    if args.method == "coupling":
        if args.model == "reflecting-walk":
            raise ErgoCertError("coupling is available for mh-normal and contracting-normal")
        rho = models.method_rho("coupling", _chain(args))
        payload = {"model": args.model, "method": "coupling", "rho": rho, "one_minus_rho": 1 - rho}
        text = f"rho = {_fmt(rho, precision)}  (1-rho = {_fmt(1 - rho, precision)})"
        return _emit_result(args, payload, text, [_flatten(payload)])

    if args.method == "binomial":
        if args.model == "mh-normal":
            raise ErgoCertError("binomial modification is set up for walks and contracting normals")
        rho = bounds.rho_positive(_chain(args).lazy_params()).rho
        payload = {
            "model": args.model,
            "method": "binomial-modification",
            "rho_lazy": rho,
            "rho_lazy_squared": rho * rho,
        }
        text = f"rho_lazy = {_fmt(rho, precision)}  rho_lazy^2 = {_fmt(rho * rho, precision)}"
        return _emit_result(args, payload, text, [_flatten(payload)])

    params = _chain(args).params()
    cert = bounds.certificate(params, models.THEOREM_SYMMETRY[args.method], args.gamma)
    return _emit_certificate(args, cert)


def _cmd_model_optimize(args) -> int:
    if args.model == "mh-normal":
        result = models.optimize_mh_tuning(args.method, _nu_variant(args))
        tuned = {"d": result["d"], "s": result["s"]}
        scanned = {"d": models._D_RANGE, "s": models._S_RANGE}
    elif args.model == "contracting-normal":
        result = models.optimize_contracting_tuning(args.method, args.theta)
        tuned = {"c": result["c"]}
        scanned = {"c": models._c_range(args.method)}
    else:
        raise ErgoCertError("--optimize applies to mh-normal and contracting-normal")
    if None in tuned.values():
        # rho = inf: the payload would print Infinity, which is not JSON.
        ranges = ", ".join(f"{k} in [{lo}, {hi}]" for k, (lo, hi) in scanned.items())
        raise ErgoCertError(f"no tuning with {ranges} has a {args.method} rate")
    edge = result["edge"]
    payload = {
        "model": args.model,
        "method": args.method,
        "tuned": tuned,
        "rho": result["rho"],
        "one_minus_rho": result["one_minus_rho"],
        "edge": edge,
    }
    knobs = ", ".join(f"{k}={_fmt(v, args.precision)}" for k, v in tuned.items())
    text = (
        f"tuned {knobs}: rho = {_fmt(result['rho'], args.precision)} "
        f"(1-rho = {_fmt(result['one_minus_rho'], args.precision)})"
    )
    if edge:
        ends = " and ".join(
            f"the {end} end of {k} in [{scanned[k][0]}, {scanned[k][1]}]" for k, end in edge.items()
        )
        text += f"\nwarning: the winner sits at {ends}"
    # One CSV header for every search: edge, whose keys vary, is left to the
    # JSON and the text warning.
    row = _flatten({k: v for k, v in payload.items() if k != "edge"})
    return _emit_result(args, payload, text, [row])


def _cmd_table(args) -> int:
    records = tables.build_table(args.number)
    text = _render_records(records, args.precision)
    return _emit_result(args, records, text, records, quoted=("case", "note"))


def _cmd_verify(args) -> int:
    # The oracles need numpy; imported here, the other commands never load it.
    from . import verify

    if args.suite == "kendall":
        reports = [verify.run_kendall_suite(seed=args.seed)]
    elif args.suite == "matrix":
        reports = [verify.run_matrix_suite()]
    elif args.suite == "mc":
        reports = [verify.run_mc_suite(seed=args.seed)]
    else:
        reports = verify.run_all_suites(seed=args.seed)
    rows = [{"suite": rep.name, **c.to_dict()} for rep in reports for c in rep.checks]
    data = [rep.to_dict() for rep in reports]
    _emit_result(args, data, _render_suites(reports, args.precision), rows, quoted=("detail",))
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    # argparse names the flag in front of this message.
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument("--precision", type=_non_negative_int, default=6, help="significant digits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergocert",
        description="Geometric-convergence certificates for Markov chains "
        "from one-step drift and minorization constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="certificate from raw constants")
    p_bound.add_argument("--lambda", dest="lam", type=float, required=True)
    p_bound.add_argument("--K", dest="big_k", type=float, required=True)
    p_bound.add_argument("--beta", type=float, required=True)
    p_bound.add_argument("--beta-tilde", dest="beta_tilde", type=float, default=None)
    p_bound.add_argument("--atomic", action="store_true")
    p_bound.add_argument("--nu", choices=("none", "concentrated", "v-integral"), default="none")
    p_bound.add_argument("--K-tilde", dest="k_tilde", type=float, default=None)
    p_bound.add_argument(
        "--symmetry",
        choices=("general", "reversible", "reversible-positive"),
        default="general",
    )
    p_bound.add_argument("--gamma", type=float, default=None)
    _add_common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_model = sub.add_parser("model", help="certificate for a benchmark chain")
    p_model.add_argument(
        "model", choices=("reflecting-walk", "mh-normal", "contracting-normal")
    )
    p_model.add_argument("--p", type=float, default=None)
    p_model.add_argument("--epsilon", type=float, default=None)
    p_model.add_argument("--d", type=float, default=None)
    p_model.add_argument("--s", type=float, default=None)
    p_model.add_argument("--nu", choices=("mt", "infimum"), default=None, help="default mt")
    p_model.add_argument("--theta", type=float, default=None)
    p_model.add_argument("--c", type=float, default=None)
    p_model.add_argument(
        "--method",
        choices=("thm1.1", "thm1.2", "thm1.3", "coupling", "binomial", "exact"),
        default="thm1.2",
    )
    p_model.add_argument("--optimize", action="store_true", help="tune (d,s) or c to minimise rho")
    p_model.add_argument("--gamma", type=float, default=None)
    _add_common(p_model)
    p_model.set_defaults(func=_cmd_model)

    p_table = sub.add_parser("table", help="recompute a benchmark table")
    p_table.add_argument("number", type=int, choices=tables.TABLE_NUMBERS)
    _add_common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run oracle suites")
    p_verify.add_argument("suite", choices=("kendall", "matrix", "mc", "all"))
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone: stop quietly. Python flushes stdout again at
        # exit, so point it at devnull first (the recipe of the signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ErgoCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
