import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ergocert import bounds, models
from ergocert.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "1.2", "--beta", "0.9",
        "--atomic", "--symmetry", "reversible-positive",
    )
    assert code == 0
    assert "rho         0.6" in out


def test_bound_reversible_table5_anchor(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "2.5", "--beta", "0.25",
        "--atomic", "--symmetry", "reversible", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["rho"] - 0.8470) <= 1e-4


def test_bound_missing_flag_exits_2():
    # argparse handles missing required flags with SystemExit(2).
    with pytest.raises(SystemExit) as err:
        main(["bound", "--lambda", "0.6", "--beta", "0.9", "--atomic"])
    assert err.value.code == 2


def test_bound_validation_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--lambda", "1.4", "--K", "2.0", "--beta", "0.5", "--atomic"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (("--K", "inf", "--beta", "0.5", "--atomic"), "K must be finite"),
        (
            ("--K", "2", "--beta", "0.2", "--beta-tilde", "0.4", "--nu", "v-integral",
             "--K-tilde", "inf", "--symmetry", "reversible"),
            "k_tilde",
        ),
        (
            ("--K", "2", "--beta", "0.2", "--beta-tilde", "0.4", "--nu", "v-integral",
             "--K-tilde", "nan"),
            "k_tilde",
        ),
    ],
)
def test_bound_non_finite_k_exits_2_naming_the_field(capsys, argv, field):
    code, out, err = run_cli(capsys, "bound", "--lambda", "0.5", *argv)
    assert code == 2 and out == ""
    assert field in err


def test_bound_atomic_rejects_beta_tilde_below_one(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "2.5", "--beta", "0.25",
        "--atomic", "--beta-tilde", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "beta_tilde = 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--nu", "concentrated"], "--nu"),
        (["--nu", "v-integral"], "--nu"),
        (["--K-tilde", "1.5"], "--K-tilde"),
        (["--nu", "v-integral", "--K-tilde", "1.5"], "--nu, --K-tilde"),
    ],
)
def test_bound_atomic_flag_it_does_not_read_exits_2(capsys, argv, message):
    # Each of these exited 0 with the flag dropped unread: the atomic
    # regime takes no side information about nu.
    code, out, err = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "2.5", "--beta", "0.25", "--atomic", *argv
    )
    assert code == 2 and out == ""
    assert err == f"error: bound --atomic does not read {message}\n"


def test_bound_atomic_takes_nu_none_and_nonatomic_reads_nu(capsys):
    # --nu none is the atomic regime's own value; a nonatomic bound reads
    # --nu and --K-tilde, and a different --nu changes its certificate.
    atomic = ["bound", "--lambda", "0.6", "--K", "2.5", "--beta", "0.25", "--atomic"]
    assert run_cli(capsys, *atomic, "--nu", "none") == run_cli(capsys, *atomic)
    nonatomic = ["bound", "--lambda", "0.7", "--K", "3.0", "--beta", "0.2", "--beta-tilde", "0.3"]
    code, concentrated, _ = run_cli(capsys, *nonatomic, "--nu", "concentrated")
    assert code == 0
    code, v_integral, _ = run_cli(capsys, *nonatomic, "--nu", "v-integral", "--K-tilde", "1.5")
    assert code == 0 and v_integral != concentrated


def test_json_round_trip_bitwise(capsys):
    args = [
        "bound", "--lambda", "0.71153846153846154", "--K", "2.3125",
        "--beta", "0.37710146231179786", "--beta-tilde", "0.37710146231179786",
        "--nu", "concentrated", "--symmetry", "reversible", "--format", "json",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    data = json.loads(out)
    params = bounds.DriftMinorization(
        lam=data["lambda"],
        big_k=data["K"],
        beta=data["beta"],
        beta_tilde=data["beta_tilde"],
        atomic=data["atomic"],
        nu_info=bounds.NU_CONCENTRATED,
    )
    again = bounds.certificate(params, data["symmetry"], data["gamma"])
    assert again.rho == data["rho"]
    assert again.big_m == data["M"]


def test_model_contracting_method_anchor(capsys):
    code, out, _ = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.5", "--c", "1.5",
        "--method", "thm1.3", "--format", "json",
    )
    assert code == 0
    assert abs(json.loads(out)["rho"] - 0.897) <= 1e-3


def test_model_mh_anchor(capsys):
    code, out, _ = run_cli(
        capsys, "model", "mh-normal", "--d", "1", "--s", "0.07", "--nu", "mt",
        "--method", "thm1.2", "--format", "json",
    )
    assert code == 0
    rho = json.loads(out)["rho"]
    assert abs((1.0 - rho) - 0.0091) <= 0.0005


def test_model_reports_the_window_edge_in_json_and_warns_in_text(capsys):
    # R1 still grows at the right end of this chain's radius window: the
    # search returns R_tilde = R0 - 1e-9, which JSON names "right"; the
    # text output lists the same diagnostics as before, without the label,
    # and then one warning line. A radius inside the window adds none.
    argv = ["model", "mh-normal", "--d", "1", "--s", "0.07", "--nu", "mt", "--method", "thm1.1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["R_tilde_edge"] == "right" and diag["R_tilde"] == diag["R0"] - 1e-9
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[11:]] == [
        "alpha1", "alpha2", "R0", "R_tilde", "L_at_R_tilde", "R1", "k_factor_kind", "k_factor",
        "warning:",
    ]
    assert out.splitlines()[-1] == (
        "warning: R_tilde sits at the right end of the window [1 + 1e-9, R0 - 1e-9]"
    )
    code, out, _ = run_cli(capsys, "bound", "--lambda", "0.7", "--K", "3.0", "--beta", "0.2",
                           "--beta-tilde", "0.3", "--nu", "concentrated")
    assert code == 0 and "R_tilde " in out and "warning" not in out


def test_model_exact_rate(capsys):
    code, out, _ = run_cli(
        capsys, "model", "reflecting-walk", "--p", "0.9", "--epsilon", "0.25",
        "--method", "exact",
    )
    assert code == 0
    assert "0.788462" in out


def test_model_missing_tuning_exits_2(capsys):
    code, _, err = run_cli(capsys, "model", "mh-normal", "--method", "thm1.2")
    assert code == 2
    assert "requires" in err


@pytest.mark.parametrize(
    "argv, used",
    [
        (["contracting-normal", "--theta", "0.5", "--c", "1.5", "--method", "coupling"],
         "--method coupling"),
        (["reflecting-walk", "--p", "0.6", "--method", "binomial"], "--method binomial"),
        (["reflecting-walk", "--p", "0.9", "--epsilon", "0.25", "--method", "exact"],
         "--method exact"),
        (["contracting-normal", "--theta", "0.5", "--method", "thm1.1", "--optimize"],
         "--optimize"),
    ],
)
def test_model_gamma_without_a_certificate_exits_2(capsys, argv, used):
    # These print a rate with no gamma: a --gamma would be dropped unread.
    code, out, err = run_cli(capsys, "model", *argv, "--gamma", "0.99")
    assert code == 2 and out == ""
    assert err == f"error: --gamma applies to certificates only; {used} prints no gamma\n"
    assert run_cli(capsys, "model", *argv)[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["contracting-normal", "--theta", "0.5", "--c", "1.5", "--d", "9", "--p", "0.7"],
         "contracting-normal does not read --p, --d"),
        (["mh-normal", "--optimize", "--d", "2", "--s", "0.3"],
         "mh-normal --optimize does not read --d, --s"),
        (["reflecting-walk", "--p", "0.9", "--epsilon", "0.25", "--nu", "mt"],
         "reflecting-walk does not read --nu"),
        (["mh-normal", "--d", "1", "--s", "0.07", "--epsilon", "0.2", "--theta", "0.5"],
         "mh-normal does not read --epsilon, --theta"),
        (["reflecting-walk", "--p", "0.9", "--c", "1.5"], "reflecting-walk does not read --c"),
        (["contracting-normal", "--theta", "0.5", "--c", "1.5", "--method", "thm1.3",
          "--optimize"], "contracting-normal --optimize does not read --c"),
    ],
)
def test_model_flag_the_model_does_not_read_exits_2(capsys, argv, message):
    # Each of these exited 0 with the flag dropped unread.
    code, out, err = run_cli(capsys, "model", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mh-normal", "--optimize", "--nu", "infimum", "--method", "coupling"],
        ["mh-normal", "--d", "1", "--s", "0.07", "--method", "thm1.2"],
        ["reflecting-walk", "--p", "0.9", "--epsilon", "0.25", "--method", "exact"],
    ],
)
def test_model_flags_the_model_reads_are_taken(capsys, argv):
    # --nu stays optional with mt as its default, and --optimize reads it.
    code, out, _ = run_cli(capsys, "model", *argv)
    assert code == 0
    if "--nu" not in argv and argv[0] == "mh-normal":
        assert run_cli(capsys, "model", *argv, "--nu", "mt")[1] == out


def test_model_gamma_sets_the_certificate_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.5", "--c", "1.5",
        "--method", "thm1.3", "--gamma", "0.99", "--format", "json",
    )
    assert code == 0 and json.loads(out)["gamma"] == 0.99


def test_model_binomial_walk(capsys):
    code, out, _ = run_cli(
        capsys, "model", "reflecting-walk", "--p", "0.6", "--method", "binomial",
        "--format", "json",
    )
    assert code == 0
    assert abs(json.loads(out)["rho_lazy_squared"] - 0.9799) <= 1e-4


def test_table_six(capsys):
    code, out, _ = run_cli(capsys, "table", "6")
    assert code == 0
    assert "0.9799" in out.replace("0.979898", "0.9799")  # published column present
    assert "p=0.6" in out


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("table,row,case,quantity,published,computed")
    assert any("skipped" in line for line in out.splitlines())


def test_bound_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "1.2", "--beta", "0.9",
        "--atomic", "--format", "csv",
    )
    assert code == 0
    head, body = out.strip().splitlines()
    assert head.split(",")[:4] == ["method", "lambda", "K", "beta"]
    assert len(head.split(",")) == len(body.split(","))


def test_model_exact_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "model", "reflecting-walk", "--p", "0.9", "--epsilon", "0.3",
        "--method", "exact", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["model,p,epsilon,rho_V", "reflecting-walk,0.9,0.3,0.75"]


def test_model_optimize_csv_flattens_tuned(capsys):
    code, out, _ = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.5",
        "--method", "thm1.3", "--optimize", "--format", "csv",
    )
    assert code == 0
    head, body = out.splitlines()
    assert head == "model,method,tuned_c,rho,one_minus_rho"
    row = dict(zip(head.split(","), body.split(",")))
    assert row["model"] == "contracting-normal"
    assert float(row["rho"]) <= 0.897 + 0.002


def test_verify_mc_csv_one_row_per_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "mc", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,name,measured,bound,margin,pass,detail"
    assert len(lines) == 5
    for line in lines[1:]:
        fields, detail = line.split(',"')
        assert fields.split(",")[0] == "mc" and fields.endswith(",true")
        assert detail.endswith('"') and "drift bound" in detail


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--lambda", "0.6", "--K", "1.2", "--beta", "0.9", "--atomic", "--seed", "5"],
        ["model", "reflecting-walk", "--p", "0.9", "--epsilon", "0.25", "--exact"],
        ["table", "2", "--seed", "5"],
    ],
)
def test_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_table_out_of_range_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["table", "9"])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bound", "--lambda", "0.5", "--K", "2", "--beta", "0.5", "--bogus", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table", "1", "--precision", "-1"], "--precision"),
        (["verify", "kendall", "--seed", "-1"], "--seed"),
        (["verify", "kendall", "--seed", "x"], "--seed"),
    ],
)
def test_negative_count_flag_exits_2_naming_the_flag(capsys, argv, flag):
    # Rejected at parse time, before a format string or numpy sees the value.
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be a non-negative integer" in err_text


def test_model_optimize_contracting(capsys):
    code, out, _ = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.5",
        "--method", "thm1.3", "--optimize", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rho"] <= 0.897 + 0.002
    assert "c" in data["tuned"]


@pytest.mark.parametrize("theta, c", [("0.5", 1.51), ("0.75", 1.24), ("0.9", 1.11)])
def test_model_optimize_contracting_general_reports_the_pinned_c(capsys, theta, c):
    # The table-4 thm1.1 searches, pruned by their closed-form rate floor,
    # report the winning c of the full scan and method_rho's rate there.
    code, out, _ = run_cli(
        capsys, "model", "contracting-normal", "--theta", theta,
        "--method", "thm1.1", "--optimize", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["tuned"]["c"] - c) <= 1e-9
    chain = models.ContractingNormal(theta=float(theta), c=data["tuned"]["c"])
    assert data["rho"] == models.method_rho("thm1.1", chain)


def test_model_optimize_unknown_method_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.5",
        "--method", "exact", "--optimize",
    )
    assert code == 2 and out == ""
    assert "method must be one of" in err


def test_model_optimize_invalid_theta_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "model", "contracting-normal", "--theta", "1.5",
        "--method", "thm1.3", "--optimize",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "theta must lie in (-1, 1)" in err


def test_model_optimize_without_a_rate_exits_2(capsys):
    # At theta = 0.9999999 no c has a thm1.1 rate; the payload would print
    # "rho": Infinity, which is not JSON.
    code, out, err = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0.9999999",
        "--method", "thm1.1", "--optimize", "--format", "json",
    )
    assert code == 2 and out == ""
    assert err == "error: no tuning with c in [1.05, 4.0] has a thm1.1 rate\n"


def test_model_optimize_coupling_without_a_rate_names_the_searched_range(capsys):
    # At theta = 0 no c has a coupling rate; the coupling search starts at
    # sqrt(2) + 1e-6, not at 1.05, and the message names the range searched.
    code, out, err = run_cli(
        capsys, "model", "contracting-normal", "--theta", "0", "--method", "coupling",
        "--optimize",
    )
    assert code == 2 and out == ""
    lo = math.sqrt(2.0) + 1e-6
    assert models._c_range("coupling") == (lo, 4.0)
    assert err == f"error: no tuning with c in [{lo}, 4.0] has a coupling rate\n"


def test_model_optimize_mh_without_a_rate_exits_2(capsys, monkeypatch):
    # The search's result when no tuning has a rate.
    def no_rate(method, nu_variant):
        return {"d": None, "s": None, "rho": float("inf"), "one_minus_rho": float("-inf")}

    monkeypatch.setattr(models, "optimize_mh_tuning", no_rate)
    code, out, err = run_cli(capsys, "model", "mh-normal", "--method", "coupling", "--optimize")
    assert code == 2 and out == ""
    assert "d in [0.5, 3.0], s in [0.01, 1.5] has a coupling rate" in err


def test_model_optimize_reports_no_edge_for_an_inner_winner(capsys):
    # The winner lies inside its range: the JSON says edge null, the text is
    # the one result line and the CSV keeps its columns.
    argv = ("model", "contracting-normal", "--theta", "0.5", "--method", "thm1.3", "--optimize")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["edge"] is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 1 and "warning" not in out
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "model,method,tuned_c,rho,one_minus_rho"


def _edge_stub(edge):
    def at_edge(method, nu_variant):
        return {"d": 0.5, "s": 0.7, "rho": 0.99, "one_minus_rho": 0.01, "edge": edge}

    return at_edge


def test_model_optimize_warns_where_the_winner_sits_at_a_range_end(capsys, monkeypatch):
    monkeypatch.setattr(models, "optimize_mh_tuning", _edge_stub({"d": "lower"}))
    argv = ("model", "mh-normal", "--method", "thm1.2", "--optimize")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "tuned d=0.5, s=0.7: rho = 0.99 (1-rho = 0.01)",
        "warning: the winner sits at the lower end of d in [0.5, 3.0]",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["edge"] == {"d": "lower"}
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    # CSV keeps the header of an inner winner: edge is not a column.
    assert out.splitlines() == [
        "model,method,tuned_d,tuned_s,rho,one_minus_rho", "mh-normal,thm1.2,0.5,0.7,0.99,0.01"
    ]
    monkeypatch.setattr(models, "optimize_mh_tuning", _edge_stub({"d": "lower", "s": "upper"}))
    code, out, _ = run_cli(capsys, *argv)
    assert out.splitlines()[1] == (
        "warning: the winner sits at the lower end of d in [0.5, 3.0]"
        " and the upper end of s in [0.01, 1.5]"
    )


def test_text_commands_never_load_json():
    # Only the JSON branches import json: importing the CLI and running
    # text-format commands leaves it unloaded, and a JSON command loads it.
    script = (
        "import sys, io, contextlib\n"
        "from ergocert import cli\n"
        "loaded = ['json' in sys.modules]\n"
        "for argv in (['bound', '--lambda', '0.6', '--K', '1.2', '--beta', '0.9', '--atomic'],\n"
        "             ['table', '2'], ['table', '2', '--format', 'json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "    loaded.append('json' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, True]"


def test_verify_mc_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "mc", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "mc"
    assert payload[0]["pass"] is True


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "bound", "--lambda", "0.6", "--K", "1.2", "--beta", "0.9", "--atomic",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["rho"] > 0.9


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ergocert", "model", "contracting-normal",
         "--theta", "0.5", "--c", "1.5", "--method", "thm1.3", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["rho"] - 0.897) <= 1e-3


def test_cli_import_needs_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only package.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ergocert.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _cli_rotation() -> dict:
    # The benchmark's CLI commands, read from perfbench/workloads.py's source
    # rather than imported, so the test executes no benchmark code.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "CLI_ROTATION" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no CLI_ROTATION")


def test_scalar_commands_never_load_numpy():
    # Certificates, model constants, tables and the contracting-normal c
    # search are scalar formulas: the package, the CLI and these commands
    # run without importing numpy.
    rotation = _cli_rotation()
    assert set(rotation) == {
        "bound-atomic", "bound-general", "model-mh", "model-contracting", "table-2"
    }
    rotation["contracting-optimize"] = [
        "model", "contracting-normal", "--theta", "0.5", "--method", "thm1.1", "--optimize"
    ]
    script = (
        "import sys, io, contextlib\n"
        "import ergocert\n"
        "print('numpy' in sys.modules)\n"
        "from ergocert import cli\n"
        "codes = []\n"
        f"for argv in {[list(argv) for argv in rotation.values()]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[0, 0, 0, 0, 0, 0] False"]


def test_closed_stdout_pipe_stops_quietly():
    # The reader closes its end before the process writes (as `| head -1`
    # does once it has its line): no traceback, no "Exception ignored".
    proc = subprocess.Popen(
        [sys.executable, "-m", "ergocert", "table", "2", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
