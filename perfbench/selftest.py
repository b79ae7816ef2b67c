#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced size (about two minutes).

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json for one second, untraced and
   traced, and asserts that the last line of output carries exactly the
   end-to-end (respectively per-layer) metrics of BENCHMARK.json with their
   units, as finite numbers, end-to-end ones above zero.
2. Falsification controls: the output checkers must count a certificate
   with rho >= 1, a wrong or failing CLI process, a tuning result below its
   reference and a failed oracle check as failures, and the closed loop
   must count a raised exception as a failed check. A run must count as
   incorrect when the program returns rho >= 1 for every certificate or
   raises on every tuning search, and when a known failure becomes more
   frequent.
   The fixed-work workloads (certify, tune-contracting) must do the same
   operations on the same inputs whatever the seed, in another order.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark must exit with a nonzero code without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(workload: str, trace: int) -> None:
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace)])
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: falsification control not caught"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
        f"{sorted(set(result['metrics']) ^ {m['name'] for m in declared})}"
    )
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m["name"], got["unit"])
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (workload, m["name"])
        if not trace:
            assert value > 0, (workload, m["name"], value)
    print(f"ok  {workload} trace={trace}: {len(declared)} metrics, "
          f"{result['failed']}/{result['attempted']} checks failed")


def falsification_controls() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import dataclasses

    import ergocert
    import numpy as np
    import workloads
    from ergocert import verify

    p = ergocert.DriftMinorization(lam=0.6, big_k=2.5, beta=0.25)
    cert = ergocert.certificate(p, "general")
    assert workloads.check_certificate(p, cert) == (1, [])
    for bad in (dataclasses.replace(cert, rho=1.0),
                dataclasses.replace(cert, rho=1.5, gamma=1.2),
                dataclasses.replace(cert, rho=0.5 * p.lam),
                dataclasses.replace(cert, big_m=math.inf)):
        assert workloads.check_certificate(p, bad)[1], bad

    right = b"rho = 0.5\n"
    assert workloads.check_cli((0, right), right) == (1, [])
    assert workloads.check_cli((0, b"rho = 0.6\n"), right)[1]
    assert workloads.check_cli((2, right), right)[1]

    assert workloads.check_mh({"one_minus_rho": 0.0091}, 0.0091) == (1, [])
    assert workloads.check_mh({"one_minus_rho": 0.8 * 0.0091}, 0.0091)[1]
    assert workloads.check_contracting({"c": 1.5, "rho": 0.949}, 0.95) == (1, [])
    assert workloads.check_contracting({"c": 1.5, "rho": 0.951}, 0.95)[1]
    assert workloads.check_contracting({"c": None, "rho": math.inf}, None)[1]

    failing = verify.SuiteReport(name="s", checks=[
        verify.CheckReport(name="a", measured=1.0, bound=2.0, passed=True),
        verify.CheckReport(name="b", measured=3.0, bound=2.0, passed=False),
    ])
    assert workloads.check_reports([failing]) == (2, ["b"])

    def boom(*args):
        raise ergocert.errors.NoSignChange("planted")

    ops = [workloads.Op("raises", boom, lambda out: (1, [])),
           workloads.Op("wrong", lambda: cert, lambda out: workloads.check_certificate(
               p, dataclasses.replace(out, rho=1.0))),
           workloads.Op("right", lambda: cert, lambda out: workloads.check_certificate(p, out))]
    tally = workloads.run_blocks([ops])
    assert (tally.attempted, tally.failed) == (3, 2), tally
    assert tally.reasons == {"NoSignChange": 1, "rho_gamma_order": 1}, tally.reasons

    certify = workloads.build_certify(7, 0.05)
    assert not workloads.unexpected_failures(certify, workloads.run_blocks([certify.blocks[0]]))
    known = workloads.Tally(attempted=1000, by_label={("general.atomic.none", "OutOfRange"): 34})
    assert not workloads.unexpected_failures(certify, known)
    known.by_label[("general.atomic.none", "OutOfRange")] = 120
    assert workloads.unexpected_failures(certify, known)
    real = ergocert.certificate
    ergocert.certificate = lambda p, symmetry: dataclasses.replace(real(p, symmetry), rho=1.0)
    try:
        tally = workloads.run_blocks([certify.blocks[0], certify.blocks[1]])
    finally:
        ergocert.certificate = real
    assert workloads.unexpected_failures(certify, tally), tally.reasons

    from ergocert import models

    contracting = workloads.build_tune_contracting(7, 1.0)
    real = models.optimize_contracting_tuning
    models.optimize_contracting_tuning = boom
    try:
        tally = workloads.run_blocks(contracting.blocks[:1])
    finally:
        models.optimize_contracting_tuning = real
    assert tally.failed == 15 and workloads.unexpected_failures(contracting, tally), tally.reasons

    other = workloads.build_certify(8, 0.05)
    assert certify.fixed and sorted(certify.blocks.rows) == sorted(other.blocks.rows)
    for key, values in certify.blocks.raw.items():
        assert np.array_equal(values, other.blocks.raw[key], equal_nan=True), key
    assert [op.label for op in certify.blocks[0]] != [op.label for op in other.blocks[0]]
    others = workloads.build_tune_contracting(8, 1.0)
    assert contracting.fixed and sorted(op.label for b in contracting.blocks for op in b) == \
        sorted(op.label for b in others.blocks for op in b)
    print("ok  falsification controls, fixed work")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run(["perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert "metrics" not in proc.stdout, proc.stdout
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    falsification_controls()
    bare_directory()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
