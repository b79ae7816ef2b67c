#!/usr/bin/env python3
"""Benchmark for ergocert: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``certify``,
``tune-mh``, ``tune-contracting``, ``verify`` and ``cli``. The package is
imported from ``src/`` (it need not be installed); the ``cli`` workload runs
``python -m ergocert`` with ``PYTHONPATH=src``.

``--trace 0`` sets up the workload several times (each set-up is import,
input generation and one warm-up operation; all but the first run in fresh
processes), then runs the closed loop for ``--seconds`` (``certify`` and
``tune-contracting``: the fixed work the program did in ``--seconds`` when
the benchmark was introduced, see workloads.py) and reports
``setup_s``, ``peak_rss_mb``, ``per_s``, ``p50_ms`` and ``tail_ms``, with
operation and set-up times calibrated to a reference machine speed
(calibrate.py).

``--trace 1`` runs a fixed batch of the workload's operations, each once
untraced and once with every public function of the layer modules wrapped
by ``spans.Tracer``, and reports the ``per_layer`` metrics of
BENCHMARK.json, including the tracing overhead (traced minus untraced time).

Both modes check every output. Lines before the last one name each metric
with its unit, repeat them under the per-workload names ROADMAP.md uses
(``certify.p99_ms``, ``tune.mh_s``, ...) and give the workload's
``*.fail_frac`` (failed checks over checks attempted). The last line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (checks run and
checks failed, a raised exception counting as one failed check) and
``metrics``. ``correct`` is false, with the reason printed above it, if a
check failed in a way the program did not fail when the benchmark was
introduced, if a known failure became more frequent (see
``workloads.unexpected_failures``), or if the checker missed the planted wrong output of the falsification
control. Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# One set-up in this process and the rest in fresh ones; setup_s is the median.
SETUP_SAMPLES = 7


def setup_samples(args, first_s: float):
    """SETUP_SAMPLES set-up times, the first one ``first_s`` from this
    process, and their calibration factor: the process probe, sampled
    before and after each fresh set-up, tracks the host speed for work that
    is mostly interpreter start and imports."""
    from calibrate import Calibration

    cal = Calibration("process")
    cal.sample()
    setups = [first_s]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(setup_in_child(args))
        cal.sample()
    return setups, cal.reference_s / statistics.median(cal.probe_s)

# Per-layer metrics a workload measures itself rather than through spans;
# they read 0 on the workloads that do not measure them.
WORKLOAD_LAYER_METRICS = ("verify.checks", "cli.interpreter_s", "cli.import_s")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_in_child(args) -> float:
    """Set-up time of one fresh process (import, inputs, warm-up)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def git_sha():
    """HEAD of the checkout if it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    import ergocert

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "ergocert": str(Path(ergocert.__file__).parent.relative_to(ROOT))
        + " via PYTHONPATH=src (not pip-installed); cli runs python -m ergocert",
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def measured(wl, args, setups, setup_factor):
    """End-to-end metrics of one closed-loop run with tracing off.

    Operation times are calibrated per operation (see calibrate.py); the
    median set-up time is scaled by ``setup_factor``.
    """
    import workloads

    tally = workloads.run_blocks(wl.blocks, None if wl.fixed else args.seconds)
    passes = tally.block_sums(tally.op_cal_s)
    lat = passes if wl.per_block else tally.op_cal_s
    raw = tally.block_sums(tally.op_s) if wl.per_block else tally.op_s
    metrics = {
        "setup_s": statistics.median(setups) * setup_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_s": len(lat) / sum(lat),
        "p50_ms": percentile(lat, 50.0) * 1e3,
        "tail_ms": percentile(lat, wl.tail) * 1e3,
    }
    notes = {
        "per_s": f"{len(lat)} {'passes' if wl.per_block else 'operations'}; "
                 f"measured {len(raw) / sum(raw):.6g}",
        "p50_ms": f"measured {percentile(raw, 50.0) * 1e3:.6g}",
        "tail_ms": f"p{wl.tail:g}, {sum(1 for x in lat if x * 1e3 > metrics['tail_ms'])} "
                   f"samples beyond; measured {percentile(raw, wl.tail) * 1e3:.6g}",
        "setup_s": f"measured median {statistics.median(setups):.6g} of "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes, tally, {"pass_s": statistics.median(passes)}


def traced(wl, spec, args):
    """Per-layer metrics of the fixed batch, each operation run once
    untraced and once traced. Span times are as measured, not calibrated."""
    import spans
    import workloads

    # The first full-size pass pays one-off costs (page faults of fresh
    # arrays) that would land on whichever call of the first pair ran first.
    workloads.run_blocks(wl.trace_blocks[:1])
    tracer = spans.Tracer(wl.trace_labels)
    tally = workloads.run_blocks(wl.trace_blocks, tracer=tracer)
    summary = tracer.summary()
    tracer.save(OUT / f"spans-{wl.name}.npz")
    untraced_s, traced_s = sum(tally.op_untraced_s), sum(tally.op_s)
    extras = {
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "trace.coverage": summary["top_s"] / traced_s,
        "trace.spans": summary["spans"],
        **dict.fromkeys(WORKLOAD_LAYER_METRICS, 0),
    }
    if wl.layer_extras is not None:
        extras.update(wl.layer_extras(tally))
    functions = summary["functions"]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in extras:
            metrics[name] = extras[name]
            continue
        key, stat = name.rsplit(".", 1)
        if ".".join(key.split(".")[:2]) not in tracer.wrapped:
            raise KeyError(f"per-layer metric {name} names no traced function")
        metrics[name] = functions.get(key, {}).get(stat, 0)
    top = sorted(
        ((row["self_s"], name) for name, row in functions.items()
         if name.count(".") == 1 and row["calls"]),
        reverse=True,
    )[:10]
    notes = {
        f"share {name}": f"self {self_s:.3f} s = {100 * self_s / traced_s:.1f}% of traced time"
        for self_s, name in top
    }
    return metrics, notes, tally, {"functions": functions}


def main(argv=None) -> int:
    if not (SRC / "ergocert" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout of ergocert ({SRC / 'ergocert'} and "
              f"{SPEC.name} are needed)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sys.dont_write_bytecode = False

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed, args.seconds)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    controls_caught = wl.control()
    if args.trace:
        metrics, notes, tally, detail = traced(wl, spec, args)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups, setup_factor = setup_samples(args, setup_s)
        metrics, notes, tally, detail = measured(wl, args, setups, setup_factor)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")

    problems = workloads.unexpected_failures(wl, tally)
    if not controls_caught:
        problems.append("the checker missed the falsification control's planted wrong output")
    env = environment()
    fail_frac = tally.failed / tally.attempted
    print(f"ergocert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    for generic, roadmap_name in wl.roadmap_names.items():
        if generic == "fail_frac":
            value, unit = fail_frac, "ratio"
        elif args.trace:
            continue
        elif generic == "pass_s":
            value, unit = detail["pass_s"], "s"
        elif generic.endswith("_ms") and not roadmap_name.endswith("_ms"):
            value, unit = metrics[generic] / 1e3, "s"
        else:
            value, unit = metrics[generic], units[generic]
        print(f"{roadmap_name} {value:.6g} {unit}")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed "
          + json.dumps(dict(sorted(tally.reasons.items()))))
    for key, note in notes.items():
        if key.startswith("share "):
            print(f"{key}: {note}")
    for problem in problems:
        print(f"incorrect: {problem}")

    result = {
        "correct": not problems and tally.attempted >= 1,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "result": result, "failures": tally.reasons,
         "problems": problems,
         "notes": notes, **detail}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
