"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Inputs come from Philox generators, as
in ``ergocert.verify``, and are all drawn by ``build`` before any timing
starts (certify builds its input objects from the drawn arrays between
requests, outside their times). The workload seed orders the operations;
on verify it also picks the suite seed.

The workloads on which the program has known defects (certify and
tune-contracting) do a fixed amount of work instead of cycling until the
time is up: the same operations on every run, sized to ``--seconds`` at the
speed of the commit that introduced the benchmark. Their failure counts are
then the same on every run of the same program, whatever the seed and the
machine speed; a faster program finishes the work sooner. Operations
call the program through module attributes looked up at call time
(``ergocert.certificate``, not a saved reference), so the tracer's
rebinding reaches them.

An operation's output goes to its checker, which returns the number of
checks the output carried and the reasons of those that failed. A raised
exception counts as one failed check named after its type. Known defects of
the program therefore show up as failures; inputs are never filtered to
avoid them. Failures the program did not have when the benchmark was
introduced make a run incorrect (``unexpected_failures``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One call into the program, the checker for its output and the
    calibration probe that tracks its kind of work (see calibrate.py)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    probe: str = "kernel"


@dataclass(frozen=True)
class KnownFailure:
    """A defect of the program when the benchmark was introduced: failures
    with ``reason`` on operations whose label starts with ``label``, at
    ``rate`` of the checks attempted."""

    label: str
    reason: str
    rate: float


@dataclass
class Workload:
    """Operations in blocks, cycled in order until the run's time is up,
    or, if ``fixed``, each run once: the blocks are then the run's whole work.

    ``per_block`` says whether a latency sample is one operation or one
    whole block (a pass of searches). ``tail`` is the
    percentile reported as ``tail_ms``. ``trace_blocks`` is the fixed batch
    of the traced run. ``control``
    feeds the checker a planted wrong output and returns True if it was
    flagged. ``known_failures`` are the failures the program
    had when the benchmark was introduced; any other failure, or a known
    one above its rate, makes a run incorrect (see ``unexpected_failures``).
    """

    name: str
    blocks: list[list[Op]]
    per_block: bool
    tail: float
    warm_up: Callable[[], None]
    control: Callable[[], bool]
    trace_blocks: list[list[Op]]
    trace_labels: dict = field(default_factory=dict)
    roadmap_names: dict = field(default_factory=dict)
    layer_extras: Optional[Callable[["Tally"], dict]] = None
    fixed: bool = False
    known_failures: tuple = ()


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# certify: a stream of certificate(p, symmetry) requests
# ---------------------------------------------------------------------------

SYMMETRIES = ("general", "reversible", "reversible-positive")


def check_certificate(p, cert) -> tuple[int, list[str]]:
    """lambda <= rho < gamma < 1 and M finite and positive."""
    if not p.lam <= cert.rho:
        return 1, ["rho_below_lambda"]
    if not cert.rho < cert.gamma < 1.0:
        return 1, ["rho_gamma_order"]
    if not (math.isfinite(cert.big_m) and cert.big_m > 0.0):
        return 1, ["M_not_finite_positive"]
    return 1, []


def _draw_requests(rng: np.random.Generator, cases: list, n_rows: int) -> dict:
    """Raw inputs of n_rows rows, each row one request of every case, drawn
    over the whole validated DriftMinorization domain.

    lambda is near 0, near 1 or in between (a quarter, a quarter, a half);
    K is log-uniform on [1, 1e3]; beta is log-uniform down to 1e-6 * beta_tilde;
    k_tilde is log-uniform on [1, 1e3]. Arrays have shape (n_rows, len(cases));
    column j holds the inputs of case j.
    """
    from ergocert import bounds

    shape = (n_rows, len(cases))
    atomic = np.broadcast_to(np.array([c[0] for c in cases]), shape)
    v_integral = np.broadcast_to(np.array([c[1] == bounds.NU_V_INTEGRAL for c in cases]), shape)
    u = rng.random(shape)
    near = 10.0 ** rng.uniform(-4.0, -1.0, shape)
    lam = np.where(u < 0.25, near, np.where(u < 0.5, 1.0 - near, rng.uniform(0.05, 0.95, shape)))
    beta_tilde = np.where(atomic, 1.0, rng.uniform(0.02, 0.98, shape))
    return {
        "lam": lam,
        "big_k": 10.0 ** rng.uniform(0.0, 3.0, shape),
        "beta": beta_tilde * 10.0 ** rng.uniform(-6.0, 0.0, shape),
        "beta_tilde": beta_tilde,
        "k_tilde": np.where(v_integral, 10.0 ** rng.uniform(0.0, 3.0, shape), np.nan),
    }


def _certify_op(p, symmetry: str) -> Op:
    import ergocert

    kind = "atomic" if p.atomic else "nonatomic"
    return Op(
        label=f"{symmetry}.{kind}.{p.nu_info}",
        call=lambda: ergocert.certificate(p, symmetry),
        check=lambda cert: check_certificate(p, cert),
    )


class CertifyStream:
    """Certify blocks, built one at a time from pre-drawn raw inputs.

    Block i is row ``rows[i]`` of the raw inputs, its cases in the order
    ``orders[i]``. Indexing a block constructs its DriftMinorization inputs
    and operations; the closed loop does that between operations, outside
    their times.
    """

    def __init__(self, cases: list, raw: dict, rows: np.ndarray, orders: np.ndarray) -> None:
        self.cases = cases
        self.raw = raw
        self.rows = rows
        self.orders = orders

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> list[Op]:
        import ergocert

        ops = []
        r = self.rows[i]
        for c in self.orders[i]:
            atomic, nu_info, symmetry = self.cases[c]
            k_tilde = float(self.raw["k_tilde"][r, c])
            p = ergocert.DriftMinorization(
                lam=float(self.raw["lam"][r, c]),
                big_k=float(self.raw["big_k"][r, c]),
                beta=float(self.raw["beta"][r, c]),
                beta_tilde=float(self.raw["beta_tilde"][r, c]),
                atomic=atomic,
                nu_info=nu_info,
                k_tilde=None if math.isnan(k_tilde) else k_tilde,
            )
            ops.append(_certify_op(p, symmetry))
        return ops


# Failure rates of the certify requests on the commit before the benchmark
# was added, from the 47,500 requests of a 62.5-second run (2,500 blocks):
# solve_r1's clamp raises OutOfRange on general certificates, and reversible
# and reversible-positive certificates come out with rho below lambda by an
# ulp. A 15-second run's 11,400 requests had 381 and 7 of them.
CERTIFY_KNOWN_FAILURES = (
    KnownFailure("general.", "OutOfRange", 1613 / 47500),
    KnownFailure("reversible", "rho_below_lambda", 38 / 47500),
)

# The certify requests of a run: CERTIFY_BLOCKS_PER_S blocks per second of
# run, drawn with the key CERTIFY_POOL_KEY whatever the workload seed. The
# program answered about 40 blocks (760 requests) per second when the
# benchmark was introduced (2-vCPU host), so a run of the same program takes
# about --seconds. Every request is answered once per run.
CERTIFY_POOL_KEY = 9001
CERTIFY_BLOCKS_PER_S = 40


def build_certify(seed: int, seconds: float) -> Workload:
    """Blocks of 19 requests: the 18 (atomic, nu_info, symmetry) cases once
    each, plus one more atomic general request, in a seeded order.

    Every block has the same case mix. With 18 equally frequent cases the
    median would fall exactly on the boundary between two cases and jump
    between them from run to run; the extra request puts it inside one.
    Three requests in 19 are nonatomic general (the 512-point radius scan).

    The requests are the same on every run of a given length: the workload
    seed orders the blocks and the cases within each block, but does not
    draw the inputs, since which inputs the program fails on would then
    change with the seed. They are drawn over the whole validated domain,
    failures included. Each is answered once, so a cache of results gains
    nothing. One more block, used by no run, warms up. The traced batch is
    the first blocks of the same requests, in the seed's order.
    """
    import ergocert
    from ergocert import bounds

    nu_infos = (bounds.NU_NONE, bounds.NU_CONCENTRATED, bounds.NU_V_INTEGRAL)
    cases = [(a, nu, s) for a in (True, False) for nu in nu_infos for s in SYMMETRIES]
    cases.append((True, bounds.NU_NONE, "general"))
    n_blocks = max(2, round(CERTIFY_BLOCKS_PER_S * seconds))
    raw = _draw_requests(_rng(CERTIFY_POOL_KEY), cases, n_blocks + 1)
    rng = _rng(seed)

    def stream(rows: np.ndarray) -> CertifyStream:
        shape = (len(rows), len(cases))
        orders = rng.permuted(np.broadcast_to(np.arange(len(cases)), shape), axis=1)
        return CertifyStream(cases, raw, rows, orders)

    blocks = stream(rng.permutation(n_blocks))
    trace_blocks = stream(rng.permutation(min(n_blocks, max(2, int(20 * seconds)))))
    warm = stream(np.array([n_blocks]))

    def warm_up() -> None:
        for op in warm[0]:
            with contextlib.suppress(Exception):  # counted when measured
                op.call()

    def control() -> bool:
        p = ergocert.DriftMinorization(lam=0.6, big_k=2.5, beta=0.25)
        cert = ergocert.certificate(p, "reversible")
        planted = dataclasses.replace(cert, rho=1.0, gamma=1.0)
        return bool(check_certificate(p, planted)[1]) and not check_certificate(p, cert)[1]

    return Workload(
        name="certify",
        blocks=blocks,
        per_block=False,
        tail=99.0,
        warm_up=warm_up,
        control=control,
        trace_blocks=[trace_blocks[i] for i in range(len(trace_blocks))],
        fixed=True,
        known_failures=CERTIFY_KNOWN_FAILURES,
        roadmap_names={"per_s": "certify.per_s", "p50_ms": "certify.p50_ms",
                     "tail_ms": "certify.p99_ms", "fail_frac": "certify.fail_frac"},
    )


# ---------------------------------------------------------------------------
# tune: the tuning searches behind tables 2-4
# ---------------------------------------------------------------------------


def check_mh(result: dict, published: float) -> tuple[int, list[str]]:
    """Acceptance criterion 05: recover at least 0.85 x the published 1 - rho."""
    if not result["one_minus_rho"] >= 0.85 * published:
        return 1, ["below_0.85_published"]
    return 1, []


def _mh_op(method: str, nu_variant: str, published: float) -> Op:
    from ergocert import models

    return Op(
        label=f"{method}.{nu_variant}",
        call=lambda: models.optimize_mh_tuning(method, nu_variant),
        check=lambda result: check_mh(result, published),
        probe="numpy",
    )


def _blocks_of(ops: list[Op], rng: np.random.Generator, n_blocks: int) -> list[list[Op]]:
    return [[ops[i] for i in rng.permutation(len(ops))] for _ in range(n_blocks)]


def build_tune_mh(seed: int, seconds: float) -> Workload:
    """Passes over the eight (d, s) searches of tables 2 and 3.

    A latency sample is a pass (8 kinds would put a per-search median
    between two kinds). A 15-second run holds about 37 passes, so the tail
    is p75, the highest percentile with about ten samples beyond it.
    """
    from ergocert import models
    from ergocert import paper_values as pv

    ops = [
        _mh_op(method, nu_variant, published)
        for rows, nu_variant in ((pv.TABLE2, models.MT_MEASURE), (pv.TABLE3, models.INFIMUM_MEASURE))
        for method, _d, _s, published, computable, _note in rows
        if computable
    ]
    blocks = _blocks_of(ops, _rng(seed), 64)
    warm = next(op for op in ops if op.label.startswith("thm1.3"))

    def control() -> bool:
        return bool(check_mh({"one_minus_rho": 0.5 * 0.0253}, 0.0253)[1])

    return Workload(
        name="tune-mh",
        blocks=blocks,
        per_block=True,
        tail=75.0,
        warm_up=warm.call,
        control=control,
        trace_blocks=blocks[: max(1, round(seconds / 2))],
        roadmap_names={"pass_s": "tune.mh_s", "fail_frac": "tune.fail_frac"},
    )


CONTRACTING_METHODS = ("thm1.1", "thm1.2", "thm1.3", "coupling", "binomial")

# A pass of the 15 contracting searches took 3.6-4.6 s when the benchmark
# was introduced (2-vCPU host); a run is one pass per this many seconds.
CONTRACTING_PASS_S = 3.75


def contracting_rate(method: str, theta: float, c: float) -> float:
    """The method's rate at one small-set half-width c, through public API."""
    from ergocert import bounds, competitors, models

    if method == "coupling":
        return competitors.coupling_rho(models.contracting_coupling_input(theta, c))
    p = models.contracting_params(theta, c)
    if method == "binomial":
        return bounds.rho_positive(models.binomial_modification(p, 1.0 + c * c)).rho ** 2
    rate = {"thm1.1": bounds.rho_general, "thm1.2": bounds.rho_reversible,
            "thm1.3": bounds.rho_positive}[method]
    return rate(p).rho


def check_contracting(result: dict, reference: Optional[float]) -> tuple[int, list[str]]:
    """The winner must be no worse than the method at any published c.

    The search scans a grid that contains every table-4 c for its theta, so
    its winner can exceed the rate at a published c only by the rounding of
    the grid point: 1e-9 of the gap 1 - rho plus a few ulp.
    """
    rho = result["rho"]
    if not (result["c"] is not None and math.isfinite(rho) and rho < 1.0):
        return 1, ["no_rate"]
    if reference is not None and rho > reference + 1e-9 * (1.0 - reference) + 4e-16:
        return 1, ["worse_than_table4_c"]
    return 1, []


def build_tune_contracting(seed: int, seconds: float) -> Workload:
    """Passes over the 15 c searches: 5 methods at the 3 table-4 thetas.

    A run is a fixed number of passes, one per CONTRACTING_PASS_S seconds of
    run (at least one), since one search fails at every pass (see
    ``known_failures``) and its count must not depend on the machine speed.
    A latency sample is one search: a run holds only a few passes, too few
    for a tail, but dozens of searches. With 15 searches per pass the median
    falls inside one search's times and the p90 inside the thm1.1 search at
    theta 0.75.

    The reference for (method, theta) is the best rate of that method over
    the table-4 values of c published for theta, evaluated here, before
    timing. A c where the method is undefined or raises is left out.
    """
    from ergocert import models
    from ergocert import paper_values as pv

    thetas = sorted({theta for _m, theta, _c, _v in pv.TABLE4})
    ops = []
    for theta in thetas:
        cs = sorted({c for _m, t, c, _v in pv.TABLE4 if t == theta})
        for method in CONTRACTING_METHODS:
            rates = []
            for c in cs:
                try:
                    rates.append(contracting_rate(method, theta, c))
                except Exception:  # a rate the method cannot give at this c
                    continue
            reference = min(rates) if rates else None
            ops.append(
                Op(
                    label=f"{method}.theta{theta:g}",
                    call=lambda m=method, t=theta: models.optimize_contracting_tuning(m, t),
                    check=lambda result, ref=reference: check_contracting(result, ref),
                )
            )
    blocks = _blocks_of(ops, _rng(seed), max(1, round(seconds / CONTRACTING_PASS_S)))
    warm = next(op for op in ops if op.label.startswith("coupling"))

    def control() -> bool:
        return bool(check_contracting({"c": 2.1, "rho": 0.95}, 0.946)[1])

    return Workload(
        name="tune-contracting",
        blocks=blocks,
        per_block=False,
        tail=90.0,
        warm_up=warm.call,
        control=control,
        trace_blocks=blocks[:1],
        fixed=True,
        roadmap_names={"pass_s": "tune.contracting_s", "fail_frac": "tune.fail_frac"},
        # On the commit before the benchmark was added this search raised
        # NoSignChange: one search in each pass of 15.
        known_failures=(KnownFailure("thm1.2.theta0.9", "NoSignChange", 1 / 15),),
    )


# ---------------------------------------------------------------------------
# verify: the three oracle suites
# ---------------------------------------------------------------------------


def check_reports(reports) -> tuple[int, list[str]]:
    """Every check of every suite report must have passed."""
    checks = [c for rep in reports for c in rep.checks]
    return len(checks), [c.name for c in checks if not c.passed]


def build_verify(seed: int, seconds: float) -> Workload:
    """Passes of the three oracle suites with one suite seed s drawn from the
    workload seed, so every pass of a run does the same work.

    A pass makes the calls run_all_suites(s) makes, in its order, as three
    operations: calibration samples fall between suites, and each suite
    gives its own latency sample.
    """
    from ergocert import verify

    s = int(_rng(seed).integers(0, 2**31))
    blocks = [[
        Op(label="kendall", call=lambda: [verify.run_kendall_suite(seed=s)], check=check_reports),
        Op(label="matrix", call=lambda: [verify.run_matrix_suite()], check=check_reports,
           probe="numpy"),
        Op(label="mc", call=lambda: [verify.run_mc_suite(seed=s)], check=check_reports,
           probe="numpy"),
    ]]

    def control() -> bool:
        failing = verify.SuiteReport(
            name="control",
            checks=[verify.CheckReport(name="planted", measured=2.0, bound=1.0, passed=False)],
        )
        return check_reports([failing]) == (1, ["planted"])

    return Workload(
        name="verify",
        blocks=blocks,
        per_block=False,
        tail=90.0,
        warm_up=lambda: verify.run_mc_suite(seed=0, samples=1000),
        control=control,
        trace_blocks=blocks * 2,
        roadmap_names={"pass_s": "verify.wall_s", "fail_frac": "verify.fail_frac"},
        layer_extras=lambda tally: {"verify.checks": tally.attempted},
    )


# ---------------------------------------------------------------------------
# cli: whole `python -m ergocert` processes
# ---------------------------------------------------------------------------

CLI_ROTATION = {
    "bound-atomic": ("bound", "--lambda", "0.6", "--K", "2.5", "--beta", "0.25",
                     "--atomic", "--symmetry", "reversible"),
    "bound-general": ("bound", "--lambda", "0.7", "--K", "3.0", "--beta", "0.2",
                      "--beta-tilde", "0.3", "--nu", "concentrated", "--symmetry", "general"),
    "model-mh": ("model", "mh-normal", "--d", "1", "--s", "0.07", "--nu", "mt",
                 "--method", "thm1.2"),
    "model-contracting": ("model", "contracting-normal", "--theta", "0.5", "--c", "1.5",
                          "--method", "thm1.3"),
    "table-2": ("table", "2"),
}


def child_env() -> dict:
    """Environment for child interpreters: the package comes from src/.

    The package is not installed, so children import it through PYTHONPATH.
    Bytecode writing stays on, since users do not recompile on every run.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, timeout=120
    )


def cli_in_process(argv) -> tuple[int, bytes]:
    """cli.main(argv) with its stdout captured."""
    from ergocert import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def check_cli(result: tuple[int, bytes], expected: bytes) -> tuple[int, list[str]]:
    """Exit code 0 and stdout equal to in-process cli.main on the same argv."""
    code, stdout = result
    if code != 0:
        return 1, [f"exit_{code}"]
    if stdout != expected:
        return 1, ["stdout_differs"]
    return 1, []


def _median_wall(args: list[str], repeats: int) -> float:
    import time

    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_child(args)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def build_cli(seed: int, seconds: float) -> Workload:
    """A fixed rotation of processes; the seed picks where it starts.

    The rotation is bound (atomic), bound (nonatomic general), model
    mh-normal, model contracting-normal and table 2. With an odd number of
    commands the median process falls inside one command's times instead of
    between two.

    Expected stdout comes from in-process cli.main, computed before timing.
    The traced run replays the rotation in-process (tracing cannot see into
    child processes) and times bare and importing interpreters separately.
    """
    names = list(CLI_ROTATION)
    start = int(_rng(seed).integers(len(names)))
    names = names[start:] + names[:start]
    expected = {}
    for name in names:
        code, out = cli_in_process(CLI_ROTATION[name])
        if code != 0:
            raise RuntimeError(f"cli {name} exited {code} in-process")
        expected[name] = out

    def process_op(name: str) -> Op:
        argv = list(CLI_ROTATION[name])

        def call():
            proc = run_child(["-m", "ergocert", *argv])
            return proc.returncode, proc.stdout

        return Op(label=name, call=call, check=lambda r: check_cli(r, expected[name]),
                  probe="process")

    def in_process_op(name: str) -> Op:
        argv = CLI_ROTATION[name]
        return Op(label=name, call=lambda: cli_in_process(argv),
                  check=lambda r: check_cli(r, expected[name]))

    blocks = [[process_op(name) for name in names]]
    rotations = max(2, int(10 * seconds))
    trace_blocks = [[in_process_op(name) for name in names]] * rotations
    by_argv = {argv: name for name, argv in CLI_ROTATION.items()}
    labels = {"cli.main": lambda args, kwargs: by_argv.get(tuple(args[0]), "other")}

    def control() -> bool:
        right = expected[names[0]]
        return (
            bool(check_cli((0, right + b"x"), right)[1])
            and bool(check_cli((1, right), right)[1])
            and not check_cli((0, right), right)[1]
        )

    def extras(_tally) -> dict:
        interpreter = _median_wall(["-c", "pass"], 5)
        importing = _median_wall(["-c", "import ergocert.cli"], 5)
        return {"cli.interpreter_s": interpreter, "cli.import_s": importing - interpreter}

    return Workload(
        name="cli",
        blocks=blocks,
        per_block=False,
        tail=90.0,
        warm_up=blocks[0][0].call,
        control=control,
        trace_blocks=trace_blocks,
        trace_labels=labels,
        roadmap_names={"p50_ms": "cli.p50_s", "tail_ms": "cli.p90_s", "fail_frac": "cli.fail_frac"},
        layer_extras=extras,
    )


BUILDERS = {
    "certify": build_certify,
    "tune-mh": build_tune_mh,
    "tune-contracting": build_tune_contracting,
    "verify": build_verify,
    "cli": build_cli,
}


def build(name: str, seed: int, seconds: float) -> Workload:
    return BUILDERS[name](seed, seconds)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What one loop over blocks measured and what its checks found.

    Times are per operation: ``op_s`` as measured, ``op_cal_s`` calibrated
    to the reference machine speed (see ``calibrate``) and, in a traced
    loop, ``op_untraced_s`` for the untraced call made just before.
    ``block_of[i]`` is the block that operation i belonged to.
    """

    op_s: list = field(default_factory=list)
    op_cal_s: list = field(default_factory=list)
    op_untraced_s: list = field(default_factory=list)
    block_of: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    by_label: dict = field(default_factory=dict)

    def block_sums(self, times: list) -> list:
        sums = [0.0] * (self.block_of[-1] + 1 if self.block_of else 0)
        for b, t in zip(self.block_of, times):
            sums[b] += t
        return sums


def _untraced_call(op: Op, clock) -> float:
    t0 = clock()
    with contextlib.suppress(Exception):  # counted on the traced call
        op.call()
    return clock() - t0


def run_blocks(
    blocks: list[list[Op]],
    seconds: Optional[float] = None,
    tracer=None,
) -> Tally:
    """Run blocks in order, each op after the previous one has returned.

    With ``seconds`` the blocks are cycled until that much time has passed
    and the loop stops at the end of a block; without it each block runs
    once. Only the program call is inside an operation's time; its check
    and the calibration samples taken between operations run outside it.
    With a ``tracer`` every operation runs twice in a row, untraced and
    traced, so the pair sees the same machine speed. Which call goes first
    alternates from one operation to the next, because the second of two
    identical calls tends to run faster. The traced call's output is the
    one checked.
    """
    import time

    from calibrate import Calibration

    clock = time.perf_counter
    tally = Tally()
    cals = {}
    mids = []
    deadline = None if seconds is None else clock() + seconds
    i = 0
    while True:
        for op in blocks[i % len(blocks)]:
            if op.probe not in cals:
                cals[op.probe] = Calibration(op.probe)
            cal = cals[op.probe]
            if cal.due():
                cal.sample()
            traced_first = tracer is not None and len(tally.op_s) % 2 == 1
            if tracer is not None and not traced_first:
                tally.op_untraced_s.append(_untraced_call(op, clock))
            if tracer is not None:
                tracer.install()
            t0 = clock()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed operation, counted below
                out, error = None, type(exc).__name__
            t1 = clock()
            if tracer is not None:
                tracer.uninstall()
            checks, failures = (1, [error]) if error else op.check(out)
            if traced_first:
                tally.op_untraced_s.append(_untraced_call(op, clock))
            tally.op_s.append(t1 - t0)
            mids.append((cal, 0.5 * (t0 + t1)))
            tally.block_of.append(i)
            tally.attempted += checks
            tally.failed += len(failures)
            for reason in failures:
                tally.reasons[reason] = tally.reasons.get(reason, 0) + 1
                key = (op.label, reason)
                tally.by_label[key] = tally.by_label.get(key, 0) + 1
        i += 1
        if (deadline is None and i == len(blocks)) or (deadline is not None and clock() >= deadline):
            break
    for cal in cals.values():
        cal.sample()
    tally.op_cal_s = [dt * cal.factor(t) for dt, (cal, t) in zip(tally.op_s, mids)]
    return tally


# A known failure may exceed its rate by this many binomial standard
# deviations before a run counts as incorrect.
KNOWN_FAILURE_SIGMAS = 5.0


def unexpected_failures(wl: Workload, tally: Tally) -> list[str]:
    """What makes a run incorrect: a failure no known failure covers, or a
    known one above its rate by more than KNOWN_FAILURE_SIGMAS standard
    deviations."""
    problems = []
    counts = dict.fromkeys(wl.known_failures, 0)
    for (label, reason), n in sorted(tally.by_label.items()):
        known = [k for k in wl.known_failures if label.startswith(k.label) and reason == k.reason]
        if known:
            counts[known[0]] += n
        else:
            problems.append(f"{n} x {reason} on {label}: not a known failure")
    n = tally.attempted
    for k, count in counts.items():
        limit = k.rate * n + KNOWN_FAILURE_SIGMAS * math.sqrt(k.rate * (1.0 - k.rate) * n)
        if count > limit:
            problems.append(f"{count} x {k.reason} in {n} checks: above {limit:.1f}, "
                            f"rate {k.rate:.4g} plus {KNOWN_FAILURE_SIGMAS:g} standard deviations")
    return problems
