"""The three fedrr benchmark workloads, each run once in a fresh process.

``run.py`` starts this file as a child process per repetition:

    python3 perfbench/workloads.py '<json spec>'

The spec names the workload, its seed, its size and whether to trace.  The
child imports fedrr from ``src/`` of the checkout, runs the workload, checks
its outputs and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import ROOT as ROOT_SPAN, Tracer, per_layer_metrics  # noqa: E402

FIG2_ALGORITHMS = ("rrcli", "nastya", "fedavg")
FIG2_REPLICATES = (0, 1, 2, 3, 4)
CONTRACT_FILES = ("runs.csv", "aggregate_rrcli.csv", "aggregate_nastya.csv", "aggregate_fedavg.csv", "manifest.json")

QUAD_SHAPE = (6, 4, 5)  # M, N, d of acceptance tests 05/06
QUAD_BOUND_T = 50
QUAD_PLATEAUS = ((0.01, 400), (0.005, 700))  # (gamma, meta-epochs), shuffle-once
QUAD_SETUP_REPEATS = 25

VARIANCE_MAX_SIZE = 8
VARIANCE_TOL = 1e-10

_REFERENCE_BUF = np.arange(100_000, dtype=np.float64)
_REFERENCE_RNG = np.random.default_rng(0)


def reference_loop() -> float:
    """Seconds one fixed piece of interpreter and numpy work takes right now.

    The mix resembles the programs' hot paths without calling fedrr: scalar
    draws from a numpy generator, plain Python arithmetic, a vector pass over
    memory, and many tiny steps (a hash-keyed Philox generator, a permutation
    of 6 split in 3, arithmetic on a 5-vector, a small dict).  Timed between
    units of work, it tells how fast the machine runs at that moment.
    """
    t = time.perf_counter()
    for i in range(1, 1500):
        _REFERENCE_RNG.integers(0, i + 1)
    x = 0
    for j in range(6_000):
        x += j * j
    for _ in range(4):
        np.cumsum(_REFERENCE_BUF)
    v = np.zeros(5)
    for i in range(200):
        key = int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:16], "little")
        parts = np.array_split(np.random.Generator(np.random.Philox(key=key)).permutation(6), 3)
        w = v * 0.5 + 1.0
        v = w - 0.5e-3 * (w @ w)
        d = {"i": i, "pair": (i, i + 1)}
        x += len(parts) + d["i"]
    return time.perf_counter() - t


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def variance_geometries(max_size: int):
    """Every (M, N, C) with M*N <= max_size and C dividing M."""
    return [
        (M, N, C)
        for M in range(1, max_size + 1)
        for N in range(1, max_size // M + 1)
        for C in range(1, M + 1)
        if M % C == 0
    ]


class Result:
    """Timings, operation counts and failures of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.info: dict = {}
        # timed units of work: (kind, seconds, work units, reference-loop seconds around
        # the unit); every unit of one kind is the same amount of work
        self.samples: list[tuple[str, float, float, float]] = []
        # reference-loop seconds at the start, the end of set-up, after every unit and at the end
        self.references: list[float] = []

    def checkpoint(self) -> float:
        self.references.append(reference_loop())
        return self.references[-1]

    def sample(self, kind: str, seconds: float, units: float) -> None:
        before = self.references[-1]
        self.samples.append((kind, seconds, units, (before + self.checkpoint()) / 2))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- fig2_grid ---------------------------------------------------------------


def fig2_grid(spec, res: Result) -> None:
    from fedrr import harness

    out = Path(spec["out"])
    shutil.rmtree(ROOT / out, ignore_errors=True)
    cfg = harness.ExperimentConfig(
        dataset={"path": spec["data"]},
        M=12,
        C=3,
        T=spec["T"],
        alpha=5e-4,
        algorithms=list(FIG2_ALGORITHMS),
        regime="thm1",
        local_steps=10,
        seeds=list(FIG2_REPLICATES),
        master_seed=spec["seed"],
        client_mode="reshuffling",
        data_mode="reshuffling",
        out_dir=str(out),
    )
    # the only hook in an untraced run: when each grid job starts and ends
    jobs: list[tuple[str, float, float]] = []
    run_algorithm = harness.run_algorithm

    def timed_run(problem, algo_cfg, optimum):
        if not jobs:
            res.checkpoint()  # end of set-up
        t = time.perf_counter()
        try:
            trace = run_algorithm(problem, algo_cfg, optimum)
        finally:
            jobs.append((algo_cfg.algorithm, t, time.perf_counter()))
        res.sample(algo_cfg.algorithm, jobs[-1][2] - t, trace.points[-1].grad_evals / (problem.M * problem.N))
        return trace

    harness.run_algorithm = timed_run
    t0 = time.perf_counter()
    summary = harness.run_experiment(cfg, out)
    t_end = time.perf_counter()
    harness.run_algorithm = run_algorithm

    problem = summary["problem"]
    res.info.update(setup_s=jobs[0][1] - t0, work_s=jobs[-1][2] - jobs[0][1], write_s=t_end - jobs[-1][2])
    epochs = 0.0
    for r in summary["results"]:
        ok = not r.diverged and all(math.isfinite(p.dist_sq) and math.isfinite(p.func_gap) for p in r.trace.points)
        res.check(ok, f"job {r.algorithm} replicate {r.replicate}: {'diverged' if r.diverged else 'non-finite trace'}")
        if not r.diverged:
            epochs += r.trace.points[-1].grad_evals / (problem.M * problem.N)
    grad_norm = summary["optimum"].grad_norm
    res.check(grad_norm <= cfg.optimum_tol, f"optimum gradient norm {grad_norm:.3e} > {cfg.optimum_tol}")
    res.info["units"] = epochs
    res.info["bytes_written"] = sum(p.stat().st_size for p in (ROOT / out).rglob("*") if p.is_file())
    res.digests = {name: sha256_file(ROOT / out / name) for name in CONTRACT_FILES}
    res.info["final_dist_sq"] = {
        a: statistics.fmean(r.trace.final_dist_sq() for r in summary["results"] if r.algorithm == a and not r.diverged)
        for a in FIG2_ALGORITHMS
    }


# -- quad_montecarlo ---------------------------------------------------------


def _quad_setup(seed):
    from fedrr import optimizer, problem, theory, variance_lab

    M, N, d = QUAD_SHAPE
    bound_problem = problem.quadratic_problem(M, N, d, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=seed)
    bound_opt = bound_problem.analytic_optimum()
    s2, st2 = variance_lab.star_variances(bound_problem, bound_opt.x_star)
    gamma = 1.0 / (2 * bound_problem.L)
    steps = optimizer.StepSizes(gamma=gamma, eta=gamma * N, theta=gamma * N * (M // 2))
    rp = theory.RegimeParams(
        regime=theory.THM1, L=bound_problem.L, mu=bound_problem.mu, M=M, N=N, C=2,
        sigma_star2=s2, sigma_tilde_star2=st2, dist0_sq=float(bound_opt.x_star @ bound_opt.x_star),
    )
    plateau_problem = problem.quadratic_problem(M, N, d, mu=1.0, L=10.0, client_spread=2.0, sample_spread=0.3, seed=seed)
    plateau_opt = plateau_problem.analytic_optimum()
    return bound_problem, bound_opt, steps, rp, plateau_problem, plateau_opt


def quad_montecarlo(spec, res: Result) -> None:
    from fedrr import optimizer, shuffling, theory

    t0 = time.perf_counter()
    setup_times = []
    for _ in range(QUAD_SETUP_REPEATS):
        ts = time.perf_counter()
        bound_problem, bound_opt, steps, rp, plateau_problem, plateau_opt = _quad_setup(spec["seed"])
        setup_times.append(time.perf_counter() - ts)
    t_work = time.perf_counter()
    res.checkpoint()

    digest = hashlib.sha256()
    epochs = 0.0

    def run(problem, opt, cfg):
        nonlocal epochs
        t = time.perf_counter()
        try:
            trace = optimizer.run_algorithm(problem, cfg, opt)
        except optimizer.DivergenceError as exc:
            res.check(False, f"{cfg.algorithm} seed {cfg.seed}: {exc}")
            return None
        dt = time.perf_counter() - t
        finite = all(math.isfinite(p.dist_sq) for p in trace.points)
        res.check(finite, f"{cfg.algorithm} seed {cfg.seed}: non-finite trace")
        digest.update(f"{cfg.algorithm} {cfg.seed} {cfg.steps.gamma!r}\n".encode())
        for p in trace.points:
            digest.update(f"{p.epoch!r} {p.dist_sq!r} {p.func_gap!r} {p.grad_evals}\n".encode())
        run_epochs = trace.points[-1].grad_evals / (problem.M * problem.N)
        epochs += run_epochs
        res.sample(f"{cfg.algorithm} {cfg.shuffle.data_mode.value} T={cfg.T} gamma={cfg.steps.gamma!r}", dt, run_epochs)
        return trace

    reshuffle = shuffling.ShuffleMode(shuffling.ClientMode.RESHUFFLING, shuffling.DataMode.RESHUFFLING)
    traces = []
    for s in range(spec["mc_runs"]):
        cfg = optimizer.AlgoConfig(algorithm="rrcli", C=2, T=QUAD_BOUND_T, steps=steps, shuffle=reshuffle, seed=s)
        trace = run(bound_problem, bound_opt, cfg)
        if trace is not None:
            traces.append([p.dist_sq for p in trace.points])
    mean = np.mean(traces, axis=0) if traces else np.full(QUAD_BOUND_T + 1, np.inf)
    worst = 0.0
    for T in range(1, QUAD_BOUND_T + 1):
        ratio = float(mean[T]) / theory.bound_rhs(rp, steps, T)
        worst = max(worst, ratio)
        res.check(ratio <= 1.0, f"mean trajectory above bound_rhs at T={T} (ratio {ratio:.3e})")

    once = shuffling.ShuffleMode(shuffling.ClientMode.SHUFFLE_ONCE, shuffling.DataMode.SHUFFLE_ONCE)
    N = plateau_problem.N
    ratios = {"rrcli": [], "rrcli-wr": []}
    for s in range(spec["plateau_seeds"]):
        for algorithm in ratios:
            levels = []
            for gamma, T in QUAD_PLATEAUS:
                st = optimizer.StepSizes(gamma=gamma, eta=gamma * N, theta=gamma * N * 3)
                cfg = optimizer.AlgoConfig(algorithm=algorithm, C=2, T=T, steps=st, shuffle=once, seed=s)
                trace = run(plateau_problem, plateau_opt, cfg)
                if trace is not None:
                    levels.append(statistics.fmean(p.dist_sq for p in trace.points[-50:]))
            if len(levels) == 2:
                ratios[algorithm].append(levels[0] / levels[1])
    t_end = time.perf_counter()

    res.info.update(
        setup_s=statistics.median(setup_times),
        first_setup_s=t_work - t0,
        work_s=t_end - t_work,
        units=epochs,
        bound_worst_ratio=worst,
        plateau_ratio_median={a: statistics.median(v) if v else None for a, v in ratios.items()},
    )
    res.digests = {"trace_values": digest.hexdigest()}


# -- variance_enum -----------------------------------------------------------

_CHECK_LINE = re.compile(r"^M=(\d+) N=(\d+) C=(\d+): max rel error (\S+) (ok|FAIL)$")


def variance_enum(spec, res: Result) -> None:
    from fedrr import cli, variance_lab

    geometries = variance_geometries(VARIANCE_MAX_SIZE)
    rng = np.random.default_rng([spec["seed"], 3])
    inputs = [variance_lab.VarianceInputs(rng.normal(size=(M, N, 2))) for M, N, _ in geometries]
    t0 = time.perf_counter()
    # the first brute_force_all per geometry builds its cached outcome table
    for (M, N, C), inp in zip(geometries, inputs):
        variance_lab.brute_force_all(inp, C)
    t_work = time.perf_counter()
    res.checkpoint()
    # one verify-variance call per input round: every call checks all geometries once
    outputs = []
    for i in range(spec["inputs"]):
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main([
                "verify-variance", "--max-size", str(VARIANCE_MAX_SIZE), "--inputs", "1",
                "--seed", str(spec["seed"] * 1000 + i), "--tol", repr(VARIANCE_TOL),
            ])
        dt = time.perf_counter() - t
        outputs.append((code, buf.getvalue()))
        res.sample("verify-variance --inputs 1", dt, len(geometries))
    t_end = time.perf_counter()

    checks = 0
    worst = 0.0
    digest = hashlib.sha256()
    for code, text in outputs:
        digest.update(text.encode())
        res.check(code == 0, f"verify-variance exit code {code}")
        lines = text.splitlines()
        reported = 0
        for line in lines[:-1]:
            m = _CHECK_LINE.match(line)
            if m is None:
                res.check(False, f"unexpected output line {line!r}")
                continue
            err = float(m.group(4))
            worst = max(worst, err)
            reported += 1
            res.check(m.group(5) == "ok" and err <= VARIANCE_TOL, f"check failed: {line}")
        res.check(reported == len(geometries), f"{reported} checks reported, {len(geometries)} expected")
        res.check(bool(lines) and lines[-1].startswith("worst relative error"), "missing summary line")
        checks += reported
    res.info.update(
        setup_s=t_work - t0, work_s=t_end - t_work, units=checks, worst_rel_error=worst,
        geometries=len(geometries), outcomes=sum(math.factorial(M) * math.factorial(N) ** M for M, N, _ in geometries),
    )
    res.digests = {"verify_output": digest.hexdigest()}


WORKLOADS = {"fig2_grid": fig2_grid, "quad_montecarlo": quad_montecarlo, "variance_enum": variance_enum}

# spans that make up each workload's set-up and its measured work (traced runs)
PHASES = {
    "fig2_grid": {
        "setup": ("harness.build_problem", "harness.resolve_optimum", "variance_lab.star_variances"),
        "work": ("optimizer.run_algorithm",),
    },
    "quad_montecarlo": {
        "setup": ("problem.quadratic_problem", "problem.QuadraticProblem.analytic_optimum", "variance_lab.star_variances"),
        "work": ("optimizer.run_algorithm", "theory.bound_rhs"),
    },
    "variance_enum": {"setup": ("variance_lab.brute_force_all",), "work": ("cli.main",)},
}


def main(argv) -> int:
    spec = json.loads(argv[1])
    tracer = Tracer() if spec["trace"] else None
    import fedrr

    if Path(fedrr.__file__).resolve().parent != ROOT / "src" / "fedrr":
        raise SystemExit(f"fedrr imported from {fedrr.__file__}, not from this checkout")
    if tracer is not None:
        tracer.install()
    res = Result()
    res.checkpoint()
    root = tracer.open(ROOT_SPAN) if tracer is not None else None
    WORKLOADS[spec["workload"]](spec, res)
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    res.checkpoint()
    out = {
        "attempted": res.attempted,
        "failures": res.failures,
        "digests": res.digests,
        "info": res.info,
        "samples": res.samples,
        "references": res.references,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = per_layer_metrics(tracer, PHASES[spec["workload"]], res.info)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
