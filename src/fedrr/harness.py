"""Experiment driver: config loading, run grids, CSV and manifest output.

The CSV files are the contract: per-run curves in ``runs.csv``, per-algorithm
mean curves in ``aggregate_<algorithm>.csv``, and a ``manifest.json`` that
records everything needed to reproduce the run byte for byte.  Wall-clock
timings go to a separate ``timings.csv`` so the contract files stay
deterministic.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_libsvm_file, partition, synthetic_libsvm_like
from .optimizer import (
    ALGORITHMS,
    FEDAVG,
    NASTYA,
    RRCLI,
    RRCLI_WITH_REPLACEMENT,
    AlgoConfig,
    DivergenceError,
    RunTrace,
    StepSizes,
    run_algorithm,
)
from .problem import (
    FederatedProblem,
    Optimum,
    ProblemError,
    load_optimum,
    logistic_problem,
    quadratic_problem,
    save_optimum,
    solve_optimum,
)
from .rng import derive_seed
from .shuffling import ClientMode, DataMode, ShuffleMode, load_fixed_schedule
from .theory import THM1, REGIMES, RegimeParams, theoretical_steps
from .variance_lab import star_variances

WORKERS_ENV = "FEDRR_WORKERS"

RUN_FIELDS = ["algorithm", "multiplier", "seed", "epoch", "dist_sq", "func_gap", "grad_evals"]
AGG_FIELDS = ["algorithm", "multiplier", "epoch", "dist_sq_mean", "func_gap_mean", "n_runs"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment grid.

    ``seeds`` are replicate indices; per-run seeds derive from
    (master_seed, algorithm, multiplier, replicate) so extending the grid
    never perturbs existing runs.
    """

    dataset: dict = field(default_factory=lambda: {"synthetic": {}})
    M: int = 12
    C: int = 3
    T: int = 100  # epoch budget (meta-epochs for the shuffled algorithms)
    alpha: float = 5e-4
    algorithms: list = field(default_factory=lambda: [RRCLI, NASTYA, FEDAVG])
    regime: str = THM1
    multipliers: list = field(default_factory=lambda: [1.0])
    decay: bool = False
    local_steps: int | None = 10
    batch_fraction: float = 0.1
    nastya_gamma: float | None = None
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    master_seed: int = 2024
    client_mode: str = "reshuffling"
    data_mode: str = "reshuffling"
    fixed_schedule_path: str | None = None
    optimum_tol: float = 1e-12
    out_dir: str = "results"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds list must be nonempty")
        if any(m <= 0 for m in self.multipliers):
            raise ConfigError("multipliers must be positive")
        if self.T < 1:
            raise ConfigError("epoch budget must be positive")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def shuffle_mode(self) -> ShuffleMode:
        fixed = None
        client_mode = ClientMode(self.client_mode)
        if self.fixed_schedule_path is not None:
            fixed = load_fixed_schedule(self.fixed_schedule_path)
            client_mode = ClientMode.DETERMINISTIC_FIXED
        return ShuffleMode(client_mode=client_mode, data_mode=DataMode(self.data_mode), fixed_schedule=fixed)


def build_problem(cfg: ExperimentConfig) -> tuple[FederatedProblem, str]:
    """Instantiate the configured problem; returns (problem, dataset hash)."""
    spec = cfg.dataset
    if "quadratic" in spec:
        q = dict(spec["quadratic"])
        q.setdefault("M", cfg.M)
        prob = quadratic_problem(
            M=q["M"],
            N=q.get("N", 4),
            d=q.get("d", 5),
            mu=q.get("mu", 1.0),
            L=q.get("L", 10.0),
            client_spread=q.get("client_spread", 1.0),
            sample_spread=q.get("sample_spread", 0.5),
            seed=q.get("seed", cfg.master_seed),
        )
        digest = hashlib.sha256(json.dumps(q, sort_keys=True).encode()).hexdigest()
        return prob, digest
    if "path" in spec:
        ds = load_libsvm_file(spec["path"])
    elif "synthetic" in spec:
        ds = synthetic_libsvm_like(**spec["synthetic"])
    else:
        raise ConfigError("dataset spec needs one of: path, synthetic, quadratic")
    digest = hashlib.sha256(ds.to_libsvm_text().encode()).hexdigest()
    part = partition(ds, cfg.M, cfg.master_seed)
    return logistic_problem(part, ds, cfg.alpha), digest


def resolve_optimum(
    problem: FederatedProblem,
    cfg: ExperimentConfig,
    cache_dir: Path | None = None,
    cache_key: str = "",
) -> Optimum:
    """Solve (or load a cached) optimum for the configured problem."""
    if hasattr(problem, "analytic_optimum"):
        return problem.analytic_optimum()
    if cache_dir is not None and cache_key:
        key = hashlib.sha256(
            f"{cache_key}:{cfg.M}:{cfg.master_seed}:{problem.alpha}:{cfg.optimum_tol}".encode()
        ).hexdigest()[:24]
        cache = Path(cache_dir) / f"optimum_{key}.bin"
        if cache.exists():
            try:
                opt = load_optimum(cache)
                if opt.x_star.size == problem.d:
                    return opt
            except ProblemError:
                pass  # truncated or corrupt: solve again and overwrite it
        opt = solve_optimum(problem, cfg.optimum_tol)
        cache.parent.mkdir(parents=True, exist_ok=True)
        save_optimum(cache, opt)
        return opt
    return solve_optimum(problem, cfg.optimum_tol)


def algorithm_steps(algorithm: str, problem: FederatedProblem, cfg: ExperimentConfig, multiplier: float) -> StepSizes:
    """Theoretical step sizes for one algorithm, scaled by the multiplier.

    When a pass is batched into S < N local steps, the batch means play the
    role of the data points, so the theoretical relations use S as the pass
    length.  The shuffled-participation method uses the configured regime's
    steps; the round-sampling baseline takes the server-regime local step
    with plain model averaging (eta = gamma*S); the local-SGD baseline steps
    at 1/(L + mu) with model averaging over its minibatch steps.  The
    multiplier scales all levels together so the collapse relations are
    preserved.
    """
    R = problem.M // cfg.C
    S = cfg.local_steps if cfg.local_steps is not None else problem.N
    if algorithm in (RRCLI, RRCLI_WITH_REPLACEMENT):
        rp = RegimeParams(regime=cfg.regime, L=problem.L, mu=problem.mu, M=problem.M, N=S, C=cfg.C)
        base = theoretical_steps(rp)
    elif algorithm == NASTYA:
        # Tunable: the stability-limited local step with model averaging.
        # cfg.nastya_gamma overrides it (e.g. with the server-regime formula).
        gamma = cfg.nastya_gamma if cfg.nastya_gamma is not None else 1.0 / (problem.L + problem.mu)
        base = StepSizes(gamma=gamma, eta=gamma * S, theta=gamma * S * R)
    elif algorithm == FEDAVG:
        gamma = 1.0 / (problem.L + problem.mu)
        S = cfg.local_steps if cfg.local_steps is not None else 10
        base = StepSizes(gamma=gamma, eta=gamma * S, theta=gamma * S * R)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    m = float(multiplier)
    return StepSizes(gamma=base.gamma * m, eta=base.eta * m, theta=base.theta * m, decay=base.decay)


@dataclass
class RunResult:
    algorithm: str
    multiplier: float
    replicate: int
    seed: int
    trace: RunTrace | None
    diverged: bool
    error: str | None = None


def _execute_run(problem, optimum, cfg: ExperimentConfig, algorithm: str, multiplier: float, replicate: int) -> RunResult:
    seed = derive_seed(cfg.master_seed, "run", algorithm, multiplier, replicate)
    steps = algorithm_steps(algorithm, problem, cfg, multiplier)
    algo_cfg = AlgoConfig(
        algorithm=algorithm,
        C=cfg.C,
        T=cfg.T,
        steps=steps,
        shuffle=cfg.shuffle_mode(),
        local_steps=cfg.local_steps,
        batch_fraction=cfg.batch_fraction,
        seed=seed,
        decay=cfg.decay,
    )
    try:
        trace = run_algorithm(problem, algo_cfg, optimum)
        return RunResult(algorithm, multiplier, replicate, seed, trace, diverged=False)
    except DivergenceError as exc:
        return RunResult(algorithm, multiplier, replicate, seed, None, diverged=True, error=str(exc))


def _run_job(args):
    return _execute_run(*args)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run the full (algorithm, multiplier, seed) grid and write outputs.

    Returns a summary dict with result objects, selected multipliers, and
    output paths.  Worker count comes from the FEDRR_WORKERS environment
    variable (default 1); results are collected in grid order either way.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem, data_hash = build_problem(cfg)
    if problem.M % cfg.C != 0:
        raise ConfigError(f"cohort size {cfg.C} does not divide client count {problem.M}")
    optimum = resolve_optimum(problem, cfg, cache_dir=out / "cache", cache_key=data_hash)
    sigma_star2, sigma_tilde_star2 = star_variances(problem, optimum.x_star)

    jobs = [
        (problem, optimum, cfg, algorithm, float(multiplier), replicate)
        for algorithm in cfg.algorithms
        for multiplier in cfg.multipliers
        for replicate in cfg.seeds
    ]
    workers = int(os.environ.get(WORKERS_ENV, "1"))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(j) for j in jobs]

    _write_runs_csv(out / "runs.csv", results)
    _write_timings_csv(out / "timings.csv", results)
    for algorithm in cfg.algorithms:
        _write_aggregate_csv(out / f"aggregate_{algorithm}.csv", [r for r in results if r.algorithm == algorithm])

    best = None
    if len(cfg.multipliers) > 1:
        best = select_best_multiplier(results)
        with open(out / "best_multipliers.json", "w") as fh:
            json.dump(best, fh, indent=2, sort_keys=True)

    manifest = {
        "config": cfg.to_dict(),
        "dataset_hash": data_hash,
        "optimum_hash": hashlib.sha256(np.ascontiguousarray(optimum.x_star).tobytes()).hexdigest(),
        "constants": {
            "L": problem.L,
            "mu": problem.mu,
            "kappa": problem.L / problem.mu,
            "M": problem.M,
            "N": problem.N,
            "sigma_star2": sigma_star2,
            "sigma_tilde_star2": sigma_tilde_star2,
            "grad_norm_at_optimum": optimum.grad_norm,
        },
        "runs": [
            {
                "algorithm": r.algorithm,
                "multiplier": r.multiplier,
                "replicate": r.replicate,
                "seed": r.seed,
                "diverged": r.diverged,
                "error": r.error,
            }
            for r in results
        ],
        "diverged_count": sum(r.diverged for r in results),
        "version": __version__,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    return {
        "results": results,
        "best_multipliers": best,
        "out_dir": out,
        "manifest": manifest,
        "problem": problem,
        "optimum": optimum,
    }


def select_best_multiplier(results) -> dict:
    """Per algorithm: the multiplier with the smallest final mean distance.

    Multipliers whose runs all diverged are excluded; ties break toward the
    smaller multiplier.  Raises if every multiplier of an algorithm diverged.
    """
    out = {}
    for algorithm in sorted({r.algorithm for r in results}):
        candidates = []
        for multiplier in sorted({r.multiplier for r in results if r.algorithm == algorithm}):
            finals = [
                r.trace.final_dist_sq()
                for r in results
                if r.algorithm == algorithm and r.multiplier == multiplier and not r.diverged
            ]
            if finals:
                candidates.append((float(np.mean(finals)), multiplier))
        if not candidates:
            raise DivergenceError(f"all runs diverged for algorithm {algorithm!r}")
        out[algorithm] = min(candidates)[1]
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_runs_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RUN_FIELDS)
        for r in results:
            if r.diverged:
                continue
            for p in r.trace.points:
                w.writerow([r.algorithm, _fmt(r.multiplier), r.seed, _fmt(p.epoch), _fmt(p.dist_sq), _fmt(p.func_gap), p.grad_evals])


def _write_timings_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "multiplier", "seed", "epoch", "wall_ms"])
        for r in results:
            if r.diverged:
                continue
            for p in r.trace.points:
                w.writerow([r.algorithm, _fmt(r.multiplier), r.seed, _fmt(p.epoch), _fmt(p.wall_s * 1e3)])


def _write_aggregate_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(AGG_FIELDS)
        for multiplier in sorted({r.multiplier for r in results}):
            live = [r for r in results if r.multiplier == multiplier and not r.diverged]
            if not live:
                continue
            epochs = sorted({p.epoch for r in live for p in r.trace.points})
            for epoch in epochs:
                dist, gap = [], []
                for r in live:
                    match = [p for p in r.trace.points if p.epoch == epoch]
                    if match:
                        dist.append(match[0].dist_sq)
                        gap.append(match[0].func_gap)
                w.writerow(
                    [
                        results[0].algorithm,
                        _fmt(multiplier),
                        _fmt(epoch),
                        _fmt(np.mean(dist)),
                        _fmt(np.mean(gap)),
                        len(dist),
                    ]
                )
