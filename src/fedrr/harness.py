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
import inspect
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import libsvm_text, load_libsvm_file, partition, synthetic_libsvm_like
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
    check_run_settings,
    pass_length,
    run_algorithm,
)
from .problem import FederatedProblem, Optimum, logistic_problem, optimum_at, quadratic_problem, solve_optimum
from .rng import derive_seed
from .shuffling import (
    ClientMode,
    DataMode,
    ScheduleError,
    ShuffleMode,
    check_fixed_schedule,
    load_fixed_schedule,
)
from .theory import THM1, REGIMES, RegimeParams, theoretical_steps
from .variance_lab import star_variances

WORKERS_ENV = "FEDRR_WORKERS"

RUN_FIELDS = ["algorithm", "multiplier", "seed", "epoch", "dist_sq", "func_gap", "grad_evals"]
AGG_FIELDS = ["algorithm", "multiplier", "epoch", "dist_sq_mean", "func_gap_mean", "n_runs"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# the JSON value each annotated type names, as (description, isinstance class)
_KINDS = {
    "bool": ("true or false", bool), "int": ("an integer", numbers.Integral), "float": ("a number", numbers.Real),
    "str": ("a string", str), "None": ("null", type(None)), "list": ("a list", list), "dict": ("an object", dict),
}


def _require(name: str, value, annotation: str) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` fits ``annotation`` (``list[float]``, say); no bool is a number."""
    outer, _, item = annotation.partition("[")
    kinds = [_KINDS[k] for k in outer.split(" | ")]
    if not any(isinstance(value, cls) and isinstance(value, bool) == (cls is bool) for _, cls in kinds):
        raise ConfigError(f"{name} must be {' or '.join(text for text, _ in kinds)}, got {value!r}")
    for i, v in enumerate(value if item else ()):
        _require(f"{name}[{i}]", v, item[:-1])


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment grid.

    ``seeds`` are replicate indices; per-run seeds derive from
    (master_seed, algorithm, multiplier, replicate) so extending the grid
    never perturbs existing runs.  Only rrcli follows ``client_mode`` (and a
    ``fixed_schedule_path``): rrcli-wr, nastya and fedavg draw their own
    cohorts.  ``data_mode`` orders the local passes of rrcli, rrcli-wr and
    nastya; fedavg draws its own minibatches.
    """

    dataset: dict = field(default_factory=lambda: {"synthetic": {}})
    M: int = 12
    C: int = 3
    T: int = 100  # epoch budget (meta-epochs for the shuffled algorithms)
    alpha: float = 5e-4
    algorithms: list[str] = field(default_factory=lambda: [RRCLI, NASTYA, FEDAVG])
    regime: str = THM1
    multipliers: list[float] = field(default_factory=lambda: [1.0])
    decay: bool = False
    local_steps: int | None = 10
    batch_fraction: float = 0.1
    nastya_gamma: float | None = None
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    master_seed: int = 2024
    client_mode: str = "reshuffling"
    data_mode: str = "reshuffling"
    fixed_schedule_path: str | None = None
    optimum_tol: float = 1e-12
    out_dir: str = "results"

    def __post_init__(self):
        # every field, and every key of a synthetic or quadratic dataset, must fit its annotation
        for f in dataclasses.fields(self):
            _require(f.name, getattr(self, f.name), f.type)
        if len(self.dataset) != 1 or not self.dataset.keys() <= {"path", "synthetic", "quadratic"}:
            keys = sorted(self.dataset)
            raise ConfigError(f"dataset must hold exactly one of 'path', 'synthetic' and 'quadratic', got {keys}")
        _require("dataset.path", self.dataset.get("path", ""), "str")
        for kind, builder in (("synthetic", synthetic_libsvm_like), ("quadratic", quadratic_problem)):
            _require(f"dataset.{kind}", self.dataset.get(kind, {}), "dict")
            params = inspect.signature(builder).parameters
            for key, value in self.dataset.get(kind, {}).items():
                if key not in params:
                    raise ConfigError(f"unknown dataset.{kind} key {key!r}; expected one of {sorted(params)}")
                _require(f"dataset.{kind}.{key}", value, params[key].annotation)
        # a repeated entry would run (and average) the same seeded runs twice
        for name in ("algorithms", "multipliers", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} list must be nonempty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} list repeats {repeated[0]!r}")
        # NaN and inf included, for every dataset kind: an infinite step or regularizer
        # diverges, and an infinite tolerance takes x = 0 for the optimum
        gamma = [] if self.nastya_gamma is None else [self.nastya_gamma]
        for name, values in (
            ("multipliers", self.multipliers), ("nastya_gamma", gamma),
            ("regularizer alpha", [self.alpha]), ("tolerance", [self.optimum_tol]),
        ):
            for value in values:
                if not 0 < value < math.inf:
                    raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        for a in self.algorithms:
            try:
                check_run_settings(a, self.C, self.T, self.local_steps, self.batch_fraction)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        # C | M: every client trains exactly once in each meta-epoch of M/C rounds
        if self.M % self.C != 0:
            raise ConfigError(f"cohort size {self.C} does not divide client count {self.M}")
        for name, modes in (("client_mode", ClientMode), ("data_mode", DataMode)):
            value, allowed = getattr(self, name), [m.value for m in modes]
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}; expected one of {allowed}")
        fixed = self.client_mode == ClientMode.DETERMINISTIC_FIXED.value
        if fixed != (self.fixed_schedule_path is not None):
            raise ConfigError(f"client_mode {self.client_mode!r} {'needs a' if fixed else 'takes no'} fixed_schedule_path")
        quad = self.dataset.get("quadratic", {})
        if quad.get("M", self.M) != self.M:
            raise ConfigError(f"quadratic dataset M={quad['M']} differs from the config's M={self.M}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, an int past the digit limit, deep nesting
                raise ConfigError(str(exc)) from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must hold a JSON object, not a {type(raw).__name__}")
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _load_shuffle_mode(cfg: ExperimentConfig) -> ShuffleMode:
    """The grid's shuffle mode; a fixed schedule is read here, once for all jobs.

    Every epoch of a fixed schedule must split the M clients into cohorts of C.
    """
    path = cfg.fixed_schedule_path
    if path is None:
        return ShuffleMode(client_mode=ClientMode(cfg.client_mode), data_mode=DataMode(cfg.data_mode))
    try:
        mode = ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode(cfg.data_mode), load_fixed_schedule(path))
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"fixed schedule {path} is not epochs of cohorts of client ids: {exc}") from exc
    try:
        check_fixed_schedule(cfg.M, cfg.C, mode.fixed_schedule)
    except ScheduleError as exc:
        raise ConfigError(f"fixed schedule {path} does not fit M={cfg.M}, C={cfg.C}: {exc}") from exc
    return mode


def build_problem(cfg: ExperimentConfig) -> tuple[FederatedProblem, str]:
    """Instantiate the configured problem; returns (problem, dataset hash)."""
    spec = cfg.dataset
    if "quadratic" in spec:
        q = {"M": cfg.M, "seed": cfg.master_seed, **spec["quadratic"]}
        digest = hashlib.sha256(json.dumps(q, sort_keys=True).encode()).hexdigest()
        return quadratic_problem(**q), digest
    X, labels = load_libsvm_file(spec["path"]) if "path" in spec else synthetic_libsvm_like(**spec["synthetic"])
    digest = hashlib.sha256(libsvm_text(X, labels).encode()).hexdigest()
    return logistic_problem(partition(len(labels), cfg.M, cfg.master_seed), X, labels, cfg.alpha), digest


def resolve_optimum(problem: FederatedProblem, cfg: ExperimentConfig, cache_dir: Path, cache_key: str) -> Optimum:
    """The problem's analytic optimum, else the x* cached as ``.npy`` under ``cache_dir``, solved on a miss.

    A cached vector is used only if it is a float64 vector of length d whose
    gradient norm meets ``cfg.optimum_tol``; any other file is solved again and overwritten.
    """
    if hasattr(problem, "analytic_optimum"):
        return problem.analytic_optimum()
    # the dataset hash does not record d: a column listed only as zero widens the problem, not the hash
    key = hashlib.sha256(
        f"{cache_key}:{problem.d}:{cfg.M}:{cfg.master_seed}:{problem.alpha}:{cfg.optimum_tol}".encode()
    ).hexdigest()[:24]
    cache = Path(cache_dir) / f"optimum_{key}.npy"
    try:
        with open(cache, "rb") as fh:
            x = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        pass  # missing, truncated or not an array: solve again and overwrite it
    else:
        if x.dtype == np.float64 and x.shape == (problem.d,):
            with np.errstate(all="ignore"):  # a stray vector may overflow; its norm then fails the test
                opt = optimum_at(problem, x)
            if opt.grad_norm <= cfg.optimum_tol:
                return opt
    opt = solve_optimum(problem, cfg.optimum_tol)
    cache.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_write(cache, "wb") as fh:
        np.save(fh, opt.x_star, allow_pickle=False)
    return opt


def algorithm_steps(algorithm: str, problem: FederatedProblem, cfg: ExperimentConfig, multiplier: float) -> StepSizes:
    """Theoretical step sizes for one algorithm, scaled by the multiplier.

    When a pass is batched into S < N local steps, the batch means play the
    role of the data points, so the theoretical relations use the
    optimizer's pass length S (at most N for a shuffled pass).  The
    shuffled-participation method uses the configured regime's steps; the
    round-sampling (nastya) and local-SGD (fedavg) baselines take the
    stability-limited local step 1/(L + mu) with plain model averaging
    (eta = gamma*S), and ``cfg.nastya_gamma`` overrides nastya's (e.g. with
    the server-regime formula).  The multiplier scales all levels together
    so the collapse relations are preserved.
    """
    R = problem.M // cfg.C
    S = pass_length(algorithm, problem.N, cfg.local_steps)
    if algorithm in (RRCLI, RRCLI_WITH_REPLACEMENT):
        base = theoretical_steps(RegimeParams(regime=cfg.regime, L=problem.L, mu=problem.mu, M=problem.M, N=S, C=cfg.C))
    else:  # nastya or fedavg: ExperimentConfig and AlgoConfig reject any other name
        gamma = cfg.nastya_gamma if algorithm == NASTYA and cfg.nastya_gamma is not None else 1.0 / (problem.L + problem.mu)
        base = StepSizes(gamma=gamma, eta=gamma * S, theta=gamma * S * R)
    m = float(multiplier)
    return StepSizes(gamma=base.gamma * m, eta=base.eta * m, theta=base.theta * m)


@dataclass
class RunResult:
    algorithm: str
    multiplier: float
    replicate: int
    seed: int
    trace: RunTrace | None
    diverged: bool
    error: str | None = None


def _execute_run(problem, optimum, algo_cfg: AlgoConfig, multiplier: float, replicate: int) -> RunResult:
    try:
        with np.errstate(all="ignore"):  # a diverging run's warnings would repeat what its DivergenceError records
            trace = run_algorithm(problem, algo_cfg, optimum)
        return RunResult(algo_cfg.algorithm, multiplier, replicate, algo_cfg.seed, trace, diverged=False)
    except DivergenceError as exc:
        return RunResult(algo_cfg.algorithm, multiplier, replicate, algo_cfg.seed, None, diverged=True, error=str(exc))


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run the full (algorithm, multiplier, seed) grid and write outputs.

    Returns a summary dict with result objects, selected multipliers, and
    output paths.  Worker count comes from the FEDRR_WORKERS environment
    variable (default 1); results are collected in grid order either way.
    """
    out_dir = cfg.out_dir if out_dir is None else out_dir
    if os.fspath(out_dir) == "":  # Path("") would be the working directory
        raise ConfigError("output directory must be a nonempty path")
    try:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    except ValueError:
        workers = 0
    if workers < 1:  # the default is 1, so the variable is set here
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {os.environ[WORKERS_ENV]!r}")
    shuffle = _load_shuffle_mode(cfg)
    out = Path(out_dir)
    problem, data_hash = build_problem(cfg)
    # every job's settings exist before the optimum solve and any output: a step size that underflows writes nothing
    jobs = []
    for algorithm in cfg.algorithms:
        for multiplier in map(float, cfg.multipliers):
            try:
                steps = algorithm_steps(algorithm, problem, cfg, multiplier)
            except ValueError as exc:
                raise ConfigError(f"{algorithm} at multiplier {multiplier!r}: {exc}") from None
            for replicate in cfg.seeds:
                algo_cfg = AlgoConfig(
                    algorithm=algorithm,
                    C=cfg.C,
                    T=cfg.T,
                    steps=steps,
                    shuffle=shuffle,
                    local_steps=cfg.local_steps,
                    batch_fraction=cfg.batch_fraction,
                    seed=derive_seed(cfg.master_seed, "run", algorithm, multiplier, replicate),
                    decay=cfg.decay,
                )
                jobs.append((algo_cfg, multiplier, replicate))
    optimum = resolve_optimum(problem, cfg, cache_dir=out / "cache", cache_key=data_hash)
    out.mkdir(parents=True, exist_ok=True)  # only now: a bad dataset or a failed solve leaves no directory behind
    sigma_star2, sigma_tilde_star2 = star_variances(problem, optimum.x_star)
    workers = min(workers, len(jobs))  # the pool starts every worker it is given, needed or not
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so a one-worker process never loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_run, [problem] * len(jobs), [optimum] * len(jobs), *zip(*jobs)))
    else:
        results = [_execute_run(problem, optimum, *job) for job in jobs]

    # chosen before any file is written, with one multiplier or many, so a grid in
    # which every run of an algorithm diverged leaves the previous outputs as they were
    best = select_best_multiplier(results)
    groups = _finished_groups(results)
    # every finished point in grid order, with the leading columns runs.csv and timings.csv share
    points = [
        (p, [r.algorithm, _fmt(r.multiplier), r.seed, _fmt(p.epoch)])
        for runs in groups.values() for r in runs for p in r.trace.points
    ]
    _write_csv(out / "runs.csv", RUN_FIELDS, (key + [_fmt(p.dist_sq), _fmt(p.func_gap), p.grad_evals] for p, key in points))
    _write_csv(out / "timings.csv", RUN_FIELDS[:4] + ["wall_ms"], (key + [_fmt(p.wall_s * 1e3)] for p, key in points))
    for algorithm in cfg.algorithms:
        _write_csv(out / f"aggregate_{algorithm}.csv", AGG_FIELDS, _aggregate_rows(groups, algorithm))

    # an earlier grid's files that this manifest does not describe go
    for algorithm in ALGORITHMS:
        if algorithm not in cfg.algorithms:
            (out / f"aggregate_{algorithm}.csv").unlink(missing_ok=True)
    if len(cfg.multipliers) > 1:  # only a sweep reports its choice
        with _atomic_write(out / "best_multipliers.json") as fh:
            json.dump(best, fh, indent=2, sort_keys=True)
    else:
        best = None
        (out / "best_multipliers.json").unlink(missing_ok=True)

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
        "runs": [{k: getattr(r, k) for k in ("algorithm", "multiplier", "replicate", "seed", "diverged", "error")} for r in results],
        "diverged_count": sum(r.diverged for r in results),
        "version": __version__,
    }
    with _atomic_write(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    return {
        "results": results,
        "best_multipliers": best,
        "out_dir": out,
        "manifest": manifest,
        "problem": problem,
        "optimum": optimum,
    }


def _finished_groups(results) -> dict:
    """The runs that did not diverge, per (algorithm, multiplier) in grid order, each in run order."""
    groups = {}
    for r in results:
        if not r.diverged:
            groups.setdefault((r.algorithm, r.multiplier), []).append(r)
    return groups


def select_best_multiplier(results) -> dict:
    """Per algorithm: the multiplier with the smallest final mean distance.

    Multipliers whose runs all diverged are excluded; ties break toward the
    smaller multiplier.  Raises once, naming each algorithm in sorted order,
    if every multiplier of some algorithm diverged.
    """
    groups = _finished_groups(results)
    algorithms = sorted({r.algorithm for r in results})
    out = {}
    for algorithm in algorithms:
        candidates = [
            (float(np.mean([r.trace.final_dist_sq() for r in groups[algorithm, m]])), m)
            for m in sorted(m for a, m in groups if a == algorithm)
        ]
        if candidates:
            out[algorithm] = min(candidates)[1]
    diverged = [a for a in algorithms if a not in out]
    if diverged:
        plural = "s" if len(diverged) > 1 else ""
        raise DivergenceError(f"all runs diverged for algorithm{plural} {', '.join(map(repr, diverged))}")
    return out


def _aggregate_rows(groups: dict, algorithm: str):
    """Seed-mean curve rows of one algorithm, per multiplier in ascending order.

    A run's ``grad_evals`` strictly increase, so it records each epoch at most
    once: an epoch's points are one per run that reached it, in run order.
    """
    for multiplier in sorted(m for a, m in groups if a == algorithm):
        at_epoch = {}
        for r in groups[algorithm, multiplier]:
            for p in r.trace.points:
                at_epoch.setdefault(p.epoch, []).append(p)
        for epoch, ps in sorted(at_epoch.items()):
            means = [np.mean([p.dist_sq for p in ps]), np.mean([p.func_gap for p in ps])]
            yield [algorithm, _fmt(multiplier), _fmt(epoch), *map(_fmt, means), len(ps)]


@contextmanager
def _atomic_write(path, mode="w"):
    """File handle (text, or bytes for ``mode="wb"``) whose contents replace ``path`` only once the block completes.

    The contents go to a temporary file beside ``path`` that is then renamed
    over it, so a crash mid-write leaves the previous file intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline="" if mode == "w" else None) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: list, rows) -> None:
    with _atomic_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
