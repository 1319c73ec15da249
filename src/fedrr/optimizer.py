"""Training loops: shuffled partial participation, plus the two baselines.

All algorithms are compared at equal oracle cost: one epoch is M*N component
gradient evaluations, i.e. the cost of one full gradient over the pooled
dataset.  Metrics are recorded at (meta-)epoch boundaries against a
pre-computed optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .problem import FederatedProblem, Optimum
from .rng import stream
from .shuffling import (
    ClientMode,
    ShuffleMode,
    build_cohort_schedule,
    data_permutations,
    fisher_yates,
)

RRCLI = "rrcli"
RRCLI_WITH_REPLACEMENT = "rrcli-wr"
FEDAVG = "fedavg"
NASTYA = "nastya"

ALGORITHMS = (RRCLI, RRCLI_WITH_REPLACEMENT, FEDAVG, NASTYA)

DIVERGENCE_NORM_CAP = 1e12

# when the collapse relations hold (eta = gamma*S, theta = eta*R), verify the
# resulting algebraic identities on every round; cheap and always on in tests
VERIFY_COLLAPSE = True
COLLAPSE_TOL = 1e-12


class DivergenceError(RuntimeError):
    def __init__(self, message: str, meta_epoch: int | None = None, round_index: int | None = None):
        super().__init__(message)
        self.meta_epoch = meta_epoch
        self.round_index = round_index


@dataclass(frozen=True)
class StepSizes:
    """Client (gamma), server (eta), and global (theta) step sizes."""

    gamma: float
    eta: float
    theta: float
    decay: str | None = None

    def __post_init__(self):
        if min(self.gamma, self.eta, self.theta) <= 0:
            raise ValueError("all step sizes must be positive")


@dataclass(frozen=True)
class TracePoint:
    epoch: float  # equivalent full-gradient passes
    meta_epoch: int
    dist_sq: float
    func_gap: float
    grad_evals: int
    wall_s: float


@dataclass
class RunTrace:
    points: list[TracePoint] = field(default_factory=list)

    def final_dist_sq(self) -> float:
        return self.points[-1].dist_sq

    def record(self, problem, optimum, x, meta_epoch, grad_evals, t0):
        x_delta = x - optimum.x_star
        self.points.append(
            TracePoint(
                epoch=grad_evals / (problem.M * problem.N),
                meta_epoch=meta_epoch,
                dist_sq=float(x_delta @ x_delta),
                func_gap=float(problem.objective_value(x) - optimum.f_star),
                grad_evals=grad_evals,
                wall_s=time.perf_counter() - t0,
            )
        )


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    C: int
    T: int  # meta-epochs for shuffled runs, epoch budget for baselines
    steps: StepSizes
    shuffle: ShuffleMode = ShuffleMode()
    local_steps: int | None = None  # None: one step per data point
    batch_fraction: float = 0.1  # fedavg only
    seed: int = 0
    decay: bool = False
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not 0 < self.batch_fraction <= 1:
            raise ValueError("batch fraction must lie in (0, 1]")
        if self.T < 1 or self.C < 1:
            raise ValueError("T and C must be positive")
        if self.local_steps is not None and self.local_steps < 1:
            raise ValueError("local_steps must be positive")


def apply_decay(steps: StepSizes, epochs_passed: float) -> StepSizes:
    """Scale all three step sizes by 1 / (1 + passed epochs)."""
    if epochs_passed < 0:
        raise ValueError("epochs_passed must be nonnegative")
    f = 1.0 / (1.0 + epochs_passed)
    return replace(steps, gamma=steps.gamma * f, eta=steps.eta * f, theta=steps.theta * f)


def local_pass(
    problem: FederatedProblem,
    m: int,
    x_start: np.ndarray,
    gamma: float,
    perm: np.ndarray,
    local_steps: int | None = None,
    meta_epoch: int | None = None,
    round_index: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One pass of client m over its data in ``perm`` order.

    With ``local_steps=S < N`` the permuted data is processed in S contiguous
    batches; each local step applies the client step size gamma to the batch
    mean gradient, so S=N recovers the per-point recursion.  The returned
    pseudo-gradient g = (x_start - x_end)/(gamma*S) makes the server update
    with eta = gamma*S equal to model averaging in both cases.
    ``meta_epoch`` and ``round_index`` locate the pass in a run; a non-finite
    end point raises :class:`DivergenceError` carrying them.
    """
    N = problem.N
    S = N if local_steps is None else min(local_steps, N)
    perm = np.asarray(perm)
    batches = [perm[a:b] for a, b in _batch_bounds(N, S)]
    x_end = problem.local_pass(m, x_start, gamma, batches)
    if not np.all(np.isfinite(x_end)):
        where = "" if meta_epoch is None else f" at meta-epoch {meta_epoch}, round {round_index}"
        raise DivergenceError(
            f"non-finite iterate in local pass of client {m}{where}", meta_epoch=meta_epoch, round_index=round_index
        )
    g = (x_start - x_end) / (gamma * S)
    return x_end, g


@lru_cache(maxsize=128)
def _batch_bounds(N: int, S: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) of the S contiguous batches that ``np.array_split`` cuts N items into."""
    size, extra = divmod(N, S)
    stops = [(r + 1) * size + min(r + 1, extra) for r in range(S)]
    return tuple(zip([0] + stops[:-1], stops))


def _check_iterate(x, t, r):
    if not np.all(np.isfinite(x)) or float(x @ x) > DIVERGENCE_NORM_CAP**2:
        raise DivergenceError(f"divergence at meta-epoch {t}, round {r}", meta_epoch=t, round_index=r)


def _aggregate_cohort(problem, cohort, x, gamma, perms, local_steps, meta_epoch=None, round_index=None):
    """Mean update and mean endpoint over a cohort.

    Clients are summed in client-id order so parallel execution cannot change
    the floating-point result.  ``meta_epoch`` and ``round_index`` go to the
    local passes for their divergence reports.
    """
    g = np.zeros(problem.d)
    x_end_sum = np.zeros(problem.d)
    for m in sorted(cohort):
        x_end, g_m = local_pass(problem, m, x, gamma, perms[m], local_steps, meta_epoch, round_index)
        g += g_m
        x_end_sum += x_end
    return g / len(cohort), x_end_sum / len(cohort)


def run_rrcli(problem: FederatedProblem, cfg: AlgoConfig, optimum: Optimum) -> RunTrace:
    """Shuffled partial participation with server and global step sizes.

    Every meta-epoch walks R = M/C disjoint cohorts; after the R rounds a
    global step is taken from the meta-epoch's starting point.  The
    with-replacement variant draws each round's cohort independently instead
    (the control for the variance-scaling comparison) but is otherwise
    identical.
    """
    if cfg.algorithm not in (RRCLI, RRCLI_WITH_REPLACEMENT):
        raise ValueError(f"expected a shuffled-participation config, got {cfg.algorithm}")
    M, N = problem.M, problem.N
    if M % cfg.C != 0:
        raise ValueError(f"cohort size {cfg.C} does not divide client count {M}")
    R = M // cfg.C
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = 0
    trace.record(problem, optimum, x, 0, evals, t0)
    perms = schedule = None
    for t in range(cfg.T):
        steps = apply_decay(cfg.steps, t) if cfg.decay else cfg.steps
        perms = data_permutations(N, cfg.shuffle, t, cfg.seed, perms)
        if cfg.algorithm == RRCLI:
            if schedule is None or cfg.shuffle.client_mode is not ClientMode.SHUFFLE_ONCE:
                schedule = build_cohort_schedule(M, cfg.C, cfg.shuffle, t, cfg.seed)
            cohorts = schedule.cohorts
        else:
            cohorts = tuple(
                tuple(int(m) for m in fisher_yates(M, stream(cfg.seed, "wr_cohort", t, r))[: cfg.C])
                for r in range(R)
            )
        S = N if cfg.local_steps is None else min(cfg.local_steps, N)
        x_meta = x
        for r, cohort in enumerate(cohorts):
            g, mean_end = _aggregate_cohort(problem, cohort, x, steps.gamma, perms, cfg.local_steps, t, r)
            x = x - steps.eta * g
            evals += cfg.C * N
            _check_iterate(x, t, r)
            if VERIFY_COLLAPSE and steps.eta == steps.gamma * S:
                scale = max(1.0, float(np.abs(x).max()))
                if float(np.abs(x - mean_end).max()) > COLLAPSE_TOL * scale:
                    raise AssertionError("server iterate deviates from cohort mean under eta = gamma*S")
        if steps.theta == steps.eta * R:
            pass  # global step collapses to x_t^R exactly
        else:
            x = x_meta - steps.theta * (x_meta - x) / (steps.eta * R)
        _check_iterate(x, t, R)
        trace.record(problem, optimum, x, t + 1, evals, t0)
    return trace


def run_nastya(
    problem: FederatedProblem,
    cfg: AlgoConfig,
    optimum: Optimum,
    cohort_sequence=None,
) -> RunTrace:
    """Uniform per-round client sampling with full local shuffled passes.

    Same local computation and server step as the shuffled-participation
    method, but cohorts are independent across rounds and there is no
    meta-epoch structure or global step.  ``cohort_sequence`` overrides the
    per-round draws (used by coupling tests).
    """
    if cfg.algorithm != NASTYA:
        raise ValueError(f"expected a nastya config, got {cfg.algorithm}")
    M, N = problem.M, problem.N
    if M % cfg.C != 0:
        raise ValueError(f"cohort size {cfg.C} does not divide client count {M}")
    R = M // cfg.C
    total_rounds = cfg.T * R
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = 0
    trace.record(problem, optimum, x, 0, evals, t0)
    perms = None
    for k in range(total_rounds):
        steps = apply_decay(cfg.steps, evals // (M * N)) if cfg.decay else cfg.steps
        # reshuffling redraws the data order every round
        perms = data_permutations(N, cfg.shuffle, k, cfg.seed, perms)
        if cohort_sequence is not None:
            cohort = tuple(cohort_sequence[k])
        else:
            cohort = tuple(int(m) for m in fisher_yates(M, stream(cfg.seed, "nastya_cohort", k))[: cfg.C])
        g, _ = _aggregate_cohort(problem, cohort, x, steps.gamma, perms, cfg.local_steps, k // R, k % R)
        x = x - steps.eta * g
        evals += cfg.C * N
        _check_iterate(x, k // R, k % R)
        if (k + 1) % R == 0:
            trace.record(problem, optimum, x, (k + 1) // R, evals, t0)
    return trace


def run_fedavg(problem: FederatedProblem, cfg: AlgoConfig, optimum: Optimum) -> RunTrace:
    """Uniform client sampling with local minibatch SGD and pseudo-gradient averaging.

    Each selected client runs ``local_steps`` SGD steps; every step samples a
    fresh minibatch of ``batch_fraction * N`` points without replacement.
    The server applies the averaged pseudo-gradient with the server step
    size, which at eta = gamma * local_steps is plain model averaging.
    """
    if cfg.algorithm != FEDAVG:
        raise ValueError(f"expected a fedavg config, got {cfg.algorithm}")
    M, N = problem.M, problem.N
    S = cfg.local_steps if cfg.local_steps is not None else 10
    batch = max(1, int(round(cfg.batch_fraction * N)))
    budget = cfg.T * M * N
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = 0
    recorded_epochs = 0
    trace.record(problem, optimum, x, 0, evals, t0)
    k = 0
    while evals < budget:
        epoch = evals // (M * N)
        steps = apply_decay(cfg.steps, epoch) if cfg.decay else cfg.steps
        cohort = tuple(int(m) for m in fisher_yates(M, stream(cfg.seed, "fedavg_cohort", k))[: cfg.C])
        g = np.zeros(problem.d)
        for m in sorted(cohort):
            rng = stream(cfg.seed, "fedavg_batches", k, m)
            x_m = x
            for s in range(S):
                idx = rng.choice(N, size=batch, replace=False)
                x_m = problem.local_pass(m, x_m, steps.gamma, [np.sort(idx)])
            if not np.all(np.isfinite(x_m)):
                raise DivergenceError(f"non-finite iterate on client {m}", meta_epoch=epoch, round_index=k)
            g += (x - x_m) / (steps.gamma * S)
        g /= cfg.C
        x = x - steps.eta * g
        evals += cfg.C * S * batch
        _check_iterate(x, epoch, k)
        k += 1
        if evals // (M * N) > recorded_epochs:
            recorded_epochs = evals // (M * N)
            trace.record(problem, optimum, x, recorded_epochs, evals, t0)
    if trace.points[-1].grad_evals != evals:
        trace.record(problem, optimum, x, recorded_epochs, evals, t0)
    return trace


def run_algorithm(problem, cfg: AlgoConfig, optimum: Optimum) -> RunTrace:
    if cfg.algorithm in (RRCLI, RRCLI_WITH_REPLACEMENT):
        return run_rrcli(problem, cfg, optimum)
    if cfg.algorithm == NASTYA:
        return run_nastya(problem, cfg, optimum)
    return run_fedavg(problem, cfg, optimum)
