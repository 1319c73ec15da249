"""One training loop for shuffled partial participation and its baselines.

Each algorithm's participation scheme is a round plan that feeds the loop.
All algorithms are compared at equal oracle cost: one epoch is M*N component
gradient evaluations, i.e. the cost of one full gradient over the pooled
dataset.  Metrics are recorded at (meta-)epoch boundaries against a
pre-computed optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple
import numpy as np

from .errors import DivergenceError
from .problem import FederatedProblem, Optimum
from .rng import stream
from .shuffling import ClientMode, DataMode, ShuffleMode, check_fixed_schedule, fisher_yates

RRCLI = "rrcli"
RRCLI_WITH_REPLACEMENT = "rrcli-wr"
FEDAVG = "fedavg"
NASTYA = "nastya"

ALGORITHMS = (RRCLI, RRCLI_WITH_REPLACEMENT, FEDAVG, NASTYA)

DIVERGENCE_NORM_CAP = 1e12

# under eta = gamma*S the server iterate must equal the cohort's mean end point;
# shuffled runs check this on every round
COLLAPSE_TOL = 1e-12


@dataclass(frozen=True)
class StepSizes:
    """Client (gamma), server (eta), and global (theta) step sizes."""

    gamma: float
    eta: float
    theta: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.eta > 0 and self.theta > 0):  # NaN included
            raise ValueError("all step sizes must be positive")


@dataclass(frozen=True)
class TracePoint:
    epoch: float  # equivalent full-gradient passes
    dist_sq: float
    func_gap: float
    grad_evals: int
    wall_s: float


@dataclass
class RunTrace:
    points: list[TracePoint] = field(default_factory=list)

    def final_dist_sq(self) -> float:
        return self.points[-1].dist_sq

    def record(self, problem, optimum, x, grad_evals, t0):
        x_delta = x - optimum.x_star
        self.points.append(
            TracePoint(
                epoch=grad_evals / (problem.M * problem.N),
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
        check_run_settings(self.algorithm, self.C, self.T, self.local_steps, self.batch_fraction)


def check_run_settings(algorithm: str, C: int, T: int, local_steps: int | None, batch_fraction: float) -> None:
    """Raise ValueError unless these settings describe a run of one of the four algorithms."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not 0 < batch_fraction <= 1:
        raise ValueError("batch_fraction must lie in (0, 1]")
    if T < 1 or C < 1:
        raise ValueError("T and C must be positive")
    if local_steps is not None and local_steps < 1:
        raise ValueError("local_steps must be null or positive")


def apply_decay(steps: StepSizes, epochs_passed: float) -> StepSizes:
    """Scale all three step sizes by 1 / (1 + passed epochs)."""
    if epochs_passed < 0:
        raise ValueError("epochs_passed must be nonnegative")
    f = 1.0 / (1.0 + epochs_passed)
    return replace(steps, gamma=steps.gamma * f, eta=steps.eta * f, theta=steps.theta * f)


def pass_length(algorithm: str, N: int, local_steps: int | None) -> int:
    """Local steps S per client pass, the pass length of the step-size relations.

    A shuffled pass cuts N points into min(local_steps, N) batches (default
    N); a fedavg client takes ``local_steps`` minibatch steps (default 10).
    """
    if algorithm == FEDAVG:
        return 10 if local_steps is None else local_steps
    return N if local_steps is None else min(local_steps, N)


def _batch_bounds(N: int, S: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) of the S contiguous batches that ``np.array_split`` cuts N items into."""
    size, extra = divmod(N, S)
    stops = [(r + 1) * size + min(r + 1, extra) for r in range(S)]
    return tuple(zip([0] + stops[:-1], stops))


def _check_iterate(x, t, r):
    # a NaN or infinite entry makes x @ x NaN or inf, so this also catches them
    if not float(x @ x) <= DIVERGENCE_NORM_CAP**2:
        raise DivergenceError(f"divergence at meta-epoch {t}, round {r}", t, r, iterate_norm=math.hypot(*x))


class Round(NamedTuple):
    """One round of a run's plan: client ``clients[i]`` steps over ``rows[i][a:b]`` for each (a, b) in ``bounds``."""

    meta_epoch: int
    round_index: int
    clients: tuple[int, ...]  # the cohort, in client-id order
    rows: np.ndarray  # (C, L) data order of each client's pass; the round costs rows.size gradient evaluations
    bounds: tuple[tuple[int, int], ...]  # the S steps of a pass


def _cohort_update(problem, rnd: Round, x, gamma):
    """Mean pseudo-gradient and mean end point of a round's cohort, every client passing from x.

    One ``problem.cohort_pass`` call runs every pass; g = (x - x_end)/(gamma*S)
    makes the server step at eta = gamma*S model averaging.  As a per-client
    loop in client-id order would, the first non-finite client alone warns or
    raises under the caller's error state, then raises :class:`DivergenceError`
    with it, the round and its end point's norm.  Clients are summed in
    client-id order from the first row plus 0.0, which is bit-equal to summing
    from zeros: addition commutes, and the +0.0 turns -0.0 into +0.0 as zeros do.
    """
    t, r, ms, rows, bounds = rnd
    with np.errstate(over="ignore", invalid="ignore"):
        X = problem.cohort_pass(ms, x, gamma, rows, bounds)
    if not np.isfinite(X).all():
        i = int(np.isfinite(X).all(axis=1).argmin())
        problem.cohort_pass(ms[i : i + 1], x, gamma, rows[i : i + 1], bounds)  # its warnings, or its raise
        where = f"meta-epoch {t}, round {r}"
        raise DivergenceError(f"non-finite iterate in local pass of client {ms[i]} at {where}", t, r, ms[i], math.hypot(*X[i]))
    G = (x - X) / (gamma * len(bounds))
    g, x_end_sum = G[0] + 0.0, X[0] + 0.0
    for g_m, x_end in zip(G[1:], X[1:]):
        g += g_m
        x_end_sum += x_end
    return g / len(ms), x_end_sum / len(ms)


def _cohorts(M, C, seed, label, *parts):
    """The M//C disjoint cohorts of C clients, in order, cut from a uniform permutation drawn from the named stream."""
    perm = fisher_yates(M, seed, label, *parts).tolist()
    return [tuple(perm[i : i + C]) for i in range(0, M - C + 1, C)]


def round_plan(problem: FederatedProblem, cfg: AlgoConfig):
    """Yield every :class:`Round` of a run in order: who trains, on which data order, in which steps.

    rrcli cuts each meta-epoch's client permutation into R = M/C disjoint
    cohorts, or cycles through a fixed schedule; rrcli-wr draws its R cohorts
    independently; nastya draws one cohort per round, and its data epoch is
    the round; fedavg draws one per round until T*M*N evaluations are spent.
    A client passes over its data order in S = ``pass_length`` batches
    (fedavg: S sorted minibatches of max(1, round(batch_fraction*N)) points).
    Under shuffle-once every permutation is drawn from stream epoch 0, once
    per run; under reshuffling, once per epoch.  A client's data permutation
    is drawn when it first trains in a data epoch and reused for the rest of
    it, also when rrcli-wr samples it twice in one meta-epoch.  A bad cohort
    size or fixed schedule raises before the first round.
    """
    M, N, C = problem.M, problem.N, cfg.C
    if cfg.algorithm == FEDAVG and C > M:
        raise ValueError(f"cohort size {C} exceeds client count {M}")
    if cfg.algorithm != FEDAVG and M % C != 0:
        raise ValueError(f"cohort size {C} does not divide client count {M}")
    R = M // C
    S = pass_length(cfg.algorithm, N, cfg.local_steps)
    if cfg.algorithm == FEDAVG:
        batch = max(1, int(round(cfg.batch_fraction * N)))
        bounds = _batch_bounds(S * batch, S)
        per_round = C * S * batch
        for k in range(-(-cfg.T * M * N // per_round)):
            ms = tuple(sorted(_cohorts(M, C, cfg.seed, "fedavg_cohort", k)[0]))
            rngs = (stream(cfg.seed, "fedavg_batches", k, m) for m in ms)
            rows = [np.concatenate([np.sort(rng.choice(N, batch, replace=False)) for _ in range(S)]) for rng in rngs]
            yield Round(k * per_round // (M * N), k, ms, np.array(rows), bounds)
        return
    bounds = _batch_bounds(N, S)
    fixed = cfg.algorithm == RRCLI and cfg.shuffle.client_mode is ClientMode.DETERMINISTIC_FIXED
    schedule = check_fixed_schedule(M, C, cfg.shuffle.fixed_schedule) if fixed else None
    perms, perms_epoch, cohorts = {}, 0, None  # perms[m]: client m's data permutation of data epoch perms_epoch
    for t in range(cfg.T):
        if cfg.algorithm == NASTYA:
            cohorts = (_cohorts(M, C, cfg.seed, "nastya_cohort", t * R + r)[0] for r in range(R))
        elif cfg.algorithm == RRCLI_WITH_REPLACEMENT:
            cohorts = (_cohorts(M, C, cfg.seed, "wr_cohort", t, r)[0] for r in range(R))
        elif fixed:
            cohorts = schedule[t % len(schedule)]
        elif cohorts is None or cfg.shuffle.client_mode is ClientMode.RESHUFFLING:
            cohorts = _cohorts(M, C, cfg.seed, "client_perm", t)
        for r, cohort in enumerate(cohorts):
            data_epoch = t * R + r if cfg.algorithm == NASTYA else t
            if cfg.shuffle.data_mode is DataMode.RESHUFFLING and data_epoch != perms_epoch:
                perms, perms_epoch = {}, data_epoch
            ms = tuple(sorted(cohort))
            for m in ms:
                if m not in perms:
                    perms[m] = fisher_yates(N, cfg.seed, "data_perm", perms_epoch, m)
            yield Round(t, r, ms, np.array([perms[m] for m in ms]), bounds)


def plan_period(cfg: AlgoConfig) -> int:
    """Meta-epochs p after which a run's rounds repeat, or 0: ``round_plan``'s shuffle-once branches, mirrored."""
    mode = cfg.shuffle
    if cfg.algorithm != RRCLI or mode.client_mode is ClientMode.RESHUFFLING or mode.data_mode is DataMode.RESHUFFLING:
        return 0
    # shuffle-once clients reuse epoch 0; a fixed schedule cycles (round_plan rejects a missing or empty one)
    return len(mode.fixed_schedule or ()) if mode.client_mode is ClientMode.DETERMINISTIC_FIXED else 1


def run_algorithm(problem: FederatedProblem, cfg: AlgoConfig, optimum: Optimum) -> RunTrace:
    """Run any of the four algorithms: its round plan feeds this one loop.

    Each round the cohort trains from the server iterate, and the server
    steps with eta along the mean pseudo-gradient.  The shuffled methods
    (rrcli, rrcli-wr) check the eta = gamma*S collapse every round and take
    the global step with theta after each meta-epoch's R rounds.  A trace
    point is recorded at every completed epoch of M*N gradient evaluations.
    The last round always completes one: a shuffled or nastya run ends at
    exactly T*M*N evaluations, and fedavg's last round is the first to reach
    T*M*N.

    Without decay, a run with ``plan_period`` p > 0 repeats its float
    operations every p meta-epochs: once meta-epoch t starts from the bytes
    of an earlier start t0 = t (mod p), the trace replays points t0+1..t,
    counts moved on, bit for bit.  The keys take d*8 bytes per meta-epoch;
    replayed meta-epochs emit no numpy warnings (the cycle's first pass did).
    """
    M, N = problem.M, problem.N
    R = M // cfg.C
    shuffled = cfg.algorithm in (RRCLI, RRCLI_WITH_REPLACEMENT)
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = recorded = 0
    trace.record(problem, optimum, x, evals, t0)
    period = 0 if cfg.decay else plan_period(cfg)
    starts = {}  # (t mod period, start iterate bytes) -> first meta-epoch t to start there
    for rnd in round_plan(problem, cfg):
        t, r = rnd.meta_epoch, rnd.round_index
        steps = apply_decay(cfg.steps, evals // (M * N)) if cfg.decay else cfg.steps
        if shuffled and r == 0:
            x_meta = x  # the global step starts from here
            if period and (t0_cycle := starts.setdefault((t % period, x.tobytes()), t)) < t:
                for k in range(t + 1, cfg.T + 1):  # point k, after meta-epoch k-1, is the point one cycle back
                    p = trace.points[k - (t - t0_cycle)]
                    trace.points.append(replace(p, epoch=float(k), grad_evals=k * M * N, wall_s=time.perf_counter() - t0))
                return trace
        g, mean_end = _cohort_update(problem, rnd, x, steps.gamma)
        evals += rnd.rows.size
        x = x - steps.eta * g
        _check_iterate(x, t, r)
        if shuffled:
            if steps.eta == steps.gamma * len(rnd.bounds):
                # the scale max(1, max|x|) is at least 1, so no deviation up to COLLAPSE_TOL can exceed its bound
                dev = float(np.abs(x - mean_end).max())
                if dev > COLLAPSE_TOL and dev > COLLAPSE_TOL * max(1.0, float(np.abs(x).max())):
                    raise AssertionError("server iterate deviates from cohort mean under eta = gamma*S")
            # at theta = eta*R the global step is x itself, which this round has checked
            if r == R - 1 and steps.theta != steps.eta * R:
                x = x_meta - steps.theta * (x_meta - x) / (steps.eta * R)
                _check_iterate(x, t, R)
        if evals // (M * N) > recorded:
            recorded = evals // (M * N)
            trace.record(problem, optimum, x, evals, t0)
    return trace
