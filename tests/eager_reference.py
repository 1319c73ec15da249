"""Straightforward reference implementations the fast paths are checked against.

``fisher_yates_loop`` is the scalar swap loop that ``shuffling.fisher_yates``
must reproduce draw for draw.  ``eager_run`` replays the four training loops
without laziness or caching: every epoch (every round, for nastya under
reshuffling) draws all M data permutations with the scalar loop, the client
schedule is drawn anew every epoch, each pass is cut into batches with
``np.array_split`` and runs one client and one component at a time, and
every trace point evaluates the objective one component at a time.

The kernel oracles are the per-component forms that the stacked problem
kernels must match bit for bit: ``local_pass_loop`` (one client's pass, one
``component_gradient`` call per component), ``cohort_pass_loop`` (one such
pass per client, every one run even after a non-finite end point),
``aggregate_cohort_loop`` (the cohort's mean update, one pass at a time),
and ``client_objective_loop`` and ``objective_value_loop`` (one
``component_loss`` call per component, added with Python's ``sum``).

The logistic and codec oracles are the per-component and per-client forms
that the vectorised code must match bit for bit: ``sigmoid_three_exp`` (the
clipped two-branch logistic function), ``full_gradient_loop`` (one client at
a time), ``star_variances_per_component`` (one ``component_gradient`` call
per component) and ``to_libsvm_text_scalars`` (the text of a feature matrix
and its labels, formatting numpy scalars).  ``partition_tuples`` is the
partition of a row count as a tuple of client row tuples, and
``logistic_arrays_gathered`` is ``logistic_problem``'s gather of the matrix
rows and labels from it, one row at a time.

``star_sequence_loop`` is ``variance_lab.star_sequence_deviation`` with x*'s
oracles read anew at every step: one ``component_gradient`` and two
``component_loss`` calls in ``bregman``, besides the step's own loss.

The variance oracles are the enumeration forms that ``variance_lab`` replaced
with exact Gram matrices: ``enumerate_sequences_loop`` builds the outcome
table one sample at a time, and ``prefix_estimators`` evaluates every prefix
estimator of every outcome and group on the inputs, which
``brute_force_all_tensor`` averages.  It averages in long double, so that
the oracle's own rounding over up to 40,320 outcomes stays far below the
tolerances it is compared at.

The output oracles are the result scans that ``harness`` replaced with one
grouping of the finished runs: ``write_runs_csv``, ``write_timings_csv`` and
``write_aggregate_csv`` (which rescans every run's points once per epoch),
and ``select_best_multiplier_scan`` (one filter of all results per
algorithm and multiplier).
"""

import csv
import itertools
import math
import time
from functools import lru_cache

import numpy as np

from fedrr.optimizer import DivergenceError, RunTrace, TracePoint, apply_decay
from fedrr.rng import stream
from fedrr.shuffling import ClientMode, DataMode
from fedrr.variance_lab import StarSequenceStats


def local_pass_loop(problem, m, x, gamma_step, batches):
    """Client m's sequential pass over ``batches``, stepping along each batch's mean gradient."""
    x = np.array(x, dtype=np.float64)
    for batch in batches:
        g = np.zeros(problem.d)
        for j in batch:
            g += problem.component_gradient(m, j, x)
        x -= (gamma_step / len(batch)) * g
    return x


def cohort_pass_loop(problem, ms, x, gamma_step, order, bounds):
    """``problem.cohort_pass`` one client at a time, every row computed, finite or not."""
    return np.array([local_pass_loop(problem, m, x, gamma_step, [row[a:b] for a, b in bounds]) for m, row in zip(ms, order)])


def client_objective_loop(problem, m, x):
    return sum(problem.component_loss(m, j, x) for j in range(problem.N)) / problem.N


def objective_value_loop(problem, x):
    return sum(client_objective_loop(problem, m, x) for m in range(problem.M)) / problem.M


def record(trace, problem, optimum, x, grad_evals, t0):
    """``RunTrace.record`` with the per-component objective."""
    x_delta = x - optimum.x_star
    trace.points.append(
        TracePoint(
            epoch=grad_evals / (problem.M * problem.N),
            dist_sq=float(x_delta @ x_delta),
            func_gap=float(objective_value_loop(problem, x) - optimum.f_star),
            grad_evals=grad_evals,
            wall_s=time.perf_counter() - t0,
        )
    )


def fisher_yates_loop(n, rng):
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def eager_data_permutations(M, N, mode, t, seed):
    t = 0 if mode.data_mode is DataMode.SHUFFLE_ONCE else t
    return [fisher_yates_loop(N, stream(seed, "data_perm", t, m)) for m in range(M)]


def eager_cohorts(M, C, mode, t, seed):
    if mode.client_mode is ClientMode.DETERMINISTIC_FIXED:
        return mode.fixed_schedule[t % len(mode.fixed_schedule)]
    t = 0 if mode.client_mode is ClientMode.SHUFFLE_ONCE else t
    perm = fisher_yates_loop(M, stream(seed, "client_perm", t))
    return [perm[r * C : (r + 1) * C] for r in range(M // C)]


def sampled_cohort(M, C, seed, label, *parts):
    return fisher_yates_loop(M, stream(seed, label, *parts))[:C]


def aggregate_cohort_loop(problem, cohort, x, gamma, perms, local_steps):
    """``optimizer._cohort_update`` of a shuffled round, one client at a time, in client-id order, from zeros."""
    S = problem.N if local_steps is None else min(local_steps, problem.N)
    g = np.zeros(problem.d)
    x_end_sum = np.zeros(problem.d)
    for m in sorted(int(m) for m in cohort):
        x_end = local_pass_loop(problem, m, x, gamma, np.array_split(perms[m], S))
        g += (x - x_end) / (gamma * S)
        x_end_sum += x_end
    return g / len(cohort), x_end_sum / len(cohort)


def server_step(problem, cohort, x, steps, perms, local_steps):
    g, _ = aggregate_cohort_loop(problem, cohort, x, steps.gamma, perms, local_steps)
    return x - steps.eta * g


def eager_run(problem, cfg, optimum):
    """The trace of ``optimizer.run_algorithm(problem, cfg, optimum)``, computed eagerly."""
    M, N, C = problem.M, problem.N, cfg.C
    R = M // C
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = 0
    record(trace, problem, optimum, x, evals, t0)
    if cfg.algorithm in ("rrcli", "rrcli-wr"):
        for t in range(cfg.T):
            steps = apply_decay(cfg.steps, t) if cfg.decay else cfg.steps
            perms = eager_data_permutations(M, N, cfg.shuffle, t, cfg.seed)
            if cfg.algorithm == "rrcli":
                cohorts = eager_cohorts(M, C, cfg.shuffle, t, cfg.seed)
            else:
                cohorts = [sampled_cohort(M, C, cfg.seed, "wr_cohort", t, r) for r in range(R)]
            x_meta = x
            for cohort in cohorts:
                x = server_step(problem, cohort, x, steps, perms, cfg.local_steps)
                evals += C * N
            if steps.theta != steps.eta * R:
                x = x_meta - steps.theta * (x_meta - x) / (steps.eta * R)
            record(trace, problem, optimum, x, evals, t0)
    elif cfg.algorithm == "nastya":
        for k in range(cfg.T * R):
            steps = apply_decay(cfg.steps, evals // (M * N)) if cfg.decay else cfg.steps
            perms = eager_data_permutations(M, N, cfg.shuffle, k, cfg.seed)
            cohort = sampled_cohort(M, C, cfg.seed, "nastya_cohort", k)
            x = server_step(problem, cohort, x, steps, perms, cfg.local_steps)
            evals += C * N
            if (k + 1) % R == 0:
                record(trace, problem, optimum, x, evals, t0)
    else:
        S = cfg.local_steps if cfg.local_steps is not None else 10
        batch = max(1, int(round(cfg.batch_fraction * N)))
        k = recorded = 0
        while evals < cfg.T * M * N:
            steps = apply_decay(cfg.steps, evals // (M * N)) if cfg.decay else cfg.steps
            g = np.zeros(problem.d)
            for m in sorted(int(m) for m in sampled_cohort(M, C, cfg.seed, "fedavg_cohort", k)):
                rng = stream(cfg.seed, "fedavg_batches", k, m)
                x_m = x
                for _ in range(S):
                    batches = [np.sort(rng.choice(N, size=batch, replace=False))]
                    x_m = local_pass_loop(problem, m, x_m, steps.gamma, batches)
                g += (x - x_m) / (steps.gamma * S)
            g /= C
            x = x - steps.eta * g
            evals += C * S * batch
            k += 1
            if evals // (M * N) > recorded:
                recorded = evals // (M * N)
                record(trace, problem, optimum, x, evals, t0)
        if trace.points[-1].grad_evals != evals:
            record(trace, problem, optimum, x, evals, t0)
    return trace


def sigmoid_three_exp(z):
    # exp overflows in the branch that np.where discards, and inf/inf there is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(
            z >= 0,
            1.0 / (1.0 + np.exp(-np.clip(z, None, 50))),
            np.exp(np.clip(z, -50, None)) / (1.0 + np.exp(np.clip(z, -50, None))),
        )


def full_gradient_loop(problem, x):
    """``LogisticProblem.full_gradient``, one client's products at a time."""
    A, b = problem._A, problem._b
    g = np.zeros(problem.d)
    for m in range(problem.M):
        z = A[m] @ x
        t = -b[m] * sigmoid_three_exp(-b[m] * z)
        g += A[m].T @ t
    return g / (problem.M * problem.N) + problem.alpha * x


def star_variances_per_component(problem, x_star):
    comp = math.fsum(
        float(np.linalg.norm(problem.component_gradient(m, j, x_star)) ** 2)
        for m in range(problem.M)
        for j in range(problem.N)
    ) / (problem.M * problem.N)
    cli = math.fsum(
        float(np.linalg.norm(problem.client_gradient(m, x_star)) ** 2) for m in range(problem.M)
    ) / problem.M
    return comp, cli


def partition_tuples(count, M, seed):
    """Client m's rows of a ``count``-row dataset as ``assignment[m]``, a tuple of N Python ints."""
    N = count // M
    order = fisher_yates_loop(count, stream(seed, "partition", count, M))
    return tuple(tuple(int(i) for i in order[m * N : (m + 1) * N]) for m in range(M))


def logistic_arrays_gathered(assignment, X, labels):
    """The (M, N, d) rows of ``X`` and (M, N) labels of a tuple partition, gathered one row at a time."""
    M, N = len(assignment), len(assignment[0])
    A = np.empty((M, N, X.shape[1]))
    b = np.empty((M, N))
    for m in range(M):
        for j, row in enumerate(assignment[m]):
            A[m, j] = X[row]
            b[m, j] = labels[row]
    return A, b


def bregman(problem, m, j, x, y):
    gy = problem.component_gradient(m, j, y)
    return float(problem.component_loss(m, j, x) - problem.component_loss(m, j, y) - gy @ (x - y))


def star_sequence_loop(problem, x_star, gamma, C, n_draws=200, seed=0):
    M, N = problem.M, problem.N
    R = M // C
    star_grads = np.array([[problem.component_gradient(m, j, x_star) for j in range(N)] for m in range(M)])
    sq = np.zeros((R, N))
    breg = np.zeros((R, N))
    for draw in range(n_draws):
        rng = stream(seed, "star_sequence", draw)
        client_perm = fisher_yates_loop(M, rng)
        perms = [fisher_yates_loop(N, rng) for _ in range(M)]
        x_round = x_star.copy()
        for r in range(R):
            endpoints = []
            for m in client_perm[r * C : (r + 1) * C]:
                x = x_round.copy()
                for j in range(N):
                    comp = int(perms[m][j])
                    x = x - gamma * star_grads[m, comp]
                    delta = x - x_star
                    sq[r, j] += float(delta @ delta)
                    breg[r, j] += bregman(problem, int(m), comp, x, x_star)
                endpoints.append(x)
            x_round = np.mean(endpoints, axis=0)
    sq /= n_draws * C
    breg /= n_draws * C
    max_sigma_ds = float(breg.max() / (gamma * gamma)) if gamma > 0 else 0.0
    return StarSequenceStats(mean_sq_dev=sq, max_mean_sq_dev=float(sq.max()), max_sigma_ds=max_sigma_ds)


def to_libsvm_text_scalars(X, labels):
    lines = []
    for x, y in zip(X, labels):
        idx = np.flatnonzero(x)
        feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(idx, x[idx]))
        lines.append(f"{int(y):+d} {feats}".rstrip())
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def enumerate_sequences_loop(M, N, C):
    """``variance_lab._enumerate_sequences``, filled one sample at a time."""
    R = M // C
    data_perms = list(itertools.permutations(range(N)))
    out = np.empty((math.factorial(M) * len(data_perms) ** M, C, N * R), dtype=np.int64)
    o = 0
    for sigma in itertools.permutations(range(M)):
        for combo in itertools.product(range(len(data_perms)), repeat=M):
            for p in range(C):
                pos = 0
                for b in range(R):
                    m = sigma[p * R + b]
                    pi = data_perms[combo[m]]
                    for j in range(N):
                        out[o, p, pos] = m * N + pi[j]
                        pos += 1
            o += 1
    return out


def prefix_estimators(inputs, C):
    """Deviations of all prefix estimators: shape (n_outcomes, C, NR, d).

    Entry [o, g, k-1] is the k-sample estimator for tail group g under
    outcome o, minus the grand mean.
    """
    seq = enumerate_sequences_loop(inputs.M, inputs.N, C)
    NR = seq.shape[2]
    flat = inputs.zeta.reshape(inputs.M * inputs.N, inputs.d)
    cum = np.cumsum(flat[seq], axis=2)
    row_mean_cum = cum.mean(axis=1, keepdims=True)
    k = np.arange(1, NR + 1)
    k_N = (k // inputs.N) * inputs.N
    # numerator(k, g) = sum of complete rows averaged over groups + tail of group g
    before = np.maximum(k_N - 1, 0)
    complete = np.where(k_N[None, None, :, None] > 0, np.take(row_mean_cum, before, axis=2), 0.0)
    tail = cum - np.where(k_N[None, None, :, None] > 0, np.take(cum, before, axis=2), 0.0)
    return (complete + tail) / k[None, None, :, None] - inputs.grand_mean


def brute_force_all_tensor(inputs, C):
    dev = prefix_estimators(inputs, C)
    return np.mean(np.sum(dev * dev, axis=-1), axis=(0, 1), dtype=np.longdouble).astype(np.float64)


def _fmt(x):
    return format(float(x), ".17g")


def write_runs_csv(path, results):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "multiplier", "seed", "epoch", "dist_sq", "func_gap", "grad_evals"])
        for r in results:
            if r.diverged:
                continue
            for p in r.trace.points:
                w.writerow([r.algorithm, _fmt(r.multiplier), r.seed, _fmt(p.epoch), _fmt(p.dist_sq), _fmt(p.func_gap), p.grad_evals])


def write_timings_csv(path, results):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "multiplier", "seed", "epoch", "wall_ms"])
        for r in results:
            if r.diverged:
                continue
            for p in r.trace.points:
                w.writerow([r.algorithm, _fmt(r.multiplier), r.seed, _fmt(p.epoch), _fmt(p.wall_s * 1e3)])


def write_aggregate_csv(path, results):
    """One algorithm's results: the seed-mean curve per multiplier, ascending."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "multiplier", "epoch", "dist_sq_mean", "func_gap_mean", "n_runs"])
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
                w.writerow([results[0].algorithm, _fmt(multiplier), _fmt(epoch), _fmt(np.mean(dist)), _fmt(np.mean(gap)), len(dist)])


def select_best_multiplier_scan(results):
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
