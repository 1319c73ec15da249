"""Straightforward reference implementations the fast paths are checked against.

``fisher_yates_loop`` is the scalar swap loop that ``shuffling.fisher_yates``
must reproduce draw for draw.  ``eager_run`` replays the four training loops
without laziness or caching: every epoch (every round, for nastya under
reshuffling) draws all M data permutations with the scalar loop, the client
schedule is drawn anew every epoch, and each pass is cut into batches with
``np.array_split``.
"""

import time

import numpy as np

from fedrr.optimizer import RunTrace, apply_decay
from fedrr.rng import stream
from fedrr.shuffling import ClientMode, DataMode


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


def server_step(problem, cohort, x, steps, perms, local_steps):
    S = problem.N if local_steps is None else min(local_steps, problem.N)
    g = np.zeros(problem.d)
    for m in sorted(int(m) for m in cohort):
        x_end = problem.local_pass(m, x, steps.gamma, np.array_split(perms[m], S))
        g += (x - x_end) / (steps.gamma * S)
    return x - steps.eta * (g / len(cohort))


def eager_run(problem, cfg, optimum):
    """The trace of ``optimizer.run_algorithm(problem, cfg, optimum)``, computed eagerly."""
    M, N, C = problem.M, problem.N, cfg.C
    R = M // C
    t0 = time.perf_counter()
    x = np.zeros(problem.d) if cfg.x0 is None else np.array(cfg.x0, dtype=np.float64)
    trace = RunTrace()
    evals = 0
    trace.record(problem, optimum, x, 0, evals, t0)
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
            trace.record(problem, optimum, x, t + 1, evals, t0)
    elif cfg.algorithm == "nastya":
        for k in range(cfg.T * R):
            steps = apply_decay(cfg.steps, evals // (M * N)) if cfg.decay else cfg.steps
            perms = eager_data_permutations(M, N, cfg.shuffle, k, cfg.seed)
            cohort = sampled_cohort(M, C, cfg.seed, "nastya_cohort", k)
            x = server_step(problem, cohort, x, steps, perms, cfg.local_steps)
            evals += C * N
            if (k + 1) % R == 0:
                trace.record(problem, optimum, x, (k + 1) // R, evals, t0)
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
                    x_m = problem.local_pass(m, x_m, steps.gamma, [np.sort(rng.choice(N, size=batch, replace=False))])
                g += (x - x_m) / (steps.gamma * S)
            g /= C
            x = x - steps.eta * g
            evals += C * S * batch
            k += 1
            if evals // (M * N) > recorded:
                recorded = evals // (M * N)
                trace.record(problem, optimum, x, recorded, evals, t0)
        if trace.points[-1].grad_evals != evals:
            trace.record(problem, optimum, x, recorded, evals, t0)
    return trace
