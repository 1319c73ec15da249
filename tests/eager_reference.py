"""Straightforward reference implementations the fast paths are checked against.

``fisher_yates_loop`` is the scalar swap loop that ``shuffling.fisher_yates``
must reproduce draw for draw, and ``fisher_yates_integers`` the earlier
``fisher_yates``, which took all n-1 swap indices from one generator's
``integers`` call over the bounds n, n-1, ..., 2.  ``eager_run`` replays
the four training loops without laziness or caching: every epoch (every round, for nastya under
reshuffling) draws all M data permutations with the scalar loop, the client
schedule is drawn anew every epoch, each pass is cut into batches with
``np.array_split`` and runs one client and one component at a time, and
every trace point evaluates the objective one component at a time.

The kernel oracles are the per-component forms that the stacked problem
kernels must match bit for bit: ``component_gradient`` (one component's
gradient of either problem, the row of ``component_gradients``, which the
tests also check against finite differences), ``client_gradient_loop`` (one
client's gradient of either problem, the row of ``client_gradients``:
``A[m] @ x`` forward and ``A[m].T @ t`` back, or one product with the
client's summed Hessian), ``local_pass_loop`` (one
client's pass, one ``component_gradient`` call per component),
``cohort_pass_loop`` (one such pass per client, every one run even after a
non-finite end point), ``aggregate_cohort_loop`` (the cohort's mean update, one pass at a time),
and ``client_objective_loop`` and ``objective_value_loop`` (one
``component_loss`` call per component, added with Python's ``sum``).

The logistic problem stores signed rows r = -b a and no labels.  Its
oracles are the unsigned formulas of features a and labels b, written once
as functions of (A, b): ``unsigned_component_loss``,
``unsigned_component_gradient``, ``unsigned_client_gradient``,
``unsigned_full_gradient``, ``unsigned_objective`` (each client's
``np.mean`` of its losses, added with Python's ``sum``) and
``unsigned_local_pass``.  On the dataset's own rows and labels they are the
oracles of the sign identity; on a problem's signed rows they run through
``signed_as_unsigned``, which reads each signed row as a row of label -1,
and are the loop forms of the stacked kernels.  ``objective_per_client`` is
the loop form of the logistic ``objective_value``.

The logistic and codec oracles are the per-component and per-client forms
that the vectorised code must match bit for bit: ``sigmoid_three_exp`` (the
clipped two-branch logistic function), ``full_gradient_loop`` (one client at
a time, one point per call), ``quadratic_full_gradient_loop`` (the
quadratic's gradient at one point, one product with the summed Hessian),
``solve_optimum_loop`` (the optimum solve with two one-point gradient calls
per Nesterov iteration),
``logistic_local_pass`` (one client's pass, one gemv forward and
one back per batch, which ``LogisticProblem.cohort_pass`` stacks over the
cohort), ``star_variances_per_component`` (one ``component_gradient`` call
and one ``np.linalg.norm`` per component, and one ``client_gradient_loop``
call and norm per client), ``to_libsvm_text_scalars``
(the text of a feature matrix and its labels, formatting numpy scalars) and
``libsvm_text_per_value`` (the same text, formatting every value and column
index anew, which bounds ``dataset.libsvm_text``'s peak memory).
``quadratic_problem_loop`` is ``quadratic_problem`` with one QR and one
Hessian product per component, in the same draw order.  ``partition_tuples`` is the
partition of a row count as a tuple of client row tuples, and
``logistic_arrays_gathered`` is ``logistic_problem``'s gather of the matrix
rows and labels from it, one row at a time.

The star-sequence statistics are reached by no command, only by criterion
03 and their own tests, so they live here.  ``star_sequence_deviation``
gives the exact statistics (``StarSequenceStats``) of the optimum-anchored
sequence as plain means over the outcome classes.  ``class_rows`` builds
those classes' weight rows from ``subsets_per_entry``'s indicator rows (one
``float(i in c)`` per entry of each ``itertools`` combination); the rows are
checked against a per-class loop, and through ``prefix_gram_class_rows``,
whose Gram must equal ``variance_lab._prefix_gram``'s bit for bit.  ``star_sequence_enumerated``
is the oracle of ``star_sequence_deviation``, a walk over every outcome:
each client permutation crossed with each combination of per-client data
permutations steps the sequence directly, reads x*'s gradient and loss anew
at every step and calls ``component_loss`` at the step's new point, and the
statistics are means over the outcomes and the cohort's members.

The variance oracles are the enumeration forms that ``variance_lab`` replaced
with closed-form Gram matrices, and the binomial counts of the outcome classes
that it replaced with reduced forms.  ``prefix_class_sums`` is each prefix
length's class count and three class sums of weight-deviation products, Python
integers from ``binom`` (``math.comb``, 0 at a negative argument) with no
guard, and ``prefix_gram_class_sums`` the Gram they give; ``variance_lab``'s
``_exact_coefficients`` and ``_prefix_gram`` must give their ratios and bytes.
``enumerate_sequences_loop`` builds the outcome table one sample at a time,
``prefix_gram_from_table`` walks ``variance_lab._enumerate_sequences``'s
table in chunks and adds every outcome's and group's weight deviations to the Gram, ``prefix_gram_class_rows`` sums
them over one ``class_rows`` row per outcome class times the class's
multiplicity, and ``prefix_estimators`` evaluates every prefix estimator of every outcome and
group on the inputs, which ``brute_force_all_tensor`` averages.  It averages
in long double, so that the oracle's own rounding over up to 40,320 outcomes
stays far below the tolerances it is compared at.  The byte oracles of ``VarianceInputs`` and
``brute_force_all`` are their earlier per-row forms: ``variance_inputs_loop``
takes the moments with ``np.mean`` and one generator term per sample or
client, re-centring each row for both sides of its dot, and
``brute_force_all_loop`` centres ``zeta`` and builds its divisor on every call.
``exact_coefficients`` is every prefix length's (alpha_k, beta_k) as ``Fraction``s of the class
sums, and ``exact_variances_loop`` one input's exact variances from them, one scalar
alpha_k * sigma2 + beta_k * sigma_tilde2 per prefix length.  ``rel_errors_loop`` is one input's errors in
``max_rel_errors``, one exact variance and one scalar ``closed_form_minibatch_variance`` per prefix length under
``rel_error``, the command's error rule, and ``max_rel_error_loop`` its largest error.
``verify_variance_loop`` is ``fedrr verify-variance`` before its inputs were drawn and
summarised one (M, N) at a time: one ``normal`` call, one ``VarianceInputs`` and one
``max_rel_error_loop`` per checked input, so it shares no batch with the command.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from fedrr.cli import EXIT_OK, EXIT_VERIFY
from fedrr.optimizer import DivergenceError, Round, RunTrace, TracePoint, apply_decay
from fedrr.problem import LogisticProblem, Optimum, QuadraticProblem, SolverError, _converged, _sigmoid
from fedrr.rng import stream
from fedrr.shuffling import ClientMode, DataMode
from fedrr.variance_lab import (
    VarianceInputs,
    _check_guard,
    _enumerate_sequences,
    _prefix_gram,
    closed_form_minibatch_variance,
)


def signed_as_unsigned(problem):
    """A logistic problem's rows and labels for the unsigned forms: each signed row r = -b a is a row of label -1."""
    return problem._R, np.full((problem.M, problem.N), -1.0)


def unsigned_component_loss(a, b, alpha, x):
    """log(1 + exp(-b a.x)) + (alpha/2)||x||^2 of features a and label b."""
    return float(np.logaddexp(0.0, -b * float(a @ x)) + 0.5 * alpha * (x @ x))


def unsigned_component_gradient(a, b, alpha, x):
    """The gradient of ``unsigned_component_loss`` at x."""
    s = _sigmoid(-b * float(a @ x))
    return (-b * s) * a + alpha * x


def unsigned_client_gradient(A, b, alpha, x):
    """One client's mean gradient from its (N, d) rows A and labels b: ``A @ x`` forward and ``A.T @ t`` back."""
    t = -b * _sigmoid(-b * (A @ x))
    return A.T @ t / len(b) + alpha * x


def unsigned_full_gradient(A, b, alpha, x):
    """grad f at x from the (M, N, d) rows and (M, N) labels, one client's products at a time."""
    g = np.zeros(A.shape[2])
    for m in range(len(A)):
        z = A[m] @ x
        t = -b[m] * sigmoid_three_exp(-b[m] * z)
        g += A[m].T @ t
    return g / b.size + alpha * x


def unsigned_objective(A, b, alpha, x):
    """f(x) from the (M, N, d) rows and (M, N) labels: each client's ``np.mean`` of its losses, added with Python's ``sum``."""
    reg = 0.5 * alpha * (x @ x)
    return sum(float(np.mean(np.logaddexp(0.0, -b_m * (A_m @ x)))) + reg for A_m, b_m in zip(A, b)) / len(A)


def unsigned_local_pass(A, b, alpha, x, gamma_step, batches):
    """One client's pass over ``batches`` of its (N, d) rows A and labels b, one gemv forward and one back per batch."""
    x = np.array(x, dtype=np.float64)
    for batch in batches:
        Ab = A[batch]
        bb = b[batch]
        t = -bb * _sigmoid(-bb * (Ab @ x))
        x -= gamma_step * (Ab.T @ t / len(batch) + alpha * x)
    return x


def component_gradient(problem, m, j, x):
    """The gradient of ``problem.component_loss(m, j, .)`` at x, one component alone."""
    problem._check_indices(m, j)
    if isinstance(problem, LogisticProblem):
        A, b = signed_as_unsigned(problem)
        return unsigned_component_gradient(A[m, j], b[m, j], problem.alpha, x)
    if isinstance(problem, QuadraticProblem):
        return problem._H[m, j] @ x - problem._Hc[m, j]
    raise NotImplementedError


def client_gradient_loop(problem, m, x):
    """Client m's gradient at x, one client alone: row m of ``client_gradients``."""
    problem._check_indices(m)
    if isinstance(problem, LogisticProblem):
        A, b = signed_as_unsigned(problem)
        return unsigned_client_gradient(A[m], b[m], problem.alpha, x)
    if isinstance(problem, QuadraticProblem):
        return (problem._H[m].sum(axis=0) @ x - problem._Hc[m].sum(axis=0)) / problem.N
    raise NotImplementedError


def local_pass_loop(problem, m, x, gamma_step, batches):
    """Client m's sequential pass over ``batches``, stepping along each batch's mean gradient."""
    x = np.array(x, dtype=np.float64)
    for batch in batches:
        g = np.zeros(problem.d)
        for j in batch:
            g += component_gradient(problem, m, j, x)
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


def fisher_yates_integers(n, rng):
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def eager_data_perms(M, N, mode, t, seed):
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


def plan_round(cohort, order, bounds, meta_epoch=0, round_index=0):
    """The ``optimizer.Round`` in which each client m of ``cohort`` passes over ``order[m]``, in client-id order."""
    ms = tuple(sorted(int(m) for m in cohort))
    return Round(meta_epoch, round_index, ms, np.array([order[m] for m in ms]), bounds)


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
            perms = eager_data_perms(M, N, cfg.shuffle, t, cfg.seed)
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
            perms = eager_data_perms(M, N, cfg.shuffle, k, cfg.seed)
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
    return unsigned_full_gradient(*signed_as_unsigned(problem), problem.alpha, x)


def objective_per_client(problem, x):
    """``LogisticProblem.objective_value``, one client's ``np.mean`` of its losses at a time."""
    return unsigned_objective(*signed_as_unsigned(problem), problem.alpha, x)


def quadratic_full_gradient_loop(problem, x):
    """``QuadraticProblem.full_gradient``, one point per call: the summed Hessian times x, less the summed Hc."""
    return (problem._H.sum(axis=(0, 1)) @ x - problem._Hc.sum(axis=(0, 1))) / (problem.M * problem.N)


def solve_optimum_loop(problem, tol, max_iter=10_000_000, gradient=full_gradient_loop, repeats=True):
    """``fedrr.problem.solve_optimum`` with one ``gradient(problem, x)`` call per point: two per Nesterov iteration.

    With ``repeats`` it fails where the solver does once its state repeats: a 1/L step that leaves x as it
    is, or a Nesterov (x, y) equal to the one at the phase switch or at the last power-of-two iteration.
    Without, it runs on to its stop or its cap.
    """
    L, mu = problem.L, problem.mu
    step = 1.0 / L
    x = np.zeros(problem.d)
    g = gradient(problem, x)
    it = 0
    while it < min(1000, max_iter):
        if _converged(g, tol):
            return Optimum(x, problem.objective_value(x), float(np.linalg.norm(gradient(problem, x))))
        x_next = x - step * g
        it += 1
        if repeats and np.array_equal(x_next, x):
            raise repeat_error(it, g)
        x = x_next
        g = gradient(problem, x)
    beta = (np.sqrt(L / mu) - 1.0) / (np.sqrt(L / mu) + 1.0)
    y = x.copy()
    saved = (x.copy(), y.copy())
    while it < max_iter:
        if _converged(g, tol):
            return Optimum(x, problem.objective_value(x), float(np.linalg.norm(gradient(problem, x))))
        x_next = y - step * gradient(problem, y)
        y = x_next + beta * (x_next - x)
        x = x_next
        g = gradient(problem, x)
        it += 1
        if repeats and np.array_equal(x, saved[0]) and np.array_equal(y, saved[1]):
            raise repeat_error(it, g)
        if bin(it).count("1") == 1:
            saved = (x.copy(), y.copy())
    raise SolverError(
        f"optimum solver hit the {max_iter}-iteration cap at grad norm {np.linalg.norm(g):.3e}",
        grad_norm=float(np.linalg.norm(g)),
    )


def repeat_error(it, g):
    norm = float(np.linalg.norm(g))
    return SolverError(f"optimum solver repeated its iterates at iteration {it} with grad norm {norm:.3e}", grad_norm=norm)


def logistic_local_pass(problem, m, x, gamma_step, batches):
    """Client m's logistic pass over ``batches``, one gemv forward and one back per batch."""
    problem._check_indices(m)
    A, b = signed_as_unsigned(problem)
    return unsigned_local_pass(A[m], b[m], problem.alpha, x, gamma_step, batches)


def quadratic_problem_loop(M, N=4, d=5, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=2024):
    """``problem.quadratic_problem`` with one QR and one Hessian product per component."""
    rng = stream(seed, "quadratic_problem", M, N, d)
    H = np.empty((M, N, d, d))
    centers = np.empty((M, N, d))
    for m in range(M):
        client_center = rng.normal(size=d) * client_spread
        for j in range(N):
            if d == 1:
                eigs = np.array([rng.uniform(mu, L)])
                Q = np.ones((1, 1))
            else:
                eigs = np.concatenate(([mu, L], rng.uniform(mu, L, size=d - 2)))
                Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            H[m, j] = (Q * eigs) @ Q.T
            centers[m, j] = client_center + rng.normal(size=d) * sample_spread
    return QuadraticProblem(H, centers, mu=mu, L=L)


def star_variances_per_component(problem, x_star):
    comp = math.fsum(
        float(np.linalg.norm(component_gradient(problem, m, j, x_star)) ** 2)
        for m in range(problem.M)
        for j in range(problem.N)
    ) / (problem.M * problem.N)
    cli = math.fsum(
        float(np.linalg.norm(client_gradient_loop(problem, m, x_star)) ** 2) for m in range(problem.M)
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


@dataclass
class StarSequenceStats:
    """Exact deviation statistics of the optimum-anchored sequence."""

    mean_sq_dev: np.ndarray  # (R, N) mean ||x - x*||^2 after local step j+1 in round r
    max_mean_sq_dev: float
    max_sigma_ds: float  # max over slots of mean Bregman divergence / gamma^2


def class_rows(M, N, C, s, j):
    """Weight rows Q and tail clients t of the outcome classes (S, t, T), j >= 1.

    S runs over the s-subsets of the clients, t over the clients outside S
    and T over the j-subsets of t's samples.  Row Q[i] over the M*N samples
    is 1 on every sample of a client in S and C on the samples of T.
    """
    in_S = subsets_per_entry(M, s)
    # tails[t, T, t, :] is C on the j samples of T
    tails = C * np.eye(M)[:, None, :, None] * subsets_per_entry(N, j)[None, :, None, :]
    outside = in_S == 0
    Q = (in_S[:, None, None, :, None] + tails)[outside]
    return Q.reshape(-1, M * N), np.repeat(np.nonzero(outside)[1], Q.shape[1])


def star_sequence_deviation(problem, x_star, gamma, C):
    """Exact statistics of the fictitious sequence started at the optimum.

    Local steps use gradients g* frozen at x*; rounds end with a cohort
    average.  After local step j+1 of round r, x - x* = -gamma*Q.g*/C for the
    ``class_rows`` row Q of (S, t, T): the C*r clients of completed rounds,
    the current client and the j+1 samples it has seen.  The step's component
    l is any sample of T.  Every (S, t, T, l) is equally likely once the
    cohort is averaged, so the statistics are plain means over the classes,
    with one ``component_loss`` call per (S, t, T, l) for the Bregman term.
    """
    M, N = problem.M, problem.N
    if M % C != 0:
        raise ValueError("C must divide M")
    R = M // C
    n = sum(math.comb(M, C * r) * (M - C * r) for r in range(R)) * N * 2 ** (N - 1)
    _check_guard(n, "outcome classes")
    star_grads = np.array([problem.component_gradients(m, x_star) for m in range(M)])
    star_losses = [[problem.component_loss(m, j, x_star) for j in range(N)] for m in range(M)]
    sq = np.zeros((R, N))
    breg = np.zeros((R, N))
    for r in range(R):
        for j in range(N):
            Q, t = class_rows(M, N, C, C * r, j + 1)
            deltas = (-gamma / C) * (Q @ star_grads.reshape(M * N, -1))
            sq[r, j] = np.mean(np.sum(deltas * deltas, axis=1))
            rows, ls = np.nonzero(Q.reshape(-1, M, N)[np.arange(len(t)), t])  # every l in each row's T
            breg[r, j] = sum(
                problem.component_loss(m, l, x_star + deltas[i]) - star_losses[m][l] - star_grads[m, l] @ deltas[i]
                for i, m, l in zip(rows.tolist(), t[rows].tolist(), ls.tolist())
            ) / len(rows)
    max_sigma_ds = float(breg.max() / (gamma * gamma)) if gamma > 0 else 0.0
    return StarSequenceStats(mean_sq_dev=sq, max_mean_sq_dev=float(sq.max()), max_sigma_ds=max_sigma_ds)


def star_sequence_enumerated(problem, x_star, gamma, C):
    """``star_sequence_deviation``, stepped along every client permutation and per-client data permutation."""
    M, N = problem.M, problem.N
    R = M // C
    sq = np.zeros((R, N))
    breg = np.zeros((R, N))
    data_perms = list(itertools.permutations(range(N)))
    n_out = 0
    for client_perm in itertools.permutations(range(M)):
        for perms in itertools.product(data_perms, repeat=M):
            x_round = x_star.copy()
            for r in range(R):
                endpoints = []
                for m in client_perm[r * C : (r + 1) * C]:
                    x = x_round.copy()
                    for j, comp in enumerate(perms[m]):
                        g = component_gradient(problem, m, comp, x_star)
                        x = x - gamma * g
                        delta = x - x_star
                        sq[r, j] += float(delta @ delta)
                        loss = problem.component_loss(m, comp, x)
                        breg[r, j] += float(loss - problem.component_loss(m, comp, x_star) - g @ delta)
                    endpoints.append(x)
                x_round = np.mean(endpoints, axis=0)
            n_out += 1
    sq /= n_out * C
    breg /= n_out * C
    max_sigma_ds = float(breg.max() / (gamma * gamma)) if gamma > 0 else 0.0
    return StarSequenceStats(mean_sq_dev=sq, max_mean_sq_dev=float(sq.max()), max_sigma_ds=max_sigma_ds)


def to_libsvm_text_scalars(X, labels):
    lines = []
    for x, y in zip(X, labels):
        idx = np.flatnonzero(x)
        feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(idx, x[idx]))
        lines.append(f"{int(y):+d} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def libsvm_text_per_value(X, labels):
    lines = []
    for x, y in zip(X, labels.tolist()):
        (idx,) = x.nonzero()
        feats = " ".join([f"{j}:{v:.17g}" for j, v in zip((idx + 1).tolist(), x[idx].tolist())])
        lines.append(f"{int(y):+d} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def subsets_per_entry(n, size):
    """Indicator rows of every ``size``-subset of range(n), one ``float(i in c)`` per entry, in ``itertools`` order."""
    return np.array([[float(i in c) for i in range(n)] for c in itertools.combinations(range(n), size)])


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


def prefix_gram_from_table(M, N, C, chunk=4096):
    """``variance_lab._prefix_gram``, summed over every (outcome, group) pair of the outcome table."""
    seq = _enumerate_sequences(M, N, C)
    n_out, _, NR = seq.shape
    MN = M * N
    gram = np.zeros((NR, MN, MN))
    for lo in range(0, n_out, chunk):
        block = seq[lo : lo + chunk]
        B = len(block)
        rows = np.zeros((B, 1, MN))  # samples in the completed rows of all groups
        tail = np.zeros((B, C, MN))  # each group's samples since its last completed row
        o, g = np.ogrid[:B, :C]
        for k in range(1, NR + 1):
            tail[o, g, block[:, :, k - 1]] = 1.0
            if k % N == 0:
                rows += tail.sum(axis=1, keepdims=True)
                tail[:] = 0.0
            dev = (MN * (rows + C * tail) - C * k).reshape(B * C, MN)
            gram[k - 1] += dev.T @ dev
    return gram, n_out


def prefix_gram_class_rows(M, N, C):
    """``variance_lab._prefix_gram`` with its divisor, summing D D^T over one ``class_rows`` row per outcome class."""
    n_out = math.factorial(M) * math.factorial(N) ** M
    MN = M * N
    grams = []
    for k in range(1, N * (M // C) + 1):
        r, j = divmod(k, N)
        s = C * r
        # j = 0: 1 on every sample of the clients in S
        Q = np.repeat(subsets_per_entry(M, s), N, axis=1) if j == 0 else class_rows(M, N, C, s, j)[0]
        D = MN * Q - C * k
        grams.append(C * n_out // len(Q) * (D.T @ D))
    gram = np.stack(grams)
    scale = C * np.arange(1.0, len(gram) + 1) * MN
    return gram, n_out * C * scale * scale


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


def variance_inputs_loop(zeta):
    """``VarianceInputs``' (grand_mean, sigma2, sigma_tilde2), one row dot per generator term."""
    z = np.asarray(zeta, dtype=np.float64)
    M, N, _ = z.shape
    grand_mean = z.mean(axis=(0, 1))
    client_means = z.mean(axis=1)
    sigma2 = math.fsum(
        float((z[m, j] - grand_mean) @ (z[m, j] - grand_mean))
        for m in range(M)
        for j in range(N)
    ) / (M * N)
    sigma_tilde2 = math.fsum(
        float((client_means[m] - grand_mean) @ (client_means[m] - grand_mean))
        for m in range(M)
    ) / M
    return grand_mean, sigma2, sigma_tilde2


def brute_force_all_loop(inputs, C=1):
    """``variance_lab.brute_force_all``, re-centring zeta and rebuilding the divisor on every call."""
    gram = _prefix_gram(inputs.M, inputs.N, C)[0]
    n_out = math.factorial(inputs.M) * math.factorial(inputs.N) ** inputs.M
    z = inputs.zeta.reshape(inputs.M * inputs.N, inputs.d) - inputs.grand_mean
    scale = C * np.arange(1.0, len(gram) + 1) * (inputs.M * inputs.N)
    return np.sum(z * (gram @ z), axis=(1, 2)) / (n_out * C * scale * scale)


def binom(n, k):
    """``math.comb``, and 0 where n or k is negative."""
    return math.comb(n, k) if n >= 0 and k >= 0 else 0


def prefix_class_sums(M, N, C):
    """Yield n_cls and ``variance_lab._prefix_gram``'s class sums of D_x*D_y (across two clients, inside one, x = y)
    for each k.

    Python integers for any (M, N, C), with no guard.  A class is the set S of the s = C*k_N/N clients in completed
    rows and, when j > 0, the tail client t outside S and the j-subset T of its samples; n_S classes put x's client in
    S and n_T put x in T, q1 and q are the class sums of Q_x and Q_x*Q_y, and a sum is (M*N)^2*q + base.
    """
    MN = M * N
    for k in range(1, N * (M // C) + 1):
        s, j, Ck = C * (k // N), k % N, C * k
        spread = (M - s) * binom(N, j) if j else 1
        n_S, n_T = binom(M - 1, s - 1) * spread, binom(M - 1, s) * binom(N - 1, j - 1)
        n_cls, q1 = binom(M, s) * spread, n_S + C * n_T
        q_cross = binom(M - 2, s - 2) * spread + 2 * C * binom(M - 2, s - 1) * binom(N - 1, j - 1)
        q_block, q_diag = n_S + C * C * binom(M - 1, s) * binom(N - 2, j - 2), n_S + C * C * n_T
        base = n_cls * Ck * Ck - 2 * MN * Ck * q1
        yield n_cls, (MN * MN * q_cross + base, MN * MN * q_block + base, MN * MN * q_diag + base)


def prefix_gram_class_sums(M, N, C):
    """``variance_lab._prefix_gram`` with its divisor, each Gram integer C*n_outcomes/n_cls times a class sum."""
    n_out = math.factorial(M) * math.factorial(N) ** M
    _check_guard(n_out, "outcomes")
    MN = M * N
    values = [[C * n_out // n_cls * q for q in sums] for n_cls, sums in prefix_class_sums(M, N, C)]
    same_client = np.arange(MN)[:, None] // N == np.arange(MN) // N
    gram = np.take(np.array(values, dtype=np.float64), same_client + np.eye(MN, dtype=np.intp), axis=1)
    scale = C * np.arange(1.0, len(gram) + 1) * MN
    return gram, n_out * C * scale * scale


def exact_coefficients(M, N, C):
    """Every prefix length's (alpha_k, beta_k) in Fractions from ``prefix_class_sums`` alone.

    A centred input's Gram form is (diag - block) * sum ||z||^2 + (block - cross) * sum_m ||sum_j z_mj||^2, the
    across-client term multiplying ||sum z||^2 = 0; so the exact prefix variance is alpha_k * sigma2 + beta_k *
    sigma_tilde2, with sum ||z||^2 = M*N * sigma2 and sum_m ||sum_j z_mj||^2 = N^2 * M * sigma_tilde2.
    """
    MN = M * N
    for k, (n_cls, (cross, block, diag)) in enumerate(prefix_class_sums(M, N, C), start=1):
        scale = n_cls * (C * k * MN) ** 2
        yield Fraction((diag - block) * MN, scale), Fraction((block - cross) * N * N * M, scale)


def exact_variances_loop(inputs, C=1):
    """The exact side of ``variance_lab.max_rel_errors`` for one input: alpha_k * sigma2 + beta_k * sigma_tilde2 in
    Python floats, each coefficient the float of its ``Fraction``, one k at a time."""
    return [
        float(alpha) * inputs.sigma2 + float(beta) * inputs.sigma_tilde2
        for alpha, beta in exact_coefficients(inputs.M, inputs.N, C)
    ]


def rel_error(closed, exact):
    """verify-variance's error rule: relative where the exact variance exceeds 1e-12, else absolute."""
    return abs(closed - exact) / (abs(exact) if abs(exact) > 1e-12 else 1.0)


def rel_errors_loop(inputs, C=1):
    """One input's closed-form error in ``variance_lab.max_rel_errors`` at every prefix length, one scalar per k."""
    return [
        rel_error(closed_form_minibatch_variance(k, inputs.M, inputs.N, C, inputs.sigma2, inputs.sigma_tilde2), b)
        for k, b in enumerate(exact_variances_loop(inputs, C), start=1)
    ]


def max_rel_error_loop(inputs, C=1):
    """One input's error in ``variance_lab.max_rel_errors``, as a loop over the prefix lengths: the largest of
    ``rel_errors_loop``; relative where enumeration gives over 1e-12, else absolute."""
    return max(rel_errors_loop(inputs, C))


def verify_variance_loop(max_size, inputs=5, seed=0, tol=1e-10):
    """``fedrr verify-variance``'s scan and print-out, one ``normal`` draw and one ``VarianceInputs`` per input of every
    geometry.  Returns the exit code.
    """
    rng = stream(seed, "verify_variance")
    worst = 0.0
    failures = 0
    for M in range(1, max_size + 1):
        Cs = [c for c in range(1, M + 1) if M % c == 0]
        for N in range(1, max_size // M + 1):
            for C in Cs:
                for z in (rng.normal(size=(M, N, 2)) for _ in range(inputs)):
                    error = max_rel_error_loop(VarianceInputs(z), C)
                    worst = max(worst, error)
                    status = "ok" if error <= tol else "FAIL"
                    if status == "FAIL":
                        failures += 1
                    print(f"M={M} N={N} C={C}: max rel error {error:.3e} {status}")
    print(f"worst relative error {worst:.3e}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


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
    diverged = []
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
        if candidates:
            out[algorithm] = min(candidates)[1]
        else:
            diverged.append(algorithm)
    if len(diverged) == 1:
        raise DivergenceError(f"all runs diverged for algorithm {diverged[0]!r}")
    if diverged:
        raise DivergenceError("all runs diverged for algorithms " + ", ".join(repr(a) for a in diverged))
    return out
