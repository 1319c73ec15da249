"""Finite-sum objectives over M clients x N components, with exact oracles.

Two concrete problem families are provided: L2-regularized logistic regression
on a partitioned dataset, and synthetic quadratics with controllable
spectrum and client heterogeneity (these have an analytic optimum, which makes
them the workhorse for bound verification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream


class ProblemError(ValueError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class Optimum:
    x_star: np.ndarray
    f_star: float
    grad_norm: float


class FederatedProblem:
    """Objective f(x) = (1/M) sum_m (1/N) sum_j f_m^j(x) with exact gradients."""

    M: int
    N: int
    d: int
    alpha: float
    L: float
    mu: float

    # -- component oracles, overridden by subclasses ------------------------
    def component_loss(self, m: int, j: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_gradient(self, m: int, j: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- aggregates ---------------------------------------------------------
    def _check_indices(self, m: int, j: int | None = None) -> None:
        if not 0 <= m < self.M:
            raise IndexError(f"client {m} out of range [0, {self.M})")
        if j is not None and not 0 <= j < self.N:
            raise IndexError(f"component {j} out of range [0, {self.N})")

    def component_gradients(self, m: int, x: np.ndarray) -> np.ndarray:
        """Client m's N x d block of component gradients, row j bit-equal to ``component_gradient(m, j, x)``."""
        self._check_indices(m)
        return np.array([self.component_gradient(m, j, x) for j in range(self.N)])

    # -- kernels, overridden by subclasses ----------------------------------
    def objective_value(self, x: np.ndarray) -> float:
        """f(x): each client's mean of its N component losses, then the mean over clients."""
        raise NotImplementedError

    def cohort_pass(self, ms, x: np.ndarray, gamma_step: float, order: np.ndarray, bounds) -> np.ndarray:
        """End points of one sequential local pass per client, all from ``x``: shape (C, d).

        Row i is client ``ms[i]``'s pass over its components ``order[i]`` (a
        (C, L) int array), cut into the steps ``order[i, a:b]`` for each
        ``(a, b)`` in ``bounds``.  Each step moves against the batch-mean
        gradient with step ``gamma_step``.  Every row is computed, finite or
        not.
        """
        raise NotImplementedError


class LogisticProblem(FederatedProblem):
    """log(1 + exp(-b a.x)) + (alpha/2)||x||^2 per component, dense per-client rows."""

    def __init__(self, A: np.ndarray, b: np.ndarray, alpha: float):
        if not 0 < alpha < math.inf:  # NaN or inf: the optimum solve would never converge
            raise ProblemError(f"regularizer alpha must be positive and finite, got {alpha}")
        if A.ndim != 3 or b.shape != A.shape[:2]:
            raise ProblemError("expected A of shape (M, N, d) and matching labels")
        self.M, self.N, self.d = A.shape
        self._A = np.ascontiguousarray(A, dtype=np.float64)
        self._b = np.ascontiguousarray(b, dtype=np.float64)
        self.alpha = float(alpha)
        row_sq = np.einsum("mnd,mnd->mn", self._A, self._A)
        self.L = float(row_sq.max() / 4.0 + alpha)
        self.mu = float(alpha)

    def component_loss(self, m, j, x):
        self._check_indices(m, j)
        z = -self._b[m, j] * float(self._A[m, j] @ x)
        return float(np.logaddexp(0.0, z) + 0.5 * self.alpha * (x @ x))

    def component_gradient(self, m, j, x):
        self._check_indices(m, j)
        a = self._A[m, j]
        b = self._b[m, j]
        s = _sigmoid(-b * float(a @ x))
        return (-b * s) * a + self.alpha * x

    def component_gradients(self, m, x):
        self._check_indices(m)
        A = self._A[m]
        b = self._b[m]
        # one ddot per row: a gemv over the block rounds some rows differently
        z = np.array([a @ x for a in A])
        s = _sigmoid(-b * z)
        return (-b * s)[:, None] * A + self.alpha * x

    def client_gradient(self, m, x):
        self._check_indices(m)
        z = self._A[m] @ x
        t = -self._b[m] * _sigmoid(-self._b[m] * z)
        return self._A[m].T @ t / self.N + self.alpha * x

    def objective_value(self, x):
        reg = 0.5 * self.alpha * (x @ x)
        return sum(float(np.mean(np.logaddexp(0.0, -b * (A @ x))) + reg) for A, b in zip(self._A, self._b)) / self.M

    def full_gradient(self, x):
        # numpy runs one gemv per client for both stacked products, so each
        # client's sum equals ``A[m] @ x`` and ``A[m].T @ t[m]`` bit for bit;
        # the clients are then added in order, as a per-client loop would
        z = self._A @ x
        t = -self._b * _sigmoid(-self._b * z)
        back = np.matmul(t[:, None, :], self._A)[:, 0, :]
        g = np.zeros(self.d)
        for row in back:
            g += row
        return g / (self.M * self.N) + self.alpha * x

    def local_pass(self, m, x, gamma_step, batches):
        self._check_indices(m)
        A = self._A[m]
        b = self._b[m]
        alpha = self.alpha
        x = np.array(x, dtype=np.float64)
        for batch in batches:
            Ab = A[batch]
            bb = b[batch]
            t = -bb * _sigmoid(-bb * (Ab @ x))
            x -= gamma_step * (Ab.T @ t / len(batch) + alpha * x)
        return x

    def cohort_pass(self, ms, x, gamma_step, order, bounds):
        # one BLAS-bound pass per client: stacking the clients is no faster
        return np.array([self.local_pass(m, x, gamma_step, [row[a:b] for a, b in bounds]) for m, row in zip(ms, order)])


class QuadraticProblem(FederatedProblem):
    """Components (1/2)(x - c_mj)' H_mj (x - c_mj) with eigenvalues in [mu, L]."""

    def __init__(self, H: np.ndarray, centers: np.ndarray, mu: float, L: float):
        if H.ndim != 4 or H.shape[2] != H.shape[3] or centers.shape != H.shape[:3]:
            raise ProblemError("expected H of shape (M, N, d, d) and centers (M, N, d)")
        self.M, self.N, self.d = centers.shape
        self._H = np.ascontiguousarray(H, dtype=np.float64)
        self._c = np.ascontiguousarray(centers, dtype=np.float64)
        self.alpha = 0.0
        self.mu = float(mu)
        self.L = float(L)
        # Hc products, reused by the analytic solve and gradients
        self._Hc = np.einsum("mnij,mnj->mni", self._H, self._c)

    def component_loss(self, m, j, x):
        self._check_indices(m, j)
        r = x - self._c[m, j]
        return 0.5 * float(r @ self._H[m, j] @ r)

    def component_gradient(self, m, j, x):
        self._check_indices(m, j)
        return self._H[m, j] @ x - self._Hc[m, j]

    def client_gradient(self, m, x):
        self._check_indices(m)
        return (self._H[m].sum(axis=0) @ x - self._Hc[m].sum(axis=0)) / self.N

    def full_gradient(self, x):
        return (self._H.sum(axis=(0, 1)) @ x - self._Hc.sum(axis=(0, 1))) / (self.M * self.N)

    def objective_value(self, x):
        r = x - self._c
        q = (0.5 * (r[..., None, :] @ self._H @ r[..., None])[..., 0, 0]).tolist()
        # each r @ H @ r bit-equal to the per-component form, added over j and then m in the same order
        return sum(sum(losses) / self.N for losses in q) / self.M

    def cohort_pass(self, ms, x, gamma_step, order, bounds):
        if min(ms) < 0 or max(ms) >= self.M:
            raise IndexError(f"clients {list(ms)} out of range [0, {self.M})")
        ms = np.asarray(ms)
        # step p of all C clients is one (C, d, d) @ (C, d, 1) matmul, each
        # product bit-equal to the per-client ``H[m, j] @ x``
        H = self._H[ms, order.T]
        Hc = self._Hc[ms, order.T][..., None]
        X = np.repeat(np.asarray(x, dtype=np.float64)[None, :, None], len(ms), axis=0)
        for a, b in bounds:
            g = np.matmul(H[a], X)
            g -= Hc[a]
            g += 0.0  # the loop form adds to zeros, which turns -0.0 into +0.0
            for p in range(a + 1, b):
                g += np.matmul(H[p], X) - Hc[p]
            g *= gamma_step / (b - a)
            X -= g
        return X[..., 0]

    def analytic_optimum(self) -> Optimum:
        return optimum_at(self, np.linalg.solve(self._H.sum(axis=(0, 1)), self._Hc.sum(axis=(0, 1))))


def optimum_at(problem: FederatedProblem, x: np.ndarray) -> Optimum:
    """The optimum record of ``x``: f(x) and ||grad f(x)|| both follow from x alone."""
    return Optimum(x_star=x, f_star=problem.objective_value(x), grad_norm=float(np.linalg.norm(problem.full_gradient(x))))


def logistic_problem(partition: np.ndarray, X: np.ndarray, labels: np.ndarray, alpha: float) -> LogisticProblem:
    """Build the regularized logistic problem on an (M, N) array of each client's rows of ``X`` and ``labels``."""
    if partition.size == 0:
        raise ProblemError("partition must assign at least one sample per client")
    return LogisticProblem(X[partition], labels[partition], alpha)


def quadratic_problem(
    M: int,
    N: int = 4,
    d: int = 5,
    mu: float = 1.0,
    L: float = 10.0,
    client_spread: float = 1.0,
    sample_spread: float = 0.5,
    seed: int = 2024,
) -> QuadraticProblem:
    """Synthetic strongly convex instance with controllable heterogeneity.

    Component Hessians are random rotations of a spectrum spanning [mu, L].
    Component centers are client centers (scale ``client_spread``) plus
    per-sample offsets (scale ``sample_spread``); both spreads at zero give a
    homogeneous problem whose optimum sits at the shared center.
    """
    if min(M, N, d) < 1:
        raise ProblemError(f"quadratic sizes must be at least 1, got M={M}, N={N}, d={d}")
    if not 0 < mu <= L < math.inf:
        raise ProblemError(f"spectrum bounds must satisfy 0 < mu <= L < inf, got mu={mu}, L={L}")
    if not math.isfinite(client_spread) or not math.isfinite(sample_spread):
        raise ProblemError(f"spreads must be finite, got client_spread={client_spread}, sample_spread={sample_spread}")
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


def solve_optimum(problem: FederatedProblem, tol: float, max_iter: int = 10_000_000) -> Optimum:
    """Drive ||grad f|| below ``tol`` with deterministic full-gradient descent.

    Plain 1/L steps for the first 1000 iterations, then Nesterov momentum for
    the strongly convex regime.  Raises :class:`SolverError` with the last
    gradient norm if the cap is hit first, or at the first non-finite gradient.
    """
    if not 0 < tol < math.inf:  # a NaN tolerance would never be met, an infinite one by x = 0
        raise ProblemError(f"tolerance must be positive and finite, got {tol}")
    if problem.mu <= 0:
        raise ProblemError("optimum solver requires a strongly convex problem")
    L, mu = problem.L, problem.mu
    step = 1.0 / L
    x = np.zeros(problem.d)
    g = problem.full_gradient(x)
    it = 0
    while it < min(1000, max_iter):
        if _converged(g, tol):
            return optimum_at(problem, x)
        x = x - step * g
        g = problem.full_gradient(x)
        it += 1
    beta = (np.sqrt(L / mu) - 1.0) / (np.sqrt(L / mu) + 1.0)
    y = x.copy()
    while it < max_iter:
        if _converged(g, tol):
            return optimum_at(problem, x)
        x_next = y - step * problem.full_gradient(y)
        y = x_next + beta * (x_next - x)
        x = x_next
        g = problem.full_gradient(x)
        it += 1
    raise SolverError(
        f"optimum solver hit the {max_iter}-iteration cap at grad norm {np.linalg.norm(g):.3e}",
        grad_norm=float(np.linalg.norm(g)),
    )


def _converged(g: np.ndarray, tol: float) -> bool:
    norm = float(np.linalg.norm(g))
    if not math.isfinite(norm):  # descent never comes back from NaN or inf
        raise SolverError(f"optimum solver met a non-finite gradient (norm {norm})", grad_norm=norm)
    return norm <= tol


def _sigmoid(z):
    """Logistic function with arguments clipped to [-50, 50], one ``exp`` per element.

    ``min(z, -z)`` is -|z| but keeps the sign of a NaN, so NaN inputs come out
    with the same bits as in the clipped two-branch form.
    """
    e = np.exp(np.maximum(np.minimum(z, -z), -50))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
