"""Finite-sum objectives over M clients x N components, with exact oracles.

Two concrete problem families are provided: L2-regularized logistic regression
on a partitioned sparse dataset, and synthetic quadratics with controllable
spectrum and client heterogeneity (these have an analytic optimum, which makes
them the workhorse for bound verification).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import FederatedPartition, SparseDataset
from .rng import stream

MAGIC = b"FEDRROPT1"

COMPONENT_STRONGLY_CONVEX = "component-strongly-convex"
CLIENT_STRONGLY_CONVEX = "client-strongly-convex"
GLOBAL_STRONGLY_CONVEX = "global-strongly-convex"


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
    regime: str

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

    def client_gradient(self, m: int, x: np.ndarray) -> np.ndarray:
        self._check_indices(m)
        g = np.zeros(self.d)
        for j in range(self.N):
            g += self.component_gradient(m, j, x)
        return g / self.N

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.d)
        for m in range(self.M):
            g += self.client_gradient(m, x)
        return g / self.M

    def client_objective(self, m: int, x: np.ndarray) -> float:
        return sum(self.component_loss(m, j, x) for j in range(self.N)) / self.N

    def objective_value(self, x: np.ndarray) -> float:
        return sum(self.client_objective(m, x) for m in range(self.M)) / self.M

    def local_pass(self, m: int, x: np.ndarray, gamma_step: float, batches) -> np.ndarray:
        """Sequential pass over ``batches`` (lists of component ids) for one client.

        Each step moves against the batch-mean gradient with step ``gamma_step``.
        Subclasses override this with vectorized kernels; semantics must match.
        """
        x = np.array(x, dtype=np.float64)
        for batch in batches:
            g = np.zeros(self.d)
            for j in batch:
                g += self.component_gradient(m, j, x)
            x -= (gamma_step / len(batch)) * g
        return x


class LogisticProblem(FederatedProblem):
    """log(1 + exp(-b a.x)) + (alpha/2)||x||^2 per component, dense per-client rows."""

    def __init__(self, A: np.ndarray, b: np.ndarray, alpha: float):
        if alpha <= 0:
            raise ProblemError("regularizer alpha must be positive")
        if A.ndim != 3 or b.shape != A.shape[:2]:
            raise ProblemError("expected A of shape (M, N, d) and matching labels")
        self.M, self.N, self.d = A.shape
        self._A = np.ascontiguousarray(A, dtype=np.float64)
        self._b = np.ascontiguousarray(b, dtype=np.float64)
        self.alpha = float(alpha)
        row_sq = np.einsum("mnd,mnd->mn", self._A, self._A)
        self.L = float(row_sq.max() / 4.0 + alpha)
        self.mu = float(alpha)
        self.regime = COMPONENT_STRONGLY_CONVEX

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

    def client_gradient(self, m, x):
        self._check_indices(m)
        z = self._A[m] @ x
        t = -self._b[m] * _sigmoid(-self._b[m] * z)
        return self._A[m].T @ t / self.N + self.alpha * x

    def client_objective(self, m, x):
        self._check_indices(m)
        z = -self._b[m] * (self._A[m] @ x)
        return float(np.mean(np.logaddexp(0.0, z)) + 0.5 * self.alpha * (x @ x))

    def full_gradient(self, x):
        g = np.zeros(self.d)
        for m in range(self.M):
            z = self._A[m] @ x
            t = -self._b[m] * _sigmoid(-self._b[m] * z)
            g += self._A[m].T @ t
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
        self.regime = COMPONENT_STRONGLY_CONVEX
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

    def local_pass(self, m, x, gamma_step, batches):
        self._check_indices(m)
        H = self._H[m]
        Hc = self._Hc[m]
        x = np.array(x, dtype=np.float64)
        for batch in batches:
            g = np.zeros(self.d)
            for j in batch:
                g += H[j] @ x - Hc[j]
            x -= (gamma_step / len(batch)) * g
        return x

    def analytic_optimum(self) -> Optimum:
        Hbar = self._H.sum(axis=(0, 1))
        rhs = self._Hc.sum(axis=(0, 1))
        x_star = np.linalg.solve(Hbar, rhs)
        return Optimum(
            x_star=x_star,
            f_star=self.objective_value(x_star),
            grad_norm=float(np.linalg.norm(self.full_gradient(x_star))),
        )


def logistic_problem(partition: FederatedPartition, dataset: SparseDataset, alpha: float) -> LogisticProblem:
    """Build the regularized logistic problem on a client partition of a dataset."""
    if partition.M < 1 or partition.N < 1:
        raise ProblemError("partition must assign at least one sample per client")
    dense = dataset.to_dense()
    A = np.empty((partition.M, partition.N, dataset.dim))
    b = np.empty((partition.M, partition.N))
    for m in range(partition.M):
        rows = list(partition.client_rows(m))
        A[m] = dense[rows]
        b[m] = dataset.labels[rows]
    return LogisticProblem(A, b, alpha)


def quadratic_problem(
    M: int,
    N: int,
    d: int,
    mu: float,
    L: float,
    client_spread: float,
    sample_spread: float,
    seed: int,
) -> QuadraticProblem:
    """Synthetic strongly convex instance with controllable heterogeneity.

    Component Hessians are random rotations of a spectrum spanning [mu, L].
    Component centers are client centers (scale ``client_spread``) plus
    per-sample offsets (scale ``sample_spread``); both spreads at zero give a
    homogeneous problem whose optimum sits at the shared center.
    """
    if not 0 < mu <= L:
        raise ProblemError("spectrum bounds must satisfy 0 < mu <= L")
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
    gradient norm if the cap is hit first.
    """
    if tol <= 0:
        raise ProblemError("tolerance must be positive")
    if problem.mu <= 0:
        raise ProblemError("optimum solver requires a strongly convex problem")
    L, mu = problem.L, problem.mu
    step = 1.0 / L
    x = np.zeros(problem.d)
    g = problem.full_gradient(x)
    it = 0
    while it < min(1000, max_iter):
        if np.linalg.norm(g) <= tol:
            return _finish(problem, x, g)
        x = x - step * g
        g = problem.full_gradient(x)
        it += 1
    beta = (np.sqrt(L / mu) - 1.0) / (np.sqrt(L / mu) + 1.0)
    y = x.copy()
    while it < max_iter:
        if np.linalg.norm(g) <= tol:
            return _finish(problem, x, g)
        x_next = y - step * problem.full_gradient(y)
        y = x_next + beta * (x_next - x)
        x = x_next
        g = problem.full_gradient(x)
        it += 1
    raise SolverError(
        f"optimum solver hit the {max_iter}-iteration cap at grad norm {np.linalg.norm(g):.3e}",
        grad_norm=float(np.linalg.norm(g)),
    )


def _finish(problem: FederatedProblem, x: np.ndarray, g: np.ndarray) -> Optimum:
    return Optimum(x_star=x, f_star=problem.objective_value(x), grad_norm=float(np.linalg.norm(g)))


def _sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.clip(z, None, 50))), np.exp(np.clip(z, -50, None)) / (1.0 + np.exp(np.clip(z, -50, None))))


def save_optimum(path, opt: Optimum) -> None:
    """Binary sidecar: magic, u32 d, x* as little-endian f64, f_star, grad_norm.

    The bytes go to a temporary file that is then renamed over ``path``, so
    an interrupted write never leaves a truncated sidecar behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", opt.x_star.size))
        fh.write(opt.x_star.astype("<f8").tobytes())
        fh.write(struct.pack("<d", opt.f_star))
        fh.write(struct.pack("<d", opt.grad_norm))
    os.replace(tmp, path)


def load_optimum(path) -> Optimum:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ProblemError(f"{path} is not an optimum sidecar file")
    head = len(MAGIC) + 4
    d = struct.unpack_from("<I", raw, len(MAGIC))[0] if len(raw) >= head else 0
    if len(raw) != head + 8 * d + 16:
        raise ProblemError(f"{path} is truncated or corrupt: {len(raw)} bytes, expected {head + 8 * d + 16} for d={d}")
    x = np.frombuffer(raw, dtype="<f8", count=d, offset=head).copy()
    f_star, grad_norm = struct.unpack_from("<dd", raw, head + 8 * d)
    return Optimum(x_star=x, f_star=f_star, grad_norm=grad_norm)
