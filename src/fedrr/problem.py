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

    def component_gradients(self, m: int, x: np.ndarray) -> np.ndarray:
        """Client m's N x d block of component gradients, row j the gradient of ``component_loss(m, j, .)``."""
        raise NotImplementedError

    def _check_indices(self, m: int, j: int | None = None) -> None:
        if not 0 <= m < self.M:
            raise IndexError(f"client {m} out of range [0, {self.M})")
        if j is not None and not 0 <= j < self.N:
            raise IndexError(f"component {j} out of range [0, {self.N})")

    def _check_clients(self, ms) -> None:
        if min(ms) < 0 or max(ms) >= self.M:
            raise IndexError(f"clients {list(ms)} out of range [0, {self.M})")

    # -- kernels, overridden by subclasses ----------------------------------
    def full_gradients(self, P: np.ndarray) -> np.ndarray:
        """grad f at each row of the (k, d) array ``P``, each row with the bytes of that point's one-point call."""
        raise NotImplementedError

    def client_gradients(self, x: np.ndarray) -> np.ndarray:
        """The (M, d) array whose row m is client m's mean gradient at ``x``."""
        raise NotImplementedError

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f at ``x``: the one-point case of ``full_gradients``."""
        return self.full_gradients(np.asarray(x)[None])[0]

    def gradient_bounds(self) -> tuple[float, float, float]:
        """(L_f, e0, e1): ||grad f(p) - grad f(q)|| <= L_f ||p - q||, and a ``full_gradients`` row at p
        is within E(p) = e0 + e1 ||p||_inf of grad f(p) in the 2-norm.  The default bounds no rounding,
        so the optimum solver takes every gradient pair.
        """
        return self.L, math.inf, 0.0

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
    """log(1 + exp(r.x)) + (alpha/2)||x||^2 per component, r = -b a the signed row of features a and label b."""

    def __init__(self, R: np.ndarray, alpha: float):
        if not 0 < alpha < math.inf:  # NaN or inf: the optimum solve would never converge
            raise ProblemError(f"regularizer alpha must be positive and finite, got {alpha}")
        if R.ndim != 3:
            raise ProblemError("expected signed rows of shape (M, N, d)")
        if 0 in R.shape[:2]:  # no row: L, the largest row norm, would be a maximum over nothing
            raise ProblemError(f"expected at least one client and one component, got signed rows of shape {R.shape}")
        self.M, self.N, self.d = R.shape
        self._R = np.ascontiguousarray(R, dtype=np.float64)
        self.alpha = float(alpha)
        row_sq = np.einsum("mnd,mnd->mn", self._R, self._R)
        self.L = float(row_sq.max() / 4.0 + alpha)
        self.mu = float(alpha)

    def component_loss(self, m, j, x):
        self._check_indices(m, j)
        return float(np.logaddexp(0.0, float(self._R[m, j] @ x)) + 0.5 * self.alpha * (x @ x))

    def component_gradients(self, m, x):
        self._check_indices(m)
        R = self._R[m]
        # one ddot per row, stacked: a gemv over the block rounds some rows differently
        G = _sigmoid((R[:, None, :] @ x[:, None])[:, 0, 0])[:, None] * R
        G += self.alpha * x  # in place: one N x d block at a time
        return G

    def client_gradients(self, x):
        return _loss_back(self._R, x[None]) / self.N + self.alpha * x

    def objective_value(self, x):
        reg = 0.5 * self.alpha * (x @ x)
        # one gemv per client and each row summed pairwise, as np.mean sums it
        means = np.add.reduce(np.logaddexp(0.0, np.matmul(self._R, x)), axis=1) / self.N
        return sum(mean + reg for mean in means.tolist()) / self.M

    def full_gradients(self, P):
        # every client's products at every point in one stacked pass, the client rows added in order from
        # zeros: np.add.reduce would sum them pairwise
        G = np.zeros((len(P), self.d))
        for g in _loss_back(self._R[:, None], P):
            G += g
        return G / (self.M * self.N) + self.alpha * P

    def gradient_bounds(self):
        """The logistic kernel's bounds; u = 2^-53 and g_n = n u / (1 - n u) (Higham 2002).

        L_f: grad^2 f <= R'R / (4MN) + alpha I, as 0 <= sigma' <= 1/4, for the clipped sigmoid too.
        The Gram's rounding is at most g_MN tr(R'R) in the 2-norm and eigvalsh is backward stable,
        so adding 2 (MN + d^2) u tr(R'R) covers lambda_max's error; L bounds the curvature too.

        E, in any summation order, component i, with t in [0, 1]: z = r.p errs by at most
        g_d ||r||_1 ||p||_inf, which moves t by a quarter of that, and the sigmoid adds at most 16 u
        (an exp within 7 ulps); the N-term back products add g_N, the M-term client sum g_M, the
        division by MN and the last sum u each, all times c_i / MN, c_i the sum of |r_i| over the MN
        rows; alpha p_i adds 2 u alpha |p_i|.  Then ||r||_1 <= sqrt(d max ||r||^2) and ||c|| / MN <=
        sqrt(tr / MN) (Cauchy-Schwarz).  Underflow adds at most 2^-1075 per product: d/4 of them
        through t, times c_i / MN, and 3 more.  The factor 2 covers the second-order terms and these
        constants' rounding while (d + N + M) u <= 1/100.
        """
        u, (M, N, d) = 2.0**-53, self._R.shape
        R = self._R.reshape(-1, d)
        gram = R.T @ R
        tr = float(np.trace(gram))
        lam = np.linalg.eigvalsh(gram)[-1] if math.isfinite(tr) else math.inf
        L_f = (lam + 2 * (M * N + d * d) * u * tr) / (4 * M * N) + self.alpha
        rms, a = math.sqrt(tr / (M * N)), math.sqrt(d * np.einsum("nd,nd->n", R, R).max())
        e0 = 2 * u * (N + M + 18) * rms + (d * rms / 4 + 3 * math.sqrt(d)) * 2.0**-1074
        return min(self.L, L_f), e0, 2 * u * (d * a * rms / 4 + 2 * self.alpha * math.sqrt(d))

    def cohort_pass(self, ms, x, gamma_step, order, bounds):
        self._check_clients(ms)
        # each step gathers its own (C, hi - lo) rows: a step is at most N rows, so at most C*N*d floats
        rows = np.asarray(ms)[:, None] * self.N + order
        R = self._R.reshape(-1, self.d)
        X = np.repeat(np.asarray(x, dtype=np.float64)[None, :], len(ms), axis=0)
        for lo, hi in bounds:
            X -= gamma_step * (_loss_back(R.take(rows[:, lo:hi], axis=0), X) / (hi - lo) + self.alpha * X)
        return X


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
        # Hc products, and the summed H and Hc that the full gradient and the analytic solve read
        self._Hc = np.einsum("mnij,mnj->mni", self._H, self._c)
        self._H_sum = self._H.sum(axis=(0, 1))
        self._Hc_sum = self._Hc.sum(axis=(0, 1))

    def component_loss(self, m, j, x):
        self._check_indices(m, j)
        r = x - self._c[m, j]
        return 0.5 * float(r @ self._H[m, j] @ r)

    def component_gradients(self, m, x):
        self._check_indices(m)
        return self._H[m] @ x - self._Hc[m]

    def client_gradients(self, x):
        # each client's summed Hessian times x is one gemv, bit-equal to ``H[m].sum(axis=0) @ x``
        return (np.matmul(self._H.sum(axis=1), x) - self._Hc.sum(axis=1)) / self.N

    def full_gradients(self, P):
        # numpy runs one gemv per point, each equal to ``H.sum(axis=(0, 1)) @ x`` bit for bit
        return (np.matmul(self._H_sum, P[:, :, None])[..., 0] - self._Hc_sum) / (self.M * self.N)

    def gradient_bounds(self):
        """L_f = ||H||_2 / MN for the summed H, with 2 d^2 u for the SVD's backward error.

        E: the d-term products of H p err by at most g_d |H| |p|, the subtraction of Hc and the
        division by MN by u each, all over MN, with underflow as in ``LogisticProblem``; the
        factor 2 covers the second-order terms.
        """
        u, d, MN = 2.0**-53, self.d, self.M * self.N
        rows = float(np.linalg.norm(np.abs(self._H_sum).sum(axis=1)))
        e0 = 4 * u * float(np.linalg.norm(self._Hc_sum)) / MN + (d / MN + 1) * math.sqrt(d) * 2.0**-1074
        return float(np.linalg.norm(self._H_sum, 2)) * (1 + 2 * d * d * u) / MN, e0, 2 * u * (d + 2) * rows / MN

    def objective_value(self, x):
        r = x - self._c
        q = (0.5 * (r[..., None, :] @ self._H @ r[..., None])[..., 0, 0]).tolist()
        # each r @ H @ r bit-equal to the per-component form, added over j and then m in the same order
        return sum(sum(losses) / self.N for losses in q) / self.M

    def cohort_pass(self, ms, x, gamma_step, order, bounds):
        self._check_clients(ms)
        ms = np.asarray(ms)
        # step p of all C clients is one (C, d, d) @ (C, d, 1) matmul, each
        # product bit-equal to the per-client ``H[m, j] @ x``
        H = self._H[ms, order.T]
        Hc = self._Hc[ms, order.T][..., None]
        X = np.empty((len(ms), self.d, 1))
        X[..., 0] = x
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
        return optimum_at(self, np.linalg.solve(self._H_sum, self._Hc_sum))


def optimum_at(problem: FederatedProblem, x: np.ndarray) -> Optimum:
    """The optimum record of ``x``: f(x) and ||grad f(x)|| both follow from x alone."""
    return Optimum(x_star=x, f_star=problem.objective_value(x), grad_norm=float(np.linalg.norm(problem.full_gradient(x))))


def logistic_problem(partition: np.ndarray, X: np.ndarray, labels: np.ndarray, alpha: float) -> LogisticProblem:
    """Build the regularized logistic problem on an (M, N) array of each client's rows of ``X`` and ``labels``."""
    if partition.size == 0:
        raise ProblemError("partition must assign at least one sample per client")
    if X.shape[1] == 0:
        raise ProblemError("a logistic problem needs at least one feature; the dataset lists none")
    b = labels[partition]
    bad = b[np.abs(b) != 1]
    if bad.size:
        raise ProblemError(f"logistic labels must be -1 or +1, got {bad[0]}")
    # one gather, signed in place: a factor of +-1 is exact, so every kernel keeps the unsigned form's bytes
    R = X[partition].astype(np.float64, copy=False)
    R *= -b[..., None]
    return LogisticProblem(R, alpha)


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

    Draw order of the seeded stream: client by client, the client's d center
    normals, then component by component its uniform eigenvalues (d - 2 of
    them besides mu and L; one scalar draw when d = 1), then its d*d rotation
    normals (none when d = 1) followed by its d offset normals.
    """
    if min(M, N, d) < 1:
        raise ProblemError(f"quadratic sizes must be at least 1, got M={M}, N={N}, d={d}")
    if not 0 < mu <= L < math.inf:
        raise ProblemError(f"spectrum bounds must satisfy 0 < mu <= L < inf, got mu={mu}, L={L}")
    if not math.isfinite(client_spread) or not math.isfinite(sample_spread):
        raise ProblemError(f"spreads must be finite, got client_spread={client_spread}, sample_spread={sample_spread}")
    rng = stream(seed, "quadratic_problem", M, N, d)
    k = d * d if d > 1 else 0  # rotation normals per component
    try:
        eigs = np.empty((M, N, d))
        client = np.empty((M, d))
        draws = np.empty((M, N, k + d))  # each component's rotation normals, then its offset normals
    except (MemoryError, ValueError):  # numpy raises ValueError for a size past its index range
        raise ProblemError(f"a quadratic of M={M}, N={N}, d={d} does not fit in memory") from None
    for m in range(M):
        rng.standard_normal(out=client[m])
        for j in range(N):
            if d == 1:
                eigs[m, j] = rng.uniform(mu, L)
            else:
                eigs[m, j, 2:] = rng.uniform(mu, L, size=d - 2)
            rng.standard_normal(out=draws[m, j])
    # the normals as ``rng.normal`` returns them: 0.0 + 1.0*z, which turns -0.0 into +0.0
    client += 0.0
    draws += 0.0
    centers = client[:, None] * client_spread + draws[..., k:] * sample_spread
    # one stacked QR and one stacked product, each matrix bit-equal to its own
    if d > 1:
        eigs[..., :2] = (mu, L)
        Q = np.linalg.qr(draws[..., :k].reshape(M, N, d, d))[0]
    else:
        Q = np.ones((M, N, 1, 1))
    H = (Q * eigs[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return QuadraticProblem(H, centers, mu=mu, L=L)


def solve_optimum(problem: FederatedProblem, tol: float, max_iter: int = 10_000_000) -> Optimum:
    """Drive ||grad f|| below ``tol`` with deterministic full-gradient descent.

    Plain 1/L steps for the first 1000 iterations, then Nesterov momentum for
    the strongly convex regime.  Each Nesterov iteration takes the gradient at
    the extrapolated point y, which the steps read.  The gradient at the new
    iterate x feeds only the stopping test, so it is taken, with y's in one
    ``full_gradients`` call, only when that test could pass.  With (L_f, e0,
    e1) from ``problem.gradient_bounds()`` and E(p) = e0 + e1 ||p||_inf, the
    computed gradients satisfy

        ||g(x)|| >= ||g(y)|| - L_f ||x - y|| - E(x) - E(y)

    (grad f's part: Nesterov, Introductory Lectures on Convex Optimization,
    2004), so g(x) is skipped when that bound exceeds ``tol``.  It is evaluated
    with a relative margin of 4 (d + 8) u on each side, u = 2^-53: a norm's
    rounding is at most (d + 2) u and the bound's own arithmetic a few u.  An
    absolute margin of sqrt(d) 2^-537 on each norm covers its squares'
    underflow.  The bound's arithmetic ignores numpy errors, and a bound that
    is not finite takes the pair.  The iterates never read g(x), and a
    one-point row has the pair's bytes, so x*, f* and the stopping iteration
    are those of taking every pair; the cap takes g(x) once for its message.
    Gradients are taken under the caller's numpy error state, so a
    floating-point error at a point whose gradient is taken warns or raises in
    the iteration that meets it.  Raises :class:`ProblemError` before the
    first iteration if kappa = L / mu overflows, and :class:`SolverError`
    with the last gradient norm if the cap is hit first, or at the first
    non-finite gradient.
    """
    if not 0 < tol < math.inf:  # a NaN tolerance would never be met, an infinite one by x = 0
        raise ProblemError(f"tolerance must be positive and finite, got {tol}")
    if problem.mu <= 0:
        raise ProblemError("optimum solver requires a strongly convex problem")
    L, mu = problem.L, problem.mu
    if math.isinf(L / mu):  # it would turn the momentum to NaN; a NaN kappa comes from NaN data, whose gradient fails
        raise ProblemError(f"the problem's kappa is {L / mu}, which the optimum solver cannot use")
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
    with np.errstate(all="ignore"):
        L_f, e0, e1 = problem.gradient_bounds()
    rho, h = 4 * (problem.d + 8) * 2.0**-53, math.sqrt(problem.d) * 2.0**-537
    y, g_y = x, g
    while it < max_iter:
        if g is not None and _converged(g, tol):
            return optimum_at(problem, x)
        x_next = y - step * g_y
        with np.errstate(all="ignore"):
            low = np.linalg.norm(g_y) * (1 - rho) - h - (1 + rho) * (
                L_f * (np.linalg.norm(x_next - y) + 2 * h) + 2 * e0 + e1 * (np.abs(x_next).max() + np.abs(y).max())
            )
            skip = tol + h < low * (1 - rho) < math.inf
        y, x = x_next + beta * (x_next - x), x_next
        if skip:
            g, g_y = None, problem.full_gradient(y)
        else:
            g, g_y = problem.full_gradients(np.stack((x, y)))
        it += 1
    if g is None:
        g = problem.full_gradient(x)
    raise SolverError(
        f"optimum solver hit the {max_iter}-iteration cap at grad norm {np.linalg.norm(g):.3e}",
        grad_norm=float(np.linalg.norm(g)),
    )


def _converged(g: np.ndarray, tol: float) -> bool:
    norm = float(np.linalg.norm(g))
    if not math.isfinite(norm):  # descent never comes back from NaN or inf
        raise SolverError(f"optimum solver met a non-finite gradient (norm {norm})", grad_norm=norm)
    return norm <= tol


def _loss_back(R, X):
    """``R.T @ t`` at each row x of X, t the logistic slopes at ``R @ x``, for each (n, d) block of the stack R
    as it broadcasts against X's rows: one block, one per row, one per client at one row, or (M, 1, n, d)."""
    # numpy runs one gemv per (block, row) in each stacked product, bit-equal to the one-point products
    t = _sigmoid(np.matmul(R, X[:, :, None])[..., 0])
    return np.matmul(t[..., None, :], R)[..., 0, :]


def _sigmoid(z):
    """Logistic function with arguments clipped to [-50, 50], one ``exp`` per element.

    ``min(z, -z)`` is -|z| but keeps the sign of a NaN, so NaN inputs come out
    with the same bits as in the clipped two-branch form.
    """
    e = np.exp(np.maximum(np.minimum(z, -z), -50))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
