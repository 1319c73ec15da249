"""Without-replacement sample variances: closed forms and enumeration oracles.

The closed-form expressions below describe the variance of prefix averages
under the two-level shuffle (a random client order crossed with independent
per-client data orders), including the grouped variant where C parallel
groups each run their own two-level shuffle.  Every formula is checked
against exhaustive enumeration over all permutations, which is the ground
truth the tests trust.

Enumeration note: the grouped cross-covariance term carries coefficient
2*k_N*(k - k_N) / (k^2 * (M - 1)); a variant with an extra 1/C factor does
not match enumeration (the two coincide at C = 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .problem import FederatedProblem
from .rng import stream
from .shuffling import fisher_yates

ENUMERATION_GUARD = 10_000_000


class EnumerationTooLarge(ValueError):
    pass


@dataclass
class VarianceInputs:
    """Fixed vectors zeta[m, j] with their population means and variances."""

    zeta: np.ndarray  # (M, N, d)

    def __post_init__(self):
        z = self.zeta = np.asarray(self.zeta, dtype=np.float64)
        self.M, self.N, self.d = z.shape
        self.grand_mean = z.mean(axis=(0, 1))
        self.client_means = z.mean(axis=1)
        # compensated sums: these feed exact-identity tests
        self.sigma2 = math.fsum(
            float((z[m, j] - self.grand_mean) @ (z[m, j] - self.grand_mean))
            for m in range(self.M)
            for j in range(self.N)
        ) / (self.M * self.N)
        self.sigma_tilde2 = math.fsum(
            float((self.client_means[m] - self.grand_mean) @ (self.client_means[m] - self.grand_mean))
            for m in range(self.M)
        ) / self.M


def star_variances(problem: FederatedProblem, x_star: np.ndarray) -> tuple[float, float]:
    """Component-level and client-level gradient variance at the optimum.

    Returns (sigma_star^2, sigma_tilde_star^2) where the first averages
    squared component-gradient norms over all M*N components and the second
    averages squared client-gradient norms over the M clients.
    """
    comp = math.fsum(
        float(np.linalg.norm(g) ** 2)
        for m in range(problem.M)
        for g in problem.component_gradients(m, x_star)
    ) / (problem.M * problem.N)
    cli = math.fsum(
        float(np.linalg.norm(problem.client_gradient(m, x_star)) ** 2) for m in range(problem.M)
    ) / problem.M
    return comp, cli


def closed_form_variance(k: int, M: int, N: int, sigma2: float, sigma_tilde2: float) -> float:
    """Variance of the k-sample prefix average under the two-level shuffle."""
    if not 1 <= k <= M * N:
        raise ValueError(f"k={k} out of range [1, {M * N}]")
    if N == 1:
        if M == 1:
            return 0.0
        return sigma_tilde2 * (M - k) / (k * (M - 1))
    if M == 1:
        return sigma2 * (N - k) / (k * (N - 1))
    m_k, j_k = divmod(k, N)
    data_term = j_k * (N - j_k) / (k * k * (N - 1)) * sigma2
    coef = (
        (m_k * N * N + j_k * j_k) * (M * N - 1) / (k * k * (N - 1) * (M - 1))
        - N / (k * (N - 1))
        - 1.0 / (M - 1)
    )
    return data_term + coef * sigma_tilde2


def closed_form_minibatch_variance(
    k: int, M: int, N: int, C: int, sigma2: float, sigma_tilde2: float
) -> float:
    """Prefix-average variance for C parallel groups of M/C clients each.

    Position k in [1, N*M/C] contributes C samples per completed row (one per
    group) plus a partial tail from a single group.
    """
    if M % C != 0:
        raise ValueError(f"group count {C} does not divide client count {M}")
    R = M // C
    if not 1 <= k <= N * R:
        raise ValueError(f"k={k} out of range [1, {N * R}]")
    k_N = (k // N) * N
    out = 0.0
    if k_N > 0:
        out += (k_N / k) ** 2 * closed_form_variance(k_N * C, M, N, sigma2, sigma_tilde2)
    if k > k_N:
        out += ((k - k_N) / k) ** 2 * closed_form_variance(k - k_N, M, N, sigma2, sigma_tilde2)
    if M > 1:
        out -= 2.0 * k_N * (k - k_N) / (k * k * (M - 1)) * sigma_tilde2
    return out


def _enumerate_sequences(M: int, N: int, C: int) -> np.ndarray:
    """All equally likely grouped shuffle outcomes as flat sample indices.

    Shape (n_outcomes, C, N*M/C); entry [o, p, i] is the flattened (client*N
    + data) index of the sample processed at position i by group p.  A
    uniform client permutation chunked into C blocks yields the uniform
    group assignment and uniform within-group orders simultaneously.
    Outcomes run over client permutations, then over per-client data
    permutation combinations, both in ``itertools`` order.
    """
    n_client = math.factorial(M)
    n_data = math.factorial(N) ** M
    if n_client * n_data > ENUMERATION_GUARD:
        raise EnumerationTooLarge(f"{n_client * n_data} outcomes exceed the enumeration guard")
    client_perms = np.array(list(itertools.permutations(range(M))), dtype=np.int64)
    data_perms = np.array(list(itertools.permutations(range(N))), dtype=np.int64)
    # combos[c, m]: which data permutation client m uses in combination c
    combos = np.stack(np.unravel_index(np.arange(n_data), (len(data_perms),) * M), axis=1)
    # orders[c, m]: client m's flat sample indices in processing order
    orders = np.arange(M)[:, None] * N + data_perms[combos]
    out = orders[np.arange(n_data)[None, :, None], client_perms[:, None, :]]
    return out.reshape(n_client * n_data, C, N * (M // C))


_GRAM_CHUNK = 4096  # outcomes per block of the Gram accumulation


@lru_cache(maxsize=64)
def _prefix_gram(M: int, N: int, C: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact moments of the prefix estimators' weights over every outcome.

    The k-sample estimator of group g is Q.zeta / (C*k) for an integer
    weight vector Q over the M*N samples: each sample in the first k_N
    positions of any group counts once, each of group g's own samples at
    positions k_N..k counts C times (k_N = floor(k/N)*N).  Its deviation
    from the grand mean is D.zeta / (C*k*M*N) with D = M*N*Q - C*k, and the
    entries of D sum to zero.  Returns (G, S1, n_outcomes): G[k-1] is the
    sum of D D^T and S1[k-1] the sum of D over all (outcome, group) pairs.
    Every partial sum is an integer below 2**53, so both are exact.
    """
    if M % C != 0:
        raise ValueError(f"group count {C} does not divide client count {M}")
    seq = _enumerate_sequences(M, N, C)
    n_out, _, NR = seq.shape
    MN = M * N
    gram = np.zeros((NR, MN, MN))
    first = np.zeros((NR, MN))
    for lo in range(0, n_out, _GRAM_CHUNK):
        block = seq[lo : lo + _GRAM_CHUNK]
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
            first[k - 1] += dev.sum(axis=0)
    gram.setflags(write=False)
    first.setflags(write=False)
    return gram, first, n_out


def _centred(inputs: VarianceInputs) -> np.ndarray:
    return inputs.zeta.reshape(inputs.M * inputs.N, inputs.d) - inputs.grand_mean


def brute_force_all(inputs: VarianceInputs, C: int = 1) -> np.ndarray:
    """Exact prefix-average variances for every k in one enumeration pass."""
    gram, _, n_out = _prefix_gram(inputs.M, inputs.N, C)
    z = _centred(inputs)
    scale = C * np.arange(1.0, len(gram) + 1) * (inputs.M * inputs.N)
    return np.sum(z * (gram @ z), axis=(1, 2)) / (n_out * C * scale * scale)


def brute_force_expectation(inputs: VarianceInputs, k: int, C: int = 1) -> np.ndarray:
    """Mean of the k-sample prefix estimator over all outcomes (should equal the grand mean)."""
    _, first, n_out = _prefix_gram(inputs.M, inputs.N, C)
    if not 1 <= k <= len(first):
        raise ValueError(f"k={k} out of range [1, {len(first)}]")
    return inputs.grand_mean + first[k - 1] @ _centred(inputs) / (n_out * C * C * k * inputs.M * inputs.N)


def max_rel_error(inputs: VarianceInputs, C: int = 1) -> float:
    """Largest closed-form error over every prefix length: relative where enumeration gives over 1e-12, else absolute."""
    errors = []
    for k, b in enumerate(brute_force_all(inputs, C).tolist(), start=1):
        c = closed_form_minibatch_variance(k, inputs.M, inputs.N, C, inputs.sigma2, inputs.sigma_tilde2)
        errors.append(abs(c - b) / (abs(b) if abs(b) > 1e-12 else 1.0))
    return max(errors)


@dataclass
class StarSequenceStats:
    """Monte-Carlo deviation statistics of the optimum-anchored sequence."""

    mean_sq_dev: np.ndarray  # (R, N) mean ||x - x*||^2 after local step j+1 in round r
    max_mean_sq_dev: float
    max_sigma_ds: float  # max over slots of mean Bregman divergence / gamma^2


def star_sequence_deviation(
    problem: FederatedProblem,
    x_star: np.ndarray,
    gamma: float,
    C: int,
    n_draws: int = 200,
    seed: int = 0,
) -> StarSequenceStats:
    """Simulate the fictitious sequence started at the optimum.

    Local steps use gradients frozen at x*; rounds end with a cohort average.
    Cohorts and permutations are redrawn per draw; returned statistics are
    per-(round, local step) means over draws.  Each component's gradient and
    loss at x* are read once, so a step makes one ``component_loss`` call.
    """
    M, N = problem.M, problem.N
    if M % C != 0:
        raise ValueError("C must divide M")
    R = M // C
    star_grads = np.array([problem.component_gradients(m, x_star) for m in range(M)])
    star_losses = [[problem.component_loss(m, j, x_star) for j in range(N)] for m in range(M)]
    sq = np.zeros((R, N))
    breg = np.zeros((R, N))
    for draw in range(n_draws):
        rng = stream(seed, "star_sequence", draw)
        client_perm = fisher_yates(M, rng)
        perms = [fisher_yates(N, rng) for _ in range(M)]
        x_round = x_star.copy()
        for r in range(R):
            cohort = client_perm[r * C : (r + 1) * C]
            endpoints = []
            for m in cohort.tolist():
                x = x_round.copy()
                for j, comp in enumerate(perms[m].tolist()):
                    g = star_grads[m, comp]
                    x = x - gamma * g
                    delta = x - x_star
                    sq[r, j] += float(delta @ delta)
                    # the Bregman divergence of component (m, comp) from x* to x
                    loss = problem.component_loss(m, comp, x)
                    breg[r, j] += float(loss - star_losses[m][comp] - g @ delta)
                endpoints.append(x)
            x_round = np.mean(endpoints, axis=0)
    sq /= n_draws * C
    breg /= n_draws * C
    max_sigma_ds = float(breg.max() / (gamma * gamma)) if gamma > 0 else 0.0
    return StarSequenceStats(
        mean_sq_dev=sq,
        max_mean_sq_dev=float(sq.max()),
        max_sigma_ds=max_sigma_ds,
    )
