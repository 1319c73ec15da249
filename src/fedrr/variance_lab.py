"""Without-replacement sample variances: closed forms and enumeration oracles.

The closed-form expressions below describe the variance of prefix averages
under the two-level shuffle (a random client order crossed with independent
per-client data orders), including the grouped variant where C parallel
groups each run their own two-level shuffle.  Every formula is checked
against the exact variance over all permutation outcomes, which is the
ground truth the tests trust; generic in their number type, the closed forms
are exact for ``Fraction`` variances, with int or ``Fraction`` counts.  That
variance comes from integer Gram matrices of the prefix estimators' weights,
three integers each from binomial counts of the outcome classes (see
``_prefix_gram``), checked bit for bit against a walk over every outcome of
``_enumerate_sequences``.

Enumeration note: the grouped cross-covariance term carries coefficient
2*k_N*(k - k_N) / (k^2 * (M - 1)); a variant with an extra 1/C factor does
not match enumeration (the two coincide at C = 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .problem import FederatedProblem

ENUMERATION_GUARD = 10_000_000


class EnumerationTooLarge(ValueError):
    pass


def _check_guard(count: int, what: str) -> None:
    """Raise ``EnumerationTooLarge`` past the guard; a count too long for ``str`` is named to four digits."""
    if count > ENUMERATION_GUARD:
        try:
            text = str(count)
        except ValueError:
            text = f"{Decimal(count):.3e}"
        raise EnumerationTooLarge(f"{text} {what} exceed the enumeration guard")


@dataclass
class VarianceInputs:
    """Fixed vectors zeta[m, j] with their population means and variances;
    ``centred`` holds the M*N samples less the grand mean, one row each."""

    zeta: np.ndarray  # (M, N, d)

    def __post_init__(self):
        _set_moments([self], np.asarray(self.zeta, dtype=np.float64)[None])

    @classmethod
    def stacked(cls, zetas: np.ndarray) -> list[VarianceInputs]:
        """One input per (M, N, d) block of a float64 (K, M, N, d) stack, all K moments taken in one pass."""
        inputs = [cls.__new__(cls) for _ in range(len(zetas))]
        _set_moments(inputs, zetas)
        return inputs


def _set_moments(inputs: list[VarianceInputs], z: np.ndarray) -> None:
    """Give each input its zeta, shape, grand mean, centred rows and variances from the (K, M, N, d) stack ``z``."""
    K, M, N, d = z.shape
    grand_mean = z.sum(axis=(1, 2)) / (M * N)
    centred = z.reshape(K, M * N, d) - grand_mean[:, None]
    cm = z.sum(axis=2) / N - grand_mean[:, None]
    # compensated sums of row dots, each the ddot of ``row @ row``: these feed exact-identity tests
    rows = (centred[..., None, :] @ centred[..., None]).reshape(K, M * N).tolist()
    clients = (cm[..., None, :] @ cm[..., None]).reshape(K, M).tolist()
    for inp, zeta, mean, c, row_dots, client_dots in zip(inputs, z, grand_mean, centred, rows, clients):
        inp.zeta, inp.grand_mean, inp.centred = zeta, mean, c
        inp.M, inp.N, inp.d = M, N, d
        inp.sigma2 = math.fsum(row_dots) / (M * N)
        inp.sigma_tilde2 = math.fsum(client_dots) / M


def star_variances(problem: FederatedProblem, x_star: np.ndarray) -> tuple[float, float]:
    """Component-level and client-level gradient variance at the optimum.

    Returns (sigma_star^2, sigma_tilde_star^2) where the first averages
    squared component-gradient norms over all M*N components and the second
    averages squared client-gradient norms over the M clients.
    """
    # one client's N x d block at a time, never all M*N gradients at once
    comp = itertools.chain.from_iterable(_sq_norms(problem.component_gradients(m, x_star)) for m in range(problem.M))
    cli = _sq_norms(problem.client_gradients(x_star))
    return math.fsum(comp) / (problem.M * problem.N), math.fsum(cli) / problem.M


def _sq_norms(G: np.ndarray) -> list[float]:
    """``np.linalg.norm(g) ** 2`` of each row g of ``G``, bit for bit: the row's ddot, its sqrt, then the square."""
    return (np.sqrt((G[:, None, :] @ G[:, :, None]).ravel()) ** 2).tolist()


def closed_form_variance(k: int, M: int, N: int, sigma2: float, sigma_tilde2: float) -> float:
    """Variance of the k-sample prefix average under the two-level shuffle."""
    if not 1 <= k <= M * N:
        raise ValueError(f"k={k} out of range [1, {M * N}]")
    if type(sigma2) is type(sigma_tilde2) is Fraction:
        k, M, N = Fraction(k), Fraction(M), Fraction(N)  # exact ratios of the counts; floats divide as before
    if N == 1:
        if M == 1:
            return type(sigma2)()  # zero in the inputs' number type, 0.0 for floats even at an infinite sigma
        return sigma_tilde2 * (M - k) / (k * (M - 1))
    if M == 1:
        return sigma2 * (N - k) / (k * (N - 1))
    m_k, j_k = divmod(k, N)
    data_term = j_k * (N - j_k) / (k * k * (N - 1)) * sigma2
    coef = (
        (m_k * N * N + j_k * j_k) * (M * N - 1) / (k * k * (N - 1) * (M - 1))
        - N / (k * (N - 1))
        - 1 / (M - 1)
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
    if type(sigma2) is type(sigma_tilde2) is Fraction:
        k, M, N = Fraction(k), Fraction(M), Fraction(N)  # exact ratios of the counts; floats divide as before
    k_N = (k // N) * N
    out = type(sigma2)()
    if k_N > 0:
        out += (k_N / k) ** 2 * closed_form_variance(k_N * C, M, N, sigma2, sigma_tilde2)
    if k > k_N:
        out += ((k - k_N) / k) ** 2 * closed_form_variance(k - k_N, M, N, sigma2, sigma_tilde2)
    if M > 1:
        out -= 2 * k_N * (k - k_N) / (k * k * (M - 1)) * sigma_tilde2
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
    _check_guard(n_client * n_data, "outcomes")
    client_perms = np.array(list(itertools.permutations(range(M))), dtype=np.int64)
    data_perms = np.array(list(itertools.permutations(range(N))), dtype=np.int64)
    # combos[c, m]: which data permutation client m uses in combination c
    combos = np.stack(np.unravel_index(np.arange(n_data), (len(data_perms),) * M), axis=1)
    # orders[c, m]: client m's flat sample indices in processing order
    orders = np.arange(M)[:, None] * N + data_perms[combos]
    out = orders[np.arange(n_data)[None, :, None], client_perms[:, None, :]]
    return out.reshape(n_client * n_data, C, N * (M // C))


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if n >= 0 and k >= 0 else 0


@lru_cache(maxsize=64)
def _prefix_gram(M: int, N: int, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact second moments of the prefix estimators' weights over every outcome.

    The k-sample estimator of group g is Q.zeta / (C*k) for an integer
    weight vector Q over the M*N samples: each sample in the first k_N
    positions of any group counts once, each of group g's own samples at
    positions k_N..k counts C times (k_N = floor(k/N)*N, j = k - k_N).  Its
    deviation from the grand mean is D.zeta / (C*k*M*N) with D = M*N*Q - C*k,
    and the entries of D sum to zero.  Returns read-only (G, divisor): G[k-1]
    is the sum of D D^T over all (outcome, group) pairs and divisor[k-1] =
    n_outcomes*C*(C*k*M*N)^2 is their count times the squared scale.

    D depends only on the outcome class of ``_prefix_class_sums``.  The
    classes are equally likely and relabelling the clients, or one client's
    samples, permutes them, so G[k-1] holds three integers, C*n_outcomes/n_cls
    times each class sum, below 2**53 under the guard: G is exact.
    """
    if M % C != 0:
        raise ValueError(f"group count {C} does not divide client count {M}")
    n_out = math.factorial(M) * math.factorial(N) ** M
    _check_guard(n_out, "outcomes")
    MN = M * N
    values = [[C * n_out // n_cls * q for q in sums] for n_cls, sums in _prefix_class_sums(M, N, C)]
    same_client = np.arange(MN)[:, None] // N == np.arange(MN) // N
    gram = np.take(np.array(values, dtype=np.float64), same_client + np.eye(MN, dtype=np.intp), axis=1)
    scale = C * np.arange(1.0, len(gram) + 1) * MN
    divisor = n_out * C * scale * scale
    gram.setflags(write=False)
    divisor.setflags(write=False)
    return gram, divisor


def _prefix_class_sums(M: int, N: int, C: int):
    """Yield n_cls and ``_prefix_gram``'s class sums of D_x*D_y (across two clients, inside one, x = y) for each k.

    Python integers for any (M, N, C), with no guard.  A class is the set S of the s = C*k_N/N clients in completed
    rows and, when j > 0, the tail client t outside S and the j-subset T of its samples; n_S classes put x's client in
    S and n_T put x in T, q1 and q are the class sums of Q_x and Q_x*Q_y, and a sum is (M*N)^2*q + base.
    """
    MN = M * N
    for k in range(1, N * (M // C) + 1):
        s, j, Ck = C * (k // N), k % N, C * k
        spread = (M - s) * _binom(N, j) if j else 1
        n_S, n_T = _binom(M - 1, s - 1) * spread, _binom(M - 1, s) * _binom(N - 1, j - 1)
        n_cls, q1 = _binom(M, s) * spread, n_S + C * n_T
        q_cross = _binom(M - 2, s - 2) * spread + 2 * C * _binom(M - 2, s - 1) * _binom(N - 1, j - 1)
        q_block, q_diag = n_S + C * C * _binom(M - 1, s) * _binom(N - 2, j - 2), n_S + C * C * n_T
        base = n_cls * Ck * Ck - 2 * MN * Ck * q1
        yield n_cls, (MN * MN * q_cross + base, MN * MN * q_block + base, MN * MN * q_diag + base)


def brute_force_all(inputs: VarianceInputs, C: int = 1) -> np.ndarray:
    """Exact prefix-average variances for every k, one product with the cached Gram per prefix length."""
    gram, divisor = _prefix_gram(inputs.M, inputs.N, C)
    z = inputs.centred
    return np.add.reduce(z * (gram @ z), axis=(1, 2)) / divisor


def max_rel_error(inputs: VarianceInputs, C: int = 1) -> float:
    """Largest closed-form error over every prefix length: relative where enumeration gives over 1e-12, else absolute."""
    errors = []
    for k, b in enumerate(brute_force_all(inputs, C).tolist(), start=1):
        c = closed_form_minibatch_variance(k, inputs.M, inputs.N, C, inputs.sigma2, inputs.sigma_tilde2)
        errors.append(abs(c - b) / (abs(b) if abs(b) > 1e-12 else 1.0))
    return max(errors)
