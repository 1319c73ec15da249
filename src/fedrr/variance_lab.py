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
``_enumerate_sequences``.  The same integers make it alpha_k * sigma2 +
beta_k * sigma_tilde2 (see ``_closed_form_table``).  Only the two oracles,
``_enumerate_sequences`` and ``_prefix_gram`` (so ``brute_force_all``), keep
``ENUMERATION_GUARD``: past it they raise ``EnumerationTooLarge`` before any
work.  The closed forms, the class sums and ``max_rel_errors`` take any size.

``max_rel_errors`` checks a batch of inputs of mixed geometries in a fixed
number of numpy passes.  A batch is a tuple of (M, N, C, count) runs of
inputs and one block of their samples, one input after another, as one
``standard_normal`` draw lays them out: ``_moments`` reads every input's
moments from that block in place, through zero-padded stacks, and
``_prefix_errors`` every (input, k) row's exact variance and closed form
from its ``_closed_form_table`` column, with no Gram.  All that a batch
needs but its samples is cached per runs tuple (``_batch_layout``), so a
repeated batch pays only for its arithmetic, about 190 bytes a row at its
peak.  Each input gets the bytes of its own ``VarianceInputs`` and
``closed_form_minibatch_variance``.

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
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # star_variances' annotation alone; verify-variance runs without the problem module
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
        self.zeta = np.asarray(self.zeta, dtype=np.float64)
        self.M, self.N, self.d = self.zeta.shape
        layout = _moment_layout(((self.M, self.N, 1, 1),), self.d)
        (self.grand_mean,), self.centred, (self.sigma2,), (self.sigma_tilde2,) = _moments(layout, self.zeta)


def _moments(layout, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """Grand means, centred (M*N, d) rows, input after input, and (sigma2, sigma_tilde2) of every input of a batch.

    ``block`` holds the (M, N, d) samples of the inputs that ``layout``, a ``_moment_layout``, lays out, one after
    another; it is read in place.  Every input's rows are zero-padded into one (K, max M*N, d) stack and every
    client's samples into one (clients, max N, d) stack, each summed in one pass.  numpy adds a strided axis one row
    at a time, so a padded zero leaves every sum as it was, and each input gets the bytes of a stack of its own; with
    the summed axis outermost in memory it adds whole slabs, row after row.  At d = 1 the summed axis of a C-ordered
    stack is contiguous, and numpy adds it pairwise in a grouping that padding would move: such inputs keep C order
    and must share one (M, N).
    """
    d = block.shape[-1]
    row_input, row, client, j, client_input, MN, N, row_runs, client_runs, (K, height, clients, width) = layout
    if d > 1:  # the summed axis outermost in memory
        z3, z4 = np.zeros((height, K, d)).transpose(1, 0, 2), np.zeros((width, clients, d)).transpose(1, 0, 2)
    else:
        z3, z4 = np.zeros((K, height, d)), np.zeros((clients, width, d))
    data = block.reshape(-1, d)
    z3[row_input, row] = z4[client, j] = data
    grand_mean = z3.sum(axis=1) / MN
    centred = data - grand_mean[row_input]  # an input's real centred rows are its samples less its grand mean
    cm = z4.sum(axis=1) / N - grand_mean[client_input]
    # compensated sums of row dots, each the ddot of ``row @ row``: these feed exact-identity tests
    row_dots, client_dots = (iter((v[:, None, :] @ v[:, :, None]).ravel().tolist()) for v in (centred, cm))
    sigma2 = [math.fsum(itertools.islice(row_dots, n)) / n for n in row_runs]
    sigma_tilde2 = [math.fsum(itertools.islice(client_dots, m)) / m for m in client_runs]
    return grand_mean, centred, sigma2, sigma_tilde2


@lru_cache(maxsize=8)
def _batch_layout(runs: tuple[tuple[int, int, int, int], ...], d: int):
    """The moment and error layouts of these (M, N, C, count) runs of inputs, and each input's check line to its error."""
    heads = tuple(head for M, N, C, count in runs for head in [f"M={M} N={N} C={C}: max rel error "] * count)
    return _moment_layout(runs, d), _error_layout(runs), heads


def _moment_layout(runs: tuple[tuple[int, int, int, int], ...], d: int):
    """All that ``_moments`` needs of a batch of these (M, N, C, count) runs of d-dimensional inputs but its samples.

    Returns every sample's input, its row in that input, its client among all inputs' and its place in that client;
    every client's input; the divisors M*N per input and N per client, shaped to broadcast; the ``math.fsum`` run
    lengths M*N and M per input; and the sizes K, max M*N, clients and max N of the padded stacks.
    """
    if d == 1 and len({run[:2] for run in runs}) > 1:
        raise ValueError("inputs of one dimension must share one (M, N)")
    M, N = (np.repeat([run[i] for run in runs], [run[3] for run in runs]) for i in (0, 1))
    MN = M * N
    row_input, client_input = np.repeat(np.arange(len(M)), MN), np.repeat(np.arange(len(M)), M)
    row = np.arange(len(row_input)) - np.repeat(np.cumsum(MN) - MN, MN)
    client = np.repeat(np.arange(len(client_input)), N[client_input])
    layout = (row_input, row, client, row % N[row_input], client_input, MN[:, None], N[client_input][:, None])
    for array in layout:
        array.setflags(write=False)  # cached in the batch layout, and shared by every call with these runs
    sizes = (len(M), int(MN.max()), len(client_input), int(N.max()))
    return (*layout, tuple(MN.tolist()), tuple(M.tolist()), sizes)


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


def _variance_coefficients(k, M: int, N: int):
    """``closed_form_variance``'s (a, b, c, e) at k samples, in the counts' number type.

    The variance is ``s * a / b`` when N = 1 or M = 1 (s is sigma_tilde2 or sigma2), else ``c * sigma2 + e *
    sigma_tilde2``.  Unused ones, and all four at k = 0, are 0 over 1: every branch evaluates on every k unwarned.
    """
    if k == 0 or M == N == 1:
        return 0, 1, 0, 0
    if M == 1 or N == 1:
        return M * N - k, k * (M * N - 1), 0, 0
    m_k, j_k = divmod(k, N)
    coef = (m_k * N * N + j_k * j_k) * (M * N - 1) / (k * k * (N - 1) * (M - 1)) - N / (k * (N - 1)) - 1 / (M - 1)
    return 0, 1, j_k * (N - j_k) / (k * k * (N - 1)), coef


def _minibatch_terms(k, M: int, N: int, C: int):
    """``closed_form_minibatch_variance``'s full-row weight and sample count, its tail's, and its cross factor.

    The weights are squared by Python's ``**`` (libm's ``pow``), which rounds some ratios otherwise than ``x*x``.
    """
    k_N = (k // N) * N
    cross = 2 * k_N * (k - k_N) / (k * k * (M - 1)) if M > 1 else 0
    return (k_N / k) ** 2, k_N * C, ((k - k_N) / k) ** 2, k - k_N, cross


def closed_form_variance(k: int, M: int, N: int, sigma2: float, sigma_tilde2: float) -> float:
    """Variance of the k-sample prefix average under the two-level shuffle."""
    if not 1 <= k <= M * N:
        raise ValueError(f"k={k} out of range [1, {M * N}]")
    if type(sigma2) is type(sigma_tilde2) is Fraction:
        k, M, N = Fraction(k), Fraction(M), Fraction(N)  # exact ratios of the counts; floats divide as before
    if M == N == 1:
        return type(sigma2)()  # zero in the inputs' number type, 0.0 for floats even at an infinite sigma
    a, b, c, e = _variance_coefficients(k, M, N)
    if M == 1 or N == 1:
        return (sigma_tilde2 if N == 1 else sigma2) * a / b
    return c * sigma2 + e * sigma_tilde2


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
    w1, k1, w2, k2, cross = _minibatch_terms(k, M, N, C)
    out = type(sigma2)()
    if k1 > 0:
        out += w1 * closed_form_variance(k1, M, N, sigma2, sigma_tilde2)
    if k2 > 0:
        out += w2 * closed_form_variance(k2, M, N, sigma2, sigma_tilde2)
    if M > 1:
        out -= cross * sigma_tilde2
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


def _closed_form_table(M: int, N: int, C: int) -> np.ndarray:
    """Every float coefficient of a checked row, one column per k: ``closed_form_minibatch_variance``'s full-row term's
    weight and ``_variance_coefficients``, its tail term's, and its cross factor, all from ``_minibatch_terms``; then the
    exact variance's alpha_k and beta_k, each a ratio of ``_prefix_class_sums``' integers rounded once by ``/``: a
    centred input's Gram form is (diag - block) * sum ||z||^2 + (block - across) * sum_m ||sum_j z_mj||^2.
    """
    MN = M * N
    rows = []
    for k, (n_cls, (across, block, diag)) in enumerate(_prefix_class_sums(M, N, C), start=1):
        w1, k1, w2, k2, cross = _minibatch_terms(k, M, N, C)
        scale = n_cls * (C * k * MN) ** 2
        alpha, beta = (diag - block) * MN / scale, (block - across) * MN * N / scale
        rows.append((w1, *_variance_coefficients(k1, M, N), w2, *_variance_coefficients(k2, M, N), cross, alpha, beta))
    return np.array(rows, dtype=np.float64).T


def _error_layout(runs: tuple[tuple[int, int, int, int], ...]):
    """All that ``_prefix_errors`` needs of a batch but its inputs, one row per (input, k), input by input.

    Returns every input's first row; and every row's input, ``_closed_form_table`` column and two branch flags (N = 1
    or M = 1, and N = 1 alone).
    """
    lengths = [N * (M // C) for M, N, C, _ in runs]
    counts = [n for *_, n in runs]
    per_input = np.repeat(lengths, counts)
    starts = np.cumsum(per_input) - per_input
    row_input = np.repeat(np.arange(len(per_input)), per_input)
    k = np.arange(len(row_input)) - starts[row_input]  # k - 1
    run_rows = np.multiply(lengths, counts)  # a run's value repeats over its rows
    table_row = np.repeat(np.cumsum(lengths) - lengths, run_rows) + k
    coefficients = np.concatenate([_closed_form_table(M, N, C) for M, N, C, _ in runs], axis=1)[:, table_row]
    ratio = np.repeat([M == 1 or N == 1 for M, N, _, _ in runs], run_rows)
    tilde = np.repeat([N == 1 for _, N, _, _ in runs], run_rows)
    for array in (starts, row_input, coefficients, ratio, tilde):
        array.setflags(write=False)  # cached in the batch layout, and shared by every call with these runs
    return starts, row_input, coefficients, ratio, tilde


def _prefix_errors(layout, sigma2, sigma_tilde2) -> tuple[np.ndarray, ...]:
    """Every input's first row, and every (input, k) row's exact variance, closed form and error, input by input.

    ``layout`` is the ``_error_layout`` of the runs whose moments ``sigma2`` and ``sigma_tilde2`` list in order.  Both
    sides evaluate every row's ``_closed_form_table`` column at once: the exact side as alpha_k * sigma2 + beta_k *
    sigma_tilde2, the closed form from the coefficients the scalar functions read, in their order of operations.  An
    absent term adds a zero to a sum that is never -0.0, so for finite variances the closed forms have the bytes of
    ``closed_form_minibatch_variance``, input by input.
    """
    starts, row_input, coefficients, ratio, tilde = layout
    s2, st2 = np.asarray(sigma2)[row_input], np.asarray(sigma_tilde2)[row_input]
    s = np.where(tilde, st2, s2)
    w1, a1, b1, c1, e1, w2, a2, b2, c2, e2, cross, alpha, beta = coefficients

    def variance(a, b, c, e):  # closed_form_variance: s * (M - k) / (k * (M - 1)) at N = 1, and alike at M = 1
        return np.where(ratio, s * a / b, c * s2 + e * st2)

    exact = alpha * s2 + beta * st2
    closed = 0.0 + w1 * variance(a1, b1, c1, e1) + w2 * variance(a2, b2, c2, e2) - cross * st2
    scale = np.abs(exact)
    return starts, exact, closed, np.abs(closed - exact) / np.where(scale > 1e-12, scale, 1.0)


def max_rel_errors(runs, block: np.ndarray) -> tuple[tuple[str, ...], list[float]]:
    """Every input's check-line head, and its largest closed-form error: relative where enumeration gives over 1e-12.

    ``runs`` lists (M, N, C, count) runs of inputs, and ``block`` holds their (M, N, d) samples one input after another,
    as one ``standard_normal`` draw lays them out.  The moments of all inputs are taken in one pass and their errors in
    another, so a whole verify-variance batch costs a fixed number of numpy calls however many geometries it holds.
    """
    moment_layout, error_layout, heads = _batch_layout(runs, block.shape[-1])
    starts, *_, errors = _prefix_errors(error_layout, *_moments(moment_layout, block)[2:])
    return heads, np.maximum.reduceat(errors, starts).tolist()
