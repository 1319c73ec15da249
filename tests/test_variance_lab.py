import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eager_reference import (
    brute_force_all_loop,
    brute_force_all_tensor,
    class_rows,
    enumerate_sequences_loop,
    exact_coefficients,
    exact_variances_loop,
    max_rel_error_loop,
    prefix_class_sums,
    prefix_gram_class_rows,
    prefix_gram_class_sums,
    prefix_gram_from_table,
    rel_error,
    rel_errors_loop,
    star_sequence_deviation,
    star_sequence_enumerated,
    subsets_per_entry,
    variance_inputs_loop,
)
from fedrr.cli import _COMMAND_PARSERS
from fedrr.dataset import partition, synthetic_libsvm_like
from fedrr.problem import logistic_problem, quadratic_problem, solve_optimum
from fedrr.rng import stream
from fedrr.theory import sigma_ds_upper
from fedrr.variance_lab import (
    ENUMERATION_GUARD,
    EnumerationTooLarge,
    VarianceInputs,
    _batch_layout,
    _closed_form_table,
    _enumerate_sequences,
    _exact_coefficients,
    _moment_layout,
    _moments,
    _prefix_errors,
    _prefix_gram,
    brute_force_all,
    closed_form_minibatch_variance,
    closed_form_variance,
    max_rel_errors,
    star_variances,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


def test_population_variances_match_definitions():
    z = stream(0, "vi").normal(size=(3, 4, 2))
    inp = VarianceInputs(z)
    grand = z.mean(axis=(0, 1))
    s2 = np.mean([np.sum((z[m, j] - grand) ** 2) for m in range(3) for j in range(4)])
    cm = z.mean(axis=1)
    st2 = np.mean([np.sum((cm[m] - grand) ** 2) for m in range(3)])
    assert inp.sigma2 == pytest.approx(s2, abs=1e-14)
    assert inp.sigma_tilde2 == pytest.approx(st2, abs=1e-14)


def test_hand_example_m1_n3():
    # samples {0,1,2}, k=1: population variance 2/3
    inp = VarianceInputs(np.array([[[0.0], [1.0], [2.0]]]))
    assert closed_form_variance(1, 1, 3, inp.sigma2, inp.sigma_tilde2) == pytest.approx(2 / 3)
    assert brute_force_all(inp)[0] == pytest.approx(2 / 3)


def test_two_level_scalar_example():
    # M=2, N=2, per-client values {0,0} and {1,1}: checked against enumeration
    inp = VarianceInputs(np.array([[[0.0], [0.0]], [[1.0], [1.0]]]))
    for k in range(1, 5):
        cf = closed_form_variance(k, 2, 2, inp.sigma2, inp.sigma_tilde2)
        assert abs(cf - brute_force_all(inp)[k - 1]) <= 1e-12


def test_full_average_is_deterministic():
    rng = stream(3, "fa")
    inp = VarianceInputs(rng.normal(size=(3, 2, 2)))
    assert abs(closed_form_variance(6, 3, 2, inp.sigma2, inp.sigma_tilde2)) <= 1e-12
    assert brute_force_all(inp)[5] <= 1e-24


def test_all_equal_inputs_zero_variance():
    inp = VarianceInputs(np.full((2, 3, 2), 1.5))
    for k in range(1, 7):
        assert brute_force_all(inp)[k - 1] <= 1e-28
        assert abs(closed_form_variance(k, 2, 3, inp.sigma2, inp.sigma_tilde2)) <= 1e-28


def test_single_data_point_per_client():
    # N=1 branch: sigma_tilde^2 (M-k)/(k(M-1))
    rng = stream(5, "n1")
    inp = VarianceInputs(rng.normal(size=(5, 1, 2)))
    for k in range(1, 6):
        cf = closed_form_variance(k, 5, 1, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, inp.sigma_tilde2 * (5 - k) / (k * 4)) <= 1e-14
        assert abs(cf - brute_force_all(inp)[k - 1]) <= 1e-12


def test_single_client_reduction():
    rng = stream(6, "m1")
    inp = VarianceInputs(rng.normal(size=(1, 5, 2)))
    for k in range(1, 6):
        cf = closed_form_variance(k, 1, 5, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, inp.sigma2 * (5 - k) / (k * 4)) <= 1e-14


def test_first_block_matches_display():
    # for k < N the variance equals (N-k)/(k(N-1)) s2 + N/(N-1) (1-1/k) st2
    rng = stream(7, "disp")
    M, N = 3, 4
    inp = VarianceInputs(rng.normal(size=(M, N, 2)))
    for k in range(1, N):
        display = (N - k) / (k * (N - 1)) * inp.sigma2 + N / (N - 1) * (1 - 1 / k) * inp.sigma_tilde2
        cf = closed_form_variance(k, M, N, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, display) <= 1e-12


def test_minibatch_reduces_to_plain_at_c1():
    rng = stream(8, "c1")
    inp = VarianceInputs(rng.normal(size=(3, 2, 2)))
    for k in range(1, 7):
        a = closed_form_minibatch_variance(k, 3, 2, 1, inp.sigma2, inp.sigma_tilde2)
        b = closed_form_variance(k, 3, 2, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(a, b) <= 1e-14


def test_minibatch_matches_enumeration():
    rng = stream(9, "mb")
    for M, N, C in [(4, 2, 2), (4, 3, 2), (6, 2, 3), (6, 2, 2)]:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        R = M // C
        for k in range(1, N * R + 1):
            cf = closed_form_minibatch_variance(k, M, N, C, inp.sigma2, inp.sigma_tilde2)
            bf = brute_force_all(inp, C)[k - 1]
            assert abs(cf - bf) <= 1e-10 * max(1.0, abs(bf))


def test_minibatch_full_average_zero():
    rng = stream(10, "mb0")
    inp = VarianceInputs(rng.normal(size=(4, 3, 2)))
    assert abs(closed_form_minibatch_variance(6, 4, 3, 2, inp.sigma2, inp.sigma_tilde2)) <= 1e-12


def test_minibatch_validation():
    with pytest.raises(ValueError):
        closed_form_minibatch_variance(1, 5, 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_minibatch_variance(7, 4, 3, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_variance(0, 2, 2, 1.0, 1.0)


def test_covariance_signs_in_enumeration():
    # cross-client sample covariance is -st2/(M-1); same-client distinct-
    # position covariance is (N*st2 - s2)/(N-1)
    rng = stream(11, "cov")
    for M, N in [(3, 2), (4, 2), (2, 3)]:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        seq = _enumerate_sequences(M, N, 1)[:, 0, :]
        flat = inp.zeta.reshape(M * N, -1) - inp.grand_mean
        vals = flat[seq]
        cross = np.mean(np.sum(vals[:, 0] * vals[:, N], axis=-1))
        assert rel_err(cross, -inp.sigma_tilde2 / (M - 1)) <= 1e-10
        within = np.mean(np.sum(vals[:, 0] * vals[:, 1], axis=-1))
        expected = (N * inp.sigma_tilde2 - inp.sigma2) / (N - 1)
        assert abs(within - expected) <= 1e-12


def test_upper_bound_dominates():
    rng = stream(12, "ub")
    for _ in range(20):
        M, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        bound = sigma_ds_upper(1.0, M, N, 1, inp.sigma_tilde2, inp.sigma2)
        for k in range(1, M * N + 1):
            assert k * k * closed_form_variance(k, M, N, inp.sigma2, inp.sigma_tilde2) <= bound + 1e-12


def test_enumeration_guard():
    with pytest.raises(EnumerationTooLarge):
        _enumerate_sequences(6, 6, 1)


# every (M, N, C) with M*N <= 8 and C dividing M: the verify-variance default
GEOMETRIES = [
    (M, N, C) for M in range(1, 9) for N in range(1, 9) if M * N <= 8 for C in range(1, M + 1) if M % C == 0
]


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_outcome_table_matches_loop(M, N, C):
    table = _enumerate_sequences(M, N, C)
    assert table.dtype == np.int64
    assert np.array_equal(table, enumerate_sequences_loop(M, N, C))


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_every_slot_of_the_outcome_table_is_uniform(M, N, C):
    # each (group, position) slot holds every sample in n_out/(M*N) outcomes, so every sample carries the
    # same mean weight in every prefix estimator: the estimators are unbiased for the grand mean
    table = _enumerate_sequences(M, N, C)
    n_out = len(table)
    assert n_out % (M * N) == 0
    slots = table.reshape(n_out, -1).T
    counts = np.stack([np.bincount(slot, minlength=M * N) for slot in slots])
    assert counts.shape == (N * M, M * N)
    assert np.all(counts == n_out // (M * N))


# a few larger geometries whose outcome tables the reference walks in a few seconds
LARGER_GEOMETRIES = [(3, 3, 1), (3, 3, 3), (2, 5, 2), (5, 2, 5), (9, 1, 3), (1, 9, 1)]


@pytest.mark.parametrize("M, N, C", GEOMETRIES + LARGER_GEOMETRIES)
def test_prefix_gram_matches_the_outcome_table_walk(M, N, C):
    gram, divisor = _prefix_gram(M, N, C)
    want, want_n = prefix_gram_from_table(M, N, C)
    assert divisor.tolist() == [float(want_n * C * (C * k * M * N) ** 2) for k in range(1, len(want) + 1)]
    assert gram.dtype == want.dtype and gram.shape == want.shape
    assert np.array_equal(gram, want) and gram.tobytes() == want.tobytes()


# every geometry whose outcome count the guard admits: M, N <= 10, as M!*N!^M passes 10^7 from M = 11 or N = 11 on
GUARD_ADMITTED = [
    (M, N, C)
    for M in range(1, 11)
    for N in range(1, 11)
    for C in range(1, M + 1)
    if M % C == 0 and math.factorial(M) * math.factorial(N) ** M <= ENUMERATION_GUARD
]


def test_prefix_gram_closed_form_matches_the_class_rows_bit_for_bit():
    # against one weight row per outcome class, and against C*n_outcomes/n_cls times each class sum
    assert len(GUARD_ADMITTED) == 71
    for M, N, C in GUARD_ADMITTED:
        gram, divisor = _prefix_gram(M, N, C)
        for want, want_divisor in (prefix_gram_class_rows(M, N, C), prefix_gram_class_sums(M, N, C)):
            assert gram.dtype == want.dtype and gram.shape == want.shape and gram.tobytes() == want.tobytes()
            assert divisor.dtype == want_divisor.dtype and divisor.tobytes() == want_divisor.tobytes()
        # rounding to float64 is monotone, so a float below 2**53 comes from an integer below 2**53, which converts
        # exactly: the closed form's integers need no more than the float's 53 bits
        assert np.all(gram == np.round(gram)) and np.abs(gram).max() < 2.0**53


@pytest.mark.parametrize("M, N", [(M, N) for M in range(1, 5) for N in range(1, 5)])
def test_class_rows_match_a_per_class_loop_byte_for_byte(M, N):
    # the Gram check above sums over the rows, blind to their order and to the tail clients star_sequence_deviation reads
    for C, j in itertools.product([C for C in range(1, M + 1) if M % C == 0], range(1, N + 1)):
        for s in range(0, M, C):
            combos = itertools.product(itertools.combinations(range(M), s), range(M), itertools.combinations(range(N), j))
            classes = [(S, t, T) for S, t, T in combos if t not in S]
            want = np.zeros((len(classes), M, N))
            for i, (S, t, T) in enumerate(classes):
                want[i, list(S)], want[i, t, list(T)] = 1.0, C
            Q, tail = class_rows(M, N, C, s, j)
            assert Q.dtype == want.dtype and Q.shape == (len(classes), M * N) and Q.tobytes() == want.tobytes()
            assert tail.tolist() == [t for _, t, _ in classes]


def test_prefix_gram_guard_is_checked_before_any_work():
    n_out = math.factorial(6) ** 7
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(EnumerationTooLarge, match=rf"^{n_out} outcomes exceed the enumeration guard$"):
            _prefix_gram(6, 6, 1)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 36 Gram matrices of (6, 6, 1) alone would take 373 KB
    assert elapsed < 0.5
    assert peak < 100_000


def test_guard_messages_print_counts_past_the_int_digit_limit():
    # 1800! has 5,080 digits and 20,000 * 2**19,999 has 6,025, past str's default limit of 4,300: such a count is
    # named to four digits. The stub problem has no oracles, so any read of it would fail
    for build, message in (
        (lambda: _prefix_gram(1, 1800, 1), "6.126e+5079 outcomes"),
        (lambda: _enumerate_sequences(1, 1800, 1), "6.126e+5079 outcomes"),
        (lambda: star_sequence_deviation(SimpleNamespace(M=1, N=20_000), np.zeros(1), 0.1, 1), "3.980e+6024 outcome classes"),
    ):
        with pytest.raises(EnumerationTooLarge) as exc:
            build()
        assert str(exc.value) == f"{message} exceed the enumeration guard"


def close_to_oracle(got, want, tol=1e-12):
    # relative where the oracle exceeds tol, absolute below it
    want = np.asarray(want)
    err = np.abs(np.asarray(got) - want)
    return bool(np.all(np.where(np.abs(want) > tol, err <= tol * np.abs(want), err <= tol)))


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_gram_oracle_matches_estimator_tensor(M, N, C):
    rng = stream(14, "gram", M, N, C)
    base = rng.normal(size=(M, N, 2))
    for zeta in (base, base * 1e-6, base * 1e6, rng.normal(size=(M, N, 2)) + 3.0):
        inp = VarianceInputs(zeta)
        assert close_to_oracle(brute_force_all(inp, C), brute_force_all_tensor(inp, C))
    inp = VarianceInputs(np.full((M, N, 2), 1.5))
    assert np.all(brute_force_all(inp, C) == 0.0)


def test_brute_force_all_is_the_exact_quadratic_form():
    # far from zero mean, so the centring before the Gram product is what keeps it accurate
    rng = stream(16, "exact")
    for M, N, C in GEOMETRIES:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)) + 1e3)
        gram = _prefix_gram(M, N, C)[0]
        n_out = math.factorial(M) * math.factorial(N) ** M
        flat = [[Fraction(float(v)) for v in col] for col in inp.zeta.reshape(M * N, 2).T]
        z = [[v - sum(col) / (M * N) for v in col] for col in flat]
        got = brute_force_all(inp, C)
        for k, g in enumerate(gram.astype(np.int64).tolist(), start=1):
            form = sum(gij * zc[i] * zc[j] for zc in z for i, row in enumerate(g) for j, gij in enumerate(row))
            exact = float(form / (n_out * C * (C * k * M * N) ** 2))
            assert abs(got[k - 1] - exact) <= 1e-14 * abs(exact) + 1e-300


def test_prefix_gram_is_exact_and_structured():
    for M, N, C in GEOMETRIES:
        gram, divisor = _prefix_gram(M, N, C)
        n_out = math.factorial(M) * math.factorial(N) ** M
        # every divisor is an integer below 2**53, so its float is exact whatever the order of the products
        assert divisor.dtype == np.float64 and not divisor.flags.writeable
        assert divisor.tolist() == [float(n_out * C * (C * k * M * N) ** 2) for k in range(1, N * M // C + 1)]
        assert divisor.max() < 2.0**53
        assert gram.shape == (N * M // C, M * N, M * N)
        assert np.all(gram == np.round(gram)) and np.abs(gram).max() < 2.0**53
        assert np.array_equal(gram, gram.transpose(0, 2, 1))
        assert np.all(gram.sum(axis=2) == 0.0)
        # the full average is the grand mean under every outcome
        assert np.all(gram[-1] == 0.0)
        assert not gram.flags.writeable


def exact_prefix_variances(zeta, C):
    """Every k-prefix variance of the integer inputs ``zeta`` (M lists of N ints), in Fractions from the class sums."""
    M, N = len(zeta), len(zeta[0])
    mean = Fraction(sum(map(sum, zeta)), M * N)
    z = [[v - mean for v in row] for row in zeta]
    diag = sum(v * v for row in z for v in row)
    # pairs inside one client, x = y included; over all pairs the centred products sum to 0
    inside = sum(sum(row) ** 2 for row in z)
    out = []
    for k, (n_cls, (cross, block, same)) in enumerate(prefix_class_sums(M, N, C), start=1):
        form = same * diag + block * (inside - diag) - cross * inside
        out.append(form / (n_cls * (C * k * M * N) ** 2))
    return out, diag / (M * N), inside / (N * N * M)


# the largest bound whose check takes about 3 s on a 2-core x86 VM; the counts need no guard, so this passes the
# enumeration guard's M, N <= 10
EXACT_IDENTITY_SIZE = 11


def test_closed_forms_are_the_exact_variance_in_rationals_past_the_guard():
    # both sides are linear in the centred inputs' diagonal and same-client sums, so two inputs with independent
    # sums prove the identity for a geometry, with no rounding and no BLAS kernel in either side
    rng = np.random.default_rng(19)
    checked = 0
    for M, N in itertools.product(range(1, EXACT_IDENTITY_SIZE + 1), repeat=2):
        for zeta in (rng.integers(-9, 10, size=(M, N)).tolist() for _ in range(2)):
            for C in (C for C in range(1, M + 1) if M % C == 0):
                exact, sigma2, sigma_tilde2 = exact_prefix_variances(zeta, C)
                args = Fraction(M), Fraction(N), Fraction(C), sigma2, sigma_tilde2
                got = [closed_form_minibatch_variance(Fraction(k), *args) for k in range(1, len(exact) + 1)]
                assert got == exact, (M, N, C)
                checked += len(exact)
    assert checked == 2 * 6_534  # prefix lengths of the 121 (M, N), each with every C dividing M


# every geometry with M*N up to this, in about 1 s on a 2-core x86 VM: far past the enumeration guard's M*N <= 16
COEFFICIENT_IDENTITY_SIZE = 40


def test_closed_form_coefficients_are_the_class_sums_coefficients_exactly():
    # the closed forms at (sigma2, sigma_tilde2) = (1, 0) and (0, 1) are their two coefficients, and these must be
    # the class sums' alpha_k and beta_k, with no tolerance and no random input. beta at M = 1 is not compared: one
    # client's sigma_tilde2 is 0, so no variance reads it. The checked rows' reduced alpha_k and beta_k, with their
    # N = 1 and M = 1 branches, must be the class sums' ratios too, beta at M = 1 included
    one, zero = Fraction(1), Fraction(0)
    checked = 0
    for M in range(1, COEFFICIENT_IDENTITY_SIZE + 1):
        for N in range(1, COEFFICIENT_IDENTITY_SIZE // M + 1):
            for C in (C for C in range(1, M + 1) if M % C == 0):
                pairs = zip(exact_coefficients(M, N, C), _exact_coefficients(M, N, C), strict=True)
                for k, ((alpha, beta), (a, b, den)) in enumerate(pairs, start=1):
                    assert closed_form_minibatch_variance(k, M, N, C, one, zero) == alpha, (M, N, C, k)
                    assert M == 1 or closed_form_minibatch_variance(k, M, N, C, zero, one) == beta, (M, N, C, k)
                    assert (Fraction(a, den), Fraction(b, den)) == (alpha, beta), (M, N, C, k)
                    checked += 1
    assert checked == 5_243


# every geometry with M*N up to this: 39,568 prefix lengths, in about 0.2 s on a 2-core x86 VM
TABLE_BYTES_SIZE = 100


def test_closed_form_table_coefficients_are_the_class_sums_ratios_rounded_once():
    # Python's int / int and float(Fraction) both round a rational correctly, so the table's two exact-side rows must
    # have the bytes of the class sums' ratios
    checked = 0
    for M in range(1, TABLE_BYTES_SIZE + 1):
        for N in range(1, TABLE_BYTES_SIZE // M + 1):
            for C in (C for C in range(1, M + 1) if M % C == 0):
                want = np.array([[float(a), float(b)] for a, b in exact_coefficients(M, N, C)]).T
                assert _closed_form_table(M, N, C)[11:].tobytes() == want.tobytes(), (M, N, C)
                checked += want.shape[1]
    assert checked == 39_568


def test_criterion_03_sigma2_side_is_exactly_tight_at_two_samples_a_client():
    # k^2 * Var_k <= sigma_ds_upper(1, M, N, 1, sigma_tilde2, sigma2) is criterion 03's first check. Its sigma2 side
    # is an equality at N = 2, k = 1: k^2 * alpha_k = N/2, for every M, so the check's printed slack of 0.0 is exact
    for M in range(1, 21):
        k2_alpha = [k * k * Fraction(a, den) for k, (a, _, den) in enumerate(_exact_coefficients(M, 2, 1), start=1)]
        assert k2_alpha[0] == max(k2_alpha) == Fraction(2, 2)
        assert closed_form_variance(1, M, 2, Fraction(1), Fraction(0)) == 1
        assert _closed_form_table(M, 2, 1)[11, 0] == sigma_ds_upper(1.0, M, 2, 1, 0.0, 1.0) == 1.0


def test_checked_rows_coefficients_are_the_gram_integers_rounded_once():
    # the exact side of every checked row is alpha_k * sigma2 + beta_k * sigma_tilde2, with the two coefficients read
    # off the exact integers of _prefix_gram's G[k-1] (x = y, x and y inside one client, across two) over its divisor,
    # each rounded once, with no tolerance. A Gram has no pair inside one client at N = 1, where sum ||z||^2 and
    # sum_m ||sum_j z_mj||^2 are one sum and it fixes alpha_k + beta_k, and none across clients at M = 1, where
    # sigma_tilde2 is 0 and it fixes alpha_k alone
    checked = 0
    for M, N, C in GUARD_ADMITTED:
        gram, divisor = _prefix_gram(M, N, C)
        MN = M * N
        rows = zip(gram.astype(np.int64).tolist(), map(int, divisor.tolist()), exact_coefficients(M, N, C))
        for (alpha, beta), (g, div, (a, b)) in zip(_closed_form_table(M, N, C)[11:].T.tolist(), rows):
            assert (alpha, beta) == (float(a), float(b)), (M, N, C)
            diag, block, across = g[0][0], g[0][1] if N > 1 else None, g[0][N] if M > 1 else None
            if N > 1:
                assert a == Fraction((diag - block) * MN, div)
            if N > 1 and M > 1:
                assert b == Fraction((block - across) * M * N * N, div)
            if N == 1 and M > 1:
                assert a + b == Fraction((diag - across) * MN, div)
            checked += 1
    assert checked == sum(N * M // C for M, N, C in GUARD_ADMITTED)


def test_gram_forms_agree_with_the_checked_rows_exact_side_at_the_default_tolerance():
    # the Gram form of brute_force_all and the checked rows' alpha_k * sigma2 + beta_k * sigma_tilde2 are one exact
    # variance rounded two ways: on random inputs at every geometry with M*N <= 10 they agree under verify-variance's
    # error rule at its default --tol
    tol = _COMMAND_PARSERS["verify-variance"].get_default("tol")
    rng = stream(47, "gram_agreement")
    geometries = [(M, N, C) for M, N, C in GUARD_ADMITTED if M * N <= 10]
    assert len(geometries) == 53
    for M, N, C in geometries:
        for _ in range(5):
            inp = VarianceInputs(rng.normal(size=(M, N, 2)))
            table = _closed_form_table(M, N, C)
            exact = table[11] * inp.sigma2 + table[12] * inp.sigma_tilde2
            assert bits(exact) == bits(exact_variances_loop(inp, C))
            errors = [rel_error(g, e) for g, e in zip(brute_force_all(inp, C).tolist(), exact.tolist())]
            assert max(errors) <= tol, (M, N, C)


def class_row_count(M, N, C):
    """The outcome classes of every prefix length of (M, N, C), one ``class_rows`` row each."""
    counts = [(C * (k // N), k % N) for k in range(1, N * (M // C) + 1)]
    return sum(math.comb(M, s) * ((M - s) * math.comb(N, j) if j else 1) for s, j in counts)


# every geometry past the guard, with M, N <= 11 as above, whose prefix lengths have at most 10^5 class rows in all
CLASS_ROWS_PAST_THE_GUARD = [
    (M, N, C)
    for M, N in itertools.product(range(1, EXACT_IDENTITY_SIZE + 1), repeat=2)
    for C in range(1, M + 1)
    if M % C == 0 and math.factorial(M) * math.factorial(N) ** M > ENUMERATION_GUARD and class_row_count(M, N, C) <= 10**5
]


def test_prefix_class_sums_are_the_class_rows_past_the_guard():
    # the counts behind the identity above: each prefix length's class count and three class sums, against the sum of
    # D D^T over one class_rows row per class, with no n_out factor. |D| <= M*N*C, so every partial sum of the products
    # is an integer below 2**53 and float64's D^T D is the exact integer sum, whatever order BLAS adds in
    assert len(CLASS_ROWS_PAST_THE_GUARD) == 191
    checked = 0
    for M, N, C in CLASS_ROWS_PAST_THE_GUARD:
        MN = M * N
        kind = (np.arange(MN)[:, None] // N == np.arange(MN) // N) + np.eye(MN, dtype=np.intp)  # across, inside, x = y
        for k, (n_cls, sums) in enumerate(prefix_class_sums(M, N, C), start=1):
            s, j = C * (k // N), k % N
            Q = np.repeat(subsets_per_entry(M, s), N, axis=1) if j == 0 else class_rows(M, N, C, s, j)[0]
            assert len(Q) == n_cls and n_cls * (MN * C) ** 2 < 2**53
            D = MN * Q - C * k
            assert np.array_equal((D.T @ D).astype(np.int64), np.array(sums, dtype=np.int64)[kind]), (M, N, C, k)
            checked += 1
    assert checked == 2_952


def test_closed_forms_keep_a_zero_at_an_infinite_variance():
    # the one-sample geometry has no spread whatever the inputs: 0.0, where 0 * inf would be NaN
    assert closed_form_variance(1, 1, 1, math.inf, math.inf) == 0.0
    assert closed_form_minibatch_variance(1, 1, 1, 1, math.inf, math.inf) == 0.0


@given(
    M=st.integers(1, 8),
    N=st.integers(1, 8),
    d=st.integers(1, 69),
    log_scale=st.floats(-6, 6),
    offset=st.booleans(),
    constant=st.booleans(),
    c_pick=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(M=3, N=1, d=5, log_scale=0.0, offset=False, constant=False, c_pick=2, seed=1)
@example(M=4, N=2, d=69, log_scale=6.0, offset=True, constant=True, c_pick=1, seed=2)
@example(M=1, N=8, d=1, log_scale=-6.0, offset=True, constant=False, c_pick=0, seed=3)
def test_moments_and_enumeration_form_match_their_loops_byte_for_byte(M, N, d, log_scale, offset, constant, c_pick, seed):
    rng = stream(seed, "moment_bytes")
    zeta = np.full((M, N, d), rng.normal()) if constant else rng.normal(size=(M, N, d))
    zeta = zeta * 10.0**log_scale + (1e3 if offset else 0.0)
    inp = VarianceInputs(zeta)
    grand_mean, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
    assert inp.grand_mean.tobytes() == grand_mean.tobytes()
    assert np.float64(inp.sigma2).tobytes() == np.float64(sigma2).tobytes()
    assert np.float64(inp.sigma_tilde2).tobytes() == np.float64(sigma_tilde2).tobytes()
    if math.factorial(M) * math.factorial(N) ** M <= ENUMERATION_GUARD:
        divisors = [C for C in range(1, M + 1) if M % C == 0]
        C = divisors[c_pick % len(divisors)]
        assert brute_force_all(inp, C).tobytes() == brute_force_all_loop(inp, C).tobytes()


def moments_of(stacks, cached=False):
    """``_moments`` of (K, M, N, d) stacks of inputs: a batch of one run per stack, and one block of all their samples.

    The moment layout is built afresh, as ``VarianceInputs`` builds it, or taken from ``_batch_layout`` if ``cached``.
    """
    d = stacks[0].shape[-1]
    runs = tuple((M, N, 1, K) for K, M, N, _ in (z.shape for z in stacks))
    layout = _batch_layout(runs, d)[0] if cached else _moment_layout(runs, d)
    return _moments(layout, np.concatenate([z.reshape(-1, d) for z in stacks]))


def test_stacked_moments_match_each_inputs_and_the_loop_byte_for_byte():
    # one pass over a (K, M, N, d) stack gives every input the bytes of its own VarianceInputs and of the loop
    # oracle; d = 1 makes the grand and client means sums over a contiguous axis, which numpy may add pairwise
    rng = stream(23, "stacked_moments")
    for K, M, N, d in itertools.product(range(1, 5), range(1, 12), range(1, 12), range(1, 6)):
        zetas = rng.normal(size=(K, M, N, d)) * 10.0 ** rng.uniform(-3, 3) + rng.choice([0.0, 1e3])
        grand_means, centred, sigma2s, sigma_tilde2s = moments_of([zetas])
        assert len(grand_means) == len(sigma2s) == len(sigma_tilde2s) == K and centred.shape == (K * M * N, d)
        for i, zeta in enumerate(zetas):
            one = VarianceInputs(zeta.copy())
            grand_mean, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
            assert (one.M, one.N, one.d) == (M, N, d)
            assert one.zeta.tobytes() == zeta.tobytes()
            assert grand_means[i].tobytes() == one.grand_mean.tobytes() == grand_mean.tobytes()
            assert centred[i * M * N : (i + 1) * M * N].tobytes() == one.centred.tobytes()
            for got in ((sigma2s[i], sigma_tilde2s[i]), (one.sigma2, one.sigma_tilde2)):
                assert np.float64(got[0]).tobytes() == np.float64(sigma2).tobytes()
                assert np.float64(got[1]).tobytes() == np.float64(sigma_tilde2).tobytes()


def test_padded_moments_refuse_mixed_shapes_of_one_dimension():
    # at d = 1 numpy adds the summed axis pairwise, in a grouping that zero padding would move
    with pytest.raises(ValueError, match="must share one"):
        moments_of([np.zeros((1, 2, 3, 1)), np.zeros((1, 3, 2, 1))])
    moments_of([np.zeros((1, 2, 3, 1)), np.ones((2, 2, 3, 1))])


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_padded_moments_of_mixed_shapes_match_the_loop_byte_for_byte():
    # stacks of every (M, N) up to 11 and 1-4 inputs each, padded together: each input keeps its own bytes
    rng = stream(37, "padded_moments")
    for _ in range(300):
        d = int(rng.integers(2, 4))
        stacks = [
            rng.normal(size=(int(rng.integers(1, 5)), *rng.integers(1, 12, size=2), d)) * 10.0 ** rng.uniform(-3, 3)
            + rng.choice([0.0, 1e3])
            for _ in range(int(rng.integers(1, 7)))
        ]
        grand_means, centred, sigma2s, sigma_tilde2s = moments_of(stacks)
        rows = iter(centred)  # every input's M*N centred rows, input after input
        for i, zeta in enumerate(zeta for stack in stacks for zeta in stack):
            M, N, _ = zeta.shape
            grand_mean, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
            assert grand_means[i].tobytes() == grand_mean.tobytes()
            assert np.array(list(itertools.islice(rows, M * N))).tobytes() == (zeta.reshape(M * N, d) - grand_mean).tobytes()
            assert bits([sigma2s[i], sigma_tilde2s[i]]) == bits([sigma2, sigma_tilde2])


def test_moments_from_rebuilt_layouts_match_the_loop_byte_for_byte():
    # more batch shapes than the batch layout cache holds, cycled twice: the second pass finds every layout evicted and
    # builds it again, and both passes give every input the loop's bytes. The shapes are those verify-variance checks,
    # the guard's; a d = 1 batch shares one (M, N)
    rng = stream(39, "moment_layouts")
    pairs = sorted({(M, N) for M, N, _ in GUARD_ADMITTED})
    batches = []
    for i in range(12):
        d, (M, N) = (1, 2, 3)[i % 3], pairs[rng.integers(len(pairs))]
        shapes = [(M, N) if d == 1 else pairs[rng.integers(len(pairs))] for _ in range(int(rng.integers(1, 5)))]
        batches.append([
            rng.normal(size=(int(rng.integers(1, 4)), *shape, d)) * 10.0 ** rng.uniform(-3, 3) + rng.choice([0.0, 1e3])
            for shape in shapes
        ])
    assert len({tuple(z.shape for z in stacks) for stacks in batches}) == 12 > _batch_layout.cache_info().maxsize
    _batch_layout.cache_clear()
    for _ in range(2):
        for stacks in batches:
            grand_means, centred, sigma2s, sigma_tilde2s = moments_of(stacks, cached=True)
            rows = iter(centred)
            for i, zeta in enumerate(zeta for stack in stacks for zeta in stack):
                M, N, d = zeta.shape
                grand_mean, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
                assert grand_means[i].tobytes() == grand_mean.tobytes()
                assert np.array(list(itertools.islice(rows, M * N))).tobytes() == (zeta.reshape(M * N, d) - grand_mean).tobytes()
                assert bits([sigma2s[i], sigma_tilde2s[i]]) == bits([sigma2, sigma_tilde2])
    assert _batch_layout.cache_info()[:2] == (0, 24)  # no hits, and every layout built twice


@pytest.mark.parametrize("M, N", [(1, 11), (11, 1), (4, 5)])
def test_variance_inputs_past_the_guard_leave_the_cached_layouts_alone(M, N):
    # VarianceInputs builds its one-input moment layout afresh: it evicts no batch layout and never reaches the Grams,
    # which refuse these geometries
    zeta = stream(41, "uncached_inputs").normal(size=(M, N, 2))
    cached = _batch_layout.cache_info(), _prefix_gram.cache_info()
    inp = VarianceInputs(zeta)
    assert (_batch_layout.cache_info(), _prefix_gram.cache_info()) == cached
    grand_mean, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
    assert inp.grand_mean.tobytes() == grand_mean.tobytes()
    assert inp.centred.tobytes() == (zeta.reshape(M * N, 2) - grand_mean).tobytes()
    assert bits([inp.sigma2, inp.sigma_tilde2]) == bits([sigma2, sigma_tilde2])


def arrays_in(value):
    """Every numpy array in ``value``, a cached layout of arrays, ints and nested tuples or lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def test_cached_layouts_refuse_writes():
    # every batch of the same runs shares their cached layout, so none of its arrays may be written, and its check-line
    # heads are a tuple, which no caller can change either
    moments, errors, heads = _batch_layout(((3, 2, 1, 2), (3, 2, 3, 1), (1, 4, 1, 1)), 2)
    arrays = [*arrays_in(moments), *arrays_in(errors)]
    assert len(arrays) == 7 + 5
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1
    assert type(heads) is tuple
    assert heads == ("M=3 N=2 C=1: max rel error ",) * 2 + ("M=3 N=2 C=3: max rel error ", "M=1 N=4 C=1: max rel error ")


def test_cached_moments_refuse_mixed_shapes_of_one_dimension():
    # a cached layout of one d = 1 shape does not admit another shape beside it, and a refusal is never cached
    one_shape = [np.zeros((1, 2, 3, 1)), np.ones((2, 2, 3, 1))]
    _batch_layout.cache_clear()
    moments_of(one_shape, cached=True)
    moments_of(one_shape, cached=True)
    for _ in range(2):
        with pytest.raises(ValueError, match="must share one"):
            moments_of([*one_shape, np.zeros((1, 3, 2, 1))], cached=True)
        with pytest.raises(ValueError, match="must share one"):
            _batch_layout(((2, 3, 1, 1), (3, 2, 1, 1)), 1)
    info = _batch_layout.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 1)  # each refusal is built afresh, and none is kept


def test_batched_checks_match_the_per_input_oracles_byte_for_byte():
    # mixed batches as verify-variance builds them: every C of each drawn (M, N), 1-4 inputs a C, with N = 1 and
    # M = 1 geometries among them. The oracles take each input alone, from the loop's moments: no padding, no batch
    rng = stream(38, "batched_checks")
    pairs = sorted({(M, N) for M, N, _ in GUARD_ADMITTED})
    assert (1, 10) in pairs and (10, 1) in pairs and (1, 1) in pairs
    rows_checked = 0
    for _ in range(200):
        chunks = []
        for M, N in (pairs[i] for i in rng.integers(len(pairs), size=int(rng.integers(1, 7)))):
            for C in (C for C in range(1, M + 1) if M % C == 0):
                size = (int(rng.integers(1, 5)), M, N, 2)
                chunks.append((M, N, C, rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3) + rng.choice([0.0, 1e3])))
        runs = tuple((M, N, C, len(zetas)) for M, N, C, zetas in chunks)
        block = np.concatenate([zetas.reshape(-1, 2) for *_, zetas in chunks])
        moment_layout, error_layout, heads = _batch_layout(runs, 2)
        _, _, sigma2s, sigma_tilde2s = _moments(moment_layout, block)
        starts, exact, closed, errors = _prefix_errors(error_layout, sigma2s, sigma_tilde2s)
        checked_heads, maxima = max_rel_errors(runs, block)
        assert checked_heads == heads
        i = 0
        for M, N, C, zetas in chunks:
            for zeta in zetas:
                _, sigma2, sigma_tilde2 = variance_inputs_loop(zeta)
                assert bits([sigma2s[i], sigma_tilde2s[i]]) == bits([sigma2, sigma_tilde2])
                oracle = SimpleNamespace(M=M, N=N, sigma2=sigma2, sigma_tilde2=sigma_tilde2)
                rows = slice(starts[i], starts[i] + N * M // C)
                assert bits(exact[rows]) == bits(exact_variances_loop(oracle, C))
                want = [closed_form_minibatch_variance(k, M, N, C, sigma2, sigma_tilde2) for k in range(1, N * M // C + 1)]
                assert bits(closed[rows]) == bits(want)
                assert bits(errors[rows]) == bits(rel_errors_loop(oracle, C))
                assert bits(maxima[i]) == bits(max_rel_error_loop(oracle, C))
                assert heads[i] == f"M={M} N={N} C={C}: max rel error "
                rows_checked += N * M // C
                i += 1
        assert i == len(maxima) == len(starts) == len(heads)
    assert rows_checked > 15_000


def table_closed_form(M, N, C, k, sigma2, sigma_tilde2):
    """``closed_form_minibatch_variance`` from ``_closed_form_table``'s column for k, evaluated in Python floats."""
    w1, a1, b1, c1, e1, w2, a2, b2, c2, e2, cross = _closed_form_table(M, N, C)[:11, k - 1].tolist()
    s = sigma_tilde2 if N == 1 else sigma2

    def variance(a, b, c, e):
        return s * a / b if M == 1 or N == 1 else c * sigma2 + e * sigma_tilde2

    return 0.0 + w1 * variance(a1, b1, c1, e1) + w2 * variance(a2, b2, c2, e2) - cross * sigma_tilde2


def test_closed_form_table_is_the_scalar_closed_form():
    # every prefix length of every (M, N, C) with M, N <= 11; the table's weights come from Python's pow, as the
    # scalar's do, and numpy's x*x would round some of them otherwise
    rng = stream(39, "table")
    checked = 0
    for M, N in itertools.product(range(1, 12), repeat=2):
        for C in (C for C in range(1, M + 1) if M % C == 0):
            table = _closed_form_table(M, N, C)
            assert table.shape == (13, N * M // C)
            for sigma2, sigma_tilde2 in [(1.0, 1.0), (0.0, 0.0), *(10.0 ** rng.uniform(-3, 3, size=2) for _ in range(3))]:
                sigma2, sigma_tilde2 = float(sigma2), float(sigma_tilde2)
                for k in range(1, N * M // C + 1):
                    got = table_closed_form(M, N, C, k, sigma2, sigma_tilde2)
                    assert bits(got) == bits(closed_form_minibatch_variance(k, M, N, C, sigma2, sigma_tilde2)), (M, N, C, k)
                    checked += 1
    assert checked == 5 * 6_534


def test_closed_forms_are_exact_for_integer_counts_and_fraction_variances():
    # only the variances need be Fractions: the integer geometry's ratios are taken exactly too
    sigma2, sigma_tilde2 = Fraction(1, 3), Fraction(1, 5)
    for M, N in itertools.product(range(1, 9), repeat=2):
        for k in range(1, M * N + 1):
            got = closed_form_variance(k, M, N, sigma2, sigma_tilde2)
            want = closed_form_variance(Fraction(k), Fraction(M), Fraction(N), sigma2, sigma_tilde2)
            assert type(got) is Fraction and got == want, (M, N, k)
        for C in (C for C in range(1, M + 1) if M % C == 0):
            for k in range(1, N * M // C + 1):
                got = closed_form_minibatch_variance(k, M, N, C, sigma2, sigma_tilde2)
                want = closed_form_minibatch_variance(Fraction(k), Fraction(M), Fraction(N), Fraction(C), sigma2, sigma_tilde2)
                assert type(got) is Fraction and got == want, (M, N, C, k)


def test_enumeration_argument_checks():
    inp = VarianceInputs(stream(15, "div").normal(size=(4, 2, 1)))
    with pytest.raises(ValueError, match="does not divide"):
        brute_force_all(inp, 3)


def test_report_serializes():
    inp = VarianceInputs(stream(13, "rep").normal(size=(2, 2, 1)))
    assert max_rel_error_loop(inp, C=1) <= 1e-10


def test_star_sequence_zero_gradients():
    problem = quadratic_problem(2, 2, 2, mu=1.0, L=2.0, client_spread=0.0, sample_spread=0.0, seed=0)
    opt = problem.analytic_optimum()
    stats = star_sequence_deviation(problem, opt.x_star, gamma=0.1, C=1)
    assert stats.max_mean_sq_dev <= 1e-24
    assert stats.max_sigma_ds <= 1e-12


def test_star_sequence_scales_as_gamma_squared():
    problem = quadratic_problem(4, 3, 2, mu=1.0, L=3.0, client_spread=1.0, sample_spread=0.5, seed=1)
    opt = problem.analytic_optimum()
    a = star_sequence_deviation(problem, opt.x_star, gamma=0.01, C=2)
    b = star_sequence_deviation(problem, opt.x_star, gamma=0.02, C=2)
    ratio = b.mean_sq_dev / np.maximum(a.mean_sq_dev, 1e-300)
    assert np.allclose(ratio, 4.0, rtol=1e-9)


def _star_problems():
    X, labels = synthetic_libsvm_like(count=9, dim=4, seed=2, nnz_per_row=3)
    logistic = logistic_problem(partition(9, 3, 6), X, labels, 5e-2)
    x_star = solve_optimum(logistic, 1e-12).x_star
    for C in (1, 3):
        yield pytest.param(logistic, x_star, C, id=f"logistic-3x3-C={C}")
    for M, N, C in ((2, 2, 1), (4, 2, 2), (3, 3, 1), (2, 3, 1), (3, 2, 3), (4, 2, 1)):
        quad = quadratic_problem(M, N, 2, mu=1.0, L=5.0, client_spread=1.0, sample_spread=0.5, seed=M * N + C)
        yield pytest.param(quad, quad.analytic_optimum().x_star, C, id=f"quadratic-{M}x{N}-C={C}")


@pytest.mark.parametrize("problem, x_star, C", list(_star_problems()))
def test_star_sequence_matches_the_outcome_walk(problem, x_star, C):
    # the class means must equal the walk over every outcome, up to rounding
    for gamma in (0.01, 0.3 / problem.L):
        got = star_sequence_deviation(problem, x_star, gamma, C)
        want = star_sequence_enumerated(problem, x_star, gamma, C)
        assert got.mean_sq_dev.shape == want.mean_sq_dev.shape == (problem.M // C, problem.N)
        assert np.abs(got.mean_sq_dev - want.mean_sq_dev).max() <= 1e-12 * want.max_mean_sq_dev
        assert abs(got.max_sigma_ds - want.max_sigma_ds) <= 1e-12 * abs(want.max_sigma_ds)


def test_star_sequence_rejects_a_cohort_size_not_dividing_the_clients():
    with pytest.raises(ValueError, match="^C must divide M$"):
        star_sequence_deviation(quadratic_problem(3, 2, 2), np.zeros(2), 0.1, 2)


def test_star_sequence_guard_raises_before_reading_the_problem():
    # 1,024 (S, t) pairs times 20 * 2**19 (T, l) pairs; the stub has no oracles, so any read would fail
    with pytest.raises(EnumerationTooLarge) as exc:
        star_sequence_deviation(SimpleNamespace(M=8, N=20), np.zeros(1), 0.1, 1)
    assert str(exc.value) == "10737418240 outcome classes exceed the enumeration guard"
