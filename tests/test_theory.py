import itertools
import math

import numpy as np
import pytest

from fedrr.optimizer import StepSizes
from fedrr.problem import quadratic_problem
from fedrr.theory import (
    THM1,
    THM2,
    THM3,
    RegimeParams,
    bound_rhs,
    sigma_cs_upper,
    sigma_ds_upper,
    theoretical_steps,
)
from fedrr.variance_lab import star_variances


def rp(regime, L=1.0, mu=1.0, M=6, N=2, C=2, s2=0.0, st2=0.0, d0=0.0):
    return RegimeParams(
        regime=regime, L=L, mu=mu, M=M, N=N, C=C,
        sigma_star2=s2, sigma_tilde_star2=st2, dist0_sq=d0,
    )


def test_steps_thm1_plugin():
    # L=1, N=2, R=3 -> gamma=1, eta=2, theta=6
    steps = theoretical_steps(rp(THM1, M=6, N=2, C=2))
    assert (steps.gamma, steps.eta, steps.theta) == (1.0, 2.0, 6.0)


def test_steps_thm2_plugin():
    # L=1, kappa=1e4, N=10 -> gamma = 1/(8*10*100) = 1.25e-4, eta = 0.25
    steps = theoretical_steps(rp(THM2, L=1.0, mu=1e-4, M=4, N=10, C=2))
    assert steps.eta == pytest.approx(0.25)
    assert steps.gamma == pytest.approx(1.25e-4)


def test_steps_thm3_plugin():
    # L=1, R=4, N=5 -> theta=1/16, eta=1/64, gamma=1/320
    steps = theoretical_steps(rp(THM3, M=8, N=5, C=2))
    assert steps.theta == pytest.approx(1 / 16)
    assert steps.eta == pytest.approx(1 / 64)
    assert steps.gamma == pytest.approx(1 / 320)


def test_steps_satisfy_regime_constraints():
    for regime in (THM1, THM2, THM3):
        p = rp(regime, L=3.0, mu=0.1, M=12, N=7, C=3)
        s = theoretical_steps(p)
        if regime == THM1:
            assert s.gamma <= 1 / p.L
            assert s.eta == s.gamma * p.N and s.theta == s.eta * p.R
        elif regime == THM2:
            assert s.eta <= 1 / (4 * p.L)
            assert s.gamma <= 1 / (8 * p.N * p.L * math.sqrt(p.kappa))
        else:
            assert s.gamma * p.N * p.R <= s.eta * p.R <= s.theta <= 1 / (16 * p.L)


def test_sigma_upper_plugin():
    # L=1, M=4, N=2, C=2, both variances 1 -> (4*4/8 + 8) + 1 = 11
    assert sigma_ds_upper(1.0, 4, 2, 2, 1.0, 1.0) == pytest.approx(11.0)
    assert sigma_cs_upper(1.0, 4, 2, 1.0) == pytest.approx(0.5)
    assert sigma_ds_upper(2.0, 4, 2, 2, 0.0, 0.0) == 0.0
    assert sigma_cs_upper(5.0, 9, 3, 0.0) == 0.0


def client_sampling_terms(M, C, replace=False):
    """Every r's mean squared star-sequence move and mean Bregman term over eta^2, with the quadratic's L and
    sigma_tilde_star2: (squares, bregman, L, sigma_tilde_star2).  The means run over every client order, or with
    ``replace`` (rrcli-wr's law) over every sequence of M/C independent uniform C-subsets.

    The quadratic is shaped like acceptance test 05's.  After r rounds the server-level star sequence has moved by
    eta/C times the sum of the first r cohorts' gradients at x*; on a quadratic its Bregman term at that move delta
    is exactly 1/2 delta' H delta, with H the average Hessian.  Each r-round prefix of the subset sequences occurs
    equally often, so the means over the full sequences are the means over every sequence of r cohorts.
    """
    problem = quadratic_problem(M, 4, 5, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=11)
    x_star = problem.analytic_optimum().x_star
    _, sigma_tilde2 = star_variances(problem, x_star)
    H = problem._H.sum(axis=(0, 1)) / (M * problem.N)
    grads = problem.client_gradients(x_star)
    if replace:
        subsets = np.array(list(itertools.combinations(range(M), C)))
        sequences = subsets[np.array(list(itertools.product(range(len(subsets)), repeat=M // C)))]  # (K^R, R, C)
        moves = np.cumsum(grads[sequences].sum(axis=2), axis=1) / C  # (K^R, R, d)
    else:
        orders = np.array(list(itertools.permutations(range(M))))
        moves = np.cumsum(grads[orders], axis=1)[:, C - 1 :: C] / C  # (M!, M/C, d)
    per_sequence = np.sum(moves * moves, axis=-1), 0.5 * np.einsum("ori,ij,orj->or", moves, H, moves)
    # compensated means: numpy would add up to 8! orders or 6^6 sequences one after another
    squares, bregman = ([math.fsum(column) / len(moves) for column in terms.T.tolist()] for terms in per_sequence)
    return squares, bregman, problem.L, sigma_tilde2


def test_sigma_cs_upper_dominates_the_enumerated_client_sampling_variance():
    # without replacement (every M <= 8): the mean squared move is the k(M-k)/(M-1) spread of k client gradients
    # that sum to zero; with replacement (every M <= 6, up to 6^6 sequences): r independent cohorts of C each add
    # C(M-C)/(M-1). Either way, for every C dividing M, the largest mean Bregman term is at most sigma_cs_upper
    cases = 0
    for replace, largest in ((False, 8), (True, 6)):
        for M in range(1, largest + 1):
            for C in (C for C in range(1, M + 1) if M % C == 0):
                squares, bregman, L, sigma_tilde2 = client_sampling_terms(M, C, replace)
                # one client has one order, whose one move is the gradient at x*: rounding, with no closed form
                for r, got in enumerate(squares if M > 1 else (), start=1):
                    # 0 where the C*r or C clients are all M, and their gradients sum to zero
                    want = (r * C * (M - C) if replace else C * r * (M - C * r)) / (M - 1) * sigma_tilde2 / C**2
                    assert abs(got - want) <= 1e-12 * max(want, sigma_tilde2 / C**2), (replace, M, C, r)
                assert max(bregman) <= sigma_cs_upper(L, M, C, sigma_tilde2), (replace, M, C)
                cases += 1
    assert cases == 20 + 14


def test_bound_homogeneous_is_contraction_only():
    p = rp(THM1, L=2.0, mu=0.5, d0=4.0)
    steps = theoretical_steps(p)
    for T in (0, 1, 5):
        expected = (1 - steps.gamma * p.mu) ** (p.N * p.R * T) * 4.0
        assert bound_rhs(p, steps, T) == pytest.approx(expected)


def test_bound_limit_is_statistical_term():
    p = rp(THM1, L=2.0, mu=0.5, s2=1.0, st2=0.3, d0=4.0)
    steps = theoretical_steps(p)
    stat = 2 * steps.gamma**2 / p.mu * sigma_ds_upper(p.L, p.M, p.N, p.C, 0.3, 1.0)
    assert bound_rhs(p, steps, 10_000) == pytest.approx(stat)


def test_bound_scalar_hand_computed():
    # M=2, N=1, C=1, L=mu=1: gamma=1, eta=1, theta=2 under thm1
    p = rp(THM1, M=2, N=1, C=1, s2=0.5, st2=0.5, d0=9.0)
    steps = theoretical_steps(p)
    # contraction (1-1)^... = 0; sigma_ds = 1*(2/2 + 2)*0.5 + 0.5/2 = 1.75
    assert bound_rhs(p, steps, 1) == pytest.approx(2 * 1.75, abs=1e-12)


def test_bound_monotone_in_T():
    p = rp(THM2, L=4.0, mu=0.25, M=12, N=5, C=3, s2=1.0, st2=0.5, d0=10.0)
    steps = theoretical_steps(p)
    values = [bound_rhs(p, steps, T) for T in range(0, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_bound_monotone_in_variances():
    steps = None
    base = None
    for scale in (0.0, 0.5, 1.0, 2.0):
        p = rp(THM3, L=4.0, mu=0.25, M=12, N=5, C=3, s2=scale, st2=scale, d0=10.0)
        steps = theoretical_steps(p)
        value = bound_rhs(p, steps, 7)
        if base is not None:
            assert value >= base
        base = value


def test_thm2_and_thm3_statistical_terms():
    p = rp(THM2, L=2.0, mu=1.0, M=4, N=3, C=2, s2=1.0, st2=1.0, d0=0.0)
    s = StepSizes(gamma=0.01, eta=0.1, theta=0.2)
    kappa = 2.0
    expected = (
        4 / 1.0 * 0.1**2 * sigma_cs_upper(2.0, 4, 2, 1.0)
        + 12 * kappa**2 * 0.01**2 * 9 * 1.0
        + 12 * kappa**2 * 0.01**2 * 3 * 1.0
    )
    assert bound_rhs(p, s, 5) == pytest.approx(expected)

    p3 = rp(THM3, L=2.0, mu=1.0, M=4, N=3, C=2, s2=1.0, st2=1.0, d0=0.0)
    expected3 = (
        16 * 0.01**2 * kappa * 9
        + 16 * 0.01**2 * kappa * 3
        + 16 * 0.1**2 * kappa / (9 * 2) * (4 - 2) / ((4 - 1) * 2)
    )
    assert bound_rhs(p3, s, 5) == pytest.approx(expected3)


def test_regime_params_validation():
    with pytest.raises(ValueError):
        rp("thm9")
    with pytest.raises(ValueError):
        rp(THM1, L=1.0, mu=2.0)
    with pytest.raises(ValueError):
        RegimeParams(regime=THM1, L=1, mu=1, M=5, N=2, C=2)
    with pytest.raises(ValueError):
        bound_rhs(rp(THM1), theoretical_steps(rp(THM1)), -1)
