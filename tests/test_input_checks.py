"""Each argument check of the library's building blocks raises its one message."""

import re

import numpy as np
import pytest

from fedrr.problem import LogisticProblem, ProblemError, QuadraticProblem, logistic_problem, solve_optimum
from fedrr.rng import _PhiloxKey
from fedrr.shuffling import fisher_yates
from fedrr.theory import THM1, RegimeParams


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LogisticProblem(np.ones((4, 3)), 0.1), ProblemError, "expected signed rows of shape (M, N, d)"),
        (lambda: LogisticProblem(np.ones((0, 3, 2)), 0.1), ProblemError,
         "expected at least one client and one component, got signed rows of shape (0, 3, 2)"),
        (lambda: LogisticProblem(np.ones((2, 0, 3)), 0.1), ProblemError,
         "expected at least one client and one component, got signed rows of shape (2, 0, 3)"),
        (lambda: logistic_problem(np.arange(4).reshape(2, 2), np.ones((4, 3)), np.array([1.0, -1.0, 0.0, 1.0]), 0.1),
         ProblemError, "logistic labels must be -1 or +1, got 0.0"),
        (lambda: QuadraticProblem(np.ones((2, 4, 3, 2)), np.ones((2, 4, 3)), 1.0, 2.0), ProblemError,
         "expected H of shape (M, N, d, d) and centers (M, N, d)"),
        (lambda: QuadraticProblem(np.ones((2, 4, 3, 3)), np.ones((2, 4, 2)), 1.0, 2.0), ProblemError,
         "expected H of shape (M, N, d, d) and centers (M, N, d)"),
        (lambda: solve_optimum(QuadraticProblem(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1)), 0.0, 1.0), 1e-12), ProblemError,
         "optimum solver requires a strongly convex problem"),
        (lambda: fisher_yates(0, 0, "checks"), ValueError, "n must be >= 1"),
        (lambda: RegimeParams(THM1, L=1.0, mu=1.0, M=4, N=2, C=2, sigma_tilde_star2=-1.0), ValueError,
         "variances and distances must be nonnegative"),
        (lambda: _PhiloxKey(1).generate_state(4, np.uint64), ValueError, "a Philox key holds exactly two uint64 words"),
        (lambda: _PhiloxKey(1).generate_state(2), ValueError, "a Philox key holds exactly two uint64 words"),
    ],
    ids=[
        "logistic-2d-rows", "logistic-no-clients", "logistic-no-components", "logistic-label-values",
        "quadratic-non-square-hessians", "quadratic-center-shape",
        "solve-not-strongly-convex", "permutation-of-nothing", "negative-variance",
        "philox-four-words", "philox-uint32-words",
    ],
)
def test_input_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
