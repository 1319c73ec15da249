"""Exact replays of quadratic runs in ``fractions.Fraction``: the engine's floats against what its algorithms mean.

``replay(problem, cfg, x_star)`` takes each ``Round`` of ``optimizer.round_plan(problem, cfg)``, which says who trains,
on which data order and in which steps, and applies the algorithm in its textbook form to the run's own float H, c,
gamma, eta, theta and x*, each read as the exact binary rational it is:

- a client's local pass from the server iterate x takes S steps, x <- x - gamma * mean_p H_p (x - c_p) over each
  step's batch of components p;
- the cohort's pseudo-gradient g is the mean over its C clients of (x - x_end) / (gamma * S), and the server steps
  x <- x - eta * g;
- rrcli and rrcli-wr, after a meta-epoch's R rounds, step globally from the meta-epoch's start x_meta:
  x <- x_meta - theta * (the mean of the R rounds' g);
- with decay, the three step sizes of a round are divided by 1 + the epochs of M*N evaluations done before it.

A point is taken whenever the evaluations complete an epoch, as ``run_algorithm`` records them.  No arithmetic is
shared with the engine: no stacked kernel, no stored H c, no collapse shortcut.

Each point carries ``bound``, an upper bound on |float dist_sq - exact dist_sq| of any float evaluation in the engine's
order of operations, to first order in u = 2**-53.  It is a running error bound under the rounding model
fl(a op b) = (a op b)(1 + delta), |delta| <= u, in l2 norms, with B the largest norm of x*, of any c_mj and of any
exact iterate so far.  It needs gamma * L <= 1, which ``replay`` checks:

- a local step over b components makes a new error of at most u*B*(2*d**1.5 + 2*b + 11): the d-term dots H_p x and the
  stored H_p c_p, each within d*u*||H_p||_F*B <= d**1.5*u*L*B, their b-term sum, the product with gamma / b, the
  subtraction from x, and the decayed gamma's two roundings.  Its map x -> x - gamma * mean_p H_p x has l2 norm at most
  1, since every H_p has eigenvalues in [mu, L], so an earlier error does not grow;
- a server step with rho = eta / (gamma*S) makes at most u*B*(1 + rho*(2*C + 16)): x - x_end, the product gamma*S and
  the division by it, the C-term mean, the product with eta, the subtraction and the decayed gamma and eta.  It maps
  an error e of x to (|1 - rho| + rho)*e, plus rho times the largest of its clients' new local errors;
- a global step with sigma = theta / (eta*R) makes at most u*B*(1 + 16*sigma) and maps the errors e_meta of x_meta
  and e of x to |1 - sigma|*e_meta + sigma*e;
- at an error e of x, x - x* is within delta = e + 2*u*B, and its d-term square within d*u*(r + delta)**2, so
  |float dist_sq - exact dist_sq| <= (2*r + delta)*delta + d*u*(r + delta)**2 with r = ||x - x*||.
"""

import math
from fractions import Fraction

from fedrr.optimizer import RRCLI, RRCLI_WITH_REPLACEMENT, round_plan

U = 2.0**-53


def _norm(v) -> float:
    return math.sqrt(float(sum(a * a for a in v)))


def replay(problem, cfg, x_star):
    """Every recorded point of a quadratic run, exactly: a list of (grad_evals, dist_sq as a Fraction, bound)."""
    M, N, d, L = problem.M, problem.N, problem.d, problem.L
    H = [[[[Fraction(h) for h in row] for row in Hj] for Hj in Hm] for Hm in problem._H.tolist()]
    c = [[[Fraction(v) for v in cj] for cj in cm] for cm in problem._c.tolist()]
    star = [Fraction(v) for v in x_star.tolist()]
    base = [Fraction(s) for s in (cfg.steps.gamma, cfg.steps.eta, cfg.steps.theta)]
    R = M // cfg.C
    shuffled = cfg.algorithm in (RRCLI, RRCLI_WITH_REPLACEMENT)
    B = max([_norm(star)] + [_norm(cj) for cm in c for cj in cm])

    def point(evals, x, err):
        delta = err + 2 * U * B
        r = _norm([a - b for a, b in zip(x, star)])
        dist = sum((a - b) ** 2 for a, b in zip(x, star))
        return evals, dist, (2 * r + delta) * delta + d * U * (r + delta) ** 2

    def local_pass(m, order, bounds, x, gamma):
        nonlocal B
        err = 0.0
        for a, b in bounds:
            grads = [[sum(h * (xi - ci) for h, xi, ci in zip(row, x, c[m][p])) for row in H[m][p]] for p in order[a:b]]
            x = [xi - gamma * sum(g[i] for g in grads) / (b - a) for i, xi in enumerate(x)]
            B = max(B, _norm(x))
            err += U * B * (2 * d**1.5 + 2 * (b - a) + 11)
        return x, err

    x = [Fraction(0)] * d if cfg.x0 is None else [Fraction(v) for v in cfg.x0.tolist()]
    err, evals, recorded = 0.0, 0, 0
    points = [point(0, x, err)]
    for rnd in round_plan(problem, cfg):
        gamma, eta, theta = (s / (1 + evals // (M * N)) for s in base) if cfg.decay else base
        S = len(rnd.bounds)
        assert gamma * Fraction(L) <= 1, "the bound needs gamma * L <= 1"
        if shuffled and rnd.round_index == 0:
            x_meta, err_meta, pseudo = x, err, []
        ends = [local_pass(m, order, rnd.bounds, x, gamma) for m, order in zip(rnd.clients, rnd.rows.tolist())]
        g = [sum(xi - end[i] for end, _ in ends) / (gamma * S * len(ends)) for i, xi in enumerate(x)]
        x = [xi - eta * gi for xi, gi in zip(x, g)]
        rho = eta / (gamma * S)
        B = max(B, _norm(x))
        err = float(abs(1 - rho) + rho) * err + float(rho) * max(e for _, e in ends)
        err += U * B * (1 + float(rho) * (2 * len(ends) + 16))
        evals += rnd.rows.size
        if shuffled:
            pseudo.append(g)
            if rnd.round_index == R - 1:
                x = [xm - theta * sum(gr[i] for gr in pseudo) / R for i, xm in enumerate(x_meta)]
                sigma = theta / (eta * R)
                B = max(B, _norm(x))
                err = float(abs(1 - sigma)) * err_meta + float(sigma) * err + U * B * (1 + 16 * float(sigma))
        if evals // (M * N) > recorded:
            recorded = evals // (M * N)
            points.append(point(evals, x, err))
    return points
