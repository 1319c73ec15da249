"""The logistic optimum in ``decimal.Decimal`` at 40 digits: what ``solve_optimum``'s x* means.

For the signed rows r_i of an (M, N, d) array R, f(x) = (1/MN) sum_i log(1 + exp(r_i.x)) + (alpha/2) ||x||^2, so

    grad f(x) = (1/MN) sum_i s(r_i.x) r_i + alpha x,  grad^2 f(x) = (1/MN) sum_i s(r_i.x) (1 - s(r_i.x)) r_i r_i' + alpha I

with s(z) = 1 / (1 + exp(-z)).  Every float (the rows, alpha, a point) is read as the exact binary rational it is, and
``Decimal.exp`` is correctly rounded at any precision, so the gradient below is the true one to about 40 digits.  The
sigmoid is not clipped: at the optimum of a small problem |r_i.x| stays far inside exp's range.

``newton_optimum`` runs undamped Newton from 0 with that Hessian, each step a d x d Gaussian elimination with partial
pivoting in ``Decimal``, until ||grad f|| is at most 10^-(DIGITS - 5), and returns the point and its gradient norm: by
strong convexity the true optimum is within that norm over alpha of it.  No arithmetic is shared with the float
kernels.
"""

from decimal import Decimal, localcontext

DIGITS = 40


def _rows(R):
    return [[Decimal(v) for v in row] for row in R.reshape(-1, R.shape[-1])]


def _dot(a, b):
    return sum((p * q for p, q in zip(a, b)), Decimal(0))


def norm(v) -> Decimal:
    """The 2-norm of a vector of Decimals or floats, at ``DIGITS`` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        v = [Decimal(c) for c in v]
        return _dot(v, v).sqrt()


def _gradient(rows, alpha, x, hessian=False):
    n, d = len(rows), len(x)
    g = [Decimal(0)] * d
    H = [[Decimal(0)] * d for _ in range(d)] if hessian else None
    for r in rows:
        s = 1 / (1 + (-_dot(r, x)).exp())
        g = [gj + s * rj for gj, rj in zip(g, r)]
        if hessian:
            w = s * (1 - s)
            for i in range(d):
                wr = w * r[i]
                H[i] = [h + wr * rj for h, rj in zip(H[i], r)]
    g = [gj / n + alpha * xj for gj, xj in zip(g, x)]
    if hessian:
        H = [[h / n + (alpha if i == j else 0) for j, h in enumerate(row)] for i, row in enumerate(H)]
    return g, H


def logistic_gradient(R, alpha, x) -> list[Decimal]:
    """grad f at the float or Decimal point ``x`` for the signed rows ``R`` and regularizer ``alpha``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _gradient(_rows(R), Decimal(alpha), [Decimal(c) for c in x])[0]


def _solve(H, b):
    """x with H x = b, by Gaussian elimination with partial pivoting."""
    d = len(b)
    A = [row[:] + [bi] for row, bi in zip(H, b)]
    for c in range(d):
        p = max(range(c, d), key=lambda i: abs(A[i][c]))
        A[c], A[p] = A[p], A[c]
        for i in range(c + 1, d):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * ac for a, ac in zip(A[i], A[c])]
    x = [Decimal(0)] * d
    for i in reversed(range(d)):
        x[i] = (A[i][d] - _dot(A[i][i + 1 : d], x[i + 1 :])) / A[i][i]
    return x


def newton_optimum(R, alpha, max_steps=50):
    """(x*, ||grad f(x*)||): Newton's iterate from 0 once its gradient norm is at most 10^-(DIGITS - 5)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows, alpha = _rows(R), Decimal(alpha)
        x = [Decimal(0)] * R.shape[-1]
        for _ in range(max_steps + 1):
            g, H = _gradient(rows, alpha, x, hessian=True)
            g_norm = _dot(g, g).sqrt()
            if g_norm <= Decimal(10) ** (5 - DIGITS):
                return x, g_norm
            x = [xi - si for xi, si in zip(x, _solve(H, g))]
    raise RuntimeError(f"Newton did not reach a gradient norm of 1e-{DIGITS - 5} in {max_steps} steps (last {g_norm:.3e})")
