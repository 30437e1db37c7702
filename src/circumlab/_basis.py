"""L2-orthonormal polynomial basis on a triangle, with derivatives.

The basis is the classical orthogonal family on the reference triangle
(0,0), (1,0), (0,1), built from Jacobi polynomials in collapsed
coordinates xi = 2x/(1-y) - 1, zeta = 2y - 1:

    phi_{mn}(x, y) = P_m^{(0,0)}(xi) * (1-y)^m * P_n^{(2m+1,0)}(zeta)
    psi_{mn} = sqrt(2 (2m+1) (m+n+1)) * phi_{mn}

so that int_ref psi_i psi_j = delta_ij.  This family is exactly what
Gram-Schmidt of graded monomials against the triangle's L2 inner product
produces (up to signs), but it evaluates stably at high degree where a
float monomial Gram is numerically singular.  Under an affine pullback to
a target triangle the family stays orthogonal with mass matrix 2S * I.

Tabulation builds whole (points, columns) arrays, with one Jacobi call per
factor and derivative order, from the one identity (0 for n < k)

    d^k/dx^k P_n^{(a,b)} = (n+a+b+1) ... (n+a+b+k) / 2^k * P_{n-k}^{(a+k,b+k)}.

Indexing is graded: all pairs with m + n = d come before degree d + 1, so
truncating to a leading block restricts to the degree-d subspace.
"""
from __future__ import annotations

import numpy as np


def index_pairs(degree: int) -> list[tuple[int, int]]:
    """(m, n) pairs in graded order; len = (degree+1)(degree+2)/2."""
    return [(m, d - m) for d in range(degree + 1) for m in range(d + 1)]


def _jac(n: np.ndarray, a, b, x: np.ndarray, k: int = 0) -> np.ndarray:
    """d^k/dx^k P_n^(a,b)(x) for columns n, a, b at points x (a column)."""
    from scipy.special import eval_jacobi

    coef = 0.5 ** k
    for j in range(1, k + 1):
        coef = coef * (n + a + b + j)
    return np.where(n >= k, coef * eval_jacobi(n - k, a + k, b + k, x), 0.0)


def tabulate(degree: int, x: np.ndarray, y: np.ndarray, order: int = 2) -> dict:
    """Evaluate the orthonormal basis (and derivatives) at reference points.

    Returns {"v": V, "x": Vx, "y": Vy, "xx": Vxx, "xy": Vxy, "yy": Vyy}
    with arrays of shape (npts, nbasis); derivative keys only up to
    ``order``.  Values at y = 1 (the collapsed vertex) take the polynomial
    limit; derivatives assume y < 1 (quadrature and edge nodes satisfy this).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    r = 1.0 - y
    safe = r > 0.0
    xi = np.where(safe, 2.0 * x / np.where(safe, r, 1.0) - 1.0, -1.0)[:, None]
    zeta = (2.0 * y - 1.0)[:, None]
    m, n = np.array(index_pairs(degree)).T
    # psi = scale * u * Q(zeta), u = P(xi) r^m; the k-th derivatives of P, Q
    # and r^(m-k) by a running product, r^0 where m < k (and there P^(k) = 0)
    rk = np.cumprod(np.column_stack([np.ones_like(r)] + degree * [r]), axis=1)
    P = [_jac(m, 0, 0, xi, k) for k in range(order + 1)]
    Q = [_jac(n, 2 * m + 1, 0, zeta, k) for k in range(order + 1)]
    rm = [rk[:, np.maximum(m - k, 0)] for k in range(order + 1)]
    scale = np.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
    u = P[0] * rm[0]
    out = {"v": scale * u * Q[0]}
    if order < 1:
        return out
    s = xi + 1.0
    ux = 2.0 * P[1] * rm[1]  # 2 P' r^(m-1)
    uy = (s * P[1] - m * P[0]) * rm[1]  # [(xi+1) P' - m P] r^(m-1)
    out["x"] = scale * ux * Q[0]
    out["y"] = scale * (uy * Q[0] + 2.0 * u * Q[1])
    if order < 2:
        return out
    uxx = 4.0 * P[2] * rm[2]  # 4 P'' r^(m-2)
    uxy = 2.0 * (s * P[2] - (m - 1) * P[1]) * rm[2]
    uyy = (s ** 2 * P[2] - 2.0 * (m - 1) * s * P[1] + m * (m - 1) * P[0]) * rm[2]
    out["xx"] = scale * uxx * Q[0]
    out["xy"] = scale * (uxy * Q[0] + 2.0 * ux * Q[1])
    out["yy"] = scale * (uyy * Q[0] + 4.0 * uy * Q[1] + 4.0 * u * Q[2])
    return out
