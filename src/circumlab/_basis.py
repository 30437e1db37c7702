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

Indexing is graded: all pairs with m + n = d come before degree d + 1, so
truncating to a leading block restricts to the degree-d subspace.
"""
from __future__ import annotations

import numpy as np
from scipy.special import eval_jacobi


def index_pairs(degree: int) -> list[tuple[int, int]]:
    """(m, n) pairs in graded order; len = (degree+1)(degree+2)/2."""
    return [(m, d - m) for d in range(degree + 1) for m in range(d + 1)]


def _jac(n: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    if n < 0:
        return np.zeros_like(x)
    return eval_jacobi(n, a, b, x)


def _jac_d1(n: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    if n < 1:
        return np.zeros_like(x)
    return 0.5 * (n + a + b + 1) * eval_jacobi(n - 1, a + 1, b + 1, x)


def _jac_d2(n: int, a: int, b: int, x: np.ndarray) -> np.ndarray:
    if n < 2:
        return np.zeros_like(x)
    return 0.25 * (n + a + b + 1) * (n + a + b + 2) * eval_jacobi(n - 2, a + 2, b + 2, x)


def tabulate(degree: int, x: np.ndarray, y: np.ndarray, order: int = 2) -> dict:
    """Evaluate the orthonormal basis (and derivatives) at reference points.

    Returns {"v": V, "x": Vx, "y": Vy, "xx": Vxx, "xy": Vxy, "yy": Vyy}
    with arrays of shape (npts, nbasis); derivative keys only up to
    ``order``.  Points with y = 1 (the collapsed vertex) are handled by the
    polynomial limit, which is safe for values; derivative tabulation
    assumes y < 1 (quadrature and edge nodes satisfy this).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = 1.0 - y
    safe = r > 0.0
    xi = np.where(safe, 2.0 * x / np.where(safe, r, 1.0) - 1.0, -1.0)
    zeta = 2.0 * y - 1.0

    pairs = index_pairs(degree)
    shape = (x.size, len(pairs))
    out = {"v": np.empty(shape)}
    if order >= 1:
        out["x"] = np.empty(shape)
        out["y"] = np.empty(shape)
    if order >= 2:
        out["xx"] = np.empty(shape)
        out["xy"] = np.empty(shape)
        out["yy"] = np.empty(shape)

    # powers of r; r^0 = 1 even at the collapsed vertex
    rm = {0: np.ones_like(r)}
    for k in range(1, degree + 1):
        rm[k] = rm[k - 1] * r

    for col, (m, n) in enumerate(pairs):
        scale = np.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
        P = _jac(m, 0, 0, xi)
        Q = _jac(n, 2 * m + 1, 0, zeta)
        u = P * rm[m]
        out["v"][:, col] = scale * u * Q
        if order < 1:
            continue
        dP = _jac_d1(m, 0, 0, xi)
        dQ = _jac_d1(n, 2 * m + 1, 0, zeta)
        # u = P(xi) r^m with xi = 2x/r - 1:
        #   u_x  = 2 P' r^(m-1)
        #   u_y  = [(xi+1) P' - m P] r^(m-1)
        ux = 2.0 * dP * rm[m - 1] if m >= 1 else np.zeros_like(r)
        uy = ((xi + 1.0) * dP - m * P) * rm[m - 1] if m >= 1 else np.zeros_like(r)
        out["x"][:, col] = scale * ux * Q
        out["y"][:, col] = scale * (uy * Q + 2.0 * u * dQ)
        if order < 2:
            continue
        ddP = _jac_d2(m, 0, 0, xi)
        ddQ = _jac_d2(n, 2 * m + 1, 0, zeta)
        #   u_xx = 4 P'' r^(m-2)
        #   u_xy = 2 [(xi+1) P'' - (m-1) P'] r^(m-2)
        #   u_yy = [(xi+1)^2 P'' - 2(m-1)(xi+1) P' + m(m-1) P] r^(m-2)
        if m >= 2:
            uxx = 4.0 * ddP * rm[m - 2]
            uxy = 2.0 * ((xi + 1.0) * ddP - (m - 1) * dP) * rm[m - 2]
            uyy = (
                (xi + 1.0) ** 2 * ddP
                - 2.0 * (m - 1) * (xi + 1.0) * dP
                + m * (m - 1) * P
            ) * rm[m - 2]
        else:
            uxx = np.zeros_like(r)
            uxy = np.zeros_like(r)
            uyy = np.zeros_like(r)
        out["xx"][:, col] = scale * uxx * Q
        out["xy"][:, col] = scale * (uxy * Q + 2.0 * ux * dQ)
        out["yy"][:, col] = scale * (uyy * Q + 4.0 * uy * dQ + 4.0 * u * ddQ)
    return out
