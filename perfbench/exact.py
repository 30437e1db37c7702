"""Exact rational reference values the benchmark checks outputs against.

Nothing here calls circumlab.  Polynomials are dicts {(i, j): Fraction}
meaning sum c_ij x^i y^j; float inputs are converted to rationals exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction

Poly = dict


def poly_from_graded(coeffs) -> Poly:
    """Graded coefficient list c00, c10, c01, c20, c11, c02, ... (degree by
    degree, x-power decreasing) as a polynomial."""
    out: Poly = {}
    k = 0
    deg = 0
    coeffs = [Fraction(float(c)) for c in coeffs]
    while k < len(coeffs):
        for i in range(deg, -1, -1):
            if k == len(coeffs):
                raise ValueError("coefficient count is not a triangular number")
            if coeffs[k]:
                out[(i, deg - i)] = coeffs[k]
            k += 1
        deg += 1
    return out


def add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + a * b
    return {k: c for k, c in out.items() if c}


def dx(p: Poly) -> Poly:
    return {(i - 1, j): i * c for (i, j), c in p.items() if i}


def dy(p: Poly) -> Poly:
    return {(i, j - 1): j * c for (i, j), c in p.items() if j}


def evaluate(p: Poly, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x ** i * y ** j for (i, j), c in p.items()), Fraction(0))


def bubble() -> Poly:
    """u = x(1-x) y(1-y) (1+x+2y), multiplied out from its factors."""
    f = [{(1, 0): Fraction(1), (2, 0): Fraction(-1)},
         {(0, 1): Fraction(1), (0, 2): Fraction(-1)},
         {(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(2)}]
    return mul(mul(f[0], f[1]), f[2])


def unit_square_integral(p: Poly) -> Fraction:
    return sum((c / ((i + 1) * (j + 1)) for (i, j), c in p.items()), Fraction(0))


def hessian_seminorm_sq_unit_square(u: Poly) -> Fraction:
    """|u|_{2,2}^2 over [0,1]^2 with weight 2 on the mixed derivative."""
    uxx, uxy, uyy = dx(dx(u)), dx(dy(u)), dy(dy(u))
    return unit_square_integral(
        add(add(mul(uxx, uxx), mul(uyy, uyy)), mul(uxy, uxy), 2))


def _vertices(tri) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(float(p[0])), Fraction(float(p[1]))) for p in tri]


def triangle_integral(p: Poly, tri) -> Fraction:
    """Integral of p over a triangle (3x2 vertex floats), by pulling each
    monomial back to the reference triangle, where the integral of
    s^a t^b is a! b! / (a+b+2)!."""
    (x1, y1), (x2, y2), (x3, y3) = _vertices(tri)
    xs = {(0, 0): x1, (1, 0): x2 - x1, (0, 1): x3 - x1}  # x(s, t)
    ys = {(0, 0): y1, (1, 0): y2 - y1, (0, 1): y3 - y1}
    jac = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    deg = max((i + j for i, j in p), default=0)
    xpow, ypow = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    for _ in range(deg):
        xpow.append(mul(xpow[-1], xs))
        ypow.append(mul(ypow[-1], ys))
    total = Fraction(0)
    for (i, j), c in p.items():
        for (a, b), m in mul(xpow[i], ypow[j]).items():
            total += c * m * Fraction(math.factorial(a) * math.factorial(b),
                                      math.factorial(a + b + 2))
    return total * jac


def interpolation_h1_error_sq(v: Poly, tri) -> Fraction:
    """|v - I v|_{1,2,K}^2 with I the vertex interpolant, exactly."""
    (x1, y1), (x2, y2), (x3, y3) = pts = _vertices(tri)
    f1, f2, f3 = (evaluate(v, x, y) for x, y in pts)
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    # gradient of the affine interpolant by Cramer's rule
    gx = ((f2 - f1) * (y3 - y1) - (f3 - f1) * (y2 - y1)) / det
    gy = ((x2 - x1) * (f3 - f1) - (x3 - x1) * (f2 - f1)) / det
    ex = add(dx(v), {(0, 0): gx}, -1)
    ey = add(dy(v), {(0, 0): gy}, -1)
    return triangle_integral(add(mul(ex, ex), mul(ey, ey)), tri)


def circumradius_and_kobayashi_sq(tri) -> tuple[Fraction, Fraction]:
    """(R_K^2, C(K)^2) from the vertices; both are rational in them."""
    (x1, y1), (x2, y2), (x3, y3) = _vertices(tri)
    a2 = (x3 - x2) ** 2 + (y3 - y2) ** 2
    b2 = (x1 - x3) ** 2 + (y1 - y3) ** 2
    c2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    s2 = ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) ** 2 / 4
    r2 = a2 * b2 * c2 / (16 * s2)
    k2 = r2 - (a2 + b2 + c2) / 30 - (s2 / 5) * (1 / a2 + 1 / b2 + 1 / c2)
    return r2, k2

