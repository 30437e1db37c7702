"""Independent exact oracles used by the test suite.

Everything here is deliberately slow and simple: exact rational monomial
integrals over an arbitrary triangle via affine pullback and the factorial
formula, and an exact-arithmetic eigensolve route for the quotient
estimates built on a raw monomial basis, and the element-by-element loop
that mesh validation was first written as.  These never share code with
the library paths they check.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from circumlab.errors import DegenerateTriangle, NonConforming

FACT = [math.factorial(k) for k in range(80)]


def reference_moment(i: int, j: int) -> Fraction:
    """Integral of x^i y^j over the reference triangle: i! j! / (i+j+2)!."""
    return Fraction(FACT[i] * FACT[j], FACT[i + j + 2])


def _poly_pow(lin: dict, n: int) -> list[dict]:
    """Powers 0..n of a linear polynomial stored as {(qu, qv): Fraction}."""
    out = [{(0, 0): Fraction(1)}]
    for _ in range(n):
        prev = out[-1]
        nxt: dict = {}
        for (qu, qv), c in prev.items():
            for (du, dv), d in lin.items():
                key = (qu + du, qv + dv)
                nxt[key] = nxt.get(key, Fraction(0)) + c * d
        out.append(nxt)
    return out


def monomial_integrals(vertices, max_degree: int) -> dict[tuple[int, int], Fraction]:
    """Exact integrals of x^i y^j (i + j <= max_degree) over a triangle.

    ``vertices`` is a 3x2 array-like of floats (converted exactly to
    rationals).
    """
    (x1, y1), (x2, y2), (x3, y3) = [
        (Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices
    ]
    # x = x1 + (x2-x1) u + (x3-x1) v, same for y; |det| = 2 * area
    lx = {(0, 0): x1, (1, 0): x2 - x1, (0, 1): x3 - x1}
    ly = {(0, 0): y1, (1, 0): y2 - y1, (0, 1): y3 - y1}
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    jac = abs(det)
    xp = _poly_pow(lx, max_degree)
    yp = _poly_pow(ly, max_degree)
    out = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            total = Fraction(0)
            for (qu, qv), cx in xp[i].items():
                for (ru, rv), cy in yp[j].items():
                    total += cx * cy * reference_moment(qu + ru, qv + rv)
            out[(i, j)] = jac * total
    return out


def monomial_pairs(degree: int) -> list[tuple[int, int]]:
    return [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]


def monomial_grams(vertices, degree: int):
    """Float Gram matrices (mass, gradient, weighted Hessian) of the raw
    monomial basis x^i y^j, i + j <= degree, from exact rational moments."""
    pairs = monomial_pairs(degree)
    mom = monomial_integrals(vertices, 2 * degree)
    m = len(pairs)
    g0 = np.zeros((m, m))
    g1 = np.zeros((m, m))
    g2 = np.zeros((m, m))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            g0[a, b] = float(mom[(i + k, j + l)])
            acc = Fraction(0)
            if i and k:
                acc += i * k * mom[(i + k - 2, j + l)]
            if j and l:
                acc += j * l * mom[(i + k, j + l - 2)]
            g1[a, b] = float(acc)
            acc = Fraction(0)
            if i > 1 and k > 1:
                acc += i * (i - 1) * k * (k - 1) * mom[(i + k - 4, j + l)]
            if j > 1 and l > 1:
                acc += j * (j - 1) * l * (l - 1) * mom[(i + k, j + l - 4)]
            if i and j and k and l:
                acc += 2 * i * j * k * l * mom[(i + k - 2, j + l - 2)]
            g2[a, b] = float(acc)
    return pairs, g0, g1, g2


def quotient_by_monomials(vertices, degree: int, kind: str,
                          edge_index: int = 1) -> float:
    """Constrained Rayleigh minimum via the raw monomial route.

    kind: "A" (gradient/value with a mean-zero leg; vertices must be
    (corner, corner+(a,0), corner+(0,b))), "B" (hessian/gradient) or
    "D" (hessian/value) with vertex-vanishing constraints.
    """
    pairs, g0, g1, g2 = monomial_grams(vertices, degree)
    m = len(pairs)
    v = np.asarray(vertices, dtype=float)
    if kind == "A":
        c = np.zeros((1, m))
        (cx, cy) = v[0]
        if edge_index == 1:
            length = v[1][0] - cx
            for b, (i, j) in enumerate(pairs):
                # mean over the horizontal leg y = cy, x in [cx, cx+length]
                c[0, b] = ((cx + length) ** (i + 1) - cx ** (i + 1)) / (i + 1) * cy ** j
        else:
            length = v[2][1] - cy
            for b, (i, j) in enumerate(pairs):
                c[0, b] = (
                    cx ** i * ((cy + length) ** (j + 1) - cy ** (j + 1)) / (j + 1)
                )
        num, den = g1, g0
    else:
        c = np.zeros((3, m))
        for r in range(3):
            for b, (i, j) in enumerate(pairs):
                c[r, b] = v[r, 0] ** i * v[r, 1] ** j
        num = g2
        den = g1 if kind == "B" else g0
    z = scipy.linalg.null_space(c)
    lam = scipy.linalg.eigh(z.T @ num @ z, z.T @ den @ z, eigvals_only=True,
                            subset_by_index=[0, 0])[0]
    return math.sqrt(max(lam, 0.0))


def circumradius_and_kobayashi_sq(vertices) -> tuple[Fraction, Fraction]:
    """Exact (R_K^2, C(K)^2) of a triangle: with squared edge lengths and
    squared area both are rational in the (float, hence rational) vertices,
    R^2 = A^2 B^2 C^2 / (16 S^2) and
    C^2 = R^2 - (A^2 + B^2 + C^2)/30 - (S^2/5)(1/A^2 + 1/B^2 + 1/C^2)."""
    (x1, y1), (x2, y2), (x3, y3) = [
        (Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices
    ]
    a2 = (x3 - x2) ** 2 + (y3 - y2) ** 2
    b2 = (x1 - x3) ** 2 + (y1 - y3) ** 2
    c2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    s2 = ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) ** 2 / 4
    r2 = a2 * b2 * c2 / (16 * s2)
    return r2, r2 - (a2 + b2 + c2) / 30 - (s2 / 5) * (1 / a2 + 1 / b2 + 1 / c2)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), Fraction(0)) + c * d
    return out


def _poly_diff(a: dict, axis: int) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        e = (i, j)[axis]
        if e:
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + e * c
    return out


def interpolation_error_sq(coeffs, vertices) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (|v - I v|_{0,2}^2, |v - I v|_{1,2}^2, |v|_{2,2}^2) on a triangle
    for the polynomial v with graded coefficients c00, c10, c01, c20, ...
    (degree by degree, x-power decreasing).  The interpolant comes from
    Cramer's rule on the exact vertex values, and every square is
    integrated with ``monomial_integrals``."""
    pairs = [(i, d - i) for d in range(20) for i in range(d, -1, -1)][:len(coeffs)]
    v = {ij: Fraction(float(c)) for ij, c in zip(pairs, coeffs)}
    pts = [(Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices]
    vals = [sum(c * x ** i * y ** j for (i, j), c in v.items()) for x, y in pts]
    rows = [[Fraction(1), x, y] for x, y in pts]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(rows)
    interp = [det([r[:k] + [f] + r[k + 1:] for r, f in zip(rows, vals)]) / d
              for k in range(3)]
    err = dict(v)
    for key, c in zip([(0, 0), (1, 0), (0, 1)], interp):
        err[key] = err.get(key, Fraction(0)) - c
    deg = max(i + j for i, j in pairs)
    mom = monomial_integrals(vertices, 2 * deg)

    def integral(poly):
        return sum(c * mom[ij] for ij, c in poly.items())

    ex, ey = _poly_diff(err, 0), _poly_diff(err, 1)
    vxx, vyy, vxy = _poly_diff(_poly_diff(v, 0), 0), _poly_diff(_poly_diff(v, 1), 1), \
        _poly_diff(_poly_diff(v, 0), 1)
    return (
        integral(_poly_mul(err, err)),
        integral(_poly_mul(ex, ex)) + integral(_poly_mul(ey, ey)),
        integral(_poly_mul(vxx, vxx)) + integral(_poly_mul(vyy, vyy))
        + 2 * integral(_poly_mul(vxy, vxy)),
    )


def validate_loop(mesh) -> None:
    """Mesh validation as a loop over elements with dictionaries of seen
    triangles and edge counts; raises what ``circumlab.mesh.validate`` must
    raise, with the same message."""
    p = mesh.vertices[mesh.triangles]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    if len(areas):
        k = int(np.argmin(areas))
        if areas[k] <= 0.0:
            raise DegenerateTriangle(f"element {k} has non-positive area {areas[k]:.3e}")
    if mesh.triangles.size and int(mesh.triangles.max()) >= len(mesh.vertices):
        raise NonConforming("triangle references a missing vertex")
    seen: dict[tuple[int, int, int], int] = {}
    edge_use: dict[tuple[int, int], int] = {}
    for k, (i, j, l) in enumerate(mesh.triangles):
        key = tuple(sorted((int(i), int(j), int(l))))
        if key in seen:
            raise NonConforming(f"elements {seen[key]} and {k} are the same triangle {key}")
        seen[key] = k
        for a, b in ((i, j), (j, l), (l, i)):
            e = (int(min(a, b)), int(max(a, b)))
            edge_use[e] = edge_use.get(e, 0) + 1
            if edge_use[e] > 2:
                raise NonConforming(f"edge {e} shared by more than two triangles")
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
    for (a, b), cnt in edge_use.items():
        if cnt == 1:
            on_boundary[a] = True
            on_boundary[b] = True
    if not np.array_equal(on_boundary, mesh.boundary):
        k = int(np.argmax(on_boundary != mesh.boundary))
        raise NonConforming(
            f"vertex {k} boundary flag {bool(mesh.boundary[k])} disagrees with "
            f"edge usage {bool(on_boundary[k])}"
        )
