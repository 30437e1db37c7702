"""Analytic scalar fields with exact gradients and Hessians.

Fields are immutable bundles of vectorized evaluators; all functions accept
numpy arrays (or scalars) for x and y.  The registry serves fixed names
("sinsin", "expxy", monomials through degree 4) and two parameterized
families: "affine(cx,cy,c0)" and "poly:c00,c10,c01,c20,..." with
coefficients in graded order (degree by degree, x-power decreasing).
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnknownField

_PI = math.pi


@dataclass(frozen=True)
class ScalarField:
    """Named analytic function on R^2.

    value(x, y) -> array; grad(x, y) -> (u_x, u_y);
    hess(x, y) -> (u_xx, u_xy, u_yy), symmetric by construction (single
    mixed component).  ``degree`` is the total polynomial degree when the
    field is a polynomial, else None.  Derived fields (e.g. a PDE right-hand
    side) may omit grad/hess.
    """

    name: str
    value: Callable
    grad: Callable | None = None
    hess: Callable | None = None
    degree: int | None = field(default=None)

    @property
    def has_gradient(self) -> bool:
        return self.grad is not None

    @property
    def has_hessian(self) -> bool:
        return self.hess is not None


def _coeff_matrix(coeffs: list[float]) -> np.ndarray:
    """Graded coefficient list -> dense (d+1)x(d+1) power matrix c[i, j]."""
    n = len(coeffs)
    d = 0
    while (d + 1) * (d + 2) // 2 < n:
        d += 1
    if (d + 1) * (d + 2) // 2 != n:
        raise UnknownField(
            f"polynomial coefficient count {n} is not a triangular number"
        )
    c = np.zeros((d + 1, d + 1))
    k = 0
    for deg in range(d + 1):
        for i in range(deg, -1, -1):
            c[i, deg - i] = coeffs[k]
            k += 1
    return c


# points per block of the polynomial evaluator, so that a block's table of
# y-powers stays in cache
_BLOCK = 8192


def _polyval(c: np.ndarray, x, y):
    """sum c[i, j] x^i y^j on x and y of any (broadcast) shape.

    Per block of points, a table of the powers of y contracted with c gives
    the coefficient of each power of x, and Horner's rule in x sums them.
    A scalar input gives a numpy scalar.
    """
    nx, ny = c.shape
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    xf, yf = x.ravel(), y.ravel()
    out = np.empty(xf.size)
    for s in range(0, xf.size, _BLOCK):
        xs, ys = xf[s:s + _BLOCK], yf[s:s + _BLOCK]
        yp = np.empty((ny, xs.size))
        yp[0] = 1.0
        for j in range(1, ny):
            np.multiply(yp[j - 1], ys, out=yp[j])
        q = c @ yp  # q[i]: the coefficient of x^i
        acc = out[s:s + _BLOCK]
        acc[:] = q[nx - 1]
        for i in range(nx - 2, -1, -1):
            acc *= xs
            acc += q[i]
    return out.reshape(x.shape)[()]


def _polyvals(cs, x, y) -> tuple:
    return tuple(_polyval(c, x, y) for c in cs)


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """Power matrix of the x (axis 0) or y (axis 1) derivative of the
    polynomial of total degree n - 1 with n x n power matrix c; the
    derivative has degree n - 2, so its matrix is (n - 1) x (n - 1), and
    1 x 1 zero for a constant."""
    n = len(c)
    if n == 1:
        return np.zeros((1, 1))
    k = np.arange(1, n)
    return c[1:, :-1] * k[:, None] if axis == 0 else c[:-1, 1:] * k


def polynomial_field(coeffs, name: str | None = None) -> ScalarField:
    """Polynomial sum c_ij x^i y^j from graded coefficients c00,c10,c01,..."""
    coeffs = [float(v) for v in coeffs]
    c = _coeff_matrix(coeffs)
    cx, cy = _derivative(c, 0), _derivative(c, 1)
    hess = (_derivative(cx, 0), _derivative(cx, 1), _derivative(cy, 1))
    if name is None:
        name = "poly:" + ",".join(repr(v) for v in coeffs)
    return ScalarField(name=name, value=functools.partial(_polyval, c),
                       grad=functools.partial(_polyvals, (cx, cy)),
                       hess=functools.partial(_polyvals, hess),
                       degree=c.shape[0] - 1)


def affine_field(cx: float, cy: float, c0: float) -> ScalarField:
    return polynomial_field([c0, cx, cy], name=f"affine({cx:g},{cy:g},{c0:g})")


def _monomial_name(i: int, j: int) -> str:
    if i == 0 and j == 0:
        return "one"
    part = lambda sym, e: "" if e == 0 else (sym if e == 1 else f"{sym}{e}")
    return part("x", i) + part("y", j)


def monomial_field(i: int, j: int) -> ScalarField:
    coeffs = [0.0] * ((i + j) * (i + j + 1) // 2) + [0.0] * (i + j + 1)
    # graded position of (i, j) inside its degree block: x-power decreasing
    coeffs[(i + j) * (i + j + 1) // 2 + (i + j - i)] = 1.0
    return polynomial_field(coeffs, name=_monomial_name(i, j))


def _sinsin() -> ScalarField:
    def value(x, y):
        return np.sin(_PI * np.asarray(x)) * np.sin(_PI * np.asarray(y))

    def grad(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        return (
            _PI * np.cos(_PI * x) * np.sin(_PI * y),
            _PI * np.sin(_PI * x) * np.cos(_PI * y),
        )

    def hess(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        ss = np.sin(_PI * x) * np.sin(_PI * y)
        cc = np.cos(_PI * x) * np.cos(_PI * y)
        return (-_PI ** 2 * ss, _PI ** 2 * cc, -_PI ** 2 * ss)

    return ScalarField(name="sinsin", value=value, grad=grad, hess=hess)


def _expxy() -> ScalarField:
    def value(x, y):
        return np.exp(np.asarray(x) + np.asarray(y))

    def grad(x, y):
        v = value(x, y)
        return v, v

    def hess(x, y):
        v = value(x, y)
        return v, v, v

    return ScalarField(name="expxy", value=value, grad=grad, hess=hess)


_FIXED: dict[str, ScalarField] = {}
for _i in range(5):
    for _j in range(5 - _i):
        _f = monomial_field(_i, _j)
        _FIXED[_f.name] = _f
for _f in (_sinsin(), _expxy()):
    _FIXED[_f.name] = _f

_AFFINE_RE = re.compile(r"affine\(([^)]*)\)$")
_POLY_RE = re.compile(r"poly[:(]([^)]*)\)?$")


def list_fields() -> list[str]:
    """Fixed registry names (parameterized families excluded)."""
    return sorted(_FIXED)


def get_field(name: str) -> ScalarField:
    """Registry lookup; raises UnknownField on a miss."""
    name = name.strip()
    if name in _FIXED:
        return _FIXED[name]
    m = _AFFINE_RE.match(name)
    if m:
        parts = [p for p in m.group(1).split(",") if p.strip()]
        if len(parts) != 3:
            raise UnknownField(f"affine takes 3 coefficients, got {len(parts)}")
        return affine_field(*(float(p) for p in parts))
    m = _POLY_RE.match(name)
    if m:
        parts = [p for p in m.group(1).split(",") if p.strip()]
        if not parts:
            raise UnknownField("poly needs at least one coefficient")
        return polynomial_field([float(p) for p in parts])
    raise UnknownField(name)


def scaled(f: ScalarField, c: float, name: str | None = None) -> ScalarField:
    """c * f with evaluators scaled through."""
    grad = None
    hess = None
    if f.grad is not None:
        grad = lambda x, y: tuple(c * g for g in f.grad(x, y))
    if f.hess is not None:
        hess = lambda x, y: tuple(c * h for h in f.hess(x, y))
    return ScalarField(
        name=name or f"{c:g}*{f.name}",
        value=lambda x, y: c * f.value(x, y),
        grad=grad,
        hess=hess,
        degree=f.degree,
    )


def neg_laplacian(f: ScalarField) -> ScalarField:
    """-(f_xx + f_yy) as a value-only field (manufactured right-hand side)."""
    if f.hess is None:
        raise UnknownField(f"{f.name} has no Hessian evaluators")

    def value(x, y):
        hxx, _, hyy = f.hess(x, y)
        return -(hxx + hyy)

    deg = None if f.degree is None else max(f.degree - 2, 0)
    return ScalarField(name=f"-lap({f.name})", value=value, degree=deg)


def random_polynomial(rng: np.random.Generator, degree: int = 4) -> ScalarField:
    """Random polynomial of total degree <= degree, coefficients U[-1, 1]."""
    n = (degree + 1) * (degree + 2) // 2
    return polynomial_field(rng.uniform(-1.0, 1.0, size=n))
