"""Analytic scalar fields with exact gradients and Hessians.

Fields are immutable bundles of vectorized evaluators; all functions accept
numpy arrays (or scalars) for x and y.  The registry serves fixed names
("sinsin", "expxy", monomials through degree 4) and two parameterized
families: "affine(cx,cy,c0)" and "poly:c00,c10,c01,c20,..." with
coefficients in graded order (degree by degree, x-power decreasing).

Polynomials, ``sinsin`` and ``expxy`` carry a jet, one evaluator for value,
gradient and Hessian at once, and their ``value``, ``grad`` and ``hess``
are views of that one computation, so each returns the jet's bits by
construction.  ``sinsin`` and ``expxy`` define only the jet and take the
three from its parts.  A polynomial's six derivative layers are one stack
of power matrices, and ``_polyval`` evaluates full-width rows of it: all
six for the jet, the value's, the gradient's or the Hessian's rows for the
views.  This module imports nothing of the package but ``errors``.
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

    ``jet``, when set, returns (value, (u_x, u_y), (u_xx, u_xy, u_yy)) from
    one call; the registry's fields build value, grad and hess as views of
    the same computation, so they return the jet's bits.  A jet serves only
    the evaluators it was built with: the field records them, and a copy
    made by ``dataclasses.replace`` with another value, grad or hess (a
    weakened Hessian, a counting or timing wrapper) has no jet.
    """

    name: str
    value: Callable
    grad: Callable | None = None
    hess: Callable | None = None
    degree: int | None = field(default=None)
    jet: Callable | None = None
    # the (value, grad, hess) that ``jet`` was built with
    _jet_of: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        evaluators = (self.value, self.grad, self.hess)
        if self.jet is None or self._jet_of not in (None, evaluators):
            object.__setattr__(self, "jet", None)
            object.__setattr__(self, "_jet_of", None)
        else:
            object.__setattr__(self, "_jet_of", evaluators)


# the (x, y) derivative orders of the six layers of a polynomial's stack:
# value, u_x, u_y, u_xx, u_xy, u_yy
_LAYERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@functools.cache
def _stack_map(n_coeffs: int) -> tuple:
    """Where the (6, n, n) stack of a polynomial with ``n_coeffs`` graded
    coefficients gets its entries: (n, dst, src, f1, f2) with the stack's
    flat entries ``dst`` equal to (coeffs[src] * f1) * f2 and all others
    zero.  A derivative of c x^p y^q carries its x factors first, so
    u_xx takes (c * p) * (p - 1) and u_xy takes (c * p) * q."""
    d = 0
    while (d + 1) * (d + 2) // 2 < n_coeffs:
        d += 1
    if (d + 1) * (d + 2) // 2 != n_coeffs:
        raise UnknownField(
            f"polynomial coefficient count {n_coeffs} is not a triangular number"
        )
    n = d + 1
    graded = [(i, deg - i) for deg in range(n) for i in range(deg, -1, -1)]
    entries = []
    for layer, (ax, ay) in enumerate(_LAYERS):
        for k, (p, q) in enumerate(graded):
            if p >= ax and q >= ay:
                factors = [p - r for r in range(ax)] + [q - r for r in range(ay)]
                factors += [1] * (2 - len(factors))
                entries.append(((layer * n + p - ax) * n + q - ay, k, *factors))
    dst, src, f1, f2 = zip(*entries)
    arrays = (np.array(dst), np.array(src), np.array(f1, dtype=float),
              np.array(f2, dtype=float))
    for a in arrays:  # shared by every field of this size
        a.flags.writeable = False
    return (n, *arrays)


# points per block: ``_polyval`` tabulates the powers of y for this many
# points at a time, so that a block's table stays in cache, and fem streams
# its mesh passes through element blocks of at most this many rule points,
# so that a field's six jet arrays stay small and none spans a whole mesh
BLOCK_POINTS = 8192
# the evaluator's matrix products take a multiple of this many columns
_COLUMNS = 16


def _polyval(c: np.ndarray, x, y) -> tuple:
    """sum c[r, i, j] x^i y^j for each matrix r of a (k, n, n) stack, on x
    and y of any (broadcast) shape: a tuple of k arrays (numpy scalars for
    scalar input).

    Per block of ``BLOCK_POINTS`` points, one table of the powers of y
    contracted with the stack by one matrix product gives the coefficient
    of each power of x in every row, and one Horner pass in x sums them for
    all rows.  Every row sums the same n x n terms whichever rows come
    with it, so a polynomial's views equal its jet, signed zeros included.
    The table is padded with zero columns to a multiple of ``_COLUMNS``:
    OpenBLAS rounds a single column, and the leftover columns of a large
    product, in an order that depends on the number of rows, so unpadded a
    point could get other bits alone than in a batch, and from a view than
    from the jet.
    """
    k, nx, ny = c.shape
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    xf, yf = x.ravel(), y.ravel()
    rows = c.reshape(k * nx, ny)
    out = np.empty((k, xf.size))
    for s in range(0, xf.size, BLOCK_POINTS):
        xs, ys = xf[s:s + BLOCK_POINTS], yf[s:s + BLOCK_POINTS]
        m = xs.size
        yp = np.zeros((ny, -(-m // _COLUMNS) * _COLUMNS))
        yp[0] = 1.0
        powers = yp[:, :m]
        for j in range(1, ny):
            np.multiply(powers[j - 1], ys, out=powers[j])
        q = (rows @ yp)[:, :m].reshape(k, nx, m)  # q[r, i]: coefficient of x^i
        acc = out[:, s:s + BLOCK_POINTS]
        acc[:] = q[:, nx - 1]
        for i in range(nx - 2, -1, -1):
            acc *= xs
            acc += q[:, i]
    return tuple(o.reshape(x.shape)[()] for o in out)


def _polyval_one(c: np.ndarray, x, y):
    return _polyval(c, x, y)[0]


def _polyjet(c: np.ndarray, x, y) -> tuple:
    v, gx, gy, hxx, hxy, hyy = _polyval(c, x, y)
    return v, (gx, gy), (hxx, hxy, hyy)


def polynomial_field(coeffs, name: str | None = None) -> ScalarField:
    """Polynomial sum c_ij x^i y^j from graded coefficients c00,c10,c01,...

    The power matrices of the value, u_x, u_y, u_xx, u_xy and u_yy are one
    (6, n, n) stack, each zero-padded to the value's n x n; ``jet``
    evaluates all of it and ``value``, ``grad`` and ``hess`` its rows 0,
    1-2 and 3-5 at full width, each the jet's terms.  Raises UnknownField
    for a non-finite coefficient.
    """
    coeffs = [float(v) for v in coeffs]
    bad = [v for v in coeffs if not math.isfinite(v)]
    if bad:
        raise UnknownField(f"polynomial coefficient {bad[0]!r} is not finite")
    n, dst, src, f1, f2 = _stack_map(len(coeffs))
    stack = np.zeros((6, n, n))
    np.put(stack, dst, np.array(coeffs)[src] * f1 * f2)
    stack.flags.writeable = False
    if name is None:
        name = "poly:" + ",".join(repr(v) for v in coeffs)
    return ScalarField(name=name, value=functools.partial(_polyval_one, stack[:1]),
                       grad=functools.partial(_polyval, stack[1:3]),
                       hess=functools.partial(_polyval, stack[3:]),
                       degree=n - 1, jet=functools.partial(_polyjet, stack))


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


def _from_jet(name: str, jet: Callable) -> ScalarField:
    """The field whose value, gradient and Hessian are the parts of
    ``jet``."""
    return ScalarField(name=name, value=lambda x, y: jet(x, y)[0],
                       grad=lambda x, y: jet(x, y)[1],
                       hess=lambda x, y: jet(x, y)[2], jet=jet)


def _sinsin_jet(x, y):
    px = _PI * np.asarray(x)
    py = _PI * np.asarray(y)
    sx, sy, cx, cy = np.sin(px), np.sin(py), np.cos(px), np.cos(py)
    ss = sx * sy
    hxx = -_PI ** 2 * ss
    return ss, (_PI * cx * sy, _PI * sx * cy), (hxx, _PI ** 2 * (cx * cy), hxx)


def _expxy_jet(x, y):
    v = np.exp(np.asarray(x) + np.asarray(y))
    return v, (v, v), (v, v, v)


_FIXED: dict[str, ScalarField] = {}
for _i in range(5):
    for _j in range(5 - _i):
        _f = monomial_field(_i, _j)
        _FIXED[_f.name] = _f
for _f in (_from_jet("sinsin", _sinsin_jet), _from_jet("expxy", _expxy_jet)):
    _FIXED[_f.name] = _f

_AFFINE_RE = re.compile(r"affine\(([^)]*)\)$")
_POLY_RE = re.compile(r"poly(?::(.*)|\((.*)\))$")


def _coefficients(family: str, text: str) -> list[float]:
    """The comma-separated numbers of ``text``, empty entries skipped;
    raises UnknownField naming the first entry that is not a number."""
    out = []
    for part in filter(str.strip, text.split(",")):
        try:
            out.append(float(part))
        except ValueError:
            raise UnknownField(
                f"{family} coefficient {part.strip()!r} is not a number") from None
    return out


def get_field(name: str) -> ScalarField:
    """Registry lookup; raises UnknownField on a miss or a malformed
    ``affine(cx,cy,c0)``, ``poly:LIST`` or ``poly(LIST)``."""
    name = name.strip()
    if name in _FIXED:
        return _FIXED[name]
    m = _AFFINE_RE.match(name)
    if m:
        coeffs = _coefficients("affine", m.group(1))
        if len(coeffs) != 3:
            raise UnknownField(f"affine takes 3 coefficients, got {len(coeffs)}")
        return affine_field(*coeffs)
    m = _POLY_RE.match(name)
    if m:
        coeffs = _coefficients("poly", m.group(m.lastindex))
        if not coeffs:
            raise UnknownField("poly needs at least one coefficient")
        return polynomial_field(coeffs)
    raise UnknownField(name)


def neg_laplacian(f: ScalarField) -> ScalarField:
    """-(f_xx + f_yy) as a value-only field (manufactured right-hand side)."""
    if f.hess is None:
        raise UnknownField(f"{f.name} has no Hessian evaluators")

    def value(x, y):
        hxx, _, hyy = f.hess(x, y)
        return -(hxx + hyy)

    deg = None if f.degree is None else max(f.degree - 2, 0)
    return ScalarField(name=f"-lap({f.name})", value=value, degree=deg)

