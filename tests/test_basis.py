"""Direct checks of ``_basis.tabulate``: orthonormality on the quadrature
rule, values and derivatives against the basis built symbolically, and a
SHA-256 pin of its bytes on the points the quotient engine tabulates."""
import hashlib

import numpy as np
import pytest
import sympy

from circumlab import _basis
from circumlab.quadrature import make_rule

KEYS = ("v", "x", "y", "xx", "xy", "yy")


def rule_points(degree):
    """The points of the rule the degree-``degree`` pencil integrates with."""
    rule = make_rule(min(2 * degree, 30))
    return rule.points[:, 1], rule.points[:, 2], rule.weights


def leg_and_vertex_points(degree):
    """The Gauss points of both reference legs that the edge-mean
    constraints use, then the three vertices, the collapsed one last."""
    t = 0.5 * (np.polynomial.legendre.leggauss(degree // 2 + 2)[0] + 1.0)
    zero = np.zeros_like(t)
    return (np.concatenate([t, zero, [0.0, 1.0, 0.0]]),
            np.concatenate([zero, t, [0.0, 0.0, 1.0]]))


def digest(tab):
    h = hashlib.sha256()
    for key in KEYS:
        if key in tab:
            h.update(key.encode())
            h.update(np.ascontiguousarray(tab[key]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("degree", [8, 14])
def test_orthonormal_on_the_rule(degree):
    x, y, w = rule_points(degree)
    v = _basis.tabulate(degree, x, y, order=0)["v"]
    gram = v.T @ (w[:, None] * v)
    assert np.max(np.abs(gram - np.eye(v.shape[1]))) <= 1e-13


def symbolic_basis(degree):
    """psi_mn = sqrt(2 (2m+1) (m+n+1)) P_m^(0,0)(xi) (1-y)^m P_n^(2m+1,0)(2y-1)
    as polynomials in x and y, with their first and second derivatives, in
    the order of ``KEYS``."""
    x, y, s = sympy.symbols("x y s")
    xi = 2 * x / (1 - y) - 1
    columns = []
    for m, n in _basis.index_pairs(degree):
        p = sympy.jacobi(m, 0, 0, s).subs(s, xi) * (1 - y) ** m
        q = sympy.jacobi(n, 2 * m + 1, 0, 2 * y - 1)
        psi = sympy.sqrt(2 * (2 * m + 1) * (m + n + 1)) * sympy.cancel(p) * q
        parts = (psi, psi.diff(x), psi.diff(y), psi.diff(x, 2), psi.diff(x, y),
                 psi.diff(y, 2))
        columns.append([sympy.lambdify((x, y), e, "numpy") for e in parts])
    return columns


def test_values_and_derivatives_match_symbolic_basis():
    degree = 4
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.02, 0.98, (2, 12))
    x, y = np.minimum(a, b), 1.0 - np.maximum(a, b)  # interior points
    tab = _basis.tabulate(degree, x, y)
    assert set(tab) == set(KEYS)
    for col, funcs in enumerate(symbolic_basis(degree)):
        for key, f in zip(KEYS, funcs):
            want = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
            got = tab[key][:, col]
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), \
                (col, key)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("x, y, npts", [(0.2, 0.3, 1), ([0.2, 0.1], [0.3, 0.5], 2)],
                         ids=["scalar", "vector"])
def test_keys_shape_and_dtype(order, x, y, npts):
    tab = _basis.tabulate(3, x, y, order=order)
    assert list(tab) == list(KEYS[:(1, 3, 6)[order]])
    for a in tab.values():
        assert a.shape == (npts, 10) and a.dtype == np.float64


# taken before tabulation built whole arrays; any change to the bits of
# the basis shows here before it reaches a quotient
PINS = {
    4: ("9e9f243ab89f51e24413b76f703d03f88490c33f00c72e15afd1cf1e57d393f1",
        "57fea6f767fc6a8f055370e6f9d188ba724377d94c0b8a647c37f83fc2652346"),
    8: ("dbadae4764a5b02cdbdffda48f37dbe6112b4f580e14aef0bfffd28b0702a535",
        "9b90710030ef066954234e43efd2851c5d8e96d2077658deaee35fcf6f431b44"),
    14: ("422cec88b1ae3d643ad2f212875ca1975db876a304dbf365e64d267e0928f7ff",
         "c53b95588a15b4f4883ff057042cfb90bb2d562b2bc8f522d0fb4bb14064fb37"),
}


@pytest.mark.parametrize("degree", sorted(PINS))
def test_tabulation_bytes_pinned(degree):
    x, y, _ = rule_points(degree)
    assert digest(_basis.tabulate(degree, x, y)) == PINS[degree][0]
    x, y = leg_and_vertex_points(degree)
    assert digest(_basis.tabulate(degree, x, y, order=0)) == PINS[degree][1]
