"""Exact transformation laws of the triangle metrics and of the
interpolation error, as hypothesis properties on random, needle and sliver
triangles.

- R_K and C(K) scale by lambda under K -> lambda K.
- Under K -> lambda K and v -> v(./lambda), |v - I v|_{1,2} is unchanged
  and |v|_{2,2} scales by 1/lambda.
- Every metric and the error seminorms are invariant under relabelling,
  rotation and reflection.

Each law holds exactly; in float64 it holds to a relative tolerance that
grows with the triangle's conditioning kappa = h_K^2 / S.  Rounding the
vertex coordinates moves the area by about eps * h_K^2, which is relative
eps * kappa, and the hat gradients of the interpolant by the same relative
amount.  An angle from the law of cosines is resolved to about
eps / theta^2 relative, and theta_min >= 2 / kappa, so the angles are
checked to eps * kappa^2.  The triangles have diameter of order one and the
fields coefficients of order one, so that the nodal values carry no
rounding beyond the conditioning of the shape.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlab.fields import ScalarField, polynomial_field
from circumlab.geometry import Triangle, TriangleMetrics, metrics
from circumlab.interp import error_report

EPS = np.finfo(float).eps
SLACK = 64.0
DEGREE = 4
# graded (i, j) of each coefficient of a degree-4 polynomial, as
# ``polynomial_field`` orders them: degree by degree, x-power decreasing
POWERS = [(i, d - i) for d in range(DEGREE + 1) for i in range(d, -1, -1)]
ANGLES = ("theta_min", "theta_max")
EXAMPLES = settings(max_examples=60, deadline=None)


def kappa(tri: Triangle) -> float:
    m = metrics(tri)
    return m.h_K ** 2 / m.S


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


@st.composite
def triangles(draw) -> Triangle:
    """A random triangle with edges of 0.3 to 1.5 from a vertex in
    [-1, 1]^2 and an angle there of 0.1 to pi - 0.1; a needle, the
    isosceles needle_triangle(h, alpha) scaled to unit base; or a right
    sliver with legs 1 and 1e-3 to 0.1."""
    kind = draw(st.sampled_from(["random", "needle", "sliver"]))
    if kind == "random":
        x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        r1, r2 = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        beta = draw(st.floats(0.1, math.pi - 0.1))
        return Triangle((x, y), (x + r1 * math.cos(phi), y + r1 * math.sin(phi)),
                        (x + r2 * math.cos(phi + beta), y + r2 * math.sin(phi + beta)))
    if kind == "needle":
        h = 2.0 ** -draw(st.floats(2.0, 10.0))
        alpha = draw(st.floats(1.2, 1.9))
        return Triangle((0.0, 0.0), (1.0, 0.0), (0.5, h ** (alpha - 1.0)))
    eps = 10.0 ** -draw(st.floats(1.0, 3.0))
    return Triangle((0.0, 0.0), (1.0, 0.0), (0.0, eps))


# coefficients of magnitude 1/4 to 1, so that no part of the field is
# negligible against the others
coefficients = st.lists(
    st.tuples(st.floats(0.25, 1.0), st.booleans()).map(lambda c: -c[0] if c[1] else c[0]),
    min_size=len(POWERS), max_size=len(POWERS))

scales = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def moved(tri: Triangle, f) -> Triangle:
    return Triangle(f(tri.p1), f(tri.p2), f(tri.p3))


def invariants(m: TriangleMetrics) -> dict:
    """The metrics with the edges A, B, C, which follow the labels, as the
    shortest, middle and longest edge."""
    d = vars(m).copy()
    d["A"], d["B"], d["C"] = sorted((m.A, m.B, m.C))
    return d


def assert_metrics_equal(got: TriangleMetrics, want: TriangleMetrics, k: float,
                         scale: float = 1.0) -> None:
    """Every metric of ``got`` equals ``scale`` times that of ``want``
    (area: scale^2; angles: unscaled) to the tolerance of conditioning k."""
    got = invariants(got)
    for name, w in invariants(want).items():
        if name in ANGLES:
            assert close(got[name], w, SLACK * EPS * k * k), name
        else:
            power = 2 if name == "S" else 1
            assert close(got[name], scale ** power * w, SLACK * EPS * k), name


def orthogonal(phi: float, reflect: bool) -> np.ndarray:
    """Rotation by phi, after the reflection (x, y) -> (x, -y) if ``reflect``."""
    c, s = math.cos(phi), math.sin(phi)
    q = np.array([[c, -s], [s, c]])
    return q @ np.diag([1.0, -1.0]) if reflect else q


def composed(v: ScalarField, q: np.ndarray) -> ScalarField:
    """w(x) = v(q^T x), with w's gradient q grad v and Hessian
    q hess(v) q^T; a polynomial of v's degree."""

    def back(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return q[0, 0] * x + q[1, 0] * y, q[0, 1] * x + q[1, 1] * y

    def grad(x, y):
        gx, gy = v.grad(*back(x, y))
        return q[0, 0] * gx + q[0, 1] * gy, q[1, 0] * gx + q[1, 1] * gy

    def hess(x, y):
        hxx, hxy, hyy = v.hess(*back(x, y))
        h = np.array([[hxx, hxy], [hxy, hyy]])
        r = np.einsum("ia,ab...,jb->ij...", q, h, q)
        return r[0, 0], r[0, 1], r[1, 1]

    return ScalarField(name=f"{v.name} rotated", value=lambda x, y: v.value(*back(x, y)),
                       grad=grad, hess=hess, degree=v.degree)


class TestGeometry:
    @EXAMPLES
    @given(triangles(), scales)
    def test_scaling(self, tri, lam):
        got = metrics(moved(tri, lambda p: (lam * p[0], lam * p[1])))
        assert_metrics_equal(got, metrics(tri), kappa(tri), lam)

    @EXAMPLES
    @given(triangles(), st.permutations([0, 1, 2]))
    def test_relabelling(self, tri, order):
        v = [tri.p1, tri.p2, tri.p3]
        got = metrics(Triangle(*(v[i] for i in order)))
        assert_metrics_equal(got, metrics(tri), kappa(tri))

    @EXAMPLES
    @given(triangles(), st.floats(0.0, 2.0 * math.pi), st.booleans())
    def test_rotation_and_reflection(self, tri, phi, reflect):
        q = orthogonal(phi, reflect)
        got = metrics(moved(tri, lambda p: tuple(q @ p)))
        assert_metrics_equal(got, metrics(tri), kappa(tri))


class TestInterpolationError:
    def check(self, got, want, k: float, semi_scale: float = 1.0) -> None:
        rel = SLACK * EPS * k
        assert close(got.err_1p, want.err_1p, rel)
        assert close(got.semi_2p, semi_scale * want.semi_2p, rel)

    @EXAMPLES
    @given(triangles(), coefficients, scales)
    def test_scaling(self, tri, coeffs, lam):
        pulled = polynomial_field([c / lam ** (i + j) for c, (i, j) in zip(coeffs, POWERS)])
        got = error_report(moved(tri, lambda p: (lam * p[0], lam * p[1])), pulled)
        self.check(got, error_report(tri, polynomial_field(coeffs)), kappa(tri), 1.0 / lam)

    @EXAMPLES
    @given(triangles(), coefficients, st.permutations([0, 1, 2]))
    def test_relabelling(self, tri, coeffs, order):
        v = polynomial_field(coeffs)
        pts = [tri.p1, tri.p2, tri.p3]
        got = error_report(Triangle(*(pts[i] for i in order)), v)
        self.check(got, error_report(tri, v), kappa(tri))

    @EXAMPLES
    @given(triangles(), coefficients, st.floats(0.0, 2.0 * math.pi), st.booleans())
    def test_rotation_and_reflection(self, tri, coeffs, phi, reflect):
        v = polynomial_field(coeffs)
        q = orthogonal(phi, reflect)
        got = error_report(moved(tri, lambda p: tuple(q @ p)), composed(v, q))
        self.check(got, error_report(tri, v), kappa(tri))


@pytest.mark.parametrize("reflect", [False, True])
def test_composed_field_derivatives(reflect):
    # the rotated field's gradient and Hessian against central differences
    # of its values and gradient: the invariance of |w|_{2,2} alone would
    # not see an unrotated Hessian
    w = composed(polynomial_field(np.linspace(-0.9, 0.8, len(POWERS))),
                 orthogonal(0.7, reflect))
    x, y, d = 0.2, -0.3, 1e-4

    def central(f):
        return np.array([(f(x + d, y) - f(x - d, y)) / (2 * d),
                         (f(x, y + d) - f(x, y - d)) / (2 * d)])

    assert np.allclose(w.grad(x, y), central(w.value), rtol=1e-7, atol=0.0)
    (hxx, hxy), (_, hyy) = (central(lambda x, y, k=k: w.grad(x, y)[k]) for k in (0, 1))
    assert np.allclose(w.hess(x, y), (hxx, hxy, hyy), rtol=1e-7, atol=0.0)
