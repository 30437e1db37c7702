import math
from fractions import Fraction

import numpy as np
import pytest

from circumlab.errors import UnknownField
from circumlab.fields import (
    affine_field,
    get_field,
    list_fields,
    monomial_field,
    neg_laplacian,
    polynomial_field,
    random_polynomial,
    scaled,
)


class TestRegistry:
    def test_sinsin_identities(self):
        f = get_field("sinsin")
        x = np.linspace(0.05, 0.95, 7)
        y = np.linspace(0.1, 0.9, 7)
        hxx, hxy, hyy = f.hess(x, y)
        assert np.allclose(hxx, -math.pi ** 2 * f.value(x, y), rtol=1e-13)
        assert np.allclose(hyy, hxx)
        assert np.allclose(
            hxy, math.pi ** 2 * np.cos(math.pi * x) * np.cos(math.pi * y)
        )
        gx, gy = f.grad(x, y)
        assert np.allclose(gx, math.pi * np.cos(math.pi * x) * np.sin(math.pi * y))

    def test_affine_gradient_everywhere(self):
        f = get_field("affine(2,3,-1)")
        gx, gy = f.grad(np.array([0.0, 5.0]), np.array([-2.0, 7.0]))
        assert np.all(gx == 2.0) and np.all(gy == 3.0)
        assert float(f.value(1.0, 1.0)) == pytest.approx(4.0)

    def test_poly_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(-1, 1, size=15)  # degree 4
        f = polynomial_field(coeffs)
        pairs = [(i, d - i) for d in range(5) for i in range(d, -1, -1)]
        pts = rng.uniform(-2, 2, size=(100, 2))
        brute = sum(
            c * pts[:, 0] ** i * pts[:, 1] ** j for c, (i, j) in zip(coeffs, pairs)
        )
        assert np.allclose(f.value(pts[:, 0], pts[:, 1]), brute, rtol=1e-12, atol=1e-12)

    def test_poly_parse_both_spellings(self):
        a = get_field("poly:1,0,2")
        b = get_field("poly(1,0,2)")
        assert float(a.value(0.5, 0.25)) == float(b.value(0.5, 0.25)) == 1.5

    def test_monomials_through_degree_4_registered(self):
        names = list_fields()
        for want in ("one", "x", "y", "xy", "x2", "y2", "x2y2", "x4", "y4", "x3y",
                     "xy3", "sinsin", "expxy"):
            assert want in names

    def test_monomial_values(self):
        f = monomial_field(2, 1)
        assert f.name == "x2y"
        assert float(f.value(3.0, 2.0)) == pytest.approx(18.0)
        assert f.degree == 3

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            get_field("nope")
        with pytest.raises(UnknownField):
            get_field("poly:1,2")  # not a triangular count

    def test_expxy_derivatives_equal_value(self):
        f = get_field("expxy")
        v = f.value(0.3, 0.4)
        assert f.grad(0.3, 0.4)[0] == pytest.approx(float(v))
        assert f.hess(0.3, 0.4)[1] == pytest.approx(float(v))


class TestDerived:
    def test_scaled(self):
        f = scaled(get_field("x2"), 3.0)
        assert float(f.value(2.0, 0.0)) == pytest.approx(12.0)
        assert f.hess(0.0, 0.0)[0] == pytest.approx(6.0)

    def test_neg_laplacian_sinsin(self):
        f = get_field("sinsin")
        g = neg_laplacian(f)
        x, y = 0.3, 0.7
        assert float(g.value(x, y)) == pytest.approx(
            2 * math.pi ** 2 * float(f.value(x, y)), rel=1e-13
        )

    def test_polynomial_gradient_hessian_exact(self):
        rng = np.random.default_rng(31)
        f = random_polynomial(rng, 4)
        x, y = rng.uniform(-1, 1, size=(2, 50))
        h = 1e-6
        gx, gy = f.grad(x, y)
        fd_x = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
        fd_y = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
        assert np.allclose(gx, fd_x, atol=1e-8)
        assert np.allclose(gy, fd_y, atol=1e-8)
        h2 = 1e-5  # balances FD truncation against roundoff amplification
        hxx, hxy, hyy = f.hess(x, y)
        fd_xx = (f.value(x + h2, y) - 2 * f.value(x, y) + f.value(x - h2, y)) / h2 ** 2
        assert np.allclose(hxx, fd_xx, atol=1e-4)

    def test_affine_field_constructor(self):
        f = affine_field(1.0, -2.0, 0.5)
        assert float(f.value(2.0, 1.0)) == pytest.approx(0.5 + 2.0 - 2.0)
        assert f.degree == 1


def _graded_pairs(d):
    return [(i, k - i) for k in range(d + 1) for i in range(k, -1, -1)]


def _exact_terms(coeffs, pairs, ax, ay, x, y):
    """Exact value of the (ax, ay) derivative of sum c x^i y^j at the float
    point (x, y), and the sum of its terms' magnitudes."""
    fx, fy = Fraction(float(x)), Fraction(float(y))
    total, size = Fraction(0), Fraction(0)
    for c, (i, j) in zip(coeffs, pairs):
        if i < ax or j < ay:
            continue
        k = Fraction(c) * math.perm(i, ax) * math.perm(j, ay)
        term = k * fx ** (i - ax) * fy ** (j - ay)
        total += term
        size += abs(term)
    return total, size


class TestPolynomialEvaluator:
    @pytest.mark.parametrize("degree", range(7))
    def test_against_exact_rationals(self, degree):
        rng = np.random.default_rng(100 + degree)
        pairs = _graded_pairs(degree)
        coeffs = rng.uniform(-1, 1, size=len(pairs))
        f = polynomial_field(coeffs)
        x, y = rng.uniform(-3, 3, size=(2, 40))
        got = {(0, 0): f.value(x, y)}
        got[1, 0], got[0, 1] = f.grad(x, y)
        got[2, 0], got[1, 1], got[0, 2] = f.hess(x, y)
        for (ax, ay), vals in got.items():
            for k in range(len(x)):
                want, size = _exact_terms(coeffs, pairs, ax, ay, x[k], y[k])
                assert abs(Fraction(float(vals[k])) - want) <= Fraction(1e-13) * size

    @pytest.mark.parametrize("shape", [(), (3,), (16, 1), (16, 7), (16, 1000)])
    def test_shapes_preserved(self, shape):
        # (16, 1000) spans several blocks of the evaluator
        rng = np.random.default_rng(5)
        f = random_polynomial(rng, 5)
        x, y = rng.uniform(-1, 1, size=(2,) + shape)
        flat_x, flat_y = np.ravel(x), np.ravel(y)
        outs = [f.value(x, y), *f.grad(x, y), *f.hess(x, y)]
        flats = [f.value(flat_x, flat_y), *f.grad(flat_x, flat_y), *f.hess(flat_x, flat_y)]
        for out, flat in zip(outs, flats):
            assert np.shape(out) == shape
            assert np.array_equal(np.ravel(out), flat)
        if shape == ():
            assert all(isinstance(o, np.float64) for o in outs)

    def test_scalar_broadcasts_against_array(self):
        f = get_field("x2y")
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(f.value(2.0, y), 4.0 * y)
