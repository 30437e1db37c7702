import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circumlab.errors import UnknownField
from circumlab.fields import (
    ScalarField,
    affine_field,
    get_field,
    monomial_field,
    neg_laplacian,
    polynomial_field,
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
        for want in ("one", "x", "y", "xy", "x2", "y2", "x2y2", "x4", "y4", "x3y",
                     "xy3", "sinsin", "expxy"):
            assert get_field(want).name == want

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

    @pytest.mark.parametrize("make", [
        lambda: polynomial_field([float("nan")]),
        lambda: polynomial_field([1.0, 2.0, float("inf")]),
        lambda: polynomial_field([0.0, -math.inf, 0.0]),
        lambda: affine_field(float("nan"), 0.0, 0.0),
        lambda: get_field("poly:nan"),
        lambda: get_field("poly:1,2,inf"),
        lambda: get_field("poly:1e400"),
        lambda: get_field("affine(nan,0,0)"),
    ], ids=["nan", "inf", "-inf", "affine-nan", "poly:nan", "poly:1,2,inf",
            "overflow", "affine(nan,0,0)"])
    def test_non_finite_coefficients_rejected(self, make):
        with pytest.raises(UnknownField, match="not finite"):
            make()

    def test_expxy_derivatives_equal_value(self):
        f = get_field("expxy")
        v = f.value(0.3, 0.4)
        assert f.grad(0.3, 0.4)[0] == pytest.approx(float(v))
        assert f.hess(0.3, 0.4)[1] == pytest.approx(float(v))


class TestDerived:
    def test_neg_laplacian_sinsin(self):
        f = get_field("sinsin")
        g = neg_laplacian(f)
        x, y = 0.3, 0.7
        assert float(g.value(x, y)) == pytest.approx(
            2 * math.pi ** 2 * float(f.value(x, y)), rel=1e-13
        )

    def test_neg_laplacian_needs_a_hessian(self):
        bare = ScalarField(name="bare", value=lambda x, y: np.asarray(x))
        with pytest.raises(UnknownField, match="bare has no Hessian"):
            neg_laplacian(bare)

    def test_polynomial_gradient_hessian_exact(self):
        rng = np.random.default_rng(31)
        f = polynomial_field(rng.uniform(-1.0, 1.0, size=15))  # degree 4
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
        f = polynomial_field(rng.uniform(-1.0, 1.0, size=21))  # degree 5
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

    @pytest.mark.parametrize("degree", range(9))
    def test_stack_equals_derivative_construction(self, degree):
        # the stack as built by slicing the power matrix and multiplying by
        # the exponents once per derivative.  Rounding makes (c * 5) * 3 and
        # (c * 3) * 5 differ for about one c in five, so 40 draws pin the
        # order of the factors; -0.0 and 0.0 coefficients check that signed
        # zeros land where that construction puts them
        rng = np.random.default_rng(300 + degree)
        pairs = _graded_pairs(degree)
        n = degree + 1

        def derivative(m, axis):
            if len(m) == 1:
                return np.zeros((1, 1))
            k = np.arange(1, len(m))
            return m[1:, :-1] * k[:, None] if axis == 0 else m[:-1, 1:] * k

        for _ in range(40):
            coeffs = rng.uniform(-3, 3, size=len(pairs))
            coeffs[::4] = -0.0
            coeffs[1::5] = 0.0
            c = np.zeros((n, n))
            for coef, (i, j) in zip(coeffs, pairs):
                c[i, j] = coef
            cx, cy = derivative(c, 0), derivative(c, 1)
            parts = (c, cx, cy, derivative(cx, 0), derivative(cx, 1), derivative(cy, 1))
            want = np.zeros((6, n, n))
            for layer, part in zip(want, parts):
                layer[:len(part), :len(part)] = part
            f = polynomial_field(coeffs)
            stack = f.jet.args[0]
            assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
            assert not stack.flags.writeable
            assert f.value.args[0].shape == (1, n, n)
            assert f.grad.args[0].shape == (2, n, n)
            assert f.hess.args[0].shape == (3, n, n)
            assert f.name == "poly:" + ",".join(repr(float(v)) for v in coeffs)


def _jet_components(out):
    v, (gx, gy), (hxx, hxy, hyy) = out
    return v, gx, gy, hxx, hxy, hyy


def _evaluator_components(f, x, y):
    return (f.value(x, y), *f.grad(x, y), *f.hess(x, y))


def _assert_same_bits(got, want):
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@st.composite
def _polynomials(draw):
    d = draw(st.integers(0, 6))
    n = (d + 1) * (d + 2) // 2
    coeffs = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    return polynomial_field(coeffs)


# (x shape, y shape): scalars, 1-D, 2-D and broadcast inputs
_SHAPES = [((), ()), ((1,), (1,)), ((2,), (2,)), ((9,), (9,)), ((3, 4), (3, 4)),
           ((4, 1), (1, 5)), ((), (6,)), ((3, 2), ())]


@st.composite
def _points(draw):
    sx, sy = draw(st.sampled_from(_SHAPES))
    coords = st.floats(-3, 3)
    x = draw(hnp.arrays(np.float64, sx, elements=coords))
    y = draw(hnp.arrays(np.float64, sy, elements=coords))
    # a 0-d draw stands for a Python float
    return (float(x) if x.ndim == 0 else x), (float(y) if y.ndim == 0 else y)


class TestJet:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.one_of(_polynomials(), st.sampled_from([get_field("sinsin"), get_field("expxy")])),
           _points())
    # the jet gives u_x = +0.0 here, and a gradient that skipped the
    # zero-padding terms of the stack gave -0.0
    @example(polynomial_field([0.0, 0.0, 0.0, -1.0, 2.22507386e-313, 0.0]),
             (0.0, -9.70232735499198e-225))
    def test_equals_evaluators_bit_for_bit(self, f, pts):
        x, y = pts
        _assert_same_bits(_jet_components(f.jet(x, y)), _evaluator_components(f, x, y))

    @pytest.mark.parametrize("size", [8191, 8192, 8193, 16385])
    def test_across_blocks_and_alone(self, size):
        # 8193 and 16385 points leave a last block of one point
        rng = np.random.default_rng(size)
        f = polynomial_field(rng.uniform(-1.0, 1.0, size=28))  # degree 6
        x, y = rng.uniform(-2, 2, size=(2, size))
        jet = _jet_components(f.jet(x, y))
        _assert_same_bits(jet, _evaluator_components(f, x, y))
        for k in (0, size - 1):
            alone = _jet_components(f.jet(x[k], y[k]))
            _assert_same_bits(alone, [c[k] for c in jet])

    @pytest.mark.parametrize("name", ["x2y", "poly:1,2,3,4,5,6", "sinsin", "expxy"])
    def test_dropped_when_an_evaluator_is_replaced(self, name):
        f = get_field(name)
        assert f.jet is not None
        for kind in ("value", "grad", "hess"):
            other = dataclasses.replace(f, **{kind: lambda x, y: getattr(f, kind)(x, y)})
            assert other.jet is None
        assert dataclasses.replace(f, hess=f.hess).jet is f.jet
        assert dataclasses.replace(f, name="renamed").jet is f.jet

    def test_hand_built_field_keeps_its_jet(self):
        f = get_field("sinsin")
        g = ScalarField("copy", f.value, f.grad, f.hess, jet=f.jet)
        assert g.jet is f.jet
        assert dataclasses.replace(g, hess=lambda x, y: f.hess(x, y)).jet is None

    def test_derived_fields_have_no_jet(self):
        f = get_field("x2y")
        assert neg_laplacian(f).jet is None
