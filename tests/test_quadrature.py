import math

import numpy as np
import pytest

from circumlab.errors import InconsistentSpec, InvalidExponent, UnsupportedDegree
from circumlab.fields import BLOCK_POINTS, ScalarField, get_field, monomial_field, polynomial_field
from circumlab.geometry import Triangle, reference_triangle
from circumlab.mesh import gen_uniform
from circumlab.quadrature import (
    SUP_GRID,
    FieldAtRule,
    SeminormSpec,
    barycentric_grid,
    integrate,
    make_rule,
    physical_points,
    seminorm,
    seminorm_auto,
    sup_rule,
)
from oracles import monomial_integrals, reference_moment

REF = reference_triangle()


class TestRules:
    def test_degree_1_area(self):
        assert integrate(lambda x, y: np.ones_like(x), REF, make_rule(1)) == (
            pytest.approx(0.5, rel=1e-15)
        )

    def test_degree_4_xy(self):
        got = integrate(lambda x, y: x * y, REF, make_rule(4))
        assert got == pytest.approx(1 / 24, rel=1e-14)

    def test_degree_10_x7y3(self):
        got = integrate(lambda x, y: x ** 7 * y ** 3, REF, make_rule(10))
        want = math.factorial(7) * math.factorial(3) / math.factorial(12)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 13, 20])
    def test_exactness_vs_factorial_oracle(self, degree):
        rule = make_rule(degree)
        x, y, w = physical_points(rule, REF.vertices, REF.area)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                got = float(w @ (x ** i * y ** j))
                want = float(reference_moment(i, j))
                assert abs(got - want) <= 1e-12 * want

    def test_weights_positive_sum_half(self):
        for degree in (1, 7, 19, 30):
            rule = make_rule(degree)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
            assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("degree", [0, 31, -3])
    def test_unsupported_degree(self, degree):
        with pytest.raises(UnsupportedDegree):
            make_rule(degree)

    def test_exactness_on_arbitrary_triangles(self):
        rng = np.random.default_rng(7)
        rule = make_rule(6)
        for _ in range(10):
            pts = rng.uniform(-1, 2, size=(3, 2))
            try:
                tri = Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))
            except Exception:
                continue
            exact = monomial_integrals(tri.vertices, 6)
            x, y, w = physical_points(rule, tri.vertices, tri.area)
            for (i, j), val in exact.items():
                got = float(w @ (x ** i * y ** j))
                assert got == pytest.approx(float(val), rel=1e-12, abs=1e-15)


class TestSeminorms:
    def test_x2_hessian_seminorm(self):
        got = seminorm(get_field("x2"), SeminormSpec(2, 2), REF, make_rule(4))
        assert got == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_linear_second_order_vanishes(self):
        f = get_field("affine(1,2,3)")
        for p in (1.0, 2.0, 3.5):
            assert seminorm(f, SeminormSpec(2, p), REF, make_rule(8)) == (
                pytest.approx(0.0, abs=1e-15)
            )
        assert seminorm(f, SeminormSpec(2, math.inf), REF) == pytest.approx(0.0)

    def test_gradient_seminorm_closed_form(self):
        f = polynomial_field([0, -1, 0, 1, 0, 0])  # x^2 - x
        got = seminorm(f, SeminormSpec(1, 2), REF, make_rule(4))
        assert got == pytest.approx(1 / math.sqrt(6), rel=1e-14)

    def test_mixed_term_weight_two(self):
        f = get_field("xy")  # hess = (0, 1, 0)
        got = seminorm(f, SeminormSpec(2, 2), REF, make_rule(4))
        assert got == pytest.approx(math.sqrt(2 * 0.5), rel=1e-14)
        # p = inf takes a plain max instead
        got_inf = seminorm(f, SeminormSpec(2, math.inf), REF)
        assert got_inf == pytest.approx(1.0)

    def test_missing_hessian_raises(self):
        bare = ScalarField(name="bare", value=lambda x, y: np.asarray(x))
        with pytest.raises(InconsistentSpec):
            seminorm(bare, SeminormSpec(2, 2), REF, make_rule(4))
        with pytest.raises(InconsistentSpec):
            seminorm(bare, SeminormSpec(1, 2), REF, make_rule(4))
        with pytest.raises(InconsistentSpec):
            seminorm(bare, SeminormSpec(2, math.inf), REF)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            SeminormSpec(1, 0.5)

    def test_invalid_order(self):
        with pytest.raises(InconsistentSpec, match="order m = 3"):
            SeminormSpec(3, 2.0)

    def test_scaling_covariance(self):
        # |v o G|_{m,p,ref} = c^(m - 2/p) |v|_{m,p,c*ref} for G(x) = c x
        rng = np.random.default_rng(13)
        coeffs = rng.uniform(-1, 1, size=10)  # degree 3
        pairs = [(i, d - i) for d in range(4) for i in range(d, -1, -1)]
        for c in (0.5, 2.0, 7.0):
            scaled_tri = Triangle((0, 0), (c, 0), (0, c))
            comp = [cv * c ** (i + j) for cv, (i, j) in zip(coeffs, pairs)]
            v = polynomial_field(coeffs)
            v_of_g = polynomial_field(comp)
            for m in (0, 1, 2):
                for p in (1.0, 2.0, 4.0):
                    lhs = seminorm_auto(v_of_g, SeminormSpec(m, p), REF)
                    rhs = c ** (m - 2 / p) * seminorm_auto(
                        v, SeminormSpec(m, p), scaled_tri
                    )
                    assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_sup_estimate_monotone_under_refinement(self):
        f = get_field("sinsin")
        tri = Triangle((0.1, 0.2), (0.9, 0.3), (0.4, 0.8))
        vals = [
            seminorm(f, SeminormSpec(1, math.inf), tri, sup_rule(g))
            for g in (8, 16, 32, 64)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sup_default_is_the_sup_grid(self):
        f = get_field("sinsin")
        tri = Triangle((0.1, 0.2), (0.9, 0.3), (0.4, 0.8))
        for m in (0, 1, 2):
            spec = SeminormSpec(m, math.inf)
            assert seminorm(f, spec, tri) == seminorm(f, spec, tri, sup_rule(SUP_GRID))

    def test_given_rule_used_at_inf(self):
        f = get_field("sinsin")
        tri = Triangle((0.1, 0.2), (0.9, 0.3), (0.4, 0.8))
        rule = make_rule(4)
        x, y, _ = physical_points(rule, tri.vertices, tri.area)
        want = max(float(np.max(np.abs(g))) for g in f.grad(x, y))
        got = seminorm(f, SeminormSpec(1, math.inf), tri, rule)
        assert got == want
        assert got != seminorm(f, SeminormSpec(1, math.inf), tri)

    def test_auto_matches_fixed_high_degree(self):
        f = get_field("sinsin")
        tri = Triangle((0, 0), (0.7, 0.1), (0.2, 0.6))
        auto = seminorm_auto(f, SeminormSpec(1, 2), tri)
        fixed = seminorm(f, SeminormSpec(1, 2), tri, make_rule(30))
        assert auto == pytest.approx(fixed, rel=1e-8)

    def test_auto_exact_rule_for_even_p_polynomials(self):
        f = polynomial_field(np.arange(1.0, 16.0))  # degree 4
        got = seminorm_auto(f, SeminormSpec(1, 2), REF)
        want = seminorm(f, SeminormSpec(1, 2), REF, make_rule(12))
        assert got == pytest.approx(want, rel=1e-13)

    def test_one_seminorm(self):
        assert seminorm is seminorm_auto

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_default_converges_on_sinsin(self, m):
        # the degree-8 rule alone is off by 5.5e-5 to 6.7e-5 here, and a
        # loop that stops at 1e-4 agreement by 1.3e-11 to 1.5e-11
        f = get_field("sinsin")
        tri = Triangle((0, 0), (0.85, 0), (0.255, 0.7225))
        want = seminorm(f, SeminormSpec(m, 2), tri, make_rule(30))
        assert seminorm(f, SeminormSpec(m, 2), tri) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_default_exact_on_x6(self, m):
        # the degree-8 rule alone is off by 3.0e-3 (m = 0) and 4.3e-4 (m = 1)
        f = monomial_field(6, 0)
        want = seminorm(f, SeminormSpec(m, 2), REF, make_rule(30))
        assert seminorm(f, SeminormSpec(m, 2), REF) == pytest.approx(want, rel=1e-13)

    def test_barycentric_grid_nested(self):
        g1 = {tuple(p) for p in np.round(barycentric_grid(8), 12)}
        g2 = {tuple(p) for p in np.round(barycentric_grid(16), 12)}
        assert g1 <= g2

    def test_barycentric_grid_order(self):
        want = [(1.0 - (i + j) / 5, i / 5, j / 5) for i in range(6) for j in range(6 - i)]
        assert np.array_equal(barycentric_grid(5), np.array(want))
        with pytest.raises(UnsupportedDegree):
            barycentric_grid(0)


class TestRuleCache:
    @pytest.mark.parametrize("build, arg", [(make_rule, 6), (make_rule, 30), (sup_rule, 64)])
    def test_repeated_call_same_read_only_rule(self, build, arg):
        rule = build(arg)
        assert build(arg) is rule
        for a in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert rule.points.shape[0] == rule.weights.shape[0]


class TestJetSelection:
    """``FieldAtRule`` takes one jet call whenever the field has a jet, on
    as many elements as fit in ``BLOCK_POINTS`` rule points and on one
    more, with the same numbers as the evaluators of a copy without it."""

    @pytest.mark.parametrize("field", ["poly:1,2,3,4,5,6,7,8,9,10", "sinsin"])
    def test_one_jet_call_at_any_size(self, field):
        f = get_field(field)
        calls = []

        def counting_jet(x, y):
            calls.append(np.size(x))
            return f.jet(x, y)

        g = ScalarField(f.name, f.value, f.grad, f.hess, f.degree, counting_jet)
        jetless = ScalarField(f.name, f.value, f.grad, f.hess, f.degree)
        assert jetless.jet is None
        rule = make_rule(8)
        n_max = BLOCK_POINTS // len(rule.weights)
        mesh = gen_uniform(13)  # 338 triangles
        pts = mesh.coords
        assert len(pts) > n_max
        for n in (n_max, n_max + 1):
            geometry = tuple(a[:n] for a in mesh.geometry)
            with_jet = FieldAtRule(pts[:n], g, rule, geometry)
            without = FieldAtRule(pts[:n], jetless, rule, geometry)
            assert with_jet.hessian_power(2.0).tobytes() == without.hessian_power(2.0).tobytes()
            nodal = np.ones((n, 3))
            for a, b in zip(with_jet.error_power(nodal, 2.0), without.error_power(nodal, 2.0)):
                assert a.tobytes() == b.tobytes()
        assert calls == [n * len(rule.weights) for n in (n_max, n_max + 1)]


@pytest.mark.parametrize("name", ["poly:1,2,3,4,5,6,7,8,9,10", "sinsin", "expxy"])
@pytest.mark.parametrize("with_jet", [True, False], ids=["jet", "jetless"])
def test_nodal_rides_on_the_rule_point_call(name, with_jet):
    """``FieldAtRule.nodal`` asked for first evaluates the field once, at
    the rule points and the vertices together; its vertex values and its
    rule-point part have the bits of separate calls, and asked for after a
    rule-point evaluation it gives the same vertex values."""
    f = get_field(name)
    if not with_jet:
        f = ScalarField(f.name, f.value, f.grad, f.hess, f.degree)
    calls = []

    def counting(fn):
        def wrapper(x, y):
            calls.append(np.shape(x))
            return fn(x, y)
        return wrapper

    g = (ScalarField(f.name, f.value, f.grad, f.hess, f.degree, counting(f.jet)) if with_jet
         else ScalarField(f.name, counting(f.value), f.grad, f.hess, f.degree))
    mesh = gen_uniform(3)
    pts, rule = mesh.coords, make_rule(6)
    first = FieldAtRule(pts, g, rule, mesh.geometry)
    nodal = first.nodal
    n_rule = len(rule.weights) * len(pts)
    assert calls == [(n_rule + pts.size // 2,)]
    alone = FieldAtRule(pts, f, rule, mesh.geometry)
    assert first.value.tobytes() == alone.value.tobytes()
    assert first.hessian_power(2.0).tobytes() == alone.hessian_power(2.0).tobytes()
    for a, b in zip(first.error_power(nodal, 2.0), alone.error_power(nodal, 2.0)):
        assert a.tobytes() == b.tobytes()
    assert len(calls) == 1
    want = np.asarray(f.value(pts[..., 0], pts[..., 1]), dtype=float)
    assert nodal.shape == want.shape == (len(pts), 3)
    assert nodal.tobytes() == want.tobytes() == alone.nodal.tobytes()
