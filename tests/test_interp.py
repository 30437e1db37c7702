import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlab import geometry, quadrature
from circumlab.errors import InvalidExponent, InvalidFamily
from circumlab.fem import ERROR_QUAD_DEGREE, hessian_seminorm, interpolation_h1_error
from circumlab.fields import ScalarField, get_field, polynomial_field
from circumlab.geometry import (
    Triangle,
    metrics,
    needle_triangle,
    random_triangles,
    reference_triangle,
)
from circumlab.interp import (
    NEEDLE_CSV_COLUMNS,
    error_report,
    needle_row_csv,
    needle_study,
    p1_interpolate,
)
from circumlab.mesh import Mesh
from circumlab.quadrature import make_rule
from oracles import interpolation_error_sq
from test_fem import record_calls
from test_mesh import _random_triangles

REF = reference_triangle()


def random_triangle(rng):
    pts = random_triangles(1, rng)[0]
    return Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))


class TestInterpolate:
    def test_reproduces_affine(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tri = random_triangle(rng)
            cx, cy, c0 = rng.uniform(-3, 3, size=3)
            f = get_field(f"affine({cx},{cy},{c0})")
            ih = p1_interpolate(tri, f)
            assert ih.c0 == pytest.approx(c0, abs=1e-12)
            assert ih.cx == pytest.approx(cx, abs=1e-12)
            assert ih.cy == pytest.approx(cy, abs=1e-12)

    def test_x_squared_on_reference(self):
        ih = p1_interpolate(REF, get_field("x2"))
        assert ih.coefficients == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)

    def test_sinsin_zero_on_axis_vertices(self):
        tri = Triangle((0, 0), (1, 0), (0, 1))  # all vertices on the axes
        ih = p1_interpolate(tri, get_field("sinsin"))
        assert ih.coefficients == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_matches_vertex_values(self):
        rng = np.random.default_rng(4)
        f = get_field("expxy")
        for _ in range(20):
            tri = random_triangle(rng)
            ih = p1_interpolate(tri, f)
            for p in (tri.p1, tri.p2, tri.p3):
                assert float(ih.value(*p)) == pytest.approx(
                    float(f.value(*p)), abs=1e-12
                )


class TestErrorReport:
    def test_x2_closed_form(self):
        rep = error_report(REF, get_field("x2"), 2.0)
        assert rep.err_1p == pytest.approx(1 / math.sqrt(6), rel=1e-12)
        assert rep.semi_2p == pytest.approx(math.sqrt(2), rel=1e-12)
        assert rep.ratio_1 == pytest.approx(1 / math.sqrt(12), rel=1e-12)
        assert rep.ratio_1 <= rep.kobayashi_bound
        assert rep.bound_satisfied
        assert rep.circumradius_le_one

    def test_affine_gives_zero_errors(self):
        for p in (1.0, 2.0, math.inf):
            rep = error_report(REF, get_field("affine(1,-1,2)"), p)
            assert rep.err_0p == pytest.approx(0.0, abs=1e-13)
            assert rep.err_1p == pytest.approx(0.0, abs=1e-13)
            assert rep.ratio_1 == 0.0
            assert rep.bound_satisfied

    def test_kobayashi_and_corollary_bounds_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            tri = random_triangle(rng)
            v = polynomial_field(rng.uniform(-1.0, 1.0, size=15))  # degree 4
            rep = error_report(tri, v, 2.0)
            assert rep.err_1p <= rep.kobayashi_bound * rep.semi_2p + 1e-10
            assert rep.err_1p <= rep.circumradius_bound * rep.semi_2p + 1e-10

    def test_full_norm_combination(self):
        rep = error_report(REF, get_field("x2"), 2.0)
        assert rep.err_full == pytest.approx(
            math.hypot(rep.err_0p, rep.err_1p), rel=1e-13
        )

    def test_similarity_scaling_of_ratio(self):
        # pulled-back field on a scaled triangle: ratio_1 scales by lambda
        rng = np.random.default_rng(8)
        coeffs = rng.uniform(-1, 1, size=15)
        pairs = [(i, d - i) for d in range(5) for i in range(d, -1, -1)]
        base = error_report(REF, polynomial_field(coeffs), 2.0)
        for lam in (0.25, 3.0):
            tri = Triangle((0, 0), (lam, 0), (0, lam))
            pulled = polynomial_field(
                [c / lam ** (i + j) for c, (i, j) in zip(coeffs, pairs)]
            )
            rep = error_report(tri, pulled, 2.0)
            assert rep.ratio_1 == pytest.approx(lam * base.ratio_1, rel=1e-10)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(InvalidExponent):
            error_report(REF, get_field("x2"), 0.5)

    def test_rule_fixes_the_sup_points(self):
        # at p = inf a given rule replaces the sup grid, as in ``seminorm``
        tri = Triangle((0, 0), (1, 0), (0.3, 0.9))
        v = get_field("sinsin")
        rep = error_report(tri, v, math.inf, rule=make_rule(10))
        want = quadrature.seminorm(v, quadrature.SeminormSpec(2, math.inf), tri, make_rule(10))
        assert rep.semi_2p == want
        assert rep.semi_2p != error_report(tri, v, math.inf).semi_2p

    def test_p_not_two_records_quotient(self):
        rep = error_report(REF, get_field("x2"), 4.0)
        assert rep.empirical_quotient == pytest.approx(
            rep.err_1p / (rep.circumradius_bound * rep.semi_2p), rel=1e-12
        )
        assert rep.empirical_cp == 1.0

    def test_hypothesis_flag_for_large_triangles(self):
        big = Triangle((0, 0), (5, 0), (0, 5))
        rep = error_report(big, get_field("x2"), 2.0)
        assert not rep.circumradius_le_one
        assert rep.bound_satisfied  # the p = 2 bound holds regardless

    def test_bound_check_relative_on_tiny_triangles(self):
        # x2's value and gradient with a weakened Hessian.  A tenth of it
        # puts err_1p at 3.7e-13 against a bound of 6.3e-14, far below an
        # absolute slack; the scale that puts err_1p 1e-6 relative above
        # the bound must fail as well, so the slack is relative and small
        x2 = get_field("x2")
        lam = 2.0 ** -20
        tri = Triangle((0, 0), (lam, 0), (0, lam))
        exact = error_report(tri, x2, 2.0)
        assert exact.bound_satisfied
        near = exact.err_1p / (exact.kobayashi_bound * exact.semi_2p * (1.0 + 1e-6))
        for scale in (0.1, near):
            weak = dataclasses.replace(
                x2, hess=lambda x, y: tuple(scale * h for h in x2.hess(x, y)))
            rep = error_report(tri, weak, 2.0)
            assert rep.err_1p > rep.kobayashi_bound * rep.semi_2p
            assert not rep.bound_satisfied
        assert rep.err_1p / (rep.kobayashi_bound * rep.semi_2p) - 1.0 == pytest.approx(1e-6, rel=1e-6)

    def test_sup_error_of_x3_pinned(self):
        # I_h x^3 = x on the reference triangle, and x - x^3 peaks at
        # x = 1/sqrt(3) at 2/(3 sqrt(3)); the sup grid's nested samples
        # approach it from below: 2.7e-6 relative below it at SUP_GRID 64,
        # 9.8e-4 at 32 and 1.05e-2 at 8
        rep = error_report(reference_triangle(), get_field("x3"), math.inf)
        peak = 2.0 / (3.0 * math.sqrt(3.0))
        assert peak * (1.0 - 1e-5) <= rep.err_0p <= peak


class TestCallCounts:
    def counted(self, field, monkeypatch):
        calls = Counter()
        real_make_rule = quadrature.make_rule

        def make_rule(degree):
            calls["make_rule"] += 1
            return real_make_rule(degree)

        def counting(kind, fn):
            def wrapper(x, y):
                calls[kind] += 1
                return fn(x, y)
            return wrapper

        monkeypatch.setattr(quadrature, "make_rule", make_rule)
        return calls, dataclasses.replace(
            field, **{k: counting(k, getattr(field, k)) for k in ("value", "grad", "hess")})

    def test_polynomial_one_rule_one_evaluation_each(self, monkeypatch):
        calls, v = self.counted(
            polynomial_field(np.random.default_rng(3).uniform(-1.0, 1.0, size=15)), monkeypatch)
        error_report(Triangle((0.1, 0.2), (0.9, 0.3), (0.4, 0.8)), v, 2.0)
        # value: once, at the rule points and the vertices together
        assert calls == {"make_rule": 1, "value": 1, "grad": 1, "hess": 1}

    def test_adaptive_each_field_once_per_rule(self, monkeypatch):
        calls, v = self.counted(get_field("sinsin"), monkeypatch)
        error_report(needle_triangle(2.0 ** -6, 1.5), v, 2.0)
        assert 2 <= calls["make_rule"] <= 3
        assert calls["grad"] == calls["hess"] == calls["make_rule"]
        assert calls["value"] == calls["make_rule"]

    def counted_with_jet(self, field, monkeypatch):
        """The field built anew from counting evaluators and a counting jet,
        so that it keeps a jet."""
        calls, v = self.counted(field, monkeypatch)
        jet = field.jet

        def counting_jet(x, y):
            calls["jet"] += 1
            return jet(x, y)

        return calls, ScalarField(v.name, v.value, v.grad, v.hess, v.degree, counting_jet)

    def test_polynomial_one_jet_call_per_rule(self, monkeypatch):
        calls, v = self.counted_with_jet(
            polynomial_field(np.random.default_rng(3).uniform(-1.0, 1.0, size=15)), monkeypatch)
        error_report(Triangle((0.1, 0.2), (0.9, 0.3), (0.4, 0.8)), v, 2.0)
        # the vertices and the rule points, everything from one jet call
        assert calls == {"make_rule": 1, "jet": 1}

    def test_adaptive_one_jet_call_per_rule(self, monkeypatch):
        calls, v = self.counted_with_jet(get_field("sinsin"), monkeypatch)
        error_report(needle_triangle(2.0 ** -6, 1.5), v, 2.0)
        assert 2 <= calls["make_rule"] <= 3
        assert calls == {"make_rule": calls["make_rule"], "jet": calls["make_rule"]}

    def test_values_only_seminorm_skips_the_jet(self, monkeypatch):
        calls, v = self.counted_with_jet(get_field("sinsin"), monkeypatch)
        quadrature.seminorm(v, quadrature.SeminormSpec(0, 2.0), REF, quadrature.make_rule(8))
        assert calls == {"make_rule": 1, "value": 1}

    @pytest.mark.parametrize("field, make", [
        (polynomial_field(np.random.default_rng(5).uniform(-1.0, 1.0, size=15)),
         reference_triangle),
        (get_field("sinsin"), lambda: needle_triangle(2.0 ** -6, 1.5)),
    ], ids=["one-rule", "adaptive"])
    def test_element_geometry_once(self, monkeypatch, field, make):
        calls = record_calls(monkeypatch, geometry.element_geometry, np.shape)
        areas = record_calls(monkeypatch, geometry.signed_area, np.shape)
        edges = record_calls(monkeypatch, geometry.edge_lengths, np.shape)
        tri = make()
        # the area and the edge lengths, on construction
        assert calls == [] and areas == [(3, 2)] and edges == [(3, 2)]
        # the triangle's geometry, built on first use: one element_geometry
        # call and the signed_area inside it; the metrics take tri.area and
        # tri.edges
        error_report(tri, field, 2.0)
        assert calls == [(3, 2)] and areas == [(3, 2)] * 2 and edges == [(3, 2)]
        error_report(tri, field, 2.0)
        assert calls == [(3, 2)] and areas == [(3, 2)] * 2 and edges == [(3, 2)]


class TestAgainstExactOracle:
    """error_report against exact rational |v - I v|_{0,2}, |v - I v|_{1,2}
    and |v|_{2,2} for polynomial v.  v - I v is a difference of O(1)
    values that is O(h^2) on a triangle of width h, so float64 nodal values
    carry a relative error near 1e-16 / h^2 that no quadrature removes;
    the needle heights and sliver widths stop where that stays below the
    1e-12 checked here."""

    def check(self, tri, coeffs):
        got = error_report(tri, polynomial_field(coeffs), 2.0)
        want = interpolation_error_sq(coeffs, tri.vertices)
        for g, w in zip((got.err_0p, got.err_1p, got.semi_2p), want):
            assert g == pytest.approx(math.sqrt(w), rel=1e-12)

    def test_random_degree_4(self):
        rng = np.random.default_rng(31)
        for pts in random_triangles(12, rng):
            self.check(Triangle(*map(tuple, pts)), rng.uniform(-1, 1, 15))

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 3.0])
    def test_needles(self, alpha):
        rng = np.random.default_rng(37)
        for k in range(1, 5):
            self.check(needle_triangle(2.0 ** -k, alpha), rng.uniform(-1, 1, 15))

    def test_right_slivers(self):
        rng = np.random.default_rng(41)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            self.check(Triangle((0, 0), (1, 0), (0, eps)), rng.uniform(-1, 1, 15))


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(
        _random_triangles(),
        st.builds(needle_triangle, st.floats(1e-2, 1.0), st.floats(1.2, 6.0)),
        st.builds(lambda eps, s: Triangle((0, 0), (1, 0), (s, eps)),
                  st.floats(1e-12, 1e-3), st.floats(-0.5, 1.5)),
    ),
    st.sampled_from(["sinsin", "expxy", "x3y", "poly:1,-2,0.5,3,0,-1,0.25,2,-3,1"]),
)
def test_triangle_path_equals_mesh_path(tri, name):
    v = get_field(name)
    # the mesh functionals integrate on the error rule
    rep = error_report(tri, v, 2.0, rule=make_rule(ERROR_QUAD_DEGREE))
    mesh = Mesh(tri.vertices, np.ones(3, bool), [[0, 1, 2]])
    semi, full = interpolation_h1_error(mesh, v)
    assert semi == pytest.approx(rep.err_1p, rel=1e-14, abs=0.0)
    assert full == pytest.approx(rep.err_full, rel=1e-14, abs=0.0)
    assert hessian_seminorm(mesh, v) == pytest.approx(rep.semi_2p, rel=1e-14, abs=0.0)


class TestNeedleStudy:
    def test_rows_match_closed_form_circumradius(self):
        hs = [2.0 ** -k for k in range(2, 8)]
        rows = needle_study(hs, 1.5, get_field("sinsin"), 2.0)
        for row in rows:
            want = row.h ** 1.5 / 2 + row.h ** (2 - 1.5) / 8
            assert row.report.triangle.R_K == pytest.approx(want, rel=1e-12)

    def test_dominant_term_scaling(self):
        alpha = 1.5
        for k in (8, 9, 10):
            r1 = metrics(needle_triangle(2.0 ** -k, alpha)).R_K
            r2 = metrics(needle_triangle(2.0 ** -(k + 1), alpha)).R_K
            assert abs(r1 / r2 / 2 ** (2 - alpha) - 1) <= 0.1

    def test_flattening_and_bound(self):
        rows = needle_study(
            [2.0 ** -k for k in range(2, 9)], 1.5, get_field("sinsin"), 2.0
        )
        ratios = [r.report.ratio_1 for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        angles = [r.report.triangle.theta_max for r in rows]
        assert all(a < b for a, b in zip(angles, angles[1:]))
        assert all(r.report.ratio_1 <= r.report.triangle.R_K for r in rows)

    def test_alpha_validation(self):
        with pytest.raises(InvalidFamily):
            needle_study([0.25], 1.0, get_field("sinsin"))
        with pytest.raises(InvalidFamily):
            needle_study([1.5], 1.5, get_field("sinsin"))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(InvalidFamily, match="not finite"):
            needle_study([0.25], alpha, get_field("sinsin"))

    def test_csv_row_layout(self):
        rows = needle_study([0.25], 1.5, get_field("x2"), 2.0)
        csv = needle_row_csv(rows[0])
        assert len(csv) == len(NEEDLE_CSV_COLUMNS)
        assert csv[0] == 0.25
