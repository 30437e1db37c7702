import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlab.errors import DegenerateTriangle, InvalidFamily, InvalidThreshold
from circumlab.geometry import (
    AREA_FLOOR,
    CanonicalForm,
    Triangle,
    canonicalize,
    circumradius,
    condition_flags,
    edge_lengths,
    edge_lengths_and_area,
    kobayashi_constant,
    metrics,
    needle_triangle,
    random_triangles,
    reference_triangle,
    shape_quantities,
)
from oracles import circumradius_and_kobayashi_sq

SQRT3 = math.sqrt(3.0)


def random_triangle(rng):
    pts = random_triangles(1, rng)[0]
    return Triangle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]))


class TestMetrics:
    def test_unit_right_triangle(self):
        m = metrics(reference_triangle())
        assert m.R_K == pytest.approx(math.sqrt(2) / 2, rel=1e-14)
        # C^2 = 1/2 - 4/30 - (1/20)(1 + 1 + 1/2) = 29/120
        assert m.C_K == pytest.approx(math.sqrt(29 / 120), rel=1e-13)
        assert m.C_K == pytest.approx(0.491596, abs=5e-7)
        assert m.S == pytest.approx(0.5)
        assert m.h_K == pytest.approx(math.sqrt(2))

    def test_equilateral(self):
        m = metrics(Triangle((0, 0), (1, 0), (0.5, SQRT3 / 2)))
        assert m.R_K == pytest.approx(1 / SQRT3, rel=1e-13)
        # C^2 = 1/3 - 1/10 - 9/80 = 29/240
        assert m.C_K == pytest.approx(math.sqrt(29 / 240), rel=1e-12)
        assert m.C_K == pytest.approx(0.347611, abs=5e-7)
        assert m.theta_min == pytest.approx(math.pi / 3, rel=1e-12)
        assert m.theta_max == pytest.approx(math.pi / 3, rel=1e-12)

    def test_needle_circumradius(self):
        m = metrics(needle_triangle(0.5, 1.5))
        assert m.R_K == pytest.approx(0.5 ** 1.5 / 2 + 0.5 ** 0.5 / 8, rel=1e-13)
        assert m.R_K == pytest.approx(0.265165, abs=5e-7)

    def test_r_equals_abc_over_4s_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = metrics(random_triangle(rng))
            assert m.R_K == pytest.approx(m.A * m.B * m.C / (4 * m.S), rel=1e-12)
            assert m.R_K >= m.h_K / 2 * (1 - 1e-14)
            assert m.rho_K < m.R_K
            assert m.theta_min + m.theta_max < math.pi

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateTriangle):
            Triangle((0, 0), (1, 0), (2, 0))

    @pytest.mark.parametrize("p2,p3", [((0, 0), (0, 0)), ((1, 0), (math.nan, 1)),
                                       ((1, 0), (0, math.inf)),
                                       ((math.inf, math.inf), (1, 1)),
                                       ((math.inf, 0), (math.inf, 1)),
                                       ((1e-160, 0), (0, 1e-160)),
                                       ((1e160, 0), (0, 1e160)),
                                       ((1e-100, 0), (0, 1e-100)),
                                       ((1e100, 0), (0, 1e100))],
                             ids=["coincident", "nan", "inf", "inf-minus-inf",
                                  "inf-times-zero", "subnormal-area",
                                  "overflowing-area", "underflowing-area-square",
                                  "overflowing-area-square"])
    def test_coincident_or_non_finite_rejected(self, p2, p3):
        # with no numpy warning: tier-1 makes a RuntimeWarning an error, and
        # inf - inf or inf * 0 in the signed area used to raise one
        with pytest.raises(DegenerateTriangle):
            Triangle((0, 0), p2, p3)

    def test_area_floor(self):
        # S = height/2 against the floor 1e-14 * h^2 with h ~ 1
        with pytest.raises(DegenerateTriangle):
            Triangle((0, 0), (1, 0), (0.5, 1.8e-14))
        Triangle((0, 0), (1, 0), (0.5, 2.5e-14))

    def test_ccw_normalization(self):
        t = Triangle((0, 0), (0, 1), (1, 0))  # clockwise input
        assert t.area > 0
        assert t.p2 == (1.0, 0.0)


_coord = st.floats(-1.0, 1.0, allow_nan=False)
_point = st.tuples(_coord, _coord)


@settings(max_examples=300, deadline=None, database=None)
@given(_point, _point, _point)
def test_edges_are_the_edge_lengths_of_the_vertices(p1, p2, p3):
    """``Triangle.edges``, kept from construction, has the bits that
    ``edge_lengths`` gives on the stored vertices, for counterclockwise and
    clockwise input alike, and ``metrics`` is the one-row
    ``shape_quantities`` of those lengths."""
    try:
        tris = [Triangle(p1, p2, p3), Triangle(p1, p3, p2)]  # one of each order
    except DegenerateTriangle:
        return
    for tri in tris:
        want = tuple(float(e).hex() for e in edge_lengths(tri.vertices))
        assert tuple(e.hex() for e in tri.edges) == want
        m = metrics(tri)
        h, rho, r, ck, angles = shape_quantities(*tri.edges, tri.area)
        assert (m.A, m.B, m.C, m.S) == (*tri.edges, tri.area)
        assert (m.h_K, m.rho_K, m.R_K, m.C_K) == (h, rho, r, ck)
        assert (m.theta_min, m.theta_max) == (min(angles), max(angles))


class TestKobayashiCorollary:
    def test_strictly_below_circumradius_sweep(self):
        rng = np.random.default_rng(11)
        pts = random_triangles(20000, rng)
        a, b, c, s = edge_lengths_and_area(pts)
        assert np.all(kobayashi_constant(a, b, c, s) < circumradius(a, b, c, s))

    def test_similarity_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tri = random_triangle(rng)
            m = metrics(tri)
            lam = rng.uniform(0.1, 10.0)
            ang = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-5, 5, size=2)
            ca, sa = math.cos(ang), math.sin(ang)

            def move(p):
                return (
                    lam * (ca * p[0] - sa * p[1]) + dx,
                    lam * (sa * p[0] + ca * p[1]) + dy,
                )

            m2 = metrics(Triangle(move(tri.p1), move(tri.p2), move(tri.p3)))
            assert m2.R_K == pytest.approx(lam * m.R_K, rel=1e-12)
            assert m2.C_K == pytest.approx(lam * m.C_K, rel=1e-12)


class TestFloat64AgainstExact:
    """Float64 C(K) and R_K against exact rational values, to 1e-12."""

    @staticmethod
    def check(tri):
        m = metrics(tri)
        r2, k2 = circumradius_and_kobayashi_sq(tri.vertices)
        assert m.R_K == pytest.approx(math.sqrt(r2), rel=1e-12)
        assert m.C_K == pytest.approx(math.sqrt(k2), rel=1e-12)
        assert m.C_K < m.R_K

    @pytest.mark.parametrize("alpha", np.linspace(1.2, 6.0, 13))
    def test_needles(self, alpha):
        for h in (0.5, 0.1, 2.0 ** -5):
            self.check(needle_triangle(h, alpha))

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(1, 13)])
    def test_right_slivers(self, eps):
        self.check(Triangle((0, 0), (1, 0), (0, eps)))


class TestConditionFlags:
    def test_equilateral_min_angle(self):
        m = metrics(Triangle((0, 0), (1, 0), (0.5, SQRT3 / 2)))
        flags = condition_flags(m, math.pi / 6, 2.8, 10.0)
        assert flags["min_angle_ok"]

    def test_needle_max_angle_from_apex_formula(self):
        h, alpha = 0.1, 1.5
        m = metrics(needle_triangle(h, alpha))
        apex = 2 * math.atan((h / 2) / h ** alpha)
        assert m.theta_max == pytest.approx(apex, rel=1e-12)
        flags = condition_flags(m, 0.01, 2.8, 1e6)
        assert flags["max_angle_ok"] == (apex <= 2.8)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_negative_needle_base_rejected(self, alpha):
        # at alpha = 2 the apex height is real, yet the base is still invalid
        with pytest.raises(InvalidFamily):
            needle_triangle(-0.1, alpha)

    @pytest.mark.parametrize("h, alpha", [(1e300, 1.5), (0.0, -1.0)],
                             ids=["overflowing-height", "infinite-height"])
    def test_needle_height_outside_floats_degenerate(self, h, alpha):
        with pytest.raises(DegenerateTriangle, match="non-finite coordinate"):
            needle_triangle(h, alpha)

    def test_sigma_infinity(self):
        m = metrics(needle_triangle(0.1, 1.9))
        assert condition_flags(m, 0.01, 3.0, math.inf)["regular_ok"]

    @pytest.mark.parametrize(
        "theta0,theta1,sigma",
        [(0.0, 2.8, 1.0), (math.pi / 3, 2.8, 1.0), (0.5, 1.0, 1.0),
         (0.5, math.pi, 1.0), (0.5, 2.8, 0.0)],
    )
    def test_invalid_thresholds(self, theta0, theta1, sigma):
        m = metrics(reference_triangle())
        with pytest.raises(InvalidThreshold):
            condition_flags(m, theta0, theta1, sigma)


class TestCanonicalize:
    def test_unit_right_isosceles(self):
        form = canonicalize(reference_triangle())
        assert form.s == pytest.approx(0.0, abs=1e-14)
        assert form.t == pytest.approx(1.0, rel=1e-12)
        assert form.eta == pytest.approx(1.0, rel=1e-12)
        assert form.ratio == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_equilateral_attains_eta_sqrt3(self):
        form = canonicalize(Triangle((-1, 0), (1, 0), (0, SQRT3)))
        assert form.s == pytest.approx(0.0, abs=1e-14)
        assert form.eta == pytest.approx(SQRT3, rel=1e-12)
        assert form.ratio == pytest.approx(1.0, rel=1e-12)

    def test_needle(self):
        form = canonicalize(needle_triangle(0.5, 1.5))
        assert form.s == pytest.approx(0.0, abs=1e-14)
        assert form.t == pytest.approx(1.0)
        assert form.eta == pytest.approx(2 * 0.5 ** 0.5, rel=1e-12)

    def test_invariants_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            form = canonicalize(random_triangle(rng))
            assert form.a ** 2 + form.b ** 2 == pytest.approx(1.0, rel=1e-12)
            assert 2 * form.a * form.b == pytest.approx(form.t, abs=1e-12)
            assert form.X <= SQRT3 * (1 + 1e-12)
            assert form.Y <= SQRT3 * (1 + 1e-12)
            assert form.X / form.eta >= 1 / SQRT3 * (1 - 1e-12)
            assert form.Y / form.eta >= 1 / SQRT3 * (1 - 1e-12)
            assert 0.0 < form.eta <= SQRT3

    def test_rebuild_is_congruent(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            tri = random_triangle(rng)
            form = canonicalize(tri)
            assert form.frame == Triangle((-1.0, 0.0), (1.0, 0.0), (form.s, form.eta * form.t))
            rebuilt = Triangle(*(form.ratio * v for v in form.frame.vertices))
            m1, m2 = metrics(tri), metrics(rebuilt)
            got = sorted([m2.A, m2.B, m2.C])
            want = sorted([m1.A, m1.B, m1.C])
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12)

    def test_circumradius_identity(self):
        # ratio * X*Y/eta reproduces R_K to 1e-12 relative
        rng = np.random.default_rng(29)
        tris = [reference_triangle(), needle_triangle(0.25, 1.9)]
        tris += [random_triangle(rng) for _ in range(1000)]
        for tri in tris:
            form = canonicalize(tri)
            r_k = metrics(tri).R_K
            assert abs(form.ratio * form.canonical_circumradius - r_k) <= 1e-12 * r_k

    def test_flat_triangle_with_zero_t_is_degenerate(self):
        # s rounds to 1, so t = sqrt(max(0, 1 - s*s)) is 0: eta = mu / t
        # has no finite value and fails the range check
        tri = Triangle((0, 0), (1, 0), (0, 1e-9))
        with pytest.raises(DegenerateTriangle, match="canonical height factor inf"):
            canonicalize(tri)

    def test_tie_break_deterministic(self):
        # two edges tie for longest: the edge opposite the lowest vertex
        # index wins
        tri = Triangle((0, 0), (1, 0), (0, 1))
        form1 = canonicalize(tri)
        form2 = canonicalize(Triangle(tri.p1, tri.p2, tri.p3))
        assert (form1.s, form1.eta) == (form2.s, form2.eta)
        iso = Triangle((0, 0), (1, 0), (0.5, SQRT3 / 2))
        form = canonicalize(iso)  # all edges tie
        assert isinstance(form, CanonicalForm)
        assert form.eta == pytest.approx(SQRT3, rel=1e-12)


def test_area_floor_constant_documented():
    assert AREA_FLOOR == 1e-14
