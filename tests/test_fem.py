import dataclasses
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from circumlab import fem, geometry
from circumlab.errors import InconsistentSpec, NoConvergence
from circumlab.fem import (
    ERROR_QUAD_DEGREE,
    LOAD_QUAD_DEGREE,
    SparseSystem,
    assemble,
    cea_study,
    h1_error,
    hessian_seminorm,
    interpolant_values,
    interpolation_h1_error,
    load_vector,
    solve_cg,
    solve_poisson,
    stiffness_matrix,
)
from circumlab.fields import (BLOCK_POINTS, ScalarField, get_field, neg_laplacian,
                              polynomial_field)
from circumlab.geometry import reference_triangle
from circumlab.mesh import Mesh, gen_crisscross_aniso, gen_uniform
from circumlab.quadrature import FieldAtRule, make_rule
from oracles import _poly_diff, _poly_mul

SINSIN = get_field("sinsin")
# u = x(1-x) y(1-y) (1+x+2y), the generic bubble: unlike sinsin it is no
# near-eigenvector of the discrete Laplacian
BUBBLE_COEFFS = [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, -1, -2, -2, 0, 0, 0, 1, 2, 0, 0]
BUBBLE = polynomial_field(BUBBLE_COEFFS)


def record_calls(monkeypatch, fn, record=len) -> list:
    """Replace ``fn`` under every name that holds it in the circumlab
    modules by a wrapper that appends ``record`` of its argument to the
    list returned."""
    calls = []

    def counting(p):
        calls.append(record(p))
        return fn(p)

    for name, mod in list(sys.modules.items()):
        if name == "circumlab" or name.startswith("circumlab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


class TestAssembly:
    def test_single_reference_triangle_all_boundary(self):
        tri = reference_triangle()
        sys = assemble(Mesh(tri.vertices, np.ones(3, bool), [[0, 1, 2]]), get_field("one"))
        assert len(sys.rhs) == 0
        assert sys.matrix.shape == (0, 0)

    def test_uniform_2_hand_assembly(self):
        sys = assemble(gen_uniform(2), get_field("one"))
        assert len(sys.rhs) == 1
        assert sys.matrix.toarray() == pytest.approx(np.array([[4.0]]))
        assert sys.rhs[0] == pytest.approx(0.25, rel=1e-14)
        x, _ = solve_cg(sys)
        assert x[0] == pytest.approx(1 / 16, rel=1e-12)

    def test_row_sums_vanish(self):
        a = stiffness_matrix(gen_uniform(5))
        assert np.abs(np.asarray(a.sum(axis=1))).max() == pytest.approx(0.0, abs=1e-13)

    def test_exact_symmetry(self):
        a = stiffness_matrix(gen_crisscross_aniso(4, 1.5))
        assert abs(a - a.T).max() <= 1e-12

    def test_load_of_constant_equals_area_thirds(self):
        mesh = gen_uniform(1)
        b = load_vector(mesh, get_field("one"))
        assert b.sum() == pytest.approx(1.0, rel=1e-13)  # partition of unity


class TestSolver:
    def test_identity_system_one_iteration(self):
        n = 20
        eye = scipy.sparse.identity(n, format="csr")
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(n)
        sys = SparseSystem(matrix=eye, rhs=rhs, free=np.arange(n))
        x, rep = solve_cg(sys)
        assert rep.iterations == 1
        assert x == pytest.approx(rhs, rel=1e-12)

    def test_residual_history_on_failure(self, monkeypatch):
        # one refinement step reaches rounding level, so only a zero
        # tolerance exhausts the steps
        monkeypatch.setattr(fem, "CG_REL_TOL", 0.0)
        monkeypatch.setattr(fem, "MAX_CG_ITER", 3)
        mesh = gen_uniform(8)
        sys = assemble(mesh, neg_laplacian(SINSIN))
        with pytest.raises(NoConvergence) as exc:
            solve_cg(sys)
        assert len(exc.value.history) == 4
        assert exc.value.max_iter == 3

    def test_singular_block_raises_no_convergence(self):
        zero = scipy.sparse.csr_matrix((2, 2))
        sys = SparseSystem(matrix=zero, rhs=np.ones(2), free=np.arange(2))
        with pytest.raises(NoConvergence) as exc:
            solve_cg(sys)
        assert exc.value.history == [1.0]
        assert exc.value.max_iter == 0
        assert "singular and could not be factored" in str(exc.value)

    def test_bubble_on_crisscross_in_two_steps(self):
        sys = assemble(gen_crisscross_aniso(16, 1.5), neg_laplacian(BUBBLE))
        x, rep = solve_cg(sys)
        assert rep.iterations <= 2
        assert len(rep.history) == rep.iterations + 1
        ref = scipy.sparse.linalg.spsolve(sys.matrix.tocsc(), sys.rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_bubble_one_refinement_step_is_the_direct_solve(self, n):
        sys = assemble(gen_crisscross_aniso(n, 1.5), neg_laplacian(BUBBLE))
        x, rep = solve_cg(sys)
        assert rep.iterations == 1
        # the report's residual is the true residual of x
        true_res = np.linalg.norm(sys.rhs - sys.matrix @ x) / np.linalg.norm(sys.rhs)
        assert rep.history == [1.0, true_res] and rep.relative_residual == true_res
        ref = scipy.sparse.linalg.spsolve(sys.matrix.tocsc(), sys.rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_converges_within_200_iterations(self):
        mesh = gen_uniform(8)
        sys = assemble(mesh, neg_laplacian(SINSIN))
        x, rep = solve_cg(sys)
        assert rep.relative_residual <= 1e-10
        true_res = np.linalg.norm(sys.rhs - sys.matrix @ x) / np.linalg.norm(sys.rhs)
        assert true_res <= 2e-10

    def test_zero_source_gives_zero_solution(self):
        sol = solve_poisson(gen_uniform(4), polynomial_field([0.0]))
        assert np.all(sol.values == 0.0)

    def test_boundary_values_exactly_zero(self):
        mesh = gen_uniform(6)
        sol = solve_poisson(mesh, neg_laplacian(SINSIN))
        assert np.all(sol.values[mesh.boundary] == 0.0)

    def test_galerkin_orthogonality(self):
        mesh = gen_uniform(8)
        sys = assemble(mesh, neg_laplacian(SINSIN))
        x, _ = solve_cg(sys)
        r = sys.rhs - sys.matrix @ x
        assert np.linalg.norm(r) / np.linalg.norm(sys.rhs) <= 1e-8


class TestErrors:
    def test_zero_against_zero(self):
        mesh = gen_uniform(3)
        zero = polynomial_field([0.0])
        semi, full = h1_error(mesh, np.zeros(mesh.n_vertices), zero)
        assert semi == 0.0 and full == 0.0

    def test_first_order_rate_on_uniform(self):
        errs = []
        for n in (8, 16):
            mesh = gen_uniform(n)
            sol = solve_poisson(mesh, neg_laplacian(SINSIN))
            errs.append(h1_error(mesh, sol.values, SINSIN)[0])
        assert 1.8 <= errs[0] / errs[1] <= 2.2

    def test_interpolant_error_dominates_fem_error(self):
        mesh = gen_uniform(12)
        sol = solve_poisson(mesh, neg_laplacian(SINSIN))
        fem_semi = h1_error(mesh, sol.values, SINSIN)[0]
        interp_semi = h1_error(mesh, interpolant_values(mesh, SINSIN), SINSIN)[0]
        assert fem_semi <= interp_semi + 1e-8

    def test_gradient_required(self):
        bare = ScalarField(name="bare", value=lambda x, y: np.asarray(x))
        with pytest.raises(InconsistentSpec):
            h1_error(gen_uniform(2), np.zeros(9), bare)

    def test_hessian_seminorm_unit_square(self):
        got = hessian_seminorm(gen_uniform(16), SINSIN)
        assert got == pytest.approx(math.pi ** 2, rel=1e-10)


def galerkin_gap(mesh, u) -> float:
    """(|u - I_h u|_1^2 - |u - u_h|_1^2 - e^T A_ff e) / |u - I_h u|_1^2 with
    e = u_h - I_h u on the free dofs, for u vanishing on the boundary.  The
    Galerkin orthogonality of u_h makes it 0 in exact arithmetic when the
    load vector is exact, and the error rule integrates the cross term
    grad u . (piecewise constant) exactly for a polynomial u of degree 5."""
    sys = assemble(mesh, neg_laplacian(u))
    x, _ = solve_cg(sys)
    uh = np.zeros(mesh.n_vertices)
    uh[sys.free] = x
    e = x - interpolant_values(mesh, u)[sys.free]
    interp2 = interpolation_h1_error(mesh, u)[0] ** 2
    return (interp2 - h1_error(mesh, uh, u)[0] ** 2 - e @ (sys.matrix @ e)) / interp2


class TestGalerkinIdentity:
    """|u - I_h u|_1^2 = |u - u_h|_1^2 + |u_h - I_h u|_1^2 for the bubble,
    whose load f * hat has degree 4 = ``LOAD_QUAD_DEGREE``."""

    MESHES = {"crisscross": lambda n: gen_crisscross_aniso(n, 1.5), "uniform": gen_uniform}

    @pytest.mark.parametrize("family", MESHES)
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_gap_at_rounding_level(self, family, n):
        assert abs(galerkin_gap(self.MESHES[family](n), BUBBLE)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_inexact_load_rule_opens_the_gap(self, monkeypatch, n):
        # on the uniform mesh the degree-3 rule happens to keep the gap at
        # rounding level; on crisscross it opens it to 7e-6 (n = 4), 5e-7 (n = 8)
        monkeypatch.setattr(fem, "LOAD_QUAD_DEGREE", 3)
        assert galerkin_gap(gen_crisscross_aniso(n, 1.5), BUBBLE) > 1e-10


def whole_mesh_sums(mesh, u, nodals):
    """The error sums of one ``FieldAtRule`` over all elements of the mesh
    at the error rule, each reduced by ``np.add.reduce``: (|u - u_h|_0^2,
    |u - u_h|_1^2) per nodal vector, then |u|_2^2."""
    whole = FieldAtRule(mesh.coords, u, make_rule(ERROR_QUAD_DEGREE), mesh.geometry)
    parts = [e for v in nodals for e in whole.error_power(v[mesh.triangles], 2.0)]
    parts.append(whole.hessian_power(2.0))
    return [float(np.add.reduce(e)) for e in parts]


class TestStreamedPasses:
    """The error functionals and the load vector run over blocks of at most
    ``BLOCK_POINTS`` rule points and equal the whole-mesh reductions byte
    for byte.  Crisscross n = 12 has 2016 elements: three full blocks of
    512 and one of 480 on the 16-point error rule, two of 910 and one of
    196 on the 9-point load rule."""

    MESH = gen_crisscross_aniso(12, 1.5)
    # the last one has no jet
    FIELDS = [SINSIN, BUBBLE, ScalarField("jetless", SINSIN.value, SINSIN.grad, SINSIN.hess)]
    IDS = ["sinsin", "bubble", "jetless"]

    def test_mesh_spans_several_blocks(self):
        per_block = BLOCK_POINTS // len(make_rule(ERROR_QUAD_DEGREE).weights)
        assert self.MESH.n_triangles == 2016 and per_block == 512
        assert self.FIELDS[2].jet is None

    @pytest.mark.parametrize("u", FIELDS, ids=IDS)
    def test_functionals_equal_whole_mesh_reduction(self, u):
        mesh = self.MESH
        nodal = interpolant_values(mesh, u)
        other = np.linspace(-1.0, 1.0, mesh.n_vertices)
        l22, semi2, o_l22, o_semi2, semi22 = whole_mesh_sums(mesh, u, [nodal, other])
        assert interpolation_h1_error(mesh, u) == (math.sqrt(semi2), math.sqrt(semi2 + l22))
        assert h1_error(mesh, other, u) == (math.sqrt(o_semi2), math.sqrt(o_semi2 + o_l22))
        assert hessian_seminorm(mesh, u) == math.sqrt(semi22)

    @pytest.mark.parametrize("u", FIELDS, ids=IDS)
    def test_study_row_equals_whole_mesh_reduction(self, u):
        mesh = self.MESH
        (row,) = cea_study(lambda n: mesh, [12], u).rows
        sol = solve_poisson(mesh, neg_laplacian(u))
        l22, semi2, _, i_semi2, semi22 = whole_mesh_sums(
            mesh, u, [sol.values, interpolant_values(mesh, u)])
        assert row.h1_seminorm_error == math.sqrt(semi2)
        assert row.h1_norm_error == math.sqrt(semi2 + l22)
        assert row.interp_h1 == math.sqrt(i_semi2)
        assert row.semi_22_exact == math.sqrt(semi22)

    @pytest.mark.parametrize("u", FIELDS, ids=IDS)
    def test_load_vector_equals_whole_mesh_reduction(self, u):
        mesh = self.MESH
        rule = make_rule(LOAD_QUAD_DEGREE)
        whole = FieldAtRule(mesh.coords, u, rule, mesh.geometry)
        contrib = ((whole.points[2] * whole.value)[:, :, None] * rule.points[:, None, :]).sum(axis=0)
        want = np.zeros(mesh.n_vertices)
        np.add.at(want, mesh.triangles.ravel(), contrib.ravel())
        assert load_vector(mesh, u).tobytes() == want.tobytes()


def traced_peak(fn) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """No pass holds a (rule points x elements) array: on crisscross n = 32
    (23 296 elements) one such array on the error rule is 3.0 MB, and the
    whole-mesh passes peaked at 33.8 MB (error functionals) and 13.6 MB
    (load vector)."""

    @pytest.fixture(scope="class")
    def mesh(self):
        mesh = gen_crisscross_aniso(32, 1.5)
        assert mesh.n_triangles == 23296
        # the mesh's cached arrays and the rules' and evaluators' caches
        # are built before tracing
        mesh.coords, mesh.geometry
        small = gen_uniform(2)
        interpolation_h1_error(small, BUBBLE), hessian_seminorm(small, BUBBLE)
        load_vector(small, BUBBLE)
        return mesh

    def test_error_functionals_peak(self, mesh):
        def run():
            h1_error(mesh, np.zeros(mesh.n_vertices), BUBBLE)
            interpolation_h1_error(mesh, BUBBLE)
            hessian_seminorm(mesh, BUBBLE)

        assert traced_peak(run) < 8e6

    def test_load_vector_peak(self, mesh):
        assert traced_peak(lambda: load_vector(mesh, BUBBLE)) < 4e6


class TestCeaStudy:
    def test_exact_field_evaluated_once_per_evaluator(self):
        calls = []

        def counting(kind, fn):
            def wrapper(x, y):
                calls.append((kind, np.size(x)))
                return fn(x, y)
            return wrapper

        # a copy with other evaluators has no jet, so every evaluator is called
        u = dataclasses.replace(
            BUBBLE, **{k: counting(k, getattr(BUBBLE, k)) for k in ("value", "grad", "hess")})
        ns = [2, 12]  # n = 12: several blocks on both rules
        cea_study(lambda n: gen_crisscross_aniso(n, 1.5), ns, u)
        want = Counter()
        for n in ns:
            m = gen_crisscross_aniso(n, 1.5)
            at_rule = 16 * m.n_triangles  # the degree-6 error rule
            # vertex values, then the load vector's -lap(u) on the 9-point
            # degree-4 rule, then value, gradient and Hessian at the error rule
            want["value"] += m.n_vertices + at_rule
            want["hess"] += 9 * m.n_triangles + at_rule
            want["grad"] += at_rule
        got = Counter()
        for kind, size in calls:
            got[kind] += size
        assert got == want
        assert max(size for _, size in calls) <= BLOCK_POINTS

    def test_element_geometry_once_per_row(self, monkeypatch):
        calls = record_calls(monkeypatch, geometry.element_geometry)
        ns = [2, 4]
        cea_study(lambda n: gen_crisscross_aniso(n, 1.5), ns, BUBBLE)
        assert calls == [gen_crisscross_aniso(n, 1.5).n_triangles for n in ns]

    def test_areas_once_per_row(self, monkeypatch):
        # for the mesh's element geometry; stats, the load vector and the
        # error context take the mesh's areas
        calls = record_calls(monkeypatch, geometry.signed_area)
        ns = [2, 4]
        cea_study(lambda n: gen_crisscross_aniso(n, 1.5), ns, BUBBLE)
        assert calls == [gen_crisscross_aniso(n, 1.5).n_triangles for n in ns]

    def test_uniform_halving_and_quotient_bound(self):
        rep = cea_study(gen_uniform, [8, 16, 32], SINSIN)
        errs = [r.h1_seminorm_error for r in rep.rows]
        for a, b in zip(errs, errs[1:]):
            assert 1.8 <= a / b <= 2.2
        # Poincare constant of the unit square taken as diam/pi
        cp = math.sqrt(2) / math.pi
        bound = math.sqrt(1 + cp ** 2)
        for r in rep.rows:
            assert 0 < r.quotient <= bound

    def test_chain_inequalities_each_row(self):
        rep = cea_study(
            lambda n: gen_crisscross_aniso(n, 1.5), [4, 8, 16], SINSIN)
        for r in rep.rows:
            assert r.h1_seminorm_error <= r.interp_h1 * (1 + 1e-8) + 1e-12
            assert r.interp_h1 <= r.max_R_K * r.semi_22_exact * (1 + 1e-8) + 1e-12

    @pytest.mark.parametrize("coeffs", [
        BUBBLE_COEFFS, [0, 0, 0, 0, 1, 0, 0, -1, -1, 0, 0, 0, 1, 0, 0]],
        ids=["bubble", "x(1-x)y(1-y)"])
    @pytest.mark.parametrize("mesh_factory", [
        gen_uniform, lambda n: gen_crisscross_aniso(n, 1.5)],
        ids=["uniform", "crisscross-1.5"])
    def test_semi_22_exact_matches_rational_seminorm(self, coeffs, mesh_factory):
        # |u|_2^2 = int u_xx^2 + 2 u_xy^2 + u_yy^2 over the unit square, from
        # int x^i y^j = 1 / ((i+1)(j+1)) on the exact polynomial
        graded = [(i, d - i) for d in range(6) for i in range(d, -1, -1)]
        u = {ij: Fraction(c) for ij, c in zip(graded, coeffs) if c}
        uxx, uyy = _poly_diff(_poly_diff(u, 0), 0), _poly_diff(_poly_diff(u, 1), 1)
        uxy = _poly_diff(_poly_diff(u, 0), 1)
        square = _poly_mul(uxx, uxx)
        for c, part in ((2, _poly_mul(uxy, uxy)), (1, _poly_mul(uyy, uyy))):
            for ij, v in part.items():
                square[ij] = square.get(ij, Fraction(0)) + c * v
        want = math.sqrt(sum(v / ((i + 1) * (j + 1)) for (i, j), v in square.items()))
        rep = cea_study(mesh_factory, [2, 4], polynomial_field(coeffs))
        for r in rep.rows:
            assert r.semi_22_exact == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_chain_inequalities_on_the_bubble(self):
        rep = cea_study(
            lambda n: gen_crisscross_aniso(n, 1.5), [8, 16], BUBBLE)
        for r in rep.rows:
            assert r.h1_seminorm_error <= r.interp_h1 <= r.max_R_K * r.semi_22_exact

    def test_crisscross_errors_decrease_while_angle_grows(self):
        rep = cea_study(
            lambda n: gen_crisscross_aniso(n, 1.5), [4, 8, 16], SINSIN)
        errs = [r.h1_norm_error for r in rep.rows]
        angles = [r.max_angle for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(a < b for a, b in zip(angles, angles[1:]))

    def test_field_not_vanishing_on_boundary_rejected(self):
        # the bubble plus 1e-9: boundary values 6.4e-9 of the largest vertex
        # value, 0.156 on this mesh, far above the rounding the relative
        # tolerance allows for
        lifted = dataclasses.replace(BUBBLE, name="bubble+1e-9",
                                     value=lambda x, y: BUBBLE.value(x, y) + 1e-9)
        for u in (get_field("expxy"), lifted):
            with pytest.raises(InconsistentSpec, match="boundary"):
                cea_study(gen_uniform, [4], u)

    def test_lens_interpolation_error_decreases(self):
        from circumlab.mesh import gen_lens, stats

        pairs = []
        for n in (4, 8, 16):
            mesh = gen_lens(n)
            semi, _ = interpolation_h1_error(mesh, SINSIN)
            pairs.append((stats(mesh).max_R_K, semi))
        assert pairs[0][1] > pairs[-1][1]
        assert pairs[0][0] > pairs[-1][0]
