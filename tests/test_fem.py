import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from circumlab.errors import InconsistentSpec, NoConvergence
from circumlab.fem import (
    MeshErrorContext,
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
from circumlab.fields import ScalarField, get_field, neg_laplacian, polynomial_field, scaled
from circumlab.geometry import reference_triangle
from circumlab.mesh import gen_crisscross_aniso, gen_uniform, single_triangle_mesh
from circumlab.quadrature import make_rule

SINSIN = get_field("sinsin")
# u = x(1-x) y(1-y) (1+x+2y), the generic bubble: unlike sinsin it is no
# near-eigenvector of the discrete Laplacian
BUBBLE = polynomial_field(
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, -1, -2, -2, 0, 0, 0, 1, 2, 0, 0])


class TestAssembly:
    def test_single_reference_triangle_all_boundary(self):
        sys = assemble(single_triangle_mesh(reference_triangle()), get_field("one"))
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
        sys = SparseSystem(matrix=eye, rhs=rhs, free=np.arange(n), n_total=n)
        x, rep = solve_cg(sys)
        assert rep.iterations == 1
        assert x == pytest.approx(rhs, rel=1e-12)

    def test_residual_history_on_failure(self):
        # one factor-preconditioned step reaches rounding level, so only a
        # zero tolerance exhausts the iterations
        mesh = gen_uniform(8)
        sys = assemble(mesh, scaled(SINSIN, 2 * math.pi ** 2))
        with pytest.raises(NoConvergence) as exc:
            solve_cg(sys, rel_tol=0.0, max_iter=3)
        assert len(exc.value.history) == 4
        assert exc.value.max_iter == 3

    def test_singular_block_raises_no_convergence(self):
        zero = scipy.sparse.csr_matrix((2, 2))
        sys = SparseSystem(matrix=zero, rhs=np.ones(2), free=np.arange(2), n_total=2)
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

    def test_converges_within_200_iterations(self):
        mesh = gen_uniform(8)
        sys = assemble(mesh, scaled(SINSIN, 2 * math.pi ** 2))
        x, rep = solve_cg(sys, rel_tol=1e-10, max_iter=200)
        assert rep.relative_residual <= 1e-10
        true_res = np.linalg.norm(sys.rhs - sys.matrix @ x) / np.linalg.norm(sys.rhs)
        assert true_res <= 2e-10

    def test_zero_source_gives_zero_solution(self):
        sol = solve_poisson(gen_uniform(4), polynomial_field([0.0]))
        assert np.all(sol.values == 0.0)

    def test_boundary_values_exactly_zero(self):
        mesh = gen_uniform(6)
        sol = solve_poisson(mesh, scaled(SINSIN, 2 * math.pi ** 2))
        assert np.all(sol.values[mesh.boundary] == 0.0)

    def test_galerkin_orthogonality(self):
        mesh = gen_uniform(8)
        sys = assemble(mesh, scaled(SINSIN, 2 * math.pi ** 2))
        x, _ = solve_cg(sys, rel_tol=1e-12)
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
            sol = solve_poisson(mesh, scaled(SINSIN, 2 * math.pi ** 2))
            errs.append(h1_error(mesh, sol.values, SINSIN)[0])
        assert 1.8 <= errs[0] / errs[1] <= 2.2

    def test_interpolant_error_dominates_fem_error(self):
        mesh = gen_uniform(12)
        sol = solve_poisson(mesh, scaled(SINSIN, 2 * math.pi ** 2))
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


class TestErrorContext:
    def test_context_gives_the_field_values(self):
        mesh = gen_crisscross_aniso(4, 1.5)
        u = get_field("sinsin")
        ctx = MeshErrorContext(mesh, u)
        nodal = np.linspace(0.0, 1.0, mesh.n_vertices)
        assert h1_error(mesh, nodal, ctx) == h1_error(mesh, nodal, u)
        assert interpolation_h1_error(mesh, ctx) == interpolation_h1_error(mesh, u)
        assert hessian_seminorm(mesh, ctx) == hessian_seminorm(mesh, u)

    def test_context_of_another_mesh_or_rule_rejected(self):
        ctx = MeshErrorContext(gen_uniform(2), SINSIN)
        with pytest.raises(InconsistentSpec):
            hessian_seminorm(gen_uniform(2), ctx)
        with pytest.raises(InconsistentSpec):
            hessian_seminorm(ctx.mesh, ctx, rule=make_rule(8))


class TestCeaStudy:
    def test_exact_field_evaluated_once_per_evaluator(self):
        calls = []

        def counting(kind, fn):
            def wrapper(x, y):
                calls.append((kind, np.size(x)))
                return fn(x, y)
            return wrapper

        u = dataclasses.replace(
            BUBBLE, **{k: counting(k, getattr(BUBBLE, k)) for k in ("value", "grad", "hess")})
        ns = [2, 4]
        cea_study(lambda n: gen_crisscross_aniso(n, 1.5), ns, u, family="crisscross")
        want = []
        for n in ns:
            m = gen_crisscross_aniso(n, 1.5)
            at_rule = 16 * m.n_triangles  # the degree-6 error rule
            # vertex values, then the load vector's -lap(u) on the 9-point
            # degree-4 rule, then value, gradient and Hessian at the error rule
            want += [("value", m.n_vertices), ("hess", 9 * m.n_triangles),
                     ("grad", at_rule), ("value", at_rule), ("hess", at_rule)]
        assert Counter(calls) == Counter(want)


    def test_uniform_halving_and_quotient_bound(self):
        rep = cea_study(gen_uniform, [8, 16, 32], SINSIN, family="uniform")
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
            lambda n: gen_crisscross_aniso(n, 1.5), [4, 8, 16], SINSIN,
            family="crisscross",
        )
        for r in rep.rows:
            assert r.h1_seminorm_error <= r.interp_h1 * (1 + 1e-8) + 1e-12
            assert r.interp_h1 <= r.max_R_K * r.semi_22_exact * (1 + 1e-8) + 1e-12

    def test_chain_inequalities_on_the_bubble(self):
        rep = cea_study(
            lambda n: gen_crisscross_aniso(n, 1.5), [8, 16], BUBBLE,
            family="crisscross",
        )
        for r in rep.rows:
            assert r.h1_seminorm_error <= r.interp_h1 <= r.max_R_K * r.semi_22_exact

    def test_crisscross_errors_decrease_while_angle_grows(self):
        rep = cea_study(
            lambda n: gen_crisscross_aniso(n, 1.5), [4, 8, 16], SINSIN,
            family="crisscross",
        )
        errs = [r.h1_norm_error for r in rep.rows]
        angles = [r.max_angle for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(a < b for a, b in zip(angles, angles[1:]))

    def test_field_not_vanishing_on_boundary_rejected(self):
        with pytest.raises(InconsistentSpec, match="boundary"):
            cea_study(gen_uniform, [4], get_field("expxy"), family="uniform")

    def test_lens_interpolation_error_decreases(self):
        from circumlab.mesh import gen_lens, stats

        pairs = []
        for n in (4, 8, 16):
            mesh = gen_lens(n)
            semi, _ = interpolation_h1_error(mesh, SINSIN)
            pairs.append((stats(mesh).max_R_K, semi))
        assert pairs[0][1] > pairs[-1][1]
        assert pairs[0][0] > pairs[-1][0]
