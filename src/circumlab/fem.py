"""P1 finite elements for the Poisson problem with zero Dirichlet data,
plus convergence studies tying the discretization error to the largest
element circumradius.

The chain being exhibited numerically is

    |u - u_h|_{1,2}  <=  |u - I_h u|_{1,2}  <=  (max_K R_K) |u|_{2,2}

(energy optimality of the Galerkin solution, then the per-element
circumradius bound summed over the mesh), so the solutions converge as
long as max_K R_K -> 0, regardless of the maximum angle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import DegenerateTriangle, InconsistentSpec, NoConvergence, SingularSystem
from .fields import ScalarField, neg_laplacian
from .geometry import signed_area
from .mesh import Mesh, stats
from .quadrature import (QuadratureRule, hessian_lp_power, lp_power, make_rule,
                         p1_values, physical_points)

LOAD_QUAD_DEGREE = 4
ERROR_QUAD_DEGREE = 6
# the factor-preconditioned solve needs one or two steps; the cap only
# bounds the work a broken factor can waste
MAX_CG_ITER = 20


def _element_geometry(p):
    """Signed areas (...) and P1 shape gradients gx, gy (..., 3) of the
    triangles of a (..., 3, 2) vertex array; entry i of the last axis of
    gx, gy is the gradient of the hat function of local vertex i."""
    x, y = p[..., 0], p[..., 1]
    e1, e2 = [1, 2, 0], [2, 0, 1]
    areas = signed_area(p)
    flat = np.ravel(areas)
    if np.any(flat <= 0.0):
        k = int(np.argmax(flat <= 0.0))
        raise DegenerateTriangle(f"element {k} has non-positive area {flat[k]:.3e}")
    # grad(lambda_i) = rot90(opposite edge) / (2S)
    s2 = (2.0 * areas)[..., None]
    gx = (y[..., e1] - y[..., e2]) / s2
    gy = (x[..., e2] - x[..., e1]) / s2
    return areas, gx, gy


def stiffness_matrix(mesh: Mesh) -> scipy.sparse.csr_matrix:
    """Unconstrained P1 stiffness matrix (exact per-element closed form)."""
    areas, gx, gy = _element_geometry(mesh.element_coords())
    ke = areas[:, None, None] * (
        gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    )
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    a = scipy.sparse.coo_matrix(
        (ke.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    )
    return a.tocsr()


def load_vector(mesh: Mesh, f: ScalarField,
                rule: QuadratureRule | None = None) -> np.ndarray:
    """int f * hat_i by per-element quadrature (default degree 4)."""
    if rule is None:
        rule = make_rule(LOAD_QUAD_DEGREE)
    xq, yq, w = physical_points(rule, mesh.element_coords())  # (nq, nt)
    fv = np.asarray(f.value(xq, yq), dtype=float)
    contrib = ((w * fv)[:, :, None] * rule.points[:, None, :]).sum(axis=0)
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return b


@dataclass
class SparseSystem:
    """Constrained SPD system on the free (interior) degrees of freedom."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    n_total: int


def assemble(mesh: Mesh, f: ScalarField,
             load_rule: QuadratureRule | None = None) -> SparseSystem:
    """Stiffness + load with symmetric elimination of boundary rows/columns."""
    a = stiffness_matrix(mesh)
    b = load_vector(mesh, f, load_rule)
    free = np.flatnonzero(~mesh.boundary)
    a_ff = a[free][:, free].tocsr()
    return SparseSystem(matrix=a_ff, rhs=b[free], free=free,
                        n_total=mesh.n_vertices)


@dataclass
class SolverReport:
    iterations: int
    relative_residual: float
    history: list[float]


@dataclass
class FemSolution:
    """Nodal values (zero at boundary nodes) plus the solver report."""

    mesh: Mesh
    values: np.ndarray
    report: SolverReport


def solve_cg(sys: SparseSystem, rel_tol: float = 1e-10,
             max_iter: int | None = None) -> tuple[np.ndarray, SolverReport]:
    """Conjugate gradients on the free block, preconditioned by one sparse
    LU factor of it.

    The factor (SuperLU on the minimum-degree ordering of A^T + A, pivoting
    on the diagonal, which is stable for the SPD stiffness block) is all
    but exact, so CG acts as iterative refinement and usually stops after
    one step; the report still carries the iterations and the residual
    history.  Deterministic for fixed input.  Raises SingularSystem, a
    NoConvergence, when the block cannot be factored, and NoConvergence
    (with the residual history so far) when max_iter (default
    ``MAX_CG_ITER``) is exhausted.
    """
    a = sys.matrix
    b = sys.rhs
    n = len(b)
    if n == 0:
        return np.zeros(0), SolverReport(0, 0.0, [0.0])
    if max_iter is None:
        max_iter = MAX_CG_ITER
    x = np.zeros(n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolverReport(0, 0.0, [0.0])
    history = [1.0]
    try:
        lu = scipy.sparse.linalg.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSystem(str(exc)) from exc
    r = b.copy()
    z = lu.solve(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        if res <= rel_tol:
            return x, SolverReport(it, res, history)
        z = lu.solve(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NoConvergence(max_iter, history)


def solve_poisson(mesh: Mesh, f: ScalarField, rel_tol: float = 1e-10,
                  max_iter: int | None = None) -> FemSolution:
    """Assemble and solve -lap(u) = f, u = 0 on the boundary."""
    sys = assemble(mesh, f)
    xf, report = solve_cg(sys, rel_tol=rel_tol, max_iter=max_iter)
    values = np.zeros(mesh.n_vertices)
    values[sys.free] = xf
    return FemSolution(mesh=mesh, values=values, report=report)


def interpolant_values(mesh: Mesh, u: ScalarField) -> np.ndarray:
    """Nodal vector of the piecewise-linear interpolant of u."""
    return np.asarray(u.value(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)


class FieldAtRule:
    """A field on the triangles of a (..., 3, 2) vertex array at the points
    of one rule: element geometry, the physical points and the field's
    value, gradient and Hessian there, each computed at most once, on first
    use."""

    def __init__(self, pts, field: ScalarField, rule: QuadratureRule):
        self.pts = pts
        self.field = field
        self.rule = rule

    @cached_property
    def geometry(self):
        return _element_geometry(self.pts)

    @cached_property
    def points(self):
        return physical_points(self.rule, self.pts)

    @cached_property
    def value(self) -> np.ndarray:
        x, y, _ = self.points
        return np.asarray(self.field.value(x, y), dtype=float)

    def _derivative(self, kind: str):
        fn = getattr(self.field, kind)
        if fn is None:
            what = {"grad": "gradient evaluators", "hess": "Hessian"}[kind]
            raise InconsistentSpec(f"{self.field.name} has no {what}")
        x, y, _ = self.points
        return fn(x, y)

    @cached_property
    def grad(self):
        return self._derivative("grad")

    @cached_property
    def hess(self):
        return self._derivative("hess")

    def error_power(self, nodal, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(|v - u_h|_{0,p}^p, |v - u_h|_{1,p}^p) on each triangle, where
        u_h is the P1 function with vertex values ``nodal`` (..., 3); at
        p = inf the maxima over the rule points."""
        ex, ey = self.grad
        _, gx, gy = self.geometry
        w = self.points[2]
        return (lp_power(w, p, [self.value - p1_values(self.rule, nodal)]),
                lp_power(w, p, [ex - (nodal * gx).sum(axis=-1), ey - (nodal * gy).sum(axis=-1)]))

    def hessian_power(self, p: float) -> np.ndarray:
        """|v|_{2,p}^p on each triangle (the max at p = inf)."""
        return hessian_lp_power(self.points[2], p, self.hess)


class MeshErrorContext(FieldAtRule):
    """``FieldAtRule`` for the elements of a mesh (by default at the
    degree-6 error rule), plus the field's values at the mesh vertices.
    The error functionals below take it in place of their field, so that
    one study row evaluates the exact field once per evaluator."""

    def __init__(self, mesh: Mesh, field: ScalarField,
                 rule: QuadratureRule | None = None):
        super().__init__(mesh.element_coords(), field,
                         rule or make_rule(ERROR_QUAD_DEGREE))
        self.mesh = mesh

    @cached_property
    def nodal(self) -> np.ndarray:
        return interpolant_values(self.mesh, self.field)


def _context(mesh: Mesh, u, rule: QuadratureRule | None) -> MeshErrorContext:
    if not isinstance(u, MeshErrorContext):
        return MeshErrorContext(mesh, u, rule)
    if u.mesh is not mesh or (rule is not None and rule is not u.rule):
        raise InconsistentSpec("the error context belongs to another mesh or rule")
    return u


def h1_error(mesh: Mesh, nodal: np.ndarray, exact,
             rule: QuadratureRule | None = None) -> tuple[float, float]:
    """(H1-seminorm error, full H1-norm error) of a nodal P1 function
    against ``exact`` (a field or a ``MeshErrorContext`` of this mesh),
    accumulated in element-index order."""
    l22, semi2 = (float(np.add.reduce(e)) for e in _context(mesh, exact, rule).error_power(
        nodal[mesh.triangles], 2.0))
    return math.sqrt(semi2), math.sqrt(semi2 + l22)


def hessian_seminorm(mesh: Mesh, u, rule: QuadratureRule | None = None) -> float:
    """|u|_{2,2} over the meshed domain (weight-2 mixed term); u is a field
    or a ``MeshErrorContext`` of this mesh."""
    return math.sqrt(float(np.add.reduce(_context(mesh, u, rule).hessian_power(2.0))))


def interpolation_h1_error(mesh: Mesh, u,
                           rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Mesh-wide H1 interpolation error |u - I_h u| (seminorm, full norm);
    u is a field or a ``MeshErrorContext`` of this mesh."""
    ctx = _context(mesh, u, rule)
    return h1_error(mesh, ctx.nodal, ctx)


@dataclass(frozen=True)
class CeaRow:
    level: int
    n: int
    n_triangles: int
    max_R_K: float
    h_max: float
    max_angle: float
    interp_h1: float
    h1_seminorm_error: float
    h1_norm_error: float
    semi_22_exact: float
    quotient: float
    cg_iterations: int
    cg_residual: float

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "n": self.n,
            "n_triangles": self.n_triangles,
            "max_R_K": self.max_R_K,
            "h_max": self.h_max,
            "max_angle": self.max_angle,
            "interp_h1": self.interp_h1,
            "h1_seminorm_error": self.h1_seminorm_error,
            "h1_norm_error": self.h1_norm_error,
            "semi_22_exact": self.semi_22_exact,
            "quotient": self.quotient,
            "cg_iterations": self.cg_iterations,
            "cg_residual": self.cg_residual,
        }


CEA_CSV_COLUMNS = (
    "level", "n", "n_triangles", "max_R_K", "h_max", "max_angle", "interp_h1",
    "h1_seminorm_error", "h1_norm_error", "semi_22_exact", "quotient",
    "cg_iterations", "cg_residual",
)


@dataclass(frozen=True)
class CeaReport:
    exact_name: str
    family: str
    rows: list[CeaRow]


def cea_study(mesh_factory, ns, exact: ScalarField, rel_tol: float = 1e-10,
              family: str = "custom") -> CeaReport:
    """One refinement row per n in ``ns``.

    ``exact`` must vanish on the domain boundary (manufactured solution),
    else InconsistentSpec; the right-hand side is derived analytically as
    -lap(exact).  Rows carry the interpolation-error column so all three
    chain inequalities are visible: |u-u_h|_1 <= |u-I_h u|_1 <= (max R_K)
    |u|_2.
    """
    f = neg_laplacian(exact)
    rows = []
    for level, n in enumerate(ns):
        mesh = mesh_factory(n)
        ctx = MeshErrorContext(mesh, exact)
        # relative to the field's size: rounding leaves about 1e-16 of it at
        # boundary vertices where it vanishes analytically
        nodal = np.abs(ctx.nodal)
        off = float(np.max(nodal[mesh.boundary], initial=0.0))
        if off > 1e-12 * float(np.max(nodal)):
            raise InconsistentSpec(
                f"{exact.name} is {off:.3e} at a boundary vertex of mesh n = {n}; "
                "the study needs u = 0 on the boundary"
            )
        st = stats(mesh)
        sol = solve_poisson(mesh, f, rel_tol=rel_tol)
        semi_err, norm_err = h1_error(mesh, sol.values, ctx)
        interp_err, _ = interpolation_h1_error(mesh, ctx)
        semi22 = hessian_seminorm(mesh, ctx)
        rows.append(
            CeaRow(
                level=level,
                n=int(n),
                n_triangles=mesh.n_triangles,
                max_R_K=st.max_R_K,
                h_max=st.h_max,
                max_angle=st.max_angle,
                interp_h1=interp_err,
                h1_seminorm_error=semi_err,
                h1_norm_error=norm_err,
                semi_22_exact=semi22,
                quotient=norm_err / (st.max_R_K * semi22),
                cg_iterations=sol.report.iterations,
                cg_residual=sol.report.relative_residual,
            )
        )
    return CeaReport(exact_name=exact.name, family=family, rows=rows)
