"""P1 finite elements for the Poisson problem with zero Dirichlet data,
plus convergence studies tying the discretization error to the largest
element circumradius.

The chain being exhibited numerically is

    |u - u_h|_{1,2}  <=  |u - I_h u|_{1,2}  <=  (max_K R_K) |u|_{2,2}

(energy optimality of the Galerkin solution, then the per-element
circumradius bound summed over the mesh), so the solutions converge as
long as max_K R_K -> 0, regardless of the maximum angle.

Every mesh-wide quadrature pass, the load vector's and the error
functionals', runs over consecutive blocks of elements, each one
``FieldAtRule`` on the mesh's own coordinates and geometry with at most
``BLOCK_POINTS`` rule points, so a field with a jet gives value, gradient
and Hessian in one call per block and no array spans (rule points x
elements).  ``_error_pass`` is the one error pass: per element the
|u - u_h|_0^2 and |u - u_h|_1^2 of each nodal vector it is given and
|u|_2^2, each row summed over the whole mesh in element-index order, so the
sums do not depend on the block size.  ``h1_error``,
``interpolation_h1_error`` and ``hessian_seminorm`` are its views, and one
pass serves a whole ``cea_study`` row.

``CeaRow`` is the schema of a study's ``circumlab/1`` rows: the JSON row is
its ``dataclasses.asdict``, the CSV row its ``dataclasses.astuple`` under
``CEA_CSV_COLUMNS``, the names of its fields in order.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSpec, NoConvergence, SingularSystem
from .fields import BLOCK_POINTS, ScalarField, neg_laplacian
from .mesh import Mesh, stats
from .quadrature import FieldAtRule, QuadratureRule, make_rule

LOAD_QUAD_DEGREE = 4
ERROR_QUAD_DEGREE = 6
# refinement on the factor needs one or two steps; the cap only bounds the
# work a broken factor can waste
MAX_CG_ITER = 20
# relative residual |b - A x| / |b| at which refinement stops
CG_REL_TOL = 1e-10


def stiffness_matrix(mesh: Mesh) -> scipy.sparse.csr_matrix:
    """Unconstrained P1 stiffness matrix (exact per-element closed form)."""
    import scipy.sparse

    areas, gx, gy = mesh.geometry
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


def _blocks(mesh: Mesh, field: ScalarField, rule: QuadratureRule):
    """(slice, ``FieldAtRule``) over consecutive blocks of the mesh's
    elements, each with at most ``BLOCK_POINTS`` points of ``rule``, on
    the matching slices of ``mesh.coords`` and ``mesh.geometry``."""
    size = BLOCK_POINTS // len(rule.weights)
    for start in range(0, mesh.n_triangles, size):
        sl = slice(start, start + size)
        yield sl, FieldAtRule(mesh.coords[sl], field, rule, tuple(g[sl] for g in mesh.geometry))


def load_vector(mesh: Mesh, f: ScalarField) -> np.ndarray:
    """int f * hat_i by per-element quadrature of degree 4."""
    rule = make_rule(LOAD_QUAD_DEGREE)
    b = np.zeros(mesh.n_vertices)
    for sl, at_rule in _blocks(mesh, f, rule):
        fw = at_rule.points[2] * at_rule.value  # (nq, block)
        contrib = (fw[:, :, None] * rule.points[:, None, :]).sum(axis=0)
        # block by block in element order: the order of the whole-mesh add.at
        np.add.at(b, mesh.triangles[sl].ravel(), contrib.ravel())
    return b


@dataclass
class SparseSystem:
    """Constrained SPD system on the free (interior) degrees of freedom."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray


def assemble(mesh: Mesh, f: ScalarField) -> SparseSystem:
    """Stiffness + load with symmetric elimination of boundary rows/columns."""
    a = stiffness_matrix(mesh)
    b = load_vector(mesh, f)
    free = np.flatnonzero(~mesh.boundary)
    a_ff = a[free][:, free].tocsr()
    return SparseSystem(matrix=a_ff, rhs=b[free], free=free)


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


def solve_cg(sys: SparseSystem) -> tuple[np.ndarray, SolverReport]:
    """Direct solve of the free block by one sparse LU factor (SuperLU on
    the minimum-degree ordering of A^T + A, pivoting on the diagonal, which
    is stable for the SPD stiffness block), with iterative refinement: each
    step adds the factor's solution of A d = r to x and recomputes the true
    residual r = b - A x, until |r| <= ``CG_REL_TOL`` * |b|, usually after one
    step.  The report carries the steps and the residual history.
    Deterministic for fixed input.  Raises SingularSystem, a NoConvergence,
    when the block cannot be factored, and NoConvergence (with the history
    so far) after ``MAX_CG_ITER`` steps.
    """
    import scipy.sparse.linalg

    a = sys.matrix
    b = sys.rhs
    n = len(b)
    if n == 0:
        return np.zeros(0), SolverReport(0, 0.0, [0.0])
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
    r = b
    for it in range(1, MAX_CG_ITER + 1):
        x += lu.solve(r)
        r = b - a @ x
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        if res <= CG_REL_TOL:
            return x, SolverReport(it, res, history)
    raise NoConvergence(MAX_CG_ITER, history)


def solve_poisson(mesh: Mesh, f: ScalarField) -> FemSolution:
    """Assemble and solve -lap(u) = f, u = 0 on the boundary."""
    sys = assemble(mesh, f)
    xf, report = solve_cg(sys)
    values = np.zeros(mesh.n_vertices)
    values[sys.free] = xf
    return FemSolution(mesh=mesh, values=values, report=report)


def interpolant_values(mesh: Mesh, u: ScalarField) -> np.ndarray:
    """Nodal vector of the piecewise-linear interpolant of u."""
    return np.asarray(u.value(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)


def _error_pass(mesh: Mesh, u: ScalarField, nodals, hessian: bool) -> list[float]:
    """The squared mesh errors of u in one pass over the error rule: for
    each vertex vector of ``nodals`` |u - u_h|_{0,2}^2 and |u - u_h|_{1,2}^2,
    then |u|_{2,2}^2 (weight-2 mixed term) when ``hessian``.  Each is
    summed over all elements in element-index order."""
    per_element = np.empty((2 * len(nodals) + hessian, mesh.n_triangles))
    for sl, at_rule in _blocks(mesh, u, make_rule(ERROR_QUAD_DEGREE)):
        t = mesh.triangles[sl]
        rows = [e for nodal in nodals for e in at_rule.error_power(nodal[t], 2.0)]
        if hessian:
            rows.append(at_rule.hessian_power(2.0))
        for row, e in zip(per_element, rows):
            row[sl] = e
    return [float(np.add.reduce(row)) for row in per_element]


def _h1(l22: float, semi2: float) -> tuple[float, float]:
    return math.sqrt(semi2), math.sqrt(semi2 + l22)


def h1_error(mesh: Mesh, nodal: np.ndarray, exact: ScalarField) -> tuple[float, float]:
    """(H1-seminorm error, full H1-norm error) of a nodal P1 function
    against ``exact``."""
    return _h1(*_error_pass(mesh, exact, [nodal], False))


def hessian_seminorm(mesh: Mesh, u: ScalarField) -> float:
    """|u|_{2,2} over the meshed domain (weight-2 mixed term)."""
    return math.sqrt(_error_pass(mesh, u, [], True)[0])


def interpolation_h1_error(mesh: Mesh, u: ScalarField) -> tuple[float, float]:
    """Mesh-wide H1 interpolation error |u - I_h u| (seminorm, full norm)."""
    return h1_error(mesh, interpolant_values(mesh, u), u)


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


CEA_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(CeaRow))


@dataclass(frozen=True)
class CeaReport:
    rows: list[CeaRow]


def cea_study(mesh_factory, ns, exact: ScalarField) -> CeaReport:
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
        nodal = interpolant_values(mesh, exact)
        # relative to the field's size: rounding leaves about 1e-16 of it at
        # boundary vertices where it vanishes analytically
        size = np.abs(nodal)
        off = float(np.max(size[mesh.boundary], initial=0.0))
        if off > 1e-12 * float(np.max(size)):
            raise InconsistentSpec(
                f"{exact.name} is {off:.3e} at a boundary vertex of mesh n = {n}; "
                "the study needs u = 0 on the boundary"
            )
        st = stats(mesh)
        sol = solve_poisson(mesh, f)
        l22, semi2, _, interp2, hess2 = _error_pass(mesh, exact, [sol.values, nodal], True)
        semi_err, norm_err = _h1(l22, semi2)
        semi22 = math.sqrt(hess2)
        bound = st.max_R_K * semi22
        rows.append(
            CeaRow(
                level=level,
                n=int(n),
                n_triangles=mesh.n_triangles,
                max_R_K=st.max_R_K,
                h_max=st.h_max,
                max_angle=st.max_angle,
                interp_h1=math.sqrt(interp2),
                h1_seminorm_error=semi_err,
                h1_norm_error=norm_err,
                semi_22_exact=semi22,
                quotient=norm_err / bound if bound > 0.0 else 0.0,
                cg_iterations=sol.report.iterations,
                cg_residual=sol.report.relative_residual,
            )
        )
    return CeaReport(rows=rows)
