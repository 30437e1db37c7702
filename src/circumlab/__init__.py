"""circumlab: triangle interpolation-error constants and the circumradius
condition, verified numerically.

The package computes per-triangle geometric constants exactly, estimates
the constrained Sobolev quotient constants at p = 2 by polynomial
Rayleigh-quotient minimization, measures linear-interpolation errors on
degenerate triangle families, and demonstrates finite-element convergence
on meshes whose maximum angles tend to pi while the largest circumradius
tends to zero.
"""

from .errors import (
    CircumlabError,
    DegenerateTriangle,
    IllConditioned,
    InconsistentSpec,
    InvalidExponent,
    InvalidFamily,
    InvalidThreshold,
    NoConvergence,
    NonConforming,
    NotApplicable,
    ParseError,
    SingularSystem,
    UnknownField,
    UnsupportedDegree,
)
from .fields import (
    ScalarField,
    affine_field,
    get_field,
    monomial_field,
    neg_laplacian,
    polynomial_field,
)
from .geometry import (
    CanonicalForm,
    Triangle,
    TriangleMetrics,
    canonicalize,
    circumradius,
    condition_flags,
    edge_lengths_and_area,
    kobayashi_constant,
    metrics,
    needle_triangle,
    random_triangles,
    reference_triangle,
)
from .quadrature import (
    QuadratureRule,
    SeminormSpec,
    integrate,
    make_rule,
    seminorm,
    seminorm_auto,
)
from .interp import (
    AffineFunction,
    InterpErrorReport,
    error_report,
    needle_study,
    p1_interpolate,
)
from .constants import (
    D2_REFERENCE,
    AuditEntry,
    AuditRecord,
    QuotientEstimate,
    a2_constant,
    babuska_aziz_root,
    lemma_inequality_audit,
    rayleigh_A,
    rayleigh_B,
    rayleigh_D,
)
from .mesh import (
    Mesh,
    MeshStats,
    gen_crisscross_aniso,
    gen_lens,
    gen_uniform,
    read_mesh,
    stats,
    validate,
    write_mesh,
)
from .fem import (
    CeaReport,
    CeaRow,
    FemSolution,
    SparseSystem,
    assemble,
    cea_study,
    h1_error,
    hessian_seminorm,
    interpolation_h1_error,
    solve_cg,
    solve_poisson,
    stiffness_matrix,
)

__version__ = "0.1.0"
