"""The public surface of ``circumlab``, listed literally, as
``tests/test_schema.py`` lists report keys: adding or removing a public
name then shows as a change of this list.  perfbench's per-layer tracer
patches ``metrics``, ``seminorm_auto`` and ``p1_interpolate`` by name, so
those stay.  Submodules are not listed, because importing one
(``circumlab.cli``, say) binds it on the package."""
import types

import circumlab

EXPORTS = [
    # errors
    "CircumlabError", "DegenerateTriangle", "IllConditioned",
    "InconsistentSpec", "InvalidExponent", "InvalidFamily", "InvalidThreshold",
    "NoConvergence", "NonConforming", "NotApplicable", "ParseError",
    "SingularSystem", "UnknownField", "UnsupportedDegree",
    # fields
    "ScalarField", "affine_field", "get_field", "list_fields",
    "monomial_field", "neg_laplacian", "polynomial_field", "random_polynomial",
    "scaled",
    # geometry
    "CanonicalForm", "Triangle", "TriangleMetrics", "canonicalize",
    "circumradius", "condition_flags", "edge_lengths_and_area",
    "kobayashi_constant", "metrics", "needle_triangle", "random_triangles",
    "reference_triangle",
    # quadrature
    "QuadratureRule", "SeminormSpec", "integrate", "make_rule", "seminorm",
    "seminorm_auto",
    # interp
    "AffineFunction", "InterpErrorReport", "error_report", "needle_study",
    "p1_interpolate",
    # constants
    "D2_REFERENCE", "AuditEntry", "AuditRecord", "QuotientEstimate",
    "a2_constant", "babuska_aziz_root", "lemma_inequality_audit",
    "rayleigh_A", "rayleigh_B", "rayleigh_D",
    # mesh
    "Mesh", "MeshStats", "gen_crisscross_aniso", "gen_lens", "gen_uniform",
    "lens_contains", "read_mesh", "single_triangle_mesh", "stats", "validate",
    "write_mesh",
    # fem
    "CeaReport", "CeaRow", "FemSolution", "SparseSystem", "assemble",
    "cea_study", "h1_error", "hessian_seminorm", "interpolation_h1_error",
    "solve_cg", "solve_poisson", "stiffness_matrix",
]


def test_public_names():
    names = [n for n, v in vars(circumlab).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == sorted(EXPORTS)
    assert len(set(EXPORTS)) == len(EXPORTS)
