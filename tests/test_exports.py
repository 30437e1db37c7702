"""The public surface of ``circumlab``, listed literally, as
``tests/test_schema.py`` lists report keys: adding or removing a public
name then shows as a change of this list.  Submodules are not listed,
because importing one (``circumlab.cli``, say) binds it on the package.

The benchmark reads the package in two ways, and the last two tests check
both in well under a second, where only a run of the workloads would
otherwise find a missing name:

- ``perfbench/workloads.py`` calls ``cl.<name>`` on the package;
- ``perfbench/layers.py``'s tracer wraps module-level functions by name:
  ``get_field``; ``random_triangles``, ``edge_lengths_and_area``,
  ``kobayashi_constant``, ``circumradius`` and ``metrics``; ``make_rule``,
  ``seminorm`` and ``seminorm_auto``; ``error_report`` and
  ``p1_interpolate``; ``lemma_inequality_audit``, ``rayleigh_A``,
  ``rayleigh_B`` and ``rayleigh_D``; ``_basis.tabulate``; ``gen_uniform``,
  ``gen_crisscross_aniso``, ``gen_lens``, ``stats``, ``write_mesh``,
  ``read_mesh`` and ``validate``; ``assemble``, ``solve_cg``, ``h1_error``,
  ``interpolation_h1_error`` and ``hessian_seminorm``; ``report``'s
  ``json_text``, ``csv_text`` and ``write_text``; and ``cli``'s
  ``_cmd_*`` handlers.

``seminorm_auto`` and ``p1_interpolate``, with its return type
``AffineFunction``, are reached by nothing but the tracer, and stay until
the tracer no longer names them."""
import ast
import importlib.util
import sys
import types
from pathlib import Path

import circumlab
import circumlab.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPORTS = [
    # errors
    "CircumlabError", "DegenerateTriangle", "IllConditioned",
    "InconsistentSpec", "InvalidExponent", "InvalidFamily", "InvalidThreshold",
    "NoConvergence", "NonConforming", "NotApplicable", "ParseError",
    "SingularSystem", "UnknownField", "UnsupportedDegree",
    # fields
    "ScalarField", "affine_field", "get_field", "monomial_field",
    "neg_laplacian", "polynomial_field",
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
    "read_mesh", "stats", "validate", "write_mesh",
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


def test_names_the_workloads_read_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (
        isinstance(node.value, ast.Name) and node.value.id == "cl"
        or isinstance(node.value, ast.Attribute) and node.value.attr == "cl")}
    assert {"assemble", "cli", "get_field", "lemma_inequality_audit"} <= read
    assert [n for n in sorted(read) if not hasattr(circumlab, n)] == []


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    before = {mod: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "circumlab" or name.startswith("circumlab.")}
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert circumlab.error_report is not before[circumlab]["error_report"]
    finally:
        tracer.uninstall()
    for mod, names in before.items():
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__
