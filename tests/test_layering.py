"""The package's import layering: geometry -> quadrature -> {interp, fem},
geometry -> mesh, and scipy imported only inside functions."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circumlab"


def package_imports(module: str) -> set[str]:
    """Names of the circumlab modules that ``module`` imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("circumlab"):
                continue
            base = (node.module or "").removeprefix("circumlab").lstrip(".")
            if base:
                names.add(base.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("circumlab."))
    return names


def test_geometry_imports_only_errors():
    assert package_imports("geometry") == {"errors"}


def test_fields_imports_only_errors():
    # the polynomial kernel and the jets stay free of quadrature
    assert package_imports("fields") == {"errors"}


@pytest.mark.parametrize("upper", ["fem", "interp", "mesh"])
def test_quadrature_below_its_users(upper):
    assert upper not in package_imports("quadrature")


def test_mesh_does_not_import_quadrature():
    # the element geometry and its read-only views live in geometry
    assert "quadrature" not in package_imports("mesh")


def test_quadrature_computes_no_geometry():
    # each Triangle and Mesh owns its geometry and passes it in
    tree = ast.parse((SRC / "quadrature.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "FieldAtRule" in names
    assert not names & {"element_geometry", "signed_area"}


def test_interp_does_not_import_fem():
    assert "fem" not in package_imports("interp")


def test_import_scan_sees_relative_imports():
    # interp imports quadrature and geometry (from .x import ...) and cli
    # imports modules by name (from . import x)
    assert {"geometry", "quadrature"} <= package_imports("interp")
    assert {"fem", "interp", "constants"} <= package_imports("cli")


def scipy_imports(module: str, *, module_level: bool) -> set[str]:
    """The scipy modules that ``module`` imports: with ``module_level``
    only those imported when the module is (outside function bodies),
    else all of them."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        nodes.extend(ast.iter_child_nodes(node))
    return {name for name in names if name.split(".")[0] == "scipy"}


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_scipy_import_at_module_level(module):
    # importing the package loads numpy only; scipy loads on first use
    assert scipy_imports(module, module_level=True) == set()


def test_scipy_only_inside_fem_constants_and_basis():
    users = {m for m in MODULES if scipy_imports(m, module_level=False)}
    assert users == {"fem", "constants", "_basis"}
