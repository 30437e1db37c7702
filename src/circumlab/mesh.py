"""Conforming triangulations: structured generators, degenerate families,
quality statistics, and a line-based text format.

Two generators realize the degenerate families whose largest angles tend
to pi while the largest circumradius still tends to zero: an anisotropic
crisscross of the unit square (columns of width 1/n, rows of height about
(1/n)**alpha, each cell split into 4 by its center) and a layered
triangulation of the curved domain |x-y|^(3/2) + |x+y|^(3/2) < 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTriangle, InvalidFamily, NonConforming, ParseError
from .geometry import Triangle, edge_lengths_and_area, shape_quantities, signed_area


@dataclass
class Mesh:
    """Conforming triangulation with vertex boundary flags.

    vertices: (nv, 2) float array; boundary: (nv,) bool; triangles:
    (nt, 3) int array, counterclockwise.  ``family_tag`` records the
    generator and its parameters; ``warnings`` collects parser notes
    (e.g. reoriented triangles) and is never serialized.
    """

    vertices: np.ndarray
    boundary: np.ndarray
    triangles: np.ndarray
    family_tag: tuple[str, dict] | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.boundary = np.asarray(self.boundary, dtype=bool)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle(self, k: int) -> Triangle:
        i, j, l = self.triangles[k]
        return Triangle(tuple(self.vertices[i]), tuple(self.vertices[j]),
                        tuple(self.vertices[l]))

    def element_coords(self) -> np.ndarray:
        """(nt, 3, 2) vertex coordinates per element."""
        return self.vertices[self.triangles]


@dataclass(frozen=True)
class MeshStats:
    n_vertices: int
    n_triangles: int
    h_max: float
    max_R_K: float
    min_angle: float
    max_angle: float
    min_rho_over_h: float

    def to_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "n_triangles": self.n_triangles,
            "h_max": self.h_max,
            "max_R_K": self.max_R_K,
            "min_angle": self.min_angle,
            "max_angle": self.max_angle,
            "min_rho_over_h": self.min_rho_over_h,
        }


def validate(mesh: Mesh) -> None:
    """Raise on non-positive elements, duplicate triangles, over-shared or
    mis-flagged edges; boundary flags must mark exactly the vertices of
    edges used by a single triangle."""
    areas = signed_area(mesh.element_coords())
    if len(areas):
        k = int(np.argmin(areas))
        if areas[k] <= 0.0:
            raise DegenerateTriangle(
                f"element {k} has non-positive area {areas[k]:.3e}"
            )
    if mesh.triangles.size and int(mesh.triangles.max()) >= mesh.n_vertices:
        raise NonConforming("triangle references a missing vertex")

    seen: dict[tuple[int, int], int] = {}
    edge_use: dict[tuple[int, int], int] = {}
    for k, (i, j, l) in enumerate(mesh.triangles):
        key = tuple(sorted((int(i), int(j), int(l))))
        if key in seen:
            raise NonConforming(
                f"elements {seen[key]} and {k} are the same triangle {key}"
            )
        seen[key] = k
        for a, b in ((i, j), (j, l), (l, i)):
            e = (int(min(a, b)), int(max(a, b)))
            edge_use[e] = edge_use.get(e, 0) + 1
            if edge_use[e] > 2:
                raise NonConforming(f"edge {e} shared by more than two triangles")
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    for (a, b), cnt in edge_use.items():
        if cnt == 1:
            on_boundary[a] = True
            on_boundary[b] = True
    if not np.array_equal(on_boundary, mesh.boundary):
        k = int(np.argmax(on_boundary != mesh.boundary))
        raise NonConforming(
            f"vertex {k} boundary flag {bool(mesh.boundary[k])} disagrees with "
            f"edge usage {bool(on_boundary[k])}"
        )


def stats(mesh: Mesh) -> MeshStats:
    """Per-element ``shape_quantities`` folded with order-independent
    max/min."""
    p = mesh.element_coords()
    s = signed_area(p)
    if np.any(s <= 0.0):
        k = int(np.argmax(s <= 0.0))
        raise DegenerateTriangle(f"element {k} has non-positive area {s[k]:.3e}")
    h, rho, rk, _, angles = shape_quantities(*edge_lengths_and_area(p))
    angs = np.stack(angles)
    return MeshStats(
        n_vertices=mesh.n_vertices,
        n_triangles=mesh.n_triangles,
        h_max=float(h.max()),
        max_R_K=float(rk.max()),
        min_angle=float(angs.min()),
        max_angle=float(angs.max()),
        min_rho_over_h=float((rho / h).min()),
    )


def _canonical_order(vertices, boundary, triangles):
    """Vertices lexicographic by (y, x); triangles rotated to start at their
    smallest index and sorted; yields reproducible files."""
    vertices = np.asarray(vertices, dtype=float)
    order = np.lexsort((vertices[:, 0], vertices[:, 1]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    tris = rank[np.asarray(triangles, dtype=np.int64)]
    roll = np.argmin(tris, axis=1)
    tris = np.stack([tris[np.arange(len(tris)), (roll + k) % 3] for k in range(3)], axis=1)
    tris = tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]
    return vertices[order], np.asarray(boundary, bool)[order], tris


def gen_uniform(n: int) -> Mesh:
    """Unit square, n x n cells, each split along its up-diagonal."""
    if n < 1:
        raise InvalidFamily(f"n = {n} must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    idx = lambda i, j: j * (n + 1) + i
    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    bnd = (
        np.isclose(verts[:, 0], 0.0) | np.isclose(verts[:, 0], 1.0)
        | np.isclose(verts[:, 1], 0.0) | np.isclose(verts[:, 1], 1.0)
    )
    v, b, t = _canonical_order(verts, bnd, tris)
    return Mesh(v, b, t, family_tag=("uniform", {"n": n}))


def crisscross_rows(n: int, alpha: float) -> int:
    """Row count of the anisotropic crisscross: ceil(n**alpha)."""
    return int(math.ceil(n ** alpha))


def gen_crisscross_aniso(n: int, alpha: float, force: bool = False) -> Mesh:
    """Unit square in n columns and ceil(n**alpha) rows, each cell split
    into 4 triangles by its center.

    For 1 < alpha < 2 the flat cell triangles (base 1/n, height about
    (1/n)**alpha / 2) have max angle tending to pi while their circumradius
    tends to 0.
    """
    if n < 1:
        raise InvalidFamily(f"n = {n} must be >= 1")
    if not (1.0 < alpha < 2.0) and not force:
        raise InvalidFamily(
            f"alpha = {alpha} outside (1, 2); pass force=True to run anyway"
        )
    rows = crisscross_rows(n, alpha)
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(0.0, 1.0, rows + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    grid = np.column_stack([X.ravel(), Y.ravel()])
    idx = lambda i, j: j * (n + 1) + i
    centers = []
    tris = []
    c0 = len(grid)
    for j in range(rows):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            c = c0 + len(centers)
            centers.append((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))
            tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    verts = np.vstack([grid, np.array(centers)])
    bnd = (
        np.isclose(verts[:, 0], 0.0) | np.isclose(verts[:, 0], 1.0)
        | np.isclose(verts[:, 1], 0.0) | np.isclose(verts[:, 1], 1.0)
    )
    v, b, t = _canonical_order(verts, bnd, tris)
    return Mesh(v, b, t, family_tag=("crisscross", {"n": n, "alpha": alpha}))


def lens_contains(x, y, tol: float = 0.0):
    """Predicate of the curved domain |x-y|^(3/2) + |x+y|^(3/2) <= 2 + tol."""
    u = np.abs(np.asarray(x) - np.asarray(y))
    v = np.abs(np.asarray(x) + np.asarray(y))
    return u ** 1.5 + v ** 1.5 <= 2.0 + tol


def gen_lens(n: int) -> Mesh:
    """Layered triangulation of |x-y|^(3/2) + |x+y|^(3/2) < 2.

    Built in rotated coordinates (u, v) = (x-y, x+y): strips of constant v
    with ceil(n**1.5) levels per half, n+1 vertices per level blended
    linearly between the boundary points (+-U(v), v) with
    U(v) = (2 - |v|^(3/2))^(2/3), and pole fans at v = +-2^(2/3).  Strips
    are much thinner than they are wide, so the largest angle tends to pi
    while the largest circumradius shrinks.
    """
    if n < 2:
        raise InvalidFamily(f"n = {n} must be >= 2")
    half = int(math.ceil(n ** 1.5))
    vmax = 2.0 ** (2.0 / 3.0)
    levels = np.linspace(-vmax, vmax, 2 * half + 1)

    verts: list[tuple[float, float]] = []
    rows: list[list[int]] = []
    for v in levels:
        if abs(abs(v) - vmax) < 1e-15:
            rows.append([len(verts)])
            verts.append((0.0, v))
            continue
        umax = (2.0 - abs(v) ** 1.5) ** (2.0 / 3.0)
        row = []
        for i in range(n + 1):
            row.append(len(verts))
            verts.append((umax * (2.0 * i / n - 1.0), v))
        rows.append(row)

    tris: list[tuple[int, int, int]] = []
    for r0, r1 in zip(rows, rows[1:]):
        if len(r0) == 1:  # bottom pole fan
            for a, b in zip(r1, r1[1:]):
                tris.append((r0[0], b, a))
        elif len(r1) == 1:  # top pole fan
            for a, b in zip(r0, r0[1:]):
                tris.append((r1[0], a, b))
        else:
            for (a, b), (c, d) in zip(zip(r0, r0[1:]), zip(r1, r1[1:])):
                tris.append((a, b, d))
                tris.append((a, d, c))

    uv = np.array(verts)
    xy = np.column_stack([0.5 * (uv[:, 0] + uv[:, 1]), 0.5 * (uv[:, 1] - uv[:, 0])])
    bnd = np.zeros(len(xy), dtype=bool)
    for row in rows:
        bnd[row[0]] = True
        bnd[row[-1]] = True
    # orientation in (x, y): the rotation u,v -> x,y preserves it, but build
    # order was chosen in (u, v); fix any clockwise elements uniformly
    tris_arr = np.array(tris, dtype=np.int64)
    flip = signed_area(xy[tris_arr]) < 0.0
    tris_arr[flip] = tris_arr[flip][:, [0, 2, 1]]
    v, b, t = _canonical_order(xy, bnd, tris_arr)
    return Mesh(v, b, t, family_tag=("lens", {"n": n}))


def single_triangle_mesh(tri: Triangle) -> Mesh:
    v = tri.vertices
    return Mesh(v, np.ones(3, dtype=bool), np.array([[0, 1, 2]]))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the line-based text format (17 significant digits)."""
    lines = [f"vertices {mesh.n_vertices}"]
    for (x, y), flag in zip(mesh.vertices, mesh.boundary):
        lines.append(f"{_fmt(x)} {_fmt(y)} {1 if flag else 0}")
    lines.append(f"triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"


def read_mesh(text: str) -> Mesh:
    """Parse the text format; validates conformity, reorients clockwise
    triangles (noted in mesh.warnings)."""
    raw = text.splitlines()
    items = []  # (line_number, payload)
    for ln, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            items.append((ln, body))
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(items):
            last = items[-1][0] if items else 0
            raise ParseError(last + 1, f"unexpected end of file, wanted {what}")
        out = items[pos]
        pos += 1
        return out

    ln, head = take("'vertices N'")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise ParseError(ln, f"expected 'vertices N', got {head!r}")
    try:
        nv = int(parts[1])
    except ValueError:
        raise ParseError(ln, f"bad vertex count {parts[1]!r}") from None
    if nv < 0:
        raise ParseError(ln, f"bad vertex count {parts[1]!r}")

    verts = []
    flags = []
    for _ in range(nv):
        ln, body = take("a vertex line 'x y flag'")
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(ln, f"expected 'x y flag', got {body!r}")
        try:
            xy = (float(parts[0]), float(parts[1]))
            flag = int(parts[2])
        except ValueError:
            raise ParseError(ln, f"bad vertex entry {body!r}") from None
        if flag not in (0, 1):
            raise ParseError(ln, f"flag must be 0 or 1, got {parts[2]!r}")
        verts.append(xy)
        flags.append(flag == 1)

    ln, head = take("'triangles M'")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "triangles":
        raise ParseError(ln, f"expected 'triangles M', got {head!r}")
    try:
        nt = int(parts[1])
    except ValueError:
        raise ParseError(ln, f"bad triangle count {parts[1]!r}") from None
    if nt < 0:
        raise ParseError(ln, f"bad triangle count {parts[1]!r}")

    tris = []
    tri_lines = []
    for _ in range(nt):
        ln, body = take("a triangle line 'i j k'")
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(ln, f"expected 'i j k', got {body!r}")
        try:
            idx = [int(p) for p in parts]
        except ValueError:
            raise ParseError(ln, f"bad triangle entry {body!r}") from None
        if min(idx) < 0 or max(idx) >= nv:
            raise ParseError(ln, f"vertex index out of range in {body!r}")
        tris.append(idx)
        tri_lines.append(ln)
    if pos != len(items):
        raise ParseError(items[pos][0], "trailing content after triangle list")

    verts = np.array(verts, dtype=float).reshape(nv, 2)
    tris = np.array(tris, dtype=np.int64).reshape(nt, 3)
    clockwise = np.flatnonzero(signed_area(verts[tris]) < 0.0)
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    warnings = [f"line {tri_lines[k]}: clockwise triangle reoriented" for k in clockwise]
    mesh = Mesh(verts, flags, tris, warnings=warnings)
    validate(mesh)
    return mesh
