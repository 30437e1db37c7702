"""Conforming triangulations: structured generators, degenerate families,
quality statistics, and a line-based text format.

Two generators realize the degenerate families whose largest angles tend
to pi while the largest circumradius still tends to zero: an anisotropic
crisscross of the unit square (columns of width 1/n, rows of height about
(1/n)**alpha, each cell split into 4 by its center) and a layered
triangulation of the curved domain |x-y|^(3/2) + |x+y|^(3/2) < 2.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTriangle, InvalidFamily, NonConforming, ParseError
from .geometry import (AREA_FLOOR, Triangle, _degenerate, edge_lengths_and_area,
                       shape_quantities, signed_area)


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


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the (n, m) integer array ``keys`` sorted stably into groups
    of equal rows: (order, rank), where order[q] is the row at sorted
    position q and rank[q] how many equal rows come before it in row
    order."""
    order = np.lexsort(keys.T[::-1])
    s = keys[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = np.any(s[1:] != s[:-1], axis=1)
    pos = np.arange(len(s))
    return order, pos - np.maximum.accumulate(np.where(first, pos, 0))


def validate(mesh: Mesh) -> None:
    """Raise on non-positive elements, duplicate triangles, over-shared or
    mis-flagged edges; boundary flags must mark exactly the vertices of
    edges used by a single triangle.

    Of the duplicate-triangle and over-shared-edge faults, the one reported
    is the first met when the elements are taken in index order, each
    checked for duplication before its edges (i, j), (j, l), (l, i)."""
    areas = signed_area(mesh.element_coords())
    if len(areas):
        k = int(np.argmin(areas))
        if areas[k] <= 0.0:
            raise DegenerateTriangle(
                f"element {k} has non-positive area {areas[k]:.3e}"
            )
    t = mesh.triangles
    if t.size and int(t.max()) >= mesh.n_vertices:
        raise NonConforming("triangle references a missing vertex")

    nt = len(t)
    order, rank = _groups(np.sort(t, axis=1))
    dup = np.flatnonzero(rank > 0)  # sorted positions of repeated elements
    k_dup = int(order[dup].min()) if len(dup) else nt
    # edge 3k + m is edge m of element k, stored as (min, max)
    edges = np.sort(t[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    e_order, e_rank = _groups(edges)
    third = e_order[e_rank == 2]
    q = int(third.min()) if len(third) else 3 * nt
    if k_dup < nt and k_dup <= q // 3:
        at = dup[np.argmin(order[dup])]
        first = int(order[at - rank[at]])
        key = tuple(int(v) for v in np.sort(t[k_dup]))
        raise NonConforming(
            f"elements {first} and {k_dup} are the same triangle {key}"
        )
    if q < 3 * nt:
        e = tuple(int(v) for v in edges[q])
        raise NonConforming(f"edge {e} shared by more than two triangles")

    # an edge whose group has one member (rank 0, and no rank 1 after it)
    single = np.ones(len(edges), dtype=bool)
    single[:-1] = e_rank[1:] == 0
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[edges[e_order[(e_rank == 0) & single]].ravel()] = True
    if not np.array_equal(on_boundary, mesh.boundary):
        k = int(np.argmax(on_boundary != mesh.boundary))
        raise NonConforming(
            f"vertex {k} boundary flag {bool(mesh.boundary[k])} disagrees with "
            f"edge usage {bool(on_boundary[k])}"
        )


def stats(mesh: Mesh) -> MeshStats:
    """Per-element ``shape_quantities`` folded with order-independent
    max/min.  Raises DegenerateTriangle on the first element with a
    non-positive area or one that the geometry's degeneracy test rejects
    (area below the floor, or outside the float64 range)."""
    p = mesh.element_coords()
    s = signed_area(p)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        edges = edge_lengths_and_area(p)
    bad = (s <= 0.0) | _degenerate(*edges)
    if np.any(bad):
        k = int(np.argmax(bad))
        if s[k] <= 0.0:
            raise DegenerateTriangle(f"element {k} has non-positive area {s[k]:.3e}")
        raise DegenerateTriangle(
            f"element {k} has area {s[k]:.3e} below floor {AREA_FLOOR:g}*h^2 "
            "or with its square outside the normal float64 range"
        )
    h, rho, rk, _, angles = shape_quantities(*edges)
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


def _cells(nx: int, ny: int):
    """Lower-left, lower-right, upper-left and upper-right vertex indices of
    the cells of an (nx + 1) x (ny + 1) vertex grid numbered row by row;
    cell (i, j) is entry j * nx + i."""
    j, i = np.divmod(np.arange(nx * ny), nx)
    v00 = j * (nx + 1) + i
    return v00, v00 + 1, v00 + nx + 1, v00 + nx + 2


def gen_uniform(n: int) -> Mesh:
    """Unit square, n x n cells, each split along its up-diagonal."""
    if n < 1:
        raise InvalidFamily(f"n = {n} must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    v00, v10, v01, v11 = _cells(n, n)
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
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
    CX, CY = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]), indexing="xy")
    centers = np.column_stack([CX.ravel(), CY.ravel()])
    v00, v10, v01, v11 = _cells(n, rows)
    c = len(grid) + np.arange(n * rows)  # the center of each cell
    tris = np.stack([v00, v10, c, v10, v11, c, v11, v01, c, v01, v00, c],
                    axis=1).reshape(-1, 3)
    verts = np.vstack([grid, centers])
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


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the line-based text format (17 significant digits)."""
    lines = [f"vertices {mesh.n_vertices}"]
    lines += map("{:.17g} {:.17g} {:d}".format, mesh.vertices[:, 0].tolist(),
                 mesh.vertices[:, 1].tolist(), mesh.boundary.astype(int).tolist())
    lines.append(f"triangles {mesh.n_triangles}")
    lines += map("{} {} {}".format, *mesh.triangles.T.tolist())
    return "\n".join(lines) + "\n"


def _vertex_line(ln: int, body: str) -> tuple[float, float, int]:
    parts = body.split()
    if len(parts) != 3:
        raise ParseError(ln, f"expected 'x y flag', got {body!r}")
    try:
        x, y, flag = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(ln, f"bad vertex entry {body!r}") from None
    if flag not in (0, 1):
        raise ParseError(ln, f"flag must be 0 or 1, got {parts[2]!r}")
    return x, y, flag


def _triangle_line(nv: int):
    def parse(ln: int, body: str) -> tuple[int, int, int]:
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(ln, f"expected 'i j k', got {body!r}")
        try:
            idx = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(ln, f"bad triangle entry {body!r}") from None
        if min(idx) < 0 or max(idx) >= nv:
            raise ParseError(ln, f"vertex index out of range in {body!r}")
        return idx

    return parse


def _columns(bodies: list[str], dtypes, accept) -> list[np.ndarray]:
    """The three whitespace-separated columns of the lines ``bodies``,
    converted by numpy, which parses strings as float() and int() do.

    Raises ValueError unless every line has three entries, each converts
    and ``accept`` holds for the columns; the caller then parses line by
    line to report the first fault.  Lines are joined around a ';' token,
    which converts to no number, so the ';' tokens sit at every fourth
    place exactly when each line holds three tokens."""
    if not bodies:
        return [np.zeros(0, dtype=d) for d in dtypes]
    toks = " ; ".join(bodies).split()
    if len(toks) != 4 * len(bodies) - 1 or toks[3::4].count(";") != len(bodies) - 1:
        raise ValueError("not three entries per line")
    del toks[3::4]
    cols = [np.array(toks[c::3], dtype=d) for c, d in enumerate(dtypes)]
    if not accept(*cols):
        raise ValueError("entry out of range")
    return cols


def _section(lns, bodies, start: int, count: int, what: str, parse_line,
             dtypes, accept) -> list[np.ndarray]:
    """Columns of the ``count`` content lines from ``start``, by
    ``_columns``; on a fault, ``parse_line`` on each line in turn raises the
    first ParseError, and a short section ends in an end-of-file error."""
    lines = bodies[start:start + count]
    if len(lines) == count:
        try:
            return _columns(lines, dtypes, accept)
        except (ValueError, OverflowError):
            pass
    rows = [parse_line(ln, b) for ln, b in zip(lns[start:start + count], lines)]
    if len(rows) < count:
        raise ParseError(lns[-1] + 1, f"unexpected end of file, wanted {what}")
    return [np.array(col, dtype=d) for col, d in zip(zip(*rows), dtypes)]


def _count_line(lns, bodies, pos: int, header: str, noun: str) -> int:
    """The count of the header line ('vertices N' or 'triangles M') at
    content line ``pos``."""
    if pos >= len(bodies):
        last = lns[-1] if lns else 0
        raise ParseError(last + 1, f"unexpected end of file, wanted '{header}'")
    ln, head = lns[pos], bodies[pos]
    parts = head.split()
    if len(parts) != 2 or parts[0] != header.split()[0]:
        raise ParseError(ln, f"expected '{header}', got {head!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(ln, f"bad {noun} count {parts[1]!r}") from None
    if count < 0:
        raise ParseError(ln, f"bad {noun} count {parts[1]!r}")
    return count


def read_mesh(text: str) -> Mesh:
    """Parse the text format; validates conformity, reorients clockwise
    triangles (noted in mesh.warnings).  Errors name the 1-based line."""
    raw = text.splitlines()
    if "#" in text:
        raw = [line.split("#", 1)[0] for line in raw]
    bodies = [line.strip() for line in raw]
    nonempty = list(map(bool, bodies))
    lns = (np.flatnonzero(nonempty) + 1).tolist()  # line of each content line
    if len(lns) < len(bodies):
        bodies = list(itertools.compress(bodies, nonempty))

    nv = _count_line(lns, bodies, 0, "vertices N", "vertex")
    x, y, flags = _section(lns, bodies, 1, nv, "a vertex line 'x y flag'",
                           _vertex_line, (float, float, np.int64),
                           lambda x, y, f: ((f == 0) | (f == 1)).all())
    nt = _count_line(lns, bodies, 1 + nv, "triangles M", "triangle")
    tris = np.column_stack(_section(
        lns, bodies, 2 + nv, nt, "a triangle line 'i j k'", _triangle_line(nv),
        (np.int64,) * 3,
        lambda *cols: all(((c >= 0) & (c < nv)).all() for c in cols))).reshape(nt, 3)
    pos = 2 + nv + nt
    if pos != len(bodies):
        raise ParseError(lns[pos], "trailing content after triangle list")

    verts = np.column_stack([x, y]).reshape(nv, 2)
    clockwise = np.flatnonzero(signed_area(verts[tris]) < 0.0)
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    tri_lines = lns[2 + nv:]
    warnings = [f"line {tri_lines[k]}: clockwise triangle reoriented" for k in clockwise]
    mesh = Mesh(verts, flags == 1, tris, warnings=warnings)
    validate(mesh)
    return mesh
