"""Conforming triangulations: structured generators, degenerate families,
quality statistics, and a line-based text format.

Two generators realize the degenerate families whose largest angles tend
to pi while the largest circumradius still tends to zero: an anisotropic
crisscross of the unit square (columns of width 1/n, rows of height about
(1/n)**alpha, each cell split into 4 by its center) and a layered
triangulation of the curved domain |x-y|^(3/2) + |x+y|^(3/2) < 2.

``MeshStats`` is the schema of the ``circumlab/1`` mesh statistics, which
are its ``dataclasses.asdict``.
"""
from __future__ import annotations

import io
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangle, InvalidFamily, NonConforming, ParseError
from .geometry import (AREA_FLOOR, _degenerate, edge_lengths, element_geometry,
                       read_only, shape_quantities, signed_area)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation with vertex boundary flags.

    vertices: (nv, 2) float array; boundary: (nv,) bool; triangles:
    (nt, 3) int array, counterclockwise, held as read-only views so that
    the cached geometry cannot go stale.  ``warnings`` collects parser
    notes (e.g. reoriented triangles) and is never serialized.  A vertex
    with an infinite coordinate raises DegenerateTriangle, before its
    elements' area arithmetic would warn; a NaN coordinate makes the areas
    of its elements NaN, which ``geometry`` rejects.
    """

    vertices: np.ndarray
    boundary: np.ndarray
    triangles: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        for name, dtype in (("vertices", float), ("boundary", bool), ("triangles", np.int64)):
            object.__setattr__(self, name, read_only(np.asarray(getattr(self, name), dtype)))
        infinite = np.isinf(self.vertices).any(axis=-1)
        if infinite.any():
            k = int(np.argmax(infinite))
            raise DegenerateTriangle(
                f"vertex {k} has an infinite coordinate {tuple(self.vertices[k].tolist())}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def coords(self) -> np.ndarray:
        """(nt, 3, 2) vertex coordinates per element, read-only."""
        return read_only(self.vertices[self.triangles])

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``element_geometry`` of ``coords``: signed areas (nt,) and hat
        gradients gx, gy (nt, 3), read-only.  Raises DegenerateTriangle on
        the first element whose area is not positive (or is NaN)."""
        return tuple(map(read_only, element_geometry(self.coords)))


@dataclass(frozen=True)
class MeshStats:
    n_vertices: int
    n_triangles: int
    h_max: float
    max_R_K: float
    min_angle: float
    max_angle: float
    min_rho_over_h: float


def _groups(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries of the 1-D integer ``keys`` (the last the primary key, as
    for ``np.lexsort``) sorted stably into groups of equal keys:
    (order, rank), where order[q] is the entry at sorted position q and
    rank[q] how many equal entries come before it in index order."""
    order = np.lexsort(keys)
    ranked = [k[order] for k in keys]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([s[1:] != s[:-1] for s in ranked])
    pos = np.arange(len(order))
    return order, pos - np.maximum.accumulate(np.where(first, pos, 0))


def validate(mesh: Mesh) -> None:
    """Raise on vertex indices outside [0, n_vertices), non-positive
    elements, NaN vertices, duplicate triangles, over-shared or mis-flagged
    edges; boundary flags must mark exactly the vertices of edges used by a
    single triangle.

    Of the non-positive elements the first is reported.  Of the
    duplicate-triangle and over-shared-edge faults, the one reported is the
    first met when the elements are taken in index order, each checked for
    duplication before its edges (i, j), (j, l), (l, i)."""
    t = mesh.triangles
    nv = mesh.n_vertices
    if t.size and (int(t.min()) < 0 or int(t.max()) >= nv):
        raise NonConforming("triangle references a missing vertex")
    mesh.geometry  # raises on the first non-positive element
    if np.isnan(mesh.vertices).any():  # geometry passed, so only at a vertex of no element
        k = int(np.isnan(mesh.vertices).argmax()) // 2
        raise DegenerateTriangle(f"vertex {k}, in no triangle, has a NaN coordinate "
                                 f"{tuple(mesh.vertices[k].tolist())}")

    nt = len(t)
    # keys below nv**2, which cannot overflow int64 for any mesh in memory
    s = np.sort(t, axis=1)
    order, rank = _groups(s[:, 2], s[:, 0] * nv + s[:, 1])
    dup = np.flatnonzero(rank > 0)  # sorted positions of repeated elements
    k_dup = int(order[dup].min()) if len(dup) else nt
    # edge 3k + m is edge m of element k, from lo to hi
    nxt = t[:, [1, 2, 0]]
    lo, hi = np.minimum(t, nxt).ravel(), np.maximum(t, nxt).ravel()
    e_order, e_rank = _groups(lo * nv + hi)
    third = e_order[e_rank == 2]
    q = int(third.min()) if len(third) else 3 * nt
    if k_dup < nt and k_dup <= q // 3:
        at = dup[np.argmin(order[dup])]
        first = int(order[at - rank[at]])
        key = tuple(int(v) for v in s[k_dup])
        raise NonConforming(
            f"elements {first} and {k_dup} are the same triangle {key}"
        )
    if q < 3 * nt:
        e = (int(lo[q]), int(hi[q]))
        raise NonConforming(f"edge {e} shared by more than two triangles")

    # an edge whose group has one member (rank 0, and no rank 1 after it)
    single = np.ones(len(lo), dtype=bool)
    single[:-1] = e_rank[1:] == 0
    edges = e_order[(e_rank == 0) & single]
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[lo[edges]] = True
    on_boundary[hi[edges]] = True
    if not np.array_equal(on_boundary, mesh.boundary):
        k = int(np.argmax(on_boundary != mesh.boundary))
        raise NonConforming(
            f"vertex {k} boundary flag {bool(mesh.boundary[k])} disagrees with "
            f"edge usage {bool(on_boundary[k])}"
        )


def stats(mesh: Mesh) -> MeshStats:
    """Per-element ``shape_quantities`` folded with order-independent
    max/min.  Raises DegenerateTriangle on the first element of
    non-positive area, then on the first that the geometry's degeneracy
    test rejects (area below the floor, or outside the float64 range).
    Raises NonConforming on a mesh with no triangles."""
    if not mesh.n_triangles:
        raise NonConforming("mesh has no triangles")
    s = mesh.geometry[0]
    with np.errstate(over="ignore"):  # an overflow is rejected below
        a, b, c = edge_lengths(mesh.coords)
    bad = _degenerate(a, b, c, s)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateTriangle(
            f"element {k} has area {s[k]:.3e} below floor {AREA_FLOOR:g}*h^2 "
            "or with its square outside the normal float64 range"
        )
    h, rho, rk, _, angles = shape_quantities(a, b, c, s)
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
    roll = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (roll + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort((tris[:, 2], tris[:, 0] * len(vertices) + tris[:, 1]))]
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
    return Mesh(v, b, t)


def crisscross_rows(n: int, alpha: float) -> int:
    """Row count of the anisotropic crisscross: ceil(n**alpha)."""
    return int(math.ceil(n ** alpha))


def gen_crisscross_aniso(n: int, alpha: float) -> Mesh:
    """Unit square in n columns and ceil(n**alpha) rows, each cell split
    into 4 triangles by its center.

    For 1 < alpha < 2 the flat cell triangles (base 1/n, height about
    (1/n)**alpha / 2) have max angle tending to pi while their circumradius
    tends to 0.
    """
    if n < 1:
        raise InvalidFamily(f"n = {n} must be >= 1")
    if not 1.0 < alpha < 2.0:
        raise InvalidFamily(f"alpha = {alpha} outside (1, 2)")
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
    return Mesh(v, b, t)


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
    mid = levels[1:-1]  # between the poles, n + 1 vertices each
    # in Python floats: numpy's array power differs from libm's pow by an
    # ulp on about 7% of the levels, which would change the written files
    umax = np.array([(2.0 - abs(v) ** 1.5) ** (2.0 / 3.0) for v in mid.tolist()])
    u = umax[:, None] * (2.0 * np.arange(n + 1) / n - 1.0)
    uv = np.vstack([[0.0, levels[0]],
                    np.column_stack([u.ravel(), np.repeat(mid, n + 1)]),
                    [0.0, levels[-1]]])
    top = len(uv) - 1
    # strip vertices are 1 + row * (n + 1) + i; the poles are 0 and top.
    # Every element is counterclockwise in (u, v), and the rotation to
    # (x, y) keeps the orientation.
    v00, v10, v01, v11 = (k + 1 for k in _cells(n, len(mid) - 1))
    i = np.arange(n)
    tris = np.vstack([
        np.column_stack([np.zeros(n, dtype=np.int64), i + 2, i + 1]),  # bottom fan
        np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3),  # strips
        np.column_stack([np.full(n, top), top - n - 1 + i, top - n + i]),  # top fan
    ])
    xy = np.column_stack([0.5 * (uv[:, 0] + uv[:, 1]), 0.5 * (uv[:, 1] - uv[:, 0])])
    bnd = np.zeros(len(xy), dtype=bool)
    bnd[[0, top]] = True
    bnd[1:top:n + 1] = True
    bnd[n + 1:top:n + 1] = True
    v, b, t = _canonical_order(xy, bnd, tris)
    return Mesh(v, b, t)


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the line-based text format (17 significant digits)."""
    # the flags become 0.0 and 1.0, which %d writes as 0 and 1
    rows = np.column_stack([mesh.vertices, mesh.boundary]).ravel().tolist()
    return (f"vertices {mesh.n_vertices}\n"
            + "%.17g %.17g %d\n" * mesh.n_vertices % tuple(rows)
            + f"triangles {mesh.n_triangles}\n"
            + "%d %d %d\n" * mesh.n_triangles % tuple(mesh.triangles.ravel().tolist()))


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
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(ln, f"non-finite coordinate in {body!r}")
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


def _columns(block: str, count: int, dtype: str) -> list[np.ndarray] | None:
    """The three whitespace-separated columns of the ``count`` lines of
    ``block``, converted by one ``np.loadtxt`` call to the fields of
    ``dtype``; None unless loadtxt takes every line, with three entries,
    and finds ``count`` lines that are not blank.

    loadtxt takes a subset of what float() and int() take, with the same
    values: it refuses underscores and non-ASCII digits.  Such text, and
    any that makes loadtxt warn (some numpy releases take '1.0' as an
    integer with a DeprecationWarning), is left to the line parser."""
    if not block:  # loadtxt warns on empty input
        return [np.zeros(0, dtype=d) for d in dtype.split(",")] if count == 0 else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.loadtxt(io.StringIO(block), dtype=dtype, comments=None,
                              ndmin=1, unpack=True)
    except (ValueError, Warning):
        return None
    return cols if len(cols[0]) == count else None


def _vertex_columns(block: str, count: int) -> list[np.ndarray] | None:
    """x, y and flag columns of the vertex lines ``block`` by ``_columns``;
    None also if a coordinate is not finite or a flag not 0 or 1."""
    cols = _columns(block, count, "f8,f8,i8")
    if (cols is not None and np.isfinite(cols[0]).all() and np.isfinite(cols[1]).all()
            and ((cols[2] == 0) | (cols[2] == 1)).all()):
        return cols
    return None


def _triangle_columns(block: str, count: int, nv: int) -> list[np.ndarray] | None:
    """Index columns of the triangle lines ``block`` by ``_columns``; None
    also if an index is outside [0, nv)."""
    cols = _columns(block, count, "i8,i8,i8")
    if cols is not None and all(((c >= 0) & (c < nv)).all() for c in cols):
        return cols
    return None


def _section(lns, bodies, start: int, count: int, what: str, parse_line,
             dtype: str) -> list[np.ndarray]:
    """The three columns, of the fields of ``dtype``, of the ``count``
    content lines from ``start``: ``parse_line`` on each line in turn
    raises the first ParseError, and a short section ends in an end-of-file
    error."""
    rows = [parse_line(ln, b) for ln, b in zip(lns[start:start + count],
                                                bodies[start:start + count])]
    if len(rows) < count:
        raise ParseError(lns[-1] + 1, f"unexpected end of file, wanted {what}")
    cols = list(zip(*rows)) or [()] * 3  # an empty section
    return [np.array(c, dtype=d) for c, d in zip(cols, dtype.split(","))]


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


def _line_sections(text: str):
    """Vertex columns, triangle columns and the 1-based line of each
    triangle, by lines: comments and blank lines dropped, each section by
    ``_section``.  The only parser that raises ParseError."""
    raw = text.splitlines()
    if "#" in text:
        raw = [line.split("#", 1)[0] for line in raw]
    bodies = [line.strip() for line in raw]
    nonempty = list(map(bool, bodies))
    lns = (np.flatnonzero(nonempty) + 1).tolist()  # line of each content line
    if len(lns) < len(bodies):
        bodies = list(itertools.compress(bodies, nonempty))

    nv = _count_line(lns, bodies, 0, "vertices N", "vertex")
    verts = _section(lns, bodies, 1, nv, "a vertex line 'x y flag'",
                     _vertex_line, "f8,f8,i8")
    nt = _count_line(lns, bodies, 1 + nv, "triangles M", "triangle")
    tris = _section(lns, bodies, 2 + nv, nt, "a triangle line 'i j k'",
                    _triangle_line(nv), "i8,i8,i8")
    pos = 2 + nv + nt
    if pos != len(bodies):
        raise ParseError(lns[pos], "trailing content after triangle list")
    return verts, tris, lns[2 + nv:]


def _plain_count(head: str, word: str) -> int | None:
    """N of a header line that is exactly '<word> N', N in ASCII digits."""
    name, _, count = head.partition(" ")
    return int(count) if name == word and count.isdigit() else None


def _plain_sections(text: str):
    """``_line_sections`` of text laid out as ``write_mesh`` writes it, a
    section at a time: ASCII, no comment, no line break but '\\n', no blank
    line, and headers exactly 'vertices N' and 'triangles M'.  None for
    any other text, and whenever a section's columns are refused."""
    if not text.isascii() or any(c in text for c in "#\r\x0b\x0c\x1c\x1d\x1e"):
        return None
    a = text.find("\n")  # ends 'vertices N'
    b = text.find("\ntriangles ", a)  # ends the vertex lines
    c = text.find("\n", b + 1)  # ends 'triangles M'
    if min(a, b, c) < 0:
        return None
    nv, nt = _plain_count(text[:a], "vertices"), _plain_count(text[b + 1:c], "triangles")
    vertex_lines, triangle_lines = text[a + 1:b + 1], text[c + 1:]
    if (nv is None or nt is None or vertex_lines.count("\n") != nv
            or triangle_lines.count("\n") != nt):
        return None
    verts = _vertex_columns(vertex_lines, nv)
    tris = _triangle_columns(triangle_lines, nt, nv)
    if verts is None or tris is None:
        return None
    return verts, tris, range(nv + 3, nv + 3 + nt)


def read_mesh(text: str) -> Mesh:
    """Parse the text format; validates conformity, reorients clockwise
    triangles (noted in mesh.warnings).  Errors name the 1-based line.

    Text as ``write_mesh`` lays it out is read a section at a time; any
    other text, and any fault, goes to the line parser, which reports the
    first fault."""
    (x, y, flags), tris, tri_lines = _plain_sections(text) or _line_sections(text)
    verts = np.column_stack([x, y])
    tris = np.column_stack(tris)
    clockwise = np.flatnonzero(signed_area(verts[tris]) < 0.0)
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    notes = [f"line {tri_lines[k]}: clockwise triangle reoriented" for k in clockwise]
    mesh = Mesh(verts, flags == 1, tris, warnings=notes)
    validate(mesh)
    return mesh
