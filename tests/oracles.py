"""Independent exact oracles used by the test suite.

Everything here is deliberately slow and simple: exact rational monomial
integrals over an arbitrary triangle via affine pullback and the factorial
formula, the quotient estimates on a raw monomial basis, exactly reduced
and solved at 50 digits, the element-by-element loop that mesh
validation was first written as, and the mesh file parser that went line
by line and token by token.  These never share code with the library
paths they check.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy

from circumlab.errors import DegenerateTriangle, NonConforming, ParseError
from circumlab.geometry import signed_area
from circumlab.mesh import Mesh

FACT = [math.factorial(k) for k in range(80)]


def reference_moment(i: int, j: int) -> Fraction:
    """Integral of x^i y^j over the reference triangle: i! j! / (i+j+2)!."""
    return Fraction(FACT[i] * FACT[j], FACT[i + j + 2])


def _poly_pow(lin: dict, n: int) -> list[dict]:
    """Powers 0..n of a linear polynomial stored as {(qu, qv): Fraction}."""
    out = [{(0, 0): Fraction(1)}]
    for _ in range(n):
        prev = out[-1]
        nxt: dict = {}
        for (qu, qv), c in prev.items():
            for (du, dv), d in lin.items():
                key = (qu + du, qv + dv)
                nxt[key] = nxt.get(key, Fraction(0)) + c * d
        out.append(nxt)
    return out


def monomial_integrals(vertices, max_degree: int) -> dict[tuple[int, int], Fraction]:
    """Exact integrals of x^i y^j (i + j <= max_degree) over a triangle.

    ``vertices`` is a 3x2 array-like of floats (converted exactly to
    rationals).
    """
    (x1, y1), (x2, y2), (x3, y3) = [
        (Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices
    ]
    # x = x1 + (x2-x1) u + (x3-x1) v, same for y; |det| = 2 * area
    lx = {(0, 0): x1, (1, 0): x2 - x1, (0, 1): x3 - x1}
    ly = {(0, 0): y1, (1, 0): y2 - y1, (0, 1): y3 - y1}
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    jac = abs(det)
    xp = _poly_pow(lx, max_degree)
    yp = _poly_pow(ly, max_degree)
    out = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            total = Fraction(0)
            for (qu, qv), cx in xp[i].items():
                for (ru, rv), cy in yp[j].items():
                    total += cx * cy * reference_moment(qu + ru, qv + rv)
            out[(i, j)] = jac * total
    return out


def monomial_pairs(degree: int) -> list[tuple[int, int]]:
    return [(i, d - i) for d in range(degree + 1) for i in range(d + 1)]


def exact_monomial_grams(vertices, degree: int):
    """Exact rational Gram matrices (mass, gradient, weighted Hessian), as
    nested lists of Fractions, of the raw monomial basis x^i y^j,
    i + j <= degree."""
    pairs = monomial_pairs(degree)
    mom = monomial_integrals(vertices, 2 * degree)
    m = len(pairs)
    g0 = [[Fraction(0)] * m for _ in range(m)]
    g1 = [[Fraction(0)] * m for _ in range(m)]
    g2 = [[Fraction(0)] * m for _ in range(m)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            g0[a][b] = mom[(i + k, j + l)]
            acc = Fraction(0)
            if i and k:
                acc += i * k * mom[(i + k - 2, j + l)]
            if j and l:
                acc += j * l * mom[(i + k, j + l - 2)]
            g1[a][b] = acc
            acc = Fraction(0)
            if i > 1 and k > 1:
                acc += i * (i - 1) * k * (k - 1) * mom[(i + k - 4, j + l)]
            if j > 1 and l > 1:
                acc += j * (j - 1) * l * (l - 1) * mom[(i + k, j + l - 4)]
            if i and j and k and l:
                acc += 2 * i * j * k * l * mom[(i + k - 2, j + l - 2)]
            g2[a][b] = acc
    return pairs, g0, g1, g2


def quotient_50_digits(vertices, degree: int, kind: str,
                       edge_index: int = 1) -> mpmath.mpf:
    """A ("A", gradient/value), B ("B", Hessian/gradient) or D ("D",
    Hessian/value) over the polynomials of degree <= ``degree``, to 50
    digits.

    B and D take the polynomials vanishing at the vertices.  A takes those
    with mean zero along one leg of a right triangle given as (corner,
    corner + (a, 0), corner + (0, b)): the horizontal leg for
    ``edge_index`` 1, the vertical one for 2.

    The Gram matrices and the constraints (vertex values, or exact leg
    integrals of the monomials) are exact rationals; the constraints are
    eliminated with a rational ``sympy`` null space, so the reduced pencil
    is exact too.  Only its eigensolve is approximate: an ``mpmath``
    Cholesky of the denominator and ``eigsy`` of the transformed
    numerator, at 50 significant digits.
    """
    pairs, g0, g1, g2 = exact_monomial_grams(vertices, degree)
    pts = [(Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices]

    def rational(matrix):
        return sympy.Matrix([[sympy.Rational(f.numerator, f.denominator) for f in row]
                             for row in matrix])

    if kind == "A":
        (cx, cy), (x1, _), (_, y2) = pts
        if edge_index == 1:  # y = cy, cx <= x <= x1
            rows = [[(x1 ** (i + 1) - cx ** (i + 1)) / (i + 1) * cy ** j for i, j in pairs]]
        else:  # x = cx, cy <= y <= y2
            rows = [[cx ** i * (y2 ** (j + 1) - cy ** (j + 1)) / (j + 1) for i, j in pairs]]
        num, den = g1, g0
    else:
        rows = [[x ** i * y ** j for i, j in pairs] for x, y in pts]
        num, den = g2, (g1 if kind == "B" else g0)
    z = sympy.Matrix.hstack(*rational(rows).nullspace())
    num = z.T * rational(num) * z
    den = z.T * rational(den) * z
    with mpmath.workdps(50):
        def mp(matrix):
            return mpmath.matrix([[mpmath.mpf(q.p) / q.q for q in matrix.row(r)]
                                  for r in range(matrix.rows)])

        linv = mpmath.inverse(mpmath.cholesky(mp(den)))
        reduced = linv * mp(num) * linv.T
        vals = mpmath.eigsy(0.5 * (reduced + reduced.T), eigvals_only=True)
        return mpmath.sqrt(min(vals))


def circumradius_and_kobayashi_sq(vertices) -> tuple[Fraction, Fraction]:
    """Exact (R_K^2, C(K)^2) of a triangle: with squared edge lengths and
    squared area both are rational in the (float, hence rational) vertices,
    R^2 = A^2 B^2 C^2 / (16 S^2) and
    C^2 = R^2 - (A^2 + B^2 + C^2)/30 - (S^2/5)(1/A^2 + 1/B^2 + 1/C^2)."""
    (x1, y1), (x2, y2), (x3, y3) = [
        (Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices
    ]
    a2 = (x3 - x2) ** 2 + (y3 - y2) ** 2
    b2 = (x1 - x3) ** 2 + (y1 - y3) ** 2
    c2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    s2 = ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) ** 2 / 4
    r2 = a2 * b2 * c2 / (16 * s2)
    return r2, r2 - (a2 + b2 + c2) / 30 - (s2 / 5) * (1 / a2 + 1 / b2 + 1 / c2)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), Fraction(0)) + c * d
    return out


def _poly_diff(a: dict, axis: int) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        e = (i, j)[axis]
        if e:
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + e * c
    return out


def interpolation_error_sq(coeffs, vertices) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (|v - I v|_{0,2}^2, |v - I v|_{1,2}^2, |v|_{2,2}^2) on a triangle
    for the polynomial v with graded coefficients c00, c10, c01, c20, ...
    (degree by degree, x-power decreasing).  The interpolant comes from
    Cramer's rule on the exact vertex values, and every square is
    integrated with ``monomial_integrals``."""
    pairs = [(i, d - i) for d in range(20) for i in range(d, -1, -1)][:len(coeffs)]
    v = {ij: Fraction(float(c)) for ij, c in zip(pairs, coeffs)}
    pts = [(Fraction(float(p[0])), Fraction(float(p[1]))) for p in vertices]
    vals = [sum(c * x ** i * y ** j for (i, j), c in v.items()) for x, y in pts]
    rows = [[Fraction(1), x, y] for x, y in pts]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(rows)
    interp = [det([r[:k] + [f] + r[k + 1:] for r, f in zip(rows, vals)]) / d
              for k in range(3)]
    err = dict(v)
    for key, c in zip([(0, 0), (1, 0), (0, 1)], interp):
        err[key] = err.get(key, Fraction(0)) - c
    deg = max(i + j for i, j in pairs)
    mom = monomial_integrals(vertices, 2 * deg)

    def integral(poly):
        return sum(c * mom[ij] for ij, c in poly.items())

    ex, ey = _poly_diff(err, 0), _poly_diff(err, 1)
    vxx, vyy, vxy = _poly_diff(_poly_diff(v, 0), 0), _poly_diff(_poly_diff(v, 1), 1), \
        _poly_diff(_poly_diff(v, 0), 1)
    return (
        integral(_poly_mul(err, err)),
        integral(_poly_mul(ex, ex)) + integral(_poly_mul(ey, ey)),
        integral(_poly_mul(vxx, vxx)) + integral(_poly_mul(vyy, vyy))
        + 2 * integral(_poly_mul(vxy, vxy)),
    )


def validate_loop(mesh) -> None:
    """Mesh validation as a loop over elements with dictionaries of seen
    triangles and edge counts; raises what ``circumlab.mesh.validate`` must
    raise, with the same message."""
    for tri in mesh.triangles:
        if any(not 0 <= int(i) < len(mesh.vertices) for i in tri):
            raise NonConforming("triangle references a missing vertex")
    p = mesh.vertices[mesh.triangles]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    for k, area in enumerate(areas):
        if not area > 0.0:
            raise DegenerateTriangle(f"element {k} has non-positive area {area:.3e}")
    for k, (x, y) in enumerate(mesh.vertices.tolist()):
        if math.isnan(x) or math.isnan(y):
            raise DegenerateTriangle(f"vertex {k}, in no triangle, has a NaN coordinate {(x, y)}")
    seen: dict[tuple[int, int, int], int] = {}
    edge_use: dict[tuple[int, int], int] = {}
    for k, (i, j, l) in enumerate(mesh.triangles):
        key = tuple(sorted((int(i), int(j), int(l))))
        if key in seen:
            raise NonConforming(f"elements {seen[key]} and {k} are the same triangle {key}")
        seen[key] = k
        for a, b in ((i, j), (j, l), (l, i)):
            e = (int(min(a, b)), int(max(a, b)))
            edge_use[e] = edge_use.get(e, 0) + 1
            if edge_use[e] > 2:
                raise NonConforming(f"edge {e} shared by more than two triangles")
    on_boundary = np.zeros(len(mesh.vertices), dtype=bool)
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


def read_mesh_lines(text: str) -> Mesh:
    """The mesh file parser as it was before it read whole sections with
    ``np.loadtxt``: lines split, stripped and numbered one by one, tokens
    converted by numpy, and ``_vertex_line`` and ``_triangle_line`` on a
    fault.  It validates with ``validate_loop``; ``circumlab.mesh.read_mesh``
    must return the same mesh and warnings, or raise the same error."""
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
    validate_loop(mesh)
    return mesh
