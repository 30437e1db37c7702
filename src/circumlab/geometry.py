"""Exact per-triangle geometry: metrics, Kobayashi's interpolation constant,
angle-condition predicates, and canonicalization to a baseline form.

A triangle with edge lengths A, B, C and area S has circumradius
R = ABC/(4S).  Kobayashi's formula gives an explicit constant

    C(K) = sqrt( A^2 B^2 C^2 / (16 S^2)
                 - (A^2 + B^2 + C^2) / 30
                 - (S^2 / 5) (1/A^2 + 1/B^2 + 1/C^2) )

bounding the H1 seminorm of the linear-interpolation error by
C(K) |v|_{2,2,K}; it satisfies C(K) < R for every triangle.  The
canonical form places the longest edge on (-1,0)-(1,0) and the apex at
(s, eta*t) with s^2 + t^2 = 1, so every triangle is a rotated, translated,
scaled copy of a canonical one with eta in (0, sqrt(3)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTriangle, InvalidFamily, InvalidThreshold

# Relative area floor: reject triangles with S < AREA_FLOOR * h_K^2 so the
# S^2 and 1/S^2 terms of C(K) stay finite.
AREA_FLOOR = 1e-14

_SQRT3 = math.sqrt(3.0)
_IDENTITY_REL_TOL = 1e-12


@dataclass(frozen=True)
class Triangle:
    """Non-degenerate triangle; vertex order normalized to counterclockwise.
    ``area``, the (positive) signed area, is computed once, on construction."""

    p1: tuple[float, float]
    p2: tuple[float, float]
    p3: tuple[float, float]
    area: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p1 = (float(self.p1[0]), float(self.p1[1]))
        p2 = (float(self.p2[0]), float(self.p2[1]))
        p3 = (float(self.p3[0]), float(self.p3[1]))
        v = np.array([p1, p2, p3])
        with np.errstate(over="ignore"):  # an overflow is what the test detects
            s = signed_area(v)
            degenerate = _degenerate(*edge_lengths(v), np.abs(s))
        if degenerate:
            raise DegenerateTriangle(
                f"area {abs(s):.3e} below floor {AREA_FLOOR:g}*h^2 "
                f"or with its square outside the normal float64 range "
                f"for vertices {p1}, {p2}, {p3}"
            )
        if s < 0.0:
            p2, p3 = p3, p2
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p3", p3)
        # swapping two vertices negates the signed area exactly
        object.__setattr__(self, "area", float(abs(s)))

    @property
    def vertices(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)


def signed_area(pts):
    """Signed area of each triangle of a (..., 3, 2) vertex array, positive
    for counterclockwise vertex order."""
    p = np.asarray(pts, dtype=float)
    d = p[..., 1:, :] - p[..., :1, :]  # p2 - p1, p3 - p1
    return 0.5 * (d[..., 0, 0] * d[..., 1, 1] - d[..., 1, 0] * d[..., 0, 1])


# the next and the previous local vertex of each local vertex
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def element_geometry(p):
    """Signed areas (...) and P1 shape gradients gx, gy (..., 3) of the
    triangles of a (..., 3, 2) vertex array; entry i of the last axis of
    gx, gy is the gradient of the hat function of local vertex i."""
    x, y = p[..., 0], p[..., 1]
    areas = signed_area(p)
    flat = np.ravel(areas)
    bad = ~(flat > 0.0)  # NaN areas too
    if bad.any():
        k = int(np.argmax(bad))
        raise DegenerateTriangle(f"element {k} has non-positive area {flat[k]:.3e}")
    # grad(lambda_i) = rot90(opposite edge) / (2S)
    s2 = (2.0 * areas)[..., None]
    gx = (y[..., _NEXT] - y[..., _PREV]) / s2
    gy = (x[..., _PREV] - x[..., _NEXT]) / s2
    return areas, gx, gy


def edge_lengths(pts):
    """Edge lengths A, B, C (opposite p1, p2, p3) of each triangle of a
    (..., 3, 2) vertex array."""
    p = np.asarray(pts, dtype=float)
    x, y = p[..., 0], p[..., 1]
    return tuple(np.hypot(x[..., j] - x[..., i], y[..., j] - y[..., i])
                 for i, j in ((1, 2), (2, 0), (0, 1)))


def edge_lengths_and_area(pts):
    """``edge_lengths`` and the absolute area S of each triangle of a
    (..., 3, 2) vertex array."""
    p = np.asarray(pts, dtype=float)
    return (*edge_lengths(p), np.abs(signed_area(p)))


def _degenerate(A, B, C, S):
    """True unless S > AREA_FLOOR * h_K^2 and S^2, the highest power of the
    size that C(K) forms, is a normal, finite float; every intermediate of
    the metrics is then normal and finite too.  Also true for coincident
    vertices (S = h_K = 0) and non-finite ones."""
    with np.errstate(over="ignore"):  # an overflow is what this detects
        h = np.maximum(np.maximum(A, B), C)
        S2 = S * S
        return ~((S > AREA_FLOOR * h * h) & (S2 >= np.finfo(float).tiny) & (S2 < np.inf))


def reference_triangle() -> Triangle:
    """Unit right triangle with apexes (0,0), (1,0), (0,1)."""
    return Triangle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


@dataclass(frozen=True)
class TriangleMetrics:
    """Derived metric quantities of one triangle.

    Edge A is opposite vertex p1, B opposite p2, C opposite p3.
    """

    A: float
    B: float
    C: float
    S: float
    h_K: float
    rho_K: float
    R_K: float
    theta_min: float
    theta_max: float
    C_K: float


def circumradius(A, B, C, S):
    """R = ABC/(4S), elementwise on floats or edge-length/area arrays."""
    return A * B * C / (4.0 * S)


def kobayashi_constant(A, B, C, S):
    """Kobayashi's constant from edge lengths and area, elementwise on
    floats or arrays.

    Evaluated in float64 as sqrt(R^2 - ...) with R = circumradius(A, B, C, S):
    the subtracted terms are positive, so C(K) <= R_K holds in floating
    point as well.
    """
    R = circumradius(A, B, C, S)
    A2, B2, C2 = A * A, B * B, C * C
    return np.sqrt(
        R * R
        - (A2 + B2 + C2) / 30.0
        - (S * S / 5.0) * (1.0 / A2 + 1.0 / B2 + 1.0 / C2)
    )


def shape_quantities(A, B, C, S):
    """(h_K, rho_K, R_K, C(K), angles opposite A, B, C) from edge lengths
    and area, elementwise on floats or arrays."""
    h = np.maximum(np.maximum(A, B), C)
    rho = 2.0 * S / (A + B + C)
    angles = tuple(
        np.arccos(np.minimum(1.0, np.maximum(
            -1.0, (e1 * e1 + e2 * e2 - opp * opp) / (2.0 * e1 * e2))))
        for opp, e1, e2 in ((A, B, C), (B, C, A), (C, A, B))
    )
    return h, rho, circumradius(A, B, C, S), kobayashi_constant(A, B, C, S), angles


def metrics(tri: Triangle) -> TriangleMetrics:
    """All metric quantities of ``tri`` (edges, area, radii, angles, C(K)),
    as the one-row case of ``shape_quantities``."""
    A, B, C = (float(x) for x in edge_lengths(tri.vertices))
    S = tri.area
    h, rho, R, ck, angles = shape_quantities(A, B, C, S)
    return TriangleMetrics(
        A=A,
        B=B,
        C=C,
        S=S,
        h_K=float(h),
        rho_K=rho,
        R_K=R,
        theta_min=float(min(angles)),
        theta_max=float(max(angles)),
        C_K=float(ck),
    )


def condition_flags(
    m: TriangleMetrics, theta0: float, theta1: float, sigma: float
) -> dict:
    """Classical mesh-quality predicates for one triangle.

    min_angle_ok: every angle >= theta0 (0 < theta0 < pi/3);
    max_angle_ok: every angle <= theta1 (pi/3 <= theta1 < pi);
    regular_ok:   h_K / rho_K <= sigma (sigma > 0, inf allowed).
    """
    if not (0.0 < theta0 < math.pi / 3.0):
        raise InvalidThreshold(f"theta0 = {theta0} outside (0, pi/3)")
    if not (math.pi / 3.0 <= theta1 < math.pi):
        raise InvalidThreshold(f"theta1 = {theta1} outside [pi/3, pi)")
    if not sigma > 0.0:
        raise InvalidThreshold(f"sigma = {sigma} must be positive")
    return {
        "min_angle_ok": m.theta_min >= theta0,
        "max_angle_ok": m.theta_max <= theta1,
        "regular_ok": m.h_K / m.rho_K <= sigma,
    }


@dataclass(frozen=True)
class CanonicalForm:
    """Similarity decomposition onto the baseline triangle.

    The input triangle equals the canonical triangle with apexes (-1,0),
    (1,0), (s, eta*t) scaled by ``ratio`` (plus a rotation/translation).
    a, b are the direction cosines of the slanted edge through (-1,0);
    X, Y the stretched edge factors; the canonical circumradius is X*Y/eta.
    """

    s: float
    t: float
    eta: float
    a: float
    b: float
    X: float
    Y: float
    ratio: float

    @property
    def canonical_circumradius(self) -> float:
        return self.X * self.Y / self.eta

    def rebuild(self) -> Triangle:
        """Triangle congruent to the decomposed input, in canonical position."""
        r = self.ratio
        return Triangle((-r, 0.0), (r, 0.0), (r * self.s, r * self.eta * self.t))


def canonicalize(tri: Triangle) -> CanonicalForm:
    """Decompose ``tri`` onto the canonical baseline triangle.

    The longest edge (ties: largest opposite angle, then lowest vertex index)
    maps to (-1,0)-(1,0) following the triangle's counterclockwise
    orientation, which places the apex above the baseline; eta lands in
    (0, sqrt(3)] because the baseline is the longest edge.
    """
    v = [tri.p1, tri.p2, tri.p3]
    edges = edge_lengths(tri.vertices)
    lengths = [float(e) for e in edges]
    lmax = max(lengths)
    candidates = [i for i in range(3) if lengths[i] == lmax]
    if len(candidates) > 1:
        angs = shape_quantities(*edges, tri.area)[4]
        amax = max(angs[i] for i in candidates)
        candidates = [i for i in candidates if angs[i] == amax]
    i = min(candidates)

    pa, pb, pc = v[(i + 1) % 3], v[(i + 2) % 3], v[i]
    L = lengths[i]
    ux, uy = (pb[0] - pa[0]) / L, (pb[1] - pa[1]) / L
    nx, ny = -uy, ux  # left normal; CCW order puts the apex on this side
    mx, my = 0.5 * (pa[0] + pb[0]), 0.5 * (pa[1] + pb[1])
    dx, dy = pc[0] - mx, pc[1] - my
    s = 2.0 * (dx * ux + dy * uy) / L
    mu = 2.0 * (dx * nx + dy * ny) / L

    t = math.sqrt(max(0.0, 1.0 - s * s))
    eta = mu / t
    if not 0.0 < eta <= _SQRT3 * (1.0 + 1e-12):
        raise DegenerateTriangle(
            f"canonical height factor {eta} outside (0, sqrt(3)]"
        )
    a = math.sqrt((1.0 + s) / 2.0)
    b = math.sqrt((1.0 - s) / 2.0)
    X = math.sqrt(a * a * eta * eta + b * b)
    Y = math.sqrt(a * a + b * b * eta * eta)
    return CanonicalForm(s=s, t=t, eta=min(eta, _SQRT3), a=a, b=b, X=X, Y=Y, ratio=L / 2.0)


def circumradius_identity_check(tri: Triangle) -> bool:
    """True iff ratio * X*Y/eta reproduces R_K to _IDENTITY_REL_TOL relative."""
    form = canonicalize(tri)
    r_k = metrics(tri).R_K
    return abs(form.ratio * form.canonical_circumradius - r_k) <= _IDENTITY_REL_TOL * r_k


def needle_triangle(h: float, alpha: float) -> Triangle:
    """Isosceles triangle with base h on the x-axis and apex height h**alpha.
    A negative h raises InvalidFamily; h = 0 gives a DegenerateTriangle."""
    if h < 0.0:
        raise InvalidFamily(f"needle base h = {h} is negative")
    return Triangle((0.0, 0.0), (h, 0.0), (0.5 * h, h ** alpha))


def random_triangles(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3, 2) vertex array, uniform in the unit square, degeneracy-filtered."""
    out = np.empty((n, 3, 2))
    got = 0
    while got < n:
        pts = rng.random((n - got, 3, 2))
        keep = pts[~_degenerate(*edge_lengths_and_area(pts))]
        out[got : got + len(keep)] = keep
        got += len(keep)
    return out
