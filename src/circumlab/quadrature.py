"""Quadrature on triangles and Lp Sobolev seminorms.

Rules come from a collapsed tensor Gauss-Legendre construction: the unit
square maps onto the reference triangle (0,0), (1,0), (0,1) via
(u, w) -> (u, w(1-u)) with Jacobian (1-u), so a degree-d rule needs
ceil((d+2)/2) x ceil((d+1)/2) Gauss points and is exact for every
polynomial of total degree <= d.  Arbitrary degree is supported without
embedded point tables.

``FieldAtRule`` holds a field at one rule's points on a batch of triangles;
it is the one evaluation kernel behind ``seminorm``, ``interp.error_report``
and the mesh error functionals of ``fem``, and ``adaptive_values`` picks the
rule of the first two when none is given.  When the field has a jet, the
first derivative asked for takes value, gradient and Hessian from one jet
call, and the values at the triangles' vertices (``nodal``), when asked
for first, come from that same call.  Element geometry is never computed
here: each caller passes the geometry its ``Triangle`` or ``Mesh`` holds.

Seminorms follow the weighted convention

    |u|_{2,p,K}^p = int |u_xx|^p + |u_yy|^p + 2 |u_xy|^p

for p < inf, and a plain max over the per-derivative sup-estimates at
p = inf (sampled on a nested barycentric grid, hence a lower estimate of
the essential sup that never decreases under grid refinement).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSpec, InvalidExponent, UnsupportedDegree
from .geometry import Triangle, read_only

MAX_DEGREE = 30
# the adaptive choice of rule: first degree of the doubling loop, relative
# agreement that freezes a value, and the sup grid's subdivisions at p = inf
START_DEGREE = 8
REL_TOL = 1e-8
SUP_GRID = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Points (barycentric, on the reference triangle) and weights (sum 1/2)."""

    degree: int
    points: np.ndarray
    weights: np.ndarray


def make_rule(degree: int) -> QuadratureRule:
    """Rule exact to ``degree`` on the reference triangle; 1 <= degree <= 30.
    Each degree is built once; its arrays are read-only, so every caller
    shares them."""
    if not (1 <= degree <= MAX_DEGREE):
        raise UnsupportedDegree(f"degree {degree} outside [1, {MAX_DEGREE}]")
    return _gauss_rule(degree)


@functools.cache
def _gauss_rule(degree: int) -> QuadratureRule:
    nu = (degree + 3) // 2  # u-degree rises by 1 through the Jacobian factor
    nw = (degree + 2) // 2
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xw, ww = np.polynomial.legendre.leggauss(nw)
    u = 0.5 * (xu + 1.0)
    w = 0.5 * (xw + 1.0)
    U, W = np.meshgrid(u, w, indexing="ij")
    WU, WW = np.meshgrid(wu, ww, indexing="ij")
    x = U.ravel()
    y = (W * (1.0 - U)).ravel()
    wt = (0.25 * WU * WW * (1.0 - U)).ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(degree=degree, points=read_only(pts), weights=read_only(wt))


def p1_values(rule: QuadratureRule, nodal) -> np.ndarray:
    """Values at the rule points of the P1 function with vertex values
    ``nodal`` (..., 3), the rule axis first: an (nq, ...) array."""
    c = np.asarray(nodal, dtype=float)
    return (rule.points @ c.reshape(-1, 3).T).reshape(rule.points.shape[:1] + c.shape[:-1])


def physical_points(rule: QuadratureRule, pts, areas):
    """Map rule points into each triangle of a (..., 3, 2) vertex array
    with areas |S| (...); returns (x, y, w), each (nq, ...), with the
    weights scaled by |det J| = 2|S| so that sum(w_i f_i) integrates f over
    each triangle."""
    v = np.asarray(pts, dtype=float)
    w = rule.weights.reshape((-1,) + (1,) * np.ndim(areas)) * (2.0 * areas)
    return p1_values(rule, v[..., 0]), p1_values(rule, v[..., 1]), w


def integrate(f, tri: Triangle, rule: QuadratureRule) -> float:
    """Integral over ``tri`` of f(x, y) (vectorized callable)."""
    x, y, w = physical_points(rule, tri.vertices, tri.area)
    return float(w @ np.asarray(f(x, y), dtype=float))


@dataclass(frozen=True)
class SeminormSpec:
    """Derivative order m in {0, 1, 2} and Lebesgue exponent p in [1, inf]."""

    m: int
    p: float

    def __post_init__(self):
        if self.m not in (0, 1, 2):
            raise InconsistentSpec(f"order m = {self.m} not in {{0, 1, 2}}")
        if not self.p >= 1.0:
            raise InvalidExponent(f"p = {self.p} below 1")


def lp_power(w, p: float, fs, weights=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Reduce the rule axis (axis 0) of the components ``fs``: per triangle
    the sum of w * sum_k weights_k |f_k|^p for p < inf, and the max of every
    |f_k| (no weights) for p = inf."""
    if math.isinf(p):
        return np.max([np.max(np.abs(f), axis=0) for f in fs], axis=0)
    total = 0.0
    for c, f in zip(weights, fs):
        # f * f is bit-identical to |f| ** 2 and makes one temporary, not two
        t = f * f if p == 2.0 else np.abs(f) ** p
        total = total + (t if c == 1.0 else c * t)
    return (w * total).sum(axis=0)


def lp_root(power, p: float) -> float:
    """The seminorm from what ``lp_power`` returns."""
    return float(power) if math.isinf(p) else float(power) ** (1.0 / p)


class FieldAtRule:
    """A field on the triangles of a (..., 3, 2) vertex array at the points
    of one rule: the physical points and the field's value, gradient and
    Hessian there, and its values at the triangles' own vertices
    (``nodal``), each computed at most once, on first use.

    ``geometry`` is the triangles' ``element_geometry``, as the owning
    ``Triangle`` or ``Mesh`` holds it; its areas scale the weights.  When
    the field has a jet, the first derivative asked for takes value,
    gradient and Hessian from one jet call; a value asked for before any
    derivative comes from the field's ``value``, which for the registry's
    fields is a view of the jet with the same bits.  ``nodal`` asked for
    before any of them rides on that same call: the field is evaluated
    once at the rule points followed by the vertices, with the jet when it
    has one, else with ``value``, and the rule-point part is kept as
    ``jet`` or ``value``.  The evaluators work point by point, or pad as
    ``fields._polyval`` does, so each point gets the bits it would get
    alone.
    """

    def __init__(self, pts, field, rule: QuadratureRule, geometry):
        self.pts = pts
        self.field = field
        self.rule = rule
        self.geometry = geometry

    @functools.cached_property
    def points(self):
        return physical_points(self.rule, self.pts, self.geometry[0])

    @functools.cached_property
    def jet(self):
        x, y, _ = self.points
        return self.field.jet(x, y)

    @functools.cached_property
    def value(self) -> np.ndarray:
        if "jet" in self.__dict__:  # already computed with the derivatives
            return np.asarray(self.jet[0], dtype=float)
        x, y, _ = self.points
        return np.asarray(self.field.value(x, y), dtype=float)

    @functools.cached_property
    def nodal(self) -> np.ndarray:
        """The field's values at the vertices, (..., 3)."""
        vx, vy = self.pts[..., 0], self.pts[..., 1]
        if "jet" in self.__dict__ or "value" in self.__dict__:
            return np.asarray(self.field.value(vx, vy), dtype=float)
        x, y, _ = self.points
        n = x.size

        def at_rule(a):  # the rule-point part of an array over both
            return a[:n].reshape(x.shape)

        xs = np.concatenate((x.ravel(), vx.ravel()))
        ys = np.concatenate((y.ravel(), vy.ravel()))
        if getattr(self.field, "jet", None) is None:
            v = np.asarray(self.field.value(xs, ys), dtype=float)
            self.value = at_rule(v)
        else:
            v, g, h = self.field.jet(xs, ys)
            self.jet = (at_rule(v), tuple(map(at_rule, g)), tuple(map(at_rule, h)))
        return np.asarray(v, dtype=float)[n:].reshape(vx.shape)

    def _derivative(self, kind: str):
        fn = getattr(self.field, kind, None)
        if fn is None:
            what = {"grad": "gradient evaluators", "hess": "Hessian"}[kind]
            raise InconsistentSpec(f"{getattr(self.field, 'name', self.field)} has no {what}")
        if getattr(self.field, "jet", None) is not None:
            return self.jet[1 if kind == "grad" else 2]
        x, y, _ = self.points
        return fn(x, y)

    @functools.cached_property
    def grad(self):
        return self._derivative("grad")

    @functools.cached_property
    def hess(self):
        return self._derivative("hess")

    def error_power(self, nodal, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(|v - u_h|_{0,p}^p, |v - u_h|_{1,p}^p) on each triangle, where
        u_h is the P1 function with vertex values ``nodal`` (..., 3); at
        p = inf the maxima over the rule points."""
        ex, ey = self.grad
        _, gx, gy = self.geometry
        w = self.points[2]
        return (lp_power(w, p, [self.value - p1_values(self.rule, nodal)]),
                lp_power(w, p, [ex - (nodal * gx).sum(axis=-1), ey - (nodal * gy).sum(axis=-1)]))

    def hessian_power(self, p: float) -> np.ndarray:
        """|v|_{2,p}^p on each triangle (the max at p = inf): ``lp_power``
        of the Hessian (u_xx, u_xy, u_yy), the mixed term weighted 2."""
        h = self.hess
        return lp_power(self.points[2], p, (h[0], h[2], h[1]), (1.0, 1.0, 2.0))


def barycentric_grid(subdiv: int) -> np.ndarray:
    """Uniform barycentric sample grid; nested under subdiv doubling.
    Rows run over i = 0..subdiv, then j = 0..subdiv - i, and hold
    (1 - (i + j)/subdiv, i/subdiv, j/subdiv)."""
    if subdiv < 1:
        raise UnsupportedDegree(f"grid subdivision {subdiv} below 1")
    counts = np.arange(subdiv + 1, 0, -1)
    i = np.repeat(np.arange(subdiv + 1), counts)
    j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack([1.0 - (i + j) / subdiv, i / subdiv, j / subdiv])


@functools.cache
def sup_rule(subdiv: int) -> QuadratureRule:
    """The barycentric grid as a rule for p = inf, where ``lp_power`` takes
    a max over the points and ignores the weights; built once per
    ``subdiv``, with read-only arrays."""
    pts = barycentric_grid(subdiv)
    return QuadratureRule(degree=0, points=read_only(pts),
                          weights=read_only(np.zeros(len(pts))))


def adaptive_values(evaluate, p: float, degree: int | None) -> list[float]:
    """The list ``evaluate(rule)`` returns, on the rule its integrands need:
    the sup grid at p = inf; one exact rule of degree p * ``degree`` when
    each integrand is |q|^p with p even and q a polynomial of degree at most
    ``degree``; else rules of doubling degree from ``START_DEGREE`` up to
    MAX_DEGREE, each value frozen at the first degree where it agrees with
    the previous one to ``REL_TOL`` relative (or at the last degree).
    """
    if math.isinf(p):
        return evaluate(sup_rule(SUP_GRID))
    if degree is not None and p % 2 == 0 and degree * p <= MAX_DEGREE:
        return evaluate(make_rule(max(1, int(degree * p))))
    d = START_DEGREE
    vals = list(evaluate(make_rule(d)))
    done = [False] * len(vals)
    while d < MAX_DEGREE and not all(done):
        d = min(2 * d, MAX_DEGREE)
        for i, cur in enumerate(evaluate(make_rule(d))):
            if not done[i]:
                done[i] = abs(cur - vals[i]) <= REL_TOL * max(abs(cur), 1e-300)
                vals[i] = cur
    return vals


def seminorm(expr, spec: SeminormSpec, tri: Triangle,
             rule: QuadratureRule | None = None) -> float:
    """|expr|_{m,p,K} on the points of ``rule``, else on the rule
    ``adaptive_values`` picks; ``seminorm_auto`` is the same function.

    ``expr`` must expose value/grad/hess evaluators as far as m requires.
    """
    def evaluate(r: QuadratureRule) -> list[float]:
        at_rule = FieldAtRule(tri.vertices, expr, r, tri.geometry)
        if spec.m == 2:
            return [lp_root(at_rule.hessian_power(spec.p), spec.p)]
        fs = [at_rule.value] if spec.m == 0 else at_rule.grad
        return [lp_root(lp_power(at_rule.points[2], spec.p, fs), spec.p)]

    if rule is not None:
        return evaluate(rule)[0]
    deg = getattr(expr, "degree", None)
    return adaptive_values(evaluate, spec.p, None if deg is None else deg - spec.m)[0]


seminorm_auto = seminorm
