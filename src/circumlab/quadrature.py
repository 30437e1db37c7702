"""Quadrature on triangles and Lp Sobolev seminorms.

Rules come from a collapsed tensor Gauss-Legendre construction: the unit
square maps onto the reference triangle (0,0), (1,0), (0,1) via
(u, w) -> (u, w(1-u)) with Jacobian (1-u), so a degree-d rule needs
ceil((d+2)/2) x ceil((d+1)/2) Gauss points and is exact for every
polynomial of total degree <= d.  Arbitrary degree is supported without
embedded point tables.

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
from .geometry import Triangle, signed_area

MAX_DEGREE = 30


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


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


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
    _read_only(pts, wt)
    return QuadratureRule(degree=degree, points=pts, weights=wt)


def p1_values(rule: QuadratureRule, nodal) -> np.ndarray:
    """Values at the rule points of the P1 function with vertex values
    ``nodal`` (..., 3), the rule axis first: an (nq, ...) array."""
    c = np.asarray(nodal, dtype=float)
    return (rule.points @ c.reshape(-1, 3).T).reshape(rule.points.shape[:1] + c.shape[:-1])


def physical_points(rule: QuadratureRule, pts):
    """Map rule points into a Triangle or each triangle of a (..., 3, 2)
    vertex array; returns (x, y, w), each (nq, ...), with the weights
    scaled by |det J| = 2|S| so that sum(w_i f_i) integrates f over each
    triangle."""
    v = pts.vertices if isinstance(pts, Triangle) else np.asarray(pts, dtype=float)
    area = np.abs(signed_area(v))
    w = rule.weights.reshape((-1,) + (1,) * np.ndim(area)) * (2.0 * area)
    return p1_values(rule, v[..., 0]), p1_values(rule, v[..., 1]), w


def integrate(f, tri: Triangle, rule: QuadratureRule) -> float:
    """Integral over ``tri`` of f(x, y) (vectorized callable)."""
    x, y, w = physical_points(rule, tri)
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
    return (w * sum(c * np.abs(f) ** p for c, f in zip(weights, fs))).sum(axis=0)


def lp_root(power, p: float) -> float:
    """The seminorm from what ``lp_power`` returns."""
    return float(power) if math.isinf(p) else float(power) ** (1.0 / p)


def seminorm_power(expr, m: int, p: float, pts, rule: QuadratureRule) -> np.ndarray:
    """|expr|_{m,p}^p (the max at p = inf) of each triangle of ``pts``, a
    Triangle or a (..., 3, 2) vertex array, on the points of ``rule``; the
    one evaluator that m needs is called once."""
    x, y, w = physical_points(rule, pts)
    if m == 0:
        return lp_power(w, p, [np.asarray(expr.value(x, y), dtype=float)])
    fn = getattr(expr, ("grad", "hess")[m - 1], None)
    if fn is None:
        kind = ("gradient", "Hessian")[m - 1]
        raise InconsistentSpec(f"{getattr(expr, 'name', expr)} has no {kind}")
    d = fn(x, y)
    return lp_power(w, p, d) if m == 1 else hessian_lp_power(w, p, d)


def hessian_lp_power(w, p: float, h) -> np.ndarray:
    """``lp_power`` of a Hessian (u_xx, u_xy, u_yy), the mixed term
    weighted 2."""
    return lp_power(w, p, (h[0], h[2], h[1]), (1.0, 1.0, 2.0))


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
    wt = np.zeros(len(pts))
    _read_only(pts, wt)
    return QuadratureRule(degree=0, points=pts, weights=wt)


def seminorm(
    expr,
    spec: SeminormSpec,
    tri: Triangle,
    rule: QuadratureRule | None = None,
    sup_grid: int = 64,
) -> float:
    """|expr|_{m,p,K} by quadrature (p < inf) or grid sampling (p = inf).

    ``expr`` must expose value/grad/hess evaluators as far as m requires.
    For p = inf the result is the max over a barycentric grid with
    ``sup_grid`` subdivisions (a lower estimate of the essential sup).
    """
    if math.isinf(spec.p):
        rule = sup_rule(sup_grid)
    return lp_root(seminorm_power(expr, spec.m, spec.p, tri, rule or make_rule(8)), spec.p)


def adaptive_values(evaluate, p: float, degree: int | None, rel_tol: float = 1e-8,
                    start_degree: int = 8, sup_grid: int = 64) -> list[float]:
    """The list ``evaluate(rule)`` returns, on the rule its integrands need:
    the sup grid at p = inf; one exact rule of degree p * ``degree`` when
    each integrand is |q|^p with p even and q a polynomial of degree at most
    ``degree``; else rules of doubling degree from ``start_degree`` up to
    MAX_DEGREE, each value frozen at the first degree where it agrees with
    the previous one to ``rel_tol`` relative (or at the last degree).
    """
    if math.isinf(p):
        return evaluate(sup_rule(sup_grid))
    if degree is not None and p % 2 == 0 and degree * p <= MAX_DEGREE:
        return evaluate(make_rule(max(1, int(degree * p))))
    d = start_degree
    vals = list(evaluate(make_rule(d)))
    done = [False] * len(vals)
    while d < MAX_DEGREE and not all(done):
        d = min(2 * d, MAX_DEGREE)
        for i, cur in enumerate(evaluate(make_rule(d))):
            if not done[i]:
                done[i] = abs(cur - vals[i]) <= rel_tol * max(abs(cur), 1e-300)
                vals[i] = cur
    return vals


def seminorm_auto(
    expr,
    spec: SeminormSpec,
    tri: Triangle,
    rel_tol: float = 1e-8,
    start_degree: int = 8,
    sup_grid: int = 64,
) -> float:
    """Seminorm on the rule ``adaptive_values`` picks: one exact rule for
    polynomial expressions with even p, else degrees doubling until two
    successive values agree to ``rel_tol`` relative."""
    deg = getattr(expr, "degree", None)
    return adaptive_values(
        lambda rule: [lp_root(seminorm_power(expr, spec.m, spec.p, tri, rule), spec.p)],
        spec.p, None if deg is None else deg - spec.m, rel_tol, start_degree, sup_grid)[0]
