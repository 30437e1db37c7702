"""Linear interpolation on a triangle and its error quotients.

The interpolant of v is the unique affine function matching v at the three
apexes.  Error reports compare |v - I v|_{1,p,K} against the two explicit
bounds available at p = 2 (Kobayashi's constant C(K) and the circumradius
R_K) and record the raw quotient for other exponents, where the sharp
constant is only known to exist.

``error_report`` takes v at the apexes from the first rule's
``FieldAtRule.nodal``, so one field call per rule gives the interpolant and
every integrand, and it reads the triangle's area and edge lengths from the
``Triangle`` that computed them on construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, InvalidFamily
from .fields import ScalarField
from .geometry import Triangle, TriangleMetrics, metrics, needle_triangle
from .quadrature import FieldAtRule, QuadratureRule, adaptive_values, lp_root

# the constant of the circumradius bound checked away from p = 2
EMPIRICAL_CP = 1.0


@dataclass(frozen=True)
class AffineFunction:
    """c0 + cx*x + cy*y."""

    c0: float
    cx: float
    cy: float

    def value(self, x, y):
        return self.c0 + self.cx * np.asarray(x) + self.cy * np.asarray(y)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.c0, self.cx, self.cy)


def _gradient(tri: Triangle, nodal: np.ndarray) -> tuple[float, float]:
    """The gradient (cx, cy) of the P1 function with vertex values
    ``nodal`` on ``tri``, from the triangle's hat gradients."""
    _, gx, gy = tri.geometry
    return float(nodal @ gx), float(nodal @ gy)


def p1_interpolate(tri: Triangle, v: ScalarField) -> AffineFunction:
    """Affine function matching v at the three apexes."""
    pts = tri.vertices
    nodal = np.asarray(v.value(pts[:, 0], pts[:, 1]), dtype=float)
    cx, cy = _gradient(tri, nodal)
    c0 = float(np.mean(nodal - cx * pts[:, 0] - cy * pts[:, 1]))
    return AffineFunction(c0=c0, cx=cx, cy=cy)


@dataclass(frozen=True)
class InterpErrorReport:
    """Interpolation-error seminorms of one (triangle, field, p) triple.

    ratio_1 = err_1p / semi_2p (0 when both vanish); err_full is the
    W^{1,p} norm (err_0p^p + err_1p^p)^(1/p).  For p = 2,
    bound_satisfied checks err_1p <= C_K * semi_2p; for other p it checks
    err_1p <= EMPIRICAL_CP * R_K * semi_2p, recorded as ``empirical_cp``,
    both up to 1e-10 * (err_1p + bound + |I_h v|_{1,p,K}):
    relative to the sides compared, with a rounding floor at the scale of
    the interpolant's own seminorm.  ``empirical_quotient`` stores
    err_1p / (R_K * semi_2p).  circumradius_le_one flags whether R_K <= 1,
    the hypothesis under which the circumradius bound is stated.
    """

    triangle: TriangleMetrics
    p: float
    err_0p: float
    err_1p: float
    err_full: float
    semi_2p: float
    ratio_1: float
    kobayashi_bound: float
    circumradius_bound: float
    empirical_quotient: float
    empirical_cp: float
    bound_satisfied: bool
    circumradius_le_one: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "R_K": self.triangle.R_K,
            "C_K": self.triangle.C_K,
            "theta_max_rad": self.triangle.theta_max,
            "err_0p": self.err_0p,
            "err_1p": self.err_1p,
            "err_full": self.err_full,
            "semi_2p": self.semi_2p,
            "ratio_1": self.ratio_1,
            "empirical_quotient": self.empirical_quotient,
            "empirical_cp": self.empirical_cp,
            "bound_satisfied": self.bound_satisfied,
            "circumradius_le_one": self.circumradius_le_one,
        }


def error_report(
    tri: Triangle,
    v: ScalarField,
    p: float = 2.0,
    rule: QuadratureRule | None = None,
) -> InterpErrorReport:
    """Seminorms of v - I_h v on ``tri`` with the p = 2 bound checks.

    The one-element case of the mesh error functionals, on the triangle's
    own geometry.  ``rule`` fixes the points at every p; without it
    ``adaptive_values`` picks one rule for all three seminorms, as it does
    for ``quadrature.seminorm``.  The vertex values of I_h v are the first
    rule's ``FieldAtRule.nodal``, so they come from the same field call as
    v at its points, and the edge lengths are the triangle's own.
    """
    if not p >= 1.0:
        raise InvalidExponent(f"p = {p} below 1")
    m = metrics(tri)
    nodal = None

    def evaluate(r):
        nonlocal nodal
        at_rule = FieldAtRule(tri.vertices, v, r, tri.geometry)
        if nodal is None:  # the first rule: one field call for both
            nodal = at_rule.nodal
        e0, e1 = at_rule.error_power(nodal, p)
        return [lp_root(e, p) for e in (e0, e1, at_rule.hessian_power(p))]

    if rule is not None:
        err_0p, err_1p, semi_2p = evaluate(rule)
    else:
        err_0p, err_1p, semi_2p = adaptive_values(evaluate, p, v.degree)
    cx, cy = _gradient(tri, nodal)
    if math.isinf(p):
        err_full = max(err_0p, err_1p)
        ih_1p = max(abs(cx), abs(cy))
    else:
        err_full = (err_0p ** p + err_1p ** p) ** (1.0 / p)
        ih_1p = (m.S * (abs(cx) ** p + abs(cy) ** p)) ** (1.0 / p)
    ratio_1 = err_1p / semi_2p if semi_2p > 0.0 else 0.0
    rk_bound = m.R_K * semi_2p
    quotient = err_1p / rk_bound if rk_bound > 0.0 else 0.0
    bound = m.C_K * semi_2p if p == 2.0 else EMPIRICAL_CP * rk_bound
    ok = err_1p <= bound + 1e-10 * (err_1p + bound + ih_1p)
    return InterpErrorReport(
        triangle=m,
        p=p,
        err_0p=err_0p,
        err_1p=err_1p,
        err_full=err_full,
        semi_2p=semi_2p,
        ratio_1=ratio_1,
        kobayashi_bound=m.C_K,
        circumradius_bound=m.R_K,
        empirical_quotient=quotient,
        empirical_cp=EMPIRICAL_CP,
        bound_satisfied=bool(ok),
        circumradius_le_one=bool(m.R_K <= 1.0),
    )


@dataclass(frozen=True)
class NeedleRow:
    h: float
    report: InterpErrorReport

    def to_dict(self) -> dict:
        d = {"h": self.h}
        d.update(self.report.to_dict())
        return d


NEEDLE_CSV_COLUMNS = (
    "h", "R_K", "theta_max_rad", "err_0p", "err_1p", "semi_2p",
    "ratio_1", "C_K", "bound_ok",
)


def needle_row_csv(row: NeedleRow) -> list[float]:
    r = row.report
    return [row.h, r.triangle.R_K, r.triangle.theta_max, r.err_0p, r.err_1p,
            r.semi_2p, r.ratio_1, r.triangle.C_K, r.bound_satisfied]


def needle_study(h_list, alpha: float, v: ScalarField, p: float = 2.0) -> list[NeedleRow]:
    """Interpolation-error rows over the isosceles family (base h, height
    h**alpha).

    For alpha > 1 the apex angle tends to pi as h -> 0, yet for
    1 < alpha < 2 the circumradius (and with it ratio_1) still tends to 0.
    """
    if not math.isfinite(alpha):
        raise InvalidFamily(f"alpha = {alpha} is not finite")
    if alpha <= 1.0:
        raise InvalidFamily(f"alpha = {alpha} <= 1 does not flatten")
    rows = []
    for h in h_list:
        if not 0.0 < h < 1.0:
            raise InvalidFamily(f"h = {h} outside (0, 1)")
        tri = needle_triangle(float(h), alpha)
        rows.append(NeedleRow(h=float(h), report=error_report(tri, v, p)))
    return rows
