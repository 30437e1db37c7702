"""Sobolev quotient constants at p = 2 by constrained Rayleigh minimization.

Four quotients are estimated over polynomial subspaces of a triangle K:

    A (edge 1/2):  |w|_{1,2,K} / |w|_{0,2,K},  mean of w over one leg = 0
    B:             |v|_{2,2,K} / |v|_{1,2,K},  v vanishing at the apexes
    D:             |v|_{2,2,K} / |v|_{0,2,K},  v vanishing at the apexes

Each estimate minimizes over polynomials of total degree <= N and is
therefore an upper bound of the true infimum.  The history over degrees
4..N is non-increasing in exact arithmetic (nested subspaces); in floating
point it can rise on flat triangles, because the Gram matrices square the
conditioning of the derivative matrices (until the factored engine of
ROADMAP item 1 replaces them).  The Babuska-Aziz constant is
the reciprocal of A_2 on the reference triangle and solves
1/x + tan(1/x) = 0; known lower bounds for the quotients (derived from
that constant and from the vertex-constrained second-order quotient D_2)
are checked as inequalities by ``lemma_inequality_audit``.

Gram matrices use the L2-orthonormal basis of ``_basis`` (mass = 2S * I
exactly), assembled with quadrature whose exactness degree covers the
polynomial integrands; constraints are reduced by a rank-revealing SVD
null space and the symmetric-definite pencil is solved densely.

Everything that does not depend on the triangle is built once per degree
and kept as read-only arrays: the basis table at the rule points (which
each triangle maps affinely), the constraint rows (apex values, leg
means) and the null space of each constraint set at each sub-degree.  By
the graded basis ordering, the degree-d subspace is the leading
(d+1)(d+2)/2 block of the Gram matrices, so a history step slices them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.linalg

from . import _basis
from .errors import IllConditioned, InvalidExponent, NotApplicable, UnsupportedDegree
from .geometry import CanonicalForm, Triangle, canonicalize, metrics
from .quadrature import _read_only, make_rule

# Published approximate value of the vertex-constrained second-order
# quotient D_2 on the reference triangle (Liu-Kikuchi): 1/0.167.
D2_REFERENCE = 1.0 / 0.167

COND_LIMIT = 1e13
# smallest trustworthy lambda_min / lambda_max of the reduced pencil: below
# ~45*eps the dense eigensolve's absolute error (~eps * lambda_max) swamps
# the smallest eigenvalue and even its sign is unreliable
PENCIL_SPREAD_FLOOR = 1e-14
MIN_DEGREE = 4
MAX_SUBSPACE_DEGREE = 14


def babuska_aziz_root(tol: float = 1e-12) -> float:
    """Maximum positive solution x of 1/x + tan(1/x) = 0 (about 0.49291).

    Bisects g(y) = y + tan(y) for y = 1/x on (pi/2, pi), where g increases
    from -inf to pi, then returns x = 1/y.
    """
    lo = math.pi / 2.0 + 1e-9
    hi = math.pi - 1e-9
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if mid + math.tan(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def a2_constant() -> float:
    """A_2 on the reference triangle: reciprocal of the Babuska-Aziz root."""
    return 1.0 / babuska_aziz_root()


@dataclass(frozen=True)
class ExponentHelpers:
    """Piecewise exponents entering the lower-bound constants.

    tau and gamma are the Lp/l2 norm-equivalence exponents; phi and mu are
    the exponents of 2 in the longest-edge bounds for the first- and
    zeroth-order quotients.  All four are continuous at p = 2; at p = inf,
    gamma follows its p -> inf limit (inf) and only appears in sup-norm
    bounds through phi and mu, which are finite (both 4).
    """

    p: float
    tau: float
    gamma: float
    phi: float
    mu: float


def exponent_helpers(p: float) -> ExponentHelpers:
    if not p >= 1.0:
        raise InvalidExponent(f"p = {p} below 1")
    if math.isinf(p):
        return ExponentHelpers(p=p, tau=0.0, gamma=math.inf, phi=4.0, mu=4.0)
    if p <= 2.0:
        return ExponentHelpers(
            p=p, tau=1.0 - p / 2.0, gamma=0.0, phi=1.5 + 2.0 / p, mu=2.0 + 2.0 / p
        )
    return ExponentHelpers(
        p=p, tau=0.0, gamma=p / 2.0 - 1.0, phi=4.0 - 3.0 / p, mu=4.0 - 2.0 / p
    )


@dataclass(frozen=True)
class QuotientEstimate:
    """Subspace upper bound of a Sobolev quotient infimum.

    ``history`` holds (degree, value) for degrees 4..N and ``value`` is
    the final entry.  The history is non-increasing in exact arithmetic;
    in floating point it can rise on flat triangles.  ``uncertainty`` is
    the last convergence decrement.
    """

    kind: str
    triangle: Triangle
    subspace_degree: int
    value: float
    history: list[tuple[int, float]] = field(repr=False)

    @property
    def uncertainty(self) -> float:
        if len(self.history) < 2:
            return math.nan
        return self.history[-2][1] - self.history[-1][1]


def _basis_size(degree: int) -> int:
    """Dimension of the polynomials of total degree <= ``degree``; by the
    graded ordering of ``_basis`` they are the leading block of columns."""
    return (degree + 1) * (degree + 2) // 2


@cache
def _rule_table(degree: int) -> tuple[np.ndarray, dict]:
    """Weights of the degree-``degree`` pencil's quadrature rule and the
    basis table (values and derivatives to order 2) at its points."""
    rule = make_rule(min(2 * degree, 30))
    tab = _basis.tabulate(degree, rule.points[:, 1], rule.points[:, 2])
    _read_only(*tab.values())
    return rule.weights, tab


@cache
def _constraint_rows(degree: int, constraint: str) -> np.ndarray:
    """Rows of the linear constraints on the degree-``degree`` basis:
    ``"vertices"`` (values at the three apexes) or ``"edge1"``/``"edge2"``
    (mean over reference leg 1 or 2)."""
    if constraint == "vertices":
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rows = _basis.tabulate(degree, ref[:, 0], ref[:, 1], order=0)["v"]
    else:
        # mean over reference leg 1 = (0,0)-(1,0) or leg 2 = (0,0)-(0,1);
        # an affine pullback rescales the mean, so the zero constraint is
        # identical in reference coordinates
        xg, wg = np.polynomial.legendre.leggauss(degree // 2 + 2)
        t = 0.5 * (xg + 1.0)
        zero = np.zeros_like(t)
        x, y = (t, zero) if constraint == "edge1" else (zero, t)
        rows = (0.5 * wg @ _basis.tabulate(degree, x, y, order=0)["v"])[None, :]
    _read_only(rows)
    return rows


@cache
def _null_space(degree: int, constraint: str, sub_degree: int) -> np.ndarray:
    """Orthonormal basis of the polynomials of degree <= ``sub_degree`` that
    satisfy ``constraint``, as coefficients in the degree-``degree`` basis
    (whose edge-mean rules depend on ``degree``)."""
    k = _basis_size(sub_degree)
    z = scipy.linalg.null_space(_constraint_rows(degree, constraint)[:, :k])
    _read_only(z)
    return z


class _TrianglePencil:
    """Gram matrices of one triangle at max degree N, each formed on first
    use from the shared reference table of degree N."""

    def __init__(self, tri: Triangle, degree: int):
        self.degree = degree
        v = tri.vertices
        jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
        self._det = float(np.linalg.det(jac))  # = 2S > 0 for CCW triangles
        self._inv = np.linalg.inv(jac)
        weights, self._tab = _rule_table(degree)
        self._wc = (weights * self._det)[:, None]

    @cached_property
    def G0(self) -> np.ndarray:
        return self._det * np.eye(_basis_size(self.degree))

    @cached_property
    def G1(self) -> np.ndarray:
        tab, wc = self._tab, self._wc
        (i11, i12), (i21, i22) = self._inv
        gx = i11 * tab["x"] + i21 * tab["y"]
        gy = i12 * tab["x"] + i22 * tab["y"]
        g1 = gx.T @ (wc * gx) + gy.T @ (wc * gy)
        return 0.5 * (g1 + g1.T)

    @cached_property
    def G2(self) -> np.ndarray:
        tab, wc = self._tab, self._wc
        (i11, i12), (i21, i22) = self._inv
        hxx = i11 * i11 * tab["xx"] + 2 * i11 * i21 * tab["xy"] + i21 * i21 * tab["yy"]
        hxy = (
            i11 * i12 * tab["xx"]
            + (i11 * i22 + i12 * i21) * tab["xy"]
            + i21 * i22 * tab["yy"]
        )
        hyy = i12 * i12 * tab["xx"] + 2 * i12 * i22 * tab["xy"] + i22 * i22 * tab["yy"]
        g2 = hxx.T @ (wc * hxx) + hyy.T @ (wc * hyy) + 2.0 * (hxy.T @ (wc * hxy))
        return 0.5 * (g2 + g2.T)

    def vertex_rows(self) -> np.ndarray:
        return _constraint_rows(self.degree, "vertices")


def _right_triangle_ordered(tri: Triangle, rel_tol: float = 1e-9) -> Triangle:
    """Reorder vertices as (corner, corner+(a,0), corner+(0,b)) or raise.

    The triangle must have its right angle between axis-parallel legs.
    """
    v = [tri.p1, tri.p2, tri.p3]
    scale = max(
        math.hypot(v[i][0] - v[j][0], v[i][1] - v[j][1])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    for i in range(3):
        c = v[i]
        others = [v[(i + 1) % 3], v[(i + 2) % 3]]
        for q1, q2 in (others, others[::-1]):
            horiz = abs(q1[1] - c[1]) <= rel_tol * scale and q1[0] > c[0]
            vert = abs(q2[0] - c[0]) <= rel_tol * scale and q2[1] > c[1]
            if horiz and vert:
                return Triangle(c, q1, q2)
    raise NotApplicable(
        "triangle is not a right triangle with axis-parallel legs"
    )


def _solve(num: np.ndarray, den: np.ndarray, z: np.ndarray) -> float:
    """Square root of the smallest eigenvalue of the pencil (num, den) on
    the span of ``z``, an orthonormal basis of a constrained subspace of
    the leading len(z) basis functions."""
    k = len(z)
    if z.shape[1] == 0:
        raise NotApplicable("constraints eliminate the whole subspace")
    a = z.T @ num[:k, :k] @ z
    b = z.T @ den[:k, :k] @ z
    cond = np.linalg.cond(b)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(
            f"denominator Gram condition {cond:.2e} exceeds {COND_LIMIT:.0e}; "
            "lower the subspace degree"
        )
    vals = scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T), eigvals_only=True)
    if vals[0] < PENCIL_SPREAD_FLOOR * vals[-1]:
        raise IllConditioned(
            f"pencil eigenvalue spread {vals[0]:.2e} / {vals[-1]:.2e} is below "
            "double-precision resolution (triangle too flat for this degree); "
            "lower the subspace degree"
        )
    return float(math.sqrt(vals[0]))


def _estimate(tri: Triangle, kind: str, num_key: str, den_key: str,
              constraint: str, degree: int) -> QuotientEstimate:
    if not MIN_DEGREE <= degree <= MAX_SUBSPACE_DEGREE:
        raise UnsupportedDegree(
            f"subspace degree {degree} outside [{MIN_DEGREE}, {MAX_SUBSPACE_DEGREE}]"
        )
    pencil = _TrianglePencil(tri, degree)
    num, den = getattr(pencil, num_key), getattr(pencil, den_key)
    history = [
        (d, _solve(num, den, _null_space(degree, constraint, d)))
        for d in range(MIN_DEGREE, degree + 1)
    ]
    return QuotientEstimate(
        kind=kind,
        triangle=tri,
        subspace_degree=degree,
        value=history[-1][1],
        history=history,
    )


def rayleigh_A(tri: Triangle, edge_index: int = 1, degree: int = 12) -> QuotientEstimate:
    """First-order/zeroth-order quotient with a mean-zero leg constraint.

    ``tri`` must be a right triangle with axis-parallel legs; edge 1 is the
    horizontal leg, edge 2 the vertical one.
    """
    if edge_index not in (1, 2):
        raise NotApplicable(f"edge_index {edge_index} not in {{1, 2}}")
    ordered = _right_triangle_ordered(tri)
    if edge_index == 1:
        kind, constraint = "A1", "edge1"
    else:
        kind, constraint = "A2-edge", "edge2"
    return _estimate(ordered, kind, "G1", "G0", constraint, degree)


def rayleigh_B(tri: Triangle, degree: int = 12) -> QuotientEstimate:
    """Second-order/first-order quotient over vertex-vanishing polynomials."""
    return _estimate(tri, "B", "G2", "G1", "vertices", degree)


def rayleigh_D(tri: Triangle, degree: int = 12) -> QuotientEstimate:
    """Second-order/zeroth-order quotient over vertex-vanishing polynomials."""
    return _estimate(tri, "D", "G2", "G0", "vertices", degree)


@dataclass(frozen=True)
class AuditEntry:
    lemma: str
    computed: float
    bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "computed": self.computed,
            "bound": self.bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class AuditRecord:
    triangle: Triangle
    degree: int
    entries: list[AuditEntry]
    canonical: CanonicalForm

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "triangle": [list(self.triangle.p1), list(self.triangle.p2),
                         list(self.triangle.p3)],
            "degree": self.degree,
            "entries": [e.to_dict() for e in self.entries],
            "all_pass": self.all_pass,
        }


def lemma_inequality_audit(
    tri: Triangle,
    degree: int = 8,
    include_right_angle: bool | None = None,
    d2_reference: float = D2_REFERENCE,
) -> AuditRecord:
    """Check the known quotient lower bounds against subspace estimates.

    Estimates are upper bounds of the true infima, so ``computed >= bound``
    must hold with zero tolerance in the passing direction.  Two bound
    families are audited at p = 2:

    * right triangles with axis-parallel legs, circumradius R:
      B >= A_2/(2R) and D >= D_2/(4R^2);
    * any triangle, after canonicalization to a longest edge of length 2 on
      the x-axis, circumradius R: B >= A_2/(2^phi(2) sqrt(3) R) and
      D >= D_2/(2^mu(2) * 3 * R^2).

    ``include_right_angle=True`` forces the first family and raises
    NotApplicable when the shape does not qualify; None auto-detects.
    """
    a2 = a2_constant()
    helpers = exponent_helpers(2.0)
    entries: list[AuditEntry] = []

    right = None
    try:
        right = _right_triangle_ordered(tri)
    except NotApplicable:
        if include_right_angle:
            raise
    if right is not None and include_right_angle is not False:
        r = metrics(right).R_K
        b_est = rayleigh_B(right, degree).value
        d_est = rayleigh_D(right, degree).value
        entries.append(AuditEntry("B_right_legs", b_est, a2 / (2.0 * r),
                                  b_est >= a2 / (2.0 * r)))
        bound_d = d2_reference / (4.0 * r * r)
        entries.append(AuditEntry("D_right_legs", d_est, bound_d, d_est >= bound_d))

    form = canonicalize(tri)
    canon_unit = Triangle(
        (-1.0, 0.0), (1.0, 0.0), (form.s, form.eta * form.t)
    )
    r = metrics(canon_unit).R_K
    b_est = rayleigh_B(canon_unit, degree).value
    d_est = rayleigh_D(canon_unit, degree).value
    bound_b = a2 / (2.0 ** helpers.phi * math.sqrt(3.0) * r)
    bound_d = d2_reference / (2.0 ** helpers.mu * 3.0 * r * r)
    entries.append(AuditEntry("B_longest_edge", b_est, bound_b, b_est >= bound_b))
    entries.append(AuditEntry("D_longest_edge", d_est, bound_d, d_est >= bound_d))
    return AuditRecord(triangle=tri, degree=degree, entries=entries, canonical=form)
