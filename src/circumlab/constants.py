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
ROADMAP item 2 replaces them).  The Babuska-Aziz constant is
the reciprocal of A_2 on the reference triangle and solves
1/x + tan(1/x) = 0; known lower bounds for the quotients (derived from
that constant and from the vertex-constrained second-order quotient D_2)
are checked as inequalities by ``lemma_inequality_audit``.

Gram matrices use the L2-orthonormal basis of ``_basis``, assembled with
quadrature whose exactness degree covers the polynomial integrands;
constraints are reduced by a rank-revealing SVD null space.  The mass
matrix is exactly 2S * I, so A and D are standard symmetric eigenproblems
scaled by 1/(2S) and only B is a pencil, with a condition gate.  The
table ``_QUOTIENTS`` defines each quotient and the one loop ``_estimates``
solves them from only the Gram matrices they read, over degrees 4..N for
``rayleigh_*`` and, for the audit's B and D together, at the audit degree
alone: in exact arithmetic, Cauchy interlacing on the nested subspaces
makes the restricted condition number and the eigenvalue spread only
worse as the degree rises, so the top-degree gates imply the lower ones.

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
from functools import cache

import numpy as np

from . import _basis
from .errors import IllConditioned, NotApplicable, UnsupportedDegree
from .geometry import Triangle, canonicalize, circumradius, read_only
from .quadrature import make_rule

# Published approximate value of the vertex-constrained second-order
# quotient D_2 on the reference triangle (Liu-Kikuchi): 1/0.167.
D2_REFERENCE = 1.0 / 0.167
# Exponents of 2 in the longest-edge bounds at p = 2.  The paper's
# piecewise formulas are phi(p) = 3/2 + 2/p and mu(p) = 2 + 2/p for
# 1 <= p <= 2, phi(p) = 4 - 3/p and mu(p) = 4 - 2/p for 2 < p < inf, and
# phi = mu = 4 at p = inf; the audit reads only their values at p = 2.
_PHI_2 = 2.5
_MU_2 = 3.0

COND_LIMIT = 1e13
# smallest trustworthy lambda_min / lambda_max of the reduced pencil: below
# ~45*eps the dense eigensolve's absolute error (~eps * lambda_max) swamps
# the smallest eigenvalue and even its sign is unreliable
PENCIL_SPREAD_FLOOR = 1e-14
MIN_DEGREE = 4
MAX_SUBSPACE_DEGREE = 14
_ROOT_REL_TOL = 1e-12
# offset, relative to the longest edge, below which a leg counts as axis-parallel
_AXIS_REL_TOL = 1e-9


@cache
def babuska_aziz_root() -> float:
    """Maximum positive solution x of 1/x + tan(1/x) = 0 (about 0.49291).

    Bisects g(y) = y + tan(y) for y = 1/x on (pi/2, pi), where g increases
    from -inf to pi, to ``_ROOT_REL_TOL`` relative, then returns x = 1/y.
    """
    lo = math.pi / 2.0 + 1e-9
    hi = math.pi - 1e-9
    while hi - lo > _ROOT_REL_TOL * lo:
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
    return rule.weights, {k: read_only(a) for k, a in tab.items()}


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
    return read_only(rows)


@cache
def _null_space(degree: int, constraint: str, sub_degree: int) -> np.ndarray:
    """Orthonormal basis of the polynomials of degree <= ``sub_degree`` that
    satisfy ``constraint``, as coefficients in the degree-``degree`` basis
    (whose edge-mean rules depend on ``degree``)."""
    import scipy.linalg

    k = _basis_size(sub_degree)
    return read_only(scipy.linalg.null_space(_constraint_rows(degree, constraint)[:, :k]))


def _grams(tri: Triangle, degree: int,
           names: set[str]) -> tuple[float, dict[str, np.ndarray]]:
    """2S and the Gram matrices ``names`` ("g1" gradient, "g2" Hessian) of
    ``tri`` in the degree-``degree`` basis, mapped affinely from the shared
    reference table; only those are formed, and the mass Gram, 2S * I, never is."""
    if not MIN_DEGREE <= degree <= MAX_SUBSPACE_DEGREE:
        raise UnsupportedDegree(
            f"subspace degree {degree} outside [{MIN_DEGREE}, {MAX_SUBSPACE_DEGREE}]"
        )
    v = tri.vertices
    jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
    det = float(np.linalg.det(jac))  # = 2S > 0 for CCW triangles
    (i11, i12), (i21, i22) = np.linalg.inv(jac)
    weights, tab = _rule_table(degree)
    wc = (weights * det)[:, None]
    grams = {}
    if "g1" in names:
        gx = i11 * tab["x"] + i21 * tab["y"]
        gy = i12 * tab["x"] + i22 * tab["y"]
        grams["g1"] = gx.T @ (wc * gx) + gy.T @ (wc * gy)
    if "g2" in names:
        hxx = i11 * i11 * tab["xx"] + 2 * i11 * i21 * tab["xy"] + i21 * i21 * tab["yy"]
        hxy = (
            i11 * i12 * tab["xx"]
            + (i11 * i22 + i12 * i21) * tab["xy"]
            + i21 * i22 * tab["yy"]
        )
        hyy = i12 * i12 * tab["xx"] + 2 * i12 * i22 * tab["xy"] + i22 * i22 * tab["yy"]
        grams["g2"] = hxx.T @ (wc * hxx) + hyy.T @ (wc * hyy) + 2.0 * (hxy.T @ (wc * hxy))
    return det, {name: 0.5 * (g + g.T) for name, g in grams.items()}


def _right_triangle_ordered(tri: Triangle) -> Triangle:
    """Reorder vertices as (corner, corner+(a,0), corner+(0,b)) or raise.

    The triangle must have its right angle between axis-parallel legs.
    """
    v = [tri.p1, tri.p2, tri.p3]
    tol = _AXIS_REL_TOL * max(tri.edges)
    for i in range(3):
        c = v[i]
        others = [v[(i + 1) % 3], v[(i + 2) % 3]]
        for q1, q2 in (others, others[::-1]):
            horiz = abs(q1[1] - c[1]) <= tol and q1[0] > c[0]
            vert = abs(q2[0] - c[0]) <= tol and q2[1] > c[1]
            if horiz and vert:
                return Triangle(c, q1, q2)
    raise NotApplicable(
        "triangle is not a right triangle with axis-parallel legs"
    )


def _solve(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of the restricted pencil (a, b), or of a alone."""
    import scipy.linalg

    a = 0.5 * (a + a.T)
    if b is None:
        vals = scipy.linalg.eigh(a, eigvals_only=True)
    else:
        cond = np.linalg.cond(b)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditioned(
                f"denominator Gram condition {cond:.2e} exceeds {COND_LIMIT:.0e}; "
                "lower the subspace degree"
            )
        vals = scipy.linalg.eigh(a, 0.5 * (b + b.T), eigvals_only=True)
    if vals[0] < PENCIL_SPREAD_FLOOR * vals[-1]:
        raise IllConditioned(
            f"pencil eigenvalue spread {vals[0]:.2e} / {vals[-1]:.2e} is below "
            "double-precision resolution (triangle too flat for this degree); "
            "lower the subspace degree"
        )
    return float(vals[0])


# What each quotient is: its constraint, its numerator Gram matrix and its
# denominator Gram matrix; "mass" is 2S * I, never formed.
_QUOTIENTS = {
    "A1": ("edge1", "g1", "mass"),
    "A2-edge": ("edge2", "g1", "mass"),
    "B": ("vertices", "g2", "g1"),
    "D": ("vertices", "g2", "mass"),
}


def _estimates(tri: Triangle, kinds: tuple[str, ...], degree: int,
               lo: int = MIN_DEGREE) -> dict[str, QuotientEstimate]:
    """The ``kinds`` quotients of ``tri``, which share one constraint, from
    one set of the Gram matrices they read: at each subspace degree
    lo..``degree``, one restriction of each and one ``_solve`` each."""
    (constraint,) = {_QUOTIENTS[kind][0] for kind in kinds}
    read = {name for kind in kinds for name in _QUOTIENTS[kind][1:]} - {"mass"}
    two_s, grams = _grams(tri, degree, read)
    histories: dict[str, list[tuple[int, float]]] = {kind: [] for kind in kinds}
    for d in range(lo, degree + 1):
        z = _null_space(degree, constraint, d)
        k = len(z)
        restricted = {name: z.T @ g[:k, :k] @ z for name, g in grams.items()}
        for kind, history in histories.items():
            _, num, den = _QUOTIENTS[kind]
            lam = _solve(restricted[num], restricted.get(den))
            history.append((d, math.sqrt(lam / (two_s if den == "mass" else 1.0))))
    return {kind: QuotientEstimate(kind, tri, degree, history[-1][1], history)
            for kind, history in histories.items()}


def rayleigh_A(tri: Triangle, edge_index: int = 1, degree: int = 12) -> QuotientEstimate:
    """First-order/zeroth-order quotient with a mean-zero leg constraint.

    ``tri`` must be a right triangle with axis-parallel legs; edge 1 is the
    horizontal leg, edge 2 the vertical one.
    """
    if edge_index not in (1, 2):
        raise NotApplicable(f"edge_index {edge_index} not in {{1, 2}}")
    kind = "A1" if edge_index == 1 else "A2-edge"
    return _estimates(_right_triangle_ordered(tri), (kind,), degree)[kind]


def rayleigh_B(tri: Triangle, degree: int = 12) -> QuotientEstimate:
    """Second-order/first-order quotient over vertex-vanishing polynomials."""
    return _estimates(tri, ("B",), degree)["B"]


def rayleigh_D(tri: Triangle, degree: int = 12) -> QuotientEstimate:
    """Second-order/zeroth-order quotient over vertex-vanishing polynomials."""
    return _estimates(tri, ("D",), degree)["D"]


@dataclass(frozen=True)
class AuditEntry:
    lemma: str
    computed: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.computed >= self.bound

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


def _audit_frames(tri: Triangle):
    """(family, frame, k_B, k_D) of each bound family that applies to
    ``tri``, in report order; the canonical frame is built only after the
    right-legs frame has been audited, so an error there, such as
    IllConditioned, is raised first, before canonicalize's own."""
    try:
        right = _right_triangle_ordered(tri)
    except NotApplicable:
        pass
    else:
        yield "right_legs", right, 2.0, 4.0
    form = canonicalize(tri)
    yield ("longest_edge", Triangle((-1.0, 0.0), (1.0, 0.0), (form.s, form.eta * form.t)),
           2.0 ** _PHI_2 * math.sqrt(3.0), 2.0 ** _MU_2 * 3.0)


def lemma_inequality_audit(tri: Triangle, degree: int = 8) -> AuditRecord:
    """Check the known quotient lower bounds against subspace estimates.

    Estimates are upper bounds of the true infima, so ``computed >= bound``
    must hold with zero tolerance in the passing direction.  Two bound
    families are audited at p = 2, B >= A_2/(k_B R) and D >= D_2/(k_D R^2)
    in a frame of circumradius R, with D_2 = ``D2_REFERENCE``:

    * right triangles with axis-parallel legs, audited only when ``tri`` is
      one: k_B = 2 and k_D = 4;
    * any triangle, canonicalized to a longest edge of length 2 on the
      x-axis: k_B = 2^phi(2) sqrt(3) and k_D = 2^mu(2) * 3.

    Each frame's B and D are the loop of ``rayleigh_B`` and ``rayleigh_D``
    run at ``degree`` alone: their last history entries, bit for bit; by
    interlacing, lower-degree gates refuse nothing the top-degree ones accept.
    """
    a2 = a2_constant()
    entries: list[AuditEntry] = []
    for family, frame, kb, kd in _audit_frames(tri):
        r = circumradius(*frame.edges, frame.area)
        est = _estimates(frame, ("B", "D"), degree, lo=degree)
        entries.append(AuditEntry(f"B_{family}", est["B"].value, a2 / (kb * r)))
        entries.append(AuditEntry(f"D_{family}", est["D"].value,
                                  D2_REFERENCE / (kd * r * r)))
    return AuditRecord(triangle=tri, degree=degree, entries=entries)
