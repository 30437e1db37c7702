"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Stated runtime budgets are asserted with
time.perf_counter around the measured computation.
"""
import math
import time

import numpy as np
import pytest

from circumlab.constants import (
    D2_REFERENCE,
    a2_constant,
    babuska_aziz_root,
    lemma_inequality_audit,
    rayleigh_A,
    rayleigh_D,
)
from circumlab.fem import cea_study, h1_error, solve_poisson
from circumlab.fields import get_field, neg_laplacian, polynomial_field
from circumlab.geometry import (
    Triangle,
    circumradius,
    edge_lengths_and_area,
    kobayashi_constant,
    random_triangles,
    reference_triangle,
)
from circumlab.interp import error_report, needle_study
from circumlab.mesh import (
    gen_crisscross_aniso,
    gen_lens,
    gen_uniform,
    read_mesh,
    write_mesh,
)
from circumlab.quadrature import make_rule, physical_points
from oracles import reference_moment

REF = reference_triangle()
SINSIN = get_field("sinsin")


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_babuska_aziz_root():
    times = []
    for _ in range(5):
        babuska_aziz_root.cache_clear()  # time the bisection, not the cache
        t0 = time.perf_counter()
        x = babuska_aziz_root()
        times.append(time.perf_counter() - t0)
    elapsed = min(times)
    residual = abs(1 / x + math.tan(1 / x))
    ok = abs(x - 0.49291) <= 5e-6 and residual <= 1e-9 and elapsed < 1e-3
    report(1, ok, f"root={x:.10f} residual={residual:.2e} time={elapsed * 1e3:.3f}ms")


def test_criterion_02_a2_eigenproblem():
    t0 = time.perf_counter()
    est = rayleigh_A(REF, 1, 12)
    dt = time.perf_counter() - t0
    vals = [v for _, v in est.history]
    monotone = all(b <= a * (1 + 1e-10) for a, b in zip(vals, vals[1:]))
    # 2.02876 is the 6-digit rounding of A_2 = 1/root = 2.0287578...; the
    # estimate is an upper bound of A_2 itself, so assert the exact floor
    # (zero tolerance) plus the printed floor within its half-ulp.
    exact_floor = a2_constant() - 1e-12
    ok = (
        exact_floor <= est.value <= 2.05
        and est.value >= 2.02876 - 5e-6
        and monotone
        and dt < 5.0
    )
    report(2, ok, f"A2={est.value:.10f} (exact {a2_constant():.10f}) "
                  f"monotone={monotone} time={dt:.2f}s")


def test_criterion_03_d2_eigenproblem():
    t0 = time.perf_counter()
    est = rayleigh_D(REF, 12)
    dt = time.perf_counter() - t0
    vals = [v for _, v in est.history]
    monotone = all(b <= a * (1 + 1e-10) for a, b in zip(vals, vals[1:]))
    # 5.98802 = 1/0.167 with 0.167 a 3-digit published rounding; the
    # converged upper bound sits 0.15% below it, so the window is two-sided.
    ok = (
        abs(est.value - D2_REFERENCE) <= 0.02 * D2_REFERENCE
        and monotone
        and dt < 5.0
    )
    report(3, ok, f"D2={est.value:.6f} vs {D2_REFERENCE:.5f} "
                  f"dev={(est.value / D2_REFERENCE - 1) * 100:+.2f}% time={dt:.2f}s")


def test_criterion_04_kobayashi_corollary_sweep():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    pts = random_triangles(100_000, rng)
    a, b, c, s = edge_lengths_and_area(pts)
    ck = kobayashi_constant(a, b, c, s)
    rk = circumradius(a, b, c, s)
    strict = bool(np.all(ck < rk))
    dt = time.perf_counter() - t0
    ok = strict and dt < 2.0
    report(4, ok, f"C_K < R_K strict on 1e5 triangles "
                  f"(min gap {np.min(rk - ck):.3e}) time={dt:.2f}s")


def test_criterion_05_kobayashi_bound_sweep():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = -math.inf
    count = 1000
    pts = random_triangles(count, rng)
    for k in range(count):
        tri = Triangle(tuple(pts[k, 0]), tuple(pts[k, 1]), tuple(pts[k, 2]))
        v = polynomial_field(rng.uniform(-1.0, 1.0, size=15))  # degree 4
        rep = error_report(tri, v, 2.0)  # exact rule: degree-4 field, p = 2
        worst = max(worst, rep.err_1p - rep.kobayashi_bound * rep.semi_2p)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 30.0
    report(5, ok, f"1e3 pairs, worst err-C*semi={worst:.3e} time={dt:.1f}s")


def test_criterion_06_lemma_audits():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    failures = []
    tris = [REF]
    for _ in range(20):
        legs = rng.uniform(0.1, 2.0, size=2)
        tris.append(Triangle((0, 0), (legs[0], 0), (0, legs[1])))
    for _ in range(50):
        s = rng.uniform(-0.9, 0.9)
        eta = rng.uniform(0.3, math.sqrt((3 + abs(s)) / (1 + abs(s))))
        tris.append(Triangle((-1, 0), (1, 0), (s, eta * math.sqrt(1 - s * s))))
    for tri in tris:
        rec = lemma_inequality_audit(tri, degree=8)
        failures += [e for e in rec.entries if not e.passed]
    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    report(6, ok, f"71 triangles audited, {len(failures)} bound failures, "
                  f"time={dt:.1f}s")


def test_criterion_07_needle_study():
    t0 = time.perf_counter()
    rows = needle_study([2.0 ** -k for k in range(2, 11)], 1.5, SINSIN, 2.0)
    dt = time.perf_counter() - t0
    theta_fin = rows[-1].report.triangle.theta_max
    last4 = [r.report.ratio_1 for r in rows[-4:]]
    decreasing = all(a > b for a, b in zip(last4, last4[1:]))
    bounded = all(r.report.ratio_1 <= r.report.triangle.R_K for r in rows)
    ok = theta_fin > 3.0 and decreasing and bounded and dt < 10.0
    report(7, ok, f"theta_max(k=10)={theta_fin:.4f} rad, last-4 ratios "
                  f"decreasing={decreasing}, ratio<=R_K all rows={bounded}, "
                  f"time={dt:.1f}s")


def test_criterion_08_fem_circumradius_condition():
    t0 = time.perf_counter()
    rep = cea_study(
        lambda n: gen_crisscross_aniso(n, 1.5), [8, 16, 32, 64], SINSIN)
    dt = time.perf_counter() - t0
    errs = [r.h1_norm_error for r in rep.rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    reduced = errs[-1] < errs[0] / 3
    optimal = all(
        r.h1_seminorm_error <= r.interp_h1 * (1 + 1e-8) + 1e-12 for r in rep.rows
    )
    chain = all(
        r.interp_h1 <= r.max_R_K * r.semi_22_exact * (1 + 1e-8) + 1e-12
        for r in rep.rows
    )
    ok = decreasing and reduced and optimal and chain and dt < 120.0
    report(8, ok, f"errors {', '.join(f'{e:.4f}' for e in errs)}; "
                  f"optimality={optimal} chain={chain} time={dt:.1f}s")


def test_criterion_09_classical_baseline():
    t0 = time.perf_counter()
    errs = []
    f = neg_laplacian(SINSIN)
    for n in (8, 16, 32):
        mesh = gen_uniform(n)
        sol = solve_poisson(mesh, f)
        errs.append(h1_error(mesh, sol.values, SINSIN)[0])
    dt = time.perf_counter() - t0
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.8 <= r <= 2.2 for r in ratios) and dt < 30.0
    report(9, ok, f"H1 ratios {', '.join(f'{r:.3f}' for r in ratios)} "
                  f"time={dt:.1f}s")


def test_criterion_10_infrastructure():
    # quadrature exactness through degree 20 against the factorial oracle
    rule = make_rule(20)
    x, y, w = physical_points(rule, REF.vertices, REF.area)
    worst = 0.0
    for i in range(21):
        for j in range(21 - i):
            want = float(reference_moment(i, j))
            worst = max(worst, abs(float(w @ (x ** i * y ** j)) - want) / want)
    quad_ok = worst <= 1e-12

    # mesh round-trip byte identity
    mesh_ok = all(
        write_mesh(read_mesh(write_mesh(m))) == write_mesh(m)
        for m in (gen_uniform(2), gen_crisscross_aniso(3, 1.5), gen_lens(4))
    )

    # determinism of seeded reports
    def audit_csv():
        rng = np.random.default_rng(5)
        legs = rng.uniform(0.1, 2.0, size=(3, 2))
        lines = []
        for a, b in legs:
            rec = lemma_inequality_audit(Triangle((0, 0), (a, 0), (0, b)), degree=5)
            lines += [f"{e.lemma},{e.computed:.17g},{e.bound:.17g}" for e in rec.entries]
        return "\n".join(lines)

    det_ok = audit_csv() == audit_csv()
    ok = quad_ok and mesh_ok and det_ok
    report(10, ok, f"quadrature worst rel err={worst:.2e}, "
                   f"mesh round-trip={mesh_ok}, determinism={det_ok}")
