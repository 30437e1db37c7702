"""The three benchmark workloads.

Each workload builds its inputs from the seed (``make_inputs``), runs one
pass of closed-loop work with one operation in flight (``run_pass``),
checks a pass's outputs outside the timed region (``check_pass``) and,
once per run, checks against independent computations that are too slow
to repeat every pass (``final_checks``).  circumlab is reached only
through its public package names and ``circumlab.cli.main``, looked up at
call time so that the traced run sees its wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

import exact

_perf = time.perf_counter

ALPHA = 1.5
# u = x(1-x) y(1-y) (1+x+2y) in graded coefficient order
BUBBLE = "poly:0,0,0,0,1,0,0,0,1,0,0,-1,-2,-2,0,0,0,1,2,0,0"
# slack for inequalities that hold exactly in exact arithmetic
SLACK = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _interp_h1_reference(vertices, triangles, u: exact.Poly) -> float:
    """|u - I_h u|_{1,2} over a mesh by a 6 x 6 collapsed Gauss rule (exact
    for the degree-8 integrand of a quintic u), written apart from
    circumlab's quadrature."""
    g, w = np.polynomial.legendre.leggauss(6)
    g, w = (g + 1) / 2, w / 2
    s = np.repeat(g, 6)
    t = np.tile(g, 6) * (1 - s)
    wq = np.repeat(w, 6) * np.tile(w, 6) * (1 - s)
    p = vertices[triangles]  # (nt, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    x = p[:, 0, 0, None] + e1[:, 0, None] * s + e2[:, 0, None] * t
    y = p[:, 0, 1, None] + e1[:, 1, None] * s + e2[:, 1, None] * t

    def ev(poly, x, y):
        return sum(float(c) * x ** i * y ** j for (i, j), c in poly.items())

    f = ev(u, p[..., 0], p[..., 1])  # nodal values (nt, 3)
    df1, df2 = f[:, 1] - f[:, 0], f[:, 2] - f[:, 0]
    gx = (df1 * e2[:, 1] - df2 * e1[:, 1]) / det
    gy = (e1[:, 0] * df2 - e2[:, 0] * df1) / det
    err = (ev(exact.dx(u), x, y) - gx[:, None]) ** 2 + (ev(exact.dy(u), x, y) - gy[:, None]) ** 2
    return math.sqrt(float(np.sum(np.abs(det) * (err @ wq))))


def _cli(cl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cl.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    name = ""

    def __init__(self, cl, seed: int, quick: bool, scratch: Path):
        self.cl = cl
        self.seed = seed
        self.quick = quick
        self.scratch = scratch

    def make_inputs(self):
        raise NotImplementedError

    def run_pass(self, inputs, op_times: list[float]):
        """One pass; appends each per-operation latency to ``op_times``."""
        raise NotImplementedError

    def check_pass(self, inputs, out) -> tuple[int, int, list[str]]:
        """(operations attempted, operations failed, problems)."""
        raise NotImplementedError

    def final_checks(self, inputs, out) -> list[str]:
        return []


class FemBubble(Workload):
    """``circumlab fem`` on the crisscross family with the generic bubble,
    then the mesh round trips of ``MeshIO``, all in one pass."""

    name = "fem-bubble"

    def __init__(self, *args):
        super().__init__(*args)
        self.n0, self.levels = (4, 2) if self.quick else (16, 3)
        self.out = self.scratch / "fem"
        self.first_json = None
        u = exact.bubble()
        if u != exact.poly_from_graded(BUBBLE[len("poly:"):].split(",")):
            raise ValueError("BUBBLE does not spell x(1-x)y(1-y)(1+x+2y)")
        self.semi22 = math.sqrt(exact.hessian_seminorm_sq_unit_square(u))
        self.mesh_io = MeshIO(*args)

    def make_inputs(self):
        argv = ["fem", "--family", "crisscross", "--alpha", str(ALPHA),
                "--field", BUBBLE, "--n0", str(self.n0),
                "--levels", str(self.levels), "--format", "both",
                "--out", str(self.out)]
        return argv, self.mesh_io.make_inputs()

    def run_pass(self, inputs, op_times):
        argv, plan = inputs
        t0 = _perf()
        fem_out = _cli(self.cl, argv)
        mesh_out = self.mesh_io.run_pass(plan, op_times)
        op_times.append(_perf() - t0)
        return fem_out, mesh_out

    def _rows(self) -> tuple[str, list[dict]]:
        text = (self.out / "fem.json").read_text(encoding="utf-8")
        return text, json.loads(text)["results"]["rows"]

    def check_pass(self, inputs, out):
        n_ops, n_failed, problems = self.mesh_io.check_pass(inputs[1], out[1])
        fem_problems = self._check_fem(out[0])
        return (n_ops + 1, n_failed + bool(fem_problems),
                problems + fem_problems)

    def _check_fem(self, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"fem exited {code}"]
        text, rows = self._rows()
        problems = []
        if stdout != text:
            problems.append("stdout differs from fem.json")
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            problems.append("fem.json differs between identical runs")
        csv_lines = (self.out / "fem.csv").read_text(encoding="utf-8").splitlines()
        if len(csv_lines) != self.levels + 1:
            problems.append(f"fem.csv has {len(csv_lines)} lines")
        if len(rows) != self.levels:
            problems.append(f"{len(rows)} rows for {self.levels} levels")
        for r in rows:
            n = r["n"]
            if r["n_triangles"] != 4 * n * math.ceil(n ** ALPHA):
                problems.append(f"n={n}: {r['n_triangles']} triangles")
            if _rel(r["semi_22_exact"], self.semi22) > 1e-12:
                problems.append(f"n={n}: semi_22_exact {r['semi_22_exact']!r} "
                                f"!= exact {self.semi22!r}")
            if r["h1_seminorm_error"] > r["interp_h1"] * (1 + SLACK):
                problems.append(f"n={n}: Galerkin error above interpolation error")
            if r["interp_h1"] > r["max_R_K"] * self.semi22 * (1 + SLACK):
                problems.append(f"n={n}: interpolation error above max R_K |u|_2")
        for a, b in zip(rows, rows[1:]):
            for key in ("h1_seminorm_error", "h1_norm_error", "interp_h1"):
                if not b[key] < a[key]:
                    problems.append(f"{key} does not fall from n={a['n']} to n={b['n']}")
        return problems

    def final_checks(self, inputs, out):
        """CG on one level (chosen by the seed) against a direct solve, the
        coarsest level's interp_h1 against an independent quadrature, and
        the once-per-run mesh checks."""
        cl = self.cl
        level = self.seed % self.levels
        n = self.n0 * 2 ** level
        system = cl.assemble(cl.gen_crisscross_aniso(n, ALPHA),
                             cl.neg_laplacian(cl.get_field(BUBBLE)))
        x, report = cl.solve_cg(system)
        ref = scipy.sparse.linalg.spsolve(system.matrix.tocsc(), system.rhs)
        problems = []
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        # CG stops at relative residual 1e-10; the nodal difference measured
        # 1.5e-12 to 1.9e-12 at n = 16, 32 and 64
        if not err <= 1e-8:
            problems.append(f"n={n}: CG differs from spsolve by {err:.2e}")
        _, rows = self._rows()
        coarse = cl.gen_crisscross_aniso(self.n0, ALPHA)
        want = _interp_h1_reference(coarse.vertices, coarse.triangles, exact.bubble())
        # the program's degree-6 error rule does not integrate this degree-8
        # integrand exactly: measured 6.6e-9 relative at n = 4, 3.7e-13 at 16
        if _rel(rows[0]["interp_h1"], want) > 1e-6:
            problems.append(f"n={self.n0}: interp_h1 {rows[0]['interp_h1']!r}, "
                            f"independent quadrature {want!r}")
        if rows[level]["cg_iterations"] != report.iterations:
            problems.append(f"n={n}: study took {rows[level]['cg_iterations']} "
                            f"CG iterations, the same system {report.iterations}")
        return problems + self.mesh_io.final_checks(inputs[1], out[1])


class MeshIO(Workload):
    """Generate, write and check a crisscross and a lens mesh: the second
    half of a fem-bubble pass, with an operation for each mesh."""

    LENS_AREA = 2 ** (7 / 3) * math.gamma(5 / 3) ** 2 / math.gamma(7 / 3)

    def __init__(self, *args):
        super().__init__(*args)
        self.cases = ((("crisscross", 8), ("lens", 4)) if self.quick
                      else (("crisscross", 56), ("lens", 32)))
        self.expected: dict[str, str] = {}

    def make_inputs(self):
        out = str(self.scratch / "mesh")
        plan = []
        for family, n in self.cases:
            path = f"{out}/mesh_{family}_{n}.txt"
            plan.append((family, n, path,
                         ["mesh", "--family", family, "--n", str(n),
                          "--alpha", str(ALPHA), "--format", "json", "--out", out],
                         ["mesh", "--check", path, "--format", "json"]))
        return plan

    def run_pass(self, plan, op_times):
        # untimed here: the fem-bubble pass it belongs to is one operation
        cl = self.cl
        out = {}
        for family, n, path, write_argv, check_argv in plan:
            m = (cl.gen_crisscross_aniso(n, ALPHA) if family == "crisscross"
                 else cl.gen_lens(n))
            out[family] = (m, _cli(cl, write_argv), _cli(cl, check_argv))
        return out

    def check_pass(self, plan, out):
        problems = []
        failed = 0
        for family, n, path, _, _ in plan:
            found = self._check_family(family, path, *out[family])
            failed += bool(found)
            problems += found
        return len(plan), failed, problems

    def _check_family(self, family, path, m, written, checked) -> list[str]:
        (code_w, doc_w), (code_c, doc_c) = written, checked
        if code_w or code_c:
            return [f"{family}: exit codes {code_w}, {code_c}"]
        problems = []
        if family not in self.expected:
            self.expected[family] = self.cl.write_mesh(m)
        if Path(path).read_text(encoding="utf-8") != self.expected[family]:
            problems.append(f"{family}: file differs from write_mesh of the generated mesh")
        before = json.loads(doc_w)["results"]["stats"]
        after = json.loads(doc_c)["results"]
        if before != after["stats"]:
            problems.append(f"{family}: stats change across write and read")
        if after["warnings"]:
            problems.append(f"{family}: reader warnings {after['warnings'][:3]}")
        return problems

    def final_checks(self, plan, out):
        cl = self.cl
        rng = np.random.default_rng(self.seed)
        problems = []
        for family, n, path, _, _ in plan:
            text = Path(path).read_text(encoding="utf-8")
            m = cl.read_mesh(text)
            if cl.write_mesh(m) != text:
                problems.append(f"{family}: write -> read -> write is not byte-identical")
            if cl.stats(m) != cl.stats(out[family][0]):
                problems.append(f"{family}: stats of the read mesh differ")
            problems += self._topology(family, m)
            p = m.vertices[m.triangles]
            areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                           - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
            if not np.all(areas > 0):
                problems.append(f"{family}: non-positive element area")
            total = math.fsum(areas)
            if family == "crisscross":
                rows = math.ceil(n ** ALPHA)
                if m.n_triangles != 4 * n * rows:
                    problems.append(f"crisscross: {m.n_triangles} triangles")
                if m.n_vertices != (n + 1) * (rows + 1) + n * rows:
                    problems.append(f"crisscross: {m.n_vertices} vertices")
                if _rel(total, 1.0) > 1e-12:
                    problems.append(f"crisscross: area {total!r}")
            else:
                if not total < self.LENS_AREA:
                    problems.append(f"lens: area {total!r} not below {self.LENS_AREA!r}")
                # a seeded sample of vertices lies in the closed domain,
                # flagged ones on its boundary curve
                idx = rng.choice(m.n_vertices, size=min(256, m.n_vertices),
                                 replace=False)
                x, y = m.vertices[idx, 0], m.vertices[idx, 1]
                g = np.abs(x - y) ** 1.5 + np.abs(x + y) ** 1.5
                if np.any(g > 2 * (1 + 1e-12)):
                    problems.append("lens: vertex outside the domain")
                if np.any(np.abs(g[m.boundary[idx]] - 2) > 1e-9):
                    problems.append("lens: boundary vertex off the boundary curve")
        return problems

    @staticmethod
    def _topology(family: str, m) -> list[str]:
        t = m.triangles
        edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        problems = []
        if m.n_vertices - len(uniq) + m.n_triangles != 1:
            problems.append(f"{family}: Euler characteristic is not 1")
        if np.any(counts > 2):
            problems.append(f"{family}: an edge is shared by three triangles")
        bnd_edges = uniq[counts == 1]
        if len(bnd_edges) != int(m.boundary.sum()):
            problems.append(f"{family}: {len(bnd_edges)} boundary edges, "
                            f"{int(m.boundary.sum())} boundary vertices")
        if not np.array_equal(np.unique(bnd_edges), np.flatnonzero(m.boundary)):
            problems.append(f"{family}: boundary flags differ from boundary edges")
        return problems


class BoundSweep(Workload):
    """A batched C(K) < R_K sweep, then per-triangle error reports."""

    name = "bound-sweep"
    NEEDLE_H = tuple(2.0 ** -k for k in range(2, 10))

    def __init__(self, *args):
        super().__init__(*args)
        # per pass: n_batch triangles in one batch, n_calls error reports of
        # which one in 16 is a needle with sinsin (adaptive quadrature)
        self.n_batch, self.n_calls = (2000, 64) if self.quick else (200_000, 1536)

    def make_inputs(self):
        cl = self.cl
        rng = np.random.default_rng(self.seed)
        n_needle = self.n_calls // 16
        kinds = np.zeros(self.n_calls, dtype=bool)
        kinds[rng.choice(self.n_calls, size=n_needle, replace=False)] = True
        needles = iter(self.NEEDLE_H[k % len(self.NEEDLE_H)] for k in range(n_needle))
        poly_pts = iter(cl.random_triangles(self.n_calls - n_needle, rng))
        sinsin = cl.get_field("sinsin")
        calls = []
        for is_needle in kinds:
            if is_needle:
                h = next(needles)
                calls.append((cl.needle_triangle(h, ALPHA), sinsin, h, None))
            else:
                coeffs = rng.uniform(-1.0, 1.0, size=15)  # degree 4
                name = "poly:" + ",".join(repr(float(c)) for c in coeffs)
                tri = cl.Triangle(*(tuple(v) for v in next(poly_pts)))
                calls.append((tri, cl.get_field(name), None, coeffs))
        return calls

    def run_pass(self, calls, op_times):
        cl = self.cl
        rng = np.random.default_rng([self.seed, 1])
        pts = cl.random_triangles(self.n_batch, rng)
        a, b, c, s = cl.edge_lengths_and_area(pts)
        ck = cl.kobayashi_constant(a, b, c, s)
        rk = cl.circumradius(a, b, c, s)
        reports = []
        for tri, field, _, _ in calls:
            t0 = _perf()
            reports.append(cl.error_report(tri, field))
            op_times.append(_perf() - t0)
        return pts, ck, rk, reports

    def check_pass(self, calls, out):
        pts, ck, rk, reports = out
        problems = []
        failed = 0
        if not (len(ck) == self.n_batch and np.all(np.isfinite(ck))
                and np.all(ck < rk)):
            failed += 1
            problems.append("batch: C(K) < R_K fails")
        for (tri, _, h, _), rep in zip(calls, reports):
            bad = []
            if not rep.err_1p <= rep.kobayashi_bound * rep.semi_2p * (1 + SLACK):
                bad.append("err_1p above C_K |v|_2")
            if not rep.kobayashi_bound < rep.circumradius_bound:
                bad.append("C_K not below R_K")
            if h is not None and _rel(rep.triangle.R_K,
                                      h ** ALPHA / 2 + h ** (2 - ALPHA) / 8) > 1e-12:
                bad.append(f"needle h={h}: R_K {rep.triangle.R_K!r}")
            if bad:
                failed += 1
                problems += bad
        return 1 + len(calls), failed, problems

    def final_checks(self, calls, out):
        pts, ck, rk, reports = out
        rng = np.random.default_rng([self.seed, 2])
        problems = []
        for i in rng.choice(len(pts), size=16 if not self.quick else 4, replace=False):
            r2, k2 = exact.circumradius_and_kobayashi_sq(pts[i])
            if _rel(rk[i], math.sqrt(r2)) > 1e-12 or _rel(ck[i], math.sqrt(k2)) > 1e-12:
                problems.append(f"batch triangle {i}: C(K), R_K differ from exact")
            if not k2 < r2:
                problems.append(f"batch triangle {i}: exact C(K) not below R_K")
        poly = [i for i, c in enumerate(calls) if c[3] is not None]
        for i in rng.choice(poly, size=8 if not self.quick else 2, replace=False):
            tri, _, _, coeffs = calls[i]
            want = math.sqrt(exact.interpolation_h1_error_sq(
                exact.poly_from_graded(coeffs), tri.vertices))
            if _rel(reports[i].err_1p, want) > 1e-9:
                problems.append(f"call {i}: err_1p {reports[i].err_1p!r} != exact {want!r}")
        return problems


class QuotientAudit(Workload):
    """Lemma audits at degree 8 and the top-degree B and D quotients."""

    name = "quotient-audit"
    DEGREE = 8
    TOP_DEGREE = 14
    # B(lambda K) = B(K)/lambda and D(lambda K) = D(K)/lambda^2, each triangle
    # one operation: the reference triangle, two canonical ones and a right
    # triangle with legs in ratio 13.5.  On the last the program misses 1e-8
    # for B and D at both scales (1.7e-8 to 8.4e-8, see CHANGES.md), so that
    # operation fails in every pass.  0.3 and 3 are not powers of two, whose
    # scaling is exact in floating point.
    SCALING_CASES = (((0, 0), (1, 0), (0, 1)), ((-1, 0), (1, 0), (0.3, 0.8)),
                     ((-1, 0), (1, 0), (0.2, 0.3)), ((0, 0), (1.62, 0), (0, 0.12)))
    SCALES = (0.3, 3.0)

    def make_inputs(self):
        # drawn as ``circumlab constants --audit`` draws its set: the
        # reference triangle, right triangles with legs in [0.1, 2] and
        # canonical ones; twice its default counts, so that a pass lasts
        # long enough to average over the machine's speed swings
        cl = self.cl
        rng = np.random.default_rng(self.seed)
        n_right, n_canon = (2, 4) if self.quick else (40, 100)
        tris = [(cl.reference_triangle(), True)]
        for _ in range(n_right):
            a, b = rng.uniform(0.1, 2.0, size=2)
            tris.append((cl.Triangle((0, 0), (a, 0), (0, b)), True))
        for _ in range(n_canon):
            s = rng.uniform(-0.9, 0.9)
            eta = rng.uniform(0.3, math.sqrt((3.0 + abs(s)) / (1.0 + abs(s))))
            t = math.sqrt(1.0 - s * s)
            tris.append((cl.Triangle((-1, 0), (1, 0), (s, eta * t)), False))
        return tris

    def run_pass(self, tris, op_times):
        cl = self.cl
        records = []
        for tri, _ in tris:
            t0 = _perf()
            records.append(cl.lemma_inequality_audit(tri, degree=self.DEGREE))
            op_times.append(_perf() - t0)
        ref = cl.reference_triangle()
        return (records, cl.rayleigh_B(ref, self.TOP_DEGREE),
                cl.rayleigh_D(ref, self.TOP_DEGREE))

    def check_pass(self, tris, out):
        records, est_b, est_d = out
        problems = []
        failed = 0
        for (tri, right), rec in zip(tris, records):
            bad = len(rec.entries) != (4 if right else 2) or not all(
                e.passed and e.computed >= e.bound for e in rec.entries)
            if bad:
                failed += 1
                problems.append(f"audit of {tri} fails: {[e.to_dict() for e in rec.entries]}")
        d_ref = 1.0 / 0.167
        for est in (est_b, est_d):
            bad = []
            values = [v for _, v in est.history]
            if [d for d, _ in est.history] != list(range(4, self.TOP_DEGREE + 1)) or any(
                    b > a * (1 + 1e-12) for a, b in zip(values, values[1:])):
                bad.append(f"{est.kind} history not non-increasing: {est.history}")
            if est is est_d and _rel(est.value, d_ref) > 0.02:
                bad.append(f"D_{self.TOP_DEGREE} = {est.value!r}, Liu-Kikuchi {d_ref!r}")
            failed += bool(bad)
            problems += bad
        for vertices in self.SCALING_CASES:
            bad = self._scaling(vertices)
            failed += bool(bad)
            problems += bad
        return len(records) + 2 + len(self.SCALING_CASES), failed, problems

    def _scaling(self, vertices) -> list[str]:
        cl = self.cl
        tri = cl.Triangle(*vertices)
        bad = []
        for lam in self.SCALES:
            big = cl.Triangle(*(tuple(lam * v) for v in tri.vertices))
            for f, power in ((cl.rayleigh_B, 1), (cl.rayleigh_D, 2)):
                want = f(tri, self.DEGREE).value / lam ** power
                got = f(big, self.DEGREE).value
                if _rel(got, want) > 1e-8:
                    bad.append(f"{f.__name__} does not scale as lambda^-{power} on "
                               f"{vertices} (lambda={lam}): {got!r} vs {want!r}")
        return bad

    def final_checks(self, tris, out):
        cl = self.cl
        problems = []
        y = scipy.optimize.brentq(lambda v: v + math.tan(v), math.pi / 2 + 1e-9,
                                  math.pi - 1e-9, xtol=1e-15, rtol=1e-15)
        if _rel(cl.a2_constant(), y) > 1e-10:
            problems.append(f"A2 {cl.a2_constant()!r}, root of y + tan y {y!r}")
        return problems


WORKLOADS = {w.name: w for w in (FemBubble, BoundSweep, QuotientAudit)}
