"""Command-line front end.

Subcommands: triangle, interp, constants, mesh, fem.  Reports are written
as CSV and/or JSON (plus an optional SVG convergence plot) under --out;
the primary report is also printed to stdout; --format csv is a usage
error for a report with no CSV table.  Identical configurations produce
byte-identical outputs (see ``report``); every random sweep is seeded.
Where a report is a result dataclass (``TriangleMetrics``,
``CanonicalForm``, ``MeshStats``, ``CeaRow``), the dataclass is its
``circumlab/1`` schema: its fields in order are the JSON keys and CSV
columns.  A flag that another flag of the command makes useless is a usage
error: vertices with --needle, two of the constants modes, a triangle with
--audit or --babuska-aziz, an audit flag without --audit, --degree with
--babuska-aziz, --needle-study with a triangle or --quad-degree, --levels
without --needle-study, a generator flag with --check, and --svg without
--out.  Such flags default to None and take their value in the handler,
so the config echoed by a default run names the value used.

Exit codes: 0 success (audits pass), 1 an asserted bound failed (for
interp, Kobayashi's bound, at p = 2 only: away from it the check's
EMPIRICAL_CP is no theorem's constant), 2 usage error, 3 degenerate
triangle input, 4 numerical failure (no convergence / ill-conditioning).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import constants, fem, interp, mesh, report
from .errors import (
    CircumlabError,
    DegenerateTriangle,
    IllConditioned,
    InvalidFamily,
    NoConvergence,
    UnknownField,
)
from .fields import get_field
from .geometry import (
    Triangle,
    canonicalize,
    condition_flags,
    metrics,
    needle_triangle,
)
from .quadrature import make_rule

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4


class UsageError(CircumlabError):
    pass


def _parse_vertex(token: str) -> tuple[float, float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise UsageError(f"vertex {token!r} is not 'x,y'")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"vertex {token!r} has non-numeric coordinates") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise UsageError(f"vertex {token!r} has a non-finite coordinate")
    return x, y


def _triangle_from_args(args) -> Triangle:
    if args.needle is not None:
        h, alpha = args.needle
        if not (math.isfinite(h) and math.isfinite(alpha)):
            raise UsageError(f"--needle {h} {alpha} is not finite")
        return needle_triangle(h, alpha)
    if len(args.vertices) != 3:
        raise UsageError("give three vertices 'x1,y1 x2,y2 x3,y3' or --needle H ALPHA")
    return Triangle(*(_parse_vertex(t) for t in args.vertices))


def _refuse(flags: dict, reason: str) -> None:
    """Raise UsageError naming the flags of ``flags`` (name -> parsed value,
    None or [] when not given) that were given, as not used ``reason``."""
    given = [name for name, value in flags.items() if value not in (None, [])]
    if given:
        raise UsageError(f"{' and '.join(given)} not used {reason}")


def _no_csv_table(args) -> None:
    """Reject --format csv for a report that has no CSV table."""
    if args.format == "csv":
        raise UsageError(f"this {args.command} report has no CSV table; "
                         "use --format json or both")


def _emit(args, name: str, columns, rows, json_doc: str) -> None:
    if args.format in ("csv", "both") and columns is not None:
        text = report.csv_text(columns, rows)
        if args.out:
            report.write_text(f"{args.out}/{name}.csv", text)
    if args.format in ("json", "both"):
        if args.out:
            report.write_text(f"{args.out}/{name}.json", json_doc)
    sys.stdout.write(json_doc)


def _cmd_triangle(args) -> int:
    _no_csv_table(args)
    tri = _triangle_from_args(args)
    m = metrics(tri)
    flags = condition_flags(m, args.theta0, args.theta1, args.sigma)
    form = canonicalize(tri)
    results = {
        "vertices": [list(tri.p1), list(tri.p2), list(tri.p3)],
        "metrics": dataclasses.asdict(m),
        "condition_flags": flags,
        "canonical": {**dataclasses.asdict(form),
                      "canonical_circumradius": form.canonical_circumradius},
    }
    config = {
        "vertices": args.vertices, "needle": args.needle,
        "theta0": args.theta0, "theta1": args.theta1, "sigma": args.sigma,
    }
    _emit(args, "triangle", None, None,
          report.json_text("triangle", config, results))
    return EXIT_OK


def _check_levels(levels: int) -> None:
    if levels < 1:
        raise UsageError(f"--levels {levels} must be >= 1")


def _parse_p(token: str) -> float:
    if token == "inf":
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"--p {token!r} is not a number or 'inf'") from None


def _cmd_interp(args) -> int:
    if args.needle_study is None:
        _no_csv_table(args)
        _refuse({"--levels": args.levels}, "without --needle-study")
    elif args.vertices or args.needle is not None or args.quad_degree is not None:
        raise UsageError("--needle-study builds its own triangles and rules; "
                         "it takes no vertices, --needle or --quad-degree")
    field = get_field(args.field)
    p = _parse_p(args.p)
    if args.needle_study is not None:
        levels = 9 if args.levels is None else args.levels
        _check_levels(levels)
        hs = [2.0 ** -(k + 2) for k in range(levels)]
        rows = interp.needle_study(hs, args.needle_study, field, p)
        csv_rows = [interp.needle_row_csv(r) for r in rows]
        config = {
            "field": args.field, "p": args.p, "alpha": args.needle_study,
            "levels": levels,
        }
        doc = report.json_text("interp", config,
                               {"rows": [r.to_dict() for r in rows]})
        _emit(args, "interp", interp.NEEDLE_CSV_COLUMNS, csv_rows, doc)
        ok = p != 2.0 or all(r.report.bound_satisfied for r in rows)
        return EXIT_OK if ok else EXIT_AUDIT_FAILED
    tri = _triangle_from_args(args)
    rule = None
    if args.quad_degree is not None:
        rule = make_rule(args.quad_degree)
    rep = interp.error_report(tri, field, p, rule=rule)
    config = {
        "field": args.field, "p": args.p, "vertices": args.vertices,
        "needle": args.needle, "quad_degree": args.quad_degree,
    }
    doc = report.json_text("interp", config, rep.to_dict())
    _emit(args, "interp", None, None, doc)
    return EXIT_OK if p != 2.0 or rep.bound_satisfied else EXIT_AUDIT_FAILED


def _audit_triangles(n_right: int, n_canonical: int, rng) -> list[tuple[str, Triangle]]:
    tris = [("reference", Triangle((0, 0), (1, 0), (0, 1)))]
    for k in range(n_right):
        a, b = rng.uniform(0.1, 2.0, size=2)
        tris.append((f"right_{k}", Triangle((0, 0), (a, 0), (0, b))))
    for k in range(n_canonical):
        s = rng.uniform(-0.9, 0.9)
        eta_hi = math.sqrt((3.0 + abs(s)) / (1.0 + abs(s)))
        eta = rng.uniform(0.3, eta_hi)
        t = math.sqrt(1.0 - s * s)
        tris.append((f"canonical_{k}", Triangle((-1, 0), (1, 0), (s, eta * t))))
    return tris


def _cmd_constants(args) -> int:
    if args.babuska_aziz or not args.audit:
        _no_csv_table(args)
    mode = "--audit" if args.audit else "--babuska-aziz" if args.babuska_aziz else None
    if mode:
        _refuse({"vertices": args.vertices, "--needle": args.needle}, f"with {mode}")
    if not args.audit:
        _refuse({"--right": args.right, "--canonical": args.canonical,
                 "--seed": args.seed}, "without --audit")
    if args.babuska_aziz:
        _refuse({"--degree": args.degree}, "with --babuska-aziz")
        root = constants.babuska_aziz_root()
        residual = 1.0 / root + math.tan(1.0 / root)
        results = {"root": root, "residual": residual, "A2": 1.0 / root}
        doc = report.json_text("constants", {"babuska_aziz": True}, results)
        _emit(args, "constants", None, None, doc)
        return EXIT_OK
    degree = 12 if args.degree is None else args.degree
    if args.audit:
        seed = 0 if args.seed is None else args.seed
        n_right = 20 if args.right is None else args.right
        n_canonical = 50 if args.canonical is None else args.canonical
        for flag, value in (("--seed", seed), ("--right", n_right),
                            ("--canonical", n_canonical)):
            if value < 0:
                raise UsageError(f"{flag} {value} must be >= 0")
        rng = np.random.default_rng(seed)
        records = []
        ok = True
        for label, tri in _audit_triangles(n_right, n_canonical, rng):
            rec = constants.lemma_inequality_audit(tri, degree=degree)
            ok = ok and rec.all_pass
            d = rec.to_dict()
            d["label"] = label
            records.append(d)
        config = {
            "audit": True, "seed": seed, "degree": degree,
            "right": n_right, "canonical": n_canonical,
        }
        columns = ("label", "lemma", "computed", "bound", "pass")
        rows = [
            (d["label"], e["lemma"], e["computed"], e["bound"], e["pass"])
            for d in records
            for e in d["entries"]
        ]
        doc = report.json_text("constants", config, {"records": records})
        _emit(args, "constants_audit", columns, rows, doc)
        return EXIT_OK if ok else EXIT_AUDIT_FAILED
    tri = _triangle_from_args(args)
    solver = {
        "A1": lambda: constants.rayleigh_A(tri, 1, degree),
        "A2": lambda: constants.rayleigh_A(tri, 2, degree),
        "B": lambda: constants.rayleigh_B(tri, degree),
        "D": lambda: constants.rayleigh_D(tri, degree),
    }
    kind = "A1" if args.kind is None else args.kind
    if kind not in solver:
        raise UsageError(f"--kind {kind!r} not one of A1, A2, B, D")
    est = solver[kind]()
    results = {
        "kind": est.kind,
        "degree": est.subspace_degree,
        "value": est.value,
        "uncertainty": est.uncertainty,
        "history": [{"degree": d, "value": v} for d, v in est.history],
    }
    config = {
        "kind": kind, "degree": degree,
        "vertices": args.vertices, "needle": args.needle,
    }
    doc = report.json_text("constants", config, results)
    _emit(args, "constants", None, None, doc)
    return EXIT_OK


def _cmd_mesh(args) -> int:
    _no_csv_table(args)
    if args.check:
        _refuse({"--family": args.family, "--n": args.n, "--alpha": args.alpha},
                "with --check")
        try:
            with open(args.check, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read mesh file {args.check!r}: {exc}") from None
        m = mesh.read_mesh(text)
        st = mesh.stats(m)
        results = {"stats": dataclasses.asdict(st), "warnings": m.warnings}
        doc = report.json_text("mesh", {"check": args.check}, results)
        _emit(args, "mesh", None, None, doc)
        return EXIT_OK
    family = "uniform" if args.family is None else args.family
    n = 8 if args.n is None else args.n
    alpha = 1.5 if args.alpha is None else args.alpha
    if family == "uniform":
        m = mesh.gen_uniform(n)
    elif family == "crisscross":
        m = mesh.gen_crisscross_aniso(n, alpha)
    elif family == "lens":
        m = mesh.gen_lens(n)
    else:
        raise UsageError(f"--family {family!r} not one of uniform, crisscross, lens")
    st = mesh.stats(m)
    config = {"family": family, "n": n, "alpha": alpha}
    doc = report.json_text("mesh", config, {"stats": dataclasses.asdict(st)})
    if args.out:
        report.write_text(f"{args.out}/mesh_{family}_{n}.txt",
                          mesh.write_mesh(m))
    _emit(args, "mesh", None, None, doc)
    return EXIT_OK


def _cmd_fem(args) -> int:
    _check_levels(args.levels)
    if args.svg and not args.out:
        raise UsageError("--svg writes fem.svg under --out; give --out")
    field = get_field(args.field)
    ns = [args.n0 * 2 ** k for k in range(args.levels)]
    if args.family == "uniform":
        factory = mesh.gen_uniform
    elif args.family == "crisscross":
        factory = lambda n: mesh.gen_crisscross_aniso(n, args.alpha)
    else:
        raise UsageError(f"--family {args.family!r} not one of uniform, crisscross")
    rep = fem.cea_study(factory, ns, field)
    config = {
        "family": args.family, "alpha": args.alpha, "field": args.field,
        "levels": args.levels, "n0": args.n0,
    }
    doc = report.json_text("fem", config,
                           {"rows": [dataclasses.asdict(r) for r in rep.rows]})
    svg = None
    if args.svg:
        # built before anything is written, so a plot that cannot be drawn
        # leaves no partial report
        series = {
            "interp_h1": [(r.max_R_K, r.interp_h1) for r in rep.rows],
            "h1_seminorm_error": [(r.max_R_K, r.h1_seminorm_error) for r in rep.rows],
            "h1_norm_error": [(r.max_R_K, r.h1_norm_error) for r in rep.rows],
        }
        try:
            svg = report.svg_loglog(series, xlabel="max R_K", ylabel="error",
                                    title=f"{args.family} / {args.field}")
        except ValueError:  # every error is 0, e.g. for a zero exact solution
            raise UsageError(f"--svg has no positive error of {args.field} to "
                             "plot on log axes; drop --svg") from None
    _emit(args, "fem", fem.CEA_CSV_COLUMNS, [dataclasses.astuple(r) for r in rep.rows], doc)
    if svg is not None:
        report.write_text(f"{args.out}/fem.svg", svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circumlab",
        description="Triangle quality, interpolation-error constants, and "
                    "FEM convergence under the circumradius condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    def triangle_args(p):
        where = p.add_mutually_exclusive_group()
        where.add_argument("vertices", nargs="*", default=[],
                           help="three vertices: x1,y1 x2,y2 x3,y3")
        where.add_argument("--needle", nargs=2, type=float, metavar=("H", "ALPHA"),
                           default=None, help="isosceles base H, height H**ALPHA")

    p = sub.add_parser("triangle", help="metrics, condition flags, canonical form")
    common(p)
    triangle_args(p)
    p.add_argument("--theta0", type=float, default=math.pi / 6)
    p.add_argument("--theta1", type=float, default=2 * math.pi / 3)
    p.add_argument("--sigma", type=float, default=math.inf)
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("interp", help="interpolation-error reports and studies")
    common(p)
    triangle_args(p)
    p.add_argument("--field", default="sinsin")
    p.add_argument("--p", default="2")
    p.add_argument("--needle-study", type=float, default=None, metavar="ALPHA",
                   help="rows over the needle family; no vertices, --needle "
                        "or --quad-degree")
    p.add_argument("--levels", type=int, default=None,
                   help="--needle-study: rows h = 2^-2 .. 2^-(levels+1) (9)")
    p.add_argument("--quad-degree", type=int, default=None,
                   help="fixed quadrature degree (single triangle only)")
    p.set_defaults(handler=_cmd_interp)

    p = sub.add_parser("constants", help="quotient constants and bound audits")
    common(p)
    triangle_args(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--babuska-aziz", action="store_true")
    mode.add_argument("--kind", default=None,
                      help="A1 (the default), A2, B, or D")
    mode.add_argument("--audit", action="store_true",
                      help="run the lower-bound audits over seeded triangles")
    p.add_argument("--degree", type=int, default=None,
                   help="subspace degree (12); not with --babuska-aziz")
    p.add_argument("--right", type=int, default=None,
                   help="audit: number of seeded right triangles (20)")
    p.add_argument("--canonical", type=int, default=None,
                   help="audit: number of seeded canonical triangles (50)")
    p.add_argument("--seed", type=int, default=None, help="audit: seed of the sweep (0)")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("mesh", help="generators, statistics, file checking")
    common(p)
    p.add_argument("--family", default=None,
                   help="uniform (the default), crisscross or lens")
    p.add_argument("--n", type=int, default=None, help="subdivisions (8)")
    p.add_argument("--alpha", type=float, default=None,
                   help="crisscross anisotropy exponent (1.5)")
    p.add_argument("--check", default=None, metavar="FILE",
                   help="validate a mesh file instead of generating; "
                        "no --family, --n or --alpha")
    p.set_defaults(handler=_cmd_mesh)

    p = sub.add_parser("fem", help="Poisson convergence studies")
    common(p)
    p.add_argument("--family", default="crisscross")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--field", default="sinsin")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--n0", type=int, default=8, help="coarsest n")
    p.add_argument("--svg", action="store_true",
                   help="also write an SVG plot (needs --out)")
    p.set_defaults(handler=_cmd_fem)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownField as exc:
        print(f"unknown field: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidFamily as exc:
        print(f"invalid family: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateTriangle as exc:
        print(f"degenerate triangle: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NoConvergence, IllConditioned) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CircumlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
