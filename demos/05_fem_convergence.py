"""Poisson convergence on meshes violating the maximum angle condition.

Manufactured solution u = sin(pi x) sin(pi y) on the unit square, right
hand side f = 2 pi^2 u, homogeneous Dirichlet data.  On the anisotropic
crisscross family the maximum angle tends to pi, yet the H1 error keeps
shrinking because max_K R_K does: each row exhibits the whole chain

    |u - u_h|_1  <=  |u - I_h u|_1  <=  (max R_K) |u|_2.

Writes fem.csv / fem.json / fem.svg next to this script's output dir.
"""
import dataclasses
from pathlib import Path

from circumlab import cea_study, gen_crisscross_aniso, gen_uniform, get_field
from circumlab.fem import CEA_CSV_COLUMNS
from circumlab.report import csv_text, json_text, svg_loglog, write_text

out = Path(__file__).resolve().parent / "output"
u = get_field("sinsin")

print("baseline: uniform right-triangle mesh (first-order rate check)")
rep = cea_study(gen_uniform, [8, 16, 32], u)
for a, b in zip(rep.rows, rep.rows[1:]):
    print(f"  n={a.n:3d}->{b.n:3d}  H1 seminorm error ratio "
          f"{a.h1_seminorm_error / b.h1_seminorm_error:.3f} (expect ~2)")

print("\nanisotropic crisscross alpha = 1.5: maximum angle condition violated")
rep = cea_study(lambda n: gen_crisscross_aniso(n, 1.5), [8, 16, 32, 64], u)
print(f"{'n':>4s} {'max angle':>10s} {'max R_K':>9s} {'|u-Ihu|_1':>10s} "
      f"{'|u-uh|_1':>10s} {'‖u-uh‖_1':>10s} {'chain ok':>8s}")
for r in rep.rows:
    chain = (r.h1_seminorm_error <= r.interp_h1 * (1 + 1e-8)
             and r.interp_h1 <= r.max_R_K * r.semi_22_exact * (1 + 1e-8))
    print(f"{r.n:4d} {r.max_angle:10.4f} {r.max_R_K:9.5f} {r.interp_h1:10.5f} "
          f"{r.h1_seminorm_error:10.5f} {r.h1_norm_error:10.5f} "
          f"{'yes' if chain else 'NO'}")

write_text(out / "fem.csv",
           csv_text(CEA_CSV_COLUMNS, [dataclasses.astuple(r) for r in rep.rows]))
write_text(out / "fem.json", json_text(
    "fem", {"family": "crisscross", "alpha": 1.5, "field": "sinsin"},
    {"rows": [dataclasses.asdict(r) for r in rep.rows]},
))
series = {
    "interp_h1": [(r.max_R_K, r.interp_h1) for r in rep.rows],
    "h1_seminorm_error": [(r.max_R_K, r.h1_seminorm_error) for r in rep.rows],
    "h1_norm_error": [(r.max_R_K, r.h1_norm_error) for r in rep.rows],
}
write_text(out / "fem.svg", svg_loglog(series, xlabel="max R_K", ylabel="error",
                                       title="crisscross alpha=1.5 / sinsin"))
print(f"\nreports written under {out}")
