"""The circumlab/1 key lists of the reports whose schema is a result
dataclass.  The reports serialize the dataclass's fields in order, so a
renamed or reordered field would change the fixed schema; these literal
lists make that a test failure."""
import json

import pytest

import circumlab.cli as cli
from circumlab.fem import CEA_CSV_COLUMNS
from circumlab.mesh import gen_uniform, write_mesh

TRIANGLE_METRICS = ["A", "B", "C", "S", "h_K", "rho_K", "R_K", "theta_min",
                    "theta_max", "C_K"]
CANONICAL_FORM = ["s", "t", "eta", "a", "b", "X", "Y", "ratio",
                  "canonical_circumradius"]
MESH_STATS = ["n_vertices", "n_triangles", "h_max", "max_R_K", "min_angle",
              "max_angle", "min_rho_over_h"]
FEM_ROW = ["level", "n", "n_triangles", "max_R_K", "h_max", "max_angle",
           "interp_h1", "h1_seminorm_error", "h1_norm_error", "semi_22_exact",
           "quotient", "cg_iterations", "cg_residual"]


def results(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_triangle_report_keys(capsys):
    res = results(capsys, "triangle", "0,0", "1,0", "0.3,0.9")
    assert list(res) == ["vertices", "metrics", "condition_flags", "canonical"]
    assert list(res["metrics"]) == TRIANGLE_METRICS
    assert list(res["canonical"]) == CANONICAL_FORM


@pytest.mark.parametrize("argv", [
    ["mesh", "--family", "crisscross", "--n", "2"],
    ["mesh", "--check", "{mesh_file}"],
], ids=["generate", "check"])
def test_mesh_stats_keys(argv, capsys, tmp_path):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text(write_mesh(gen_uniform(2)))
    res = results(capsys, *(a.format(mesh_file=mesh_file) for a in argv))
    assert list(res["stats"]) == MESH_STATS


def test_fem_row_keys_and_csv_header(capsys, tmp_path):
    res = results(capsys, "fem", "--levels", "1", "--n0", "2", "--out", str(tmp_path))
    assert [list(row) for row in res["rows"]] == [FEM_ROW]
    assert list(CEA_CSV_COLUMNS) == FEM_ROW
    csv = (tmp_path / "fem.csv").read_text().splitlines()
    assert csv[0] == ",".join(FEM_ROW)
    assert len(csv[1].split(",")) == len(FEM_ROW)
