import json

import pytest
import scipy.sparse

import circumlab.cli as cli
import circumlab.interp as interp_mod
from circumlab.mesh import gen_uniform, write_mesh


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTriangleCommand:
    def test_needle_report(self, capsys):
        code, out = run(capsys, "triangle", "--needle", "0.5", "1.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "circumlab/1"
        assert doc["results"]["metrics"]["R_K"] == pytest.approx(0.265165, abs=5e-7)

    def test_vertices_report(self, capsys):
        code, out = run(capsys, "triangle", "0,0", "1,0", "0,1")
        doc = json.loads(out)
        m = doc["results"]["metrics"]
        assert m["C_K"] == pytest.approx(0.491596, abs=5e-7)
        assert m["C_K"] < m["R_K"]
        assert code == 0

    def test_collinear_exit_3(self, capsys):
        code, _ = run(capsys, "triangle", "0,0", "1,0", "2,0")
        assert code == 3

    @pytest.mark.parametrize("p2,p3", [("1e-160,0", "0,1e-160"), ("1e160,0", "0,1e160")],
                             ids=["subnormal-area", "overflowing-area"])
    def test_area_outside_float_range_exit_3(self, capsys, p2, p3):
        code, _ = run(capsys, "triangle", "0,0", p2, p3)
        assert code == 3

    def test_bad_vertex_exit_2(self, capsys):
        code, _ = run(capsys, "triangle", "0,0", "1,0")
        assert code == 2
        code, _ = run(capsys, "triangle", "0,0", "1,0", "zero,one")
        assert code == 2


@pytest.mark.parametrize("command", ["triangle", "interp", "constants"])
def test_negative_needle_base_exit_2(command, capsys):
    code = cli.main([command, "--needle", "-0.1", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid family" in err and "negative" in err


@pytest.mark.parametrize("command", ["triangle", "interp", "constants"])
def test_zero_needle_base_exit_3(command, capsys):
    assert cli.main([command, "--needle", "0", "1.5"]) == 3


class TestInterpCommand:
    def test_needle_study_writes_reports(self, capsys, tmp_path):
        code, out = run(
            capsys, "interp", "--needle-study", "1.5", "--field", "sinsin",
            "--p", "2", "--levels", "4", "--out", str(tmp_path),
        )
        assert code == 0
        csv = (tmp_path / "interp.csv").read_text().splitlines()
        assert csv[0].split(",") == list(interp_mod.NEEDLE_CSV_COLUMNS)
        assert len(csv) == 5
        doc = json.loads((tmp_path / "interp.json").read_text())
        ratios = [row["ratio_1"] for row in doc["results"]["rows"]]
        assert ratios == sorted(ratios, reverse=True)

    def test_needle_study_zero_levels_exit_2(self, capsys):
        code, out = run(capsys, "interp", "--needle-study", "1.5", "--levels", "0")
        assert code == 2
        assert out == ""

    def test_quad_degree_applies_at_p_inf(self, capsys):
        argv = ("interp", "0,0", "1,0", "0.3,0.9", "--p", "inf", "--format", "json")
        _, grid = run(capsys, *argv)
        code, fixed = run(capsys, *argv, "--quad-degree", "10")
        assert code == 0
        grid, fixed = json.loads(grid), json.loads(fixed)
        assert fixed["config"]["quad_degree"] == 10
        assert fixed["results"]["semi_2p"] != grid["results"]["semi_2p"]

    @pytest.mark.parametrize("p", ["abc", "2,5", ""])
    def test_non_numeric_p_exit_2(self, capsys, p):
        code = cli.main(["interp", "0,0", "1,0", "0,1", "--p", p])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("usage error: --p")

    def test_unknown_field_exit_2(self, capsys):
        code, _ = run(capsys, "interp", "--field", "nope", "0,0", "1,0", "0,1")
        assert code == 2

    @pytest.mark.parametrize("field", ["poly:nan", "poly:1,2,inf", "affine(nan,0,0)"])
    def test_non_finite_coefficient_exit_2(self, capsys, field):
        code = cli.main(["interp", "0,0", "1,0", "0,1", "--field", field])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_bound_failure_exit_1(self, capsys, monkeypatch):
        real = interp_mod.error_report

        def fail_report(*args, **kwargs):
            rep = real(*args, **kwargs)
            object.__setattr__(rep, "bound_satisfied", False)
            return rep

        monkeypatch.setattr(cli.interp, "error_report", fail_report)
        code, _ = run(capsys, "interp", "--field", "x2", "0,0", "1,0", "0,1")
        assert code == 1


class TestConstantsCommand:
    def test_ill_conditioned_exit_4(self, capsys):
        # sliver canonical triangle: the gradient Gram on the constrained
        # subspace exceeds the condition limit
        code, _ = run(
            capsys, "constants", "--kind", "B", "--degree", "8", "--",
            "-1,0", "1,0", "0,0.000001",
        )
        assert code == 4

    def test_babuska_aziz(self, capsys):
        code, out = run(capsys, "constants", "--babuska-aziz")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["root"] == pytest.approx(0.49291, abs=5e-6)
        assert abs(doc["results"]["residual"]) <= 1e-9

    def test_estimate_with_history(self, capsys):
        code, out = run(
            capsys, "constants", "--kind", "D", "--degree", "6", "0,0", "1,0", "0,1"
        )
        assert code == 0
        doc = json.loads(out)
        hist = [h["value"] for h in doc["results"]["history"]]
        assert hist == sorted(hist, reverse=True)

    def test_audit_small_sweep(self, capsys, tmp_path):
        code, _ = run(
            capsys, "constants", "--audit", "--right", "2", "--canonical", "2",
            "--degree", "5", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "constants_audit.csv").read_text().splitlines()
        assert lines[0] == "label,lemma,computed,bound,pass"
        assert all(line.endswith(",1") for line in lines[1:])


class TestMeshCommand:
    def test_generate_and_check(self, capsys, tmp_path):
        code, _ = run(
            capsys, "mesh", "--family", "crisscross", "--n", "3", "--alpha", "1.5",
            "--out", str(tmp_path),
        )
        assert code == 0
        mesh_file = tmp_path / "mesh_crisscross_3.txt"
        assert mesh_file.exists()
        code, out = run(capsys, "mesh", "--check", str(mesh_file))
        assert code == 0
        assert json.loads(out)["results"]["stats"]["n_triangles"] == 3 * 6 * 4

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        code, _ = run(capsys, "mesh", "--check", str(tmp_path / "missing.txt"))
        assert code == 2
        code, _ = run(capsys, "mesh", "--check", str(tmp_path))  # a directory
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("vertices 0\ntriangles 0\n", "mesh has no triangles"),
        ("vertices 3\n0 0 1\n1 0 1\nnan 1 1\ntriangles 1\n0 1 2\n",
         "line 4: non-finite coordinate"),
    ], ids=["empty", "nan"])
    def test_unusable_file_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code = cli.main(["mesh", "--check", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_bad_family_exit_2(self, capsys):
        code, _ = run(capsys, "mesh", "--family", "hexes")
        assert code == 2


class TestFemCommand:
    def test_study_outputs_and_determinism(self, capsys, tmp_path):
        argv = [
            "fem", "--family", "crisscross", "--alpha", "1.5", "--field", "sinsin",
            "--levels", "2", "--n0", "4", "--svg",
        ]
        code, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _ = run(capsys, *argv, "--out", str(tmp_path / "b"))
        assert code == 0
        for name in ("fem.csv", "fem.json", "fem.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        svg = (tmp_path / "a" / "fem.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_zero_levels_exit_2_before_any_work(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, text = run(capsys, "fem", "--levels", "0", "--svg", "--out", str(out))
        assert code == 2
        assert text == "" and not out.exists()

    def test_field_not_vanishing_on_boundary_exit_2(self, capsys):
        code, _ = run(capsys, "fem", "--field", "expxy", "--levels", "1", "--n0", "4")
        assert code == 2

    def test_zero_exact_solution_gives_zero_quotient(self, capsys):
        code, out = run(capsys, "fem", "--family", "uniform", "--levels", "2",
                        "--n0", "1", "--field", "poly:0")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 2
        for r in rows:
            assert r["semi_22_exact"] == r["h1_norm_error"] == r["quotient"] == 0.0

    def test_zero_exact_solution_svg_exit_2_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["fem", "--family", "uniform", "--levels", "2", "--n0", "1",
                         "--field", "poly:0", "--svg", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("usage error: --svg")

    def test_singular_system_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.fem, "stiffness_matrix",
                            lambda mesh: scipy.sparse.csr_matrix((mesh.n_vertices,) * 2))
        code = cli.main(["fem", "--levels", "1", "--n0", "4"])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "singular" in err


@pytest.mark.parametrize("argv", [
    ["triangle", "--seed", "3", "0,0", "1,0", "0,1"],
    ["mesh", "--svg"],
    ["fem", "--quad-degree", "4"],
])
def test_flag_of_another_subcommand_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["triangle", "0,0", "1,0", "0,1"],
    ["interp", "0,0", "1,0", "0,1"],
    ["constants", "--kind", "D", "--degree", "6", "0,0", "1,0", "0,1"],
    ["constants", "--babuska-aziz"],
    ["mesh", "--family", "uniform", "--n", "2"],
    ["mesh", "--check", "{mesh_file}"],
], ids=["triangle", "interp", "constants-kind", "constants-babuska-aziz",
        "mesh-generate", "mesh-check"])
def test_csv_of_report_without_table_exit_2(argv, tmp_path, capsys):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text(write_mesh(gen_uniform(2)))
    out = tmp_path / "out"
    argv = [a.format(mesh_file=mesh_file) for a in argv]
    code = cli.main(argv + ["--format", "csv", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("usage error:") and "no CSV table" in captured.err


def test_mesh_file_from_library_round_trips_through_cli(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(write_mesh(gen_uniform(2)))
    code, out = run(capsys, "mesh", "--check", str(path))
    assert code == 0
    assert json.loads(out)["results"]["stats"]["n_vertices"] == 9


@pytest.mark.parametrize("command", ["triangle", "interp", "constants"])
def test_vertices_with_needle_exit_2(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "0,0", "1,0", "0,1", "--needle", "0.5", "1.5"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("modes", [
    ["--audit", "--kind", "A1"],
    ["--audit", "--babuska-aziz"],
    ["--babuska-aziz", "--kind", "D"],
], ids=["audit-kind", "audit-babuska-aziz", "babuska-aziz-kind"])
def test_two_constants_modes_exit_2(modes, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", *modes])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--quad-degree", "10"],
    ["0,0", "1,0", "0,1"],
    ["--needle", "0.5", "1.5"],
], ids=["quad-degree", "vertices", "needle"])
def test_needle_study_with_single_triangle_flag_exit_2(extra, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["interp", "--needle-study", "1.5", "--levels", "2",
                     "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("usage error: --needle-study")


@pytest.mark.parametrize("argv,named", [
    (["constants", "--audit", "0,0", "1,0", "0,1"], "vertices"),
    (["constants", "--audit", "--needle", "0.5", "1.5"], "--needle"),
    (["constants", "--babuska-aziz", "0,0", "1,0", "0,1"], "vertices"),
    (["constants", "--babuska-aziz", "--needle", "0.5", "1.5"], "--needle"),
    (["constants", "--right", "2", "0,0", "1,0", "0,1"], "--right"),
    (["constants", "--kind", "D", "--canonical", "2", "0,0", "1,0", "0,1"], "--canonical"),
    (["constants", "--babuska-aziz", "--seed", "3"], "--seed"),
    (["constants", "--babuska-aziz", "--degree", "4"], "--degree"),
    (["interp", "0,0", "1,0", "0,1", "--levels", "3"], "--levels"),
    (["mesh", "--check", "{mesh_file}", "--family", "lens"], "--family"),
    (["mesh", "--check", "{mesh_file}", "--n", "4"], "--n"),
    (["mesh", "--check", "{mesh_file}", "--alpha", "1.2"], "--alpha"),
], ids=["audit-vertices", "audit-needle", "babuska-aziz-vertices",
        "babuska-aziz-needle", "right-without-audit", "canonical-without-audit",
        "seed-without-audit", "babuska-aziz-degree", "levels-without-needle-study",
        "check-family", "check-n", "check-alpha"])
def test_flag_made_useless_by_another_exit_2(argv, named, tmp_path, capsys):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text(write_mesh(gen_uniform(2)))
    out = tmp_path / "out"
    argv = [a.format(mesh_file=mesh_file) for a in argv]
    code = cli.main(argv + ["--format", "json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("usage error:") and named in captured.err


def test_fem_svg_without_out_exit_2(capsys):
    code = cli.main(["fem", "--levels", "1", "--n0", "2", "--svg"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: --svg") and "--out" in captured.err


@pytest.mark.parametrize("argv,config", [
    (["mesh", "--format", "json"], {"family": "uniform", "n": 8, "alpha": 1.5}),
    (["constants", "--audit", "--right", "0", "--canonical", "0", "--degree", "4"],
     {"audit": True, "seed": 0, "degree": 4, "right": 0, "canonical": 0}),
    (["interp", "--needle-study", "1.5", "--format", "json"],
     {"field": "sinsin", "p": "2", "alpha": 1.5, "levels": 9}),
], ids=["mesh", "constants-audit", "interp-needle-study"])
def test_unset_flags_echo_the_value_used(argv, config, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config
