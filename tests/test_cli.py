import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from capsym import cli, functionals as fn, geometry as geo, identity_lab, oracles


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def sphere_off(tmp_path):
    path = tmp_path / "sphere.off"
    geo.save_off(geo.make_sphere_mesh(1.0, 2), path)
    return str(path)


@pytest.fixture()
def broken_off(tmp_path):
    # parses fine but fails validation: one face removed, surface not closed
    m = geo.make_sphere_mesh(1.0, 1)
    path = tmp_path / "broken.off"
    geo.save_off(geo.TriMesh(m.vertices.copy(), m.triangles[1:].copy()), path)
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["capacity", "--shape", "sphere", "1", "1",
                    "--output", str(out)]) == cli.EXIT_OK

    def test_broken_mesh_is_3(self, broken_off, tmp_path):
        code = run(["capacity", "--mesh", broken_off,
                    "--output", str(tmp_path / "r.json")])
        assert code == cli.EXIT_MESH == 3

    def test_missing_file_is_4(self, tmp_path):
        code = run(["capacity", "--mesh", str(tmp_path / "nope.off")])
        assert code == cli.EXIT_FILE == 4

    def test_unparseable_file_is_4(self, tmp_path):
        bad = tmp_path / "bad.off"
        bad.write_text("OFX\n1 0 0\n0 0 0\n")
        assert run(["capacity", "--mesh", str(bad)]) == cli.EXIT_FILE

    @pytest.mark.parametrize("counts", ["-1 0 0", "3 -1 0"])
    def test_negative_count_is_4(self, tmp_path, capsys, counts):
        neg = tmp_path / "neg.off"
        neg.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n")
        assert run(["verify", "--mesh", str(neg)]) == cli.EXIT_FILE
        err = capsys.readouterr().err
        assert "must not be negative" in err and "Traceback" not in err

    def test_shape_and_mesh_together_is_4(self, sphere_off):
        code = run(["capacity", "--mesh", sphere_off, "--shape", "sphere", "1", "1"])
        assert code == cli.EXIT_FILE

    def test_neither_shape_nor_mesh_is_4(self):
        assert run(["capacity"]) == cli.EXIT_FILE

    def test_unknown_shape_is_5(self):
        assert run(["capacity", "--shape", "torus", "1", "1"]) == cli.EXIT_SHAPE == 5

    def test_non_numeric_shape_param_is_5(self):
        assert run(["capacity", "--shape", "sphere", "one", "1"]) == cli.EXIT_SHAPE

    def test_oracle_unsupported_shape_is_5(self):
        assert run(["oracle", "--shape", "bumpy", "1"]) == cli.EXIT_SHAPE

    def test_oracle_ellipsoid_wrong_dim_is_5(self):
        assert run(["oracle", "--shape", "ellipsoid", "2", "1", "1",
                    "--dim", "4"]) == cli.EXIT_SHAPE

    def test_solver_refusal_is_2(self, monkeypatch):
        from capsym import bem

        def boom(*a, **k):
            raise bem.SolverError("forced")

        monkeypatch.setattr(cli.bem, "solve_equilibrium", boom)
        assert run(["capacity", "--shape", "sphere", "1", "1"]) == cli.EXIT_SOLVER == 2


class TestCapacity:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "cap.json"
        assert run(["capacity", "--shape", "sphere", "1", "2",
                    "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        four_pi = 4 * math.pi
        for key in ("cap_charge", "cap_asymptotic", "cap_flux"):
            assert abs(data[key] - four_pi) / four_pi < 0.02
        assert data["panels"] == 320
        assert data["sigma_positive"] is True
        assert data["config"]["shape"] == ["sphere", 1.0, 2]
        assert data["config"]["quad_order"] == 6

    def test_csv_format(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert run(["capacity", "--shape", "sphere", "1", "1", "--format", "csv",
                    "--output", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header.startswith("cap_charge,cap_asymptotic,cap_flux,panels")
        assert row.split(",")[3] == "80"

    def test_mesh_file_input(self, sphere_off, tmp_path):
        out = tmp_path / "cap.json"
        assert run(["capacity", "--mesh", sphere_off, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["cap_charge"] - 4 * math.pi) / (4 * math.pi) < 0.02
        assert data["config"]["level"] is None


class TestVerify:
    def test_config_echoes_discrete_curvature(self, tmp_path):
        configs = []
        for flag in ([], ["--discrete-curvature"]):
            out = tmp_path / "v.json"
            assert run(["verify", "--shape", "sphere", "1", "2", "--samples", "4", *flag,
                        "--output", str(out)]) == 0
            configs.append(json.loads(out.read_text())["config"])
        assert configs[0] != configs[1]
        assert [c["discrete_curvature"] for c in configs] == [False, True]

    def test_sphere_verdict_true(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--shape", "sphere", "1", "2",
                    "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] is True
        assert data["reasons"] == []

    def test_spheroid_verdict_false_exit_still_zero(self, tmp_path):
        out = tmp_path / "v.json"
        # the verdict is data, not an exit code
        assert run(["verify", "--shape", "ellipsoid", "2", "1", "1", "2",
                    "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] is False
        assert len(data["reasons"]) > 0

    @pytest.mark.parametrize("level", ["0", "1"])
    @pytest.mark.parametrize("shape, ball", [(["sphere", "1"], True),
                                             (["ellipsoid", "2", "1", "1"], False)])
    def test_coarse_level_verdict(self, tmp_path, shape, ball, level):
        out = tmp_path / "v.json"
        assert run(["verify", "--shape", *shape, level, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] is ball
        assert data["thresholds"]["tol_newton"] == 3.0 * fn.SPHERE_NOISE_FLOOR[int(level)]["newton"]

    def test_tight_newton_tolerance_flips_verdict(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--shape", "sphere", "1", "2",
                    "--tol-newton", "1e-9", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["verdict"] is False
        assert any("Newton" in r for r in data["reasons"])
        assert data["thresholds"]["tol_newton"] == 1e-9

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--shape", "sphere", "1", "2", "--seed", "5"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestIdentityCheck:
    def test_passes_and_prints_lines(self, tmp_path):
        out = tmp_path / "id.txt"
        assert run(["identity-check", "--dims", "3", "--points", "4",
                    "--output", str(out)]) == 0
        text = out.read_text()
        assert "identity_A" in text
        assert "div_free_s2" in text
        assert "level_set" in text
        assert "gamma roots" in text
        assert "boundary limits" in text
        assert "FAIL" not in text

    def test_dims_filter(self, tmp_path):
        out = tmp_path / "id.txt"
        assert run(["identity-check", "--dims", "3", "--points", "3",
                    "--output", str(out)]) == 0
        body = out.read_text().split("gamma roots")[0]
        assert "n=3" in body
        assert "n=4" not in body

    def test_inject_fault_nonzero_exit(self, tmp_path):
        out = tmp_path / "id.txt"
        code = run(["identity-check", "--dims", "3", "--points", "3",
                    "--inject-fault", "--output", str(out)])
        assert code != 0
        assert "FAIL" in out.read_text()

    @pytest.mark.parametrize("inject_fault", [False, True])
    @pytest.mark.parametrize("seed", [0, 6, 913070797])
    def test_output_matches_frozen_reference(self, tmp_path, seed, inject_fault):
        out = tmp_path / "id.txt"
        argv = ["identity-check", "--dims", "3", "4", "5", "6", "--points", "4",
                "--seed", str(seed), "--output", str(out)]
        code = run(argv + ["--inject-fault"] * inject_fault)
        text, ref_code = _identity_check_reference([3, 4, 5, 6], 4, seed, inject_fault)
        assert out.read_text() == text
        assert code == ref_code


class TestConvergence:
    def test_csv_contract_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["convergence", "--shape", "sphere", "1", "--min-level", "1",
                "--max-level", "2", "--quad-order", "3", "--samples", "8"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        la, lb = a.read_text().strip().split("\n"), b.read_text().strip().split("\n")
        assert la[0] == "level,panels,capacity,cap_error,f1,f2_gap,newton_deficit,wall_time_s"
        assert len(la) == 3
        for ra, rb in zip(la[1:], lb[1:]):
            # byte-identical except the wall-clock column
            assert ra.split(",")[:-1] == rb.split(",")[:-1]
        oracle = oracles.ball_capacity(3, 1.0)
        for row in la[1:]:
            cells = row.split(",")
            assert all(cells)
            assert cells[3] == format(abs(float(cells[2]) - oracle) / oracle, ".17g")

    def test_shape_without_oracle_leaves_cap_error_empty(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["convergence", "--shape", "bumpy", "1", "--min-level", "1",
                    "--max-level", "2", "--output", str(out)]) == 0
        text = out.read_text()
        assert "nan" not in text
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        assert len(rows) == 2
        for r in rows:
            assert r[3] == "" and all(r[:3] + r[4:])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_csv_cell_rejects_non_finite(self, value):
        with pytest.raises(cli.functionals.NonFiniteError):
            cli._csv_cell(value)

    def test_non_finite_csv_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.bem, "capacity_three_ways",
                            lambda sol, far: (sol.capacity, float("nan"), sol.capacity))
        out = tmp_path / "cap.csv"
        assert run(["capacity", "--shape", "sphere", "1", "1", "--format", "csv",
                    "--output", str(out)]) == cli.EXIT_SOLVER
        assert capsys.readouterr().err.startswith("error: non-finite value nan")
        assert not out.exists()

    def test_error_decreases_with_level(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["convergence", "--shape", "sphere", "1", "--min-level", "1",
                    "--max-level", "2", "--quad-order", "3", "--samples", "8",
                    "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        errs = [float(r[3]) for r in rows]
        assert errs[1] < errs[0]
        assert [int(r[1]) for r in rows] == [80, 320]


class TestOracle:
    def test_sphere_values(self, capsys):
        assert run(["oracle", "--shape", "sphere", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["capacity"] == pytest.approx(8 * math.pi, rel=1e-14)
        assert data["boundary_du"] == pytest.approx(0.5)
        assert data["boundary_H"] == pytest.approx(0.5)
        assert data["f1"] == pytest.approx(0.0, abs=1e-12)
        assert data["f2_lhs"] == pytest.approx(data["f2_rhs"], rel=1e-12)
        assert data["lb_product"] == pytest.approx(8 * math.pi**2, rel=1e-12)

    def test_sphere_higher_dim(self, capsys):
        assert run(["oracle", "--shape", "sphere", "1", "--dim", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["capacity"] == pytest.approx(3 * oracles.unit_sphere_area(5), rel=1e-14)
        assert "lb_product" not in data

    def test_ellipsoid_capacity(self, capsys):
        assert run(["oracle", "--shape", "ellipsoid", "2", "1", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["capacity"] == pytest.approx(
            oracles.ellipsoid_capacity(2.0, 1.0, 1.0), rel=1e-12)

    def test_ellipsoid_capacity_far_from_unit_size(self, capsys):
        assert run(["oracle", "--shape", "ellipsoid", "2", "1", "1"]) == 0
        unit = json.loads(capsys.readouterr().out)["capacity"]
        assert run(["oracle", "--shape", "ellipsoid", "2000", "1000", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["capacity"] == \
            pytest.approx(1000 * unit, rel=1e-15)
        assert run(["oracle", "--shape", "ellipsoid", "1e-20", "1e-20", "1e-20"]) == 0
        assert json.loads(capsys.readouterr().out)["capacity"] == \
            pytest.approx(4 * math.pi * 1e-20, rel=1e-15, abs=0)
        # the prolate closed form at axis ratio 1e300, by mpmath
        assert run(["oracle", "--shape", "ellipsoid", "1e300", "1", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["capacity"] == \
            pytest.approx(1.8173448873772313755e298, rel=1e-15, abs=0)

    def test_17g_round_trip(self, capsys):
        assert run(["oracle", "--shape", "sphere", "1.3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["capacity"] == oracles.ball_capacity(3, 1.3)


class TestReviewedDefects:
    @pytest.mark.parametrize("dims,seed", [("6", "6"), ("5", "913070797")])
    def test_identity_check_exact_rows_pass(self, tmp_path, dims, seed):
        # r^4's div_free_s2 residual is roundoff only; it must not be
        # judged as a convergence order
        out = tmp_path / "id.txt"
        assert run(["identity-check", "--dims", dims, "--seed", seed,
                    "--output", str(out)]) == 0
        assert "FAIL" not in out.read_text()
        assert run(["identity-check", "--dims", dims, "--seed", seed,
                    "--inject-fault", "--output", str(out)]) == 1
        assert "FAIL" in out.read_text()

    def test_cond_estimate_printed_at_three_digits(self, tmp_path, monkeypatch):
        solve_equilibrium = cli.bem.solve_equilibrium
        solved = []

        def solve(*a, **k):
            solved.append(solve_equilibrium(*a, **k))
            return solved[-1]

        monkeypatch.setattr(cli.bem, "solve_equilibrium", solve)
        out = tmp_path / "cap.json"
        assert run(["capacity", "--shape", "sphere", "1", "2", "--output", str(out)]) == 0
        printed = json.loads(out.read_text())["cond_estimate"]
        assert printed == float(f"{solved[0].cond_estimate:.3g}")

    def test_non_finite_report_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.oracles, "ball_capacity", lambda n, R: float("nan"))
        out = tmp_path / "o.json"
        assert run(["oracle", "--shape", "sphere", "1", "--output", str(out)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("error:") and "capacity" in err
        assert not out.exists()


# malformed argvs and the exit code each must end in; 2 is argparse's
# usage-error SystemExit
MALFORMED = [
    (["convergence", "--shape", "ellipsoid", "2", "1"], cli.EXIT_SHAPE),
    (["convergence", "--shape", "sphere", "abc"], cli.EXIT_SHAPE),
    (["convergence", "--shape", "sphere"], cli.EXIT_SHAPE),
    (["oracle", "--shape", "sphere", "abc"], cli.EXIT_SHAPE),
    (["oracle", "--shape", "ellipsoid", "2", "1", "x"], cli.EXIT_SHAPE),
    (["oracle", "--shape", "sphere", "-1"], cli.EXIT_SHAPE),
    (["oracle", "--shape", "sphere", "nan"], cli.EXIT_SHAPE),
    (["capacity", "--shape", "sphere", "1", "-1"], cli.EXIT_SHAPE),
    (["capacity", "--shape", "sphere", "1", "2.5"], cli.EXIT_SHAPE),
    (["verify", "--shape", "ellipsoid", "2", "1", "0", "1"], cli.EXIT_SHAPE),
    (["identity-check", "--dims", "2"], 2),
    (["identity-check", "--points", "0"], 2),
    (["identity-check", "--seed", "-1"], 2),
    (["verify", "--shape", "sphere", "1", "1", "--samples", "0"], 2),
    (["convergence", "--shape", "sphere", "1", "--min-level", "-1"], 2),
    (["oracle", "--shape", "sphere", "1", "--dim", "2"], 2),
    (["capacity", "--shape", "sphere", "1", "1", "--far-mult", "5"], 2),
    (["capacity", "--shape", "sphere", "1", "1", "--far-mult", "inf"], 2),
    (["verify", "--shape", "sphere", "1", "0", "--tol-f1", "-1"], 2),
    (["verify", "--shape", "sphere", "1", "0", "--tol-f1", "nan"], 2),
    (["verify", "--shape", "sphere", "1", "0", "--tol-f2", "inf"], 2),
    (["verify", "--shape", "sphere", "1", "0", "--tol-newton", "-inf"], 2),
    (["convergence", "--shape", "sphere", "1", "--min-level", "2", "--max-level", "1"],
     cli.EXIT_SOLVER),
    # numbers beyond the float range: an arithmetic failure, or a mesh whose
    # areas overflow
    (["oracle", "--shape", "sphere", "--dim", "400"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "sphere", "1e300", "--dim", "5"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "sphere", "1e-300", "--dim", "5"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "sphere", "1e-300", "--dim", "3"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "ellipsoid", "1e300", "1e-10", "1e-10"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "ellipsoid", "1e308", "1e308", "1e308"], cli.EXIT_SOLVER),
    (["oracle", "--shape", "ellipsoid", "1e-320", "1e-320", "1e-320"], cli.EXIT_SOLVER),
    (["capacity", "--shape", "sphere", "1e200", "0"], cli.EXIT_MESH),
]


class TestMalformedInput:
    @pytest.mark.parametrize("argv,code", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, argv, code):
        out = tmp_path / "out.txt"
        try:
            rc = run(argv + ["--output", str(out)])
        except SystemExit as exc:
            rc = exc.code
        assert rc == code
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["3", "5"])
    def test_tiny_radius_oracle_warns_nothing(self, capsys, dim):
        # R^(n-2) underflows at n = 5; |Du|^2 = 1/R^2 overflows at n = 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["oracle", "--shape", "sphere", "1e-300", "--dim", dim])
        assert rc == cli.EXIT_SOLVER
        assert capsys.readouterr().err.count("\n") == 1

    def test_overflowing_off_mesh_is_3(self, tmp_path, capsys):
        path = tmp_path / "huge.off"
        m = geo.make_sphere_mesh(1.0, 1)
        geo.save_off(geo.TriMesh(m.vertices * 1e200, m.triangles.copy()), path)
        out = tmp_path / "cap.json"
        assert run(["capacity", "--mesh", str(path), "--output", str(out)]) == cli.EXIT_MESH
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: mesh failed validation: non-finite triangle area "
                       "(coordinates overflow)"]
        assert not out.exists()

    def test_unwritable_output_is_4(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "o.json"
        assert run(["oracle", "--shape", "sphere", "--output", str(out)]) == cli.EXIT_FILE
        assert capsys.readouterr().err.startswith("error: cannot write output file:")
        assert not out.parent.exists()

    def test_inject_fault_fails_both_halves_of_every_boundary_row(self, tmp_path):
        out = tmp_path / "id.txt"
        assert run(["identity-check", "--dims", "3", "4", "5", "6", "--points", "2",
                    "--inject-fault", "--output", str(out)]) == 1
        rows = [line for line in out.read_text().splitlines() if "boundary limits" in line]
        assert [row.split()[0] for row in rows] == ["n=3", "n=4", "n=5", "n=6"]
        for row in rows:
            assert "-> 0 FAIL;" in row and row.endswith("FAIL")


class TestExtremeRadius:
    """Radii far from 1 in a problem that is scale-invariant: each area and
    the capacity are representable, so `capacity` succeeds from 1e-140 up to
    5e154 (the mesh's geometry, the matrix and the far sphere are formed at
    one exact power-of-two scale).  With discrete curvature, `verify` at
    1e78 gives the sphere's verdict, and so does `verify` with exact
    curvature from 1e-140 up to 5e154: its scan forms the fields at the
    mesh's unit scale, where neither D2u overflows nor Tr(D2v)^2
    underflows.  The ellipsoid's exact curvature is formed at the axes'
    unit scale.  None prints a warning."""

    @pytest.mark.parametrize("R", [1e100, 1e-100, 1e140, 1e-140, 1e152, 1e153,
                                   1e154, 3e154, 5e154])
    def test_capacity_scales_with_the_radius(self, tmp_path, capsys, R):
        out, unit = tmp_path / "cap.json", tmp_path / "unit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["capacity", "--shape", "sphere", repr(R), "2", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert run(["capacity", "--shape", "sphere", "1", "2", "--output", str(unit)]) == 0
        scaled, base = json.loads(out.read_text()), json.loads(unit.read_text())
        for key in ("cap_charge", "cap_asymptotic", "cap_flux"):
            assert scaled[key] == pytest.approx(R * base[key], rel=1e-12, abs=0)

    @pytest.mark.parametrize("R", ["1e80", "1e100", "1e-100", "1e140", "1e-140",
                                   "1e154", "5e154"])
    def test_verify_gives_the_sphere_verdict(self, tmp_path, capsys, R):
        out = tmp_path / "v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--shape", "sphere", R, "2", "--samples", "4",
                        "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rep = json.loads(out.read_text())
        assert rep["verdict"] is True and rep["reasons"] == []
        assert rep["newton_sup_deficit"] < 1e-6 and rep["pbv_max_residual"] < 1e-12

    @pytest.mark.parametrize("R", [1e100, 1e-100])
    def test_verify_ellipsoid_f1_scales_with_the_radius(self, tmp_path, capsys, R):
        # the exact curvature is formed at the axes' unit scale; abs=0, since
        # approx's default absolute 1e-12 would pass any f1 near 1e-100
        out, unit = tmp_path / "v.json", tmp_path / "unit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--shape", "ellipsoid", repr(2 * R), repr(R), repr(R), "2",
                        "--samples", "4", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert run(["verify", "--shape", "ellipsoid", "2", "1", "1", "2", "--samples", "4",
                    "--output", str(unit)]) == 0
        scaled, base = json.loads(out.read_text()), json.loads(unit.read_text())
        assert scaled["f1"] == pytest.approx(base["f1"] / R, rel=1e-12, abs=0)

    def test_verify_names_the_non_finite_key(self, tmp_path, capsys, monkeypatch):
        # a NaN deficit, as an overflow in the fields would give
        monkeypatch.setattr(cli.functionals.symfun, "newton_deficit",
                            lambda A: np.full(A.shape[:-2], np.nan))
        out = tmp_path / "v.json"
        rc = run(["verify", "--shape", "sphere", "1", "2", "--samples", "4",
                  "--output", str(out)])
        assert rc == cli.EXIT_SOLVER
        assert capsys.readouterr().err == \
            "error: non-finite value nan at key 'newton_sup_deficit'\n"
        assert not out.exists()

    def test_discrete_curvature_verdict_at_1e78(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--shape", "sphere", "1e78", "2", "--samples", "4",
                        "--discrete-curvature", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rep = json.loads(out.read_text())
        assert rep["verdict"] is True and rep["reasons"] == []


def _far_mult_bound():
    # the largest --far-mult whose far radius, for the L1 unit sphere, is
    # at most 2^300 times the mesh's scale
    mesh = geo.make_sphere_mesh(1.0, 1)
    return math.ldexp(1.0, 300 + mesh._exponent) / mesh.diameter * (1 - 2**-40)


class TestFarMultiple:
    """The far sphere's fields are formed at the mesh's unit scale, where
    the kernel weights sigma w/|r|^3 stay normal while the radius is within
    2^300; `capacity` refuses a larger --far-mult rather than print a flux
    that has lost digits, or -0."""

    @pytest.mark.parametrize("far_mult", ["1e50", "1e70", "1e90", "bound"])
    def test_flux_equals_the_near_value(self, tmp_path, capsys, far_mult):
        far_mult = repr(_far_mult_bound()) if far_mult == "bound" else far_mult
        out, near = tmp_path / "far.json", tmp_path / "near.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["capacity", "--shape", "sphere", "1", "1", "--far-mult", far_mult,
                        "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert run(["capacity", "--shape", "sphere", "1", "1", "--far-mult", "15",
                    "--output", str(near)]) == 0
        flux = json.loads(out.read_text())["cap_flux"]
        assert flux == pytest.approx(json.loads(near.read_text())["cap_flux"], rel=1e-13, abs=0)

    @pytest.mark.parametrize("far_mult", ["1e110", "1e154", "1e300"])
    def test_beyond_the_bound_exits_2(self, far_mult):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "capsym.cli", "capacity", "--shape", "sphere",
             "1", "1", "--far-mult", far_mult, "--format", "csv"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
        assert done.returncode == cli.EXIT_SOLVER == 2
        assert done.stdout == ""
        [line] = done.stderr.splitlines()
        assert line.startswith("error:") and "far_radius" in line and "2^300" in line


class TestShapeTable:
    def test_bare_oracle_sphere_is_the_unit_ball(self, capsys):
        assert run(["oracle", "--shape", "sphere"]) == 0
        bare = capsys.readouterr().out
        assert run(["oracle", "--shape", "sphere", "1"]) == 0
        assert capsys.readouterr().out == bare

    def test_convergence_ignores_a_level_in_the_spec(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["convergence", "--min-level", "1", "--max-level", "1",
                "--quad-order", "3", "--samples", "4", "--shape", "sphere", "1"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["7", "--output", str(b)]) == 0
        strip = [line.rsplit(",", 1)[0] for line in a.read_text().splitlines()]
        assert strip == [line.rsplit(",", 1)[0] for line in b.read_text().splitlines()]

    @pytest.mark.parametrize("name", sorted(cli.SHAPES))
    def test_every_shape_builds_with_its_echoed_spec(self, tmp_path, name):
        sizes = ["2", "1", "1"][:cli.SHAPES[name][1]]
        out = tmp_path / "cap.json"
        assert run(["capacity", "--shape", name, *sizes, "1", "--quad-order", "3",
                    "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["shape"] == [name, *map(float, sizes), 1]


class TestSingleValidation:
    """Each solve validates its mesh once, inside the library."""

    @pytest.fixture()
    def validate_calls(self, monkeypatch):
        from capsym import bem, functionals

        original, calls = geo.validate, []

        def counting(mesh):
            calls.append(mesh)
            return original(mesh)

        for module in (geo, bem, functionals, cli):
            if getattr(module, "validate", None) is original:
                monkeypatch.setattr(module, "validate", counting)
        return calls

    @pytest.mark.parametrize("extra,expected", [([], 1), (["--discrete-curvature"], 2)])
    def test_verify_validates_once_per_use(self, tmp_path, validate_calls, extra, expected):
        out = tmp_path / "v.json"
        assert run(["verify", "--shape", "sphere", "1", "2", "--output", str(out)] + extra) == 0
        assert len(validate_calls) == expected

    def test_broken_mesh_error_comes_from_library(self, broken_off, capsys, validate_calls):
        assert run(["verify", "--mesh", broken_off]) == cli.EXIT_MESH
        assert capsys.readouterr().err.startswith("error: mesh failed validation: open edges")
        assert len(validate_calls) == 1


def _identity_check_reference(dims, points, seed, inject_fault):
    """The identity suite as the CLI ran it before it moved into
    `identity_lab.run_suite`, frozen as the reference: (text, exit code)."""
    lines = []
    all_ok = True

    for n in dims:
        rng = np.random.default_rng(seed)
        funcs = identity_lab.standard_test_functions(n, rng)
        pts = rng.uniform(0.3, 1.2, size=(points, n))
        gammas = [float(g) for g in identity_lab.gamma_roots(n)] + [0.0, 1.0, -2.0]
        for f in funcs:
            f.check_consistency(pts[0])
            for label, check in (
                ("identity_A", identity_lab.check_identity_A),
                ("identity_B", identity_lab.check_identity_B),
                ("identity_C", identity_lab.check_identity_C),
            ):
                orders = []
                for x in pts:
                    for gamma in gammas:
                        if gamma != int(gamma) and not f.positive:
                            continue
                        h = identity_lab.default_step(x)
                        r1 = check(f, gamma, x, h)
                        if inject_fault:
                            r1 += 1e-3
                        scale = max(1.0, abs(f.value(x)))
                        if r1 < 1e-11 * scale:
                            continue  # identity exact for this function
                        r2 = check(f, gamma, x, h / 2.0)
                        if inject_fault:
                            r2 += 1e-3
                        if r2 > 0:
                            orders.append(float(np.log2(r1 / r2)))
                if orders:
                    med = float(np.median(orders))
                    ok = 1.8 <= med <= 2.2
                    all_ok &= ok
                    lines.append(f"n={n} {f.name:>14} {label}: order {med:+.3f} "
                                 f"{'ok' if ok else 'FAIL'}")
            # divergence-free rows
            orders = []
            for x in pts:
                h = identity_lab.default_step(x)
                r1 = float(np.max(np.abs(identity_lab.check_div_free_s2(f, x, h))))
                if inject_fault:
                    r1 += 1e-3
                if r1 < 1e-10 * max(1.0, abs(f.value(x))):
                    continue  # identity exact for this function
                r2 = float(np.max(np.abs(identity_lab.check_div_free_s2(f, x, h / 2))))
                if inject_fault:
                    r2 += 1e-3
                if r2 > 0:
                    orders.append(float(np.log2(r1 / r2)))
            if orders:
                med = float(np.median(orders))
                ok = 1.8 <= med <= 2.2
                all_ok &= ok
                lines.append(f"n={n} {f.name:>14} div_free_s2: order {med:+.3f} "
                             f"{'ok' if ok else 'FAIL'}")
            # level-set identities, closed form
            worst = 0.0
            for x in pts:
                g = np.linalg.norm(np.asarray(f.gradient(x)))
                if g < 1e-8:
                    continue
                rp, rq = identity_lab.check_level_set_identity(f, x)
                scale = max(1.0, g**3)
                worst = max(worst, rp / scale, rq / scale)
            if inject_fault:
                worst += 1e-3
            ok = worst <= 1e-11
            all_ok &= ok
            lines.append(f"n={n} {f.name:>14} level_set: residual {worst:.3e} "
                         f"{'ok' if ok else 'FAIL'}")

    lines.append("gamma roots (exact rational):")
    for n in range(3, 11):
        r1, r2 = identity_lab.gamma_roots(n)
        c1 = identity_lab.gamma_coefficient(n, r1)
        c2 = identity_lab.gamma_coefficient(n, r2)
        ok = c1 == 0 and c2 == 0 and r1 == 1 - n and 2 * r2 == -n
        all_ok &= ok
        lines.append(f"  n={n}: gamma1={r1}, gamma2={r2}, coefficients "
                     f"{c1},{c2} {'ok' if ok else 'FAIL'}")

    # far-sphere boundary limits on the unit ball (oracle fields)
    for n in dims:
        g1, g2 = identity_lab.gamma_roots(n)
        cap = oracles.ball_capacity(n, 1.0)
        limit = identity_lab.boundary_limit_constant(n, cap)
        rows1 = identity_lab.check_boundary_limits(n, [10.0, 100.0, 1000.0], float(g1))
        rows2 = identity_lab.check_boundary_limits(n, [10.0, 100.0, 1000.0], float(g2))
        f1_ok = all(abs(v) <= 1e-6 * max(1.0, limit) for _, v in rows1)
        f2_ok = abs(rows2[-1][1] - limit) <= 0.01 * limit
        if inject_fault:
            f1_ok = f2_ok = False
        all_ok &= f1_ok and f2_ok
        lines.append(f"n={n} boundary limits: gamma1 flux max "
                     f"{max(abs(v) for _, v in rows1):.3e} -> 0 {'ok' if f1_ok else 'FAIL'}; "
                     f"gamma2 flux {rows2[-1][1]:.12g} vs {limit:.12g} "
                     f"{'ok' if f2_ok else 'FAIL'}")

    return "\n".join(lines) + "\n", 0 if all_ok else 1


# runs `capsym` with argv[1:] in a process where every import of scipy
# raises ImportError, and fails if one was attempted, even if caught
_NO_SCIPY = """
import sys

attempted = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            attempted.append(name)
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from capsym import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
if attempted:
    sys.exit(f"scipy imports attempted: {attempted}")
sys.exit(code)
"""


def _capsym(argv, block_scipy):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = _NO_SCIPY if block_scipy else \
        "import sys; from capsym import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)


class TestScipyFreeCommands:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["identity-check", "--dims", "3", "--points", "2"],
        ["oracle", "--shape", "sphere", "1"],
        ["verify", "--shape", "sphere", "1", "1", "--samples", "4"],
        ["verify", "--mesh", "SPHEROID_OFF"],
        ["capacity", "--shape", "bumpy", "1", "1"],
    ], ids=["help", "identity-check", "oracle-sphere", "verify-sphere", "verify-mesh",
            "capacity-bumpy"])
    def test_runs_without_scipy(self, argv, tmp_path):
        off = tmp_path / "spheroid.off"
        geo.save_off(geo.make_ellipsoid_mesh(2.0, 1.0, 1.0, 1), off)
        done = _capsym([str(off) if a == "SPHEROID_OFF" else a for a in argv], block_scipy=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout

    def test_ellipsoid_oracle_needs_scipy(self):
        # the blocker works: the ellipsoid capacity's R_F needs scipy
        assert "scipy" in _capsym(["oracle", "--shape", "ellipsoid", "2", "1", "1"],
                                  block_scipy=True).stderr
        done = _capsym(["oracle", "--shape", "ellipsoid", "2", "1", "1"], block_scipy=False)
        assert done.returncode == 0, done.stderr
        # the value printed when scipy was imported with the package
        assert json.loads(done.stdout)["capacity"] == 16.527174043782797


def _without_blas_setting(args, **env):
    """stdout of `python args...` with OPENBLAS_NUM_THREADS removed from the
    environment, then `env` added."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, *args], env=environ, capture_output=True,
                          text=True, check=True, timeout=300).stdout


class TestBlasThreads:
    def test_package_import_loads_no_numpy(self):
        code = ("import os, sys; before = dict(os.environ); import capsym; "
                "print('numpy' in sys.modules, dict(os.environ) == before)")
        assert _without_blas_setting(["-c", code]).split() == ["False", "True"]

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_sets_one_thread_unless_set(self, preset):
        code = "import os, capsym.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        assert _without_blas_setting(["-c", code], **env).strip() == (preset or "1")

    def test_verify_output_equals_one_thread_output(self):
        argv = ["-m", "capsym.cli", "verify", "--shape", "sphere", "1.37", "4",
                "--samples", "27", "--seed", "7"]
        assert _without_blas_setting(argv) == \
            _without_blas_setting(argv, OPENBLAS_NUM_THREADS="1")
