import numpy as np
import pytest

from cplab import fieldio
from cplab import solver as sv
from cplab.cli import main
from cplab.config import parse_config
from cplab.errors import ConfigError

TORSION_BALL = """
# minimal torsion ball
[domain]
kind = ball
a = 1.0
n = 3

[nonlinearity]
form = constant
c = 1.0

[grid]
nr = 49
nz = 99

[run]
seed = 7
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, TORSION_BALL))
    assert cfg.get("grid", "nr") == 49
    assert cfg.get("oracle", "N") == 48
    assert cfg.get("run", "seed") == 7
    d = cfg.build_domain()
    assert d.n == 3 and d.profile.kind == "ball"
    assert cfg.build_nonlinearity().form == "constant"


def test_parse_grid_aspect_default(tmp_path):
    text = TORSION_BALL.replace("nz = 99\n", "")
    cfg = parse_config(write_config(tmp_path, text))
    d = cfg.build_domain()
    nr, nz = cfg.grid_shape(d)
    assert nr == 49
    assert nz == 97  # 2 * (a0 / hr) + 1 for the unit ball


def test_gelfand_negative_lambda_range_error(tmp_path):
    text = TORSION_BALL.replace("form = constant\nc = 1.0",
                                "form = gelfand\nlambda = -1")
    with pytest.raises(ConfigError, match="positive"):
        parse_config(write_config(tmp_path, text))


def test_duplicate_key_names_both_lines(tmp_path):
    text = TORSION_BALL + "\n[grid]\nnr = 65\n"
    with pytest.raises(ConfigError, match=r"duplicate key \[grid\] nr"):
        parse_config(write_config(tmp_path, text))


def test_unknown_key_reports_line(tmp_path):
    text = TORSION_BALL + "\n[grid]\nwibble = 3\n"
    with pytest.raises(ConfigError, match=r"run.cfg:\d+: unknown key 'wibble'"):
        parse_config(write_config(tmp_path, text))


def test_missing_required_keys_listed(tmp_path):
    with pytest.raises(ConfigError, match=r"missing required keys: \[domain\] kind, \[nonlinearity\] form"):
        parse_config(write_config(tmp_path, "[grid]\nnr = 65\n"))


def test_cpfield_round_trip_byte_identical(tmp_path, torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    p1 = tmp_path / "u1.cpfield"
    p2 = tmp_path / "u2.cpfield"
    fieldio.write_field(u, p1)
    f2, comments = fieldio.read_field(p1)
    assert comments == []
    fieldio.write_field(f2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(np.where(grid.inside, u.values, 0.0), f2.values)
    assert f2.n == 3 and f2.grid.t == 1.0


def test_cpvox_round_trip(tmp_path):
    from cplab import domain as dm, nonlinearity as nlin, oracle3d as o3
    v = o3.solve_3d(dm.MeridianDomain(3, dm.ball(1.0)), nlin.constant(1.0), 16)
    p1 = tmp_path / "v1.cpvox"
    p2 = tmp_path / "v2.cpvox"
    fieldio.write_voxels(v, p1)
    v2 = fieldio.read_voxels(p1)
    fieldio.write_voxels(v2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_subcommand_artifacts(tmp_path):
    cfg = write_config(tmp_path, TORSION_BALL)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "u.cpfield").exists()
    assert (out / "solve_report.csv").exists()
    body = (out / "solve_report.csv").read_text()
    assert "true" in body


def test_census_eigen_verify_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path, TORSION_BALL)
    out = tmp_path / "out"
    assert main(["census", "--config", str(cfg), "--out", str(out)]) == 0
    # The printed rule is the one that decides the exit status.
    assert "unique nondegenerate max on the axis: True" in capsys.readouterr().out
    assert main(["eigen", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "census.csv").read_text().startswith("r,z,on_axis,type,grad_residual,eig1,eig2,eig3")
    eig_head = (out / "eigenfield.cpfield").read_text().splitlines()[0]
    assert eig_head.startswith("# eigen lambda1=")
    ver = (out / "verification.csv").read_text()
    assert ver.startswith("check,margin,tolerance,pass")
    assert ver.count("\n") == 9  # header + 8 checks


def test_verify_injected_asymmetric_field_fails(tmp_path, torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    bad = sv.Field(grid, np.where(grid.inside, 0.1 + 0.05 * grid.zs[:, None], 0.0), 3)
    field_path = tmp_path / "bad.cpfield"
    fieldio.write_field(bad, field_path)
    cfg = write_config(tmp_path, TORSION_BALL)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(cfg), "--out", str(out),
                   "--field", str(field_path), "--quiet"])
    assert status == 1


def test_unstable_affine_solve_exits_nonzero(tmp_path, capsys):
    text = TORSION_BALL.replace("form = constant\nc = 1.0",
                                "form = affine\nlambda = 15.0\nc = 1.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    status = main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert status == 1
    assert "error" in capsys.readouterr().err.lower()


def test_verify_csv_determinism(tmp_path):
    cfg = write_config(tmp_path, TORSION_BALL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "verification.csv").read_bytes() == (out2 / "verification.csv").read_bytes()


def test_report_aggregates_and_emits_heatmap(tmp_path):
    cfg = write_config(tmp_path, TORSION_BALL)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert main(["report", "--out", str(out), "--quiet"]) == 0
    summary = (out / "summary.csv").read_text()
    assert summary.startswith("source,key,value")
    assert "solve_report" in summary
    heat = (out / "heatmap.csv").read_text()
    assert heat.startswith("r,z,u")


def test_continue_subcommand_with_field_dumps(tmp_path):
    text = TORSION_BALL + "\n[output]\nemit_fields = true\n[continuation]\nt_step0 = 0.05\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    # ball target: the family is constant in t, so the run advances once
    assert main(["continue", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rec = (out / "continuation.csv").read_text().splitlines()
    assert rec[0] == "t,converged,lambda1,cp_count,m_z,m_r,runtime_s"
    assert len(rec) == 3  # header + t=0 + t=1
    dumps = sorted(p.name for p in (out / "fields").glob("*.cpfield"))
    assert dumps == ["t_0.00000.cpfield", "t_1.00000.cpfield"]
    assert (out / "verification.csv").exists()


def test_oracle3d_subcommand(tmp_path):
    text = TORSION_BALL + "\n[oracle]\nN = 24\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle3d", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "oracle.cpvox").exists()
    head = (out / "oracle_compare.csv").read_text().splitlines()
    assert head[0] == "linf_rel,cp_offset_cells,rotation_witness,mirror_witness,max_value"


def test_oracle3d_refuses_n_other_than_3_before_solving(tmp_path, capsys, monkeypatch):
    from cplab import cli

    calls = []

    def counting_solve(*args, **kw):
        calls.append(args)
        return sv.newton_solve(*args, **kw)

    monkeypatch.setattr(cli, "newton_solve", counting_solve)
    text = TORSION_BALL.replace("n = 3", "n = 4").replace("nr = 49\nnz = 99", "nr = 33\nnz = 65")
    cfg = write_config(tmp_path, text)
    status = main(["oracle3d", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert status == 1
    assert "oracle3d requires n = 3" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("subcommand, message", [
    ("solve", None),
    ("eigen", "eigen: the base solve did not converge"),
    ("census", "census: the base solve did not converge"),
    ("verify", "verify: the base solve did not converge"),
    ("oracle3d", "oracle3d: the meridian solve did not converge"),
])
def test_an_unconverged_solve_exits_1(tmp_path, capsys, monkeypatch, subcommand, message):
    # gelfand(1) needs more than one Newton step from the zero guess.
    monkeypatch.setattr(sv, "MAX_NEWTON", 1)
    text = (TORSION_BALL.replace("form = constant\nc = 1.0", "form = gelfand\nlambda = 1.0")
            .replace("nr = 49\nnz = 99", "nr = 17\nnz = 33"))
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    if message is None:  # solve writes its unconverged report and says so by the exit status
        assert "error:" not in err
        assert "false" in (out / "solve_report.csv").read_text()
    else:
        assert f"error: {message}\n" in err


def test_report_with_no_artifacts_errors(tmp_path, capsys):
    out = tmp_path / "empty"
    out.mkdir()
    status = main(["report", "--out", str(out), "--quiet"])
    assert status == 1
    assert "nothing to aggregate" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "[grid]\nnr = 65\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_field_is_checked_on_the_config_grid(tmp_path, torsion_ball_65, capsys):
    grid, _, _, _ = torsion_ball_65
    bad = sv.Field(grid, np.where(grid.inside, 0.1 + 0.05 * grid.zs[:, None], 0.0), 3)
    field_path = tmp_path / "bad.cpfield"
    fieldio.write_field(bad, field_path)
    cfg = write_config(tmp_path, TORSION_BALL)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(cfg), "--out", str(out),
                   "--field", str(field_path), "--quiet"])
    assert status == 1
    rows = {line.split(",")[0]: line.split(",")[-1]
            for line in (out / "verification.csv").read_text().splitlines()[1:]}
    assert rows["axial_symmetry"] == "false"
    assert capsys.readouterr().err == ""


def test_verify_field_matches_the_in_memory_verification(tmp_path, torsion_ball_65):
    from cplab import nonlinearity as nlin
    from cplab.verify import run_verification
    grid, u, _, _ = torsion_ball_65
    field_path = tmp_path / "u.cpfield"
    fieldio.write_field(u, field_path)
    text = TORSION_BALL.replace("nr = 49\nnz = 99", "nr = 65\nnz = 129")
    out = tmp_path / "out"
    main(["verify", "--config", str(write_config(tmp_path, text)), "--out", str(out),
          "--field", str(field_path), "--quiet"])
    expected = run_verification(u, nlin.constant(1.0), with_uniqueness=False)
    assert (out / "verification.csv").read_text() == fieldio.verification_csv(expected)


def test_verify_field_runs_the_moving_plane_geometry_check(tmp_path, capsys):
    # A profile with a dip: reflecting the far lobe toward the axis leaves
    # the domain, which a grid without the profile cannot see.
    (tmp_path / "dip.dat").write_text("0 1\n0.3 0.5\n0.6 0.9\n1 0\n")
    cfg = write_config(tmp_path, "[domain]\nkind = tabulated\nfile = dip.dat\nn = 3\n"
                                 "[nonlinearity]\nform = constant\nc = 1.0\n"
                                 "[grid]\nnr = 33\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    status = main(["verify", "--config", str(cfg), "--out", str(out),
                   "--field", str(out / "u.cpfield"), "--quiet"])
    assert status == 1
    assert "leaves the domain" in capsys.readouterr().err


def test_verify_sees_the_whole_off_axis_peak(tmp_path, capsys):
    # g(0) = 0.5 < g(0.5) = 1.0: on the whole domain the reflection of the
    # peak toward the axis leaves it, which a grid clipped at g(0) hides.
    (tmp_path / "peak.dat").write_text("0 0.5\n0.5 1.0\n1 0\n")
    cfg = write_config(tmp_path, "[domain]\nkind = tabulated\nfile = peak.dat\nn = 3\n"
                                 "[nonlinearity]\nform = constant\nc = 1.0\n"
                                 "[grid]\nnr = 33\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    stored, _ = fieldio.read_field(out / "u.cpfield")
    assert stored.grid.zmax >= 1.0
    status = main(["verify", "--config", str(cfg), "--out", str(out),
                   "--field", str(out / "u.cpfield"), "--quiet"])
    assert status == 1
    assert "leaves the domain" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, TORSION_BALL.replace("nr = 49\nnz = 99", "nr = 17\nnz = 33"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--seed", "-1", "--quiet"]) == 2
    assert "config error: --seed must be >= 0" in capsys.readouterr().err
    assert not (out / "verification.csv").exists()


def test_verify_field_on_a_mismatched_domain_exits_1(tmp_path, torsion_ball_65, capsys):
    _, u, _, _ = torsion_ball_65
    field_path = tmp_path / "u.cpfield"
    fieldio.write_field(u, field_path)
    cfg = write_config(tmp_path, TORSION_BALL.replace("a = 1.0", "a = 0.9"))
    out = tmp_path / "out"
    status = main(["verify", "--config", str(cfg), "--out", str(out),
                   "--field", str(field_path), "--quiet"])
    assert status == 1
    assert "nan pattern differs from the domain's inside mask" in capsys.readouterr().err
    assert not (out / "verification.csv").exists()


def test_on_domain_rebuilds_a_homotopy_grid(tmp_path):
    from cplab import domain as dm
    d = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    grid = dm.build_grid(dm.HomotopyFamily(d), 33, 33, t=0.375, rmax=1.0, zmax=1.0)
    path = tmp_path / "step.cpfield"
    fieldio.write_field(sv.Field.zeros(grid, 3), path)
    stored, _ = fieldio.read_field(path)
    rebuilt = fieldio.on_domain(stored, d).grid
    assert rebuilt.t == 0.375 and rebuilt.g is not None
    for name in ("inside", "interior", "theta_e", "theta_w", "theta_n", "theta_s"):
        assert np.array_equal(getattr(rebuilt, name), getattr(grid, name)), name
