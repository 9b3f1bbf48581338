import numpy as np
import pytest

from cplab import continuation as cont
from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab.continuation import run_homotopy, warm_start_transfer
from cplab.errors import CplabError
from cplab.verify import run_verification


def test_warm_start_identity_on_same_grid(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    moved = warm_start_transfer(u, grid)
    assert np.array_equal(moved.values[grid.inside], u.values[grid.inside])


def test_warm_start_zero_outside_shrunk_domain(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    small = dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), grid.nr, grid.nz,
                          rmax=grid.rmax, zmax=grid.zmax)
    # shrink by targeting a smaller ball on the same bounding box
    target = dm.MeridianDomain(3, dm.spheroid(0.8, 0.8))
    shrunk = dm.build_grid(target, grid.nr, grid.nz, rmax=grid.rmax, zmax=grid.zmax)
    moved = warm_start_transfer(u, shrunk)
    assert moved.values.min() >= 0.0
    assert np.all(moved.values[~shrunk.inside] == 0.0)


def test_warm_start_refuses_grids_with_other_nodes(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    ball = dm.MeridianDomain(3, dm.ball(1.0))
    finer = dm.build_grid(ball, 129, 257)
    # Same shape, other bounding box: the nodes differ too.
    wider = dm.build_grid(ball, grid.nr, grid.nz, rmax=1.25 * grid.rmax, zmax=grid.zmax)
    for other in (finer, wider):
        with pytest.raises(ValueError, match="same nodes"):
            warm_start_transfer(u, other)


def test_trivial_ball_target_completes_in_one_step():
    target = dm.MeridianDomain(3, dm.ball(1.0))
    rec = run_homotopy(target, nlin.constant(1.0), 49, 99, t_step0=0.05)
    assert rec.completed
    assert rec.first_failure_t is None
    assert [s.t for s in rec.steps] == [0.0, 1.0]
    assert run_verification(rec.field, nlin.constant(1.0), seeds=2).passed


def test_step_cap_validation(monkeypatch):
    # A zero step never advances t: reject it before the first solve, not by hanging.
    def no_solve(*args, **kwargs):
        raise AssertionError("run_homotopy solved with an invalid t_step0")

    monkeypatch.setattr(cont, "_solve_and_gate", no_solve)
    target = dm.MeridianDomain(3, dm.ball(1.0))
    for t_step0 in (0.2, 0.0, -0.05):
        with pytest.raises(ValueError, match="t_step0"):
            run_homotopy(target, nlin.constant(1.0), 49, 99, t_step0=t_step0)


def test_homotopy_newton_solves_keep_the_solver_budget(monkeypatch):
    # gelfand(1) needs more than one Newton step from the zero guess, so with
    # a budget of one the very first homotopy solve must stop unconverged.
    monkeypatch.setattr(sv, "MAX_NEWTON", 1)
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.8))
    with pytest.raises(CplabError, match="homotopy setup failed on the ball"):
        run_homotopy(target, nlin.gelfand(1.0), 33, 33)


def test_homotopy_box_holds_a_target_that_peaks_off_the_axis():
    # g(0) = 0.3 but max g = 0.5: a box of height g(0) would cut the target
    # off at |z| = 0.3. Every grid of the run must have build_grid's height.
    target = dm.MeridianDomain(3, dm.tabulated([0.0, 0.3, 0.55, 0.8, 1.0],
                                               [0.3, 0.4, 0.5, 0.35, 0.0]))
    rmax, zmax = target.homotopy_box
    assert (rmax, zmax) == (1.0, dm.build_grid(target, 65, 65).zmax)
    assert zmax > 0.49
    assert not dm.build_grid(target, 65, 65, t=1.0, rmax=rmax, zmax=zmax).inside[-1].any()

    class Stop(Exception):
        pass

    grids = []

    def sink(t, u):  # the ball's grid is enough: stop after the t = 0 solve
        grids.append(u.grid)
        raise Stop

    with pytest.raises(Stop):
        run_homotopy(target, nlin.constant(1.0), 65, 65, field_sink=sink)
    assert (grids[0].rmax, grids[0].zmax) == (rmax, zmax)


def test_small_homotopy_completes_and_replays():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.6))
    rec1 = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1)
    assert rec1.completed
    assert rec1.first_failure_t is None
    report = run_verification(rec1.field, nlin.constant(1.0), seeds=2, seed=4)
    assert report.passed
    # The record keeps the operator that solved its field, already ordered;
    # a verification on it gives the same report.
    assert rec1.op.grid is rec1.field.grid and rec1.op._order is not None
    assert run_verification(rec1.field, nlin.constant(1.0), seeds=2, seed=4,
                            op=rec1.op).rows == report.rows
    ts = [s.t for s in rec1.steps]
    assert ts == sorted(ts)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(s.cp_count == 1 for s in rec1.steps)
    assert all(np.isfinite(s.lambda1) for s in rec1.steps)

    rec2 = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1)
    assert [s.t for s in rec2.steps] == ts
    for a, b in zip(rec1.steps, rec2.steps):
        assert a.lambda1 == b.lambda1
        assert a.m_z == b.m_z and a.m_r == b.m_r


def test_field_sink_receives_steps(tmp_path):
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.7))
    seen = []
    rec = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1,
                       field_sink=lambda t, f: seen.append((t, f)))
    assert rec.completed
    assert len(seen) == len(rec.steps)
    assert seen[0][0] == 0.0 and seen[-1][0] == 1.0
    assert seen[-1][1] is rec.field  # the record keeps the last accepted field
    assert run_verification(rec.field, nlin.constant(1.0), seeds=2).passed


@pytest.mark.parametrize("b", [0.5, 0.6])
def test_homotopy_never_factors_one_system_twice_on_a_grid(b, factor_count):
    # Torsion: f_u = 0, so Newton and the eigen gate factor the same matrix
    # on a grid, and the eigen shift is 0 because that factor is definite.
    # The verification's multistart on the final field factors once per seed.
    target = dm.MeridianDomain(3, dm.spheroid(1.0, b))
    rec = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1)
    assert rec.completed
    homotopy = list(factor_count)
    assert run_verification(rec.field, nlin.constant(1.0), seeds=2, seed=4).passed
    seeds = factor_count[len(homotopy):]
    assert len(seeds) == 2 and all(not f._c.any() for f in seeds)
    per_grid = {}
    for f in homotopy:  # the factors keep their operator's weight array alive
        per_grid.setdefault(id(f._w), []).append(f._c.tobytes())
    assert len(per_grid) == len(rec.steps) + len(rec.rejections)
    assert all(len(systems) == 1 for systems in per_grid.values())


def test_lambda1_jump_gate_rejects_and_halves_the_step(monkeypatch):
    # With a factor of 1e-12 every lambda1 change after the first three
    # accepted ones is a jump: the step halves on each rejection until it
    # underflows T_STEP_MIN, and the last tried t is the first failure.
    monkeypatch.setattr(cont, "LAMBDA_JUMP_FACTOR", 1e-12)
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    rec = run_homotopy(target, nlin.constant(1.0), 33, 33)
    assert [s.t for s in rec.steps] == pytest.approx([0.0, 0.05, 0.1, 0.15], abs=1e-15)
    tried = [t for t, _ in rec.rejections]
    assert tried == pytest.approx([0.15 + 0.05 / 2 ** k for k in range(6)], abs=1e-15)
    assert all(reason.startswith("lambda1 jump") for _, reason in rec.rejections)
    assert rec.first_failure_t == pytest.approx(0.1515625, abs=1e-15)
    assert not rec.completed
    assert rec.field.grid.t == rec.final_t  # the last accepted field, not a rejected one
