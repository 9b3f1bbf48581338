import numpy as np
import pytest

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab.continuation import run_homotopy, warm_start_transfer
from cplab.errors import CplabError


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
    rec = run_homotopy(target, nlin.constant(1.0), 49, 99, t_step0=0.05,
                       uniqueness_seeds=2)
    assert rec.completed
    assert rec.first_failure_t is None
    assert [s.t for s in rec.steps] == [0.0, 1.0]


def test_step_cap_validation():
    target = dm.MeridianDomain(3, dm.ball(1.0))
    with pytest.raises(ValueError):
        run_homotopy(target, nlin.constant(1.0), 49, 99, t_step0=0.2)


def test_homotopy_newton_solves_keep_the_solver_budget(monkeypatch):
    # gelfand(1) needs more than one Newton step from the zero guess, so with
    # a budget of one the very first homotopy solve must stop unconverged.
    monkeypatch.setattr(sv, "MAX_NEWTON", 1)
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.8))
    with pytest.raises(CplabError, match="homotopy setup failed on the ball"):
        run_homotopy(target, nlin.gelfand(1.0), 33, 33, uniqueness_seeds=2)


def test_small_homotopy_completes_and_replays():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.6))
    kw = dict(t_step0=0.1, uniqueness_seeds=2, seed=4)
    rec1 = run_homotopy(target, nlin.constant(1.0), 49, 65, **kw)
    assert rec1.completed
    assert rec1.first_failure_t is None
    ts = [s.t for s in rec1.steps]
    assert ts == sorted(ts)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(s.cp_count == 1 for s in rec1.steps)
    assert all(np.isfinite(s.lambda1) for s in rec1.steps)

    rec2 = run_homotopy(target, nlin.constant(1.0), 49, 65, **kw)
    assert [s.t for s in rec2.steps] == ts
    for a, b in zip(rec1.steps, rec2.steps):
        assert a.lambda1 == b.lambda1
        assert a.m_z == b.m_z and a.m_r == b.m_r


def test_field_sink_receives_steps(tmp_path):
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.7))
    seen = []
    rec = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1,
                       uniqueness_seeds=2,
                       field_sink=lambda t, f: seen.append((t, f.max_inside())))
    assert rec.completed
    assert len(seen) == len(rec.steps)
    assert seen[0][0] == 0.0 and seen[-1][0] == 1.0


@pytest.mark.parametrize("b", [0.5, 0.6])
def test_homotopy_never_factors_one_system_twice_on_a_grid(b, factor_count):
    # Torsion: f_u = 0, so Newton and the eigen gate factor the same matrix
    # on a grid, and the eigen shift is 0 because that factor is definite.
    # The final multistart factors once per seed.
    target = dm.MeridianDomain(3, dm.spheroid(1.0, b))
    rec = run_homotopy(target, nlin.constant(1.0), 49, 65, t_step0=0.1,
                       uniqueness_seeds=2, seed=4)
    assert rec.completed
    homotopy, seeds = factor_count[:-2], factor_count[-2:]
    assert all(not f._c.any() for f in seeds)
    per_grid = {}
    for f in homotopy:  # the factors keep their operator's weight array alive
        per_grid.setdefault(id(f._w), []).append(f._c.tobytes())
    assert len(per_grid) == len(rec.steps) + len(rec.rejections)
    assert all(len(systems) == 1 for systems in per_grid.values())
