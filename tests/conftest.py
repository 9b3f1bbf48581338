import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab.solver import Field, newton_solve


def timed_solve(d, nl, nr, nz, **kw):
    t0 = time.perf_counter()
    grid = dm.build_grid(d, nr, nz)
    u, rep = newton_solve(grid, d.n, nl, Field.zeros(grid, d.n), **kw)
    return grid, u, rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ball3():
    return dm.MeridianDomain(3, dm.ball(1.0))


@pytest.fixture(scope="session")
def torsion_ball_65(ball3):
    grid, u, rep, dt = timed_solve(ball3, nlin.constant(1.0), 65, 129)
    assert rep.converged
    return grid, u, rep, dt


@pytest.fixture(scope="session")
def torsion_ball_129(ball3):
    grid, u, rep, dt = timed_solve(ball3, nlin.constant(1.0), 129, 257)
    assert rep.converged
    return grid, u, rep, dt


@pytest.fixture(scope="session")
def gelfand_ball_65(ball3):
    grid, u, rep, dt = timed_solve(ball3, nlin.gelfand(1.0), 65, 129)
    assert rep.converged
    return grid, u, rep, dt


@pytest.fixture(scope="session")
def gelfand_ball_129(ball3):
    grid, u, rep, dt = timed_solve(ball3, nlin.gelfand(1.0), 129, 257)
    assert rep.converged
    return grid, u, rep, dt


@pytest.fixture(scope="session")
def spheroid_torsion_129():
    d = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    grid, u, rep, dt = timed_solve(d, nlin.constant(1.0), 129, 129)
    assert rep.converged
    return d, grid, u, rep, dt


@pytest.fixture(scope="session")
def spindle_domain():
    return dm.MeridianDomain(3, dm.polynomial_bump([1.0, 0.0, -2.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def spindle_torsion_129(spindle_domain):
    grid, u, rep, dt = timed_solve(spindle_domain, nlin.constant(1.0), 129, 257)
    assert rep.converged
    return spindle_domain, grid, u, rep, dt


@pytest.fixture
def factor_count(monkeypatch):
    """A list that grows by one for every ShiftedFactor constructed."""
    from cplab import solver

    made = []
    init = solver.ShiftedFactor.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.ShiftedFactor, "__init__", counted)
    return made
