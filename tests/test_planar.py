"""Planar (n = 2) support: the same lab on Steiner-symmetric plane domains."""

import numpy as np
import pytest
from scipy.special import jn_zeros

from cplab import domain as dm
from cplab import morse as mo
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab import stability as st
from cplab import verify as vf


@pytest.fixture(scope="module")
def disk_torsion():
    d = dm.MeridianDomain(2, dm.ball(1.0))
    grid = dm.build_grid(d, 65, 129)
    u, rep = sv.newton_solve(grid, 2, nlin.constant(1.0), sv.Field.zeros(grid, 2))
    assert rep.converged
    return grid, u


def test_disk_torsion_center_value(disk_torsion):
    grid, u = disk_torsion
    assert u.values[grid.origin_index] == pytest.approx(0.25, rel=1e-3)


def test_disk_first_eigenvalue(disk_torsion):
    grid, _ = disk_torsion
    rep = st.smallest_eigenvalue(sv.Field.zeros(grid, 2), nlin.constant(1.0))
    exact = jn_zeros(0, 1)[0] ** 2
    assert rep.lambda1 == pytest.approx(exact, rel=0.01)
    assert rep.stable


def test_disk_census_and_hessian(disk_torsion):
    grid, u = disk_torsion
    census = mo.find_critical_points(u)
    assert census.unique_axis_max
    p = census.points[0]
    assert p.on_axis and p.signature == (2, 0, 0)
    assert np.allclose(p.hessian, -0.5 * np.eye(2), atol=5e-3)


def test_disk_full_verification(disk_torsion):
    grid, u = disk_torsion
    report = vf.run_verification(u, nlin.constant(1.0),
                                 seeds=2, seed=9)
    assert report.passed
