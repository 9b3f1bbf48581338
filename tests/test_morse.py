import numpy as np
import pytest

from cplab import morse as mo
from cplab import solver as sv
from cplab.errors import InternalContradictionError, TooCloseToBoundaryError

from oracles import GELFAND1_URR0, gelfand_radial_shoot


def test_classify_cases():
    tau = 1e-8
    kind, sig = mo.classify(np.diag([-1 / 3, -1 / 3, -1 / 3]), tau)
    assert (kind, sig) == ("max", (3, 0, 0))
    kind, sig = mo.classify(np.diag([-1.0, 1e-12, 2.0]), tau)
    assert kind == "degenerate"
    assert sig == (1, 1, 1)
    kind, sig = mo.classify(np.diag([-1.0, -1.0, 2.0]), tau)
    assert (kind, sig) == ("saddle", (2, 0, 1))
    kind, sig = mo.classify(np.diag([1.0, 2.0, 3.0]), tau)
    assert (kind, sig) == ("min", (0, 0, 3))


def test_torsion_ball_census(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    census = mo.find_critical_points(u)
    assert len(census.points) == 1
    p = census.points[0]
    assert p.on_axis
    assert abs(p.z) < 1e-10
    assert p.type == "max"
    assert p.signature == (3, 0, 0)
    assert p.gradient_residual <= mo.TOL_CP
    assert census.unique_nondegenerate_max


def test_torsion_ball_hessian(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    census = mo.find_critical_points(u)
    H = census.points[0].hessian
    assert np.allclose(H, -np.eye(3) / 3.0, atol=5e-3)
    assert H[0, 0] == H[1, 1]  # transverse entries structurally equal


def test_spheroid_census_single_point(spheroid_torsion_129):
    _, grid, u, _, _ = spheroid_torsion_129
    census = mo.find_critical_points(u)
    assert len(census.points) == 1
    p = census.points[0]
    assert p.on_axis and p.type == "max"
    assert abs(p.z) < 1e-8
    # exact quadratic solution on the spheroid: H = diag(-1/6, -1/6, -2/3)
    assert np.allclose(np.diag(p.hessian), [-1 / 6, -1 / 6, -2 / 3], rtol=1e-3)


def test_gelfand_hessian_matches_ode_oracle(gelfand_ball_65):
    grid, u, _, _ = gelfand_ball_65
    _, urr0 = gelfand_radial_shoot(1.0)
    assert urr0 == pytest.approx(GELFAND1_URR0, abs=1e-10)
    census = mo.find_critical_points(u)
    H = census.points[0].hessian
    tau = census.tau_h
    assert abs(H[0, 0] - H[1, 1]) <= tau
    assert np.abs(H - np.diag(np.diag(H))).max() <= tau
    assert H[0, 0] == pytest.approx(GELFAND1_URR0, rel=2e-3)
    assert H[2, 2] == pytest.approx(GELFAND1_URR0, rel=2e-3)


def test_injected_ring_point(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(
        grid, 3,
        lambda R, Z: (0.3 + 2 * R ** 2 * np.exp(-(R / 0.5) ** 2)) * np.cos(np.pi * Z / 2))
    census = mo.find_critical_points(u)
    rings = [p for p in census.points if p.type == "ring"]
    assert rings, [p.type for p in census.points]
    ring = rings[0]
    assert ring.r == pytest.approx(0.5, abs=5e-3)
    assert ring.signature[1] >= 1  # rotational degeneracy
    assert not census.unique_nondegenerate_max


def test_taylor_fit_structure(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    fit = mo.taylor_fit(u, (0.0, 0.0))
    tau = mo.hessian_threshold(grid)
    assert fit["c1"] == pytest.approx(-1.0 / 6.0, rel=1e-2)
    assert fit["c2"] == pytest.approx(-1.0 / 6.0, rel=1e-2)
    assert abs(fit["cross"]) <= tau
    assert fit["c1"] < 0 and fit["c2"] < 0


def test_hessian_too_close_to_boundary(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    with pytest.raises(TooCloseToBoundaryError):
        mo.hessian_at(u, (0.95, 0.0))


def test_monotone_positive_field_contradiction(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: 2.0 + Z)
    with pytest.raises(InternalContradictionError):
        mo.find_critical_points(u)


def test_tau_h_scales_with_resolution(torsion_ball_65, torsion_ball_129):
    g65 = torsion_ball_65[0]
    g129 = torsion_ball_129[0]
    assert mo.hessian_threshold(g65) == pytest.approx(4.0 * mo.hessian_threshold(g129))
    # torsion eigenvalues sit at least 100x above the threshold
    assert (1.0 / 3.0) / mo.hessian_threshold(g65) >= 100.0
