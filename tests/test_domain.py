import numpy as np
import pytest

from cplab import domain as dm
from cplab.errors import InvalidProfileError, ResolutionTooCoarseError


def test_ball_profile_validates():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    report = dm.validate_simple_domain(d)
    assert report.passed
    assert d.profile.R == 1.0
    assert d.profile.a0 == 1.0
    assert not report.flags


def test_tabulated_nonmonotone_fails_validation():
    prof = dm.tabulated([0.0, 0.5, 1.0], [1.0, 1.2, 0.0])
    d = dm.MeridianDomain(3, prof)
    report = dm.validate_simple_domain(d)
    assert not report.passed
    failed = [name for name, ok, _ in report.checks if not ok]
    assert "g nonincreasing" in failed


def test_bump_profile_flags_nonconvex():
    d = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    report = dm.validate_simple_domain(d)
    assert report.passed
    assert any("nonconvex" in f for f in report.flags)
    assert d.profile.R == pytest.approx(1.0, abs=1e-12)


def test_profile_requires_positive_start():
    with pytest.raises(InvalidProfileError):
        dm.polynomial_bump([-1.0, 0.0, 1.0])
    with pytest.raises(InvalidProfileError):
        dm.tabulated([0.1, 0.5], [1.0, 0.0])  # must start at r = 0
    with pytest.raises(InvalidProfileError):
        dm.tabulated([0.0, 0.5, 0.5], [1.0, 0.5, 0.0])  # knots not increasing


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "prof.dat"
    path.write_text("# r g\n0.0 1.0\n0.4 0.8\n0.8 0.3\n1.0 0.0\n")
    prof = dm.tabulated_from_file(path)
    assert prof.a0 == 1.0
    assert prof.R == pytest.approx(1.0)
    assert float(prof(0.4)) == pytest.approx(0.8)


def test_profile_at_t_ball_cap():
    h = dm.HomotopyFamily(dm.MeridianDomain(3, dm.ball(1.0)))
    assert float(dm.profile_at_t(h, 0.6, 0.0)) == pytest.approx(0.8, abs=1e-14)


def test_profile_at_t_endpoint_identity():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    h = dm.HomotopyFamily(target)
    # a := g(0), so the r = 0 value is a for every t.
    for t in (0.0, 0.3, 1.0):
        assert float(h.profile_at(0.0, t)) == pytest.approx(0.5, abs=1e-14)


def test_profile_at_t_bump_midpoint():
    target = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    h = dm.HomotopyFamily(target)
    # 0.5 * (1 - 0.25)^2 + 0.5 * sqrt(1 - 0.25)
    expected = 0.5 * 0.5625 + 0.5 * np.sqrt(0.75)
    assert float(h.profile_at(0.5, 0.5)) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.7142627018922193, rel=1e-12)


def test_profile_at_t_monotone_in_r():
    target = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    h = dm.HomotopyFamily(target)
    rs = np.linspace(0.0, 1.0, 513)
    for t in np.linspace(0.0, 1.0, 11):
        vals = h.profile_at(rs, t)
        assert np.all(np.diff(vals) <= 1e-12)


def test_profile_at_t_matches_ball_and_target():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    h = dm.HomotopyFamily(target)
    rs = np.linspace(0.0, 0.999, 301)
    cap = np.sqrt(np.maximum(0.25 - rs ** 2, 0.0))
    assert np.max(np.abs(h.profile_at(rs, 0.0) - cap)) <= 1e-14 * 0.5
    assert np.max(np.abs(h.profile_at(rs, 1.0) - target.profile(rs))) == 0.0


def test_inside_membership():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    assert d.inside(0.0, 0.0)
    assert not d.inside(2.0, 0.0)
    assert not d.inside(0.0, 1.0)  # boundary is not inside


def test_build_grid_ball_classification():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    g = dm.build_grid(d, 65, 129)
    assert g.node_count_inside() > 0
    assert g.inside[g.origin_index]
    assert g.interior[g.origin_index]
    # every theta within [THETA_MIN, 1]
    for th in (g.theta_e, g.theta_w, g.theta_n, g.theta_s):
        assert np.all(th >= dm.THETA_MIN)
        assert np.all(th <= 1.0)


def test_grid_mirror_symmetry_bitexact():
    d = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    g = dm.build_grid(d, 65, 129)
    assert np.array_equal(g.inside, g.inside[::-1, :])
    assert np.array_equal(g.interior, g.interior[::-1, :])
    assert np.array_equal(g.theta_n, g.theta_s[::-1, :])
    assert np.array_equal(g.theta_e, g.theta_e[::-1, :])


def test_grid_column_convexity():
    # Monotone profile => every vertical chord between inside nodes is inside.
    d = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    g = dm.build_grid(d, 65, 65)
    for i in range(g.nr):
        col = np.nonzero(g.inside[:, i])[0]
        if col.size:
            assert np.array_equal(col, np.arange(col[0], col[-1] + 1))


def test_spindle_cusp_thetas_clamped():
    d = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    g = dm.build_grid(d, 65, 129)
    cut = (g.theta_e < 1.0) | (g.theta_n < 1.0) | (g.theta_s < 1.0)
    assert cut.any()
    assert g.boundary_adjacent.sum() > 0
    assert not (g.interior & cut).any()
    # the sharper cusp profile (1-r)^2 produces small clamped fractions near r=1
    sharp = dm.MeridianDomain(3, dm.polynomial_bump([1, -2, 1]))
    gs = dm.build_grid(sharp, 65, 129)
    tip = gs.inside & (gs.rs[None, :] > 0.6)
    assert tip.any()
    small = ((gs.theta_n < 0.5) | (gs.theta_s < 0.5) | (gs.theta_e < 0.5)) & tip
    assert small.any()
    assert gs.theta_n.min() >= dm.THETA_MIN


def test_homotopy_t1_exact_at_tabulated_knots():
    knots = [0.0, 0.3, 0.7, 1.0]
    values = [0.8, 0.6, 0.25, 0.0]
    target = dm.MeridianDomain(3, dm.tabulated(knots, values))
    h = dm.HomotopyFamily(target)
    got = h.profile_at(np.array(knots[:-1]), 1.0)
    assert np.array_equal(got, np.array(values[:-1]))


def test_grid_height_covers_an_off_axis_peak():
    # g(0) = 0.5 but g(0.5) = 1.0: the default box must not clip the peak.
    d = dm.MeridianDomain(3, dm.tabulated([0.0, 0.5, 1.0], [0.5, 1.0, 0.0]))
    grid = dm.build_grid(d, 33, 65)
    assert grid.zmax >= 1.0
    assert grid.inside[grid.nz - 2, :].any()
    # a monotone profile keeps the box of height g(0)
    assert dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), 33, 65).zmax == 1.0


def test_build_grid_errors():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    with pytest.raises(ValueError):
        dm.build_grid(d, 8, 129)
    with pytest.raises(ValueError):
        dm.build_grid(d, 65, 128)  # even nz has no equator line
    thin = dm.MeridianDomain(3, dm.spheroid(1.0, 0.01))
    with pytest.raises(ResolutionTooCoarseError):
        dm.build_grid(thin, 17, 9, zmax=1.0)


def test_homotopy_first_zero_cases():
    # R < a: the interpolated profile keeps a positive sliver out to a.
    tall = dm.tabulated([0.0, 0.25, 0.5], [1.0, 0.6, 0.0])
    h = dm.HomotopyFamily(dm.MeridianDomain(3, tall))
    assert h.first_zero(0.0) == 1.0
    assert h.first_zero(1.0) == 0.5
    assert h.first_zero(0.5) == 1.0
    # R > a: the target sticks out radially for any t > 0.
    wide = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    hw = dm.HomotopyFamily(wide)
    assert hw.first_zero(0.0) == 0.5
    assert hw.first_zero(0.7) == 1.0
