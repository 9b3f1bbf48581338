import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cplab import domain as dm
from cplab import fieldio
from cplab.errors import InvalidProfileError, ResolutionTooCoarseError
from cplab.solver import Field


HALF_BRACKET = 2.0 ** -46  # theta is the midpoint of a final bracket 2^-45 wide


def assert_cut_arms_are_bisected(g):
    """Every arm length is 1 on a full arm and the bisected distance on a cut one.

    A cut arm has 0 < theta < 1, and theta -/+ 2^-46 are the ends of its
    final bisection bracket (exact dyadics): the arm point at
    (theta - 2^-46) h is inside, the one at (theta + 2^-46) h is outside.
    A bracket end at 0 or 1 is the node or its neighbour, which the inside
    mask classifies, not the bisection.
    """
    Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
    for th, full, dr, dz in zip((g.theta_e, g.theta_w, g.theta_n, g.theta_s),
                                dm.full_arms(g.inside),
                                (g.hr, -g.hr, 0.0, 0.0), (0.0, 0.0, g.hz, -g.hz)):
        assert np.all(th[g.inside & full] == 1.0)
        cut = g.inside & ~full
        t, r0, z0 = th[cut], R[cut], Z[cut]
        assert np.all((t > 0.0) & (t < 1.0))

        def inside(s):
            return np.abs(z0 + s * dz) < g.g(np.maximum(r0 + s * dr, 0.0))

        lo, hi = t - HALF_BRACKET, t + HALF_BRACKET
        assert np.all(inside(lo)[lo > 0.0])
        assert not np.any(inside(hi)[hi < 1.0])


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
    d = dm.MeridianDomain(3, dm.ball(1.0))
    assert float(d.profile_at(0.6, 0.0)) == pytest.approx(0.8, abs=1e-14)


def test_profile_at_t_endpoint_identity():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    # a := g(0), so the r = 0 value is a for every t.
    for t in (0.0, 0.3, 1.0):
        assert float(target.profile_at(0.0, t)) == pytest.approx(0.5, abs=1e-14)


def test_profile_at_t_bump_midpoint():
    target = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    # 0.5 * (1 - 0.25)^2 + 0.5 * sqrt(1 - 0.25)
    expected = 0.5 * 0.5625 + 0.5 * np.sqrt(0.75)
    assert float(target.profile_at(0.5, 0.5)) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.7142627018922193, rel=1e-12)


def test_profile_at_t_monotone_in_r():
    target = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    rs = np.linspace(0.0, 1.0, 513)
    for t in np.linspace(0.0, 1.0, 11):
        vals = target.profile_at(rs, t)
        assert np.all(np.diff(vals) <= 1e-12)


def test_profile_at_t_matches_ball_and_target():
    target = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    rs = np.linspace(0.0, 0.999, 301)
    cap = np.sqrt(np.maximum(0.25 - rs ** 2, 0.0))
    assert np.max(np.abs(target.profile_at(rs, 0.0) - cap)) <= 1e-14 * 0.5
    assert np.max(np.abs(target.profile_at(rs, 1.0) - target.profile(rs))) == 0.0


def test_inside_membership():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    assert d.inside(0.0, 0.0)
    assert not d.inside(2.0, 0.0)
    assert not d.inside(0.0, 1.0)  # boundary is not inside


def test_build_grid_ball_classification():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    g = dm.build_grid(d, 65, 129)
    assert np.count_nonzero(g.inside) > 0
    assert g.inside[g.origin_index]
    assert g.interior[g.origin_index]
    assert_cut_arms_are_bisected(g)


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


def test_spindle_cusp_thetas_are_bisected_distances():
    d = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
    g = dm.build_grid(d, 65, 129)
    cut = (g.theta_e < 1.0) | (g.theta_n < 1.0) | (g.theta_s < 1.0)
    assert cut.any()
    assert g.boundary_adjacent.sum() > 0
    assert not (g.interior & cut).any()
    # the sharper cusp profile (1-r)^2 produces small cut fractions near r=1
    sharp = dm.MeridianDomain(3, dm.polynomial_bump([1, -2, 1]))
    gs = dm.build_grid(sharp, 65, 129)
    tip = gs.inside & (gs.rs[None, :] > 0.6)
    assert tip.any()
    small = ((gs.theta_n < 0.5) | (gs.theta_s < 0.5) | (gs.theta_e < 0.5)) & tip
    assert small.any()
    assert_cut_arms_are_bisected(gs)


def test_homotopy_t1_exact_at_tabulated_knots():
    knots = [0.0, 0.3, 0.7, 1.0]
    values = [0.8, 0.6, 0.25, 0.0]
    target = dm.MeridianDomain(3, dm.tabulated(knots, values))
    got = target.profile_at(np.array(knots[:-1]), 1.0)
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
    with pytest.raises(ValueError, match="homotopy parameter t"):
        dm.build_grid(d, 33, 65, t=1.5)


def test_homotopy_first_zero_cases():
    # R < a: the interpolated profile keeps a positive sliver out to a.
    tall = dm.tabulated([0.0, 0.25, 0.5], [1.0, 0.6, 0.0])
    d = dm.MeridianDomain(3, tall)
    assert d.first_zero(0.0) == 1.0
    assert d.first_zero(1.0) == 0.5
    assert d.first_zero(0.5) == 1.0
    # R > a: the target sticks out radially for any t > 0.
    wide = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    assert wide.first_zero(0.0) == 0.5
    assert wide.first_zero(0.7) == 1.0


@st.composite
def monotone_tabulated(draw):
    """A tabulated profile through nonincreasing knots ending at g(R) = 0."""
    k = draw(st.integers(2, 7))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=k - 1, max_size=k - 1))
    drops = draw(st.lists(st.floats(0.0, 1.0), min_size=k - 2, max_size=k - 2))
    R = draw(st.floats(0.2, 5.0))
    a0 = draw(st.floats(0.2, 5.0))
    knots = np.concatenate([[0.0], np.cumsum(steps)])
    knots *= R / knots[-1]
    # Each inner value keeps a share of the one before it, the last is 0.
    values = a0 * np.cumprod([1.0] + [1.0 - 0.9 * f for f in drops])
    return dm.tabulated(knots, np.append(values, 0.0))


def grid_at(d, nr, nz, t):
    """The target's own grid at t = 1, or a homotopy step's on the box run_homotopy uses."""
    if t == 1.0:
        return dm.build_grid(d, nr, nz)
    rmax, zmax = d.homotopy_box
    return dm.build_grid(d, nr, nz, t=t, rmax=rmax, zmax=zmax)


@settings(max_examples=60, deadline=None)
@given(monotone_tabulated(), st.integers(9, 40), st.integers(4, 40), st.floats(0.0, 1.0))
def test_grid_invariants_on_monotone_tabulated_profiles(prof, nr, half, t):
    d = dm.MeridianDomain(3, prof)
    try:
        g = grid_at(d, nr, 2 * half + 1, t)
    except ResolutionTooCoarseError:
        if t != 0.0:
            raise
        reject()  # the t = 0 ball is narrower than 3 cells of a box as wide as R
    assert g.t == t
    # Every node's class is the membership rule for g_t at its (R, Z): the
    # moving-plane check relies on it for its sources.
    assert np.array_equal(g.inside, dm.inside(d.profile_at(g.R, t), g.Z))
    # The mirror z -> -z is bit-exact, though build_grid bisects both
    # half-planes: coordinates, classes and arms.
    assert np.array_equal(g.zs[::-1], -g.zs)
    for a in (g.inside, g.interior, g.boundary_adjacent, g.theta_e, g.theta_w):
        assert np.array_equal(a, a[::-1, :])
    assert np.array_equal(g.theta_n, g.theta_s[::-1, :])
    assert_cut_arms_are_bisected(g)
    # Interior and boundary-adjacent nodes partition the inside nodes.
    assert not (g.interior & g.boundary_adjacent).any()
    assert np.array_equal(g.interior | g.boundary_adjacent, g.inside)


@st.composite
def spheroid_or_bump_domains(draw):
    """A random spheroid or monotone bump and a grid size, 17x33 up to 97x97."""
    a0 = draw(st.floats(0.3, 2.0))
    if draw(st.booleans()):
        prof = dm.spheroid(draw(st.floats(0.3, 2.0)), a0)
    else:
        c2, c4 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        prof = dm.polynomial_bump([a0, 0.0, -c2 - 0.1, 0.0, -c4])
    nr = draw(st.integers(17, 97))
    nz = 2 * draw(st.integers(16, 48)) + 1
    return dm.MeridianDomain(3, prof), nr, nz


def spheroid_or_bump_grids():
    """build_grid of `spheroid_or_bump_domains`."""
    return spheroid_or_bump_domains().map(lambda case: dm.build_grid(*case))


@settings(max_examples=40, deadline=None)
@given(spheroid_or_bump_grids())
def test_arm_lengths_are_one_toward_every_neighbour_in_the_mask(g):
    # The operator and the derivatives read theta as the arm length toward
    # an active neighbour, for the inside mask and both half-domain masks.
    for mask in (g.inside, g.inside & (g.zs > 0.0)[:, None], g.inside & (g.zs < 0.0)[:, None]):
        padded = np.pad(mask, 1)
        nbrs = (padded[1:-1, 2:], padded[1:-1, :-2], padded[2:, 1:-1], padded[:-2, 1:-1])
        for theta, nbr in zip((g.theta_e, g.theta_w, g.theta_n, g.theta_s), nbrs):
            assert np.array_equal(theta, np.where(nbr, 1.0, theta))


@settings(max_examples=40, deadline=None)
@given(spheroid_or_bump_domains(), st.one_of(st.just(1.0), st.floats(0.05, 0.95)))
@example(case=(dm.MeridianDomain(3, dm.spheroid(1.0, 0.5)), 33, 33), t=0.375)
def test_a_stored_field_gets_the_classes_of_build_grid(tmp_path_factory, case, t):
    # The grid read back from a CPFIELD is the grid the field was solved
    # on, in everything it derives: the target's own grid at t = 1, or a
    # homotopy step's on the fixed box that run_homotopy uses. on_domain
    # rebuilds the true grid, cut arms and profile included, at the file's t.
    d, nr, nz = case
    g = grid_at(d, nr, nz, t)
    path = tmp_path_factory.mktemp("cpfield") / "u.cpfield"
    fieldio.write_field(Field(g, np.where(g.inside, 1.0, 0.0), 3), path)
    stored = fieldio.read_field(path)[0]
    assert stored.grid.rs.tobytes() == g.rs.tobytes()
    assert stored.grid.zs.tobytes() == g.zs.tobytes()
    for name in ("nr", "nz", "hr", "hz", "h", "rmax", "zmax", "j_equator", "t"):
        assert getattr(stored.grid, name) == getattr(g, name), name
    for name in ("R", "Z", "inside", "interior", "boundary_adjacent"):
        assert np.array_equal(getattr(stored.grid, name), getattr(g, name)), name
    rebuilt = fieldio.on_domain(stored, d).grid
    assert rebuilt.t == t and rebuilt.g is not None
    for name in ("inside", "theta_e", "theta_w", "theta_n", "theta_s"):
        assert np.array_equal(getattr(rebuilt, name), getattr(g, name)), name


def test_a_grid_at_t_is_the_grid_of_g_t(tmp_path):
    # build_grid(d, t=0.5) is the grid of g_0.5, not d's own grid with the
    # label t = 0.5, so a field stored from it reads back on d.
    d = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    g = dm.build_grid(d, 33, 33, t=0.5)
    own = dm.build_grid(d, 33, 33, rmax=g.rmax, zmax=g.zmax)
    assert np.count_nonzero(g.inside != own.inside) == 204
    path = tmp_path / "u.cpfield"
    fieldio.write_field(Field.zeros(g, 3), path)
    rebuilt = fieldio.on_domain(fieldio.read_field(path)[0], d).grid
    for name in ("inside", "theta_e", "theta_w", "theta_n", "theta_s"):
        assert np.array_equal(getattr(rebuilt, name), getattr(g, name)), name
