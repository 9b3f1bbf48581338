"""Rotationally symmetric domains and their meridian-plane discretization.

A domain is described by its meridian profile g(r): the body of revolution
{ |x_n| < g(r), r = |x'| < R } with g continuous, nonincreasing, g(R) = 0.
The half-plane (r, z) with z = x_n is discretized on a uniform grid; nodes
are classified inside/outside and cut stencil arms carry fractional
boundary distances theta in (0, 1) for Shortley-Weller stencils: each is
the bisected distance to the boundary as it is, with no floor.

The homotopy family interpolates the profile between the ball of radius
a = g(0) (t = 0) and the target profile (t = 1):

    g_t(r) = t*g(r) + (1-t)*sqrt(a^2 - r^2)

The meridian grid and the voxel oracle take the body's geometry from here:
`inside`, `bisect`, and the boxes of `MeridianDomain` with `isotropic_nz`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidProfileError, ResolutionTooCoarseError

BISECT_STEPS = 45  # 2^-45 < 1e-13 relative arm tolerance; theta in [2^-46, 1 - 2^-46]
MIN_NODES = 9  # fewest grid nodes along r or z
MAX_NODES = 1025 * 1025  # most meridian grid nodes nr * nz a config may ask for: desk scale


@dataclass(frozen=True)
class ProfileFunction:
    """Meridian profile g: [0, R] -> [0, a0], extended by zero beyond R."""

    kind: str
    g: Callable[[np.ndarray], np.ndarray]
    R: float
    a0: float

    def __call__(self, r):
        return self.g(np.asarray(r, dtype=float))


def ball(a: float) -> ProfileFunction:
    """Profile of the ball of radius a: g(r) = sqrt(a^2 - r^2)."""
    a = float(a)
    if a <= 0:
        raise InvalidProfileError("ball radius must be positive")

    def g(r):
        return np.sqrt(np.maximum(a * a - r * r, 0.0))

    return ProfileFunction("ball", g, a, a)


def spheroid(a: float, b: float) -> ProfileFunction:
    """Spheroid with equatorial radius a and axial semi-height b."""
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise InvalidProfileError("spheroid semi-axes must be positive")

    def g(r):
        return b * np.sqrt(np.maximum(1.0 - (r / a) ** 2, 0.0))

    return ProfileFunction("spheroid", g, a, b)


def polynomial_bump(coeffs) -> ProfileFunction:
    """Profile given by a polynomial in r (ascending coefficients).

    The first positive zero defines R; the profile is clipped at zero and
    extended by zero beyond R.
    """
    coeffs = tuple(float(c) for c in coeffs)
    poly = np.polynomial.Polynomial(coeffs)
    a0 = float(poly(0.0))
    if not np.isfinite(a0) or a0 <= 0:
        raise InvalidProfileError("bump polynomial must be positive at r = 0")
    R = _first_zero_of(poly)

    def g(r):
        r = np.asarray(r, dtype=float)
        vals = np.where(r < R, poly(r), 0.0)
        return np.maximum(vals, 0.0)

    return ProfileFunction("bump", g, R, a0)


def tabulated(knots, values) -> ProfileFunction:
    """Monotone piecewise-cubic (PCHIP) profile through (r_k, g_k) knots.

    PCHIP preserves the monotonicity of the data, so nonincreasing knots
    yield a nonincreasing profile. Non-monotone data is representable (the
    validator reports it) but still interpolated shape-preservingly.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
        raise InvalidProfileError("tabulated profile needs matching 1-d knot/value arrays")
    if not np.all(np.diff(knots) > 0):
        raise InvalidProfileError("tabulated knots must be strictly increasing in r")
    if knots[0] != 0.0:
        raise InvalidProfileError("tabulated profile must start at r = 0")
    if not np.all(np.isfinite(values)):
        raise InvalidProfileError("tabulated profile values must be finite")
    # Imported here, the one use: keeps scipy.interpolate off the import path.
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(knots, values, extrapolate=False)
    a0 = float(values[0])

    def raw(r):
        r = np.abs(np.asarray(r, dtype=float))  # even in r, as ball() and spheroid() are
        return np.where(r > knots[-1], 0.0, interp(r))

    R = _first_zero_of(raw, hi=float(knots[-1]))

    def g(r):
        r = np.asarray(r, dtype=float)
        return np.maximum(np.where(r < R, raw(r), 0.0), 0.0)

    return ProfileFunction("tabulated", g, R, a0)


def tabulated_from_file(path) -> ProfileFunction:
    """Load a tabulated profile from a two-column ASCII file `r g`.

    Lines starting with `#` are comments.
    """
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise InvalidProfileError(f"{path}: expected two columns `r g`")
    return tabulated(data[:, 0], data[:, 1])


def _first_zero_of(f, hi: float | None = None) -> float:
    """First positive zero of a scalar profile-like function."""
    r_hi = hi if hi is not None else 1.0
    for _ in range(40):
        rs = np.linspace(0.0, r_hi, 4097)
        vals = np.asarray(f(rs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InvalidProfileError("profile returned non-finite values")
        nonpos = np.nonzero(vals <= 0.0)[0]
        if nonpos.size and nonpos[0] > 0:
            k = nonpos[0]
            if vals[k] == 0.0:
                return float(rs[k])
            from scipy.optimize import brentq  # only when no grid node is an exact zero

            return float(brentq(lambda r: float(f(r)), rs[k - 1], rs[k], xtol=1e-14))
        if hi is not None:
            return r_hi
        r_hi *= 2.0
        if r_hi > 1e6:
            break
    raise InvalidProfileError("profile has no positive zero")


@dataclass(frozen=True)
class MeridianDomain:
    """A simple rotationally symmetric domain in R^n along the x_n axis.

    It also carries the homotopy from the ball B_a, a = profile.a0 (t = 0),
    to itself (t = 1): the profile g_t of `profile_at`, its first zero
    `first_zero(t)` and the one grid box `homotopy_box` that holds them all.
    Its zmax is the body's half-height, as in the body's own grid `box`,
    which the voxel oracle spans too.
    """

    n: int
    profile: ProfileFunction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("spatial dimension must be >= 2")

    def inside(self, r, z):
        """Membership of the points (r, z), r >= 0, in the body: `inside` of g(r) and z."""
        return inside(self.profile(r), z)

    def profile_at(self, r, t: float):
        """g_t(r) = t*g(r) + (1-t)*sqrt(a^2 - r^2), both parts zero-extended."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("homotopy parameter t must lie in [0, 1]")
        r = np.asarray(r, dtype=float)
        a = self.profile.a0
        cap = np.sqrt(np.maximum(a * a - r * r, 0.0))
        return t * self.profile(r) + (1.0 - t) * cap

    def first_zero(self, t: float) -> float:
        """R_t, the first zero of g_t: a at t = 0, R at t = 1, max(a, R) between."""
        a, R = self.profile.a0, self.profile.R
        if t <= 0.0:
            return a
        if t >= 1.0:
            return R
        return max(a, R)

    @property
    def box(self) -> tuple[float, float]:
        """(R, `profile_height` of g): the body's own grid box, whatever r g peaks at."""
        return self.profile.R, profile_height(self.profile, self.profile.R)

    @property
    def homotopy_box(self) -> tuple[float, float]:
        """(rmax, zmax) of the one grid box that holds every g_t, t in [0, 1].

        g_t <= t max g + (1 - t) a, and a = g(0) <= max g.
        """
        return max(self.profile.a0, self.profile.R), self.box[1]


def isotropic_nz(nr: int, box) -> int:
    """The odd nz, at least MIN_NODES, with hz = hr on the grid box (rmax, zmax)."""
    hr = box[0] / (nr - 1)
    return 2 * max((MIN_NODES - 1) // 2, int(round(box[1] / hr))) + 1


def inside(g_r, z):
    """The membership rule of the body {|z| < g(r)}, given g_r = g(r): its one statement."""
    return np.abs(z) < g_r


@dataclass(frozen=True)
class MeridianGrid:
    """Uniform embedded-boundary grid on [0, rmax] x [-zmax, zmax].

    Arrays are indexed [j, i] with j the z index (ascending) and i the
    r index. `theta_*` are the arm lengths, as fractions of the spacing,
    toward E(+r), W(-r), N(+z), S(-z): exactly 1.0 on every full arm (see
    `full_arms`) and the bisected boundary distance, in (0, 1), where the
    arm crosses the boundary. The solver's operator and derivatives take
    their arm lengths from them as they are, for any active set within
    `inside`. The mirror z -> -z is bit-exact although `build_grid`
    bisects the arms of both half-planes: `zs` is bitwise even, the
    membership test reads |z|, and IEEE rounding is symmetric in sign, so a
    lower node's S arm repeats its upper mirror's N arm step for step. x_n
    stays on the vertical axis of the plot plane: the node (i=0,
    j=j_equator) is the origin o.

    Stored are the node axes `rs` and `zs` (from `node_axes`), the
    `inside` mask, the arm lengths, the homotopy parameter `t` and the
    profile `g` (None for a grid read back from a file). Everything else
    is derived from them once, on construction: the sizes `nr` and `nz`,
    the spacings `hr`, `hz` and `h = max(hr, hz)`, the extent `rmax`,
    `zmax`, the equator row `j_equator`, the node classes `interior` and
    `boundary_adjacent` (from `classify_nodes`) and the read-only node
    coordinates `R` and `Z`.
    """

    rs: np.ndarray
    zs: np.ndarray
    inside: np.ndarray            # bool (nz, nr)
    theta_e: np.ndarray
    theta_w: np.ndarray
    theta_n: np.ndarray
    theta_s: np.ndarray
    t: float = 1.0
    g: Callable = field(repr=False, default=None)
    nr: int = field(init=False)
    nz: int = field(init=False)
    hr: float = field(init=False)
    hz: float = field(init=False)
    h: float = field(init=False)
    rmax: float = field(init=False)
    zmax: float = field(init=False)
    j_equator: int = field(init=False)
    interior: np.ndarray = field(init=False, repr=False)           # inside, all four arms full
    boundary_adjacent: np.ndarray = field(init=False, repr=False)  # inside, at least one cut arm
    R: np.ndarray = field(init=False, repr=False)
    Z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nz, nr = self.inside.shape
        j = (nz - 1) // 2
        hr, hz = float(self.rs[1] - self.rs[0]), float(self.zs[j + 1] - self.zs[j])
        interior, boundary_adjacent = classify_nodes(self.inside)
        Z, R = np.meshgrid(self.zs, self.rs, indexing="ij")
        R.flags.writeable = Z.flags.writeable = False  # shared by every reader
        for name, value in dict(nr=nr, nz=nz, hr=hr, hz=hz, h=max(hr, hz),
                                rmax=float(self.rs[-1]), zmax=float(self.zs[-1]),
                                j_equator=j, interior=interior,
                                boundary_adjacent=boundary_adjacent, R=R, Z=Z).items():
            object.__setattr__(self, name, value)

    @property
    def origin_index(self):
        return (self.j_equator, 0)


def node_axes(nr: int, nz: int, rmax: float, zmax: float):
    """The node axes (rs, zs) of an nr x nz grid on [0, rmax] x [-zmax, zmax].

    zs is bitwise mirror-symmetric about z = 0, and nz must be odd so
    that the equator is a grid line.
    """
    zpos = np.linspace(0.0, zmax, (nz + 1) // 2)
    return np.linspace(0.0, rmax, nr), np.concatenate([-zpos[:0:-1], zpos])


def neighbours(a: np.ndarray):
    """The E(+r), W(-r), N(+z), S(-z) neighbours of every node of a [j, i] array.

    Each result holds, at a node, the entry of `a` at that neighbour; off
    the array it holds zero (False for a mask: off the array is outside).
    """
    e = np.zeros_like(a); e[:, :-1] = a[:, 1:]
    w = np.zeros_like(a); w[:, 1:] = a[:, :-1]
    n = np.zeros_like(a); n[:-1, :] = a[1:, :]
    s = np.zeros_like(a); s[1:, :] = a[:-1, :]
    return e, w, n, s


def full_arms(inside: np.ndarray):
    """Masks (E, W, N, S) of the nodes whose arm in that direction is full.

    An arm is full when its neighbour is in `inside`; the west arm of the
    axis column is the even reflection r -> -r, which is always full.
    Every other arm is cut by the boundary.
    """
    e, w, n, s = neighbours(inside)
    w[:, 0] = True
    return e, w, n, s


def classify_nodes(inside: np.ndarray):
    """(interior, boundary_adjacent) of an inside mask: all four arms full, or not.

    A cut fraction below 1 lies only on an arm that is not full, so the
    masks alone decide; an arm whose cut falls on the neighbour node
    (theta = 1 - 2^-46) still makes its node boundary-adjacent.
    """
    e, w, n, s = full_arms(inside)
    interior = inside & e & w & n & s
    return interior, inside & ~interior


def profile_height(g, R: float) -> float:
    """The sampled max of the profile g on [0, R]: a height that clips no off-axis peak."""
    return float(np.max(g(np.linspace(0.0, R, 1025))))


def build_grid(d: MeridianDomain, nr: int, nz: int, *, t: float = 1.0,
               rmax: float | None = None, zmax: float | None = None) -> MeridianGrid:
    """Classify nodes and compute cut-arm fractions for d at homotopy step t.

    The grid is that of g_t (`MeridianDomain.profile_at`); t = 1 is d
    itself. Explicit rmax/zmax let a fixed bounding box cover a whole
    homotopy run (`MeridianDomain.homotopy_box`); the defaults are R_t and
    `profile_height`. Every arm that is not full is bisected where it lies,
    in both half-planes.
    """
    if nr < MIN_NODES or nz < MIN_NODES:
        raise ValueError(f"nr and nz must be at least {MIN_NODES}")
    if nz % 2 == 0:
        raise ValueError("nz must be odd so the equator z = 0 is a grid line")

    g = d.profile if t == 1.0 else partial(d.profile_at, t=t)
    R_t = d.first_zero(t)
    g0 = float(g(np.array(0.0)))
    if not np.isfinite(g0) or g0 <= 0:
        raise InvalidProfileError("profile must be positive at r = 0")
    rmax = float(rmax) if rmax is not None else R_t
    zmax = float(zmax) if zmax is not None else profile_height(g, R_t)

    rs, zs = node_axes(nr, nz, rmax, zmax)
    gvals = np.asarray(g(rs), dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise InvalidProfileError("profile returned non-finite values on the grid")

    # Every arm starts full; the bisection below shortens the cut ones.
    grid = MeridianGrid(rs, zs, inside(gvals[None, :], zs[:, None]),
                        *(np.ones((nz, nr)) for _ in range(4)), t=float(t), g=g)
    hr, hz = grid.hr, grid.hz
    if 2.0 * g0 < 3.0 * hz or R_t < 3.0 * hr:
        raise ResolutionTooCoarseError(
            f"domain core ({2 * g0:.3g} x {R_t:.3g}) thinner than 3 cells at "
            f"spacing ({hz:.3g}, {hr:.3g})")

    for theta, full, dr, dz in zip((grid.theta_e, grid.theta_w, grid.theta_n, grid.theta_s),
                                   full_arms(grid.inside),
                                   (hr, -hr, 0.0, 0.0), (0.0, 0.0, hz, -hz)):
        jj, ii = np.nonzero(grid.inside & ~full)
        if jj.size == 0:  # a W arm of a monotone profile is never cut
            continue
        r0, z0 = rs[ii], zs[jj]
        if dz == 0.0:  # a horizontal arm: z stays, r moves
            inside_at = lambda s: inside(g(np.maximum(r0 + s * dr, 0.0)), z0)
        else:  # a vertical arm: r stays, so g is read once per node
            g_r0 = g(r0)
            inside_at = lambda s: inside(g_r0, z0 + s * dz)
        theta[jj, ii] = bisect(inside_at, jj.size)
    return grid


def bisect(inside_at, size: int) -> np.ndarray:
    """Cut-arm fractions of `size` arms: midpoints of the last bracket of `inside_at` on [0, 1]."""
    lo = np.zeros(size)
    hi = np.ones(size)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        ok = inside_at(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


@dataclass
class ValidationReport:
    """Outcome of the simple-domain checks, one line per condition."""

    checks: list  # of (name, passed, detail)
    flags: list   # advisory notes, e.g. "domain nonconvex"

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __str__(self):
        lines = [f"[{'pass' if ok else 'FAIL'}] {name}: {detail}"
                 for name, ok, detail in self.checks]
        lines += [f"[note] {f}" for f in self.flags]
        return "\n".join(lines)


def validate_simple_domain(d: MeridianDomain) -> ValidationReport:
    """Check the defining properties of a simple rotationally symmetric domain.

    Positivity on [0, R), vanishing at R, and monotonicity of the profile
    at 513 samples. Monotone g implies convexity along every coordinate
    axis, and the profile parameterization is even in x_n by construction;
    both facts are recorded as structural checks. A non-concave profile is
    flagged (the domain is then nonconvex) but is not a failure.
    """
    prof = d.profile
    R, a0 = prof.R, prof.a0
    rs = np.linspace(0.0, R, 513)
    vals = np.asarray(prof(rs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidProfileError("profile returned non-finite values")

    eps = 1e-12 * max(a0, 1.0)
    checks = []
    checks.append(("g positive on [0, R)",
                   bool(np.all(vals[:-1] > 0.0)),
                   f"min over samples {vals[:-1].min():.3g}"))
    gR = float(prof(np.array(R)))
    checks.append(("g(R) = 0", abs(gR) <= eps, f"g({R:g}) = {gR:.3g}"))
    diffs = np.diff(vals)
    checks.append(("g nonincreasing",
                   bool(np.all(diffs <= eps)),
                   f"max sampled increase {diffs.max():.3g}"))
    checks.append(("even in x_n", True, "structural: |x_n| < g(r) parameterization"))
    checks.append(("x_i-convex for every axis", bool(np.all(diffs <= eps)),
                   "monotone profile makes every axis-parallel chord interior"))

    flags = []
    dd = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    if np.any(dd > 1e-10 * max(a0, 1.0)):
        flags.append("domain nonconvex: profile is not concave")
    return ValidationReport(checks, flags)
