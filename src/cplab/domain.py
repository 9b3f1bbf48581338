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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidProfileError, ResolutionTooCoarseError

_BISECT_STEPS = 45  # 2^-45 < 1e-13 relative arm tolerance; theta in [2^-46, 1 - 2^-46]
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
    """A simple rotationally symmetric domain in R^n along the x_n axis."""

    n: int
    profile: ProfileFunction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("spatial dimension must be >= 2")

    def inside(self, r, z):
        """Membership test: 0 <= r < R and |z| < g(r)."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        return (r >= 0) & (np.abs(z) < self.profile(r))


@dataclass(frozen=True)
class HomotopyFamily:
    """Continuous deformation from the ball B_a (t=0) to the target (t=1)."""

    target: MeridianDomain

    @property
    def a(self) -> float:
        """Radius of the starting ball: the target's half-height on the axis."""
        return self.target.profile.a0

    def profile_at(self, r, t: float):
        """g_t(r) = t*g(r) + (1-t)*sqrt(a^2 - r^2), both parts zero-extended."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("homotopy parameter t must lie in [0, 1]")
        r = np.asarray(r, dtype=float)
        cap = np.sqrt(np.maximum(self.a * self.a - r * r, 0.0))
        return t * self.target.profile(r) + (1.0 - t) * cap

    def first_zero(self, t: float) -> float:
        R = self.target.profile.R
        if t <= 0.0:
            return self.a
        if t >= 1.0:
            return R
        return max(self.a, R)


@dataclass(frozen=True)
class MeridianGrid:
    """Uniform embedded-boundary grid on [0, rmax] x [-zmax, zmax].

    Arrays are indexed [j, i] with j the z index (ascending) and i the
    r index. `theta_*` are the arm lengths, as fractions of the spacing,
    toward E(+r), W(-r), N(+z), S(-z): exactly 1.0 on every full arm (see
    `full_arms`) and the bisected boundary distance, in (0, 1), where the
    arm crosses the boundary. The solver's operator and derivatives take
    their arm lengths from them as they are, for any active set within
    `inside`. Mirror symmetry in z is exact by construction. x_n stays on
    the vertical axis of the plot plane: the node (i=0, j=j_equator) is the
    origin o.

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


def build_grid(d, nr: int, nz: int, *, t: float | None = None,
               rmax: float | None = None, zmax: float | None = None) -> MeridianGrid:
    """Classify nodes and compute cut-arm fractions for a domain.

    `d` is a MeridianDomain, or a HomotopyFamily with the parameter `t`.
    Explicit rmax/zmax let a fixed bounding box cover a whole homotopy run;
    the default zmax, the sampled max of g on [0, R], clips no off-axis peak.
    """
    if nr < MIN_NODES or nz < MIN_NODES:
        raise ValueError(f"nr and nz must be at least {MIN_NODES}")
    if nz % 2 == 0:
        raise ValueError("nz must be odd so the equator z = 0 is a grid line")

    if isinstance(d, HomotopyFamily):
        if t is None:
            raise ValueError("build_grid on a HomotopyFamily requires t")
        g = lambda r: d.profile_at(r, t)
        R_t = d.first_zero(t)
        t_val = float(t)
    else:
        g = d.profile
        R_t = d.profile.R
        t_val = 1.0 if t is None else float(t)

    g0 = float(g(np.array(0.0)))
    if not np.isfinite(g0) or g0 <= 0:
        raise InvalidProfileError("profile must be positive at r = 0")
    rmax = float(rmax) if rmax is not None else R_t
    zmax = float(zmax) if zmax is not None else max(
        g0, float(np.max(g(np.linspace(0.0, R_t, 1025)))))

    rs, zs = node_axes(nr, nz, rmax, zmax)
    gvals = np.asarray(g(rs), dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise InvalidProfileError("profile returned non-finite values on the grid")

    # Classify the upper half (z >= 0) and mirror; |zs| is bitwise even.
    # Every arm starts full; the bisection below shortens the cut ones.
    grid = MeridianGrid(rs, zs, np.abs(zs)[:, None] < gvals[None, :],
                        *(np.ones((nz, nr)) for _ in range(4)), t=t_val, g=g)
    hr, hz, jmid = grid.hr, grid.hz, grid.j_equator

    if 2.0 * g0 < 3.0 * hz or R_t < 3.0 * hr:
        raise ResolutionTooCoarseError(
            f"domain core ({2 * g0:.3g} x {R_t:.3g}) thinner than 3 cells at "
            f"spacing ({hz:.3g}, {hr:.3g})")

    def inside_pt(r, z):
        return np.abs(z) < np.asarray(g(np.maximum(r, 0.0)), dtype=float)

    def cut_fraction(target, mask, dr, dz):
        """Bisect the inside/outside transition along one arm direction."""
        jj, ii = np.nonzero(mask)
        if jj.size == 0:
            return
        r0, z0 = grid.R[jj, ii], grid.Z[jj, ii]
        lo = np.zeros(jj.size)
        hi = np.ones(jj.size)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            ok = inside_pt(r0 + mid * dr, z0 + mid * dz)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        target[jj, ii] = 0.5 * (lo + hi)

    upper = np.zeros_like(grid.inside)
    upper[jmid:, :] = grid.inside[jmid:, :]
    theta_e, theta_w, theta_n, theta_s = grid.theta_e, grid.theta_w, grid.theta_n, grid.theta_s

    # Bisect the arms that are not full, in the upper half.
    for target, full, dr, dz in zip((theta_e, theta_w, theta_n, theta_s), full_arms(grid.inside),
                                    (hr, -hr, 0.0, 0.0), (0.0, 0.0, hz, -hz)):
        cut_fraction(target, upper & ~full, dr, dz)

    # Mirror the upper half onto the lower half: N and S swap.
    theta_e[:jmid, :] = theta_e[nz - 1:jmid:-1, :]
    theta_w[:jmid, :] = theta_w[nz - 1:jmid:-1, :]
    theta_n[:jmid, :] = theta_s[nz - 1:jmid:-1, :]
    theta_s[:jmid, :] = theta_n[nz - 1:jmid:-1, :]
    return grid


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
