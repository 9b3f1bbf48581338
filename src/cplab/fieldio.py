"""File formats: CPFIELD / CPVOX field persistence and CSV emission.

Both field formats are plain ASCII with a fixed header and one data line
per z level, values printed with 17 significant digits so that
write -> read -> write round-trips byte-identically and runs with the
same configuration produce byte-identical artifacts. Exterior nodes are
written as `nan`.

Writers format a whole block of rows with one %-format call and readers
parse the data block with one `np.loadtxt`; the bytes are those of
`fmt` applied value by value, and the parsed values are those of
`float` applied token by token. A data line with the wrong number of
values or a token that is not a number raises ConfigError naming the
file and the line's 1-based number (header and comment lines counted),
and so does a header size that no grid has (fewer than 2 nodes or
voxels a side, or an even nz, which has no equator line).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .domain import HomotopyFamily, MeridianDomain, MeridianGrid, build_grid, node_axes
from .errors import ConfigError, GeometryViolationError
from .solver import Field


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal formatting (round-trip exact)."""
    return f"{float(x):.17g}"


def fmt_bool(b) -> str:
    return "true" if b else "false"


def _format_rows(block: np.ndarray, sep: str = " ") -> str:
    """A 2-D array as text, one line per row, each value as `fmt` prints it.

    "%.17g" % x and f"{x:.17g}" give the same bytes for every double, so
    one %-format call per block replaces one Python call per value.
    """
    nrows, ncols = block.shape
    return ((sep.join(["%.17g"] * ncols) + "\n") * nrows) % tuple(block.ravel().tolist())


def _parse_rows(path, rows: list[str], first_line: int, ncols: int) -> np.ndarray:
    """The data lines `rows` as a (len(rows), ncols) array.

    `first_line` is the 1-based line number of rows[0] in the file. A
    line with the wrong number of values or a token that is not a number
    raises ConfigError naming that line.
    """
    try:
        vals = np.loadtxt(rows, dtype=float, ndmin=2, comments=None)
        if vals.shape == (len(rows), ncols):
            return vals
    except ValueError:
        pass
    # Only a malformed block gets here: find its first bad line.
    for line, row in enumerate(rows, start=first_line):
        found = len(row.split())
        if found != ncols:
            raise ConfigError(f"{path}:{line}: expected {ncols} values, found {found}")
        try:
            np.loadtxt([row], dtype=float, comments=None)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line}: {exc}") from None
    raise ConfigError(f"{path}: malformed data block")


# -- CPFIELD ------------------------------------------------------------------


def write_field(f: Field, path, comments=()) -> None:
    g = f.grid
    vals = np.where(g.inside, f.values, np.nan)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line.rstrip("\n") + "\n")
        fh.write("CPFIELD 1\n")
        fh.write(f"n {f.n}\n")
        fh.write(f"grid {g.nr} {g.nz}\n")
        fh.write(f"extent {fmt(g.rmax)} {fmt(-g.zmax)} {fmt(g.zmax)}\n")
        fh.write(f"t {fmt(g.t)}\n")
        fh.write("data\n")
        fh.write(_format_rows(vals))


def read_field(path):
    """Read a CPFIELD file; returns (Field, comments).

    The grid is the MeridianGrid of the header's node axes (`node_axes`)
    and the nan pattern, so everything it derives from them (spacings,
    extent, node coordinates and the node classes `interior` and
    `boundary_adjacent`) is that of the grid the field was solved on. It
    has no profile attached and every cut fraction is 1, so only
    geometry-free uses (round trips, heat maps, the census) are sound.
    `on_domain` restores the true grid for checks.
    """
    comments = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        comments.append(lines[k])
        k += 1
    try:
        if lines[k] != "CPFIELD 1":
            raise ConfigError(f"{path}: expected 'CPFIELD 1' header")
        n = int(lines[k + 1].split()[1])
        nr, nz = (int(tok) for tok in lines[k + 2].split()[1:3])
        if nr < 2 or nz < 2 or nz % 2 == 0:
            raise ConfigError(f"{path}:{k + 3}: grid {nr} {nz} needs nr >= 2 and an odd nz >= 3")
        rmax, zmin, zmax = (float(tok) for tok in lines[k + 3].split()[1:4])
        t = float(lines[k + 4].split()[1])
        if lines[k + 5] != "data":
            raise ConfigError(f"{path}: missing 'data' marker")
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed CPFIELD header: {exc}") from exc
    rows = lines[k + 6:k + 6 + nz]
    if len(rows) != nz:
        raise ConfigError(f"{path}: expected {nz} data lines")
    vals = _parse_rows(path, rows, k + 7, nr)
    inside = ~np.isnan(vals)
    grid = MeridianGrid(*node_axes(nr, nz, rmax, zmax), inside,
                        *(np.ones((nz, nr)) for _ in range(4)), t=t)
    return Field(grid, vals, n), comments


def on_domain(f: Field, d: MeridianDomain) -> Field:
    """A field from `read_field` on the grid that domain d gives its header.

    The grid is rebuilt from d (the homotopy family at the file's t when
    t < 1) with the file's resolution and extent, so cut-arm fractions and
    the profile are the true ones. A file whose dimension or nan pattern
    disagrees with that grid raises GeometryViolationError.
    """
    g = f.grid
    if f.n != d.n:
        raise GeometryViolationError(f"field has n = {f.n}, the domain has n = {d.n}")
    try:
        grid = build_grid(d if g.t == 1.0 else HomotopyFamily(d), g.nr, g.nz,
                          t=g.t, rmax=g.rmax, zmax=g.zmax)
    except ValueError as exc:
        raise GeometryViolationError(f"field grid does not fit the domain: {exc}") from None
    differ = int(np.count_nonzero(grid.inside != g.inside))
    if differ:
        raise GeometryViolationError(
            f"field nan pattern differs from the domain's inside mask at {differ} "
            f"of {g.nr}x{g.nz} nodes")
    return Field(grid, f.values, f.n)


# -- CPVOX --------------------------------------------------------------------


@dataclass
class VoxelField:
    """Values on voxel centers of [-R, R]^2 x [-a0, a0]; outside = 0."""

    N: int
    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    mask: np.ndarray    # inside voxels, shape (N, N, N) ordered [z, y, x]
    values: np.ndarray

    @property
    def spacings(self):
        return (self.xs[1] - self.xs[0], self.ys[1] - self.ys[0],
                self.zs[1] - self.zs[0])


def _symmetric_coords(extent: float, N: int) -> np.ndarray:
    # (i - (N-1)/2) * dx is bitwise antisymmetric under i -> N-1-i.
    dx = 2.0 * extent / (N - 1)
    return (np.arange(N) - (N - 1) / 2.0) * dx


def write_voxels(v: VoxelField, path, comments=()) -> None:
    vals = np.where(v.mask, v.values, np.nan)
    R = float(v.xs[-1])
    a0 = float(v.zs[-1])
    with open(path, "w") as fh:
        for line in comments:
            fh.write(line.rstrip("\n") + "\n")
        fh.write("CPVOX 1\n")
        fh.write(f"N {v.N}\n")
        fh.write(f"extent {fmt(R)} {fmt(a0)}\n")
        fh.write("data\n")
        for slab in vals:
            fh.write(_format_rows(slab))


def read_voxels(path) -> VoxelField:
    with open(path) as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    try:
        if lines[k] != "CPVOX 1":
            raise ConfigError(f"{path}: expected 'CPVOX 1' header")
        N = int(lines[k + 1].split()[1])
        if N < 2:
            raise ConfigError(f"{path}:{k + 2}: N {N} needs at least 2 voxels a side")
        R, a0 = (float(tok) for tok in lines[k + 2].split()[1:3])
        if lines[k + 3] != "data":
            raise ConfigError(f"{path}: missing 'data' marker")
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed CPVOX header: {exc}") from exc
    rows = lines[k + 4:k + 4 + N * N]
    if len(rows) != N * N:
        raise ConfigError(f"{path}: expected {N * N} data lines")
    vals = _parse_rows(path, rows, k + 5, N).reshape(N, N, N)
    mask = ~np.isnan(vals)
    return VoxelField(N, _symmetric_coords(R, N), _symmetric_coords(R, N),
                      _symmetric_coords(a0, N), mask, np.where(mask, vals, 0.0))


# -- CSV emission --------------------------------------------------------------


def solve_report_csv(report) -> str:
    out = io.StringIO()
    out.write("newton_iterations,final_residual,converged,damping_events,min_value\n")
    out.write(f"{report.newton_iterations},{fmt(report.final_residual)},"
              f"{fmt_bool(report.converged)},{report.damping_events},"
              f"{fmt(report.min_value)}\n")
    return out.getvalue()


def stability_csv(report) -> str:
    out = io.StringIO()
    out.write("lambda1,residual,iterations,stable,margin,single_signed\n")
    out.write(f"{fmt(report.lambda1)},{fmt(report.residual)},{report.iterations},"
              f"{fmt_bool(report.stable)},{fmt(report.margin)},"
              f"{fmt_bool(report.single_signed)}\n")
    return out.getvalue()


def census_csv(census, n: int) -> str:
    out = io.StringIO()
    eigs = ",".join(f"eig{k + 1}" for k in range(n))
    out.write(f"r,z,on_axis,type,grad_residual,{eigs}\n")
    for p in census.points:
        ev = np.linalg.eigvalsh(0.5 * (p.hessian + p.hessian.T))
        out.write(f"{fmt(p.r)},{fmt(p.z)},{fmt_bool(p.on_axis)},{p.type},"
                  f"{fmt(p.gradient_residual)},"
                  + ",".join(fmt(e) for e in ev) + "\n")
    return out.getvalue()


def verification_csv(report) -> str:
    out = io.StringIO()
    out.write("check,margin,tolerance,pass\n")
    for r in report.rows:
        out.write(f"{r.name},{fmt(r.margin)},{fmt(r.tolerance)},{fmt_bool(r.passed)}\n")
    return out.getvalue()


def continuation_csv(record) -> str:
    """One row per accepted step; every recorded step converged."""
    out = io.StringIO()
    out.write("t,converged,lambda1,cp_count,m_z,m_r,runtime_s\n")
    for s in record.steps:
        out.write(f"{fmt(s.t)},true,{fmt(s.lambda1)},"
                  f"{s.cp_count},{fmt(s.m_z)},{fmt(s.m_r)},{fmt(s.runtime_s)}\n")
    return out.getvalue()


def oracle_csv(row: dict) -> str:
    """One header line of the row's keys, one line of its values."""
    return ",".join(row) + "\n" + ",".join(fmt(v) for v in row.values()) + "\n"


def heatmap_csv(f: Field) -> str:
    """Meridian samples as r,z,u triplets (exterior nodes as nan)."""
    g = f.grid
    u = np.where(g.inside, f.values, np.nan)
    rows = np.column_stack([g.R.ravel(), g.Z.ravel(), u.ravel()])
    return "r,z,u\n" + _format_rows(rows, sep=",")
