"""File formats: CPFIELD / CPVOX field persistence and CSV emission.

Both field formats share one layout: optional leading `#` comment lines,
a magic line (`CPFIELD 2`, `CPVOX 2`), the format's ASCII header lines,
a `data` line and then the values as raw little-endian IEEE-754 doubles
(`PAYLOAD_DTYPE`), z-major, exterior nodes or voxels `nan`. The payload
is exactly 8 bytes per value, written and read without any text
conversion, so write -> read -> write is byte-identical and every double
comes back bitwise. `_write` and `_read` serve both formats.

CPFIELD stores a meridian field: header lines `n`, `grid nr nz`,
`extent rmax zmin zmax` and `t`, then nz x nr values. CPVOX stores a
voxel field: `N` and `extent R zmax`, then N^3 values.

A reader raises a ConfigError for a file of any other version, for a
payload of any other length (naming both byte counts), and, naming the
line, for a header line without its keyword or its values, with a value
that is not a number of its kind, or with a value that no grid has: a
dimension n below 2, fewer than 2 nodes or voxels a side, an even nz (no
equator line), an extent that is not finite and positive or a zmin
other than -zmax, or a t outside [0, 1].
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .domain import MeridianDomain, MeridianGrid, build_grid, node_axes
from .errors import ConfigError, GeometryViolationError
from .solver import Field

PAYLOAD_DTYPE = "<f8"  # the payload of both formats: little-endian IEEE-754 doubles


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


# -- The shared layout ----------------------------------------------------------


def _write(path, comments, header, values: np.ndarray) -> None:
    """Comment lines, header lines and `data`, then `values` as the raw payload."""
    head = "".join(line.rstrip("\n") + "\n" for line in (*comments, *header, "data"))
    with open(path, "wb") as fh:
        fh.write(head.encode())
        # Written from this array's own buffer: no copy on a little-endian machine.
        fh.write(np.ascontiguousarray(values, dtype=PAYLOAD_DTYPE).data)


def _keyed(path, lineno: int, line: str, key: str, kind, count: int) -> list:
    """The first `count` values after `key` on header line `lineno`, as `kind`."""
    tokens = line.split()
    if tokens[:1] != [key] or len(tokens) <= count:
        raise ConfigError(f"{path}:{lineno}: expected '{key}' and {count} value(s), got {line!r}")
    try:
        return [kind(tok) for tok in tokens[1:count + 1]]
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: '{key}' needs {count} {kind.__name__} value(s), "
                          f"got {line!r}") from None


def _read(path, magic: str, keys) -> tuple[list, list, int, memoryview]:
    """Split a field file into its comments, header values and payload.

    `keys` holds the (keyword, kind, count) of each header line between
    the magic line and `data`. Returns the leading '#' lines, the values
    of each header line (`_keyed`), the 1-based line number of the first
    header line and the payload bytes after `data`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    comments, lines, pos = [], [], 0
    while len(lines) < len(keys) + 2 and (end := raw.find(b"\n", pos)) >= 0:
        line = raw[pos:end].decode("utf-8", "replace")
        pos = end + 1
        if lines or not line.startswith("#"):
            lines.append(line)
        else:
            comments.append(line)
    first = len(comments) + 2
    try:
        if lines[0] != magic:
            raise ConfigError(f"{path}: expected '{magic}' header")
        values = [_keyed(path, first + k, lines[k + 1], *key) for k, key in enumerate(keys)]
        if lines[len(keys) + 1] != "data":
            raise ConfigError(f"{path}: missing 'data' marker")
    except IndexError as exc:
        raise ConfigError(f"{path}: malformed {magic.split()[0]} header: {exc}") from exc
    return comments, values, first, memoryview(raw)[pos:]


def _payload(path, payload: memoryview, shape: tuple) -> np.ndarray:
    """The payload as a read-only array of `shape`; any other length is a ConfigError."""
    expected, found = 8 * math.prod(shape), len(payload)
    if found != expected:
        raise ConfigError(f"{path}: expected {expected} payload bytes after 'data', "
                          f"found {found}")
    return np.frombuffer(payload, dtype=PAYLOAD_DTYPE).reshape(shape)


# -- CPFIELD ------------------------------------------------------------------


def write_field(f: Field, path, comments=()) -> None:
    g = f.grid
    _write(path, comments,
           ["CPFIELD 2", f"n {f.n}", f"grid {g.nr} {g.nz}",
            f"extent {fmt(g.rmax)} {fmt(-g.zmax)} {fmt(g.zmax)}", f"t {fmt(g.t)}"],
           np.where(g.inside, f.values, np.nan))


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
    comments, header, line, payload = _read(
        path, "CPFIELD 2", (("n", int, 1), ("grid", int, 2), ("extent", float, 3), ("t", float, 1)))
    (n,), (nr, nz), (rmax, zmin, zmax), (t,) = header
    if n < 2:
        raise ConfigError(f"{path}:{line}: n {n} needs a dimension n >= 2")
    if nr < 2 or nz < 2 or nz % 2 == 0:
        raise ConfigError(f"{path}:{line + 1}: grid {nr} {nz} needs nr >= 2 and an odd nz >= 3")
    if not (0.0 < rmax < np.inf and 0.0 < zmax < np.inf and zmin == -zmax):
        raise ConfigError(f"{path}:{line + 2}: extent needs finite rmax, zmax > 0, zmin = -zmax")
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"{path}:{line + 3}: t {t:g} must lie in [0, 1]")
    vals = _payload(path, payload, (nz, nr))
    inside = ~np.isnan(vals)
    grid = MeridianGrid(*node_axes(nr, nz, rmax, zmax), inside,
                        *(np.ones((nz, nr)) for _ in range(4)), t=t)
    return Field(grid, vals, n), comments


def on_domain(f: Field, d: MeridianDomain) -> Field:
    """A field from `read_field` on the grid that domain d gives its header.

    The grid is `build_grid` of d at the file's t (the homotopy step; t = 1
    is d itself) with the file's resolution and extent, so cut-arm
    fractions and the profile are the true ones. A file whose dimension or
    nan pattern disagrees with that grid raises GeometryViolationError.
    """
    g = f.grid
    if f.n != d.n:
        raise GeometryViolationError(f"field has n = {f.n}, the domain has n = {d.n}")
    try:
        grid = build_grid(d, g.nr, g.nz, t=g.t, rmax=g.rmax, zmax=g.zmax)
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
    """Values on voxel centers of [-R, R]^2 x [-zmax, zmax]; outside = 0.

    (R, zmax) is the body's own box `MeridianDomain.box`: the profile's first
    zero and the body's half-height, the two values of the CPVOX `extent` line.
    """

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


def write_voxels(v: VoxelField, path) -> None:
    _write(path, (), ["CPVOX 2", f"N {v.N}", f"extent {fmt(v.xs[-1])} {fmt(v.zs[-1])}"],
           np.where(v.mask, v.values, np.nan))


def read_voxels(path) -> VoxelField:
    _, header, line, payload = _read(path, "CPVOX 2", (("N", int, 1), ("extent", float, 2)))
    (N,), (R, zmax) = header
    if N < 2:
        raise ConfigError(f"{path}:{line}: N {N} needs at least 2 voxels a side")
    if not (0.0 < R < np.inf and 0.0 < zmax < np.inf):
        raise ConfigError(f"{path}:{line + 1}: extent needs finite R, zmax > 0")
    vals = _payload(path, payload, (N, N, N))
    mask = ~np.isnan(vals)
    return VoxelField(N, _symmetric_coords(R, N), _symmetric_coords(R, N),
                      _symmetric_coords(zmax, N), mask, np.where(mask, vals, 0.0))


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
    out.write("lambda1,residual,iterations,stable,margin,single_signed,shift\n")
    out.write(f"{fmt(report.lambda1)},{fmt(report.residual)},{report.iterations},"
              f"{fmt_bool(report.stable)},{fmt(report.margin)},"
              f"{fmt_bool(report.single_signed)},{fmt(report.shift)}\n")
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
