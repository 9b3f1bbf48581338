import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cplab import domain as dm
from cplab import fieldio
from cplab import solver as sv
from cplab.errors import ConfigError
from cplab.fieldio import VoxelField, _symmetric_coords

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def meridian_fields(draw):
    a = draw(st.floats(0.5, 2.0))
    b = draw(st.floats(0.3, 2.0))
    nr = draw(st.integers(9, 20))
    nz = 2 * draw(st.integers(5, 12)) + 1
    grid = dm.build_grid(dm.MeridianDomain(3, dm.spheroid(a, b)), nr, nz)
    vals = draw(arrays(float, (nz, nr), elements=FINITE))
    return sv.Field(grid, np.where(grid.inside, vals, 0.0), draw(st.integers(2, 6)))


@st.composite
def voxel_fields(draw):
    N = draw(st.integers(2, 7))
    R = draw(st.floats(1e-3, 1e3))
    a0 = draw(st.floats(1e-3, 1e3))
    mask = draw(arrays(bool, (N, N, N)))
    vals = draw(arrays(float, (N, N, N), elements=FINITE))
    xs = _symmetric_coords(R, N)
    return VoxelField(N, xs, xs, _symmetric_coords(a0, N), mask, np.where(mask, vals, 0.0))


@settings(max_examples=60, deadline=None)
@given(meridian_fields())
def test_cpfield_round_trip_is_byte_identical(tmp_path_factory, f):
    d = tmp_path_factory.mktemp("cpfield")
    fieldio.write_field(f, d / "a.cpfield")
    g, comments = fieldio.read_field(d / "a.cpfield")
    fieldio.write_field(g, d / "b.cpfield")
    assert comments == []
    assert (d / "a.cpfield").read_bytes() == (d / "b.cpfield").read_bytes()
    assert np.array_equal(g.grid.inside, f.grid.inside)
    assert np.array_equal(g.values, f.values)
    assert g.n == f.n


@settings(max_examples=60, deadline=None)
@given(voxel_fields())
def test_cpvox_round_trip_is_byte_identical(tmp_path_factory, v):
    d = tmp_path_factory.mktemp("cpvox")
    fieldio.write_voxels(v, d / "a.cpvox")
    w = fieldio.read_voxels(d / "a.cpvox")
    fieldio.write_voxels(w, d / "b.cpvox")
    assert (d / "a.cpvox").read_bytes() == (d / "b.cpvox").read_bytes()
    assert np.array_equal(w.mask, v.mask)
    assert np.array_equal(w.values, v.values)


# -- Reference formats: one f-string per value.


def fmt(x):
    return f"{float(x):.17g}"


def reference_heatmap_csv(f):
    g = f.grid
    vals = np.where(g.inside, f.values, np.nan)
    lines = ["r,z,u\n"]
    for j in range(g.nz):
        for i in range(g.nr):
            lines.append(f"{fmt(g.rs[i])},{fmt(g.zs[j])},{fmt(vals[j, i])}\n")
    return "".join(lines)


def cpfield_header(f, comments=()):
    g = f.grid
    lines = [*comments, "CPFIELD 2", f"n {f.n}", f"grid {g.nr} {g.nz}",
             f"extent {fmt(g.rmax)} {fmt(-g.zmax)} {fmt(g.zmax)}", f"t {fmt(g.t)}", "data"]
    return "".join(line + "\n" for line in lines).encode()


def cpvox_header(v):
    return f"CPVOX 2\nN {v.N}\nextent {fmt(float(v.xs[-1]))} {fmt(float(v.zs[-1]))}\ndata\n".encode()


# Signed zeros, the smallest and largest subnormals, the largest doubles
# and the non-finite values, mixed with arbitrary doubles.
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
        1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf]
ANY_DOUBLE = st.one_of(st.sampled_from(EDGE), st.floats(width=64))
COMMENTS = st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\r\n"))
                    .map(lambda s: "#" + s), max_size=3)
READERS = {"cpfield": fieldio.read_field, "cpvox": fieldio.read_voxels}


def write_any(kind, data, path):
    """Write a drawn field of `kind` holding arbitrary doubles to path.

    CPFIELDs get drawn comments too. Returns the header the file must
    start with, the inside mask and the values.
    """
    if kind == "cpfield":
        f = data.draw(meridian_fields())
        f = sv.Field(f.grid, data.draw(arrays(float, f.values.shape, elements=ANY_DOUBLE)), f.n)
        comments = data.draw(COMMENTS)
        fieldio.write_field(f, path, comments=comments)
        return cpfield_header(f, comments), f.grid.inside, f.values
    v = data.draw(voxel_fields())
    # Exterior entries are arbitrary too: the writer must store them as nan.
    v = VoxelField(v.N, v.xs, v.ys, v.zs, v.mask,
                   data.draw(arrays(float, v.values.shape, elements=ANY_DOUBLE)))
    fieldio.write_voxels(v, path)
    return cpvox_header(v), v.mask, v.values


def read_back(kind, path):
    """(inside mask, values) of the field stored at path."""
    if kind == "cpfield":
        f, _ = fieldio.read_field(path)
        return f.grid.inside, f.values
    v = fieldio.read_voxels(path)
    return v.mask, v.values


@pytest.mark.parametrize("kind", ["cpfield", "cpvox"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_payload_is_the_raw_little_endian_doubles(tmp_path_factory, kind, data):
    path = tmp_path_factory.mktemp(kind) / f"f.{kind}"
    header, inside, values = write_any(kind, data, path)
    stored = np.where(inside, values, np.nan)
    assert path.read_bytes() == header + stored.astype("<f8").tobytes()
    # Decoding is bitwise: signed zeros, subnormals and infinities come back as written.
    mask, back = read_back(kind, path)
    assert np.array_equal(mask, ~np.isnan(stored))
    assert back[mask].tobytes() == stored[mask].tobytes()
    assert not back[~mask].any()


def ball_field(nr, nz):
    """The exact torsion solution (1 - r^2 - z^2) / 6 on an nr x nz unit-ball grid."""
    grid = dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), nr, nz)
    r, z = np.meshgrid(grid.rs, grid.zs)
    return sv.Field(grid, np.where(grid.inside, (1.0 - r * r - z * z) / 6.0, 0.0), 3)


def test_heatmap_csv_bytes_equal_the_per_value_loop():
    f = ball_field(33, 65)
    assert fieldio.heatmap_csv(f) == reference_heatmap_csv(f)


# -- Payloads of the wrong length and version 1 files: ConfigError.


def write_with_comments(kind, path):
    """A small valid file behind two comment lines; returns (payload offset, payload bytes).

    The CPVOX writer prints no comments, so they are put in front of its bytes here.
    """
    comments = ["# first", "# second"]
    if kind == "cpfield":
        f = ball_field(9, 17)
        fieldio.write_field(f, path, comments=comments)
        return len(cpfield_header(f, comments)), 8 * 9 * 17
    xs = _symmetric_coords(1.0, 4)
    v = VoxelField(4, xs, xs, xs, np.ones((4, 4, 4), dtype=bool),
                   np.arange(64.0).reshape(4, 4, 4))
    fieldio.write_voxels(v, path)
    prefix = "".join(line + "\n" for line in comments).encode()
    path.write_bytes(prefix + path.read_bytes())
    return len(prefix) + len(cpvox_header(v)), 8 * 64


def cut_payload(path, start, size, change):
    """Make the payload at `start` 8 bytes short, 1 byte long or empty; returns its length."""
    found = {"8 bytes short": size - 8, "1 byte long": size + 1, "empty": 0}[change]
    data = path.read_bytes()
    path.write_bytes(data[:start] + (data[start:] + b"\0")[:found])
    return found


@pytest.mark.parametrize("change", ["8 bytes short", "1 byte long", "empty"])
@pytest.mark.parametrize("kind", ["cpfield", "cpvox"])
def test_payload_of_the_wrong_length_is_a_config_error(tmp_path, kind, change):
    path = tmp_path / f"f.{kind}"
    start, size = write_with_comments(kind, path)
    found = cut_payload(path, start, size, change)
    with pytest.raises(ConfigError) as err:
        READERS[kind](path)
    assert str(err.value) == f"{path}: expected {size} payload bytes after 'data', found {found}"


@pytest.mark.parametrize("kind, text", [
    ("cpfield", "# text\nCPFIELD 1\nn 3\ngrid 2 3\nextent 1 -1 1\nt 1\ndata\n" + "0 0\n" * 3),
    ("cpvox", "# text\nCPVOX 1\nN 2\nextent 1 1\ndata\n" + "0 0\n" * 4),
])
def test_version_1_text_file_is_a_config_error(tmp_path, kind, text):
    path = tmp_path / f"f.{kind}"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        READERS[kind](path)
    assert str(err.value) == f"{path}: expected '{kind.upper()} 2' header"


VERIFY_BALL = ("[domain]\nkind = ball\na = 1.0\nn = 3\n"
               "[nonlinearity]\nform = constant\nc = 1.0\n[grid]\nnr = 9\nnz = 17\n")


def verify_field(tmp_path, path):
    """`cplab verify --field path` on the unit ball at 9x17; returns its exit status."""
    from cplab.cli import main
    cfg = tmp_path / "run.cfg"
    cfg.write_text(VERIFY_BALL)
    return main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--field", str(path), "--quiet"])


def test_verify_field_with_a_short_payload_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "u.cpfield"
    start, size = write_with_comments("cpfield", path)
    found = cut_payload(path, start, size, "8 bytes short")
    assert verify_field(tmp_path, path) == 2
    assert (capsys.readouterr().err == f"config error: {path}: expected {size} payload "
                                       f"bytes after 'data', found {found}\n")


# -- Impossible headers: ConfigError naming the header line.
# Each helper takes the header lines whole, so a row can change one of them.


def cpfield_bytes(nr, nz, n="n 3", grid=None, extent="extent 1 -1 1", t="t 1"):
    grid = grid or f"grid {nr} {nz}"
    payload = bytes(8 * max(nr, 0) * max(nz, 0))
    return f"# sizes\nCPFIELD 2\n{n}\n{grid}\n{extent}\n{t}\ndata\n".encode() + payload


def cpvox_bytes(N, size=None, extent="extent 1 1"):
    size = size or f"N {N}"
    payload = bytes(8 * max(N, 0) ** 3)
    return f"# sizes\nCPVOX 2\n{size}\n{extent}\ndata\n".encode() + payload


@pytest.mark.parametrize("kind, data, line", [
    ("cpfield", cpfield_bytes(1, 3), 4),
    ("cpfield", cpfield_bytes(3, 1), 4),
    ("cpfield", cpfield_bytes(0, 0), 4),
    ("cpfield", cpfield_bytes(3, 4), 4),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 1 -0.5 1"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 1 1 -1"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent nan -1 1"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 0 -1 1"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent inf -1 1"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 1 -0 0"), 5),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 1 nan nan"), 5),
    ("cpfield", cpfield_bytes(3, 3, t="t 1.5"), 6),
    ("cpfield", cpfield_bytes(3, 3, t="t -0.25"), 6),
    ("cpfield", cpfield_bytes(3, 3, t="t nan"), 6),
    ("cpfield", cpfield_bytes(3, 3, n="n 0"), 3),
    ("cpfield", cpfield_bytes(3, 3, n="n -4"), 3),
    ("cpfield", cpfield_bytes(3, 3, n="n 1"), 3),
    ("cpfield", cpfield_bytes(3, 3, n="dim 3"), 3),
    ("cpfield", cpfield_bytes(9, 9, grid="size 9 9"), 4),
    ("cpfield", cpfield_bytes(3, 3, extent="box 1 -1 1"), 5),
    ("cpfield", cpfield_bytes(3, 3, t="time 1"), 6),
    ("cpfield", cpfield_bytes(3, 3, n="n"), 3),
    ("cpfield", cpfield_bytes(3, 3, grid="grid 3"), 4),
    ("cpfield", cpfield_bytes(3, 3, n="n three"), 3),
    ("cpfield", cpfield_bytes(3, 3, extent="extent 1 x 1"), 5),
    ("cpvox", cpvox_bytes(1), 3),
    ("cpvox", cpvox_bytes(0), 3),
    ("cpvox", cpvox_bytes(-2), 3),
    ("cpvox", cpvox_bytes(2, extent="extent nan 1"), 4),
    ("cpvox", cpvox_bytes(2, extent="extent 1 0"), 4),
    ("cpvox", cpvox_bytes(2, extent="extent -1 1"), 4),
    ("cpvox", cpvox_bytes(2, extent="extent 1 inf"), 4),
    ("cpvox", cpvox_bytes(2, size="size 2"), 3),
    ("cpvox", cpvox_bytes(2, extent="box 1 1"), 4),
    ("cpvox", cpvox_bytes(2, extent="extent 1"), 4),
    ("cpvox", cpvox_bytes(2, size="N many"), 3),
])
def test_impossible_header_size_is_a_config_error_naming_its_line(tmp_path, kind, data, line):
    path = tmp_path / f"f.{kind}"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            READERS[kind](path)
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("kind, data", [("cpfield", cpfield_bytes(2, 3)),
                                        ("cpvox", cpvox_bytes(2))])
def test_header_size_two_reads(tmp_path, kind, data):
    path = tmp_path / f"f.{kind}"
    path.write_bytes(data)
    READERS[kind](path)


def test_verify_field_with_a_one_column_grid_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "u.cpfield"
    path.write_bytes(cpfield_bytes(1, 3))
    assert verify_field(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:4: ")
