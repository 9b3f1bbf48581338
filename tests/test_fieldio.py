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


# -- Reference writers: one f-string per value; the block formatter must match their bytes.


def fmt(x):
    return f"{float(x):.17g}"


def reference_write_field(f, path, comments=()):
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
        for j in range(g.nz):
            fh.write(" ".join(fmt(v) for v in vals[j, :]) + "\n")


def reference_heatmap_csv(f):
    g = f.grid
    vals = np.where(g.inside, f.values, np.nan)
    lines = ["r,z,u\n"]
    for j in range(g.nz):
        for i in range(g.nr):
            lines.append(f"{fmt(g.rs[i])},{fmt(g.zs[j])},{fmt(vals[j, i])}\n")
    return "".join(lines)


# Signed zeros, the smallest and largest subnormals, the largest doubles
# and the non-finite values, mixed with arbitrary doubles.
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
        1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf]
ANY_DOUBLE = st.one_of(st.sampled_from(EDGE), st.floats(width=64))
COMMENTS = st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\r\n"))
                    .map(lambda s: "#" + s), max_size=3)


@settings(max_examples=60, deadline=None)
@given(meridian_fields(), st.data())
def test_write_field_bytes_equal_the_per_value_writer(tmp_path_factory, f, data):
    # Exterior entries are arbitrary too: the writer must print them as nan.
    f = sv.Field(f.grid, data.draw(arrays(float, f.values.shape, elements=ANY_DOUBLE)), f.n)
    comments = data.draw(COMMENTS)
    d = tmp_path_factory.mktemp("golden")
    fieldio.write_field(f, d / "new.cpfield", comments=comments)
    reference_write_field(f, d / "ref.cpfield", comments=comments)
    assert (d / "new.cpfield").read_bytes() == (d / "ref.cpfield").read_bytes()


def cpvox_header(v):
    return f"CPVOX 2\nN {v.N}\nextent {fmt(float(v.xs[-1]))} {fmt(float(v.zs[-1]))}\ndata\n".encode()


@settings(max_examples=60, deadline=None)
@given(voxel_fields(), st.data())
def test_write_voxels_payload_is_the_raw_little_endian_doubles(tmp_path_factory, v, data):
    # Exterior entries are arbitrary too: the writer must store them as nan.
    v = VoxelField(v.N, v.xs, v.ys, v.zs, v.mask,
                   data.draw(arrays(float, v.values.shape, elements=ANY_DOUBLE)))
    stored = np.where(v.mask, v.values, np.nan)
    path = tmp_path_factory.mktemp("cpvox2") / "v.cpvox"
    fieldio.write_voxels(v, path)
    assert path.read_bytes() == cpvox_header(v) + stored.astype("<f8").tobytes()
    # Decoding is bitwise: signed zeros, subnormals and infinities come back as written.
    w = fieldio.read_voxels(path)
    assert np.array_equal(w.mask, ~np.isnan(stored))
    assert w.values[w.mask].tobytes() == stored[w.mask].tobytes()
    assert not w.values[~w.mask].any()


def ball_field(nr, nz):
    """The exact torsion solution (1 - r^2 - z^2) / 6 on an nr x nz unit-ball grid."""
    grid = dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), nr, nz)
    r, z = np.meshgrid(grid.rs, grid.zs)
    return sv.Field(grid, np.where(grid.inside, (1.0 - r * r - z * z) / 6.0, 0.0), 3)


def test_heatmap_csv_bytes_equal_the_per_value_loop():
    f = ball_field(33, 65)
    assert fieldio.heatmap_csv(f) == reference_heatmap_csv(f)


# -- Malformed data lines: ConfigError with the file and its 1-based line.

DEFECTS = {"short row": (lambda toks: toks[:-1], "expected {n} values, found {m}"),
           "extra token": (lambda toks: toks + ["1"], "expected {n} values, found {m}"),
           "non-numeric token": (lambda toks: toks[:1] + ["abc"] + toks[2:], "'abc'")}


def write_with_comments(kind, path):
    """A small valid CPFIELD with two comment lines; returns (data rows, first data line)."""
    fieldio.write_field(ball_field(9, 17), path, comments=["# first", "# second"])
    return 17, 2 + 6 + 1


def corrupt(path, line, defect):
    lines = path.read_text().splitlines()
    toks = lines[line - 1].split()
    bad = DEFECTS[defect][0](toks)
    lines[line - 1] = " ".join(bad)
    path.write_text("\n".join(lines) + "\n")
    return DEFECTS[defect][1].format(n=len(toks), m=len(bad))


READERS = {"cpfield": fieldio.read_field, "cpvox": fieldio.read_voxels}


# CPVOX 2 has no data lines; its payload-length cases are below.
@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("kind", ["cpfield"])
def test_malformed_data_line_is_a_config_error_naming_its_line(tmp_path, kind, which, defect):
    path = tmp_path / f"f.{kind}"
    rows, first = write_with_comments(kind, path)
    line = first if which == "first" else first + rows - 1
    detail = corrupt(path, line, defect)
    with pytest.raises(ConfigError) as err:
        READERS[kind](path)
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert detail in str(err.value)


def cpvox_with_comments(path):
    """A valid 4^3 CPVOX 2 file behind two comment lines; returns its payload offset.

    The CPVOX writer prints no comments, so they are put in front of its bytes here.
    """
    xs = _symmetric_coords(1.0, 4)
    v = VoxelField(4, xs, xs, xs, np.ones((4, 4, 4), dtype=bool),
                   np.arange(64.0).reshape(4, 4, 4))
    fieldio.write_voxels(v, path)
    comments = b"# first\n# second\n"
    path.write_bytes(comments + path.read_bytes())
    return len(comments) + len(cpvox_header(v))


@pytest.mark.parametrize("change, found", [("8 bytes short", 8 * 64 - 8),
                                           ("1 byte long", 8 * 64 + 1),
                                           ("empty", 0)])
def test_cpvox_payload_of_the_wrong_length_is_a_config_error(tmp_path, change, found):
    path = tmp_path / "f.cpvox"
    start = cpvox_with_comments(path)
    data = path.read_bytes()
    path.write_bytes(data[:start] + (data[start:] + b"\0")[:found])
    with pytest.raises(ConfigError) as err:
        fieldio.read_voxels(path)
    assert str(err.value) == (f"{path}: expected {8 * 64} payload bytes after 'data', "
                              f"found {found}")


def test_cpvox_1_text_file_is_a_config_error(tmp_path):
    path = tmp_path / "f.cpvox"
    path.write_text("# text\nCPVOX 1\nN 2\nextent 1 1\ndata\n" + "0 0\n" * 4)
    with pytest.raises(ConfigError) as err:
        fieldio.read_voxels(path)
    assert str(err.value) == f"{path}: expected 'CPVOX 2' header"


def test_verify_field_with_a_short_row_is_a_config_error(tmp_path, capsys):
    from cplab.cli import main
    path = tmp_path / "u.cpfield"
    rows, first = write_with_comments("cpfield", path)
    corrupt(path, first + 3, "short row")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nkind = ball\na = 1.0\nn = 3\n"
                   "[nonlinearity]\nform = constant\nc = 1.0\n[grid]\nnr = 9\nnz = 17\n")
    status = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--field", str(path), "--quiet"])
    assert status == 2
    assert (capsys.readouterr().err
            == f"config error: {path}:{first + 3}: expected 9 values, found 8\n")


# -- Impossible headers: ConfigError naming the header line.
# Each helper takes the header lines whole, so a row can change one of them.


def cpfield_text(nr, nz, n="n 3", grid=None, extent="extent 1 -1 1", t="t 1"):
    grid = grid or f"grid {nr} {nz}"
    rows = "".join(" ".join(["0"] * max(nr, 0)) + "\n" for _ in range(max(nz, 0)))
    return f"# sizes\nCPFIELD 1\n{n}\n{grid}\n{extent}\n{t}\ndata\n" + rows


def cpvox_bytes(N, size=None, extent="extent 1 1"):
    size = size or f"N {N}"
    payload = bytes(8 * max(N, 0) ** 3)
    return f"# sizes\nCPVOX 2\n{size}\n{extent}\ndata\n".encode() + payload


def write_sized(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())


@pytest.mark.parametrize("kind, text, line", [
    ("cpfield", cpfield_text(1, 3), 4),
    ("cpfield", cpfield_text(3, 1), 4),
    ("cpfield", cpfield_text(0, 0), 4),
    ("cpfield", cpfield_text(3, 4), 4),
    ("cpfield", cpfield_text(3, 3, extent="extent 1 -0.5 1"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent 1 1 -1"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent nan -1 1"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent 0 -1 1"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent inf -1 1"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent 1 -0 0"), 5),
    ("cpfield", cpfield_text(3, 3, extent="extent 1 nan nan"), 5),
    ("cpfield", cpfield_text(3, 3, t="t 1.5"), 6),
    ("cpfield", cpfield_text(3, 3, t="t -0.25"), 6),
    ("cpfield", cpfield_text(3, 3, t="t nan"), 6),
    ("cpfield", cpfield_text(3, 3, n="n 0"), 3),
    ("cpfield", cpfield_text(3, 3, n="n -4"), 3),
    ("cpfield", cpfield_text(3, 3, n="n 1"), 3),
    ("cpfield", cpfield_text(3, 3, n="dim 3"), 3),
    ("cpfield", cpfield_text(9, 9, grid="size 9 9"), 4),
    ("cpfield", cpfield_text(3, 3, extent="box 1 -1 1"), 5),
    ("cpfield", cpfield_text(3, 3, t="time 1"), 6),
    ("cpfield", cpfield_text(3, 3, n="n"), 3),
    ("cpfield", cpfield_text(3, 3, grid="grid 3"), 4),
    ("cpfield", cpfield_text(3, 3, n="n three"), 3),
    ("cpfield", cpfield_text(3, 3, extent="extent 1 x 1"), 5),
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
def test_impossible_header_size_is_a_config_error_naming_its_line(tmp_path, kind, text, line):
    path = tmp_path / f"f.{kind}"
    write_sized(path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            READERS[kind](path)
    assert str(err.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("kind, text", [("cpfield", cpfield_text(2, 3)),
                                        ("cpvox", cpvox_bytes(2))])
def test_header_size_two_reads(tmp_path, kind, text):
    path = tmp_path / f"f.{kind}"
    write_sized(path, text)
    READERS[kind](path)


def test_verify_field_with_a_one_column_grid_is_a_config_error(tmp_path, capsys):
    from cplab.cli import main
    path = tmp_path / "u.cpfield"
    path.write_text(cpfield_text(1, 3))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nkind = ball\na = 1.0\nn = 3\n"
                   "[nonlinearity]\nform = constant\nc = 1.0\n[grid]\nnr = 9\nnz = 17\n")
    status = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--field", str(path), "--quiet"])
    assert status == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:4: ")
