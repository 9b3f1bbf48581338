import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cplab import domain as dm
from cplab import fieldio
from cplab import solver as sv
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
