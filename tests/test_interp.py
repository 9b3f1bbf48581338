import numpy as np

from cplab.interp import Bicubic, CubicLine, safe_cells


def test_bicubic_reproduces_quadratics():
    rs = np.linspace(0.0, 1.0, 21)
    zs = np.linspace(-1.0, 1.0, 41)
    Z, R = np.meshgrid(zs, rs, indexing="ij")
    F = 1.0 + 2 * R - 3 * Z + 0.5 * R * R - R * Z + 2 * Z * Z
    interp = Bicubic(rs, zs, F)
    rng = np.random.default_rng(0)
    r = rng.uniform(0.1, 0.9, 50)
    z = rng.uniform(-0.9, 0.9, 50)
    exact = 1.0 + 2 * r - 3 * z + 0.5 * r * r - r * z + 2 * z * z
    assert np.max(np.abs(interp.value(r, z) - exact)) < 1e-12
    dr, dz = interp.grad(r, z)
    assert np.max(np.abs(dr - (2 + r - z))) < 1e-11
    assert np.max(np.abs(dz - (-3 - r + 4 * z))) < 1e-11


def test_bicubic_node_identity():
    rs = np.linspace(0.0, 1.0, 11)
    zs = np.linspace(-1.0, 1.0, 15)
    rng = np.random.default_rng(3)
    F = rng.normal(size=(15, 11))
    interp = Bicubic(rs, zs, F)
    for j in range(2, 13):
        for i in range(2, 9):
            assert interp.value(rs[i], zs[j]) == F[j, i]


def test_cubic_line_interpolates():
    xs = np.linspace(0.0, 2.0, 21)
    vals = np.sin(xs)
    line = CubicLine(xs, vals)
    x = np.array([0.55, 1.13, 1.77])
    assert np.max(np.abs(line.value(x) - np.sin(x))) < 1e-4


def test_safe_cells_shrinks_mask():
    inside = np.zeros((8, 8), bool)
    inside[1:7, 1:7] = True
    ok = safe_cells(inside)
    # only cells whose 4x4 footprint stays within rows/cols 1..6
    expected = np.zeros((7, 7), bool)
    expected[2:5, 2:5] = True
    assert np.array_equal(ok, expected)
