import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab import nonlinearity as nlin


def catalog():
    return [
        nlin.constant(1.0),
        nlin.affine(2.0, 1.0),
        nlin.gelfand(1.0),
        nlin.power(1.0, 2.0),
        nlin.separable(1.0, 1.0, nlin.gelfand(1.0)),
    ]


def test_point_evaluations():
    assert float(nlin.constant(1.0).eval(0.3, -0.2, 5.0)) == 1.0
    assert float(nlin.affine(2.0, 1.0).eval(0.0, 0.0, 0.5)) == 2.0
    assert float(nlin.gelfand(1.0).eval(0.1, 0.1, 1.0)) == pytest.approx(np.e)


def test_derivative_evaluations():
    assert float(nlin.constant(1.0).eval_du(0, 0, 1.0)) == 0.0
    assert float(nlin.affine(2.0, 1.0).eval_du(0, 0, 0.3)) == 2.0
    assert float(nlin.gelfand(1.0).eval_du(0, 0, 0.0)) == 1.0


def test_eval_du_consistent_with_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    for nl in catalog():
        r = rng.uniform(0.0, 1.0, 100)
        z = rng.uniform(-1.0, 1.0, 100)
        u = rng.uniform(0.0, 2.0, 100)
        approx = (nl.eval(r, z, u + step) - nl.eval(r, z, u - step)) / (2 * step)
        exact = nl.eval_du(r, z, u)
        assert np.all(np.abs(approx - exact) <= 1e-6 * (1.0 + np.abs(exact)))


def test_evenness_in_z_bitexact():
    z = np.linspace(0.0, 1.0, 33)
    for nl in catalog():
        a = np.asarray(nl.eval(0.4, z, 1.0))
        b = np.asarray(nl.eval(0.4, -z, 1.0))
        assert np.array_equal(a, b)


def test_hypotheses_pass_for_catalog():
    for nl in catalog():
        report = nlin.check_hypotheses(nl)
        assert report.passed, f"{nl.form}: {report.violated()}"


def test_concave_tabulated_phi_fails_convexity():
    us = np.linspace(0.0, 3.0, 31)
    phi = nlin.tabulated_phi(us, -us ** 2)
    report = nlin.check_hypotheses(phi)
    assert not report.passed
    assert "convex in u" in report.violated()


def test_separable_spatial_partials():
    nl = nlin.separable(2.0, 3.0, nlin.gelfand(1.0))
    r, z, u = 0.3, -0.4, 0.5
    f = float(nl.eval(r, z, u))
    assert float(nl.eval_dr(r, z, u)) == pytest.approx(-2 * 2.0 * r * f)
    assert float(nl.eval_dz(r, z, u)) == pytest.approx(-2 * 3.0 * z * f)
    step = 1e-7
    dz_num = (float(nl.eval(r, z + step, u)) - float(nl.eval(r, z - step, u))) / (2 * step)
    assert dz_num == pytest.approx(float(nl.eval_dz(r, z, u)), rel=1e-6)


def test_power_form_linear_extension_below_zero():
    nl = nlin.power(1.5, 3.0)
    # continuous and C^1 across u = 0
    assert float(nl.eval(0, 0, 0.0)) == pytest.approx(1.5)
    assert float(nl.eval(0, 0, -1e-9)) == pytest.approx(1.5, rel=1e-6)
    assert float(nl.eval_du(0, 0, -0.5)) == pytest.approx(1.5 * 3.0)
    assert np.isfinite(float(nl.eval(0, 0, -5.0)))


def test_exponential_saturation_is_finite():
    nl = nlin.gelfand(1.0)
    assert np.isfinite(float(nl.eval(0, 0, 1e4)))


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        nlin.gelfand(-1.0)
    with pytest.raises(ValueError):
        nlin.power(1.0, 0.5)
    with pytest.raises(ValueError):
        nlin.separable(-0.1, 0.0, nlin.gelfand(1.0))
    with pytest.raises(ValueError):
        nlin.separable(1.0, 1.0, nlin.separable(1.0, 1.0, nlin.gelfand(1.0)))


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=30, deadline=None)
@given(alpha=WEIGHTS, beta=WEIGHTS,
       phi=st.sampled_from([nlin.constant(1.5), nlin.affine(2.0, 1.0),
                            nlin.gelfand(1.0), nlin.power(1.0, 2.0)]))
def test_spatial_partials_of_the_product_form(alpha, beta, phi):
    nl = nlin.separable(alpha, beta, phi)
    Z, R = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 1.0, 9), indexing="ij")
    U = np.random.default_rng(3).uniform(0.0, 2.0, R.shape)
    f = nl.eval(R, Z, U)
    step = 1e-6
    for partial, weight, dr, dz in ((nl.eval_dr, alpha, step, 0.0),
                                    (nl.eval_dz, beta, 0.0, step)):
        exact = partial(R, Z, U)
        approx = (nl.eval(R + dr, Z + dz, U) - nl.eval(R - dr, Z - dz, U)) / (2 * step)
        assert np.all(np.abs(approx - exact) <= 1e-6 * np.abs(f))
        if weight == 0.0:
            assert np.all(exact == 0.0)
    assert np.array_equal(f, nl.eval(R, -Z, U))
