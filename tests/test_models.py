"""Model bundles: derivative agreement, value layouts and structural constants."""

import dataclasses

import numpy as np
import pytest
from support import planar_model

from quadsmp.example import example_model
from quadsmp.models import (
    COEFFICIENTS,
    ControlDomain,
    benchmark_model,
    coefficient_shape,
    evaluate,
    scalar_model,
    validate_derivatives,
)

DERIVATIVES = (
    "b_x", "sigma_x", "f_x", "f_y", "f_z", "phi_x", "b_xx", "sigma_xx", "phi_xx", "f_hess", "b_u", "sigma_u", "f_u",
)


def test_benchmark_derivatives_agree():
    validate_derivatives(benchmark_model())


def test_example_derivatives_agree():
    validate_derivatives(example_model())


def test_planar_derivatives_agree():
    validate_derivatives(planar_model())


@pytest.mark.parametrize("name", DERIVATIVES)
def test_perturbed_derivative_named(name):
    model = planar_model()
    supplied = getattr(model, name)
    broken = dataclasses.replace(model, **{name: lambda *args: supplied(*args) + 0.01})
    with pytest.raises(ValueError, match=rf"for {name} \("):
        validate_derivatives(broken)


@pytest.mark.parametrize("name", ["sigma_x", "sigma_xx", "sigma_u"])
def test_transposed_sigma_layout_named(name):
    # the sigma family leads with the column index; a row-first layout has the same shape at n = d
    model = planar_model()
    supplied = getattr(model, name)
    broken = dataclasses.replace(model, **{name: lambda *args: np.swapaxes(supplied(*args), 1, 2)})
    with pytest.raises(ValueError, match=rf"for {name} \("):
        validate_derivatives(broken)


@pytest.mark.parametrize("maker", [benchmark_model, example_model, planar_model])
def test_callables_return_the_table_layout(maker):
    model = maker()
    rng = np.random.default_rng(5)
    m = 7
    point = {
        "t": 0.3,
        "x": rng.standard_normal((m, model.n)),
        "y": rng.standard_normal(m),
        "z": rng.standard_normal((m, model.d)),
        "u": model.control_domain.sample(rng, m, model.k),
    }
    assert set(COEFFICIENTS) == {f.name for f in dataclasses.fields(model) if callable(getattr(model, f.name))}
    for name in COEFFICIENTS:
        assert evaluate(model, name, point).shape == (m,) + coefficient_shape(model, name), name


def test_broken_derivative_detected():
    model = scalar_model(
        b=lambda t, x, u: 0.1 * x,
        b_x=lambda t, x, u: np.full_like(x, 0.3),  # wrong on purpose
        sigma=lambda t, x, u: np.zeros_like(x),
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: np.zeros_like(y),
        f_x=lambda t, x, y, z, u: np.zeros_like(x),
        f_y=lambda t, x, y, z, u: np.zeros_like(y),
        f_z=lambda t, x, y, z, u: np.zeros_like(z),
        phi=lambda x: np.zeros_like(x),
        phi_x=lambda x: np.zeros_like(x),
        phi_xx=lambda x: np.zeros_like(x),
        alpha=1.0,
        gamma=0.1,
        l1=1.0,
        l2=1.0,
        l3=0.1,
    )
    with pytest.raises(ValueError, match="b_x"):
        validate_derivatives(model)


def test_generator_growth_bound_checked():
    model = scalar_model(
        b=lambda t, x, u: np.zeros_like(x),
        b_x=lambda t, x, u: np.zeros_like(x),
        sigma=lambda t, x, u: np.zeros_like(x),
        sigma_x=lambda t, x, u: np.zeros_like(x),
        f=lambda t, x, y, z, u: 5.0 * z,
        f_x=lambda t, x, y, z, u: np.zeros_like(x),
        f_y=lambda t, x, y, z, u: np.zeros_like(y),
        f_z=lambda t, x, y, z, u: np.full_like(z, 5.0),
        phi=lambda x: np.zeros_like(x),
        phi_x=lambda x: np.zeros_like(x),
        phi_xx=lambda x: np.zeros_like(x),
        alpha=1.0,
        gamma=0.1,
        l3=0.1,  # actual slope 5.0 cannot satisfy l3 + gamma |z|
        l1=1.0,
        l2=1.0,
    )
    with pytest.raises(ValueError, match="f_z|l3"):
        validate_derivatives(model)


def test_z_truncation_default_scales():
    model = benchmark_model()
    base = model.z_truncation_default(1.0)
    assert base > 0
    assert model.z_truncation_default(2.0) > base


class TestControlDomain:
    def test_box_sampling(self):
        dom = ControlDomain("box", (-1.0, 1.0))
        u = dom.sample(np.random.default_rng(0), 100, 1)
        assert u.shape == (100, 1)
        assert np.all(u >= -1.0) and np.all(u <= 1.0)
        np.testing.assert_allclose(dom.test_controls(1), [[-1.0], [1.0]])

    def test_finite_sampling(self):
        dom = ControlDomain("finite", ((0.0,), (1.0,)))
        u = dom.sample(np.random.default_rng(0), 100, 1)
        assert set(np.unique(u)) <= {0.0, 1.0}
        np.testing.assert_allclose(dom.test_controls(1), [[0.0], [1.0]])

    def test_contains(self):
        box = ControlDomain("box", (-1.0, 1.0))
        assert box.contains(-1.0) and box.contains(1.0) and box.contains([0.3])
        assert not box.contains(1.5) and not box.contains([-2.0])
        corners = ControlDomain("box", ((0.0, -1.0), (1.0, 1.0)))
        assert corners.contains([0.5, -1.0]) and not corners.contains([-0.5, 0.0])
        points = ControlDomain("finite", ((0.0,), (1.0,)))
        assert points.contains(0.0) and points.contains([1.0])
        assert not points.contains(0.5)
        for dom in (box, points):
            assert all(dom.contains(u) for u in dom.test_controls(1))
            assert all(dom.contains(u) for u in dom.sample(np.random.default_rng(0), 20, 1))
