"""Adam update rule against its closed-form limits."""

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.optim import Adam


def _params(values):
    return {name: ad.parameter(np.array(v)) for name, v in values.items()}


def test_zero_lr_is_identity():
    params = _params({"w": [1.0, -2.0, 3.0]})
    opt = Adam(params, lr=0.0, weight_decay=0.5)
    params["w"].grad = np.array([10.0, -5.0, 1.0])
    for _ in range(3):
        opt.step()
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0, 3.0])


def test_constant_gradient_update_magnitude_approaches_lr():
    # with a constant gradient the bias-corrected ratio m_hat/sqrt(v_hat)
    # tends to sign(g), so each step moves by ~lr
    params = _params({"w": [0.0]})
    opt = Adam(params, lr=1e-3, weight_decay=0.0)
    before = params["w"].data.copy()
    for _ in range(1000):
        params["w"].grad = np.array([2.5])
        before = params["w"].data.copy()
        opt.step()
    step = abs(float((before - params["w"].data)[0]))
    assert abs(step - 1e-3) / 1e-3 < 0.01


def test_zero_gradient_pure_decay():
    params = _params({"w": [4.0]})
    opt = Adam(params, lr=1e-3, weight_decay=1e-6)
    params["w"].grad = np.zeros(1)
    opt.step()
    np.testing.assert_allclose(params["w"].data, 4.0 * (1.0 - 1e-3 * 1e-6), rtol=1e-15)
    # a parameter with no grad at all still decays
    opt2 = Adam(_params({"w": [4.0]}), lr=1e-3, weight_decay=1e-6)
    opt2.params["w"].grad = None
    opt2.step()
    np.testing.assert_allclose(opt2.params["w"].data, 4.0 * (1.0 - 1e-3 * 1e-6), rtol=1e-15)


def test_first_step_matches_hand_computation():
    # beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 are Adam's constants
    params = _params({"w": [1.0]})
    opt = Adam(params, lr=0.1, weight_decay=0.0)
    params["w"].grad = np.array([0.5])
    opt.step()
    m_hat = 0.1 * 0.5 / (1 - 0.9)
    v_hat = 0.001 * 0.25 / (1 - 0.999)
    want = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(params["w"].data, [want], rtol=1e-15)


def test_nonfinite_gradient_rejected_by_name():
    params = _params({"bad": [1.0]})
    opt = Adam(params, lr=1e-3, weight_decay=0.0)
    params["bad"].grad = np.array([np.nan])
    with pytest.raises(ValueError, match="bad"):
        opt.step()


def test_rejected_step_changes_no_state():
    # the bad gradient sits on the second parameter, after one that would step
    params = _params({"a": [1.0, 1.0], "b": [1.0, 1.0]})
    opt = Adam(params, lr=0.1, weight_decay=0.01)
    params["a"].grad = np.array([1.0, 1.0])
    params["b"].grad = np.array([1.0, 1.0])
    opt.step()
    before = {
        "t": opt.t,
        "m": {k: v.copy() for k, v in opt.m.items()},
        "v": {k: v.copy() for k, v in opt.v.items()},
        "data": {k: p.data.copy() for k, p in params.items()},
    }
    params["b"].grad = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match="'b'"):
        opt.step()
    assert opt.t == before["t"]
    for name, p in params.items():
        assert opt.m[name].tobytes() == before["m"][name].tobytes()
        assert opt.v[name].tobytes() == before["v"][name].tobytes()
        assert p.data.tobytes() == before["data"][name].tobytes()


def test_zero_grad_clears_all():
    params = _params({"a": [1.0], "b": [2.0]})
    opt = Adam(params, lr=1e-3, weight_decay=0.0)
    params["a"].grad = np.ones(1)
    params["b"].grad = np.ones(1)
    opt.zero_grad()
    assert params["a"].grad is None and params["b"].grad is None


def test_reduces_a_quadratic():
    rng = np.random.default_rng(0)
    target = rng.standard_normal(6)
    w = ad.parameter(np.zeros(6))
    opt = Adam({"w": w}, lr=0.05, weight_decay=0.0)
    for _ in range(400):
        opt.zero_grad()
        diff = ad.sub(w, ad.constant(target))
        ad.tensor_sum(ad.mul(diff, diff)).backward()
        opt.step()
    np.testing.assert_allclose(w.data, target, atol=1e-3)


def test_validates_hyperparameters():
    with pytest.raises(ValueError):
        Adam(_params({"w": [1.0]}), lr=-1.0, weight_decay=0.0)
    with pytest.raises(ValueError):
        Adam(_params({"w": [1.0]}), lr=1e-3, weight_decay=-0.1)


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("lr", np.nan, "learning rate"),
        ("lr", np.inf, "learning rate"),
        ("weight_decay", np.nan, "weight decay"),
        ("weight_decay", np.inf, "weight decay"),
    ],
)
def test_rejects_hyperparameters_that_poison_the_first_step(field, value, named):
    # NaN fails every comparison, so each check must be one that NaN cannot pass
    with pytest.raises(ValueError, match=named):
        Adam(_params({"w": [1.0]}), **{"lr": 1e-3, "weight_decay": 0.0, field: value})
