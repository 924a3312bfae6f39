"""Optimizer steppers."""

import numpy as np
import pytest

from vbma import optimizers
from vbma.optimizers import Adam, RMSprop


def ascend(opt, grad_fn, x0, iters):
    x = np.asarray(x0, dtype=float)
    for _ in range(iters):
        x = opt.step(x, grad_fn(x))
    return x


def test_adam_maximizes_concave_quadratic():
    # maximum of -(x-3)^2 at 3
    x = ascend(Adam(step_size=0.1), lambda x: -2.0 * (x - 3.0), np.array([0.0]), 500)
    assert x[0] == pytest.approx(3.0, abs=1e-3)


def test_rmsprop_maximizes_concave_quadratic():
    x = ascend(RMSprop(step_size=0.05), lambda x: -2.0 * (x - 3.0), np.array([0.0]), 2000)
    assert x[0] == pytest.approx(3.0, abs=0.05)


def test_adam_step_magnitude_bounded_by_step_size():
    # with bias correction the very first move is exactly the step size
    opt = Adam(step_size=0.05)
    new = opt.step(np.zeros(3), np.array([1e6, 1.0, 1e-2]))
    assert np.allclose(np.abs(new), 0.05, atol=1e-6)


def test_adam_is_nearly_invariant_to_gradient_scale():
    # exact invariance is broken only by the eps guard in the denominator
    a, b = Adam(step_size=0.1), Adam(step_size=0.1)
    xa = ascend(a, lambda x: -(x - 1.0), np.array([0.0]), 50)
    xb = ascend(b, lambda x: -1e-4 * (x - 1.0), np.array([0.0]), 50)
    assert xa[0] == pytest.approx(xb[0], abs=1e-3)


def test_nonfinite_gradient_rejected_before_state_change():
    opt = Adam(step_size=0.1)
    opt.step(np.zeros(2), np.ones(2))
    m_before, v_before, t_before = opt.m.copy(), opt.v.copy(), opt.t
    with pytest.raises(optimizers.NonFiniteGradientError) as err:
        opt.step(np.zeros(2), np.array([1.0, np.inf]))
    assert "1" in str(err.value)  # names the offending coordinate
    assert np.array_equal(opt.m, m_before)
    assert np.array_equal(opt.v, v_before)
    assert opt.t == t_before


@pytest.mark.parametrize("cls", [Adam, RMSprop])
def test_overflowing_squared_gradient_rejected_before_state_change(cls):
    # g**2 overflows at 1e200: an infinite second moment would freeze the
    # coordinate (every later step 0) without any error
    opt = cls(step_size=0.1)
    lam = opt.step(np.zeros(2), np.ones(2))
    before = {k: np.copy(v) for k, v in vars(opt).items()}
    with pytest.raises(optimizers.NonFiniteGradientError, match=r"\[0\]"):
        opt.step(lam, np.array([1e200, 1.0]))
    assert all(np.array_equal(v, before[k]) for k, v in vars(opt).items())
    assert np.all(opt.step(lam, np.ones(2)) > lam)  # both coordinates still move


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Adam().step(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        RMSprop().step(np.zeros(2), np.zeros(3))


def test_make_optimizer_defaults():
    assert isinstance(optimizers.make_optimizer("adam"), Adam)
    assert optimizers.make_optimizer("adam").step_size == 0.05
    assert optimizers.make_optimizer("rmsprop").step_size == 0.01
    assert optimizers.make_optimizer("ADAM", step_size=0.2).step_size == 0.2
    with pytest.raises(ValueError):
        optimizers.make_optimizer("sgd")

