"""Variational family behavior: transform, density and jacobian.

Sampling distributions are verified with Kolmogorov-Smirnov tests against
scipy's reference distributions; densities against scipy's logpdf.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from vbma import autodiff as ad
from vbma import families
from vbma.core import VbmaConfig, init_state
from vbma.families import FamilyTag, VariationalState
from vbma.models import LinRegModel


def make_state(mu, var, tags):
    mu = np.asarray(mu, dtype=float)
    raw = families.encode_scale(np.asarray(var, dtype=float))
    return VariationalState(mu, raw, [t is FamilyTag.LOGNORMAL for t in tags])


@given(st.floats(min_value=1e-6, max_value=1e4))
@settings(max_examples=100, deadline=None)
def test_encode_decode_round_trip(v):
    assert float(families.decode_scale(families.encode_scale(v))) == pytest.approx(v, rel=1e-9)


def test_encode_rejects_nonpositive():
    with pytest.raises(ValueError):
        families.encode_scale(0.0)
    with pytest.raises(ValueError):
        families.encode_scale(-1.0)


def test_decoded_quantity_is_variance():
    # the softplus-decoded value is the VARIANCE; sd() is its square root
    state = make_state([0.0], [4.0], [FamilyTag.NORMAL])
    assert float(ad.softplus(state.raw_scale[0])) == pytest.approx(4.0)
    assert float(state.sd()[0]) == pytest.approx(2.0)


def test_exact_state_holds_the_given_standard_deviations():
    # a prior as a state: sd() and var are the given sd and its square,
    # bitwise, where decoding encode_scale(sd^2) rounds (at sd = 0.5), and
    # log q is the product of scipy's normal and log-normal densities
    mu, sd = np.array([0.2, 1.0, -3.0]), np.array([0.5, 0.3, 7.0])
    state = VariationalState.exact(mu, sd, [0.0, 1.0, 0.0])
    assert np.array_equal(state.sd(), sd) and np.array_equal(state.var, sd * sd)
    assert not np.array_equal(families.decode_scale(families.encode_scale(sd * sd)), sd * sd)
    theta = np.array([[0.5, 2.5, 4.0], [-1.0, 0.1, -20.0]])
    vals, _ = families.log_q(state, theta)
    for row, val in zip(theta, vals):
        want = (stats.norm(0.2, 0.5).logpdf(row[0])
                + stats.lognorm(s=0.3, scale=np.exp(1.0)).logpdf(row[1])
                + stats.norm(-3.0, 7.0).logpdf(row[2]))
        assert val == pytest.approx(want, rel=1e-12, abs=0)


def test_state_constants_are_fresh_decodes_of_raw_scale():
    # log var and the draw's scale derivative are decoded with var and sd
    # when raw_scale is assigned, bitwise what a decode of the new raw_scale
    # gives; an exact state takes them from its given sd
    raw = np.array([[-3.0, 0.0, 2.5], [40.0, -0.7, 1e-3]])
    state = VariationalState(np.zeros(3), raw[0], [0.0, 1.0, 0.0])
    for new in (raw[1], 0.5 * raw[0]):
        state.raw_scale = new
        var = families.decode_scale(new)
        sd = np.sqrt(var)
        for got, want in ((state.var, var), (state.sd(), sd), (state.log_var, np.log(var)),
                          (state.dsd_draw, ad.sigmoid(new) / (2.0 * sd))):
            assert np.array_equal(got, want)
    sd = np.array([0.5, 0.3, 7.0])
    exact = VariationalState.exact(np.zeros(3), sd, [0.0, 1.0, 0.0])
    assert np.array_equal(exact.log_var, np.log(sd * sd))
    assert np.array_equal(exact.dsd_draw, ad.sigmoid(exact.raw_scale) / (2.0 * sd))


def test_initial_state_matches_documented_defaults():
    # a fit starts each model at zero locations and the variance INIT_VAR
    model = LinRegModel(np.zeros((3, 0)), np.arange(3.0))
    (state,) = init_state(VbmaConfig(), [model]).variational
    assert state.lognormal_mask.tolist() == [0.0, 1.0]  # beta0 normal, phi log-normal
    assert np.allclose(state.mu, 0.0)
    assert VbmaConfig.INIT_VAR == 0.01
    assert np.allclose(ad.softplus(state.raw_scale), 0.01)


def test_transform_values():
    state = make_state([1.0, 2.0], [4.0, 0.25], [FamilyTag.NORMAL, FamilyTag.LOGNORMAL])
    theta = families.sample(state, np.array([0.5, -1.0]))
    assert theta[0] == pytest.approx(1.0 + 0.5 * 2.0)
    assert theta[1] == pytest.approx(np.exp(2.0 - 1.0 * 0.5))


def test_normal_samples_pass_ks():
    state = make_state([1.5], [0.49], [FamilyTag.NORMAL])
    rng = np.random.default_rng(0)
    draws = np.array([families.sample(state, rng.standard_normal(1))[0] for _ in range(4000)])
    assert stats.kstest(draws, "norm", args=(1.5, 0.7)).pvalue > 0.01


def test_lognormal_samples_pass_ks():
    state = make_state([0.5], [0.25], [FamilyTag.LOGNORMAL])
    rng = np.random.default_rng(1)
    draws = np.array([families.sample(state, rng.standard_normal(1))[0] for _ in range(4000)])
    # scipy lognorm: shape = sd of log, scale = exp(mean of log)
    assert stats.kstest(draws, stats.lognorm(s=0.5, scale=np.exp(0.5)).cdf).pvalue > 0.01


def test_log_q_matches_scipy_normal():
    state = make_state([1.0], [0.36], [FamilyTag.NORMAL])
    theta = np.array([1.7])
    out = float(families.log_q(state, theta)[0])
    assert out == pytest.approx(stats.norm(1.0, 0.6).logpdf(1.7), abs=1e-10)


def test_log_q_matches_scipy_lognormal():
    state = make_state([0.3], [0.16], [FamilyTag.LOGNORMAL])
    theta = np.array([2.2])
    out = float(families.log_q(state, theta)[0])
    ref = stats.lognorm(s=0.4, scale=np.exp(0.3)).logpdf(2.2)
    assert out == pytest.approx(ref, abs=1e-10)


def test_log_q_mixed_factorizes():
    state = make_state([0.0, 1.0], [1.0, 0.25], [FamilyTag.NORMAL, FamilyTag.LOGNORMAL])
    theta = np.array([0.4, 3.0])
    out = float(families.log_q(state, theta)[0])
    ref = stats.norm(0, 1).logpdf(0.4) + stats.lognorm(s=0.5, scale=np.e).logpdf(3.0)
    assert out == pytest.approx(ref, abs=1e-10)


def test_log_q_rejects_negative_lognormal_coordinate():
    state = make_state([0.0], [1.0], [FamilyTag.LOGNORMAL])
    with pytest.raises(ValueError):
        families.log_q(state, np.array([-1.0]))


def test_log_q_gradient_in_theta_matches_fd():
    # max_i |g_i - fd_i| / (|g_i| + h), the measure of ad.finite_diff_check
    state = make_state([0.2, -0.1], [0.5, 0.3], [FamilyTag.NORMAL, FamilyTag.LOGNORMAL])
    theta0 = np.array([0.7, 1.9])
    h = 1e-6
    _, g = families.log_q(state, theta0)
    steps = h * np.eye(2)
    fd = (families.log_q(state, theta0 + steps)[0]
          - families.log_q(state, theta0 - steps)[0]) / (2.0 * h)
    assert np.max(np.abs(g - fd) / (np.abs(g) + h)) < 1e-5


def tape_log_q(state, theta):
    """``families.log_q`` as recorded elementwise tape operations, as it was
    computed before its closed form: the oracle for its values and
    gradients."""
    m = state.lognormal_mask
    var = ad.softplus(state.raw_scale)
    log_theta = ad.log(theta * m + (1.0 - m))
    quad = (theta * (1.0 - m) + log_theta - state.mu) ** 2 / var
    terms = np.log(2.0 * np.pi) + np.log(var) + quad
    if state.mask is not None:
        terms = terms * state.mask
    return -0.5 * ad.vsum(terms, axis=-1) - ad.vsum(log_theta, axis=-1)


def test_log_q_closed_form_matches_tape_on_rows_and_stacks():
    # one row and an (S, d) block of one model's state, and a zero-padded
    # (K, S, D) block of a stack's state whose mask leaves the padding out
    tags = [FamilyTag.NORMAL, FamilyTag.LOGNORMAL, FamilyTag.NORMAL]
    state = make_state([0.2, -0.1, 1.5], [0.5, 0.3, 2.0], tags)
    r = np.random.default_rng(3)
    mask = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1]], dtype=float)[:, None]
    lognormal = state.lognormal_mask * np.ones((3, 1, 1))
    stacked = VariationalState(r.standard_normal((3, 1, 3)) * mask,
                               r.standard_normal((3, 1, 3)), lognormal, mask)
    for st_, z in ((state, r.standard_normal(3)), (state, r.standard_normal((6, 3))),
                   (stacked, r.standard_normal((3, 6, 3)) * mask)):
        theta = families.sample(st_, z)
        val, g = families.log_q(st_, theta)
        want_val, want_g = ad.grad(lambda th: tape_log_q(st_, th), theta)
        np.testing.assert_allclose(val, want_val, rtol=1e-12)
        np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-12 * np.abs(want_g).max())
    assert not g[np.broadcast_to(mask == 0, g.shape)].any()  # nothing on the padding


def test_a_stacked_draw_its_density_and_jacobian_build_no_tape_node(monkeypatch):
    def no_node(self, *args, **kwargs):
        raise AssertionError("a tape node was built")

    monkeypatch.setattr(ad.Node, "__init__", no_node)
    r = np.random.default_rng(4)
    mask = np.array([[1, 1, 1], [1, 0, 1]], dtype=float)[:, None]
    lognormal = np.array([0.0, 0.0, 1.0]) * np.ones((2, 1, 1))
    stacked = VariationalState(r.standard_normal((2, 1, 3)) * mask,
                               r.standard_normal((2, 1, 3)), lognormal, mask)
    z = r.standard_normal((2, 5, 3)) * mask
    theta = families.sample(stacked, z)
    val, g = families.log_q(stacked, theta)
    d_mu, d_raw = families.reparam_jacobian(stacked, z, theta)
    assert val.shape == (2, 5) and g.shape == d_mu.shape == d_raw.shape == (2, 5, 3)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-2, max_value=2),
    st.sampled_from([FamilyTag.NORMAL, FamilyTag.LOGNORMAL]),
)
@settings(max_examples=60, deadline=None)
def test_reparam_jacobian_matches_fd(mu, var, z, tag):
    state = make_state([mu], [var], [tag])
    zv = np.array([z])
    theta = families.sample(state, zv)
    d_mu, d_raw = families.reparam_jacobian(state, zv, theta)
    h = 1e-6

    def t_of(lam):
        s = VariationalState(lam[:1], lam[1:], state.lognormal_mask)
        return families.sample(s, zv)[0]

    lam0 = np.concatenate([state.mu, state.raw_scale])
    for k, expected in ((0, d_mu[0]), (1, d_raw[0])):
        e = np.zeros(2)
        e[k] = h
        fd = (t_of(lam0 + e) - t_of(lam0 - e)) / (2 * h)
        assert expected == pytest.approx(fd, rel=1e-4, abs=1e-7)


def tape_reparam_sample(mu, raw_scale, lognormal_mask, z):
    """The draw theta = t(z, (mu, raw_scale)) recorded on the tape, so that
    it is differentiable in the variational parameters: the oracle of
    ``families.reparam_jacobian``.  Normal coordinate: z sd + mu; log-normal:
    exp(z sd + mu)."""
    u = mu + z * ad.sqrt(ad.softplus(raw_scale))
    return u * (1.0 - lognormal_mask) + lognormal_mask * ad.exp(u * lognormal_mask)


def test_reparam_sample_is_differentiable_in_lambda():
    # taping mu/raw_scale through the transform must agree with the analytic
    # jacobian used by the core loop
    state = make_state([0.4, 0.1], [0.3, 0.8], [FamilyTag.NORMAL, FamilyTag.LOGNORMAL])
    z = np.array([0.7, -0.2])
    theta = families.sample(state, z)
    d_mu, d_raw = families.reparam_jacobian(state, z, theta)
    assert np.array_equal(
        tape_reparam_sample(state.mu, state.raw_scale, state.lognormal_mask, z), theta)

    def through_tape(lam):
        out = tape_reparam_sample(lam[:2], lam[2:], state.lognormal_mask, z)
        return ad.vsum(out)

    _, g = ad.grad(through_tape, np.concatenate([state.mu, state.raw_scale]))
    assert np.allclose(g, np.concatenate([d_mu, d_raw]), rtol=1e-10)


def test_state_validates_lengths():
    with pytest.raises(ValueError):
        VariationalState(np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        VariationalState(np.zeros(2), np.zeros(2), np.zeros(3))


def test_sample_rejects_wrong_length_z():
    state = make_state([0.0], [1.0], [FamilyTag.NORMAL])
    with pytest.raises(ValueError):
        families.sample(state, np.zeros(3))
