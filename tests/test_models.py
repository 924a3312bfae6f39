"""Model log-densities against independent reimplementations (scipy and
hand-written numpy), finite-difference gradient checks for every model, and
ensemble construction."""

import numpy as np
import pytest
from scipy import stats

from vbma import autodiff as ad
from vbma import data as data_io
from vbma.families import FamilyTag
from vbma.models import (
    ConditioningError,
    DecompositionError,
    GPModel,
    GaussianMeanModel,
    LinRegModel,
    LogisticModel,
    ParamBlock,
    ParamLayout,
    linreg_subset_ensemble,
    logistic_subset_ensemble,
)


def as_float(x):
    return float(x.value if isinstance(x, ad.Node) else x)


def rng():
    return np.random.default_rng(12345)


# -- layout -------------------------------------------------------------------


def test_param_layout_slices_tags_names():
    layout = ParamLayout([
        ParamBlock("a", 1, FamilyTag.NORMAL),
        ParamBlock("b", 2, FamilyTag.NORMAL),
        ParamBlock("c", 1, FamilyTag.LOGNORMAL),
    ])
    assert layout.dim == 4
    assert layout.slice("b") == slice(1, 3)
    assert layout.tags() == (FamilyTag.NORMAL,) * 3 + (FamilyTag.LOGNORMAL,)
    assert layout.names() == ("a", "b[0]", "b[1]", "c")


# -- conjugate normal mean ----------------------------------------------------


def test_gaussian_mean_log_joint_matches_scipy():
    y = np.array([0.3, -1.0, 2.2])
    m = GaussianMeanModel(y, obs_sd=1.5, prior_mean=0.5, prior_sd=2.0)
    mu = 0.8
    expected = stats.norm(mu, 1.5).logpdf(y).sum() + stats.norm(0.5, 2.0).logpdf(mu)
    assert as_float(m.log_joint(np.array([mu]))) == pytest.approx(expected, abs=1e-10)


def test_gaussian_mean_posterior_and_evidence_against_formulas():
    y = rng().normal(1.0, 2.0, size=20)
    m = GaussianMeanModel(y, obs_sd=2.0, prior_mean=0.0, prior_sd=3.0)
    # independent derivation of the conjugate update
    prec = 1 / 9.0 + len(y) / 4.0
    mean = (y.sum() / 4.0) / prec
    pm, ps = m.posterior()
    assert pm == pytest.approx(mean, abs=1e-12)
    assert ps == pytest.approx(np.sqrt(1 / prec), abs=1e-12)
    # evidence equals the marginal multivariate normal density
    cov = 4.0 * np.eye(len(y)) + 9.0 * np.ones((len(y), len(y)))
    ref = stats.multivariate_normal.logpdf(y, mean=np.zeros(len(y)), cov=cov)
    assert m.log_evidence() == pytest.approx(ref, abs=1e-8)


# -- linear regression under the g-prior --------------------------------------


@pytest.fixture(scope="module")
def lin_model():
    r = rng()
    X = r.standard_normal((30, 2))
    X -= X.mean(axis=0)
    y = 0.5 + X @ np.array([1.0, -0.7]) + r.normal(0, 0.5, 30)
    return LinRegModel(X, y, predictors=("u", "v"), g=30.0)


def test_linreg_log_joint_matches_independent_numpy(lin_model):
    m = lin_model
    theta = np.array([0.4, 0.9, -0.6, 3.0])  # beta0, beta, phi
    beta0, beta, phi = theta[0], theta[1:3], theta[3]
    resid = m.y - beta0 - m.X @ beta
    ll = 0.5 * m.n * (np.log(phi) - np.log(2 * np.pi)) - 0.5 * phi * resid @ resid
    # slope prior N(0, g (X'X)^-1 / phi) plus phi ~ 1/phi, flat intercept
    cov = m.g * np.linalg.inv(m.X.T @ m.X) / phi
    lp = stats.multivariate_normal.logpdf(beta, mean=np.zeros(2), cov=cov) - np.log(phi)
    assert as_float(m.log_joint(theta)) == pytest.approx(ll + lp, abs=1e-8)


def test_linreg_gradient_matches_fd(lin_model):
    theta0 = np.array([0.2, 0.8, -0.5, 2.0])
    assert ad.finite_diff_check(lin_model.log_joint, theta0, h=1e-6) < 1e-5


def test_linreg_g_defaults_to_n(lin_model):
    m = LinRegModel(lin_model.X, lin_model.y, predictors=("u", "v"))
    assert m.g == m.n == 30


def test_linreg_singular_subset_rejected():
    X = np.ones((10, 2))  # perfectly collinear
    with pytest.raises(DecompositionError):
        LinRegModel(X, np.zeros(10), predictors=("a", "b"))


def test_linreg_predictive_draws(lin_model):
    theta = np.array([0.0, 1.0, 0.0, 100.0])
    r = np.random.default_rng(0)
    val = lin_model.draw_predictive(theta[None], np.array([[2.0, 5.0]]), r, noise=False)
    assert val == pytest.approx(2.0)
    draws = [lin_model.draw_predictive(theta[None], np.array([[2.0, 0.0]]), r) for _ in range(500)]
    assert np.std(draws) == pytest.approx(0.1, rel=0.2)


# -- block evaluation ---------------------------------------------------------


def block_models():
    r = rng()
    X = r.standard_normal((30, 2))
    X -= X.mean(axis=0)
    y = 0.5 + X @ np.array([1.0, -0.7]) + r.normal(0, 0.5, 30)
    yb = (r.random(30) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    return {
        "linear": LinRegModel(X, y, predictors=("u", "v")),
        "linear-intercept": LinRegModel(X[:, :0], y),
        "logistic": LogisticModel(X, yb, predictors=("u", "v"), prior_sd=3.0),
        "logistic-intercept": LogisticModel(X[:, :0], yb),
        "normal-mean": GaussianMeanModel(y, obs_sd=0.8, prior_mean=0.2, prior_sd=2.0),
    }


@pytest.mark.parametrize("kind", sorted(block_models()))
def test_block_log_joint_and_grad_match_rows(kind):
    m = block_models()[kind]
    assert m.supports_blocks
    thetas = rng().standard_normal((7, m.layout.dim))
    positive = [t is FamilyTag.LOGNORMAL for t in m.layout.tags()]
    thetas[:, positive] = np.exp(thetas[:, positive])
    vals, grads = ad.grad(m.log_joint, thetas)
    assert vals.shape == (7,) and grads.shape == thetas.shape
    plain = m.log_joint(thetas)  # plain arrays in, plain arrays out
    for s, theta in enumerate(thetas):
        val, g = ad.grad(m.log_joint, theta)
        np.testing.assert_allclose(vals[s], val, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(plain[s], val, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[s], g, rtol=1e-12, atol=1e-12)


# -- logistic regression ------------------------------------------------------


@pytest.fixture(scope="module")
def logit_model():
    r = rng()
    X = r.standard_normal((40, 2))
    p = 1 / (1 + np.exp(-(0.3 + X @ np.array([1.0, -1.5]))))
    y = (r.random(40) < p).astype(float)
    return LogisticModel(X, y, predictors=("u", "v"), prior_sd=5.0)


def test_logistic_log_lik_matches_scipy(logit_model):
    m = logit_model
    theta = np.array([0.2, 0.7, -1.0])
    a = theta[0] + m.X @ theta[1:]
    ref = stats.bernoulli.logpmf(m.y.astype(int), 1 / (1 + np.exp(-a))).sum()
    assert as_float(m.log_lik(theta)) == pytest.approx(ref, abs=1e-9)


def test_logistic_log_prior_matches_scipy(logit_model):
    theta = np.array([0.2, 0.7, -1.0])
    ref = stats.norm(0, 5.0).logpdf(theta).sum()
    assert as_float(logit_model.log_prior(theta)) == pytest.approx(ref, abs=1e-10)


def test_logistic_batch_agrees_with_single(logit_model):
    # log_lik on an (S, d) block gives each row's log-likelihood
    thetas = rng().standard_normal((8, 3))
    batch = logit_model.log_lik(thetas)
    single = [as_float(logit_model.log_lik(t)) for t in thetas]
    assert batch.shape == (8,)
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)


def test_logistic_stable_at_extreme_logits(logit_model):
    out = as_float(logit_model.log_lik(np.array([500.0, 300.0, -400.0])))
    assert np.isfinite(out)


def test_logistic_gradient_matches_fd(logit_model):
    assert ad.finite_diff_check(logit_model.log_joint, np.array([0.1, 0.5, -0.8]), h=1e-6) < 1e-5


def test_logistic_rejects_nonbinary_response():
    with pytest.raises(ValueError):
        LogisticModel(np.zeros((3, 0)), np.array([0.0, 0.5, 1.0]))


def test_logistic_success_prob_and_predictive(logit_model):
    theta = np.array([0.0, np.log(3.0), 0.0])
    # inputs in another order: the model picks u and v by name
    m = LogisticModel(logit_model.X, logit_model.y, predictors=("u", "v"), inputs=("v", "w", "u"))
    p = m.draw_predictive(theta[None], np.array([[9.9, -3.0, 1.0]]), np.random.default_rng(0),
                          noise=False)
    assert p == pytest.approx(0.75)
    assert logit_model.draw_predictive(theta[None], np.array([[1.0, 0.0]]),
                                       np.random.default_rng(0), noise=False) == pytest.approx(0.75)


# -- Gaussian process ---------------------------------------------------------


@pytest.fixture(scope="module")
def gp_model():
    ds = data_io.synth_gp_dataset(grid_size=5, seed=0, n_test=0, sigma=0.4)
    coords = np.column_stack([ds.column("x1"), ds.column("x2")])
    return GPModel(coords, ds.y(), free_mean=True)


@pytest.fixture(scope="module")
def gp_pair(gp_model):
    fixed = GPModel(gp_model.coords, gp_model.y, free_mean=False, mean_offset=1.5)
    return gp_model, fixed


@pytest.fixture(scope="module")
def gp_custom_prior(gp_model):
    return GPModel(gp_model.coords, gp_model.y, mean_prior=(0.5, 2.0),
                   lognormal_priors={"nu1": (2.0, 0.5), "sigma": (-1.0, 0.3)})


def gp_theta(m, theta):
    """``theta`` = (beta, eta, nu1, nu2, sigma) on ``m``'s layout."""
    return theta if m.free_mean else theta[1:]


def test_gp_log_lik_matches_scipy(gp_model):
    m = gp_model
    theta = np.array([0.3, 1.1, 2.5, 2.0, 0.5])  # beta, eta, nu1, nu2, sigma
    K = data_io.sq_exp_kernel(m.coords, 1.1, 2.5, 2.0)
    K += (0.5**2 + GPModel.BASE_JITTER * 1.1**2) * np.eye(m.n)
    ref = stats.multivariate_normal.logpdf(m.y, mean=0.3 * np.ones(m.n), cov=K)
    assert as_float(m.log_lik(theta)) == pytest.approx(ref, abs=1e-8)


def test_gp_log_prior_matches_scipy(gp_pair, gp_custom_prior):
    priors = [(0, 1), (1, 1), (1, 1), (0, 1)]
    for m, mean_prior, hyper_priors in [
        (gp_pair[0], (0, 1), priors),
        (gp_pair[1], None, priors),
        (gp_custom_prior, (0.5, 2.0), [(0, 1), (2.0, 0.5), (1, 1), (-1.0, 0.3)]),
    ]:
        theta = gp_theta(m, np.array([0.3, 1.1, 2.5, 2.0, 0.5]))
        ref = stats.norm(*mean_prior).logpdf(0.3) if mean_prior else 0.0
        for val, (loc, sd) in zip(theta[-4:], hyper_priors):
            ref += stats.lognorm(s=sd, scale=np.exp(loc)).logpdf(val)
        assert as_float(m.log_prior(theta)) == pytest.approx(ref, abs=1e-9)


def test_gp_gradient_matches_fd(gp_pair):
    for m in gp_pair:
        theta0 = gp_theta(m, np.array([0.1, 0.9, 2.0, 3.0, 0.6]))
        assert ad.finite_diff_check(m.log_joint, theta0, h=1e-5) < 1e-4


def test_gp_sample_prior_draws_as_a_per_parameter_loop(gp_pair, gp_custom_prior):
    # MC evidence relies on this order of draws: the mean, then eta, nu1,
    # nu2 and sigma, one normal each
    for m in (*gp_pair, gp_custom_prior):
        r, r_loop = rng(), rng()
        for _ in range(5):
            want = [r_loop.normal(*m.mean_prior)] if m.free_mean else []
            for name in ("eta", "nu1", "nu2", "sigma"):
                loc, sd = m.lognormal_priors[name]
                want.append(np.exp(r_loop.normal(loc, sd)))
            assert np.array_equal(m.sample_prior(r), np.array(want))


def tape_kernel_log_joint(m, theta):
    """``m.log_joint`` as recorded elementwise tape operations, one
    hyperparameter at a time, as GPModel computed it before its kernel became
    one tape node: the oracle for the kernel's closed-form vjp and for the
    vectorized prior.  It indexes ``theta`` itself; same jitter ladder as
    ``GPModel.log_lik``."""
    beta = theta[0] if m.free_mean else m.mean_offset
    hyper = {name: theta[i] for i, name in zip(range(-4, 0), ("eta", "nu1", "nu2", "sigma"))}
    prior = 0.0
    if m.free_mean:
        m0, s0 = m.mean_prior
        prior = prior - 0.5 * (np.log(2 * np.pi) + 2.0 * np.log(s0) + (beta - m0) ** 2 / s0**2)
    for name, x in hyper.items():
        loc, sd = m.lognormal_priors[name]
        prior = prior - ad.log(x) - 0.5 * (
            np.log(2 * np.pi) + 2.0 * np.log(sd) + (ad.log(x) - loc) ** 2 / sd**2)
    eta, nu1, nu2, sigma = hyper.values()
    resid = -(beta - m.y)
    for scale in (1.0, 10.0, 100.0, 1000.0):
        base = ad.exp(m._d1sq * (-0.5 / nu1**2) + m._d2sq * (-0.5 / nu2**2))
        jitter = m.BASE_JITTER * scale
        K = eta**2 * base + (sigma**2 + jitter * eta**2) * np.eye(m.n)
        try:
            return ad.gaussian_spd_logpdf(resid, K) + prior
        except np.linalg.LinAlgError:
            pass
    raise ConditioningError("oracle: kernel not positive definite")


def assert_matches_tape_kernel(m, theta):
    val, g = ad.grad(m.log_joint, theta)
    want_val, want_g = ad.grad(lambda th: tape_kernel_log_joint(m, th), theta)
    assert val == pytest.approx(want_val, rel=1e-10, abs=0)
    np.testing.assert_allclose(g, want_g, rtol=1e-10, atol=1e-10 * np.abs(want_g).max())


def test_gp_closed_form_kernel_matches_tape_on_prior_draws(gp_pair):
    r = rng()
    for m in gp_pair:
        for _ in range(10):
            assert_matches_tape_kernel(m, m.sample_prior(r))


def test_gp_closed_form_kernel_matches_tape_after_jitter_escalation(gp_pair, monkeypatch):
    # K's rounding error, ~n * eps * eta^2, is far below the base jitter of
    # 1e-6 * eta^2, so no draw with a finite value fails there: the
    # base-jitter factorization is made to fail instead.  The escalated
    # kernel carries 10x the jitter in its eta gradient.
    real = ad.gaussian_spd_logpdf
    attempts = []

    def base_jitter_fails(resid, cov):
        # odd calls are each evaluation's first factorization
        attempts.append(None)
        if len(attempts) % 2:
            raise np.linalg.LinAlgError("not positive definite")
        return real(resid, cov)

    monkeypatch.setattr(ad, "gaussian_spd_logpdf", base_jitter_fails)
    r = rng()
    for m in gp_pair:
        attempts.clear()
        assert_matches_tape_kernel(m, m.sample_prior(r))
        assert len(attempts) == 4


def test_gp_hopeless_draw_raises_conditioning_error(gp_model):
    # eta^2 underflows, so K is not positive definite at any jitter
    theta = np.array([0.1, 1e-161, 3.0, 3.0, 1e-170])
    with pytest.raises(ConditioningError, match=r"kernel matrix not positive definite after "
                       r"jitter escalation \(min eigenvalue ~ .*, eta=1e-161\)"):
        ad.grad(gp_model.log_joint, theta)


def test_gp_fixed_mean_variant_has_no_mean_coordinate(gp_model):
    m2 = GPModel(gp_model.coords, gp_model.y, free_mean=False, mean_offset=2.0)
    assert m2.layout.dim == 4
    theta = np.array([1.0, 3.0, 3.0, 0.4])
    assert np.isfinite(as_float(m2.log_joint(theta)))


def test_gp_predict_interpolates_training_data(gp_model):
    # with tiny noise the conditional mean at a training site is near its y
    ds = data_io.synth_gp_dataset(grid_size=5, seed=1, n_test=0, sigma=0.01)
    coords = np.column_stack([ds.column("x1"), ds.column("x2")])
    m = GPModel(coords, ds.y(), free_mean=False, mean_offset=0.0)
    mean, var, noise_var = m.predict_dist(np.array([1.0, 3.0, 3.0, 0.01]), coords[:3])
    assert np.allclose(mean, ds.y()[:3], atol=0.05)
    assert np.all(var >= 0)


def test_gp_prior_samples_positive(gp_model):
    draws = np.array([gp_model.sample_prior(np.random.default_rng(i)) for i in range(50)])
    assert np.all(draws[:, 1:] > 0)


# -- subset ensembles ---------------------------------------------------------


def test_linreg_ensemble_enumerates_all_subsets():
    ds = data_io.prepare(
        {"y": rng().normal(size=12), "a": rng().normal(size=12), "b": rng().normal(size=12)},
        "y", center_columns=("a", "b"),
    )
    models = linreg_subset_ensemble(ds, ("a", "b"))
    assert len(models) == 4
    assert {m.name for m in models} == {"lin:intercept", "lin:a", "lin:b", "lin:a+b"}
    assert sum(m.prior_weight for m in models) == pytest.approx(1.0)
    assert all(m.prior_weight == pytest.approx(0.25) for m in models)


def test_logistic_ensemble_enumerates_all_subsets():
    r = rng()
    ds = data_io.prepare(
        {"y": (r.random(15) < 0.5).astype(float), "a": r.normal(size=15)}, "y",
        center_columns=("a",),
    )
    models = logistic_subset_ensemble(ds, ("a",), prior_sd=3.0)
    assert len(models) == 2
    assert all(m.prior_sd == 3.0 for m in models)


# -- stacks -------------------------------------------------------------------


def subset_ensembles():
    r = rng()
    n = 30
    cols = {name: r.normal(size=n) for name in ("y", "u", "v", "w")}
    ds = data_io.prepare(cols, "y", center_columns=("u", "v", "w"))
    binary = {**cols, "y": (r.random(n) < 0.5).astype(float)}
    dsb = data_io.prepare(binary, "y", center_columns=("u", "v"))
    return {"linear": linreg_subset_ensemble(ds, ("u", "v", "w")),
            "logistic": logistic_subset_ensemble(dsb, ("u", "v"), prior_sd=3.0)}


@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_stack_log_joint_matches_each_member(kind):
    # members padded into one (K, S, D) block give each member's own values
    # and gradients, the intercept-only member included
    models = subset_ensembles()[kind]
    stacked = models.stacked
    assert type(stacked) is type(models[0])
    stacked_tags = np.array(stacked.layout.tags())
    D, S = stacked.layout.dim, 6
    r = rng()
    block = np.zeros((len(models), S, D))
    own = []
    for k, (m, pos) in enumerate(zip(models, models.mask)):
        assert stacked_tags[pos].tolist() == list(m.layout.tags())
        theta = r.standard_normal((S, m.layout.dim))
        positive = [t is FamilyTag.LOGNORMAL for t in m.layout.tags()]
        theta[:, positive] = np.exp(theta[:, positive])
        block[k][:, pos] = theta
        own.append(theta)
    vals, grads = ad.grad(stacked.log_joint, block)
    plain = stacked.log_joint(block)
    assert vals.shape == (len(models), S)
    for k, (m, pos, theta) in enumerate(zip(models, models.mask, own)):
        v_k, g_k = ad.grad(m.log_joint, theta)
        np.testing.assert_allclose(vals[k], v_k, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(plain[k], v_k, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[k][:, pos], g_k, rtol=1e-12, atol=1e-12)


def test_stacked_linear_model_keeps_each_members_constants():
    # each member's own X'X and log-determinant, not ones cut from the full X'X
    models = subset_ensembles()["linear"]
    for xtx, logdet, m, own in zip(models.stacked.xtx, models.stacked.logdet_xtx,
                                   models, models.mask):
        assert own[0] and own[-1]  # beta0 and phi
        block = np.ix_(own[1:-1], own[1:-1])
        assert np.array_equal(xtx[block], m.xtx) and logdet[0] == m.logdet_xtx
        xtx[block] = 0.0
        assert not xtx.any()
