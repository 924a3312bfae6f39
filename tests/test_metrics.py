"""Model-averaged posterior summaries: Bayes factors, intervals, coverage
calibration and predictive mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from vbma import families, metrics
from vbma.families import VariationalState
from vbma.metrics import (
    BmaPosterior,
    bayes_factor,
    bma_draw,
    coverage_curve,
    equal_tail_interval,
    rmse,
)
from vbma.models import GaussianMeanModel


def normal_state(mu, var):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return VariationalState(mu, families.encode_scale(var), np.zeros(len(mu)))


def two_model_posterior(w=0.3, mus=(0.0, 5.0), obs_sd=0.1):
    y = np.zeros(3)
    models = [GaussianMeanModel(y, obs_sd=obs_sd, name=f"m{i}") for i in range(2)]
    states = [normal_state([m], [1e-6]) for m in mus]
    return BmaPosterior(models, np.array([w, 1 - w]), states)


# -- Bayes factors ------------------------------------------------------------


def test_bayes_factor_identity():
    assert bayes_factor(np.array([0.3, 0.7]), np.array([0.5, 0.5]), 0, 0) == 1.0


def test_bayes_factor_equals_evidence_ratio_under_uniform_prior():
    assert bayes_factor(np.array([0.6, 0.2, 0.2]), np.full(3, 1 / 3), 0, 1) == pytest.approx(3.0)


def test_bayes_factor_cancels_prior_odds():
    q = np.array([0.8, 0.2])
    priors = np.array([0.9, 0.1])
    # posterior odds 4, prior odds 9 -> BF = 4/9
    assert bayes_factor(q, priors, 0, 1) == pytest.approx(4.0 / 9.0)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bayes_factor_multiplicativity(raw):
    q = np.array(raw) / np.sum(raw)
    priors = np.full(3, 1 / 3)
    b01 = bayes_factor(q, priors, 0, 1)
    b12 = bayes_factor(q, priors, 1, 2)
    b02 = bayes_factor(q, priors, 0, 2)
    assert b01 * b12 == pytest.approx(b02, rel=1e-9)


def test_bayes_factor_zero_denominator_is_infinite():
    assert bayes_factor(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0, 1) == np.inf


def test_bayes_factor_rejects_zero_numerator_prior():
    with pytest.raises(ValueError):
        bayes_factor(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 0, 1)


# -- intervals ----------------------------------------------------------------


def test_equal_tail_interval_matches_normal_quantiles():
    draws = np.random.default_rng(0).normal(2.0, 1.0, size=200_000)
    lo, hi = equal_tail_interval(draws, 0.10)
    assert lo == pytest.approx(stats.norm(2, 1).ppf(0.05), abs=0.02)
    assert hi == pytest.approx(stats.norm(2, 1).ppf(0.95), abs=0.02)


def test_equal_tail_interval_validation():
    with pytest.raises(ValueError):
        equal_tail_interval(np.array([]), 0.1)
    with pytest.raises(ValueError):
        equal_tail_interval(np.ones(5), 1.5)


# -- predictive mixture -------------------------------------------------------


def test_bma_posterior_validates_weights():
    with pytest.raises(ValueError):
        two_model_posterior(w=0.3).__class__(
            [], np.array([0.5, 0.6]), []
        )


def test_bma_draw_noiseless_mixture_moments():
    post = two_model_posterior(w=0.3, mus=(0.0, 5.0), obs_sd=1e-9)
    rng = np.random.default_rng(1)
    draws = bma_draw(post, np.zeros((1, 0)), 20_000, rng)
    # component selection frequency ~ (0.3, 0.7); means at 0 and 5
    assert draws.mean() == pytest.approx(0.7 * 5.0, abs=0.1)
    near_five = np.mean(np.abs(draws - 5.0) < 1.0)
    assert near_five == pytest.approx(0.7, abs=0.02)


def test_bma_draw_includes_observation_noise():
    post = two_model_posterior(w=1.0, mus=(0.0, 0.0), obs_sd=2.0)
    rng = np.random.default_rng(2)
    draws = bma_draw(post, np.zeros((1, 0)), 20_000, rng)
    assert draws.std() == pytest.approx(2.0, rel=0.05)


def test_bma_draw_validation():
    with pytest.raises(ValueError):
        bma_draw(two_model_posterior(), np.zeros((1, 0)), 0, np.random.default_rng(0))


# -- coverage calibration -----------------------------------------------------


def test_coverage_is_calibrated_when_variational_equals_posterior():
    # generate data from the model itself, set q(theta) to the exact
    # conjugate posterior: predictive intervals are then exactly calibrated
    rng = np.random.default_rng(6)
    obs_sd, prior_sd, n_train, n_test = 1.0, 2.0, 10, 400
    theta_true = rng.normal(0.0, prior_sd)
    y_train = rng.normal(theta_true, obs_sd, size=n_train)
    y_test = rng.normal(theta_true, obs_sd, size=n_test)
    model = GaussianMeanModel(y_train, obs_sd=obs_sd, prior_sd=prior_sd)
    mean, sd = model.posterior()
    post = BmaPosterior([model], np.array([1.0]), [normal_state([mean], [sd**2])])
    levels = (0.1, 0.3, 0.5, 0.7, 0.9)
    cov = coverage_curve(post, np.zeros((n_test, 0)), y_test, levels, n_draws=1500, seed=0)
    for lev in levels:
        assert cov[lev] == pytest.approx(lev, abs=0.06)


def test_coverage_rejects_empty_test_set():
    with pytest.raises(ValueError):
        coverage_curve(two_model_posterior(), [], [], (0.5,))


# -- prediction error ---------------------------------------------------------


def test_rmse_basic_and_validation():
    assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_predictive_means_mixture():
    post = two_model_posterior(w=0.5, mus=(0.0, 4.0))
    means = metrics.predictive_means(post, np.zeros((2, 0)), n_theta=4000, seed=0)
    assert np.allclose(means, 2.0, atol=0.15)
