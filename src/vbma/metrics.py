"""Model-averaged posterior machinery: mixture predictive draws, Bayes
factors, equal-tail intervals, coverage curves and RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families


@dataclass
class BmaPosterior:
    """Frozen averaging result: weights plus per-model variational states."""

    models: list
    weights: np.ndarray
    variational: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not len(self.models) == len(self.weights) == len(self.variational):
            raise ValueError("models, weights and variational states differ in number")
        # as Multinomial(n, q) draws need: no entry above 1, a sum of 1 to 1e-12
        w = self.weights
        if not ((w >= 0) & (w <= 1)).all() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must lie in [0, 1] and sum to 1 within 1e-12")


def _model_draws(model, state, count, X, rng, noise=True):
    """(count, m) predictive draws of one model, its thetas drawn as one block."""
    thetas = families.sample(state, rng.standard_normal((count, state.dim)))
    return model.draw_predictive(thetas, X, rng, noise=noise)


def bma_draw(posterior: BmaPosterior, X, n_draws, rng):
    """Draws from the variational BMA predictive mixture at the rows of ``X``.

    Returns ``(n_draws, m)``.  The draws are split across models by
    Multinomial(n_draws, q), then each model predicts every row for each of
    its parameter draws; rows of the result are grouped by model.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    counts = rng.multinomial(n_draws, posterior.weights)
    return np.concatenate([
        _model_draws(model, state, c, X, rng)
        for model, state, c in zip(posterior.models, posterior.variational, counts) if c
    ])


def bayes_factor(weights, prior_weights, i, j):
    """B_ij = (q_i / q_j) * (prior_j / prior_i); inf when q_j = 0."""
    weights = np.asarray(weights, dtype=float)
    prior_weights = np.asarray(prior_weights, dtype=float)
    if prior_weights[i] <= 0:
        raise ValueError("prior weight of the numerator model must be positive")
    if weights[j] == 0.0:
        return np.inf
    return (weights[i] / weights[j]) * (prior_weights[j] / prior_weights[i])


def equal_tail_interval(draws, alpha):
    """Empirical (alpha/2, 1-alpha/2) quantiles along axis 0, linear
    interpolation: one interval per column of ``draws``.

    ``alpha`` is one level or a sequence of L; for a sequence, ``lo`` and
    ``hi`` get a leading axis of L, row i that of ``alpha[i]``, all from one
    ``np.quantile`` call."""
    draws = np.asarray(draws, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if draws.size == 0:
        raise ValueError("draws must be nonempty")
    if not ((0 < alpha) & (alpha < 1)).all():
        raise ValueError("alpha must be in (0, 1)")
    if alpha.size == 0:  # np.quantile takes no empty list of levels
        return np.empty((2, 0) + draws.shape[1:])
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return lo, hi


def coverage_curve(posterior, X_test, y_test, levels, n_draws=2000, seed=0):
    """Empirical coverage of equal-tail predictive intervals per level.

    ``levels`` are credibility levels (e.g. 0.1 .. 0.9); returns a dict
    level -> fraction of test responses inside their interval.  Every level
    reads the same ``n_draws`` draws, so intervals are nested in the level.
    """
    y_test = np.asarray(y_test, dtype=float)
    if len(y_test) == 0:
        raise ValueError("test set must be nonempty")
    draws = bma_draw(posterior, X_test, n_draws, np.random.default_rng(seed))
    lo, hi = equal_tail_interval(draws, [1.0 - lev for lev in levels])
    inside = ((lo <= y_test) & (y_test <= hi)).mean(axis=-1)
    return {lev: float(c) for lev, c in zip(levels, inside)}


def predictive_means(posterior, X, n_theta=50, seed=0):
    """Model-averaged conditional means at the rows of ``X``.

    Stratified over models: sum_k q_k times the mean of ``n_theta``
    noise-free draws of model k; models with q_k = 0 are skipped.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros(len(X))
    for model, state, q in zip(posterior.models, posterior.variational, posterior.weights):
        if q > 0.0:
            out += q * _model_draws(model, state, n_theta, X, rng, noise=False).mean(axis=0)
    return out


def rmse(predictions, truth):
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape:
        raise ValueError("length mismatch between predictions and truth")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))
