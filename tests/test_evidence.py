"""Evidence baselines against independent oracles.

The closed-form g-prior result is checked by brute-force 3-D quadrature of
likelihood times prior on a small dataset; the Monte Carlo estimator is
checked on the conjugate normal-mean model where the evidence is exact.
"""

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import logsumexp

from vbma import data as data_io
from vbma import evidence, studies

from vbma.evidence import (
    ConfigurationError,
    EvidenceEstimate,
    EvidenceMethod,
    evidence_to_posterior,
    mc_log_evidence,
    zellner_log_evidence,
)
from vbma.models import GaussianMeanModel, GPModel, LinRegModel, LogisticModel


def small_lin_model():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(8)
    x -= x.mean()
    y = 0.4 + 1.2 * x + rng.normal(0, 0.6, 8)
    return LinRegModel(x[:, None], y, predictors=("x",), g=8.0)


def gauss_legendre_3d(f, box, n_nodes):
    """Integral of ``f(z, y, x)`` over ``x``, ``y``, ``z`` in ``box`` (three
    (lo, hi) pairs, x first) by an n_nodes-point Gauss-Legendre rule per axis;
    ``f`` is evaluated on one (y, x) grid per z node."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    (x, wx), (yy, wy), (z, wz) = [
        (lo + 0.5 * (hi - lo) * (nodes + 1.0), 0.5 * (hi - lo) * weights) for lo, hi in box
    ]
    return sum(wk * (wy @ f(zk, yy[:, None], x[None, :]) @ wx) for zk, wk in zip(z, wz))


def test_zellner_matches_brute_force_quadrature():
    m = small_lin_model()
    X, y, n, g = m.X[:, 0], m.y, m.n, m.g
    xtx = float(X @ X)
    sx, sy, sxy, syy = X.sum(), y.sum(), X @ y, y @ y

    def integrand(lphi, beta, beta0):
        phi = np.exp(lphi)
        # resid @ resid for resid = y - beta0 - beta * X, from sufficient statistics
        rss = (syy - 2 * beta0 * sy - 2 * beta * sxy + n * beta0**2
               + 2 * beta0 * beta * sx + beta**2 * xtx)
        ll = 0.5 * n * (lphi - np.log(2 * np.pi)) - 0.5 * phi * rss
        lp_beta = 0.5 * (np.log(phi * xtx / g) - np.log(2 * np.pi)) - 0.5 * phi * xtx * beta**2 / g
        # phi ~ 1/phi becomes flat in log phi; flat intercept contributes 0
        return np.exp(ll + lp_beta + shift)

    shift = 8.0  # keeps the integrand O(1); subtracted back at the end
    # beta0 in [-3, 3], beta in [-3, 4], log phi in [-4, 5]
    val = gauss_legendre_3d(integrand, [(-3.0, 3.0), (-3.0, 4.0), (-4.0, 5.0)], 200)
    oracle = np.log(val) - shift
    est = zellner_log_evidence(m)
    assert est.method is EvidenceMethod.CLOSED_FORM_ZELLNER
    assert est.log_evidence == pytest.approx(oracle, abs=1e-4)


def test_zellner_null_model_matches_1d_quadrature():
    m = small_lin_model()
    null = LinRegModel(np.zeros((m.n, 0)), m.y, predictors=())
    y, n = null.y, null.n

    def integrand(lphi, beta0):
        phi = np.exp(lphi)
        resid = y - beta0
        return np.exp(0.5 * n * (lphi - np.log(2 * np.pi)) - 0.5 * phi * resid @ resid + shift)

    shift = 10.0
    val, _ = integrate.dblquad(integrand, -3.0, 4.0, -6.0, 7.0, epsabs=1e-10)
    assert zellner_log_evidence(null).log_evidence == pytest.approx(np.log(val) - shift, abs=1e-4)


def test_zellner_requires_enough_rows():
    with pytest.raises(ConfigurationError):
        zellner_log_evidence(LinRegModel(np.zeros((2, 1)) + [[1.0], [-1.0]],
                                         np.array([0.0, 1.0]), predictors=("x",)))


def test_mc_evidence_recovers_conjugate_truth():
    y = np.random.default_rng(3).normal(0.8, 1.0, size=15)
    m = GaussianMeanModel(y, obs_sd=1.0, prior_mean=0.0, prior_sd=2.0)
    est = mc_log_evidence(m, 200_000, seed=11)
    assert est.method is EvidenceMethod.MONTE_CARLO
    assert est.log_evidence == pytest.approx(m.log_evidence(), abs=3 * est.standard_error)
    assert est.log_evidence == pytest.approx(m.log_evidence(), abs=0.05)


def test_mc_standard_error_shrinks_like_sqrt_n():
    y = np.random.default_rng(4).normal(0.0, 1.0, size=10)
    m = GaussianMeanModel(y, obs_sd=1.0, prior_sd=1.5)
    se_small = np.mean([mc_log_evidence(m, 2_000, seed=s).standard_error for s in range(8)])
    se_big = np.mean([mc_log_evidence(m, 32_000, seed=s).standard_error for s in range(8)])
    assert se_small / se_big == pytest.approx(4.0, rel=0.35)


def test_mc_uses_vectorized_likelihood_when_available(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 1))
    y = (rng.random(25) < 0.5).astype(float)
    m = LogisticModel(X, y, predictors=("x",), prior_sd=2.0)
    a = mc_log_evidence(m, 20_000, seed=0)
    # batching must not change the estimate for a fixed seed
    monkeypatch.setattr(evidence, "MC_BATCH", 1_000)
    b = mc_log_evidence(m, 20_000, seed=0)
    assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-10)


def gp_5x5_and_shuffled():
    """A GP model on a 5 x 5 training lattice, and one on the same points in
    a shuffled order, which leaves the lattice."""
    ds = data_io.synth_gp_dataset(grid_size=5, seed=0, n_test=0, sigma=0.4)
    m = GPModel(np.column_stack([ds.column("x1"), ds.column("x2")]), ds.y())
    order = np.random.default_rng(2).permutation(m.n)
    shuffled = GPModel(m.coords[order], m.y[order])
    assert m.lattice == (5, 5) and shuffled.lattice is None
    return m, shuffled


def hand_loop_log_evidence(m, n_samples, seed):
    rng = np.random.default_rng(seed)
    log_liks = np.array([m.log_lik(m.sample_prior(rng, 1)[0]) for _ in range(n_samples)])
    return logsumexp(log_liks) - np.log(n_samples)


def count_likelihood_rows(monkeypatch, m):
    """Record the number of parameter rows each ``m.log_lik`` call takes."""
    rows, log_lik = [], m.log_lik
    monkeypatch.setattr(m, "log_lik", lambda theta: rows.append(len(np.atleast_2d(theta)))
                        or log_lik(theta))
    return rows


def test_mc_evidence_of_a_row_model_loops_log_lik_over_prior_draws(monkeypatch):
    # a GP model off a lattice takes one parameter vector at a time; its
    # estimate is the one a hand loop over the same prior draws gives,
    # whatever the batch
    _, m = gp_5x5_and_shuffled()
    assert not m.supports_blocks
    want = hand_loop_log_evidence(m, 30, seed=4)
    rows = count_likelihood_rows(monkeypatch, m)
    for batch in (evidence.MC_BATCH, 7):
        monkeypatch.setattr(evidence, "MC_BATCH", batch)
        rows.clear()
        est = mc_log_evidence(m, 30, seed=4)
        assert est.log_evidence == want and rows == [1] * 30
        assert est.standard_error > 0


def test_mc_evidence_of_a_lattice_gp_takes_blocks_of_prior_draws(monkeypatch):
    # on a lattice the GP evaluates a block of prior draws in one call; the
    # estimate is the hand loop's, whatever the batch
    m, _ = gp_5x5_and_shuffled()
    assert m.supports_blocks
    want = hand_loop_log_evidence(m, 30, seed=4)
    rows = count_likelihood_rows(monkeypatch, m)
    for batch, blocks in ((evidence.MC_BATCH, [30]), (7, [7, 7, 7, 7, 2])):
        monkeypatch.setattr(evidence, "MC_BATCH", batch)
        rows.clear()
        est = mc_log_evidence(m, 30, seed=4)
        assert est.log_evidence == pytest.approx(want, rel=1e-12, abs=0)
        assert rows == blocks and est.standard_error > 0


def test_mc_evidence_on_a_lattice_matches_the_dense_path():
    # the prior draws depend only on the seed, so both estimates see the
    # same draws
    m, shuffled = gp_5x5_and_shuffled()
    for seed in (0, 4):
        want = mc_log_evidence(shuffled, 200, seed=seed)
        got = mc_log_evidence(m, 200, seed=seed)
        assert got.log_evidence == pytest.approx(want.log_evidence, rel=1e-10, abs=0)
        assert got.standard_error == pytest.approx(want.standard_error, rel=1e-8)


class BlockSizeRecorder(LogisticModel):
    """A logistic model that records the rows of every log_lik block."""

    def log_lik(self, theta):
        self.blocks.append(np.shape(theta)[0])
        return super().log_lik(theta)


def test_mc_default_batch_bounds_block_size(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 1))
    y = (rng.random(25) < 0.5).astype(float)
    m = BlockSizeRecorder(X, y, predictors=("x",), prior_sd=2.0)
    m.blocks = []
    est = mc_log_evidence(m, 10_000, seed=0)
    assert m.blocks == [4096, 4096, 1808]
    m.blocks = []
    monkeypatch.setattr(evidence, "MC_BATCH", 10_000)
    unbatched = mc_log_evidence(m, 10_000, seed=0)
    assert m.blocks == [10_000]
    assert est.log_evidence == pytest.approx(unbatched.log_evidence, rel=1e-12)


def test_mc_default_batch_holds_a_fixed_byte_budget(monkeypatch):
    # a GP block on gp-predict's 17 x 18 lattice with 6 holes holds ~71 KB a
    # draw, so the default block is MC_BYTES of draws, not MC_BATCH; the
    # estimate is the one of any other batch
    m = studies.gp_study(grid_size=18, n_test=24, seed=0)[1][0]
    assert m.path == "lattice 17x18 with 6 holes"
    rows = evidence.MC_BYTES // m.bytes_per_draw()
    assert 100 < rows < evidence.MC_BATCH
    blocks, log_lik = [], m.log_lik
    monkeypatch.setattr(m, "log_lik", lambda theta: blocks.append(len(theta)) or log_lik(theta))
    est = mc_log_evidence(m, 2 * rows + 5, seed=0)
    assert blocks == [rows, rows, 5]
    monkeypatch.setattr(evidence, "MC_BATCH", 97)
    other = mc_log_evidence(m, 2 * rows + 5, seed=0)
    assert est.log_evidence == pytest.approx(other.log_evidence, rel=1e-12, abs=0)


def test_mc_log_evidence_is_pinned_on_heart_and_the_gp_pair():
    # 2e4 prior draws at seed 3, as recorded while each model had its own
    # prior sampler; rtol 1e-12 for the BLAS of other machines
    _, heart = studies.heart_study()
    _, gp = studies.gp_study()
    got = [mc_log_evidence(m, 20_000, seed=3).log_evidence for m in (heart[-1], *gp)]
    want = [-186.08264455378745, -150.25989612639466, -160.41239986296037]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_mc_refuses_improper_priors():
    with pytest.raises(ConfigurationError, match="improper"):
        mc_log_evidence(small_lin_model(), 100)


def test_evidence_estimate_validates_se():
    with pytest.raises(ValueError):
        EvidenceEstimate(0.0, EvidenceMethod.MONTE_CARLO, -1.0)


def test_evidence_to_posterior_is_softmax_with_priors():
    ests = [EvidenceEstimate(v, EvidenceMethod.MONTE_CARLO) for v in (-10.0, -11.0)]
    post = evidence_to_posterior(ests, [0.5, 0.5])
    assert post.sum() == pytest.approx(1.0)
    assert post[0] / post[1] == pytest.approx(np.e, rel=1e-10)
    tilted = evidence_to_posterior(ests, [0.2, 0.8])
    assert tilted[0] / tilted[1] == pytest.approx(np.e * 0.25, rel=1e-10)


def test_evidence_to_posterior_handles_large_magnitudes():
    ests = [EvidenceEstimate(v, EvidenceMethod.MONTE_CARLO) for v in (-1e4, -1e4 + 1)]
    post = evidence_to_posterior(ests, [0.5, 0.5])
    assert np.isfinite(post).all()
    assert post[1] > post[0]


def test_evidence_to_posterior_refuses_mixed_methods():
    mixed = [
        EvidenceEstimate(-5.0, EvidenceMethod.CLOSED_FORM_ZELLNER),
        EvidenceEstimate(-5.0, EvidenceMethod.MONTE_CARLO),
    ]
    with pytest.raises(ConfigurationError, match="mix"):
        evidence_to_posterior(mixed, [0.5, 0.5])


def test_evidence_to_posterior_rejects_nan_and_all_neg_inf():
    # the weight update's softmax, with its checks: no NaN weights
    for values in ((-1.0, np.nan), (-np.inf, -np.inf)):
        ests = [EvidenceEstimate(v, EvidenceMethod.MONTE_CARLO) for v in values]
        with pytest.raises(ValueError):
            evidence_to_posterior(ests, [0.5, 0.5])


def test_zellner_posterior_consistent_under_g_change():
    # posterior probabilities from evidences must stay a simplex for any g
    rng = np.random.default_rng(9)
    x = rng.standard_normal(20)
    x -= x.mean()
    y = 0.3 * x + rng.normal(0, 1, 20)
    for g in (1.0, 20.0, 400.0):
        models = [
            LinRegModel(np.zeros((20, 0)), y, predictors=(), g=g),
            LinRegModel(x[:, None], y, predictors=("x",), g=g),
        ]
        ests = [zellner_log_evidence(m) for m in models]
        post = evidence_to_posterior(ests, [0.5, 0.5])
        assert post.sum() == pytest.approx(1.0)
        assert (post >= 0).all()
