"""Model log-densities against independent reimplementations (scipy and
hand-written numpy), finite-difference gradient checks for every model, and
ensemble construction."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vbma import autodiff as ad
from vbma import data as data_io
from vbma import families
from vbma import studies
from vbma.core import VbmaConfig, run
from vbma.families import FamilyTag
from vbma.models import (
    LOG2PI,
    MC_BYTES,
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


def sequential_log_evidence(model):
    """log p(y) as the sum of the one-step predictive log densities
    log N(y_i; posterior mean given y_<i, obs_sd^2 + posterior variance)."""
    prec = 1.0 / model.prior_sd**2
    mean = model.prior_mean
    total = 0.0
    for yi in model.y:
        total += stats.norm(mean, np.sqrt(model.obs_sd**2 + 1.0 / prec)).logpdf(yi)
        prec_next = prec + 1.0 / model.obs_sd**2
        mean = (prec * mean + yi / model.obs_sd**2) / prec_next
        prec = prec_next
    return total


@pytest.mark.parametrize("n", [1, 20, 300])
@pytest.mark.parametrize("prior_sd, obs_sd", [
    (3.0, 2.0), (1e-3, 1.0), (1.0, 1e3), (1e3, 1.0), (1.0, 1e-3), (1e-3, 1e-3), (1e3, 1e3),
])
def test_gaussian_mean_posterior_and_evidence_against_formulas(n, prior_sd, obs_sd):
    r = rng()
    y = r.normal(r.normal(0.5, prior_sd), obs_sd, size=n)
    m = GaussianMeanModel(y, obs_sd=obs_sd, prior_mean=0.5, prior_sd=prior_sd)
    # independent derivation of the conjugate update
    prec = 1 / prior_sd**2 + n / obs_sd**2
    mean = (0.5 / prior_sd**2 + y.sum() / obs_sd**2) / prec
    pm, ps = m.posterior()
    assert pm == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert ps == pytest.approx(np.sqrt(1 / prec), rel=1e-12, abs=1e-12)
    # evidence equals the marginal multivariate normal density; scipy's
    # eigendecomposition of the covariance loses about log10(cond) digits
    cov = obs_sd**2 * np.eye(n) + prior_sd**2 * np.ones((n, n))
    cond = 1.0 + n * prior_sd**2 / obs_sd**2
    ref = stats.multivariate_normal.logpdf(y, mean=np.full(n, 0.5), cov=cov)
    assert m.log_evidence() == pytest.approx(ref, abs=1e-8 * max(1.0, cond / 1e6))
    assert m.log_evidence() == pytest.approx(sequential_log_evidence(m), rel=1e-12, abs=1e-12)


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


@pytest.mark.parametrize("cls", [LinRegModel, LogisticModel])
def test_intercept_only_model_is_the_p0_case(cls):
    # the layout keeps a size-0 beta block, and the design must be (n, p)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    m = cls(np.zeros((4, 0)), y)
    assert m.name.endswith("intercept") and m.X.shape == (4, 0)
    assert m.layout.slice("beta") == slice(1, 1)
    assert m.layout.names() == (("beta0", "phi") if cls is LinRegModel else ("beta0",))
    for X, predictors in ((np.zeros((4, 1)), ()), (np.zeros((4, 2)), ("a",)),
                          (np.zeros((3, 1)), ("a",))):
        with pytest.raises(ValueError, match="design X must be"):
            cls(X, y, predictors=predictors)


@pytest.mark.parametrize("cls, key", [(LinRegModel, "g"), (LogisticModel, "prior_sd")])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_prior_scale_must_be_finite_and_positive(cls, key, value):
    X = np.array([[-1.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
        cls(X, np.array([0.0, 1.0, 1.0]), predictors=("a",), **{key: value})


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


def test_bytes_per_draw_bounds_what_a_block_allocates():
    # the traced peak of a plain-array log_lik block, per row, against the
    # model's estimate: the GP on a full lattice and on one with holes, and
    # every other block model
    gp = [studies.gp_study(grid_size=g, n_test=t, seed=0)[1][0] for g, t in ((20, 100), (18, 24))]
    assert [m.path for m in gp] == ["lattice 15x20", "lattice 17x18 with 6 holes"]
    r = rng()
    for m in gp + list(block_models().values()):
        thetas = r.standard_normal((64, m.layout.dim))
        positive = [t is FamilyTag.LOGNORMAL for t in m.layout.tags()]
        thetas[:, positive] = np.exp(thetas[:, positive])
        m.log_lik(thetas[:2])  # warm
        tracemalloc.start()
        try:
            m.log_lik(thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * m.bytes_per_draw() < peak / 64 < m.bytes_per_draw(), m.name


def test_linear_block_peak_does_not_grow_with_n():
    # log_lik reads sufficient statistics, built on first use, so a block
    # forms no (..., n) array: the traced peak of a block of 64 draws, plain
    # and on the tape, is the same at n = 10^2 and n = 10^5
    r = rng()
    peaks = []
    for n in (10**2, 10**5):
        X = r.standard_normal((n, 3))
        m = LinRegModel(X - X.mean(axis=0), r.standard_normal(n), predictors=("u", "v", "w"))
        thetas = member_draws(m, r, (64,))
        m.log_lik(thetas[:2])  # builds the statistics
        tracemalloc.start()
        try:
            m.log_lik(thetas)
            plain = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ad.grad(m.log_lik, thetas)
            peaks.append((plain, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (small_plain, small_tape), (big_plain, big_tape) = peaks
    assert big_plain <= 1.05 * small_plain and big_tape <= 1.05 * small_tape, peaks
    assert big_plain < 64 * m.bytes_per_draw()


def residual_log_lik(m, theta):
    """log_lik of a linear model, or of its stack, and its gradient from the
    residuals y - beta0 - X beta, in extended precision: the oracle of the
    sufficient statistics."""
    ld = np.longdouble
    t, X, y = (np.asarray(a, dtype=ld) for a in (theta, m.X, m.y))
    phi = t[..., -1]
    resid = y - t[..., :1] - t[..., 1:1 + X.shape[1]] @ X.T
    ssq = (resid * resid).sum(axis=-1)
    d_mean = phi[..., None] * resid
    grads = np.concatenate([d_mean.sum(axis=-1, keepdims=True), d_mean @ X,
                            (0.5 * m.n / phi - 0.5 * ssq)[..., None]], axis=-1)
    return 0.5 * m.n * (np.log(phi) - ld(LOG2PI)) - 0.5 * phi * ssq, grads


def test_linear_log_lik_from_sufficient_statistics_on_an_uncentred_design():
    # every subset of two predictors whose means sit 1e3 from zero, and its
    # stack, on draws at the least-squares fit and 1e-8 to 1 away from it.
    # Values agree to 1e-12 relative (2e-14 measured).  A gradient entry is
    # held to 1e-14 of the rounding floor of either form: phi n |x| times
    # the size of the terms of beta0 + x'beta - y that cancel (5e-16
    # measured); at the fit that floor is what the gradient is made of.
    r = rng()
    n = 40
    u, v = r.normal(size=n), r.normal(size=n)
    cols = {"y": 2.0 + 0.5 * u - 0.8 * v + r.normal(0.0, 0.3, n), "u": u + 1e3, "v": v - 1e3}
    models = linreg_subset_ensemble(data_io.prepare(cols, "y"), ("u", "v"))
    steps = np.array([0.0, 0.0, 1e-8, 1e-4, 1e-2, 1.0])[:, None]
    block = np.zeros((len(models), len(steps), models.stacked.layout.dim))
    for k, (m, own) in enumerate(zip(models, models.mask)):
        fit = np.linalg.lstsq(np.column_stack([np.ones(n), m.X]), m.y, rcond=None)[0]
        theta = np.empty((len(steps), m.layout.dim))
        theta[:, :-1] = fit + steps * r.standard_normal((len(steps), len(fit)))
        theta[:, -1] = np.exp(r.normal(size=len(steps)))
        block[k][:, own] = theta
    for m, theta in [*((m, block[k][:, own]) for k, (m, own) in enumerate(zip(models, models.mask))),
                     (models.stacked, block)]:
        val, g = ad.grad(m.log_lik, theta)
        want_val, want_g = residual_log_lik(m, theta)
        np.testing.assert_allclose(val, want_val.astype(float), rtol=1e-12)
        np.testing.assert_array_equal(m.log_lik(theta), val)
        x_size = np.abs(m.X).mean(axis=0)
        size = (np.abs(theta[..., :1]) + (np.abs(theta[..., 1:-1]) @ x_size)[..., None]
                + np.abs(m.y).mean())
        floor = theta[..., -1:] * n * size * max(1.0, x_size.max(initial=0.0))
        assert (np.abs(g - want_g).astype(float) <= 1e-14 * floor).all(), m.name


# -- closed forms against the tape ---------------------------------------------


def tape_log_lik(m, theta):
    """``m.log_lik`` of a linear or logistic model, or of its stack, as
    recorded elementwise tape operations, as the models computed it before
    their closed forms: the oracle for their values and gradients."""
    P = m.X.shape[1]
    beta0, beta = theta[..., 0:1], theta[..., 1:1 + P]
    if isinstance(m, LinRegModel):
        phi = theta[..., -1]
        mean = beta0 + ad.dot(beta, m.X.T) if P else beta0
        ssq = ad.vsum((m.y - mean) ** 2, axis=-1)
        return 0.5 * m.n * (ad.log(phi) - LOG2PI) - 0.5 * phi * ssq
    a = beta0 + ad.dot(beta, m.X.T) if P else beta0 * np.ones(len(m.y))
    return -ad.vsum(ad.softplus(m._sign * a), axis=-1)


def tape_log_prior(m, theta):
    """``m.log_prior`` as recorded tape operations; see ``tape_log_lik``."""
    P = m.X.shape[1]
    if isinstance(m, LinRegModel):
        beta, phi = theta[..., 1:1 + P], theta[..., -1]
        out = -ad.log(phi)
        if P:
            quad = ad.vsum(beta * ad.dot(beta, m.xtx), axis=-1)
            out = out + (-0.5 * m.p * LOG2PI + 0.5 * m.p * ad.log(phi)
                         - 0.5 * m.p * np.log(m.g) + 0.5 * m.logdet_xtx
                         - 0.5 * phi / m.g * quad)
        return out
    # a stack's members count their own coordinates; its padding is zero
    mask = m.prior.mask
    d = m.layout.dim if mask is None else mask.sum(axis=-1)
    ssq = ad.vsum(theta**2, axis=-1)
    return -0.5 * (d * (LOG2PI + 2.0 * np.log(m.prior_sd)) + ssq / m.prior_sd**2)


def assert_closed_forms_match_tape(m, theta):
    """log_lik and log_prior of ``m`` at ``theta`` (one row or a block) match
    the tape oracles to 1e-12 relative, in values and gradients, on a node
    and on a plain array."""
    for closed, tape in ((m.log_lik, tape_log_lik), (m.log_prior, tape_log_prior)):
        val, g = ad.grad(closed, theta)
        want_val, want_g = ad.grad(lambda th: tape(m, th), theta)
        scale = np.abs(want_val).max()
        np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(closed(theta), want_val, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-12 * np.abs(want_g).max())


def member_draws(m, r, shape, spread=1.0):
    """Draws of ``m``'s parameters, ``shape + (d,)``, positive where the
    layout is log-normal."""
    theta = spread * r.standard_normal(shape + (m.layout.dim,))
    positive = [t is FamilyTag.LOGNORMAL for t in m.layout.tags()]
    theta[..., positive] = np.exp(theta[..., positive] / spread)
    return theta


@pytest.mark.parametrize("kind, spread", [("linear", 1.0), ("logistic", 1.0), ("logistic", 300.0)])
def test_closed_forms_match_tape_on_rows_blocks_and_stacks(kind, spread):
    # each member (the intercept-only one included) on one vector and on an
    # (S, d) block, checked by finite differences too, and the stacked
    # model on a zero-padded (K, S, D) block; a spread of 300 puts logits in
    # the hundreds, where sigmoid saturates at 0 and 1 in the gradient
    models = subset_ensembles()[kind]
    assert min(m.p for m in models) == 0
    r = rng()
    stack = np.zeros((len(models), 5, models.stacked.layout.dim))
    for k, (m, own) in enumerate(zip(models, models.mask)):
        theta = member_draws(m, r, (5,), spread)
        assert_closed_forms_match_tape(m, theta[0])
        assert_closed_forms_match_tape(m, theta)
        assert ad.finite_diff_check(m.log_joint, theta[1], h=1e-6) < 1e-5
        stack[k][:, own] = theta
    assert_closed_forms_match_tape(models.stacked, stack)


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


def test_logistic_predictive_far_below_zero_is_zero(logit_model):
    # at a logit of -800, exp(800) would overflow; the stable sigmoid gives 0
    theta = np.array([-800.0, 0.0, 0.0])
    p = logit_model.draw_predictive(theta[None], np.array([[0.0, 0.0]]),
                                    np.random.default_rng(0), noise=False)
    assert p.item() == 0.0


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


def off_lattice(m):
    """A copy of ``m`` whose inputs are scattered off the lattice: each
    coordinate moves by up to 0.1, so every x1 and x2 value is distinct,
    the lattice of them would be almost all holes and the model takes the
    dense path."""
    shift = np.random.default_rng(3).uniform(-0.1, 0.1, m.coords.shape)
    return GPModel(m.coords + shift, m.y, free_mean=m.free_mean,
                   mean_offset=m.mean_offset, name=m.name)


def with_holes(m, holes=(7, 18, 24)):
    """A copy of ``m`` without the training points ``holes``: an interior
    point, one on the edge and the last."""
    keep = np.ones(m.n, dtype=bool)
    keep[list(holes)] = False
    return GPModel(m.coords[keep], m.y[keep], free_mean=m.free_mean,
                   mean_offset=m.mean_offset, name=m.name)


@pytest.fixture(scope="module")
def gp_pairs(gp_pair):
    """The lattice pair, its off-lattice copy and its copy with holes, one
    pair per path."""
    off, holed = (tuple(f(m) for m in gp_pair) for f in (off_lattice, with_holes))
    assert [m.lattice for m in gp_pair + off + holed] == [(5, 5)] * 2 + [None] * 2 + [(5, 5)] * 2
    assert all(list(m.holes) == [7, 18, 24] for m in holed)
    assert [m.path for m in off + holed] == ["dense 25"] * 2 + ["lattice 5x5 with 3 holes"] * 2
    assert [m.path for m in gp_pair] == ["lattice 5x5"] * 2
    return gp_pair, off, holed


def gp_theta(m, theta):
    """``theta`` = (beta, eta, nu1, nu2, sigma) on ``m``'s layout."""
    return theta if m.free_mean else theta[1:]


def test_gp_lattice_needs_the_full_product_in_x1_major_order():
    g1, g2 = np.meshgrid(np.arange(4.0), 0.5 * np.arange(5.0), indexing="ij")
    lattice = np.column_stack([g1.ravel(), g2.ravel()])
    swapped = lattice.copy()
    swapped[[5, 6]] = swapped[[6, 5]]  # two x2 values of the second row
    repeated = np.column_stack([[0.0, 0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 1.0] * 3])
    interior = [3, 8, 9, 12]
    # 20 points of a 10 x 10 integer grid, in x1-major order: a lattice of
    # 80 holes, far dearer than a dense Cholesky of 20 points
    flat = np.sort(np.random.default_rng(0).choice(100, 20, replace=False))
    scatter = np.column_stack([flat // 10, flat % 10]).astype(float)
    cases = {
        "x1-major": (lattice, (4, 5), []),
        "x2-major": (lattice.reshape(4, 5, 2).transpose(1, 0, 2).reshape(-1, 2), None, None),
        "one row swapped": (swapped, None, None),
        "a point dropped": (lattice[:-1], (4, 5), [19]),
        "trailing holes": (lattice[:-3], (4, 5), [17, 18, 19]),
        "interior holes": (np.delete(lattice, interior, axis=0), (4, 5), interior),
        "a sparse integer scatter": (scatter, None, None),
        # (9, 9) makes a 5 x 6 lattice with 9 holes, dearer than dense
        "a point added": (np.vstack([lattice, [[9.0, 9.0]]]), None, None),
        "repeated x1 rows": (repeated, None, None),
        "one x1 value": (lattice[:5], None, None),
    }
    for label, (coords, want, holes) in cases.items():
        m = GPModel(coords, np.zeros(len(coords)))
        assert m.lattice == want, label
        assert (None if m.holes is None else m.holes.tolist()) == holes, label
        assert m.supports_blocks == (want is not None), label


def test_gp_log_lik_matches_scipy(gp_model):
    m = gp_model
    theta = np.array([0.3, 1.1, 2.5, 2.0, 0.5])  # beta, eta, nu1, nu2, sigma
    K = data_io.sq_exp_kernel(m.coords, 1.1, 2.5, 2.0)
    K += (0.5**2 + GPModel.BASE_JITTER * 1.1**2) * np.eye(m.n)
    ref = stats.multivariate_normal.logpdf(m.y, mean=0.3 * np.ones(m.n), cov=K)
    assert as_float(m.log_lik(theta)) == pytest.approx(ref, abs=1e-8)


def test_gp_log_prior_matches_scipy(gp_pair):
    # the defaults: beta ~ N(0, 1), eta and sigma LogNormal(0, 1), nu1 and
    # nu2 LogNormal(1, 1)
    assert GPModel.MEAN_PRIOR == (0.0, 1.0)
    assert GPModel.LOGNORMAL_PRIORS == {"eta": (0.0, 1.0), "nu1": (1.0, 1.0),
                                        "nu2": (1.0, 1.0), "sigma": (0.0, 1.0)}
    hyper_priors = [(0, 1), (1, 1), (1, 1), (0, 1)]
    for m, mean_prior in [(gp_pair[0], (0, 1)), (gp_pair[1], None)]:
        theta = gp_theta(m, np.array([0.3, 1.1, 2.5, 2.0, 0.5]))
        ref = stats.norm(*mean_prior).logpdf(0.3) if mean_prior else 0.0
        for val, (loc, sd) in zip(theta[-4:], hyper_priors):
            ref += stats.lognorm(s=sd, scale=np.exp(loc)).logpdf(val)
        assert as_float(m.log_prior(theta)) == pytest.approx(ref, abs=1e-9)


def test_gp_gradient_matches_fd(gp_pairs):
    for m in itertools.chain(*gp_pairs):
        theta0 = gp_theta(m, np.array([0.1, 0.9, 2.0, 3.0, 0.6]))
        assert ad.finite_diff_check(m.log_joint, theta0, h=1e-5) < 1e-4


def test_gp_sample_prior_draws_as_a_per_parameter_loop(gp_pair):
    # MC evidence relies on this order of draws: row by row, the mean, then
    # eta, nu1, nu2 and sigma, one normal each; a block is the loop's rows
    for m in gp_pair:
        r, r_loop = rng(), rng()
        want = []
        for _ in range(5):
            want.append([r_loop.normal(*m.MEAN_PRIOR)] if m.free_mean else [])
            for name in ("eta", "nu1", "nu2", "sigma"):
                loc, sd = m.LOGNORMAL_PRIORS[name]
                want[-1].append(np.exp(r_loop.normal(loc, sd)))
        assert np.array_equal(m.sample_prior(r, 5), np.array(want))


@pytest.mark.parametrize("kind", ["normal-mean", "logistic", "logistic-intercept"])
def test_sample_prior_draws_as_a_per_coordinate_loop(kind):
    # the same contract for the normal priors: a block is, bitwise, the rows
    # of loc + sd z, one standard normal per coordinate in layout order
    m = block_models()[kind]
    loc = m.prior_mean if kind == "normal-mean" else 0.0
    r, r_loop = rng(), rng()
    want = [[loc + m.prior_sd * r_loop.standard_normal() for _ in range(m.layout.dim)]
            for _ in range(6)]
    assert np.array_equal(m.sample_prior(r, 6), np.array(want))


def tape_kernel_log_joint(m, theta):
    """``m.log_joint`` as recorded elementwise tape operations, one
    hyperparameter at a time, with the Gaussian linked to the tape-built K
    by ``tape_gaussian``: the oracle for the GP's closed-form gradients on
    the dense and the lattice path, for its prior and for the work arrays
    it reuses.  It indexes ``theta`` itself and factors a private dense copy
    of K."""
    beta = theta[0] if m.free_mean else 0.0
    hyper = {name: theta[i] for i, name in zip(range(-4, 0), ("eta", "nu1", "nu2", "sigma"))}
    prior = 0.0
    if m.free_mean:
        m0, s0 = m.MEAN_PRIOR
        prior = prior - 0.5 * (np.log(2 * np.pi) + 2.0 * np.log(s0) + (beta - m0) ** 2 / s0**2)
    for name, x in hyper.items():
        loc, sd = m.LOGNORMAL_PRIORS[name]
        prior = prior - ad.log(x) - 0.5 * (
            np.log(2 * np.pi) + 2.0 * np.log(sd) + (ad.log(x) - loc) ** 2 / sd**2)
    eta, nu1, nu2, sigma = hyper.values()
    resid = -(beta + m.mean_offset - m.y)
    base = ad.exp(m._d1sq * (-0.5 / nu1**2) + m._d2sq * (-0.5 / nu2**2))
    K = eta**2 * base + (sigma**2 + m.BASE_JITTER * eta**2) * np.eye(m.n)
    return tape_gaussian(resid, K) + prior


def tape_gaussian(resid, K):
    """The numpy ``ad.gaussian_spd_logpdf`` on the tape: one node linked to
    ``resid`` and ``K`` through its gradients."""
    val, grads = ad.gaussian_spd_logpdf(ad._value_of(resid), K.value)
    d_resid, d_K = grads()
    return ad.Node(val, ad._links((resid, lambda g: g * d_resid), (K, lambda g: g * d_K)))


def assert_matches_tape_kernel(m, theta):
    val, g = ad.grad(m.log_joint, theta)
    want_val, want_g = ad.grad(lambda th: tape_kernel_log_joint(m, th), theta)
    assert val == pytest.approx(want_val, rel=1e-10, abs=0)
    np.testing.assert_allclose(g, want_g, rtol=1e-10, atol=1e-10 * np.abs(want_g).max())


def test_gp_closed_form_kernel_matches_tape_on_prior_draws(gp_pairs):
    r = rng()
    for m in itertools.chain(*gp_pairs):
        for theta in m.sample_prior(r, 10):
            assert_matches_tape_kernel(m, theta)


def no_dense_kernel(monkeypatch, m):
    """On the lattice path, make building a dense K or calling ``eigvalsh``
    fail the test."""
    if m.lattice is not None:
        def dense(*args, **kw):
            raise AssertionError("dense kernel work on the lattice path")

        monkeypatch.setattr(m, "_kernel", dense)
        monkeypatch.setattr(np.linalg, "eigvalsh", dense)


def test_gp_failed_factorization_raises_conditioning_error_at_once(gp_pairs, monkeypatch):
    # K's rounding error, ~n * eps * eta^2, is far below the jitter of
    # 1e-6 * eta^2, so no draw with a finite value fails to factor, and a
    # larger jitter could not rescue one that does: the first failure is
    # final.  The factorization is made to fail on a well-conditioned draw.
    # On the lattice the message reports the exact smallest eigenvalue,
    # taken from the two factors.
    real = ad.gaussian_spd_logpdf
    covs = []

    def fails(resid, cov, work=None):
        covs.append(cov)
        real(resid, cov, work=work)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(ad, "gaussian_spd_logpdf", fails)
    for m in itertools.chain(*gp_pairs):
        covs.clear()
        theta = gp_theta(m, np.array([0.1, 0.9, 2.0, 3.0, 0.6]))
        with monkeypatch.context() as mp:
            no_dense_kernel(mp, m)
            with pytest.raises(ConditioningError, match=r"kernel matrix not positive definite "
                               r"at jitter 1e-06 eta\^2 \(min eigenvalue ~ .*e-0\d, "
                               r"eta=0\.9\)") as err:
                ad.grad(m.log_joint, theta)
        assert len(covs) == 1
        if m.lattice is not None:
            min_d = covs[0].eigen()[-1].min()
            assert f"min eigenvalue ~ {min_d:.3e}," in str(err.value)


def test_gp_hopeless_draw_raises_conditioning_error(gp_pairs, monkeypatch):
    # eta^2 underflows, so K is not positive definite at any jitter
    theta = np.array([0.1, 1e-161, 3.0, 3.0, 1e-170])
    for m in (pair[0] for pair in gp_pairs):
        with monkeypatch.context() as mp:
            no_dense_kernel(mp, m)
            with pytest.raises(ConditioningError, match=r"kernel matrix not positive definite "
                               r"at jitter .* \(min eigenvalue ~ .*, eta=1e-161\)"):
                ad.grad(m.log_joint, theta)


def test_gp_block_with_a_hopeless_draw_raises_conditioning_error(gp_pairs, monkeypatch):
    # the message names the worst draw of the block, whatever its position,
    # with holes too
    for m in gp_pairs[0] + gp_pairs[2]:
        r = rng()
        thetas = m.sample_prior(r, 6)
        thetas[3, -4:] = [1e-161, 3.0, 3.0, 1e-170]
        with monkeypatch.context() as mp:
            no_dense_kernel(mp, m)
            with pytest.raises(ConditioningError, match=r"kernel matrix not positive definite "
                               r"at jitter .* \(min eigenvalue ~ .*, eta=1e-161\)"):
                ad.grad(m.log_joint, thetas[None])


def test_gp_block_log_joint_matches_rows_on_a_lattice(gp_pairs):
    # a (1, S, d) block takes one tape pass; each row's value and gradient
    # are bitwise those of the row on its own, with holes too
    r = rng()
    for m in gp_pairs[0] + gp_pairs[2]:
        assert m.supports_blocks
        thetas = m.sample_prior(r, 12)[None]
        vals, grads = ad.grad(m.log_joint, thetas)
        assert vals.shape == (1, 12) and grads.shape == thetas.shape
        for s, theta in enumerate(thetas[0]):
            val, g = ad.grad(m.log_joint, theta)
            assert vals[0, s] == val and np.array_equal(grads[0, s], g)
        assert np.array_equal(m.log_joint(thetas), vals)  # plain arrays in, plain arrays out
    assert not any(m.supports_blocks for m in gp_pairs[1])


def test_gp_terms_sharing_one_tape_match_finite_differences(gp_pairs):
    # both models and a shallow copy, which shares its original's work array,
    # enter one tape, whose sweep runs only after every factorization: each
    # term must keep its own K^-1 and base
    for free, fixed in gp_pairs:
        free._work  # built before the copy, so the copy shares it
        clone = copy.copy(free)
        stretch = np.array([1.0, 1.1, 0.9, 1.2, 1.05])

        def f(th):
            return free.log_lik(th) + 0.5 * clone.log_lik(th * stretch) + fixed.log_lik(th[1:])

        theta = np.array([0.1, 0.9, 2.0, 3.0, 0.6])
        assert ad.finite_diff_check(f, theta, h=1e-5) < 1e-4
        _, g = ad.grad(f, theta)
        _, g1 = ad.grad(free.log_lik, theta)
        _, g2 = ad.grad(free.log_lik, theta * stretch)
        _, g3 = ad.grad(fixed.log_lik, theta[1:])
        g3 = np.concatenate([[0.0], g3])
        np.testing.assert_allclose(g, g1 + 0.5 * stretch * g2 + g3, rtol=1e-12, atol=1e-12)


def test_tape_records_a_few_nodes_per_pass(gp_pairs, monkeypatch):
    # every built-in log density enters the tape as one closed-form node: the
    # leaf, log_lik, log_prior and their sum; a block's sweep is seeded with
    # ones, with no row-sum node.  The GP's plain-array log_lik asks for no
    # gradient.
    counts = []
    backward, real = ad.backward, ad.gaussian_spd_logpdf

    def counting(out, seed=None):
        counts.append(len(ad._toposort(out)))
        backward(out, seed)

    def value_only(resid, cov, work=None):
        val, _ = real(resid, cov, work=work)

        def grads():
            raise AssertionError("gradient computed for a plain-array log_lik")

        return val, grads

    monkeypatch.setattr(ad, "backward", counting)
    r = rng()
    for build in (studies.crime_study, studies.heart_study):
        models = build()[1]
        ad.grad(models.stacked.log_joint, member_draws(models.stacked, r, (len(models), 3)))
    for m in itertools.chain(*gp_pairs):
        (theta,) = m.sample_prior(r, 1)
        ad.grad(m.log_joint, theta[None, None] if m.supports_blocks else theta)
    assert counts == [4] * 8
    monkeypatch.setattr(ad, "gaussian_spd_logpdf", value_only)
    for m in itertools.chain(*gp_pairs):
        thetas = m.sample_prior(r, 3)
        for theta in (thetas if not m.supports_blocks else [*thetas, thetas]):
            assert np.all(np.isfinite(m.log_lik(theta)))
        with pytest.raises(AssertionError, match="gradient computed"):
            ad.grad(m.log_lik, thetas[0])


def test_gp_draw_allocates_no_n_by_n_array():
    ds = data_io.synth_gp_dataset(grid_size=12, seed=0, n_test=0, sigma=0.4)
    coords = np.column_stack([ds.column("x1"), ds.column("x2")])
    lattice = GPModel(coords, ds.y(), free_mean=True)
    theta = np.array([0.1, 0.9, 2.0, 3.0, 0.6])
    for m in (lattice, off_lattice(lattice)):
        one_array = m.n * m.n * 8
        for draw in (lambda: ad.grad(m.log_joint, theta),
                     lambda: m.predict_dist(theta[None], coords[:5])):
            draw()  # warm: the work arrays are allocated on first use
            tracemalloc.start()
            try:
                draw()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < one_array, (m.lattice, peak, one_array)


def test_gp_fit_reruns_bitwise_after_the_work_arrays_are_dirtied(gp_pairs):
    cfg = VbmaConfig(n_samples=3, pretrain_iters=3, joint_iters=2, window=1, seed=7)
    for free, fixed in gp_pairs:
        def fit():
            state = run(cfg, [free, fixed])
            return state.to_text() + repr(state.elbo_trace)

        first = fit()
        # an unrelated draw and a prediction leave other values in the arrays
        ad.grad(free.log_joint, np.array([-0.4, 2.0, 0.7, 1.5, 0.2]))
        fixed.predict_dist(np.array([[1.0, 3.0, 3.0, 0.01]]), free.coords[:4])
        assert fit() == first
        assert not np.may_share_memory(free._work, fixed._work)  # one array per model
        for m in (free, fixed):
            m._work[:] = np.nan  # nothing reads what an earlier draw left
        assert fit() == first


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
    mean, var, noise_var = m.predict_dist(np.array([[1.0, 3.0, 3.0, 0.01]]), coords[:3])
    assert np.allclose(mean[0], ds.y()[:3], atol=0.05)
    assert np.all(var >= 0)


def prediction_models():
    """GP pairs on the default study's full 15 x 20 lattice, on gp-predict's
    17 x 18 lattice with 6 holes and on a 9 x 10 lattice with 7 random holes
    and a non-integer x2 spacing."""
    full, holed = (studies.gp_study(grid_size=g, n_test=t, seed=0)[1] for g, t in ((20, 100), (18, 24)))
    g1, g2 = np.meshgrid(np.arange(9.0), 0.7 * np.arange(10.0), indexing="ij")
    holes = np.sort(np.random.default_rng(4).choice(90, 7, replace=False))
    keep = np.setdiff1d(np.arange(90), holes)
    coords = np.column_stack([g1.ravel(), g2.ravel()])[keep]
    y = np.random.default_rng(5).standard_normal(len(keep))
    scattered = [GPModel(coords, y), GPModel(coords, y, free_mean=False, mean_offset=0.5)]
    models = [*full, *holed, *scattered]
    assert [m.path for m in models] == ["lattice 15x20"] * 2 + [
        "lattice 17x18 with 6 holes"] * 2 + ["lattice 9x10 with 7 holes"] * 2
    return models


def prediction_inputs(m, r):
    """Inputs at ``m``'s holes, off its training x1 axis (below it, between
    two values and above it), at non-integer points and at training sites."""
    a1, a2 = (np.unique(x) for x in m.coords.T)
    n2 = len(a2)
    at_holes = np.column_stack([a1[m.holes // n2], a2[m.holes % n2]])
    off_axis = [[a1[0] - 1.3, a2[0]], [0.5 * (a1[0] + a1[1]), a2[n2 // 2]],
                [a1[-1] + 2.2, a2[-1] + 0.4]]
    fractional = r.uniform([a1[0], a2[0]], [a1[-1], a2[-1]], (5, 2))
    return np.vstack([at_holes, off_axis, fractional, m.coords[::37]])


def dense_twin(m):
    """A copy of ``m`` that takes the dense path, one Cholesky of K per draw."""
    twin = copy.copy(m)
    twin.lattice = None
    return twin


def test_gp_lattice_predict_dist_matches_the_dense_path():
    # prior draws of both members; the mean to 1e-10 of its largest entry,
    # the variance to 1e-10 eta^2 (it may be near 0 at a small sigma)
    r = rng()
    for m in prediction_models():
        X, dense = prediction_inputs(m, r), dense_twin(m)
        thetas = m.sample_prior(r, 20)
        mean, var, noise_var = m.predict_dist(thetas, X)
        assert mean.shape == var.shape == (20, len(X)) and noise_var.shape == (20, 1)
        for theta, row_mean, row_var, row_noise, want_mean, want_var, want_noise in zip(
                thetas, mean, var, noise_var, *dense.predict_dist(thetas, X)):
            np.testing.assert_allclose(row_mean, want_mean, rtol=0,
                                       atol=1e-10 * np.abs(want_mean).max())
            np.testing.assert_allclose(row_var, want_var, rtol=0, atol=1e-10 * theta[-4] ** 2)
            assert row_noise[0] == want_noise[0] == theta[-1] ** 2
        assert not {"_work", "_d1sq", "_d2sq"} & set(vars(m)), m.path  # no n x n array


def test_gp_draw_predictive_block_matches_its_rows():
    # one predict_dist call for T draws gives, bitwise, the draws of T calls
    # on a stack of one, and its noise takes the same stream: T draws of m
    r = rng()
    models = prediction_models()
    for m, lattice in [(m, m) for m in models[::2]] + [(off_lattice(models[0]), models[0])]:
        X = prediction_inputs(lattice, r)
        thetas = m.sample_prior(r, 7)
        for noise in (True, False):
            block_rng, row_rng = np.random.default_rng(9), np.random.default_rng(9)
            block = m.draw_predictive(thetas, X, block_rng, noise=noise)
            rows = []
            for theta in thetas:
                mean, var, noise_var = (a[0] for a in m.predict_dist(theta[None], X))
                rows.append(mean + np.sqrt(var + noise_var) * row_rng.standard_normal(len(X))
                            if noise else mean)
            assert np.array_equal(block, np.array(rows)), (m.path, noise)
            assert block_rng.bit_generator.state == row_rng.bit_generator.state


def test_gp_predictive_stack_holds_a_fixed_byte_budget(monkeypatch):
    # 1000 draws at the CLI defaults' 100 test points: the stack is cut into
    # blocks of MC_BYTES of temporaries; in one block it would take ~120 MB
    ds, models = studies.gp_study(seed=0)
    m = models[0]
    X = np.column_stack([ds.column("x1", "test"), ds.column("x2", "test")])
    r = rng()
    thetas = m.sample_prior(r, 1000)
    rows = MC_BYTES // m._predict_bytes_per_draw(len(X))
    assert 100 < rows < 500
    blocks, predict_dist = [], m.predict_dist
    monkeypatch.setattr(m, "predict_dist",
                        lambda th, x: blocks.append(len(th)) or predict_dist(th, x))
    m.draw_predictive(thetas[:2], X, np.random.default_rng(0))  # warm
    blocks.clear()
    tracemalloc.start()
    try:
        out = m.draw_predictive(thetas, X, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [rows] * (1000 // rows) + [1000 % rows]
    assert peak < MC_BYTES + 2 * out.nbytes  # the blocks, the output and its noise
    assert not {"_work", "_d1sq", "_d2sq"} & set(vars(m))


def test_gp_prior_samples_positive(gp_model):
    draws = np.array([gp_model.sample_prior(np.random.default_rng(i), 1)[0] for i in range(50)])
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
            "logistic": logistic_subset_ensemble(dsb, ("u", "v"), prior_sd=3.0),
            # gp-fit's full lattice, with one odd axis, and gp-predict's
            "gp 15x20": studies.gp_study(grid_size=20, n_test=100, seed=0)[1],
            "gp 17x18 - 6": studies.gp_study(grid_size=18, n_test=24, seed=0)[1]}


@pytest.mark.parametrize("kind", ["linear", "logistic", "gp 15x20", "gp 17x18 - 6"])
def test_stack_log_joint_matches_each_member(kind):
    # members padded into one (K, S, D) block give each member's own values
    # and gradients, the intercept-only and the fixed-mean members included;
    # the GP pair's bitwise
    models = subset_ensembles()[kind]
    tol = 0.0 if kind.startswith("gp") else 1e-12
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
        np.testing.assert_allclose(vals[k], v_k, rtol=tol, atol=tol)
        np.testing.assert_allclose(plain[k], v_k, rtol=tol, atol=tol)
        np.testing.assert_allclose(grads[k][:, pos], g_k, rtol=tol, atol=tol)


def test_stacked_linear_model_keeps_each_members_constants():
    # each member's own p and log-determinant; the X'X is the full design's,
    # shared with the full member, not a per-member copy
    models = subset_ensembles()["linear"]
    stacked, full = models.stacked, models[-1]
    assert stacked.p.shape == stacked.logdet_xtx.shape == (len(models), 1)
    for p, logdet, m in zip(stacked.p, stacked.logdet_xtx, models):
        assert p[0] == m.p and logdet[0] == m.logdet_xtx
    assert stacked.xtx is full.xtx and full.xtx.shape == (full.p, full.p)


@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["centred", "uncentred"])
def test_linear_stack_prior_reads_the_full_designs_xtx(offset):
    # a member's padded slopes are exact zeros, so the full X'X gives each
    # member's g-prior, on a centred design and on one offset from it
    r = rng()
    n = 30
    cols = {name: r.normal(size=n) + (offset if name != "y" else 0.0)
            for name in ("y", "u", "v", "w")}
    center = () if offset else ("u", "v", "w")
    models = linreg_subset_ensemble(data_io.prepare(cols, "y", center_columns=center),
                                    ("u", "v", "w"))
    stacked = models.stacked
    assert stacked.xtx is models[-1].xtx
    block = np.zeros((len(models), 5, stacked.layout.dim))
    own = []
    for k, (m, pos) in enumerate(zip(models, models.mask)):
        theta = r.standard_normal((5, m.layout.dim))
        theta[:, -1] = np.exp(theta[:, -1])
        block[k][:, pos] = theta
        own.append(theta)
    vals = stacked.log_prior(block)
    for k, (m, theta) in enumerate(zip(models, own)):
        np.testing.assert_allclose(vals[k], m.log_prior(theta), rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["logistic", "gp 15x20"])
def test_stack_prior_rows_are_each_members_prior_rows(kind):
    # the stack's prior holds the largest member's sd exactly, so log q of
    # a padded block gives each member's prior rows bitwise; at prior_sd 0.5
    # a decode of encode_scale(sd^2) would round the variance
    if kind == "logistic":
        r = rng()
        cols = {name: r.normal(size=30) for name in ("u", "v")}
        cols["y"] = (r.random(30) < 0.5).astype(float)
        models = logistic_subset_ensemble(data_io.prepare(cols, "y"), ("u", "v"), prior_sd=0.5)
    else:
        models = subset_ensembles()[kind]
    prior = models.stacked.prior
    assert np.array_equal(prior.sd(), max(models, key=lambda m: m.layout.dim).prior.sd())
    r = rng()
    block = np.zeros((len(models), 4, prior.dim))
    own = []
    for k, (m, pos) in enumerate(zip(models, models.mask)):
        theta = families.sample(m.prior, r.standard_normal((4, m.layout.dim)))
        block[k][:, pos] = theta
        own.append(theta)
    vals, _ = families.log_q(prior, block)
    for k, (m, theta) in enumerate(zip(models, own)):
        assert np.array_equal(vals[k], families.log_q(m.prior, theta)[0])
