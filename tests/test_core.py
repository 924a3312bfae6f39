"""Core loop correctness on conjugate problems where every quantity has an
independent closed form: gradient unbiasedness, posterior recovery, weight
updates, determinism, and failure handling."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vbma import autodiff as ad
from vbma import core, families, optimizers, studies
from vbma import data as data_io
from vbma.core import IterationError, VbmaConfig, estimate_grad_and_elbo, update_weights
from vbma.families import FamilyTag, VariationalState
from vbma.models import (GaussianMeanModel, GPModel, LinRegModel, LogisticModel, Model,
                         ParamBlock, ParamLayout, Stack, logistic_subset_ensemble)


def conjugate_model(seed=0, n=25):
    y = np.random.default_rng(seed).normal(0.7, 1.0, size=n)
    return GaussianMeanModel(y, obs_sd=1.0, prior_mean=0.0, prior_sd=1.0)


def analytic_elbo(model, lam):
    """Closed-form ELBO of a normal q on the conjugate normal-mean model."""
    m, s2 = lam[0], float(ad.softplus(lam[1]))
    y, n = model.y, len(model.y)
    s_obs2, t2 = model.obs_sd**2, model.prior_sd**2
    e_ll = -0.5 * n * np.log(2 * np.pi * s_obs2) - (np.sum((y - m) ** 2) + n * s2) / (2 * s_obs2)
    e_lp = -0.5 * np.log(2 * np.pi * t2) - ((m - model.prior_mean) ** 2 + s2) / (2 * t2)
    entropy = 0.5 * np.log(2 * np.pi * np.e * s2)
    return e_ll + e_lp + entropy


def analytic_elbo_grad(model, lam, h=1e-6):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (analytic_elbo(model, lam + e) - analytic_elbo(model, lam - e)) / (2 * h)
    return g


def make_state(mu, var):
    return VariationalState(np.array([mu]), families.encode_scale(np.array([var])),
                            (FamilyTag.NORMAL,))


# -- gradient estimator -------------------------------------------------------


def test_gradient_estimator_is_unbiased():
    # mean of 10^4 single-sample estimates vs the analytic ELBO gradient,
    # within 2% relative per coordinate
    model = conjugate_model()
    state = make_state(0.0, 0.5)  # away from the optimum so both coordinates
    lam = np.concatenate([state.mu, state.raw_scale])  # carry O(1) signal
    truth = analytic_elbo_grad(model, lam)
    rng = np.random.default_rng(7)
    total = np.zeros(2)
    n_rep = 10_000
    for _ in range(n_rep):
        G, _ = estimate_grad_and_elbo(model, state, rng.standard_normal((1, 1)))
        total += G
    mean = total / n_rep
    assert np.all(np.abs(mean - truth) / np.abs(truth) < 0.02)


def test_elbo_estimate_is_unbiased():
    model = conjugate_model()
    state = make_state(0.5, 0.09)
    truth = analytic_elbo(model, np.concatenate([state.mu, state.raw_scale]))
    rng = np.random.default_rng(1)
    vals = [estimate_grad_and_elbo(model, state, rng.standard_normal((10, 1)))[1]
            for _ in range(400)]
    assert np.mean(vals) == pytest.approx(truth, abs=4 * np.std(vals) / np.sqrt(len(vals)))


def test_estimator_rejects_wrong_dimension():
    model = conjugate_model()
    state = make_state(0.0, 0.01)
    with pytest.raises(ValueError, match="dimension"):
        estimate_grad_and_elbo(model, state, np.zeros((3, 2)))


class FragileModel(Model):
    """Log joint defined only on theta > 0 under a NORMAL family, so roughly
    half of all draws are rejected; used to exercise the resampling path."""

    def __init__(self):
        self.name = "fragile"
        self.layout = ParamLayout([ParamBlock("t", 1, FamilyTag.NORMAL)])

    def log_joint(self, theta):
        return ad.log(theta[0])


def test_rejection_resampling_and_abort():
    state = make_state(0.0, 1.0)  # half of draws land below zero
    model = FragileModel()
    rng = np.random.default_rng(0)
    with pytest.raises(IterationError, match="rejected"):
        # with many samples the 50% rejection cap must eventually trip
        estimate_grad_and_elbo(model, state, np.random.default_rng(5).standard_normal((40, 1)), rng=rng)
    # without a resampling rng the first bad draw aborts
    with pytest.raises(IterationError):
        estimate_grad_and_elbo(model, state, np.array([[-2.0]]))


class FragileBlockModel(FragileModel):
    """FragileModel evaluated over the last axis, so it takes the block pass."""

    supports_blocks = True

    def log_joint(self, theta):
        return ad.log(theta[..., 0])


def test_block_estimate_matches_row_loop():
    y = np.random.default_rng(3).normal(size=20)
    X = np.random.default_rng(4).standard_normal((20, 2))
    X -= X.mean(axis=0)
    yb = (y > 0).astype(float)
    models = [conjugate_model(), LinRegModel(X, y, predictors=("a", "b")),
              LinRegModel(X[:, :0], y), LogisticModel(X, yb, predictors=("a", "b"))]
    rng = np.random.default_rng(9)
    for model in models:
        state = VariationalState.initial(model.layout.tags(), init_var=0.1)
        state.mu += 0.3 * rng.standard_normal(state.dim)
        z = rng.standard_normal((10, state.dim))
        G, L = estimate_grad_and_elbo(model, state, z)
        G_rows, L_rows = core._estimate_rows(model, state, z, None)
        np.testing.assert_allclose(G, G_rows, rtol=1e-12, atol=1e-12)
        assert L == pytest.approx(L_rows, rel=1e-12, abs=1e-12)


def test_failed_block_pass_falls_back_to_row_loop():
    state = make_state(0.0, 1.0)
    # a draw below zero fails the block pass; the row loop redraws it
    z = np.array([[1.0], [-0.5], [2.0], [-1.0], [0.3], [0.7], [1.1], [0.2], [0.9], [1.4]])
    rng_block, rng_rows = np.random.default_rng(2), np.random.default_rng(2)
    G, L = estimate_grad_and_elbo(FragileBlockModel(), state, z, rng=rng_block)
    G_rows, L_rows = estimate_grad_and_elbo(FragileModel(), state, z, rng=rng_rows)
    assert np.array_equal(G, G_rows) and L == L_rows
    assert rng_block.bit_generator.state == rng_rows.bit_generator.state
    # the same abort, with the same message, as the row loop
    z_many = np.random.default_rng(5).standard_normal((40, 1))
    errors = []
    for model in (FragileBlockModel(), FragileModel()):
        with pytest.raises(IterationError) as err:
            estimate_grad_and_elbo(model, state, z_many, rng=np.random.default_rng(0))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    # draws that all succeed take the block pass and agree with the rows
    z_ok = np.abs(z)
    G, L = estimate_grad_and_elbo(FragileBlockModel(), state, z_ok)
    G_rows, L_rows = core._estimate_rows(FragileModel(), state, z_ok, None)
    np.testing.assert_allclose(G, G_rows, rtol=1e-12, atol=1e-12)
    assert L == pytest.approx(L_rows, rel=1e-12, abs=1e-12)


# -- stacked evaluation -------------------------------------------------------


def perturbed_states(models, seed):
    rng = np.random.default_rng(seed)
    states = []
    for m in models:
        state = VariationalState.initial(m.layout.tags(), init_var=0.05)
        state.mu += 0.3 * rng.standard_normal(state.dim)
        states.append(state)
    return states


def heart_like_ensemble():
    r = np.random.default_rng(21)
    n = 40
    cols = {name: r.normal(size=n) for name in ("a", "b", "c")}
    cols["y"] = (r.random(n) < 1 / (1 + np.exp(-cols["a"]))).astype(float)
    ds = data_io.prepare(cols, "y", center_columns=("a", "b", "c"))
    return logistic_subset_ensemble(ds, ("a", "b", "c"), prior_sd=5.0)


@pytest.mark.parametrize("kind", ["crime", "logistic"])
def test_stacked_estimate_matches_per_model(kind):
    # one pass over the (K, S, D) block gives every member the (G, L) of its
    # own estimate, the intercept-only member included
    models = studies.crime_study()[1] if kind == "crime" else heart_like_ensemble()
    (members, stack), = core._stacks(models)
    assert members == list(range(len(models)))
    states = perturbed_states(models, seed=4)
    rng = np.random.default_rng(8)
    z = [rng.standard_normal((10, s.dim)) for s in states]
    stacked = core._estimate_stack(stack, states, z)
    for m, state, zk, (G, L) in zip(models, states, z, stacked):
        G_own, L_own = estimate_grad_and_elbo(m, state, zk)
        assert G.shape == G_own.shape
        np.testing.assert_allclose(G, G_own, rtol=1e-12, atol=1e-12)
        assert L == pytest.approx(L_own, rel=1e-12, abs=1e-12)


class ShiftedLogModel(Model):
    """log(theta + shift) under a NORMAL family: a draw below -shift is
    rejected.  Block-capable but not stackable."""

    supports_blocks = True

    def __init__(self, shift, name):
        self.shift = shift
        self.name = name
        self.layout = ParamLayout([ParamBlock("t", 1, FamilyTag.NORMAL)])

    def log_lik(self, theta):
        return ad.log(theta[..., 0] + self.shift)

    def log_prior(self, theta):
        return -0.5 * theta[..., 0] ** 2


class StackedShiftedLogModel(ShiftedLogModel):
    """The same model; its instances stack, the shift becoming a (K, 1) column."""

    @classmethod
    def stack(cls, models):
        stacked = copy.copy(models[0])
        stacked.shift = np.array([[m.shift] for m in models])
        return Stack(stacked, tuple(np.array([0]) for _ in models))


def shifted_run(cls, shifts, cfg):
    models = [cls(shift, f"shift{shift}") for shift in shifts]
    try:
        return core.run(cfg, models), None
    except IterationError as err:
        return None, err


def test_failed_stack_pass_redoes_each_member_on_its_own(monkeypatch):
    # wide draws near a pole: many stacked passes fail and their members are
    # redone one by one, with redraws from each member's own stream
    cfg = VbmaConfig(n_samples=6, pretrain_iters=6, joint_iters=4, window=2, seed=3,
                     init_var=1.0)
    models = [StackedShiftedLogModel(s, "m") for s in (3.0, 1.0, 2.0)]
    (_, stack), = core._stacks(models)
    z = [np.full((6, 1), v) for v in (0.1, -1.5, 0.2)]
    states = [VariationalState.initial((FamilyTag.NORMAL,), init_var=1.0) for _ in models]
    assert core._estimate_stack(stack, states, z) is None
    z[1] = -z[1]
    assert core._estimate_stack(stack, states, z) is not None
    passes = []
    estimate_stack = core._estimate_stack

    def recorded(*args):
        passes.append(estimate_stack(*args))
        return passes[-1]

    monkeypatch.setattr(core, "_estimate_stack", recorded)
    shifts = (3.0, 1.0, 2.0)
    stacked, _ = shifted_run(StackedShiftedLogModel, shifts, cfg)
    assert len(passes) == 10 and 0 < passes.count(None) < 10
    alone, _ = shifted_run(ShiftedLogModel, shifts, cfg)
    assert stacked.to_text() == alone.to_text()
    assert repr(stacked.elbo_trace) == repr(alone.elbo_trace)
    assert np.array_equal(stacked.q, alone.q)
    # a member that exhausts its redraws aborts with the message and the
    # partly stepped state of the model-by-model loop
    shifts = (3.0, -4.0, 2.0)
    _, err_stacked = shifted_run(StackedShiftedLogModel, shifts, cfg)
    _, err_alone = shifted_run(ShiftedLogModel, shifts, cfg)
    assert err_stacked is not None and str(err_stacked) == str(err_alone)
    assert err_stacked.state.to_text() == err_alone.state.to_text()
    assert err_stacked.state.elbo_trace == err_alone.state.elbo_trace


def tiny_gp(seed):
    r = np.random.default_rng(seed)
    coords = r.random((8, 2))
    return GPModel(coords, np.sin(3 * coords[:, 0]) + 0.1 * r.standard_normal(8), name="gp")


def test_mixed_ensemble_gives_each_model_its_own_result():
    # stackable linear models among a normal-mean model, a GP (row loop), a
    # lone logistic model and a linear model on another response
    r = np.random.default_rng(6)
    X = r.standard_normal((20, 2))
    X -= X.mean(axis=0)
    y = 0.3 + X @ np.array([0.8, -0.5]) + r.normal(0, 0.4, 20)
    models = [
        LinRegModel(X, y, predictors=("a", "b")),
        GaussianMeanModel(y, name="mean"),
        tiny_gp(1),
        LinRegModel(X[:, :1], y, predictors=("a",)),
        LogisticModel(X, (y > 0).astype(float), predictors=("a", "b")),
        LinRegModel(X[:, :0], y),
        LinRegModel(X[:, 1:], -y, predictors=("b",)),
    ]
    # -y disagrees, so the linear models run one at a time
    assert core._stacks(models) == []
    models[6] = LinRegModel(X[:, 1:], y, predictors=("b",))
    ((members, _),) = core._stacks(models)
    assert members == [0, 3, 5, 6]
    cfg = VbmaConfig(n_samples=5, pretrain_iters=8, joint_iters=0, window=0, seed=2)
    state = core.run(cfg, models)
    assert state.iteration == 8
    for i, m in enumerate(models):
        # the model-by-model loop, written out for model i alone
        vs = VariationalState.initial(m.layout.tags(), m.layout.names(), init_var=cfg.init_var)
        opt = optimizers.make_optimizer(cfg.optimizer)
        trace = []
        for t in range(cfg.pretrain_iters):
            rng = core._model_rng(cfg.seed, t, i)
            G, L = estimate_grad_and_elbo(m, vs, rng.standard_normal((5, vs.dim)), rng=rng)
            lam = opt.step(np.concatenate([vs.mu, vs.raw_scale]), G / len(models))
            vs = VariationalState(lam[:vs.dim], lam[vs.dim:], vs.tags, vs.names)
            trace.append(L)
        np.testing.assert_allclose(state.variational[i].mu, vs.mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.variational[i].raw_scale, vs.raw_scale,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.elbo_trace[i], trace, rtol=1e-12)
    again = core.run(cfg, models)
    assert again.to_text() == state.to_text() and again.elbo_trace == state.elbo_trace


# -- weight update ------------------------------------------------------------


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
       st.floats(min_value=-1000, max_value=1000))
@settings(max_examples=80, deadline=None)
def test_update_weights_simplex_and_shift_invariance(elbos, shift):
    elbos = np.array(elbos)
    log_prior = np.full(len(elbos), -np.log(len(elbos)))
    q = update_weights(elbos, log_prior)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert (q >= 0).all()
    q_shifted = update_weights(elbos + shift, log_prior)
    assert np.allclose(q, q_shifted, atol=1e-12)


def test_update_weights_respects_prior():
    q = update_weights(np.array([0.0, 0.0]), np.log([0.9, 0.1]))
    assert q[0] / q[1] == pytest.approx(9.0, rel=1e-10)


def test_update_weights_rejects_nan_and_all_neginf():
    with pytest.raises(ValueError):
        update_weights(np.array([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        update_weights(np.array([-np.inf, -np.inf]), np.zeros(2))


def test_update_weights_extreme_gap_is_degenerate_not_nan():
    q = update_weights(np.array([0.0, -1e6]), np.zeros(2))
    assert q[0] == pytest.approx(1.0)
    assert np.isfinite(q).all()


# -- full runs on conjugate models --------------------------------------------


@pytest.fixture(scope="module")
def conjugate_run():
    model = conjugate_model()
    cfg = VbmaConfig(n_samples=10, pretrain_iters=1500, joint_iters=100,
                     window=50, seed=2)
    state = core.run(cfg, [model])
    return model, cfg, state


def test_single_model_recovers_exact_posterior(conjugate_run):
    model, cfg, state = conjugate_run
    mean, sd = model.posterior()
    vs = state.variational[0]
    assert vs.mu[0] == pytest.approx(mean, abs=1e-2)
    assert float(vs.sd()[0]) == pytest.approx(sd, abs=1e-2)
    assert np.allclose(state.q, [1.0])


def test_converged_elbo_matches_log_evidence(conjugate_run):
    model, cfg, state = conjugate_run
    tail = np.array(state.elbo_trace[0][-100:])
    assert tail.mean() == pytest.approx(model.log_evidence(), abs=0.05)


def test_elbo_never_exceeds_log_evidence_meaningfully(conjugate_run):
    model, cfg, state = conjugate_run
    tail = np.array(state.elbo_trace[0][-100:])
    se = tail.std(ddof=1) / np.sqrt(len(tail))
    assert tail.mean() <= model.log_evidence() + 3 * se + 1e-9


def test_two_model_weights_match_evidence_ratio():
    # two conjugate models with different priors; exact evidences known
    y = np.random.default_rng(8).normal(1.0, 1.0, size=30)
    models = [
        GaussianMeanModel(y, prior_mean=0.0, prior_sd=1.0, name="tight"),
        GaussianMeanModel(y, prior_mean=0.0, prior_sd=10.0, name="wide"),
    ]
    for m in models:
        m.prior_weight = 0.5
    cfg = VbmaConfig(n_samples=10, pretrain_iters=800, joint_iters=200, window=100, seed=5)
    state = core.run(cfg, models)
    log_evs = np.array([m.log_evidence() for m in models])
    exact = np.exp(log_evs - log_evs.max())
    exact /= exact.sum()
    assert np.allclose(state.q, exact, atol=0.05)


def test_simplex_invariant_holds_every_iteration():
    model_a = conjugate_model(seed=1, n=10)
    model_b = conjugate_model(seed=2, n=10)
    model_a.prior_weight = model_b.prior_weight = 0.5
    sums = []
    cfg = VbmaConfig(n_samples=5, pretrain_iters=20, joint_iters=30, window=10, seed=0)
    core.run(cfg, [model_a, model_b], progress=lambda s: sums.append(s.q.sum()))
    assert all(abs(v - 1.0) < 1e-12 for v in sums)


def test_pretrain_phase_keeps_uniform_weights():
    model_a = conjugate_model(seed=1, n=10)
    model_b = conjugate_model(seed=2, n=10)
    model_a.prior_weight = model_b.prior_weight = 0.5
    seen = []
    cfg = VbmaConfig(n_samples=5, pretrain_iters=15, joint_iters=5, window=5, seed=0)
    core.run(cfg, [model_a, model_b],
             progress=lambda s: seen.append((s.phase, s.q.copy())))
    for phase, q in seen[:14]:
        assert phase == "pretrain"
        assert np.allclose(q, 0.5)


def run_pair(seed=3):
    model_a = conjugate_model(seed=11, n=12)
    model_b = conjugate_model(seed=12, n=12)
    model_a.prior_weight = model_b.prior_weight = 0.5
    cfg = VbmaConfig(n_samples=6, pretrain_iters=25, joint_iters=25, window=10,
                     seed=seed)
    return core.run(cfg, [model_a, model_b])


def test_bitwise_determinism_and_thread_independence():
    a, b = run_pair(), run_pair()
    assert np.array_equal(a.q, b.q)
    assert a.elbo_trace == b.elbo_trace
    different = run_pair(seed=99)
    assert not np.array_equal(a.q, different.q)


def test_final_weights_is_trailing_mean():
    state = core.init_state(VbmaConfig(joint_iters=10, window=5), [conjugate_model()])
    state.weight_trace = [np.array([v]) for v in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    assert state.final_weights(5)[0] == pytest.approx(np.mean([0.2, 0.4, 0.6, 0.8, 1.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        VbmaConfig(n_samples=0)
    with pytest.raises(ValueError):
        VbmaConfig(joint_iters=10, window=50)
    with pytest.raises(ValueError):
        core.run(VbmaConfig(), [])


def test_run_convergence_flag_on_flat_problem():
    # a tiny conjugate problem converges well before the budget
    model = conjugate_model(seed=4, n=5)
    cfg = VbmaConfig(n_samples=10, pretrain_iters=600, joint_iters=600,
                     window=100, seed=0, conv_tol=1e-3, conv_window=50)
    state = core.run(cfg, [model])
    assert state.converged
    assert state.iteration < cfg.pretrain_iters + cfg.joint_iters
