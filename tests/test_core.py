"""Core loop correctness on conjugate problems where every quantity has an
independent closed form: gradient unbiasedness, posterior recovery, weight
updates, determinism, and failure handling."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vbma import autodiff as ad
from vbma import core, families, optimizers, studies
from vbma import models as models_mod
from vbma import data as data_io
from vbma.core import IterationError, VbmaConfig, estimate_grad_and_elbo, update_weights
from vbma.families import FamilyTag, VariationalState
from vbma.models import (GaussianMeanModel, GPModel, LinRegModel, LogisticModel, Model,
                         ParamBlock, ParamLayout, SubsetEnsemble, logistic_subset_ensemble)


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
    return VariationalState(np.array([mu]), families.encode_scale(np.array([var])), [0.0])


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
    # the block pass that core.run makes for a block-capable model
    model = conjugate_model()
    group = lone_group(model, init_var=0.09)
    group.lam[0, 0] = 0.5
    truth = analytic_elbo(model, group.lam[0])
    rng = np.random.default_rng(1)
    vals = [estimate_grad_and_elbo(model, group.state, rng.standard_normal((1, 10, 1)))[1][0]
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


def test_an_underflowed_log_normal_draw_is_redrawn():
    # eta = exp(u) is exactly 0 below u ~ -745; such a draw is rejected and
    # redrawn from rng, and a state whose every draw underflows aborts
    model = studies.gp_study(grid_size=6, n_test=6)[1][0]
    lognormal = [t is FamilyTag.LOGNORMAL for t in model.layout.tags()]
    raw = families.encode_scale(np.full(5, VbmaConfig.INIT_VAR))
    state = VariationalState(np.zeros(5), raw, lognormal)
    z = np.zeros((3, 5))
    z[1, 1] = -8000.0  # sd 0.1: u = -800
    G, L = estimate_grad_and_elbo(model, state, z, rng=np.random.default_rng(0))
    assert np.isfinite(G).all() and np.isfinite(L)
    z[1] = np.random.default_rng(0).standard_normal(5)  # the redraw
    G_redrawn, L_redrawn = estimate_grad_and_elbo(model, state, z)
    assert np.array_equal(G, G_redrawn) and L == L_redrawn
    mu = np.zeros(5)
    mu[1] = -800.0
    with pytest.raises(IterationError, match="rejected"):
        estimate_grad_and_elbo(model, VariationalState(mu, raw, lognormal), np.zeros((3, 5)),
                               rng=np.random.default_rng(0))


class FragileBlockModel(FragileModel):
    """FragileModel evaluated over the last axis, so it takes the block pass."""

    supports_blocks = True

    def log_joint(self, theta):
        return ad.log(theta[..., 0])


def init_groups(models, init_var):
    """The groups of ``core.init_state`` with every coordinate's starting
    variance ``init_var`` in place of ``VbmaConfig.INIT_VAR``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VbmaConfig, "INIT_VAR", init_var)
        return core.init_state(VbmaConfig(), models).groups


def lone_group(model, init_var=VbmaConfig.INIT_VAR):
    (group,) = init_groups([model], init_var)
    return group


class FirstDraw:
    """Stands in for a generator: its first standard-normal block is ``z``,
    later draws come from ``rng``."""

    def __init__(self, z, rng=None):
        self.z, self.rng = z, rng

    def standard_normal(self, shape):
        z, self.z = self.z, None
        if z is None:
            return self.rng.standard_normal(shape)
        assert z.shape == shape
        return z


def test_block_estimate_matches_row_loop():
    # a lone block-capable model is a stack of one: its group's pass agrees
    # with the group of the same model taking the row loop, on one stream
    y = np.random.default_rng(3).normal(size=20)
    X = np.random.default_rng(4).standard_normal((20, 2))
    X -= X.mean(axis=0)
    yb = (y > 0).astype(float)
    models = [conjugate_model(), LinRegModel(X, y, predictors=("a", "b")),
              LinRegModel(X[:, :0], y), LogisticModel(X, yb, predictors=("a", "b"))]
    rng = np.random.default_rng(9)
    for model in models:
        rows = copy.copy(model)
        rows.supports_blocks = False
        block, by_rows = lone_group(model, init_var=0.1), lone_group(rows, init_var=0.1)
        assert block.stacked is model and by_rows.stacked is None
        shift = 0.3 * rng.standard_normal(model.layout.dim)
        for g in (block, by_rows):
            g.lam[0, :len(shift)] += shift
        seed = int(rng.integers(2**32))
        G, L = block.estimate([model], np.random.default_rng(seed), 10)
        G_rows, L_rows = by_rows.estimate([rows], np.random.default_rng(seed), 10)
        np.testing.assert_allclose(G, G_rows, rtol=1e-12, atol=1e-12)
        assert L[0] == pytest.approx(L_rows[0], rel=1e-12, abs=1e-12)


def test_failed_block_pass_falls_back_to_row_loop():
    block, by_rows = lone_group(FragileBlockModel(), 1.0), lone_group(FragileModel(), 1.0)
    assert block.stacked is not None and by_rows.stacked is None
    # a draw below zero fails the block pass; the row loop redraws it
    z = np.array([[1.0], [-0.5], [2.0], [-1.0], [0.3], [0.7], [1.1], [0.2], [0.9], [1.4]])[None]
    rng_block, rng_rows = np.random.default_rng(2), np.random.default_rng(2)
    G, L = block.estimate([FragileBlockModel()], FirstDraw(z, rng_block), 10)
    G_rows, L_rows = by_rows.estimate([FragileModel()], FirstDraw(z, rng_rows), 10)
    assert np.array_equal(G, G_rows) and L == L_rows
    assert rng_block.bit_generator.state == rng_rows.bit_generator.state
    # the same abort, with the same message, as the row loop
    errors = []
    for group, model in ((block, FragileBlockModel()), (by_rows, FragileModel())):
        with pytest.raises(IterationError) as err:
            group.estimate([model], np.random.default_rng(5), 40)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    # draws that all succeed take the block pass and agree with the rows
    z_ok = np.abs(z)
    G, L = block.estimate([FragileBlockModel()], FirstDraw(z_ok), 10)
    G_rows, L_rows = core._estimate_rows(FragileModel(), block.member(0), z_ok[0], None)
    np.testing.assert_allclose(G[0], G_rows, rtol=1e-12, atol=1e-12)
    assert L[0] == pytest.approx(L_rows, rel=1e-12, abs=1e-12)


def test_hopeless_gp_draw_fails_the_block_and_the_row_loop_redraws_it():
    # eta and sigma underflow in one draw of a lattice GP's block: the block
    # pass raises ConditioningError, and the group redoes the iteration by the
    # row loop on the same draws, as a copy that never takes blocks does
    ds = data_io.synth_gp_dataset(grid_size=5, seed=0, n_test=0, sigma=0.4)
    model = GPModel(np.column_stack([ds.column("x1"), ds.column("x2")]), ds.y())
    rows = copy.copy(model)
    rows.supports_blocks = False
    block, by_rows = lone_group(model), lone_group(rows)
    assert block.stacked is model and by_rows.stacked is None
    z = np.random.default_rng(3).standard_normal((1, 10, model.layout.dim))
    z[0, 4, [-4, -1]] = -3707.0, -3914.0  # sd 0.1: eta ~ 1e-161, sigma ~ 1e-170
    with pytest.raises(models_mod.ConditioningError):
        estimate_grad_and_elbo(model, block.state, z)
    rng_block, rng_rows = np.random.default_rng(4), np.random.default_rng(4)
    G, L = block.estimate([model], FirstDraw(z, rng_block), 10)
    G_rows, L_rows = by_rows.estimate([rows], FirstDraw(z, rng_rows), 10)
    assert np.array_equal(G, G_rows) and L == L_rows
    assert rng_block.bit_generator.state == rng_rows.bit_generator.state
    assert rng_block.bit_generator.state != np.random.default_rng(4).bit_generator.state


# -- stacked evaluation -------------------------------------------------------


def heart_like_ensemble():
    r = np.random.default_rng(21)
    n = 40
    cols = {name: r.normal(size=n) for name in ("a", "b", "c")}
    cols["y"] = (r.random(n) < 1 / (1 + np.exp(-cols["a"]))).astype(float)
    ds = data_io.prepare(cols, "y", center_columns=("a", "b", "c"))
    return logistic_subset_ensemble(ds, ("a", "b", "c"), prior_sd=5.0)


def recording_estimates(monkeypatch):
    """(ndim of the draws, raised) of every ``estimate_grad_and_elbo`` call."""
    calls = []
    estimate = core.estimate_grad_and_elbo

    def recorded(model, state, z_draws, rng=None):
        calls.append([np.ndim(z_draws), True])
        out = estimate(model, state, z_draws, rng=rng)
        calls[-1][1] = False
        return out

    monkeypatch.setattr(core, "estimate_grad_and_elbo", recorded)
    return calls


def small_gp_pair():
    """The GP study's pair on a 6 x 6 lattice with 3 holes."""
    return studies.gp_study(grid_size=6, n_test=3, seed=0)[1]


@pytest.mark.parametrize("kind", ["crime", "logistic", "gp"])
def test_stacked_estimate_matches_per_model(kind, monkeypatch):
    # one pass over the (K, S, D) block gives every member the (G, L) of the
    # row loop on its own slice, the intercept-only and the fixed-mean
    # members included, and nothing on the padding
    models = {"crime": lambda: studies.crime_study()[1], "logistic": heart_like_ensemble,
              "gp": small_gp_pair}[kind]()
    (group,) = init_groups(models, 0.05)
    assert group.members == list(range(len(models))) and group.stacked is models.stacked
    assert group.mask is models.mask
    rng = np.random.default_rng(8)
    K, D = group.mask.shape
    group.lam[:, :D][group.mask] += 0.3 * rng.standard_normal(group.mask.sum())
    # the group draws its block in one call
    z = np.random.default_rng(9).standard_normal((K, 10, D))
    calls = recording_estimates(monkeypatch)
    G, L = group.estimate(models, np.random.default_rng(9), 10)
    assert calls == [[3, False]]
    assert G.shape == (K, 2 * D) and not G[~group.own].any()
    for k, (m, own) in enumerate(zip(models, group.mask)):
        state = group.member(k)
        G_own, L_own = core._estimate_rows(m, state, z[k][:, own], None)
        assert np.array_equal(state.mu, group.state.mu[k, 0, own])
        np.testing.assert_allclose(G[k, group.own[k]], G_own, rtol=1e-12, atol=1e-12)
        assert L[k] == pytest.approx(L_own, rel=1e-12, abs=1e-12)


def test_only_a_subset_ensemble_as_built_is_one_group():
    models = heart_like_ensemble()
    cfg = VbmaConfig()
    assert len(core.init_state(cfg, models).groups) == 1
    # a copy, a slice or a changed list runs model by model, each
    # block-capable model as its own stack of one
    changed = heart_like_ensemble()
    changed[1] = copy.copy(changed[1])
    for other in (list(models), models[:-1], changed):
        groups = core.init_state(cfg, other).groups
        assert [g.members for g in groups] == [[i] for i in range(len(other))]
        assert all(g.stacked is m for g, m in zip(groups, other))
        assert all(g.mask.shape == (1, m.layout.dim) and g.mask.all()
                   for g, m in zip(groups, other))


class ShiftedLogModel(Model):
    """log(theta + shift) with a standard normal prior, under a NORMAL
    family: a draw below -shift is rejected."""

    supports_blocks = True

    def __init__(self, shift):
        self.shift = shift
        self.name = f"shift{shift}"
        self.layout = ParamLayout([ParamBlock("t", 1, FamilyTag.NORMAL)])

    def log_lik(self, theta):
        return ad.log(theta[..., 0] + self.shift)

    def log_prior(self, theta):
        return -0.5 * theta[..., 0] ** 2


def shifted_ensemble(shifts):
    """The models as a subset ensemble: its stacked model holds the shifts
    as a (K, 1) column, and every member owns the one coordinate."""
    models = SubsetEnsemble([ShiftedLogModel(s) for s in shifts])
    models.stacked = copy.copy(models[0])
    models.stacked.shift = np.array([[s] for s in shifts])
    models.mask = np.ones((len(shifts), 1), dtype=bool)
    return models


def test_failed_stack_pass_redoes_each_member_on_its_own(monkeypatch):
    monkeypatch.setattr(VbmaConfig, "INIT_VAR", 1.0)
    cfg = VbmaConfig(n_samples=6, pretrain_iters=6, joint_iters=4, window=2, seed=3)
    models = shifted_ensemble((3.0, 1.0, 2.0))
    (group,) = core.init_state(cfg, models).groups
    # one draw of member 1 below its pole fails the stacked pass; each
    # member is then redone in member order by the row loop on its slice of
    # the same block, redrawing from the group's stream
    z = np.full((3, 6, 1), 0.1)
    z[1, 2] = -1.5
    with pytest.raises(ad.NonFiniteValueError):
        estimate_grad_and_elbo(models.stacked, group.state, z)
    rng, by_hand = np.random.default_rng(4), np.random.default_rng(4)
    G, L = group.estimate(models, FirstDraw(z, rng), 6)
    for k, m in enumerate(models):
        G_k, L_k = core._estimate_rows(m, group.member(k), z[k], by_hand)
        assert np.array_equal(G[k], G_k) and L[k] == L_k
    assert rng.bit_generator.state == by_hand.bit_generator.state
    # in a run, the passes that fail are redone member by member, and the
    # run agrees with one that takes the row loop for every member
    calls = recording_estimates(monkeypatch)
    state = core.run(cfg, models)
    passes = [raised for ndim, raised in calls if ndim == 3]
    assert len(passes) == 10 and 0 < sum(passes) < 10
    assert len(calls) == len(passes) + 3 * sum(passes)
    by_rows = shifted_ensemble((3.0, 1.0, 2.0))
    by_rows.stacked = None
    rows_state = core.run(cfg, by_rows)
    for vs, vs_rows in zip(state.variational, rows_state.variational):
        np.testing.assert_allclose(vs.mu, vs_rows.mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(vs.raw_scale, vs_rows.raw_scale, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(state.elbo_trace, rows_state.elbo_trace, rtol=1e-12)
    # a member that exhausts its redraws aborts the iteration with its own
    # name, and the state from before the failing iteration
    with pytest.raises(IterationError) as err:
        core.run(cfg, shifted_ensemble((3.0, -4.0, 2.0)))
    assert str(err.value) == "model 'shift-4.0': 4 rejected draws in one iteration"
    assert all(len(trace) == err.value.state.iteration for trace in err.value.state.elbo_trace)


class _Pole:
    """Adds log(beta0 + 30) to the log likelihood: a draw whose intercept
    falls below -30 is rejected."""

    def log_lik(self, theta):
        return super().log_lik(theta) + ad.log(theta[..., 0] + 30.0)


class PoleLinRegModel(_Pole, LinRegModel):
    pass


class PoleLogisticModel(_Pole, LogisticModel):
    pass


@given(cls=st.sampled_from([PoleLinRegModel, PoleLogisticModel]), p=st.integers(1, 6),
       n=st.integers(8, 30), S=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_stacked_pass_and_fallback_match_member_loop(cls, p, n, S, seed):
    # differential check over random subset ensembles: the stacked pass
    # against each member's row loop on its masked slice, and the fallback
    # after one row raises against a hand-written member loop
    r = np.random.default_rng(seed)
    names = tuple("abcdef"[:p])
    cols = {c: r.uniform(0.5, 2.0) * r.standard_normal(n) for c in names}
    cols["y"] = (r.random(n) < 0.5) * 1.0 if cls is PoleLogisticModel else r.standard_normal(n)
    ds = data_io.prepare(cols, "y", center_columns=names)
    models = models_mod._subset_ensemble(cls, ds, names)
    (group,) = init_groups(models, 0.05)
    K, D = group.mask.shape
    group.lam[:, :D][group.mask] += 0.3 * r.standard_normal(group.mask.sum())
    seed = int(r.integers(2**32))
    G, L = group.estimate(models, np.random.default_rng(seed), S)
    z = np.random.default_rng(seed).standard_normal((K, S, D))
    assert not G[~group.own].any()
    for k, (m, own) in enumerate(zip(models, group.mask)):
        G_k, L_k = core._estimate_rows(m, group.member(k), z[k][:, own], None)
        np.testing.assert_allclose(G[k, group.own[k]], G_k, rtol=1e-12, atol=1e-12)
        assert L[k] == pytest.approx(L_k, rel=1e-12, abs=1e-12)
    z[r.integers(K), r.integers(S), 0] = -1e4  # an intercept far below the pole
    rng, by_hand = np.random.default_rng(seed), np.random.default_rng(seed)
    G, L = group.estimate(models, FirstDraw(z, rng), S)
    for k, (m, own) in enumerate(zip(models, group.mask)):
        G_k, L_k = core._estimate_rows(m, group.member(k), z[k][:, own], by_hand)
        assert np.array_equal(G[k, group.own[k]], G_k) and L[k] == L_k
        assert not G[k, ~group.own[k]].any()
    assert rng.bit_generator.state == by_hand.bit_generator.state


def test_underflowed_phi_fails_the_stacked_pass_and_each_member_is_redone():
    # phi = exp(mu + z sd) underflows to 0 in one row: the stacked linear pass
    # raises NonFiniteValueError (no RuntimeWarning), and the group redoes
    # each member by the row loop on its slice of the same block
    models = studies.crime_study()[1]
    (group,) = init_groups(models, 0.05)
    K, D = group.mask.shape
    z = np.random.default_rng(3).standard_normal((K, 10, D)) * group.state.mask
    z[2, 4, -1] = -1e4
    assert families.sample(group.state, z)[2, 4, -1] == 0.0
    with pytest.raises(ad.NonFiniteValueError):
        estimate_grad_and_elbo(models.stacked, group.state, z)
    assert_redone_member_by_member(models, group, z)


def test_hopeless_draw_fails_the_gp_pair_pass_and_each_member_is_redone():
    # eta and sigma underflow in one draw of the fixed-mean member: the
    # pair's stacked pass raises ConditioningError, and the group redoes
    # each member by the row loop on its slice of the same block
    models = small_gp_pair()
    (group,) = core.init_state(VbmaConfig(), models).groups
    assert group.members == [0, 1] and group.stacked is models.stacked
    z = np.random.default_rng(3).standard_normal((2, 10, 5)) * group.state.mask
    z[1, 4, [-4, -1]] = -3707.0, -3914.0  # sd 0.1: eta ~ 1e-161, sigma ~ 1e-170
    with pytest.raises(models_mod.ConditioningError):
        estimate_grad_and_elbo(models.stacked, group.state, z)
    assert_redone_member_by_member(models, group, z)


def test_gp_pair_off_a_lattice_is_one_group_run_member_by_member(monkeypatch):
    # two training points on one x1 value take the dense path, which takes
    # no blocks: the pair is one group, with no stacked model, and each
    # member takes the row loop on its slice of the group's block
    models = studies.gp_study(grid_size=3, n_test=7, seed=0)[1]
    assert [m.path for m in models] == ["dense 2"] * 2 and models.stacked is None
    cfg = VbmaConfig(n_samples=4, pretrain_iters=2, joint_iters=2, window=1)
    (group,) = core.init_state(cfg, models).groups
    assert group.members == [0, 1] and group.stacked is None
    calls = recording_estimates(monkeypatch)
    state = core.run(cfg, models)
    assert calls == [[2, False]] * 8 and np.isclose(state.q.sum(), 1.0)


def assert_redone_member_by_member(models, group, z):
    """``group.estimate`` on the block ``z`` whose stacked pass fails equals,
    bitwise, each member's row loop on its slice, in member order, with
    redraws from the group's stream, and leaves the padding zero."""
    rng, by_hand = np.random.default_rng(4), np.random.default_rng(4)
    G, L = group.estimate(models, FirstDraw(z, rng), z.shape[1])
    for k, (m, own) in enumerate(zip(models, group.mask)):
        G_k, L_k = core._estimate_rows(m, group.member(k), z[k][:, own], by_hand)
        assert np.array_equal(G[k, group.own[k]], G_k) and L[k] == L_k
    assert not G[~group.own].any()
    assert rng.bit_generator.state == by_hand.bit_generator.state
    assert rng.bit_generator.state != np.random.default_rng(4).bit_generator.state


def tiny_gp(seed):
    r = np.random.default_rng(seed)
    coords = r.random((8, 2))
    return GPModel(coords, np.sin(3 * coords[:, 0]) + 0.1 * r.standard_normal(8), name="gp")


def test_mixed_ensemble_gives_each_model_its_own_result():
    # linear models among a normal-mean model, a GP (row loop) and a lone
    # logistic model
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
        LinRegModel(X[:, 1:], y, predictors=("b",)),
    ]
    cfg = VbmaConfig(n_samples=5, pretrain_iters=8, joint_iters=0, window=0, seed=2)
    # a hand-built list runs model by model
    assert [g.members for g in core.init_state(cfg, models).groups] == [[i] for i in range(7)]
    state = core.run(cfg, models)
    assert state.iteration == 8
    for i, m in enumerate(models):
        # the model-by-model loop, written out for model i alone
        d = m.layout.dim
        vs = VariationalState(np.zeros(d), np.full(d, families.encode_scale(cfg.INIT_VAR)),
                              [t is FamilyTag.LOGNORMAL for t in m.layout.tags()])
        opt = optimizers.make_optimizer(cfg.optimizer)
        trace = []
        for t in range(cfg.pretrain_iters):
            rng = core._model_rng(cfg.seed, t, i)
            G, L = estimate_grad_and_elbo(m, vs, rng.standard_normal((5, vs.dim)), rng=rng)
            lam = opt.step(np.concatenate([vs.mu, vs.raw_scale]), G / len(models))
            vs = VariationalState(lam[:vs.dim], lam[vs.dim:], vs.lognormal_mask)
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


# one seeded fit of a bundled study, printed as its checkpoint text and its
# ELBO traces
FIT_IN_CHILD = """
import sys
from vbma import core, studies
study, pretrain, joint = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
models = getattr(studies, study + "_study")()[1]
cfg = core.VbmaConfig(pretrain_iters=pretrain, joint_iters=joint, window=10, seed=3)
state = core.run(cfg, models)
print(state.to_text() + repr(state.elbo_trace))
"""


@pytest.mark.parametrize("study, pretrain, joint",
                         [("crime", 100, 50), ("heart", 50, 30), ("gp", 30, 20)])
def test_seeded_fit_is_bitwise_across_blas_thread_counts(study, pretrain, joint):
    # each fit runs in a child process, whose OpenBLAS reads the thread count
    # when it loads.  The GP study's 15 x 20 training lattice takes the
    # Kronecker path, and its surface is drawn from 20 x 20 factors.
    src = str(Path(core.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", FIT_IN_CHILD, study, str(pretrain), str(joint)],
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                           capture_output=True, text=True, check=True).stdout
            for threads in ("1", "2")]
    assert outs[0].startswith("iteration ") and outs[0] == outs[1]


# the checkpoint of a fit that has taken no step: zero locations, each raw
# scale encode_scale(INIT_VAR) and q = 1/K, every float written with repr
UNSTEPPED_CHECKPOINT = """\
iteration 0
phase joint
q 0.3333333333333333 0.3333333333333333 0.3333333333333333
[model mean]
mu normal 0.0 -4.600166019324892
[model lin:a+b]
beta0 normal 0.0 -4.600166019324892
beta[0] normal 0.0 -4.600166019324892
beta[1] normal 0.0 -4.600166019324892
phi lognormal 0.0 -4.600166019324892
[model logit:a]
beta0 normal 0.0 -4.600166019324892
beta normal 0.0 -4.600166019324892
"""


def test_checkpoint_text_is_pinned():
    X = np.array([[1.0, -1.0], [-1.0, 0.5], [0.0, 0.5]])
    y = np.array([0.2, -0.1, 0.4])
    models = [GaussianMeanModel(y, name="mean"), LinRegModel(X, y, predictors=("a", "b")),
              LogisticModel(X[:, :1], (y > 0) * 1.0, predictors=("a",))]
    state = core.run(VbmaConfig(pretrain_iters=0, joint_iters=0, window=0), models)
    assert state.to_text() == UNSTEPPED_CHECKPOINT
    q, states = core.parse_checkpoint(UNSTEPPED_CHECKPOINT)
    assert q.tolist() == [1 / 3] * 3
    assert [(names, tags) for names, tags, _ in states.values()] == [
        (m.layout.names(), m.layout.tags()) for m in models]


def test_a_pass_decodes_the_variances_once(monkeypatch):
    # the draw, log q and the Jacobian of a pass read one decode of the
    # state's raw scales, made when the step builds the state
    real, calls = ad.softplus_sigmoid, []
    monkeypatch.setattr(ad, "softplus_sigmoid", lambda x: calls.append(None) or real(x))
    _, models = studies.crime_study()
    core.run(VbmaConfig(pretrain_iters=3, joint_iters=0, window=0), models)
    assert len(calls) == 1 + 3  # the initial state, then one per step


def test_final_weights_is_trailing_mean():
    # the reported q is the mean of the last ``window`` weight updates
    models = [conjugate_model(), GaussianMeanModel(np.zeros(3), name="zero")]
    state = core.run(VbmaConfig(pretrain_iters=2, joint_iters=10, window=5), models)
    assert len(state.weight_trace) == 10
    assert np.array_equal(state.q, np.mean(state.weight_trace[5:], axis=0))
    assert not np.array_equal(state.q, state.weight_trace[-1])


def test_config_validation():
    with pytest.raises(ValueError):
        VbmaConfig(n_samples=0)
    with pytest.raises(ValueError):
        VbmaConfig(joint_iters=10, window=50)
    with pytest.raises(ValueError):
        core.run(VbmaConfig(), [])
    for bad, message in ((dict(window=-3), "window"), (dict(window=0), "window"),
                         (dict(pretrain_iters=-5), "pretrain_iters"),
                         (dict(joint_iters=-1, window=0), "joint_iters"),
                         (dict(step_size=-0.05), "step_size"), (dict(step_size=0.0), "step_size"),
                         (dict(step_size=np.inf), "step_size"),
                         (dict(seed=-1), "seed"), (dict(optimizer="sgd"), "optimizer")):
        with pytest.raises(ValueError, match=message):
            VbmaConfig(**bad)
    # no joint iterations need no averaging window
    VbmaConfig(joint_iters=0, window=0)


def test_zero_conv_tol_runs_the_full_budget(monkeypatch):
    # the run that converges early in the test below, with CONV_TOL = 0
    monkeypatch.setattr(VbmaConfig, "CONV_TOL", 0.0)
    monkeypatch.setattr(VbmaConfig, "CONV_WINDOW", 1)
    cfg = VbmaConfig(n_samples=10, pretrain_iters=60, joint_iters=150, window=10, seed=0)
    state = core.run(cfg, [conjugate_model(seed=4, n=5)])
    assert not state.converged
    assert state.iteration == cfg.pretrain_iters + cfg.joint_iters


def test_run_convergence_flag_on_flat_problem(monkeypatch):
    # a tiny conjugate problem converges well before the budget
    monkeypatch.setattr(VbmaConfig, "CONV_TOL", 1e-3)
    model = conjugate_model(seed=4, n=5)
    cfg = VbmaConfig(n_samples=10, pretrain_iters=600, joint_iters=600, window=100, seed=0)
    state = core.run(cfg, [model])
    assert state.converged
    assert state.iteration < cfg.pretrain_iters + cfg.joint_iters
