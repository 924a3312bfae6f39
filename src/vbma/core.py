"""The joint variational update loop over a finite model space.

Each iteration draws S shared auxiliary standard-normal vectors per model,
forms the Monte Carlo estimates of the per-model ELBO gradient (chained
through the reparametrization transform) and of the ELBO value, takes an
ascent step on the variational parameters, and refreshes the categorical
model weights in closed form via a max-subtracted softmax of the per-model
ELBO estimates plus log prior weights.

A pre-training phase holds the weights at 1/K so early, noisy ELBOs cannot
starve slowly-converging models of gradient signal; the reported weights are
a trailing-window average for stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import families, optimizers


class IterationError(RuntimeError):
    """Too many rejected draws (or a fatal model failure) in one iteration."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class VbmaConfig:
    n_samples: int = 10           # S, MC draws per gradient/ELBO estimate
    pretrain_iters: int = 500
    joint_iters: int = 200
    window: int = 100             # trailing iterations averaged into final q
    seed: int = 0
    optimizer: str = "adam"
    step_size: float = None       # optimizer default when None
    conv_tol: float = 1e-4        # relative change of windowed mean ELBO
    conv_window: int = 50
    init_var: float = 0.01

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.window > max(self.joint_iters, 1):
            raise ValueError("window cannot exceed joint_iters")


@dataclass
class EnsembleState:
    models: list
    variational: list            # VariationalState per model
    opts: list                   # optimizer instance per model
    q: np.ndarray
    log_weights: np.ndarray      # latest unnormalized log weights
    elbo_trace: list             # per model: list of ELBO estimates
    weight_trace: list = field(default_factory=list)
    iteration: int = 0
    phase: str = "pretrain"
    converged: bool = False

    @property
    def k(self):
        return len(self.models)

    def final_weights(self, window):
        """Trailing-window mean of the weight trace (the reported q)."""
        if not self.weight_trace:
            return self.q.copy()
        tail = self.weight_trace[-window:]
        return np.mean(tail, axis=0)

    def to_text(self):
        lines = [f"iteration {self.iteration}", f"phase {self.phase}",
                 "q " + " ".join(repr(float(v)) for v in self.q)]
        for model, vs in zip(self.models, self.variational):
            lines.append(f"[model {model.name}]")
            lines.append(vs.to_text())
        return "\n".join(lines) + "\n"


def estimate_grad_and_elbo(model, state, z_draws, rng=None):
    """MC estimates (G, L) for one model from shared auxiliary draws.

    G stacks the gradient with respect to (mu, raw_scale); L is the mean
    sampled ELBO.  A draw whose log-joint is non-finite is rejected and
    resampled from ``rng``; more than 50% rejections aborts the iteration.
    """
    z_draws = np.atleast_2d(np.asarray(z_draws, dtype=float))
    S, d = z_draws.shape
    if d != state.dim:
        raise ValueError("auxiliary draws have wrong dimension")
    g_mu = np.zeros(d)
    g_raw = np.zeros(d)
    elbo = 0.0
    max_rejects = max(1, S // 2)
    rejects = 0
    for s in range(S):
        z = z_draws[s]
        while True:
            theta = families.sample(state, z)
            try:
                val, g_theta = ad.grad(
                    lambda th: model.log_joint(th) - families.log_q(state, th), theta
                )
                break
            except (ad.NonFiniteValueError, np.linalg.LinAlgError):
                rejects += 1
                if rejects > max_rejects or rng is None:
                    raise IterationError(
                        f"model '{model.name}': {rejects} rejected draws in one iteration"
                    )
                z = rng.standard_normal(d)
        d_mu, d_raw = families.reparam_jacobian(state, z, theta)
        g_mu += g_theta * d_mu
        g_raw += g_theta * d_raw
        elbo += val
    return np.concatenate([g_mu, g_raw]) / S, elbo / S


def update_weights(elbos, log_prior_weights):
    """Closed-form categorical update: softmax(L_M + log p(M))."""
    logits = np.asarray(elbos, dtype=float) + np.asarray(log_prior_weights, dtype=float)
    if np.all(np.isneginf(logits)):
        raise ValueError("all models have -inf weight")
    if not np.all(np.isfinite(logits[~np.isneginf(logits)])):
        raise ValueError("non-finite ELBO in weight update")
    shifted = logits - np.max(logits)
    w = np.exp(shifted)
    return w / w.sum()


def _model_rng(seed, iteration, k):
    # independent, reproducible substream per (iteration, model), so a
    # model's draws do not depend on the other models in the ensemble
    return np.random.default_rng(np.random.SeedSequence((seed, iteration, k)))


def init_state(config, models):
    variational = [
        families.VariationalState.initial(
            m.layout.tags(), m.layout.names(), init_var=config.init_var
        )
        for m in models
    ]
    opts = [
        optimizers.make_optimizer(config.optimizer, step_size=config.step_size)
        for _ in models
    ]
    k = len(models)
    return EnsembleState(
        models=list(models),
        variational=variational,
        opts=opts,
        q=np.full(k, 1.0 / k),
        log_weights=np.zeros(k),
        elbo_trace=[[] for _ in models],
    )


def _step_model(model, state, opt, weight, S, rng):
    z = rng.standard_normal((S, state.dim))
    G, L = estimate_grad_and_elbo(model, state, z, rng=rng)
    lam = np.concatenate([state.mu, state.raw_scale])
    # Weight multiplies the raw gradient before the adaptive step, following
    # the plain-SGA update lambda <- lambda + rho q(M) G literally.
    new = opt.step(lam, weight * G)
    d = state.dim
    return families.VariationalState(new[:d], new[d:], state.tags, state.names), L


def run(config: VbmaConfig, models, progress=None):
    """Execute pre-training then joint updates; returns the final state.

    ``progress`` (optional) is called as progress(state) after each iteration.
    """
    if not models:
        raise ValueError("need at least one model")
    state = init_state(config, models)
    k = state.k
    log_prior = np.log(np.array([m.prior_weight for m in models], dtype=float))

    def one_iteration(t, weights):
        elbos = np.empty(k)
        for i in range(k):
            try:
                vs, L = _step_model(models[i], state.variational[i], state.opts[i], weights[i],
                                    config.n_samples, _model_rng(config.seed, t, i))
            except IterationError as err:
                err.state = state
                raise
            state.variational[i] = vs
            state.elbo_trace[i].append(L)
            elbos[i] = L
        return elbos

    for t in range(config.pretrain_iters):
        one_iteration(t, state.q)  # q frozen at 1/K
        state.iteration += 1
        if progress:
            progress(state)

    state.phase = "joint"
    ens_elbo = []
    for t in range(config.pretrain_iters, config.pretrain_iters + config.joint_iters):
        elbos = one_iteration(t, state.q)
        state.log_weights = elbos + log_prior
        state.q = update_weights(elbos, log_prior)
        state.weight_trace.append(state.q.copy())
        state.iteration += 1
        ens_elbo.append(float(state.q @ elbos))
        if progress:
            progress(state)
        w = config.conv_window
        if len(ens_elbo) >= 2 * w and len(state.weight_trace) >= config.window:
            recent = np.mean(ens_elbo[-w:])
            previous = np.mean(ens_elbo[-2 * w:-w])
            if abs(recent - previous) < config.conv_tol * (abs(previous) + 1e-12):
                state.converged = True
                break

    state.q = state.final_weights(config.window)
    return state
