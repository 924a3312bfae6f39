"""The joint variational update loop over a finite model space.

Each iteration draws S auxiliary standard-normal vectors per model, forms
the Monte Carlo estimates of the per-model ELBO gradient (chained
through the reparametrization transform) and of the ELBO value, takes an
ascent step on the variational parameters, and refreshes the categorical
model weights in closed form via a max-subtracted softmax of the per-model
ELBO estimates plus log prior weights.  The gradient is the
sticking-the-landing estimator (Roeder, Wu & Duvenaud 2017): only the log
joint is differentiated on the tape; log q, held fixed in the variational
parameters, and the transform are closed forms.

A pre-training phase holds the weights at 1/K so early, noisy ELBOs cannot
starve slowly-converging models of gradient signal; the reported weights are
a trailing-window average for stability.

The loop runs over groups of models, each drawn from one random stream,
estimated in one pass and stepped by one optimizer: a subset ensemble (the
linear or logistic subsets of a predictor set, or the GP pair) is one group,
any other model a group of its own (see ``run``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import families, optimizers


# what a draw raises when its log joint cannot be evaluated
REJECTED = (ad.NonFiniteValueError, np.linalg.LinAlgError)


class IterationError(RuntimeError):
    """Too many rejected draws (or a fatal model failure) in one iteration."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class VbmaConfig:
    """The settings of a fit: one field per ``[run]`` key of the CLI."""

    n_samples: int = 10           # S, MC draws per gradient/ELBO estimate
    pretrain_iters: int = 500
    joint_iters: int = 200
    window: int = 100             # trailing iterations averaged into final q
    seed: int = 0
    optimizer: str = "adam"
    step_size: float = None       # optimizer default when None

    # every coordinate's starting variance; the joint phase stops once the
    # mean ensemble ELBO over the last CONV_WINDOW iterations changes by less
    # than CONV_TOL, relative to the CONV_WINDOW before
    INIT_VAR, CONV_TOL, CONV_WINDOW = 0.01, 1e-4, 50

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.pretrain_iters < 0 or self.joint_iters < 0:
            raise ValueError("pretrain_iters and joint_iters must be >= 0")
        if self.window < 0 or (self.window == 0 and self.joint_iters):
            raise ValueError("window must be >= 1, or 0 when joint_iters is 0")
        if self.window > max(self.joint_iters, 1):
            raise ValueError("window cannot exceed joint_iters")
        if self.optimizer.lower() not in optimizers.OPTIMIZERS:
            raise ValueError(f"unknown optimizer '{self.optimizer}' "
                             f"(expected {' or '.join(optimizers.OPTIMIZERS)})")
        if self.step_size is not None and not 0 < self.step_size < np.inf:  # nan too
            raise ValueError("step_size must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class _Group:
    """Models stepped together by one optimizer over the ``(K, 2D)`` array of
    their variational parameters: the members of a subset ensemble, or one
    model on its own.  Row k of the ``(K, D)`` ``mask`` is True where member
    k's coordinates sit in the ``(K, 1, D)`` arrays of ``state``, and row k
    of ``lognormal`` is 1.0 on its log-normal coordinates.
    ``stacked`` evaluates all members in one pass (a lone block-capable model
    is its own stack of one), or is None.
    """

    def __init__(self, models, members, mask, stacked, config):
        self.members = list(members)
        self.mask = mask
        self.stacked = stacked
        K, D = mask.shape
        self.own = np.concatenate([mask, mask], axis=1)
        self.lam = np.zeros((K, 2 * D))
        self.lam[:, D:][mask] = families.encode_scale(config.INIT_VAR)
        self.lognormal = np.zeros((K, D))
        self.lognormal[mask] = [t is families.FamilyTag.LOGNORMAL
                                for i in self.members for t in models[i].layout.tags()]
        self.state = families.VariationalState(self.lam[:, None, :D], self.lam[:, None, D:],
                                               self.lognormal[:, None], mask[:, None] * 1.0)
        self.opt = optimizers.make_optimizer(config.optimizer, step_size=config.step_size)

    def member(self, k):
        """Member k's VariationalState (a copy)."""
        own, D = self.mask[k], self.state.dim
        return families.VariationalState(self.lam[k, :D][own], self.lam[k, D:][own],
                                         self.lognormal[k][own])

    def estimate(self, models, rng, n_samples):
        """(G (K, 2D), the K ELBO estimates) from one ``(K, S, D)`` block of
        standard normals drawn from ``rng``, zero off the mask.  A failed
        stacked pass is redone member by member by the row loop on each
        member's slice of the same block, with redraws from ``rng``.
        """
        z = rng.standard_normal((len(self.members), n_samples, self.state.dim)) * self.state.mask
        if self.stacked is not None:
            try:
                G, L = estimate_grad_and_elbo(self.stacked, self.state, z)
                return np.where(self.own, G, 0.0), list(L)
            except REJECTED:
                pass
        G, L = np.zeros(self.lam.shape), []
        for k, i in enumerate(self.members):
            G[k, self.own[k]], L_k = estimate_grad_and_elbo(
                models[i], self.member(k), z[k][:, self.mask[k]], rng=rng)
            L.append(L_k)
        return G, L

    def step(self, weights, G):
        # Weight multiplies the raw gradient before the adaptive step, following
        # the plain-SGA update lambda <- lambda + rho q(M) G literally.
        self.lam = self.opt.step(self.lam, weights[self.members, None] * G)
        D = self.state.dim
        self.state = families.VariationalState(self.lam[:, None, :D], self.lam[:, None, D:],
                                               self.lognormal[:, None], self.state.mask)


def _groups(models, config):
    """One group for a list that carries its own ``members``, ``mask`` and
    ``stacked``, as a ``models.SubsetEnsemble`` does when its builder
    returned it (the subset builders and ``studies.gp_study``), while the
    list still holds exactly its members; otherwise one group per model."""
    if getattr(models, "members", None) == tuple(models):
        return [_Group(models, range(len(models)), models.mask, models.stacked, config)]
    return [_Group(models, [i], np.ones((1, m.layout.dim), dtype=bool),
                   m if m.supports_blocks else None, config)
            for i, m in enumerate(models)]


@dataclass
class EnsembleState:
    models: list
    groups: list                 # _Group per subset ensemble or lone model
    q: np.ndarray
    elbo_trace: list             # per model: list of ELBO estimates
    weight_trace: list = field(default_factory=list)
    iteration: int = 0
    phase: str = "pretrain"
    converged: bool = False

    @property
    def variational(self):
        """Per-model VariationalState, copied out of the groups."""
        return [g.member(k) for g in self.groups for k in range(len(g.members))]

    def to_text(self):
        """The checkpoint: iteration, phase and q, then per model a
        ``[model <name>]`` line and one ``name tag mu raw_scale`` line per
        coordinate of its layout, floats written with ``repr``."""
        lines = [f"iteration {self.iteration}", f"phase {self.phase}",
                 "q " + " ".join(repr(float(v)) for v in self.q)]
        for model, vs in zip(self.models, self.variational):
            lines.append(f"[model {model.name}]")
            lines += [f"{name} {tag.value} {float(m)!r} {float(r)!r}" for name, tag, m, r
                      in zip(model.layout.names(), model.layout.tags(), vs.mu, vs.raw_scale)]
        return "\n".join(lines) + "\n"


def parse_checkpoint(text):
    """Inverse of ``EnsembleState.to_text``: (q, {model name: (coordinate
    names, family tags, VariationalState)}).  Any other line before the
    first model block is skipped; a coordinate line without exactly four
    fields, or with an unknown tag or a value that is not a float, raises
    ``ValueError``."""
    head, *blocks = ("\n" + text).split("\n[model ")
    q = [float(v) for line in head.splitlines() if line.startswith("q ") for v in line.split()[1:]]
    states = {}
    for block in blocks:
        name, _, body = block.partition("\n")
        rows = [(n, families.FamilyTag(t), float(m), float(r))
                for n, t, m, r in map(str.split, body.strip().splitlines())]
        names, tags, mu, raw = zip(*rows) if rows else [()] * 4
        lognormal = [t is families.FamilyTag.LOGNORMAL for t in tags]
        states[name[:-1]] = names, tags, families.VariationalState(np.array(mu), np.array(raw),
                                                                   lognormal)
    return np.array(q), states


def estimate_grad_and_elbo(model, state, z_draws, rng=None):
    """MC estimates (G, L) for one model, or for a stack of K, from shared
    auxiliary draws.

    G stacks the gradient with respect to (mu, raw_scale); L is the mean
    sampled ELBO.  Draws ``(S, d)`` take the row loop, one pass per draw: a
    draw whose log-joint is non-finite is rejected and resampled from
    ``rng``; more than 50% rejections aborts the iteration.  A block
    ``(K, S, D)`` with a stacked ``families.VariationalState`` takes one pass
    and gives G ``(K, 2D)`` and L ``(K,)``; a failed draw raises.
    """
    z_draws = np.atleast_2d(np.asarray(z_draws, dtype=float))
    if z_draws.shape[-1] != state.dim:
        raise ValueError("auxiliary draws have wrong dimension")
    if z_draws.ndim == 2:
        return _estimate_rows(model, state, z_draws, rng)
    vals, terms = _pass(model, state, z_draws)
    return terms.mean(axis=1), vals.mean(axis=-1)


def _pass(model, state, z):
    """ELBO terms log p - log q at the draws ``z``, ``(d,)`` or ``(..., D)``,
    and their gradients in (mu, raw_scale), ``(..., 2D)``.  The log joint is
    evaluated first; a non-finite term or gradient raises."""
    theta = families.sample(state, z)
    lj, g_lj = ad.grad(model.log_joint, theta)
    lq, g_lq = families.log_q(state, theta)
    vals, g_theta = lj - lq, g_lj - g_lq
    if not (np.isfinite(vals).all() and np.isfinite(g_theta).all()):
        raise ad.NonFiniteValueError("log_joint - log_q")
    d_mu, d_raw = families.reparam_jacobian(state, z, theta)
    return vals, np.concatenate([g_theta * d_mu, g_theta * d_raw], axis=-1)


def _estimate_rows(model, state, z_draws, rng):
    S, d = z_draws.shape
    grad = np.zeros(2 * d)
    elbo = 0.0
    max_rejects = max(1, S // 2)
    rejects = 0
    for z in z_draws:
        while True:
            try:
                val, terms = _pass(model, state, z)
                break
            except REJECTED:
                rejects += 1
                if rejects > max_rejects or rng is None:
                    raise IterationError(
                        f"model '{model.name}': {rejects} rejected draws in one iteration"
                    )
                z = rng.standard_normal(d)
        grad += terms
        elbo += val
    return grad / S, elbo / S


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


def _model_rng(seed, iteration, j):
    # independent, reproducible substream per (iteration, group j); a lone
    # model's group index is its model index
    return np.random.default_rng(np.random.SeedSequence((seed, iteration, j)))


def init_state(config, models):
    k = len(models)
    return EnsembleState(
        models=list(models),
        groups=_groups(models, config),
        q=np.full(k, 1.0 / k),
        elbo_trace=[[] for _ in models],
    )


def run(config: VbmaConfig, models, progress=None):
    """Execute pre-training then joint updates; returns the final state.

    One loop runs both phases: ``state.phase`` is "pretrain" for the first
    ``pretrain_iters`` iterations, which step the models with q held at 1/K,
    and "joint" for the rest, which also refresh q; it reads "joint" once
    the run returns.  ``progress`` (optional) is called as progress(state)
    after each iteration.

    A subset ensemble as its builder returned it (see
    ``models.SubsetEnsemble``: the linear or logistic subsets of a predictor
    set, or ``studies.gp_study``'s pair) is one group: its members are
    evaluated in one pass per iteration, when its ``stacked`` model is not
    None, and stepped by one optimizer over their ``(K, 2D)`` parameters.
    Any other model is a group of its own.  Each
    group draws its ``(K, S, D)`` block of standard normals from its own
    stream per iteration; a stacked pass that fails is redone member by
    member on the same block, with redraws from the same stream.

    An ``IterationError`` carries in ``state`` the ensemble as it was before
    the failing iteration: every estimate is made before any model steps.
    """
    if not models:
        raise ValueError("need at least one model")
    state = init_state(config, models)
    log_prior = np.log(np.array([m.prior_weight for m in models], dtype=float))
    ens_elbo, w = [], config.CONV_WINDOW
    for t in range(config.pretrain_iters + config.joint_iters):
        state.phase = "pretrain" if t < config.pretrain_iters else "joint"
        try:
            estimates = [g.estimate(models, _model_rng(config.seed, t, j), config.n_samples)
                         for j, g in enumerate(state.groups)]
        except IterationError as err:
            err.state = state  # as before this iteration: no model stepped
            raise
        elbos = np.empty(len(models))
        for g, (G, L) in zip(state.groups, estimates):
            g.step(state.q, G)
            for i, L_i in zip(g.members, L):
                state.elbo_trace[i].append(L_i)
                elbos[i] = L_i
        if state.phase == "joint":
            state.q = update_weights(elbos, log_prior)
            state.weight_trace.append(state.q.copy())
            ens_elbo.append(float(state.q @ elbos))
        state.iteration += 1
        if progress:
            progress(state)
        if len(ens_elbo) >= 2 * w and len(state.weight_trace) >= config.window:
            recent = np.mean(ens_elbo[-w:])
            previous = np.mean(ens_elbo[-2 * w:-w])
            if abs(recent - previous) < config.CONV_TOL * (abs(previous) + 1e-12):
                state.converged = True
                break

    state.phase = "joint"
    if state.weight_trace:  # the reported q: the trailing-window mean
        state.q = np.mean(state.weight_trace[-config.window:], axis=0)
    return state
