"""Mean-field variational families: normal and log-normal coordinates.

Each coordinate carries a location ``mu`` and an unconstrained scale
``raw_scale``.  The positive quantity recovered by the softplus decode,
``var = log(exp(raw_scale) + 1)``, is the family VARIANCE; its square root is
the standard deviation used by the reparametrization transform.  Optimizing
``raw_scale`` instead of the variance avoids constrained optimization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


class FamilyTag(enum.Enum):
    NORMAL = "normal"
    LOGNORMAL = "lognormal"


def decode_scale(raw):
    """Unconstrained value -> positive variance via softplus."""
    return ad.softplus(raw)


def encode_scale(scale):
    """Positive variance -> unconstrained value (softplus inverse)."""
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0):
        raise ValueError("scale must be strictly positive")
    # log(exp(s) - 1) = s + log1p(-exp(-s)), stable for large s
    return scale + np.log1p(-np.exp(-scale))


@dataclass
class VariationalState:
    """Per-model variational parameters: one (mu, raw_scale) per coordinate."""

    # every coordinate is the model's own (see StackedState)
    mask = None

    mu: np.ndarray
    raw_scale: np.ndarray
    tags: tuple[FamilyTag, ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.raw_scale = np.asarray(self.raw_scale, dtype=float)
        if not (len(self.mu) == len(self.raw_scale) == len(self.tags)):
            raise ValueError("mu, raw_scale and tags must have equal length")
        if not self.names:
            self.names = tuple(f"theta{i}" for i in range(len(self.mu)))

    @property
    def dim(self):
        return len(self.mu)

    @property
    def lognormal_mask(self):
        return np.array([t is FamilyTag.LOGNORMAL for t in self.tags], dtype=float)

    def sd(self):
        """Decoded per-coordinate standard deviations."""
        return np.sqrt(ad.softplus(self.raw_scale))

    @staticmethod
    def initial(tags, names=(), init_var=0.01):
        """Zero locations; raw scales chosen so the initial variance is small,
        which keeps early stochastic gradients tame."""
        d = len(tags)
        raw = float(encode_scale(init_var))
        return VariationalState(np.zeros(d), np.full(d, raw), tuple(tags), tuple(names))

    # -- checkpoint serialization ------------------------------------------

    def to_text(self):
        lines = []
        for name, tag, m, r in zip(self.names, self.tags, self.mu, self.raw_scale):
            lines.append(f"{name} {tag.value} {float(m)!r} {float(r)!r}")
        return "\n".join(lines)

    @staticmethod
    def from_text(text):
        names, tags, mus, raws = [], [], [], []
        for line in text.strip().splitlines():
            name, tag, m, r = line.split()
            names.append(name)
            tags.append(FamilyTag(tag))
            mus.append(float(m))
            raws.append(float(r))
        return VariationalState(np.array(mus), np.array(raws), tuple(tags), tuple(names))


@dataclass
class StackedState:
    """The states of K models on one layout of D coordinates.

    Every array is ``(K, 1, D)``, so it broadcasts against a ``(K, S, D)``
    block of draws.  ``mask`` is 1 on each member's own coordinates and 0 on
    the padding, which ``log_q`` leaves out.  Padded coordinates are normal,
    with ``mu`` 0, and drawn at ``z`` 0 they are sampled as exact zeros.
    """

    mu: np.ndarray
    raw_scale: np.ndarray
    lognormal_mask: np.ndarray
    mask: np.ndarray

    @property
    def dim(self):
        return self.mu.shape[-1]


def reparam_sample(mu, raw_scale, lognormal_mask, z):
    """Differentiable transform t(z, (mu, raw_scale)) -> theta.

    Normal coordinate: theta = z * sd + mu; log-normal: theta = exp(z * sd + mu).
    ``mu``/``raw_scale`` may be tape nodes, making the transform differentiable
    in the variational parameters.
    """
    if np.shape(z)[-1] != np.shape(lognormal_mask)[-1]:
        raise ValueError("z has wrong length for this state")
    sd = ad.sqrt(ad.softplus(raw_scale))
    u = mu + z * sd
    if not np.any(lognormal_mask):
        return u
    m = lognormal_mask
    # exp applied only where needed so normal coordinates cannot overflow it
    return u * (1.0 - m) + m * ad.exp(u * m)


def sample(state: VariationalState, z):
    """Plain-array draw from q at auxiliary standard normals ``z``.

    ``z`` is one vector ``(dim,)`` or a block ``(..., dim)`` of draws, such
    as ``(c, dim)``, or ``(K, S, D)`` for a ``StackedState``.
    """
    theta = reparam_sample(state.mu, state.raw_scale, state.lognormal_mask, np.asarray(z, dtype=float))
    return theta.value if isinstance(theta, ad.Node) else theta


def log_q(state: VariationalState, theta):
    """Log-density of the mean-field family at ``theta`` (may be a tape node).

    ``theta`` is one vector ``(dim,)`` or a block ``(..., dim)`` such as
    ``(S, dim)``, or ``(K, S, D)`` for a ``StackedState``, giving one value
    per row.  Variational parameters enter as constants; differentiate
    through ``theta``.
    """
    theta_vals = theta.value if isinstance(theta, ad.Node) else np.asarray(theta, dtype=float)
    if np.shape(theta_vals)[-1] != state.dim:
        raise ValueError("theta has wrong length for this state")
    m = state.lognormal_mask
    if np.any((m > 0) & (theta_vals <= 0)):
        raise ValueError("log-normal coordinate requires strictly positive theta")
    var = ad.softplus(state.raw_scale)
    # log theta on log-normal coordinates, exactly 0 on normal ones
    log_theta = ad.log(theta * m + (1.0 - m))
    x = theta * (1.0 - m) + log_theta  # the coordinates on their normal scale
    quad = (x - state.mu) ** 2 / var
    jac = ad.vsum(log_theta, axis=-1)  # -log(theta) terms
    terms = np.log(2.0 * np.pi) + np.log(var) + quad
    if state.mask is not None:
        terms = terms * state.mask
    return -0.5 * ad.vsum(terms, axis=-1) - jac


def reparam_jacobian(state: VariationalState, z, theta):
    """Analytic d theta / d (mu, raw_scale) of the transform, per coordinate.

    Returns ``(d_mu, d_raw)`` arrays shaped like ``theta``: ``(dim,)`` or a
    block ``(..., dim)``.  Used to chain the parameter-space gradient through
    the transform without taping it.
    """
    z = np.asarray(z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    var = ad.softplus(state.raw_scale)
    sd = np.sqrt(var)
    dsd_draw = ad.sigmoid(state.raw_scale) / (2.0 * sd)
    m = state.lognormal_mask
    outer = (1.0 - m) + m * theta  # d theta / d u
    return outer, outer * z * dsd_draw

