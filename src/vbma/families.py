"""Mean-field variational families: normal and log-normal coordinates.

Each coordinate carries a location ``mu`` and an unconstrained scale
``raw_scale``.  The positive quantity recovered by the softplus decode,
``var = log(exp(raw_scale) + 1)``, is the family VARIANCE; its square root is
the standard deviation used by the reparametrization transform.  Optimizing
``raw_scale`` instead of the variance avoids constrained optimization.  A
state decodes its variances once, when ``raw_scale`` is assigned, and every
draw, density and Jacobian of that state reads them.

The draw, log q with its gradient and the Jacobian of the draw are closed
forms in numpy, off the autodiff tape.
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


class _Decoded:
    """Keeps ``var`` = softplus(raw_scale) and its square root in step with
    ``raw_scale``, which is assigned whole, never changed in place."""

    def __setattr__(self, name, value):
        if name == "raw_scale":
            value = np.asarray(value, dtype=float)
            super().__setattr__("var", decode_scale(value))
            super().__setattr__("_sd", np.sqrt(self.var))
        super().__setattr__(name, value)

    def sd(self):
        """Decoded per-coordinate standard deviations."""
        return self._sd

    @property
    def dim(self):
        """Number of coordinates (of the shared layout, for a stack)."""
        return self.mu.shape[-1]


@dataclass
class VariationalState(_Decoded):
    """Per-model variational parameters: one (mu, raw_scale) per coordinate."""

    # every coordinate is the model's own (see StackedState)
    mask = None

    mu: np.ndarray
    raw_scale: np.ndarray
    tags: tuple[FamilyTag, ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if not (len(self.mu) == len(self.raw_scale) == len(self.tags)):
            raise ValueError("mu, raw_scale and tags must have equal length")
        if not self.names:
            self.names = tuple(f"theta{i}" for i in range(len(self.mu)))

    @property
    def lognormal_mask(self):
        return np.array([t is FamilyTag.LOGNORMAL for t in self.tags], dtype=float)

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
class StackedState(_Decoded):
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


def _transform(mu, sd, m, z):
    u = mu + z * sd
    if not np.any(m):
        return u
    # exp applied only where needed so normal coordinates cannot overflow it
    return u * (1.0 - m) + m * np.exp(u * m)


def sample(state: VariationalState, z):
    """Plain-array draw from q at auxiliary standard normals ``z``.

    ``z`` is one vector ``(dim,)`` or a block ``(..., dim)`` of draws, such
    as ``(c, dim)``, or ``(K, S, D)`` for a ``StackedState``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != state.dim:
        raise ValueError("z has wrong length for this state")
    return _transform(state.mu, state.sd(), state.lognormal_mask, z)


def log_q(state: VariationalState, theta):
    """Log-density of the mean-field family at ``theta`` and its gradient in
    ``theta``, the variational parameters held fixed, as ``(values, grads)``.

    ``theta`` is one vector ``(dim,)`` or a block ``(..., dim)`` such as
    ``(S, dim)``, or ``(K, S, D)`` for a ``StackedState``, giving one value
    per row.  A non-finite value or gradient raises
    ``ad.NonFiniteValueError("log_q")``.
    """
    t = np.asarray(theta, dtype=float)
    if t.shape[-1] != state.dim:
        raise ValueError("theta has wrong length for this state")
    m = state.lognormal_mask
    if ((m > 0) & (t <= 0)).any():
        raise ValueError("log-normal coordinate requires strictly positive theta")
    var = state.var
    with np.errstate(all="ignore"):  # checked once, below
        # log theta on log-normal coordinates, exactly 0 on normal ones
        scale = t * m + (1.0 - m)
        log_theta = np.log(scale)
        x = t * (1.0 - m) + log_theta  # the coordinates on their normal scale
        quad = (x - state.mu) ** 2 / var
        terms = np.log(2.0 * np.pi) + np.log(var) + quad
        d_x = (state.mu - x) / var  # d(-quad / 2) / dx
        if state.mask is not None:
            terms = terms * state.mask
            d_x = d_x * state.mask
        val = -0.5 * terms.sum(axis=-1) - log_theta.sum(axis=-1)  # -log(theta) terms
        # dx/dtheta is 1/theta on log-normal coordinates, where the Jacobian
        # term adds -1/theta; 1 and 0 on normal ones
        grads = (d_x - m) / scale
    if not (np.isfinite(val).all() and np.isfinite(grads).all()):
        raise ad.NonFiniteValueError("log_q")
    return val, grads


def reparam_jacobian(state: VariationalState, z, theta):
    """Analytic d theta / d (mu, raw_scale) of the transform, per coordinate.

    Returns ``(d_mu, d_raw)`` arrays shaped like ``theta``: ``(dim,)`` or a
    block ``(..., dim)``.  Used to chain the parameter-space gradient through
    the transform without taping it.
    """
    z = np.asarray(z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dsd_draw = ad.sigmoid(state.raw_scale) / (2.0 * state.sd())
    m = state.lognormal_mask
    outer = (1.0 - m) + m * theta  # d theta / d u
    return outer, outer * z * dsd_draw

