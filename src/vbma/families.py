"""Mean-field variational families: normal and log-normal coordinates.

Each coordinate carries a location ``mu`` and an unconstrained scale
``raw_scale``.  The positive quantity recovered by the softplus decode,
``var = log(exp(raw_scale) + 1)``, is the family VARIANCE; its square root is
the standard deviation used by the reparametrization transform.  Optimizing
``raw_scale`` instead of the variance avoids constrained optimization.  One
type, ``VariationalState``, holds the coordinates of one model or of a stack
of models on one layout.  A state decodes its variances once, when
``raw_scale`` is assigned, with their logarithms and the draw's scale
derivative, and every draw, density and Jacobian of that state reads them.
A model's proper prior is a state too (``models.Model.prior``), built by
``VariationalState.exact`` to keep its standard deviations as given.

The draw, log q with its gradient and the Jacobian of the draw are closed
forms in numpy, off the autodiff tape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
    """The mean-field parameters of one model, as ``(d,)`` arrays, or of a
    stack of K models on one layout of D coordinates, as ``(K, 1, D)`` arrays
    that broadcast against a ``(K, S, D)`` block of draws.

    Each coordinate has a location ``mu``, an unconstrained scale
    ``raw_scale`` and a ``lognormal_mask`` entry, 1.0 on a log-normal
    coordinate and 0.0 on a normal one.  A stack's ``mask`` is 1 on each
    member's own coordinates and 0 on the padding, which ``log_q`` leaves
    out; padded coordinates are normal, with ``mu`` 0, and drawn at ``z`` 0
    they are sampled as exact zeros.  ``mask`` is None when every coordinate
    is the model's own.

    ``var`` = softplus(raw_scale), its square root, ``log_var`` and
    ``dsd_draw`` = sigmoid(raw_scale) / (2 sd), the derivative of the
    draw's scale in ``raw_scale``, are decoded when ``raw_scale`` is
    assigned, which it is whole, never changed in place.
    """

    mu: np.ndarray
    raw_scale: np.ndarray
    lognormal_mask: np.ndarray
    mask: np.ndarray = None

    def __setattr__(self, name, value):
        if name == "raw_scale":
            value = np.asarray(value, dtype=float)
            var = decode_scale(value)
            self._set_scale(var, np.sqrt(var), value)
        super().__setattr__(name, value)

    def _set_scale(self, var, sd, raw):
        # a variance that underflows to 0 gives non-finite constants, which
        # log_q and the optimizer reject where they read them
        with np.errstate(divide="ignore"):
            vars(self).update(var=var, _sd=sd, log_var=np.log(var),
                              dsd_draw=ad.sigmoid(raw) / (2.0 * sd))

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.lognormal_mask = np.asarray(self.lognormal_mask, dtype=float)
        if not self.mu.shape == self.raw_scale.shape == self.lognormal_mask.shape:
            raise ValueError("mu, raw_scale and lognormal_mask must have one shape")

    @classmethod
    def exact(cls, mu, sd, lognormal_mask):
        """A state whose standard deviations are ``sd``, variances ``sd * sd``
        and ``log_var`` their logarithm, held as given: decoding ``raw_scale``
        = encode_scale(sd^2) would round them."""
        sd = np.asarray(sd, dtype=float)
        state = cls(mu, encode_scale(sd * sd), lognormal_mask)
        state._set_scale(sd * sd, sd, state.raw_scale)
        return state

    def sd(self):
        """Decoded per-coordinate standard deviations."""
        return self._sd

    @property
    def dim(self):
        """Number of coordinates (of the shared layout, for a stack)."""
        return self.mu.shape[-1]


def _transform(mu, sd, m, z):
    u = mu + z * sd
    if not np.any(m):
        return u
    # exp applied only where needed so normal coordinates cannot overflow it
    return u * (1.0 - m) + m * np.exp(u * m)


def sample(state: VariationalState, z):
    """Plain-array draw from q at auxiliary standard normals ``z``.

    ``z`` is one vector ``(dim,)`` or a block ``(..., dim)`` of draws, such
    as ``(c, dim)``, or ``(K, S, D)`` for a stack.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != state.dim:
        raise ValueError("z has wrong length for this state")
    return _transform(state.mu, state.sd(), state.lognormal_mask, z)


def log_q(state: VariationalState, theta):
    """Log-density of the mean-field family at ``theta`` and its gradient in
    ``theta``, the variational parameters held fixed, as ``(values, grads)``.

    ``theta`` is one vector ``(dim,)`` or a block ``(..., dim)`` such as
    ``(S, dim)``, or ``(K, S, D)`` for a stack, giving one value
    per row.  A non-finite value or gradient raises
    ``ad.NonFiniteValueError("log_q")``.
    """
    t = np.asarray(theta, dtype=float)
    if t.shape[-1] != state.dim:
        raise ValueError("theta has wrong length for this state")
    m = state.lognormal_mask
    # a state without log-normal coordinates skips their terms, which would
    # be exact zeros (log theta) and ones (dx/dtheta), as sample does
    lognormal = m.any()
    if lognormal and ((m > 0) & (t <= 0)).any():
        raise ValueError("log-normal coordinate requires strictly positive theta")
    var = state.var
    with np.errstate(all="ignore"):  # checked once, below
        x = t  # the coordinates on their normal scale
        if lognormal:
            # log theta on log-normal coordinates, exactly 0 on normal ones
            normal = 1.0 - m
            scale = t * m + normal
            log_theta = np.log(scale)
            x = t * normal + log_theta
        quad = (x - state.mu) ** 2 / var
        terms = np.log(2.0 * np.pi) + state.log_var + quad
        d_x = (state.mu - x) / var  # d(-quad / 2) / dx
        if state.mask is not None:
            terms = terms * state.mask
            d_x = d_x * state.mask
        val, grads = -0.5 * terms.sum(axis=-1), d_x
        if lognormal:
            val = val - log_theta.sum(axis=-1)  # -log(theta) terms
            # dx/dtheta is 1/theta on log-normal coordinates, where the
            # Jacobian term adds -1/theta; 1 and 0 on normal ones
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
    m = state.lognormal_mask
    outer = (1.0 - m) + m * theta  # d theta / d u
    return outer, outer * z * state.dsd_draw

