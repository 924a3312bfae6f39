"""Stochastic gradient ASCENT steppers (Adam, RMSprop).

All steppers move in the +gradient direction; the caller supplies the raw
(possibly weight-scaled) gradient estimate.  A step with a non-finite
gradient, or one whose square overflows and would freeze its coordinate, is
rejected before any state is touched.
"""

from __future__ import annotations

import numpy as np


class NonFiniteGradientError(ValueError):
    pass


def _checked(g):
    """(g, g**2) as float arrays; raises unless g**2 is finite."""
    g = np.asarray(g, dtype=float)
    with np.errstate(over="ignore"):
        g2 = g**2
    if not np.all(np.isfinite(g2)):
        bad = np.flatnonzero(~np.isfinite(g2)).tolist()
        raise NonFiniteGradientError(f"non-finite gradient or its square at coordinates {bad}")
    return g, g2


class Adam:
    """Bias-corrected adaptive ascent (constant step size)."""

    def __init__(self, step_size=0.05, beta1=0.9, beta2=0.999, eps=1e-8):
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, lam, g):
        g, g2 = _checked(g)
        lam = np.asarray(lam, dtype=float)
        if g.shape != lam.shape:
            raise ValueError("gradient and parameter shapes differ")
        if self.m is None:
            self.m = np.zeros_like(lam)
            self.v = np.zeros_like(lam)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return lam + self.step_size * m_hat / (np.sqrt(v_hat) + self.eps)


class RMSprop:
    """Mean-square-scaled ascent."""

    def __init__(self, step_size=0.01, decay=0.9, eps=1e-8):
        self.step_size = step_size
        self.decay = decay
        self.eps = eps
        self.sq = None
        self.t = 0

    def step(self, lam, g):
        g, g2 = _checked(g)
        lam = np.asarray(lam, dtype=float)
        if g.shape != lam.shape:
            raise ValueError("gradient and parameter shapes differ")
        if self.sq is None:
            self.sq = np.zeros_like(lam)
        self.t += 1
        self.sq = self.decay * self.sq + (1.0 - self.decay) * g2
        return lam + self.step_size * g / (np.sqrt(self.sq) + self.eps)


def make_optimizer(name, step_size=None, **kw):
    name = name.lower()
    if name == "adam":
        return Adam(step_size=0.05 if step_size is None else step_size, **kw)
    if name == "rmsprop":
        return RMSprop(step_size=0.01 if step_size is None else step_size, **kw)
    raise ValueError(f"unknown optimizer '{name}'")

