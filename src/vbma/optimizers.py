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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, step_size=0.05):
        self.step_size = step_size
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
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * g
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * g2
        m_hat = self.m / (1.0 - self.BETA1**self.t)
        v_hat = self.v / (1.0 - self.BETA2**self.t)
        return lam + self.step_size * m_hat / (np.sqrt(v_hat) + self.EPS)


class RMSprop:
    """Mean-square-scaled ascent."""

    DECAY, EPS = 0.9, 1e-8

    def __init__(self, step_size=0.01):
        self.step_size = step_size
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
        self.sq = self.DECAY * self.sq + (1.0 - self.DECAY) * g2
        return lam + self.step_size * g / (np.sqrt(self.sq) + self.EPS)


OPTIMIZERS = {"adam": Adam, "rmsprop": RMSprop}


def make_optimizer(name, step_size=None):
    """The named stepper, at its own default step size unless one is given."""
    cls = OPTIMIZERS.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown optimizer '{name}'")
    return cls() if step_size is None else cls(step_size)

