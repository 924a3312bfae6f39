"""Independent log-evidence estimates: the closed-form g-prior result for
linear subset models and plain Monte Carlo integration over a proper prior.

The closed form is exact for the Normal-Gamma conjugacy with the improper
precision and intercept blocks.  Its value includes only constants shared by
every model in a subset ensemble, so posterior probabilities and Bayes
factors computed from it are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .models import MC_BYTES, LinRegModel


class EvidenceMethod(enum.Enum):
    CLOSED_FORM_ZELLNER = "zellner"
    MONTE_CARLO = "mc"


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class EvidenceEstimate:
    log_evidence: float
    method: EvidenceMethod
    mc_samples: int = 0
    standard_error: float = 0.0

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")


def zellner_log_evidence(model: LinRegModel) -> EvidenceEstimate:
    """Exact log evidence of a centered-design g-prior linear model.

    Integrating the flat intercept, the g-prior slope block, and phi ~ 1/phi
    gives, with ytilde the centered response, P the hat projection of the
    active subset, and Q = ytilde'ytilde - g/(1+g) ytilde'P ytilde:

        log p(d|M) = -((n-1)/2) log(2 pi) - (1/2) log n + lgamma((n-1)/2)
                     + ((n-1)/2) log 2 - (p/2) log(1+g) - ((n-1)/2) log Q
    """
    n, p, g = model.n, model.p, model.g
    if n <= p + 1:
        raise ConfigurationError("need n > p + 1 for the g-prior evidence")
    y = model.y
    yt = y - y.mean()
    ss_tot = float(yt @ yt)
    if p:
        coef, *_ = np.linalg.lstsq(model.X, yt, rcond=None)
        fitted = model.X @ coef
        ss_fit = float(yt @ fitted)
    else:
        ss_fit = 0.0
    q = ss_tot - g / (1.0 + g) * ss_fit
    log_ev = (
        -0.5 * (n - 1) * np.log(2.0 * np.pi)
        - 0.5 * np.log(n)
        + gammaln(0.5 * (n - 1))
        + 0.5 * (n - 1) * np.log(2.0)
        - 0.5 * p * np.log(1.0 + g)
        - 0.5 * (n - 1) * np.log(q)
    )
    return EvidenceEstimate(float(log_ev), EvidenceMethod.CLOSED_FORM_ZELLNER)


# a likelihood block holds at most MC_BATCH rows and about MC_BYTES of
# temporaries (models.MC_BYTES)
MC_BATCH = 4096


def mc_log_evidence(model, n_samples, seed=0) -> EvidenceEstimate:
    """Monte Carlo integration of the likelihood over the prior.

    Everything stays in the log domain (log-sum-exp minus log N); the
    standard error of the log evidence comes from the delta method.  Prior
    draws are evaluated in blocks of as many rows as hold 32 MiB
    (``MC_BYTES``) of temporaries by ``model.bytes_per_draw()``, and at most
    ``MC_BATCH``.  The estimate does not depend on the block size.
    """
    if not model.has_proper_prior():
        raise ConfigurationError(
            f"model '{model.name}' has an improper prior; MC integration undefined"
        )
    if n_samples < 2:
        raise ConfigurationError(
            f"MC evidence needs at least 2 samples for its standard error, got {n_samples}")
    rng = np.random.default_rng(seed)
    batch = max(1, min(MC_BATCH, MC_BYTES // model.bytes_per_draw()))
    log_liks = np.empty(n_samples)
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        thetas = np.stack([model.sample_prior(rng) for _ in range(m)])
        if model.supports_blocks:
            log_liks[done:done + m] = model.log_lik(thetas)
        else:
            for j in range(m):
                log_liks[done + j] = model.log_lik(thetas[j])
        done += m
    log_ev = logsumexp(log_liks) - np.log(n_samples)
    # delta method on the log scale: se(log m) ~ sd(w) / (mean(w) sqrt(N)),
    # computed with shifted weights for stability
    w = np.exp(log_liks - log_liks.max())
    se = float(w.std(ddof=1) / (w.mean() * np.sqrt(n_samples)))
    return EvidenceEstimate(float(log_ev), EvidenceMethod.MONTE_CARLO, n_samples, se)


def evidence_to_posterior(estimates, prior_weights):
    """Posterior model probabilities from log evidences (Bayes' theorem)."""
    methods = {e.method for e in estimates}
    if EvidenceMethod.CLOSED_FORM_ZELLNER in methods and len(methods) > 1:
        raise ConfigurationError(
            "cannot mix g-prior evidences (defined up to a shared constant) "
            "with proper-prior evidences"
        )
    logits = np.array([e.log_evidence for e in estimates]) + np.log(
        np.asarray(prior_weights, dtype=float)
    )
    shifted = logits - logits.max()
    w = np.exp(shifted)
    return w / w.sum()
