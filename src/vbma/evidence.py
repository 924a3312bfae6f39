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

from .core import update_weights
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
    coef, *_ = np.linalg.lstsq(model.X, yt, rcond=None)  # fits nothing at p = 0
    ss_fit = float(yt @ (model.X @ coef))
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
    draws, one ``model.sample_prior(rng, n)`` call per block of n, are
    evaluated in blocks of as many rows as hold 32 MiB
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
    for lo in range(0, n_samples, batch):
        thetas = model.sample_prior(rng, min(batch, n_samples - lo))
        if model.supports_blocks:
            log_liks[lo:lo + len(thetas)] = model.log_lik(thetas)
        else:
            for i, theta in enumerate(thetas, lo):
                log_liks[i] = model.log_lik(theta)
    log_ev = logsumexp(log_liks) - np.log(n_samples)
    # delta method on the log scale: se(log m) ~ sd(w) / (mean(w) sqrt(N)),
    # computed with shifted weights for stability
    w = np.exp(log_liks - log_liks.max())
    se = float(w.std(ddof=1) / (w.mean() * np.sqrt(n_samples)))
    return EvidenceEstimate(float(log_ev), EvidenceMethod.MONTE_CARLO, se)


def evidence_to_posterior(estimates, prior_weights):
    """Posterior model probabilities from log evidences (Bayes' theorem):
    ``core.update_weights`` of the log evidences and log prior weights, the
    softmax of the weight update, which rejects a NaN and an all -inf set."""
    methods = {e.method for e in estimates}
    if EvidenceMethod.CLOSED_FORM_ZELLNER in methods and len(methods) > 1:
        raise ConfigurationError(
            "cannot mix g-prior evidences (defined up to a shared constant) "
            "with proper-prior evidences"
        )
    return update_weights([e.log_evidence for e in estimates],
                          np.log(np.asarray(prior_weights, dtype=float)))
