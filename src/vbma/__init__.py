"""Black-box variational Bayesian model averaging.

Jointly optimizes per-model mean-field variational posteriors and a
categorical distribution over a finite model space with reparametrization
gradients, yielding posterior model probabilities, Bayes factors, and
model-averaged predictions without MCMC or explicit evidence integration.
"""

from .core import EnsembleState, VbmaConfig, estimate_grad_and_elbo, run, update_weights
from .evidence import EvidenceEstimate, evidence_to_posterior, mc_log_evidence, zellner_log_evidence
from .families import FamilyTag, VariationalState, encode_scale
from .metrics import BmaPosterior, bayes_factor, bma_draw, coverage_curve, equal_tail_interval, rmse
from .models import (
    GPModel,
    GaussianMeanModel,
    LinRegModel,
    LogisticModel,
    linreg_subset_ensemble,
    logistic_subset_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "BmaPosterior",
    "EnsembleState",
    "EvidenceEstimate",
    "FamilyTag",
    "GPModel",
    "GaussianMeanModel",
    "LinRegModel",
    "LogisticModel",
    "VariationalState",
    "VbmaConfig",
    "bayes_factor",
    "bma_draw",
    "coverage_curve",
    "encode_scale",
    "equal_tail_interval",
    "estimate_grad_and_elbo",
    "evidence_to_posterior",
    "linreg_subset_ensemble",
    "logistic_subset_ensemble",
    "mc_log_evidence",
    "rmse",
    "run",
    "update_weights",
    "zellner_log_evidence",
]
