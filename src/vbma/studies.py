"""Canonical study pipelines bundled with the package: the aggregate-crime
linear ensemble, the heart-disease-style logistic ensemble, and the synthetic
spatial Gaussian-process pair.

Each builder returns (dataset, models) with the documented preprocessing
already applied, so the command-line front end and the test suite construct
identical ensembles.
"""

from __future__ import annotations

import numpy as np

from . import data as data_io
from .models import GPModel, SubsetEnsemble, linreg_subset_ensemble, logistic_subset_ensemble

CRIME_PREDICTORS = ("M", "Prob", "Ed")
HEART_PREDICTORS = ("chol", "trestbps", "sex", "age", "thalach")
# columns a heart table must carry; y is 1 where the diagnosis code is > 0
HEART_COLUMNS = ("age", "sex", "trestbps", "chol", "thalach", "y")

# drop-one-predictor comparisons exercised by the Bayes-factor front end:
# (model without the first predictor, model with it)
CRIME_BF_PAIR = ("lin:Prob", "lin:M+Prob")
HEART_BF_PAIR = (
    "logit:trestbps+sex+age+thalach",
    "logit:chol+trestbps+sex+age+thalach",
)


def crime_study(train_fraction=1.0, split_seed=0, g=None):
    """Linear g-prior subset ensemble on the bundled 47-state crime table.

    Response and the three predictors (percent young males, imprisonment
    probability, mean schooling) are log-transformed and centered; centering
    the response costs nothing under the flat intercept prior and lets the
    default optimization budget converge.
    """
    cols = data_io.load_csv(data_io.bundled_path("crime.csv"))
    named = ("y",) + CRIME_PREDICTORS
    ds = data_io.prepare(cols, "y", log_columns=named, center_columns=named,
                         train_fraction=train_fraction, split_seed=split_seed)
    return ds, linreg_subset_ensemble(ds, CRIME_PREDICTORS, g=g)


def heart_study(prior_sd=10.0, path=None):
    """Logistic subset ensemble on a heart-style table.

    ``path`` names a CSV with the ``HEART_COLUMNS`` (other columns are
    ignored); the default is the bundled synthetic stand-in.  Continuous
    measurements are log-transformed and centered; sex stays 0/1.
    """
    if path is None:
        path = data_io.bundled_path("heart.csv")
    cols = data_io.load_csv(path, columns=HEART_COLUMNS)
    continuous = ("chol", "trestbps", "age", "thalach")
    ds = data_io.prepare(cols, "y", log_columns=continuous,
                         center_columns=continuous)
    return ds, logistic_subset_ensemble(ds, HEART_PREDICTORS, prior_sd=prior_sd)


def gp_study(grid_size=20, n_test=100, seed=0, offset_sds=2.0):
    """Two-model spatial selection problem on a synthetic lattice surface.

    The first candidate estimates its constant mean (matching how the data
    were generated); the second fixes the mean at an offset of ``offset_sds``
    sample standard deviations (finite), a deliberately misspecified variant.
    The offset needs the sample sd of at least two training rows.  The pair is
    a ``SubsetEnsemble``: ``core.run`` evaluates both in one pass per
    iteration, with the fixed-mean member padded at beta.
    """
    if not np.isfinite(offset_sds):
        raise ValueError(f"gp study needs a finite offset_sds, got {offset_sds}")
    if not 0 <= n_test <= max(grid_size, 0) ** 2 - 2:
        raise ValueError(f"gp study needs 0 <= n_test <= grid_size**2 - 2 (two training "
                         f"rows), got n_test={n_test}, grid_size={grid_size}")
    ds = data_io.synth_gp_dataset(grid_size=grid_size, n_test=n_test, seed=seed)
    coords = np.column_stack([ds.column("x1", "train"), ds.column("x2", "train")])
    y = ds.y("train")
    wrong_mean = float(y.mean() + offset_sds * y.std(ddof=1))
    models = [
        GPModel(coords, y, free_mean=True, name="gp:free-mean", prior_weight=0.5),
        GPModel(coords, y, free_mean=False, mean_offset=wrong_mean,
                name="gp:offset-mean", prior_weight=0.5),
    ]
    return ds, SubsetEnsemble(models)

