"""Dataset ingestion: CSV loading, log/center preparation, splits, and the
synthetic 2-D lattice generator for the Gaussian-process study.

A prepared dataset holds the transformed columns only: models fit, predict
and report on that scale, and nothing maps a prediction back to the
original units.
"""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass

import numpy as np


class IngestionError(ValueError):
    pass


@dataclass
class Dataset:
    columns: dict  # name -> 1-d float array
    response: str
    train_mask: np.ndarray = None  # bool per row; None = all training

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise IngestionError("columns have unequal lengths")
        if self.train_mask is None:
            self.train_mask = np.ones(self.n, dtype=bool)

    @property
    def n(self):
        return len(next(iter(self.columns.values())))

    def column(self, name, rows="all"):
        x = self.columns[name]
        if rows == "train":
            return x[self.train_mask]
        if rows == "test":
            return x[~self.train_mask]
        return x

    @property
    def inputs(self):
        """Names of the non-response columns, in table order."""
        return tuple(n for n in self.columns if n != self.response)

    def design(self, names, rows="train"):
        """Stacked design matrix (no intercept column) for the named predictors;
        ``(n_rows, 0)`` when ``names`` is empty."""
        if not names:
            return np.zeros((len(self.y(rows)), 0))
        return np.column_stack([self.column(n, rows) for n in names])

    def y(self, rows="train"):
        return self.column(self.response, rows)


def load_csv(path, columns=None):
    """Read a CSV into a Dataset-ready column dict.

    ``columns`` restricts and validates the header; every requested cell must
    parse as a float.  Errors name the offending row/column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.lstrip().startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file")
        header = [h.strip() for h in header]
        wanted = list(columns) if columns is not None else header
        missing = [c for c in wanted if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing columns {missing}")
        idx = {c: header.index(c) for c in wanted}
        data = {c: [] for c in wanted}
        nrows = 0
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            for c in wanted:
                try:
                    cell = row[idx[c]].strip()
                except IndexError:  # a row shorter than the header
                    cell = ""
                if cell == "":
                    raise IngestionError(f"{path}: missing value at row {rownum}, column '{c}'")
                try:
                    data[c].append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: unparseable cell '{cell}' at row {rownum}, column '{c}'"
                    )
            nrows += 1
    if nrows == 0:
        raise IngestionError(f"{path}: no data rows")
    return {c: np.array(v) for c, v in data.items()}


def bundled_path(name):
    """Path of a CSV shipped with the package."""
    return importlib.resources.files("vbma.datasets").joinpath(name)


def prepare(columns, response, log_columns=(), center_columns=(), train_mask=None):
    """Log-transform then center the named columns.

    Centering offsets are computed on training rows only, so held-out rows
    do not leak into the transform.  A ``response``, log or center name that
    is not a column raises ``IngestionError``.
    """
    missing = [name for name in (response, *log_columns, *center_columns) if name not in columns]
    if missing:
        raise IngestionError(f"no column {missing[0]!r} (columns: {', '.join(columns)})")
    out = {}
    n = len(next(iter(columns.values())))
    mask = np.ones(n, dtype=bool) if train_mask is None else np.asarray(train_mask, dtype=bool)
    for name, x in columns.items():
        x = np.asarray(x, dtype=float).copy()
        if name in log_columns:
            bad = np.flatnonzero(x <= 0)
            if bad.size:
                raise IngestionError(
                    f"column '{name}': nonpositive value at row {bad[0] + 1} under log transform"
                )
            x = np.log(x)
        if name in center_columns:
            x = x - float(np.mean(x[mask]))
        out[name] = x
    return Dataset(out, response, train_mask=mask)


def split_mask(n, fraction, seed):
    """Reproducible boolean training mask with round(fraction * n) True rows."""
    if not 0 < fraction <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {fraction}")
    if fraction == 1:
        return np.ones(n, dtype=bool)
    n_train = int(round(fraction * n))
    if not n_train:
        raise ValueError(f"train_fraction {fraction} leaves no training rows out of {n}")
    rng = np.random.default_rng(seed)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:n_train]] = True
    return mask


def sq_exp_kernel(coords, eta, nu1, nu2, other=None):
    """Squared-exponential kernel on 2-d inputs with per-axis ranges, between
    the rows of ``coords`` and those of ``other`` (default: ``coords``)."""
    coords = np.asarray(coords, dtype=float)
    other = coords if other is None else np.asarray(other, dtype=float)
    d1 = coords[:, 0][:, None] - other[:, 0][None, :]
    d2 = coords[:, 1][:, None] - other[:, 1][None, :]
    # eta^2 exp(-d1^2 / 2 nu1^2 - d2^2 / 2 nu2^2), in d1's and d2's storage
    np.negative(np.square(d1, out=d1), out=d1)
    d1 /= 2.0 * nu1**2
    np.square(d2, out=d2)
    d2 /= 2.0 * nu2**2
    d1 -= d2
    np.exp(d1, out=d1)
    d1 *= eta**2
    return d1


def synth_gp_dataset(grid_size=20, beta=0.0, eta=1.0, nu1=3.0, nu2=3.0, sigma=0.3,
                     seed=0, n_test=100, jitter=1e-8):
    """Draw a surface from a constant-mean GP on an integer lattice.

    The test set is a contiguous frontier region (the trailing ``n_test``
    rows of the lattice, 0 <= n_test <= grid_size**2), mimicking
    extrapolation beyond the training domain.  The surface is drawn before
    the split, so ``n_test`` does not change ``y``.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    for name, v in (("eta", eta), ("nu1", nu1), ("nu2", nu2)):
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    g1, g2 = np.meshgrid(np.arange(grid_size), np.arange(grid_size), indexing="ij")
    coords = np.column_stack([g1.ravel(), g2.ravel()]).astype(float)
    n = coords.shape[0]
    if not 0 <= n_test <= n:
        raise ValueError(f"n_test must be in 0 ... {n} (grid_size**2), got {n_test}")
    K = sq_exp_kernel(coords, eta, nu1, nu2)
    K.flat[:: n + 1] += sigma**2 + jitter
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(K)
    y = beta + L @ rng.standard_normal(n)
    mask = np.ones(n, dtype=bool)
    mask[n - n_test:] = False  # frontier rows held out
    return Dataset(
        {"x1": coords[:, 0], "x2": coords[:, 1], "y": y},
        response="y",
        train_mask=mask,
    )


def synth_heart_dataset(n=303, seed=1):
    """Synthetic heart-disease-style table (documented stand-in).

    The original clinical table is not redistributable here, so the bundled
    copy is generated by this function instead: marginal means/sds and the
    correlation structure follow published summaries of the well-known
    303-subject table (age 54.4 +- 9.0, resting blood pressure 131.6 +- 17.5,
    cholesterol 246.7 +- 51.8, max heart rate 149.6 +- 22.9, 68% male,
    cor(age, thalach) ~ -0.40).  The response is Bernoulli with a logit that
    loads on log cholesterol, log blood pressure, sex, and log max heart
    rate; age enters only through its correlation with the others.  The
    coefficients were fixed from reported effect directions and magnitudes;
    the default seed is the first whose realized maximum-likelihood fit sits
    within 0.7 standard errors of the generating coefficients (a draw
    representative of its own design, not tuned to any target output).
    """
    rng = np.random.default_rng(seed)
    means = np.array([54.4, 131.6, 246.7, 149.6])  # age, trestbps, chol, thalach
    sds = np.array([9.0, 17.5, 51.8, 22.9])
    corr = np.array([
        [1.00, 0.28, 0.21, -0.40],
        [0.28, 1.00, 0.13, -0.05],
        [0.21, 0.13, 1.00, -0.10],
        [-0.40, -0.05, -0.10, 1.00],
    ])
    cov = corr * np.outer(sds, sds)
    x = rng.multivariate_normal(means, cov, size=n)
    x = np.maximum(x, means / 4.0)  # keep clinical measurements positive
    age, trestbps, chol, thalach = x.T
    sex = (rng.random(n) < 0.68).astype(float)
    lc = np.log(chol) - np.mean(np.log(chol))
    lt = np.log(trestbps) - np.mean(np.log(trestbps))
    lh = np.log(thalach) - np.mean(np.log(thalach))
    # age coefficient is exactly zero: its apparent effect is mediated by
    # max heart rate, mirroring the usual finding on the real table
    logit = -0.9 + 1.75 * lc + 2.7 * lt + 1.3 * sex - 6.9 * lh
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return {
        "age": np.round(age, 1),
        "sex": sex,
        "trestbps": np.round(trestbps, 1),
        "chol": np.round(chol, 1),
        "thalach": np.round(thalach, 1),
        "y": y,
    }


def write_csv(path, columns, header_comments=()):
    names = list(columns)
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*[columns[c] for c in names]):
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])
